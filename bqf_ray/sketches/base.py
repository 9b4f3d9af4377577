"""MergeableSketch protocol — the engine's UDAF contract.

Every sketch (BQF, HLL, Count-Min, t-digest, KLL, blocked Bloom) implements
this protocol so one set of Ray Data stages (the ``SketchAgg`` aggregate,
the partitioned build, probe) drives all of them.  This generalizes the
reference's abstract ``Bqf`` hook surface
(/root/reference/src/headers/abstract_bqf.hpp:154-170) from "pluggable count
codecs" to "pluggable mergeable aggregate state".

Contract (all REQUIRED to hold, property-tested in
tests/test_merge_properties.py):

- ``update_batch`` is order-insensitive: any permutation/partitioning of the
  input stream yields the same final answers.
- ``merge`` is associative and commutative: any merge tree over any
  partitioning of the stream ≡ a single sketch fed everything.
- ``to_bytes``/``from_bytes`` round-trip exactly and are stable across
  processes (no pickled closures; numpy buffers + ints only).
"""

from __future__ import annotations

import io
import json
import math
import struct
from abc import ABC, abstractmethod

import numpy as np

_REGISTRY: dict[str, type] = {}

_MAGIC = b"BQRS"


#: (dtype, min, max) of the integer widths below 64 bits, narrowest first
_INT_WIDTHS = tuple((np.dtype(t), int(np.iinfo(t).min), int(np.iinfo(t).max))
                    for t in (np.uint8, np.int8, np.uint16, np.int16,
                              np.uint32, np.int32))


def narrow_ints(a: np.ndarray) -> np.ndarray:
    """``a`` cast to the narrowest integer dtype that holds its min and max
    (``a`` itself when no narrower one does, or when it is empty).

    Counter states are stored at their in-memory width (uint64/int64) but
    rarely need it: a Count-Min counter never exceeds the rows its sketch
    saw.  The blob header records each array's dtype and every decoder
    casts back to its in-memory dtype, so the narrowing is lossless and
    invisible past ``to_bytes``.  The width comes from the values, never
    from a running total, which negative weights can wrap.
    """
    if a.size == 0:
        return a
    # an unsigned array's minimum cannot change the choice: skip its pass
    lo = int(a.min()) if a.dtype.kind == "i" else 0
    hi = int(a.max())
    for t, t_lo, t_hi in _INT_WIDTHS:
        if t_lo <= lo and hi <= t_hi:
            return a.astype(t)
    return a


def require(ok: bool, what: str) -> None:
    """``ValueError`` naming ``what`` unless ``ok``: the range checks of
    ``_array_specs``."""
    if not ok:
        raise ValueError(f"bad sketch blob: {what}")


def register(cls):
    """Class decorator: make a sketch type self-describing in serialization."""
    _REGISTRY[cls.__name__] = cls
    return cls


class MergeableSketch(ABC):
    """Associative, mergeable, serializable aggregate state."""

    #: subclasses list the config fields that must match for merge()
    config_fields: tuple[str, ...] = ()

    #: the config a blob of this sketch carries: field → ``int`` or
    #: ``float``.  ``from_bytes`` rejects any other field set or value
    #: type, and checks the arrays against :meth:`_array_specs`.  ``None``
    #: leaves all of that to the sketch's ``_from_state``.
    config_types: dict[str, type] | None = None

    @classmethod
    def _array_specs(cls, config: dict) -> dict[str, tuple[str, tuple]]:
        """Array name → (dtype kinds, shape) of a blob with this (type-
        checked) config.  A shape entry is an int, or a name standing for
        one length that every array naming it must share.  Raises
        ValueError for config values the constructor would reject."""
        raise NotImplementedError

    @abstractmethod
    def update_batch(self, keys: np.ndarray, counts: np.ndarray | None = None
                     ) -> None:
        """Fold a batch of uint64 keys (counts default to 1) into the state."""

    @abstractmethod
    def merge(self, other: "MergeableSketch") -> "MergeableSketch":
        """Merge ``other`` into ``self`` (in place) and return ``self``."""

    def merge_many(self, others) -> "MergeableSketch":
        """Merge a list of sketches; subclasses override when a batched
        merge is cheaper than pairwise."""
        for o in others:
            self.merge(o)
        return self

    # --- serialization -----------------------------------------------------

    @abstractmethod
    def _state_arrays(self) -> dict[str, np.ndarray]:
        """Dense state as named numpy arrays."""

    @abstractmethod
    def _config(self) -> dict:
        """JSON-safe config (ints/strings only)."""

    @classmethod
    @abstractmethod
    def _from_state(cls, config: dict, arrays: dict[str, np.ndarray]
                    ) -> "MergeableSketch":
        ...

    def to_bytes(self) -> bytes:
        # arrays FIRST: materializing state may compact/grow and change
        # config fields (e.g. the quotient filter's q under auto-resize)
        arrays = self._state_arrays()
        cfg = dict(self._config())
        cfg["__type__"] = type(self).__name__
        meta = {k: [str(v.dtype), list(v.shape)] for k, v in arrays.items()}
        head = json.dumps({"config": cfg, "arrays": meta}).encode()
        out = io.BytesIO()
        out.write(_MAGIC)
        out.write(struct.pack("<I", len(head)))
        out.write(head)
        for k in sorted(arrays):
            out.write(np.ascontiguousarray(arrays[k]).tobytes())
        return out.getvalue()

    @staticmethod
    def from_bytes(data: bytes) -> "MergeableSketch":
        # ValueError, not assert: ``python -O`` strips asserts, and every
        # length below is checked before the bytes are sliced
        if len(data) < 8 or data[:4] != _MAGIC:
            raise ValueError("bad sketch blob: no BQRS magic")
        (hlen,) = struct.unpack("<I", data[4:8])
        if 8 + hlen > len(data):
            raise ValueError("truncated sketch blob: header")
        tname, cfg, specs = _parse_header(data[8:8 + hlen])
        if tname not in _REGISTRY:
            # Fresh worker process: populate the registry by importing
            # EVERY module in the sketches package (built dynamically so
            # a new @register'd sketch can never be orphaned here — a
            # reduce task may deserialize any registered blob on a
            # worker that never ran the partial stage).
            import importlib
            import pkgutil

            import bqf_ray.sketches as _pkg
            for info in pkgutil.iter_modules(_pkg.__path__):
                importlib.import_module(f"bqf_ray.sketches.{info.name}")
        if tname not in _REGISTRY:
            raise ValueError(f"bad sketch blob: unknown type {tname!r}")
        cls = _REGISTRY[tname]
        if cls.config_types is not None:
            _check_layout(cls, cfg, specs)
        pos = 8 + hlen
        arrays = {}
        for k, dtype, dims in specs:
            nbytes = math.prod(dims) * dtype.itemsize
            if pos + nbytes > len(data):
                raise ValueError(f"truncated sketch blob: array {k!r}")
            arrays[k] = np.frombuffer(
                data[pos:pos + nbytes], dtype=dtype).reshape(dims).copy()
            pos += nbytes
        return cls._from_state(cfg, arrays)

    # --- config compatibility ---------------------------------------------

    def check_mergeable(self, other: "MergeableSketch") -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot merge {type(self).__name__} with "
                            f"{type(other).__name__}")
        for f in self.config_fields:
            if getattr(self, f) != getattr(other, f):
                raise ValueError(f"merge config mismatch on {f}: "
                                 f"{getattr(self, f)} != {getattr(other, f)}")


def _parse_header(raw: bytes) -> tuple[str, dict, list]:
    """``(type name, config, [(array name, dtype, dims)])`` of a blob
    header, arrays in payload order.  Anything ``to_bytes`` cannot have
    written raises ``ValueError``: only numeric dtypes (bool, int, uint,
    float) reach ``np.frombuffer``, and dims must be non-negative ints."""
    head = json.loads(raw.decode())    # Unicode/JSON errors are ValueErrors
    if not isinstance(head, dict):
        raise ValueError("bad sketch blob header: not an object")
    cfg, meta = head.get("config"), head.get("arrays")
    if not isinstance(cfg, dict) or not isinstance(meta, dict):
        raise ValueError("bad sketch blob header: no config or arrays")
    tname = cfg.pop("__type__", None)
    if not isinstance(tname, str):
        raise ValueError("bad sketch blob header: no __type__")
    specs = []
    for k in sorted(meta):
        spec = meta[k]
        if not (isinstance(spec, list) and len(spec) == 2
                and isinstance(spec[0], str) and isinstance(spec[1], list)):
            raise ValueError(f"bad sketch blob header: array {k!r}")
        try:
            dtype = np.dtype(spec[0])
        except TypeError:
            dtype = None
        if dtype is None or dtype.kind not in "biuf":
            raise ValueError(f"bad sketch blob header: array {k!r} has "
                             f"dtype {spec[0]!r}")
        dims = spec[1]
        if not all(type(d) is int and d >= 0 for d in dims):
            raise ValueError(f"bad sketch blob header: array {k!r} has "
                             f"shape {dims!r}")
        specs.append((k, dtype, dims))
    return tname, cfg, specs


def _check_layout(cls, cfg: dict, specs: list) -> None:
    """A parsed header against ``cls.config_types`` and
    ``cls._array_specs``: the same config fields with values of the
    declared types, and the same arrays with their dtype kinds and shapes.
    Runs before any payload byte is read; raises only ValueError."""
    name = cls.__name__
    if cfg.keys() != cls.config_types.keys():
        raise ValueError(f"bad {name} blob: config fields {sorted(cfg)}, "
                         f"not {sorted(cls.config_types)}")
    for k, t in cls.config_types.items():
        v = cfg[k]
        if type(v) is not int and not (t is float and type(v) is float):
            raise ValueError(f"bad {name} blob: config {k}={v!r} is not "
                             f"{t.__name__}")
    want = cls._array_specs(cfg)
    got = {k: (dtype, dims) for k, dtype, dims in specs}
    if got.keys() != want.keys():
        raise ValueError(f"bad {name} blob: arrays {sorted(got)}, not "
                         f"{sorted(want)}")
    lengths: dict[str, int] = {}
    for k, (kinds, shape) in want.items():
        dtype, dims = got[k]
        if dtype.kind not in kinds or len(dims) != len(shape) or any(
                d != (lengths.setdefault(s, d) if isinstance(s, str) else s)
                for d, s in zip(dims, shape)):
            raise ValueError(f"bad {name} blob: array {k!r} is {dtype} "
                             f"{dims}, not {kinds} {shape}")
