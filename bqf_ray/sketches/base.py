"""MergeableSketch protocol — the engine's UDAF contract.

Every sketch (BQF, HLL, Count-Min, t-digest, KLL, blocked Bloom) implements
this protocol so one set of Ray Data stages (partial-build ``map_batches``,
tree-reduce merge, probe) drives all of them.  This generalizes the
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


def register(cls):
    """Class decorator: make a sketch type self-describing in serialization."""
    _REGISTRY[cls.__name__] = cls
    return cls


class MergeableSketch(ABC):
    """Associative, mergeable, serializable aggregate state."""

    #: subclasses list the config fields that must match for merge()
    config_fields: tuple[str, ...] = ()

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
        head = json.loads(data[8:8 + hlen].decode())
        cfg = head["config"]
        tname = cfg.pop("__type__")
        if tname not in _REGISTRY:
            # Fresh worker process: populate the registry by importing
            # EVERY module in the sketches package (built dynamically so
            # a new @register'd sketch can never be orphaned here — a
            # tree_merge task may deserialize any registered blob on a
            # worker that never ran the partial stage).
            import importlib
            import pkgutil

            import bqf_ray.sketches as _pkg
            for info in pkgutil.iter_modules(_pkg.__path__):
                importlib.import_module(f"bqf_ray.sketches.{info.name}")
        cls = _REGISTRY[tname]
        pos = 8 + hlen
        arrays = {}
        for k in sorted(head["arrays"]):
            dtype, shape = head["arrays"][k]
            dims = [int(d) for d in shape]
            nbytes = math.prod(dims) * np.dtype(dtype).itemsize
            if min(dims, default=0) < 0 or pos + nbytes > len(data):
                raise ValueError(f"truncated sketch blob: array {k!r}")
            arrays[k] = np.frombuffer(
                data[pos:pos + nbytes], dtype=dtype).reshape(shape).copy()
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
