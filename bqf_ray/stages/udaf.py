"""Native Ray Data UDAF adapter for MergeableSketch.

``sketch_agg(factory, on)`` returns a ``ray.data.aggregate.AggregateFn``
whose accumulator IS the sketch, so any sketch in the library (BQF, HLL,
Count-Min, t-digest, KLL, blocked Bloom) plugs straight into the native
aggregation surface:

    ds.groupby("lang").aggregate(sketch_agg(lambda: HyperLogLog(p=12),
                                            on="token",
                                            finalize="estimate",
                                            name="distinct_est"))
    ds.aggregate(sketch_agg(...))                      # global (one group)

This rides Ray Data's sort-based aggregate: mappers pre-aggregate each
sorted block per key (``accumulate_block`` over the group's slice — one
vectorized ``update_batch`` of the keys a :data:`KeyFn` takes from it),
reducers ``merge`` accumulators pairwise across blocks.  It is the one
plan that builds a mergeable sketch from partials: ``sketch_agg`` keys
the sketch by one column, and ``sketch_stage.build_sketch`` runs a
:class:`SketchAgg` over any ``KeyFn`` (shingles, embedding rows) as a
global ``ds.aggregate``.  Every sketch's ``merge`` is associative and
commutative (property-tested in tests/test_merge_properties.py), so
any block partitioning yields the same answer (bit-identical for HLL/
Bloom/Count-Min whose states are order-invariant; within the published
bound for the compaction-based quantile sketches).

Run walk.  Ray's own map-side ``TableBlockAccessor._aggregate`` finds a
sorted block's groups with a Python walk that builds a one-row slice
and compares keys for EVERY row; on keyed sketch workloads that walk,
not the sketch updates, is most of the map stage.  Importing this module
replaces it with :func:`_aggregate_runs`, which finds the group starts
in one vectorized pass over the key columns (a row starts a run when any
key differs from the previous row's or its validity differs; null equals
null and NaN equals NaN, but null is not NaN — the rules of Ray's
``keys_equal``) and then builds each group's row exactly as Ray does.
Ray's method still handles pandas blocks, global aggregation (no keys)
and key columns outside the comparable types (lists, structs, maps,
dictionaries, extension types).  ``sketch_agg`` returns a
:class:`SketchAgg`, a class of this module, so every worker that
unpickles one imports the module and runs the same walk.

Key preparation (``prepare``):

- ``"hash"`` (default) — the sketch consumes 64-bit HASHES of the
  column (HLL, Bloom, Count-Min, BQF): strings/binary via xxhash64,
  ints/floats via the MurmurHash3 fmix64 finalizer of their 64-bit
  pattern.  Nulls are dropped.
- ``"value"`` — the sketch consumes the raw numeric VALUES (t-digest,
  KLL quantile sketches).  Nulls are dropped.
- any callable ``pa.Array -> np.ndarray`` for custom extraction.

The reference's UDAF surface is a C++ class hierarchy over one process
(/root/reference/src/headers/abstract_bqf.hpp:154-170); here the same
mergeable-state contract becomes a first-class distributed aggregate.
"""

from __future__ import annotations

import collections
import functools
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data._internal.arrow_block import ArrowBlockAccessor
from ray.data._internal.table_block import TableBlockAccessor
from ray.data.aggregate import AggregateFn

from bqf_ray.functions.hashing import fmix64, xxhash64_array
from bqf_ray.sketches.base import MergeableSketch

KeyFn = Callable[[pa.Table], tuple[np.ndarray, np.ndarray | None]]
"""batch → (uint64 keys | values, optional counts).  May emit any
number of keys."""


def _to_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col


def prepare_hash(col) -> np.ndarray:
    """Column → uint64 hash keys (nulls dropped)."""
    arr = _to_array(col).drop_null()
    t = arr.type
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        return xxhash64_array(arr)
    vals = arr.to_numpy(zero_copy_only=False)
    if np.issubdtype(vals.dtype, np.integer):
        return fmix64(vals.astype(np.int64).view(np.uint64))
    if np.issubdtype(vals.dtype, np.floating):
        return fmix64(vals.astype(np.float64).view(np.uint64))
    raise TypeError(f"cannot hash column of type {t}")


def prepare_value(col) -> np.ndarray:
    """Column → float64 values (nulls AND NaNs dropped — a NaN would
    poison every quantile-sketch comparison) for quantile sketches."""
    arr = _to_array(col).drop_null()
    vals = arr.to_numpy(zero_copy_only=False).astype(np.float64)
    return vals[~np.isnan(vals)]


def prepare_int(col) -> np.ndarray:
    """Column → raw uint64 of an integer column (nulls dropped) — for
    EXACT dense-domain sketches (CompressedBitmap) where hashing would
    destroy chunk locality and exactness is the point."""
    arr = _to_array(col).drop_null()
    vals = arr.to_numpy(zero_copy_only=False)
    if not np.issubdtype(vals.dtype, np.integer):
        raise TypeError(f"prepare='int' needs an integer column, got {arr.type}")
    v = vals.astype(np.int64)
    if (v < 0).any():
        raise ValueError("prepare='int' requires non-negative keys")
    return v.view(np.uint64)


_PREPARES = {"hash": prepare_hash, "value": prepare_value,
             "int": prepare_int}


def _keep_mask(prep, col, wcol) -> pa.Array:
    """Rows the preparation keeps — weights must filter identically.
    A null WEIGHT also drops the row (SQL sum-of-weights semantics):
    letting it through would cast NaN→INT64_MIN in the numpy
    conversion and silently corrupt the sketch state."""
    keep = pc.and_(col.is_valid(), wcol.is_valid())
    if prep is prepare_value and pa.types.is_floating(col.type):
        keep = pc.and_(keep, pc.invert(pc.is_nan(
            col.fill_null(0.0))))    # NaN rows: prepare_value drops them
    return keep


def _column_keys(on: str, prep, weight_col: str | None, block: pa.Table):
    """The :data:`KeyFn` of :func:`sketch_agg`: ``prep`` of column
    ``on``, with the ``weight_col`` values as counts."""
    col = _to_array(block.column(on))
    if weight_col is None:
        return prep(col), None
    wcol = _to_array(block.column(weight_col))
    keep = _keep_mask(prep, col, wcol)
    return (prep(col.filter(keep)),
            np.asarray(wcol.filter(keep), dtype=np.int64))


class SketchAgg(AggregateFn):
    """``AggregateFn`` whose accumulator is the ``to_bytes()`` blob of a
    ``factory()`` sketch fed ``key_fn(block)`` — built by
    :func:`sketch_agg`, or directly by ``sketch_stage.build_sketch``.

    Accumulators travel as blobs, not live objects: the engine stores
    partial-agg state in block columns between the map and reduce sides,
    and a bytes accumulator is an Arrow-native binary value (a live
    sketch object would force a pickled-object column fallback).  Serde
    is numpy-buffer copies — cheap next to the per-block update work —
    and counter arrays cross at the narrowest integer width holding
    their values (``base.narrow_ints``): a 2048×5 Count-Min whose
    counters stay under 65,536 ships 20 KB of uint16, not 80 KB of
    uint64.
    """

    def __init__(self, factory, key_fn: KeyFn, fin, name: str):
        # no AggregateFn.__init__: the methods below are the init /
        # merge / accumulate_block / finalize callables it would store
        self.name = name
        self._factory = factory
        self._key_fn = key_fn
        self._fin = fin

    def init(self, _key) -> bytes:
        return self._factory().to_bytes()

    def merge(self, a: bytes, b: bytes) -> bytes:
        return (MergeableSketch.from_bytes(a)
                .merge(MergeableSketch.from_bytes(b)).to_bytes())

    def accumulate_block(self, acc: bytes, block) -> bytes:
        if not isinstance(block, pa.Table):          # pandas fallback
            block = pa.Table.from_pandas(block)
        sk = MergeableSketch.from_bytes(acc)
        sk.update_batch(*self._key_fn(block))
        return sk.to_bytes()

    def finalize(self, acc: bytes):
        sk = MergeableSketch.from_bytes(acc)
        if self._fin == "bytes":
            return sk.to_bytes()
        if self._fin == "estimate":
            return float(sk.estimate())
        return self._fin(sk)


def sketch_agg(factory, on: str, *, prepare="hash", weight_col: str | None = None,
               finalize="bytes", name: str | None = None) -> SketchAgg:
    """Build a :class:`SketchAgg` whose accumulator is ``factory()``.

    ``finalize``: ``"bytes"`` (the serialized sketch blob — feed it to
    ``MergeableSketch.from_bytes`` downstream), ``"estimate"``
    (``sketch.estimate()`` as float), or a callable ``sketch -> scalar``.
    ``weight_col``: optional int column passed as ``counts`` to
    ``update_batch`` (weighted streams; rows with a null key are
    dropped together with their weight).
    """
    prep = _PREPARES.get(prepare, prepare)
    if not callable(prep):
        raise ValueError(f"unknown prepare {prepare!r}")
    if finalize not in ("bytes", "estimate") and not callable(finalize):
        raise ValueError(f"unknown finalize {finalize!r}")
    if weight_col is not None and prep not in (prepare_hash, prepare_value):
        raise ValueError("weight_col requires prepare='hash' or 'value' "
                         "(weights must drop exactly the rows the key "
                         "preparation drops)")
    return SketchAgg(factory, functools.partial(_column_keys, on, prep,
                                                weight_col),
                     finalize, name or f"sketch({on})")


# -- run walk ---------------------------------------------------------------

_RAY_AGGREGATE = TableBlockAccessor._aggregate


def _run_comparable(schema: pa.Schema, key: str) -> bool:
    """Whether Arrow ``not_equal`` on the key column agrees with Python
    ``==`` on the ``as_py()`` values Ray's walk compares."""
    if key not in schema.names:
        return False
    t = schema.field(key).type
    return (pa.types.is_integer(t) or pa.types.is_float32(t)
            or pa.types.is_float64(t) or pa.types.is_boolean(t)
            or pa.types.is_timestamp(t) or pa.types.is_date(t)
            or pa.types.is_time(t) or pa.types.is_duration(t)
            or pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def _run_starts(table: pa.Table, keys: list[str]) -> np.ndarray:
    """Row indices where a run of equal keys starts (``table`` non-empty).
    Null equals null and NaN equals NaN; null differs from NaN."""
    n = table.num_rows
    new = np.zeros(n - 1, dtype=bool)
    for k in keys:
        col = table.column(k)
        prev, cur = col.slice(0, n - 1), col.slice(1)
        diff = pc.not_equal(prev, cur)              # null where either is
        if pa.types.is_floating(col.type):
            diff = pc.and_(diff, pc.invert(pc.and_(pc.is_nan(prev),
                                                   pc.is_nan(cur))))
        new |= np.asarray(diff.fill_null(False))
        if col.null_count:
            new |= np.asarray(prev.is_valid()) != np.asarray(cur.is_valid())
    return np.concatenate(([0], np.flatnonzero(new) + 1))


def _aggregate_runs(self, sort_key, aggs) -> pa.Table:
    """``TableBlockAccessor._aggregate`` with the group runs found in one
    vectorized pass; the rest is Ray's method line for line.  Blocks and
    keys the pass does not cover go to Ray's own method."""
    keys = sort_key.get_columns()
    if (not keys or not isinstance(self, ArrowBlockAccessor)
            or not all(_run_comparable(self._table.schema, k) for k in keys)):
        return _RAY_AGGREGATE(self, sort_key, aggs)
    n = self.num_rows()
    bounds = np.append(_run_starts(self._table, keys), n).tolist() if n else []
    builder = self.builder()
    for start, end in zip(bounds[:-1], bounds[1:]):
        group_keys = self._get_row(start)[keys]
        group_view = self.slice(start, end)
        init_vals = group_keys[0] if len(group_keys) == 1 else group_keys
        accumulators = [agg.init(init_vals) for agg in aggs]
        accumulators = [agg.accumulate_block(acc, group_view)
                        for agg, acc in zip(aggs, accumulators)]
        row = dict(zip(keys, group_keys))
        count = collections.defaultdict(int)
        for agg, accumulator in zip(aggs, accumulators):
            name = agg.name
            if count[name] > 0:
                name = self._munge_conflict(name, count[name])
            count[name] += 1
            row[name] = accumulator
        builder.add(row)
    return builder.build()


TableBlockAccessor._aggregate = _aggregate_runs
