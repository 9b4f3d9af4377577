"""Graph operators for duplicate-cluster resolution.

Near-dup pair generators (:mod:`bqf_ray.pipelines.dedup`) emit EDGES
(doc_a, doc_b); corpus curation needs COMPONENTS — "these k documents
are all the same article; keep one".  :func:`connected_components`
closes that gap, and :func:`near_dup_removal` composes pairs →
components → survivor anti-join into the end-to-end operator
(the cluster step of MinHash dedup as described in Lee et al. 2022,
"Deduplicating Training Data Makes Language Models Better" §4.1).

Scale notes (100 TB): the pair graph of a near-dup pass is sparse and
its components are small (duplicate clusters), but the TOTAL edge count
grows with the corpus.  The auto plan mirrors the repo's established
row-vs-combiner crossover: below ``driver_edge_budget`` edges the
component labeling runs as a driver-local union-find (single pass, no
rounds — the common case, since pairs ≪ docs); above it, a distributed
min-label propagation with pointer jumping runs entirely as
co-partitioned Ray Data shuffles (two per round, O(log diameter)
rounds — the shape of Kiveris et al. 2014's alternating algorithm).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.plans import plan_log
from bqf_ray.stages.partition import exchange


def _uf_components(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Union-find over edge arrays → (nodes, min-node-id label per node).

    ``np.unique`` returns nodes ascending, so "union into the smaller
    root index" makes every root the minimum node id of its component —
    no relabeling pass needed."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    parent = np.arange(len(nodes), dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:          # path compression
            parent[x], x = root, parent[x]
        return root

    ea, eb = inv[: len(a)], inv[len(a):]
    for i in range(len(ea)):
        ra, rb = find(ea[i]), find(eb[i])
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    labels = np.array([nodes[find(i)] for i in range(len(nodes))],
                      dtype=np.int64)
    return nodes.astype(np.int64), labels


def connected_components(pairs, a_col: str = "doc_a", b_col: str = "doc_b",
                         mode: str = "auto",
                         driver_edge_budget: int = 2_000_000,
                         num_buckets: int = 32, max_rounds: int = 64):
    """Label every node of the pair graph with the MINIMUM node id of its
    connected component.  Returns Dataset[(doc_id, cluster_id)] with one
    row per distinct node appearing in ``pairs``.

    ``mode``: ``driver`` (union-find over collected edges), ``dist``
    (min-label propagation, no driver materialization), or ``auto``
    (count edges — a metadata-only pass — and pick by
    ``driver_edge_budget``).
    """
    import ray
    from ray.data.aggregate import Min, Sum

    if mode == "auto":
        pairs = pairs.materialize()    # counted then re-read: execute once
        n_edges = pairs.count()
        mode = "driver" if n_edges <= int(driver_edge_budget) else "dist"
        plan_log("connected_components", mode, n_edges=n_edges,
                 budget=int(driver_edge_budget))

    if mode == "driver":
        tbls = [b.select([a_col, b_col])
                for b in pairs.iter_batches(batch_format="pyarrow")]
        t = (pa.concat_tables(tbls) if tbls else
             pa.table({a_col: pa.array([], pa.int64()),
                       b_col: pa.array([], pa.int64())}))
        nodes, labels = _uf_components(
            np.asarray(t.column(a_col), dtype=np.int64),
            np.asarray(t.column(b_col), dtype=np.int64))
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(nodes), "cluster_id": pa.array(labels)}))

    if mode != "dist":
        raise ValueError(f"unknown mode {mode!r}")

    def sym(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column(a_col), dtype=np.int64)
        b = np.asarray(batch.column(b_col), dtype=np.int64)
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    # symmetrized edges are re-read every round — materialize once
    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("src"), dtype=np.int64)
        dst = np.asarray(batch.column("dst"), dtype=np.int64)
        # seed label = min(self, smallest direct neighbor): one free hop
        t = pa.table({"node": pa.array(src),
                      "label": pa.array(np.minimum(src, dst))})
        return (t.group_by(["node"]).aggregate([("label", "min")])
                .rename_columns(["node", "label"]))

    labels = (edges.map_batches(init_labels, batch_format="pyarrow")
              .groupby("node").aggregate(Min("label", alias_name="label"))
              .materialize())

    def tag_edges(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("src"), dtype=np.int64)
        return pa.table({
            "__key": batch.column("src"), "__dst": batch.column("dst"),
            "__label": pa.array(np.full(len(src), -1, dtype=np.int64)),
            "__side": pa.array(np.zeros(len(src), dtype=np.int8))})

    def tag_labels(batch: pa.Table) -> pa.Table:
        node = np.asarray(batch.column("node"), dtype=np.int64)
        lab = np.asarray(batch.column("label"), dtype=np.int64)
        label_rows = pa.table({
            "__key": batch.column("node"), "__dst": batch.column("node"),
            "__label": batch.column("label"),
            "__side": pa.array(np.ones(len(node), dtype=np.int8))})
        # pointer-jumping edges (label(v) → v): v also learns
        # label(label(v)) this round, so convergence is O(log diameter)
        # rounds instead of O(diameter).  Label values are node ids, and
        # every node has a label row, so the src lookup always resolves.
        jump = node != lab
        jl, jn = lab[jump], node[jump]
        jump_rows = pa.table({
            "__key": pa.array(jl), "__dst": pa.array(jn),
            "__label": pa.array(np.full(len(jl), -1, dtype=np.int64)),
            "__side": pa.array(np.zeros(len(jl), dtype=np.int8))})
        return pa.concat_tables([label_rows, jump_rows])

    def propagate(group: pa.Table) -> pa.Table:
        """Within one src-bucket: map each edge src → its current label,
        emit (dst, label(src)) messages plus the bucket's own (node,
        label) rows so no label is lost."""
        side = np.asarray(group.column("__side"), dtype=np.int8)
        key = np.asarray(group.column("__key"), dtype=np.int64)
        dst = np.asarray(group.column("__dst"), dtype=np.int64)
        lab = np.asarray(group.column("__label"), dtype=np.int64)
        ln, ll = key[side == 1], lab[side == 1]
        order = np.argsort(ln)
        ln, ll = ln[order], ll[order]
        esrc, edst = key[side == 0], dst[side == 0]
        pos = np.searchsorted(ln, esrc)
        # every edge src has a label row in this bucket by construction
        msg_node = np.concatenate([edst, ln])
        msg_label = np.concatenate([ll[pos], ll])
        return pa.table({"node": pa.array(msg_node),
                         "label": pa.array(msg_label)})

    checksum = None
    for _ in range(int(max_rounds)):
        both = (edges.map_batches(tag_edges, batch_format="pyarrow")
                .union(labels.map_batches(tag_labels,
                                          batch_format="pyarrow")))
        labels = (exchange(both, propagate, "__key", num_buckets)
                  .groupby("node").aggregate(Min("label",
                                                 alias_name="label"))
                  .materialize())
        # labels only decrease, so a stable sum ⇔ a fixed point
        new_sum = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if new_sum == checksum:
            break
        checksum = new_sum
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds")

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["doc_id", "cluster_id"])

    return labels.map_batches(rename, batch_format="pyarrow")


def near_dup_removal(ds, pairs, id_col: str = "doc_id",
                     cc_mode: str = "auto", num_buckets: int = 32):
    """Cluster-aware near-dup removal: from each connected component of
    the pair graph keep only the minimum-id document; documents in no
    pair survive untouched.  Returns the surviving rows of ``ds``
    (all columns).

    The removal set (nodes with ``cluster_id != doc_id``) flows into a
    co-partitioned distributed anti-join — never through the driver."""
    from bqf_ray.pipelines.relational import semi_join

    cc = connected_components(pairs, mode=cc_mode,
                              num_buckets=num_buckets)
    removed = cc.filter(expr="doc_id != cluster_id") \
                .select_columns(["doc_id"])
    return semi_join(ds, removed, left_key=id_col, right_key="doc_id",
                     num_buckets=num_buckets, anti=True)


def transition_counts(ds, key_col: str = "user_id", ts_col: str = "ts",
                      id_col: str = "event_id",
                      label_col: str = "event_type",
                      num_buckets: int = 32):
    """Markov transition counts: ``(from_type, to_type, n)`` over each
    key's consecutive events in ``(ts, id)`` order — the edge-extraction
    pass for behavior graphs / Markov-chain fitting.  Exactly the n=2
    case of :func:`path_ngram_counts` (one key-bucketed lexsort, run
    windows, label-pair-sized final exchange) and delegates to it, so
    the two stay a single implementation.
    """
    return path_ngram_counts(ds, n=2, key_col=key_col, ts_col=ts_col,
                             id_col=id_col, label_col=label_col,
                             out_cols=["from_type", "to_type"],
                             num_buckets=num_buckets)

def _pr_ckpt_config(n, unit, d_num, d_den, weight_col, restart_nodes):
    """Checkpoint identity: the integer scheme is fully determined by
    these (plus the input graph, whose identity (n, unit) proxies —
    the caller owns input lineage, same as the sketch checkpoints)."""
    import hashlib
    import json
    seeds = (np.unique(np.asarray(restart_nodes,
                                  dtype=np.int64)).tolist()
             if restart_nodes is not None else None)
    blob = json.dumps({"n": int(n), "unit": int(unit),
                       "d_num": int(d_num), "d_den": int(d_den),
                       "weight_col": weight_col, "seeds": seeds},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _pr_resume_iter(meta_p, cfg, iters, **match) -> int:
    """Rounds completed by the checkpoint described by ``meta_p``; 0
    when it is absent, foreign (config or ``match`` differ) or past
    ``iters``."""
    import json
    import os
    if not os.path.exists(meta_p):
        return 0
    with open(meta_p) as f:
        meta = json.load(f)
    ok = (meta.get("config") == cfg
          and all(meta.get(k) == v for k, v in match.items())
          and 0 < int(meta.get("iter", 0)) <= int(iters))
    return int(meta["iter"]) if ok else 0


def pagerank(edges_ds, src_col: str, dst_col: str, d_num: int = 17,
             d_den: int = 20, iters: int = 10,
             weight_col: str | None = None,
             restart_nodes: "np.ndarray | None" = None,
             mode: str = "auto", node_budget: int = 20_000_000,
             num_shards: int = 16, output: str = "arrays",
             checkpoint_dir: str | None = None,
             checkpoint_every: int = 1):
    """Bit-deterministic distributed PageRank over an edge Dataset.

    Integer-unit power iteration (damping ``d = d_num/d_den``, default
    0.85): every quantity is an exact integer — per-edge contribution
    ``(r_u · d_num · w) // (d_den · deg_u)`` (``w`` = edge weight,
    ``deg_u`` = Σ weights out of u) floor-divides BEFORE the sum, so
    per-batch partial sums are order-independent and the result is
    bit-identical under any partitioning (the k-means determinism trick
    applied to graph iteration).  Dangling/rounding mass is respread
    uniformly each round (exact remainder division), so total mass is
    conserved exactly.

    Overflow safety: the unit is auto-scaled so the hottest possible
    rank (all mass on one node) times ``d_num`` and the largest weight
    stays under 2^62 — ``unit = min(2^40, 2^62 // (n · d_num · w_max))``
    — keeping every worker-side int64 product exact; ≥ 2^20 units of
    per-node precision survive up to ~4·10^12 node·weight, far past the
    ranks-fit-in-driver-RAM envelope (~10^8 nodes) this plan targets.
    Edges stream through ``map_batches`` each round and never
    materialize beyond the one cached (s, t, w) projection.  Returns
    ``(node_ids, ranks_int, unit)`` with ranks summing to
    ``n_nodes · unit``.

    ``restart_nodes`` personalizes the walk (PPR): the initial mass
    AND every round's undelivered mass (teleport + dangling + floor
    residue) respread over the SEED set only — exact divmod, the +1
    remainder going to the lowest-id seeds — instead of uniformly over
    all nodes.  Seeds must exist in the graph (loud raise).  Total
    mass stays exactly ``n_nodes · unit`` either way.

    **Plans** (``mode``): the (node, rank, deg) vector lives in P
    range shards of the vertex runtime (:class:`_Runtime`).
    ``"broadcast"`` is P = 1: the one shard stays on the driver, each
    round ``ray.put``s it to a parallel scan of every edge block, and
    the driver folds at most ``node_budget`` partial rows (an exchange
    folds more) — fastest while vertex-sized arrays fit driver RAM.
    ``"sharded"`` is P = ``num_shards`` shard ACTORS: edges are
    co-bucketed by source range once, each contribution task reads only
    the shard(s) its batch touches, and per-round contributions flow
    through one partial-aggregated exchange to the destination shards —
    nothing node-sized ever lands on the driver (web-graph node counts).
    ``"auto"`` (default) is P = 1 up to ``node_budget`` nodes.  Every P
    is BIT-IDENTICAL: same integer units, same floor-div-before-sum
    contributions, same lowest-id remainder respread (asserted by
    tests/test_graph_iter.py).

    ``checkpoint_dir`` makes the iteration RESUMABLE: every
    ``checkpoint_every`` rounds each shard writes its own rank file
    (``pr_shard_<p>.npz``; nothing node-sized through the driver at
    P > 1) and ``pr_sharded_meta.json`` records the round, P and a
    config hash — a killed job re-run with the same arguments resumes
    from the last completed round bit-exactly, a mismatched config
    starts fresh (the sketch-checkpoint contract applied to iteration
    state).

    ``output="dataset"`` returns a ``ray.data.Dataset`` of
    ``(node, rank)`` (plus the unit as an attribute-free second return)
    built from per-shard Arrow refs — use it at scale so the result
    never materializes on the driver; ``"arrays"`` (default) returns
    the legacy ``(node_ids, ranks_int, unit)`` tuple.
    """
    import json
    import os

    import ray

    from bqf_ray.state.checkpoint import _atomic_write
    from bqf_ray.stages.partition import bucketed_agg

    _check_mode("pagerank", mode)

    def edge_cols(batch: pa.Table) -> pa.Table:
        w = (np.asarray(batch.column(weight_col), dtype=np.int64)
             if weight_col else np.ones(len(batch), dtype=np.int64))
        return pa.table({
            "s": pa.array(np.asarray(batch.column(src_col),
                                     dtype=np.int64)),
            "t": pa.array(np.asarray(batch.column(dst_col),
                                     dtype=np.int64)),
            "w": pa.array(w)})

    edges = edges_ds.map_batches(edge_cols,
                                 batch_format="pyarrow").materialize()

    # node universe + weighted out-degrees (exact, one pass)
    def node_partials(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("s"), dtype=np.int64)
        t = np.asarray(batch.column("t"), dtype=np.int64)
        w = np.asarray(batch.column("w"), dtype=np.int64)
        su, sw = _sum_by(s, w)
        tu = np.unique(t)
        return pa.table({
            "node": pa.array(np.concatenate([su, tu])),
            "deg": pa.array(np.concatenate(
                [sw, np.zeros(len(tu), dtype=np.int64)])),
            "wmax": pa.array(np.concatenate(
                [np.full(len(su), int(w.max(initial=1))),
                 np.ones(len(tu), dtype=np.int64)]))})

    # node-sized folds ride the 1-int hash-bucket exchange (12.5x over
    # the sort-based groupby at 10M edges, measured on HITS)
    nd_ds = bucketed_agg(
        edges.map_batches(node_partials, batch_format="pyarrow"),
        ["node"], [("deg", "sum", "deg"),
                   ("wmax", "max", "wmax")]).materialize()
    rt, n = _table_runtime("pagerank", nd_ds, mode, node_budget,
                           num_shards)
    P = rt.P
    if n == 0:
        empty = (np.empty(0, dtype=np.int64),
                 np.empty(0, dtype=np.int64), 1 << 40)
        return (ray.data.from_arrow(_rank_table(*empty))
                if output == "dataset" else empty)
    counts = rt.init(nd_ds, ("node", "deg", "wmax"), _pr_prep)
    assert int(counts.sum()) == n
    # int64 is exact end-to-end: UNIT is scaled so n·UNIT·d_num·w_max
    # ≤ 2^62, hence every per-edge product, per-node sum, and the total
    # mass n·UNIT stay < 2^63
    w_max = max(*rt.each(_pop_max, "wmax"), 1)
    UNIT = min(1 << 40, (1 << 62) // (n * d_num * w_max))
    if UNIT < (1 << 20):
        raise ValueError(
            f"pagerank: n·d_num·w_max = {n * d_num * w_max} leaves "
            "< 2^20 integer precision per node — lower d_num or split "
            "the graph")

    # restart targets per shard: every node, or (PPR) the sorted-seed
    # slice each shard claims — "lowest-id targets get the +1" is then
    # (offset, clip) arithmetic
    targets = counts
    if restart_nodes is not None:
        seeds = np.unique(np.asarray(restart_nodes, dtype=np.int64))
        if not len(seeds):
            raise ValueError("pagerank: empty restart_nodes")
        sp = rt.route(seeds)
        bad = np.concatenate(rt.call("apply", [
            (_pr_seed, seeds[sp == p]) for p in range(P)]))
        if len(bad):
            raise ValueError("pagerank: restart node(s) absent from "
                             f"the graph: {bad[:5].tolist()}")
        targets = np.bincount(sp, minlength=P)
    t_off = np.concatenate([[0], np.cumsum(targets)[:-1]])

    def spread(undelivered):
        # conserve mass exactly: respread everything not delivered
        # (teleport + dangling + floor-div residue) over the restart
        # targets — vectorized divmod, bit-identical to per-node divmod
        base, rem = divmod(undelivered, int(targets.sum()))
        rt.call("apply", [
            (_pr_spread, base, int(np.clip(rem - t_off[p], 0, targets[p])))
            for p in range(P)])

    spread(n * UNIT)
    edges_b = rt.cobucket(edges, "s")

    start_iter = 0
    if checkpoint_dir is not None:
        ck_cfg = _pr_ckpt_config(n, UNIT, d_num, d_den, weight_col,
                                 restart_nodes)
        meta_p = os.path.join(checkpoint_dir, "pr_sharded_meta.json")
        paths = [os.path.join(checkpoint_dir, f"pr_shard_{p:05d}.npz")
                 for p in range(P)]
        done = _pr_resume_iter(meta_p, ck_cfg, iters, P=P)
        loaded = rt.call("load_state", [(q,) for q in paths]) \
            if done else []
        if loaded and all(loaded):
            start_iter = done
        elif any(loaded):
            # PARTIAL load (a shard's file lost/damaged): re-init every
            # shard so the from-scratch recompute starts consistent
            spread(n * UNIT)

    for it in range(start_iter, int(iters)):
        delivered = sum(rt.round(edges_b, ("ranks", "deg"), _pr_message,
                                 _sum_by, _pr_commit, (d_num, d_den)))
        spread(n * UNIT - delivered)          # ≤ n·UNIT < 2^63: exact
        if checkpoint_dir is not None and (
                (it + 1) % int(checkpoint_every) == 0
                or it + 1 == int(iters)):
            rt.call("save_state", [(q, "ranks") for q in paths])
            _atomic_write(meta_p, json.dumps(
                {"config": ck_cfg, "P": P, "iter": it + 1}).encode())

    if output == "dataset":
        return rt.result(_pr_table, UNIT, dataset=True)
    tbl = rt.result(_pr_table, UNIT)
    return (np.asarray(tbl.column("node"), dtype=np.int64),
            np.asarray(tbl.column("rank"), dtype=np.int64), UNIT)


def _rank_table(nodes, ranks, unit):
    return pa.table({
        "node": pa.array(nodes, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "unit": pa.array(np.full(len(nodes), unit, dtype=np.int64))})


# ---------------------------------------------------------------------------
# vertex runtime: every iterative keeps its vertex state in P range shards
# and runs each round as a (message, combine, apply) triple (_Runtime)
# ---------------------------------------------------------------------------

_PART = "__sp"          # shard-id column of co-bucketed / routed rows


class _VertexShard:
    """One node range of a node-sharded vertex state: the range's sorted
    ids plus named state vectors.  Mutations are sequenced by the driver
    — ``stage`` (from the destination-shard fold groups) then ``apply``
    — each phase behind a ``ray.get`` barrier, so reads (``get_state``)
    only ever see fully committed rounds."""

    def __init__(self):
        self.nodes = np.empty(0, dtype=np.int64)
        self.vec = {}
        self.staged = None

    def init(self, nodes, vec):
        self.nodes, self.vec = nodes, vec
        return len(nodes)

    def get_state(self, names):
        return (self.nodes, *(self.vec[n] for n in names))

    def stage(self, *arrays):
        self.staged = arrays

    def apply(self, fn, *args):
        """``fn(shard, *args)`` — an algorithm's commit/update rule."""
        return fn(self, *args)

    def save_state(self, path, *names):
        """Shard writes its OWN checkpoint file — node-sized bytes never
        pass through the driver.  On a multi-node cluster ``path`` must
        be on shared storage, same as the sketch checkpoints."""
        import io

        from bqf_ray.state.checkpoint import _atomic_write
        buf = io.BytesIO()
        np.savez(buf, nodes=self.nodes, **{n: self.vec[n] for n in names})
        _atomic_write(path, buf.getvalue())

    def load_state(self, path):
        """Load a :meth:`save_state` file saved for exactly this shard's
        nodes; False (state untouched) otherwise."""
        import os
        if not os.path.exists(path):
            return False
        dat = np.load(path)
        if not np.array_equal(dat["nodes"], self.nodes):
            return False
        self.vec.update({k: dat[k].astype(np.int64)
                         for k in dat.files if k != "nodes"})
        return True


# per-worker-process shard-state cache of the scan tasks, keyed (round
# token, shard): a new token clears it, so a worker holds only the
# shards its current round's (source-range co-bucketed) batches touch
_SHARD_CACHE: dict = {}


def _make_shards(P):
    """P shard actors, num_cpus=0 (short RPC handlers, never compute-
    bound) and SPREAD-scheduled so a multi-node cluster spreads the
    node-state memory across nodes instead of stacking it on the head
    node (single-node: no-op)."""
    import ray
    Shard = ray.remote(num_cpus=0)(_VertexShard)
    return [Shard.options(
        scheduling_strategy="SPREAD").remote() for _ in range(P)]


def _shard_route(ds, col: str, P: int):
    """Range router over the MATERIALIZED ``ds[col]``: quantile
    boundaries once → ``route(values) -> shard id`` (monotone, identical
    everywhere).  At P = 1, or over an empty ``ds``, everything routes
    to shard 0 without reading ``ds``."""
    from bqf_ray.stages.partition import quantile_boundaries

    bounds = (quantile_boundaries(ds, col, P)
              if P > 1 and ds.count() else np.empty(0, dtype=np.float64))

    def route(arr):
        return np.searchsorted(
            bounds, np.asarray(arr, dtype=np.int64).astype(np.float64)
        ).astype(np.int64)

    return route


def _with_part(ds, route, col: str):
    """``ds`` plus the ``_PART`` column ``route(col)``."""
    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            _PART, pa.array(route(batch.column(col))))

    return ds.map_batches(add_part, batch_format="pyarrow")


def _cobucket(ds, route, col: str):
    """Materialized co-bucket of ``ds`` by ``route(col)`` — the
    once-per-plan edge exchange every sharded graph plan shares."""
    return (_with_part(ds, route, col).groupby(_PART)
            .map_groups(lambda t: t, batch_format="pyarrow")
            .materialize())


def _both_dirs(ds, ca: str, cb: str, weight=None, mirror=True):
    """Each undirected edge in both directions as ``(x, y)`` rows, plus
    ``w = weight(batch)`` (twice) when given — the view every
    undirected plan's message reads (``mirror=False``: once, as is)."""
    k = 2 if mirror else 1
    def fn(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column(ca), dtype=np.int64)
        b = np.asarray(batch.column(cb), dtype=np.int64)
        cols = {"x": pa.array(np.concatenate([a, b][:k])),
                "y": pa.array(np.concatenate([b, a][:k]))}
        if weight is not None:
            w = weight(batch)
            cols["w"] = pa.array(np.concatenate([w, w][:k]))
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow")


def _gather(ds, cols):
    """``ds``'s ``cols`` as int64 arrays on the driver (executed through
    ``materialize``: a lazy ``to_arrow_refs`` runs the plan a second
    time for its schema)."""
    import ray
    parts = [t for t in ray.get(ds.materialize().to_arrow_refs())
             if t.num_rows]
    return tuple(np.concatenate(
        [np.asarray(t.column(c), dtype=np.int64) for t in parts]
        or [np.empty(0, dtype=np.int64)]) for c in cols)


def _check_mode(op: str, mode: str):
    if mode not in ("auto", "broadcast", "sharded"):
        raise ValueError(f"{op}: unknown mode {mode!r}")


def _shard_count(mode: str, n_nodes, node_budget, num_shards) -> int:
    """P for ``mode``: 1 for ``"broadcast"`` and for ``"auto"`` at or
    below ``node_budget`` nodes, else ``num_shards``."""
    if mode == "broadcast" or (mode == "auto"
                               and n_nodes <= int(node_budget)):
        return 1
    return max(1, int(num_shards))


class _Runtime:
    """Driver handle of one vertex-state run over P range shards, with
    one transport per P.  At P = 1 the one :class:`_VertexShard` lives
    on the driver: no actor, no range boundaries and no co-bucket — a
    round ``ray.put``s the read vectors and scans every edge block in
    parallel with ``message``; the driver folds the partials with
    ``combine`` while they hold at most ``budget`` rows (the caller's
    ``node_budget``: the vertex-sized envelope), past that one
    :func:`exchange` by node folds them in tasks.  At P > 1 the shards
    are actors, edges are co-bucketed by source range and a round is
    :func:`_shard_round`.  Both transports run the same
    triple, so every P gives the same answer.

    The token is a uuid, NOT ``id(actor)``: worker processes outlive
    queries and a recycled CPython id would silently serve a previous
    run's cached shard state."""

    def __init__(self, op: str, P: int, ds=None, col: str = "",
                 budget: int = 0):
        import uuid
        self.op, self.P, self.budget = op, int(P), int(budget)
        self.local = self.P == 1
        self.shards = ([_VertexShard()] if self.local
                       else _make_shards(self.P))
        self.route = _shard_route(ds, col, self.P)
        self.token = f"{op}-{uuid.uuid4().hex}"
        self.rounds = 0

    def log(self, **why):
        """The run's one plan record: ``why`` carries ``forced`` and the
        numbers behind the choice."""
        plan_log(self.op, "broadcast" if self.local else "sharded",
                 P=self.P, **why)

    def call(self, method: str, args):
        """``shard.method(*args[p])`` on every shard p, results in shard
        order."""
        if self.local:
            return [getattr(self.shards[0], method)(*args[0])]
        import ray
        return ray.get([getattr(a, method).remote(*x)
                        for a, x in zip(self.shards, args)])

    def each(self, fn, *args):
        """``fn(shard, *args)`` on every shard."""
        return self.call("apply", [(fn, *args)] * self.P)

    def init(self, ds, cols, prep):
        """Init every shard from its rows of ``ds`` (all of them at
        P = 1, so ``ds`` should be node-sized there): ``prep(*int64
        cols) -> (sorted distinct ids, {name: vector})``.  Returns the
        node count per shard."""
        if self.local:
            return np.array([self.shards[0].init(*prep(*_gather(ds, cols)))])
        return _shard_init(self.shards, _with_part(ds, self.route, cols[0]),
                           cols, prep)

    def seed(self, nodes, **vec):
        """Init every shard from driver arrays aligned with ``nodes``."""
        sp = self.route(nodes)
        self.call("init", [(nodes[sp == p], {k: v[sp == p]
                                            for k, v in vec.items()})
                           for p in range(self.P)])

    def cobucket(self, ds, col: str):
        """``ds`` as a round scans it: co-bucketed by ``route(col)`` at
        P > 1, as is (every block its own scan task) at P = 1."""
        return ds if self.local else _cobucket(ds, self.route, col)

    def round(self, edges, read, message, combine, apply, msg_args=(),
              apply_args=()):
        """One round; returns every shard's ``apply`` result."""
        self.rounds += 1
        if not self.local:
            return _shard_round(self.shards, self.route, edges,
                                f"{self.token}-{self.rounds}", read,
                                message, combine, apply, msg_args,
                                apply_args)
        import ray
        shard = self.shards[0]
        ref = ray.put(shard.get_state(read))

        def scan(batch: pa.Table) -> pa.Table:
            return _v_table(message(ray.get(ref), _int_cols(batch),
                                    *msg_args))

        def fold(group: pa.Table) -> pa.Table:
            return _v_table(combine(*_int_cols(group).values()))

        out = edges.map_batches(scan, batch_format="pyarrow").materialize()
        folded = out.count() > self.budget
        if folded:
            out = exchange(out, fold, "v0", out.num_blocks()).materialize()
        parts = [t for t in ray.get(out.to_arrow_refs()) if t.num_rows]
        if parts:
            cols = _int_cols(pa.concat_tables(parts)).values()
            shard.stage(*(cols if folded else combine(*cols)))
        return [shard.apply(apply, *apply_args)]

    def result(self, fn, *args, dataset=False):
        """The ``fn(shard, *args)`` tables of every shard, concatenated,
        or (``dataset=True``) as a Dataset — built from per-shard refs at
        P > 1, so nothing node-sized passes through the driver."""
        import ray
        if self.local:
            t = fn(self.shards[0], *args)
            return ray.data.from_arrow(t) if dataset else t
        refs = [a.apply.remote(fn, *args) for a in self.shards]
        return (ray.data.from_arrow_refs(refs) if dataset
                else pa.concat_tables(ray.get(refs)))


def _edge_runtime(op: str, P: int, budget, edges, ca: str, cb: str,
                  weight=None, mirror=True):
    """A runtime (driver fold ``budget``) over the undirected ``edges``
    and the :func:`_both_dirs` view its rounds scan: at P > 1 doubled,
    materialized once and co-bucketed by ``x``; at P = 1 derived in each
    scan task from its block, doubled unless ``mirror=False`` (whose
    message reads each edge both ways)."""
    ed = _both_dirs(edges, ca, cb, weight, mirror or P > 1)
    if P > 1:
        ed = ed.materialize()
    rt = _Runtime(op, P, ed, "x", budget)
    return rt, rt.cobucket(ed, "x")


def _table_runtime(op: str, nd_ds, mode: str, node_budget, num_shards):
    """Runtime entry of the directed plans (:func:`pagerank`,
    :func:`hits`) over their materialized distinct-node table
    ``nd_ds``: P by ``mode``, never more shards than nodes, range
    boundaries over ``nd_ds["node"]``, the plan logged.  Returns
    ``(runtime, n_nodes)``."""
    n = nd_ds.count()
    rt = _Runtime(op, min(_shard_count(mode, n, node_budget, num_shards),
                          max(n, 1)), nd_ds, "node", node_budget)
    rt.log(n_nodes=n, node_budget=int(node_budget),
           forced=int(mode != "auto"))
    return rt, n


def _node_runtime(op: str, mode: str, node_budget, num_shards, edges,
                  ca: str, cb: str, prep):
    """``(logged runtime, scanned edges)`` of :func:`kcore` / LPA over the
    materialized canonical ``edges``; shards start from ``prep`` of their
    node ids: read by the driver at P = 1 while the endpoints fit
    ``node_budget``, else the per-block unique endpoints (counted only
    if ``auto`` finds more than ``node_budget``)."""
    def ends(batch: pa.Table) -> pa.Table:
        return pa.table({"x": pa.array(np.unique(np.concatenate([
            np.asarray(batch.column(c), dtype=np.int64)
            for c in (ca, cb)])))})

    B = int(node_budget)
    if 2 * edges.count() <= B and _shard_count(mode, 0, B, num_shards) == 1:
        x = np.unique(np.concatenate(_gather(edges, (ca, cb))))
        rt, ed = _edge_runtime(op, 1, B, edges, ca, cb)
        n = rt.shards[0].init(*prep(x))
    else:
        ids = edges.map_batches(ends, batch_format="pyarrow").materialize()
        n = ids.count()                    # ≥ the node count
        if mode == "auto" and n > B:
            n = len(np.unique(_gather(ids, ("x",))[0]))
        rt, ed = _edge_runtime(op, _shard_count(mode, n, B, num_shards), B,
                               edges, ca, cb)
        n = int(rt.init(ids, ("x",), prep).sum())
    rt.log(n_nodes=n, node_budget=B, forced=int(mode != "auto"))
    return rt, ed


def _cached_state(actors, token, p, names, max_entries: int = 8):
    """``(nodes, *vectors[names])`` of shard ``p``, fetched once per
    (token, shard) per worker process."""
    import ray
    for k in [k for k in _SHARD_CACHE if k[0] != token]:
        del _SHARD_CACHE[k]
    key = (token, p)
    if key not in _SHARD_CACHE:
        # bound worker residency (a static token, e.g. the walk plan's
        # CSR shards, would keep every shard): evict FIFO past the cap
        while len(_SHARD_CACHE) >= max_entries:
            del _SHARD_CACHE[next(iter(_SHARD_CACHE))]
        _SHARD_CACHE[key] = ray.get(actors[p].get_state.remote(names))
    return _SHARD_CACHE[key]


def _shard_init(actors, ds, cols, prep):
    """Init every shard actor from its group of the ``_PART``-tagged
    ``ds`` (see :meth:`_Runtime.init`); shards without a group get
    ``prep`` of empty columns.  Returns the node count per shard."""
    import ray

    def init_group(group: pa.Table) -> pa.Table:
        p = int(group.column(_PART)[0].as_py())
        n = ray.get(actors[p].init.remote(*prep(
            *(np.asarray(group.column(c), dtype=np.int64) for c in cols))))
        return pa.table({"p": pa.array([p], pa.int64()),
                         "n": pa.array([n], pa.int64())})

    got = (ds.select_columns([*cols, _PART]).groupby(_PART)
           .map_groups(init_group, batch_format="pyarrow").to_pandas())
    counts = np.zeros(len(actors), dtype=np.int64)
    if len(got):
        counts[got["p"].to_numpy()] = got["n"].to_numpy()
    empty = prep(*(np.empty(0, dtype=np.int64) for _ in cols))
    ray.get([a.init.remote(*empty)
             for p, a in enumerate(actors) if not counts[p]])
    return counts


def _scatter(shard, out):
    """Write the staged ``(node, value)`` pairs into ``out`` (aligned
    with ``shard.nodes``) and clear the stage."""
    if shard.staged is not None:
        out[np.searchsorted(shard.nodes, shard.staged[0])] = shard.staged[1]
    shard.staged = None
    return out


def _state_table(shard, cols):
    """``(node, out...)``, ``cols = {out column: vector name}``."""
    return pa.table({"node": pa.array(shard.nodes),
                     **{out: pa.array(shard.vec[name])
                        for out, name in cols.items()}})


def _pop_max(shard, name):
    """Drop vector ``name`` (a prep-time statistic), return its max."""
    return int(shard.vec.pop(name).max(initial=0))


def _int_cols(batch: pa.Table) -> dict:
    """``{column: int64 array}`` for every column of ``batch``."""
    return {c: np.asarray(batch.column(c), dtype=np.int64)
            for c in batch.column_names}


def _v_table(arrays) -> pa.Table:
    """A triple's partial arrays as columns ``v0, v1, ...``."""
    return pa.table({f"v{i}": pa.array(v) for i, v in enumerate(arrays)})


def _found(ids, x):
    """``(pos, hit)``: ``searchsorted`` positions of ``x`` in the sorted
    ``ids`` and whether each is there.  Past ~1k ``ids`` (out of cache)
    ``x`` probes in sorted order, 2-5x faster than random probes; keys
    that already arrive sorted (fold outputs) skip the argsort."""
    if len(ids) > 1024 and np.any(x[1:] < x[:-1]):
        order = np.argsort(x)
        pos = np.empty(len(x), dtype=np.intp)
        pos[order] = np.searchsorted(ids, x[order])
    else:
        pos = np.searchsorted(ids, x)
    if not len(ids):
        return pos, np.zeros(len(x), dtype=bool)
    return pos, ids[np.minimum(pos, len(ids) - 1)] == x


def _fold_by(ufunc, node, val):
    """``(sorted distinct node, ufunc-fold of val per node)``."""
    order = np.argsort(node)
    node, val = node[order], val[order]
    first = np.flatnonzero(np.diff(node, prepend=node[:1] - 1))
    return node[first], ufunc.reduceat(val, first)


def _sum_by(node, val):
    return _fold_by(np.add, node, val)


def _min_by(node, val):
    return _fold_by(np.minimum, node, val)


def _shard_round(actors, route, edges_b, token, read, message, combine,
                 apply, msg_args=(), apply_args=()):
    """One round over P shard actors.  Each co-bucketed edge batch
    reads its source shards' ``read`` vectors once through the worker
    cache and ``message(state, edge_cols, *msg_args)`` turns each
    source-shard slice into pre-combined ``(node, *values)`` partials;
    ONE ``groupby(destination shard).map_groups`` folds them with
    ``combine`` and stages the result into the destination actor; then
    ``apply(shard, *apply_args)`` commits every shard.  Returns the
    actors' small commit results for the driver to reduce."""
    import ray

    empty = tuple(np.empty(0, dtype=np.int64) for _ in range(len(read) + 1))

    def scan(batch: pa.Table) -> pa.Table:
        cols = _int_cols(batch)
        sp = cols.pop(_PART)
        outs = []
        for p in np.unique(sp):
            m = sp == p
            outs.append(message(_cached_state(actors, token, int(p), read),
                                {c: v[m] for c, v in cols.items()},
                                *msg_args))
        out = [np.concatenate(c) for c in
               zip(*(outs or [message(empty, cols, *msg_args)]))]
        return _v_table(out).append_column("__tp", pa.array(route(out[0])))

    def fold(group: pa.Table) -> pa.Table:
        p = int(group.column("__tp")[0].as_py())
        vals = _int_cols(group.drop_columns(["__tp"])).values()
        ray.get(actors[p].stage.remote(*combine(*vals)))
        return pa.table({"p": pa.array([p], pa.int64())})

    (edges_b.map_batches(scan, batch_format="pyarrow")
     .groupby("__tp").map_groups(fold, batch_format="pyarrow")
     .materialize())
    return ray.get([a.apply.remote(apply, *apply_args) for a in actors])


# PageRank triple: contributions floor-divide per edge then SUM; the
# commit reports delivered mass, the driver respreads the rest exactly

def _pr_message(state, e, d_num, d_den):
    nn, rr, dd = state
    si = _found(nn, e["s"])[0]
    return _sum_by(e["t"], (rr[si] * d_num * e["w"]) // (d_den * dd[si]))


def _pr_commit(shard):
    shard.vec["new"] = _scatter(shard, np.zeros(len(shard.nodes),
                                                dtype=np.int64))
    return int(shard.vec["new"].sum())


def _pr_spread(shard, base, plus1):
    """ranks = committed sums (zeros at init) + ``base`` on every
    restart target (all nodes, or the PPR seeds) + 1 on the first
    ``plus1`` (lowest-id) targets — the driver pre-clips ``plus1`` by
    shard offsets."""
    new = shard.vec.pop("new", None)
    if new is None:
        new = np.zeros(len(shard.nodes), dtype=np.int64)
    spos = shard.vec.get("spos")
    if spos is None:
        new += np.int64(base)
        new[:plus1] += 1
    else:
        new[spos] += np.int64(base)
        new[spos[:plus1]] += 1
    shard.vec["ranks"] = new


def _pr_seed(shard, seeds):
    """Sorted seed ids claimed for this shard → positions; returns the
    ids NOT found so the driver can raise with names."""
    pos, ok = _found(shard.nodes, seeds)
    shard.vec["spos"] = pos[ok]
    return seeds[~ok]


def _pr_prep(node, deg, wmax):
    order = np.argsort(node)
    return node[order], {"deg": deg[order], "wmax": wmax[order]}


def _pr_table(shard, unit):
    return _rank_table(shard.nodes, shard.vec["ranks"], unit)


def _packed_pair_set(a: np.ndarray, b: np.ndarray):
    """Sorted membership structure over (a, b) pairs using PLAIN int64
    keys: node ids compress to vocabulary codes and each pair packs as
    ``code_a·n + code_b``.  A structured-dtype ``searchsorted`` does
    per-element void compares — measured ~10-30× slower than the int64
    probe at the 41M-wedge copurchase scale — so every
    wedge-closure membership test goes through this instead."""
    if not len(a):
        return (np.empty(0, dtype=np.int64), 0,
                np.empty(0, dtype=np.int64))
    vu, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    n = len(vu)
    packed = np.sort(inv[:len(a)].astype(np.int64) * n + inv[len(a):])
    return vu, n, packed


def _packed_pair_probe(ps, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Membership of (x, y) pairs in a :func:`_packed_pair_set`."""
    vu, n, packed = ps
    if not len(packed) or not len(x):
        return np.zeros(len(x), dtype=bool)
    cx = np.searchsorted(vu, x)
    cy = np.searchsorted(vu, y)
    ok = ((cx < n) & (vu[np.minimum(cx, n - 1)] == x)
          & (cy < n) & (vu[np.minimum(cy, n - 1)] == y))
    q = (np.minimum(cx, n - 1).astype(np.int64) * n
         + np.minimum(cy, n - 1))
    pos = np.minimum(np.searchsorted(packed, q), len(packed) - 1)
    return ok & (packed[pos] == q)


def _segment_pairs(sort_key: np.ndarray, values: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All unordered within-segment value pairs, fully vectorized:
    sort by segment key, then for each DISTINCT segment size d gather
    the segments into one (k, d) matrix and apply a single
    ``triu_indices`` fancy-index — no per-segment Python loop (the loop
    is over distinct sizes, bounded by max segment length)."""
    order = np.lexsort((values, sort_key))
    k, v = sort_key[order], values[order]
    starts = np.concatenate([[True], k[1:] != k[:-1]]) \
        if len(k) else np.empty(0, dtype=bool)
    seg_off = np.flatnonzero(starts)
    seg_cnt = np.diff(np.append(seg_off, len(k)))
    xs, ys = [], []
    for d in np.unique(seg_cnt):
        if d < 2:
            continue
        offs = seg_off[seg_cnt == d]
        mat = v[(offs[:, None] + np.arange(d)[None, :])]
        iu, ju = np.triu_indices(int(d), 1)
        xs.append(mat[:, iu].ravel())
        ys.append(mat[:, ju].ravel())
    if not xs:
        e = np.empty(0, dtype=values.dtype)
        return e, e.copy()
    return np.concatenate(xs), np.concatenate(ys)


def cooccurrence_edges(ds, group_col: str, item_col: str,
                       num_buckets: int = 64):
    """Undirected co-occurrence edges: one (min, max) item pair for
    every two DISTINCT items sharing a ``group_col`` value (the
    co-purchase / co-citation projection of a bipartite table).  One
    group-hash bucketed exchange; pair generation inside the bucket is
    the vectorized :func:`_segment_pairs`.  Emits duplicates when a
    pair co-occurs in several groups — feed :func:`triangle_count` (or
    any consumer that dedups) downstream."""

    def tag(batch: pa.Table) -> pa.Table:
        return pa.table({
            "g": pa.array(np.asarray(batch.column(group_col),
                                     dtype=np.int64)),
            "i": pa.array(np.asarray(batch.column(item_col),
                                     dtype=np.int64))})

    def gen(grp: pa.Table) -> pa.Table:
        g = np.asarray(grp.column("g"), dtype=np.int64)
        i = np.asarray(grp.column("i"), dtype=np.int64)
        # dedupe (group, item) so a repeated item in one group doesn't
        # emit self-pairs
        order = np.lexsort((i, g))
        g, i = g[order], i[order]
        uniq = np.concatenate([[True], (g[1:] != g[:-1]) | (i[1:] != i[:-1])]) \
            if len(g) else np.empty(0, dtype=bool)
        g, i = g[uniq], i[uniq]
        x, y = _segment_pairs(g, i)
        return pa.table({"a": pa.array(np.minimum(x, y)),
                         "b": pa.array(np.maximum(x, y))})

    return exchange(ds.map_batches(tag, batch_format="pyarrow"), gen, "g",
                    num_buckets)


def _orient(batch: pa.Table) -> pa.Table:
    """Degree-orient each degree-attached edge: ``u`` is the endpoint of
    lower (degree, id), so every wedge is generated at exactly one
    center."""
    a = np.asarray(batch.column("a"), dtype=np.int64)
    b = np.asarray(batch.column("b"), dtype=np.int64)
    da = np.asarray(batch.column("deg_a"), dtype=np.int64)
    db = np.asarray(batch.column("deg_b"), dtype=np.int64)
    a_first = (da < db) | ((da == db) & (a < b))
    return pa.table({"u": pa.array(np.where(a_first, a, b)),
                     "v": pa.array(np.where(a_first, b, a))})


def canonical_edges(edges_ds, a_col: str = "a", b_col: str = "b",
                    num_buckets: int = 64):
    """Canonicalize an undirected edge stream to distinct (min, max)
    pairs: per-block pre-dedupe, ONE pair-hash bucket exchange, exact
    in-bucket dedupe.  Self-loops dropped.  Returns a MATERIALIZED
    (a, b) dataset (downstream graph ops consume it several times)."""

    def canon(batch: pa.Table) -> pa.Table:
        x = np.asarray(batch.column(a_col), dtype=np.int64)
        y = np.asarray(batch.column(b_col), dtype=np.int64)
        keep = x != y
        x, y = x[keep], y[keep]
        a = np.minimum(x, y)
        b = np.maximum(x, y)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        uniq = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])]) \
            if len(a) else np.empty(0, dtype=bool)
        return pa.table({"a": pa.array(a[uniq]), "b": pa.array(b[uniq])})

    def dedup_bucket(g: pa.Table) -> pa.Table:
        a = np.asarray(g.column("a"), dtype=np.int64)
        b = np.asarray(g.column("b"), dtype=np.int64)
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        uniq = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])]) \
            if len(a) else np.empty(0, dtype=bool)
        return pa.table({"a": pa.array(a[uniq]), "b": pa.array(b[uniq])})

    return exchange(edges_ds.map_batches(canon, batch_format="pyarrow"),
                    dedup_bucket, ["a", "b"], num_buckets).materialize()


def attach_degrees(edges, num_buckets: int = 64, mode: str = "auto",
                   broadcast_budget_bytes: int = 1 << 30,
                   deg_edges=None):
    """Exact vertex degrees over canonical edges, attached to BOTH
    endpoints (``deg_a``, ``deg_b``).  With ``deg_edges`` given,
    degrees are counted over THAT edge set instead while still
    attaching to ``edges``'s endpoints (e.g. candidate pairs scored
    against the original graph's degrees in :func:`link_prediction`);
    every ``edges`` endpoint must then appear in ``deg_edges``.

    Two plans, budget-gated like ``dedup.verify_pairs``:

    - ``broadcast`` (vertex-degree table ≤ ``broadcast_budget_bytes``,
      16 B/vertex): sort the degree table once on the driver,
      ``ray.put`` it, and attach both endpoint degrees in ONE
      zero-copy searchsorted map — no exchange at all.  Co-occurrence
      projections have vertex count ≪ edge count, so this is the
      common case.
    - ``bucketed`` (scale path): two key-bucketed co-partitions
      (union tag + per-bucket searchsorted) — no driver collect, the
      degree table stays distributed.
    """
    import ray

    from bqf_ray.stages.partition import bucketed_sum

    B = int(num_buckets)

    def endpoints(batch: pa.Table) -> pa.Table:
        v = np.concatenate([np.asarray(batch.column("a"), dtype=np.int64),
                            np.asarray(batch.column("b"), dtype=np.int64)])
        uv, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uv),
                         "c": pa.array(cnt.astype(np.int64))})

    deg = bucketed_sum((deg_edges if deg_edges is not None else edges)
                       .map_batches(endpoints, batch_format="pyarrow"),
                       ["v"], {"c": "deg"},
                       num_buckets=B).materialize()

    if mode == "auto":
        n_deg = deg.count()
        mode = ("broadcast"
                if 16 * n_deg <= int(broadcast_budget_bytes)
                else "bucketed")
        plan_log("attach_degrees", mode, deg_bytes=16 * n_deg,
                 budget_bytes=int(broadcast_budget_bytes))

    if mode == "broadcast":
        blocks = [t for t in ray.get(deg.to_arrow_refs()) if t.num_rows]
        dv = (np.concatenate([np.asarray(t.column("v"), dtype=np.int64)
                              for t in blocks])
              if blocks else np.empty(0, dtype=np.int64))
        dd = (np.concatenate([np.asarray(t.column("deg"), dtype=np.int64)
                              for t in blocks])
              if blocks else np.empty(0, dtype=np.int64))
        order = np.argsort(dv)
        ref = ray.put((dv[order], dd[order]))

        def lookup(batch: pa.Table) -> pa.Table:
            vs, ds_ = ray.get(ref)  # zero-copy plasma reads
            a = np.asarray(batch.column("a"), dtype=np.int64)
            b = np.asarray(batch.column("b"), dtype=np.int64)
            # every endpoint has a degree row by construction
            da = ds_[np.searchsorted(vs, a)]
            db = ds_[np.searchsorted(vs, b)]
            return (batch.append_column("deg_a", pa.array(da))
                    .append_column("deg_b", pa.array(db)))

        return edges.map_batches(lookup, batch_format="pyarrow")

    lookup = deg.rename_columns({"deg": "val"})
    return _attach_value(_attach_value(edges, lookup, "a", "deg_a", B),
                         lookup, "b", "deg_b", B)


def _triangle_count_broadcast(edges, n_edges: int, num_buckets: int):
    """Broadcast fast path of :func:`triangle_count`: the canonical
    edge list fits the broadcast budget, so collect it ONCE, compute
    degrees + orientation + the sorted membership array on the driver
    (three vectorized passes over ≤ budget/16 rows), ``ray.put`` the
    result, and fan the wedge-generate-and-close work out over source
    hash buckets — zero further exchanges, every task reads the
    broadcast zero-copy."""
    import ray
    import ray.data

    from bqf_ray.stages.partition import bucket_of

    B = int(num_buckets)
    blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
    a = (np.concatenate([np.asarray(t.column("a"), dtype=np.int64)
                         for t in blocks])
         if blocks else np.empty(0, dtype=np.int64))
    b = (np.concatenate([np.asarray(t.column("b"), dtype=np.int64)
                         for t in blocks])
         if blocks else np.empty(0, dtype=np.int64))
    vu, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    deg = np.bincount(inv).astype(np.int64)
    da, db = deg[inv[:len(a)]], deg[inv[len(a):]]
    a_first = (da < db) | ((da == db) & (a < b))
    u = np.where(a_first, a, b)
    v = np.where(a_first, b, a)
    ubkt = bucket_of(u, num_buckets=B)
    ps = _packed_pair_set(a, b)
    ref = ray.put((u, v, ubkt, ps))

    def bucket_task(batch: pa.Table) -> pa.Table:
        bu, bv, bbkt, bps = ray.get(ref)  # zero-copy plasma reads
        tri = wed = 0
        for i in np.asarray(batch.column("id"), dtype=np.int64):
            m = bbkt == i
            x, y = _segment_pairs(bu[m], bv[m])
            if not len(x):
                continue
            wed += len(x)
            wa, wb = np.minimum(x, y), np.maximum(x, y)
            # dedupe to (pair, count) before the membership probe
            order = np.lexsort((wb, wa))
            wa, wb = wa[order], wb[order]
            new = np.concatenate([[True], (wa[1:] != wa[:-1])
                                  | (wb[1:] != wb[:-1])])
            idx = np.flatnonzero(new)
            cnt = np.diff(np.append(idx, len(wa)))
            wa, wb = wa[idx], wb[idx]
            hit = _packed_pair_probe(bps, wa, wb)
            tri += int(cnt[hit].sum())
        return pa.table({"tri": pa.array([tri], type=pa.int64()),
                         "wed": pa.array([wed], type=pa.int64())})

    closed = (ray.data.range(B, override_num_blocks=B)
              .map_batches(bucket_task, batch_format="pyarrow")
              .materialize())
    return pa.table({
        "n_edges": pa.array([int(n_edges)], type=pa.int64()),
        "n_wedges": pa.array([int(closed.sum("wed") or 0)],
                             type=pa.int64()),
        "n_triangles": pa.array([int(closed.sum("tri") or 0)],
                                type=pa.int64())})


def triangle_count(edges_ds, a_col: str = "a", b_col: str = "b",
                   num_buckets: int = 64, mode: str = "auto",
                   broadcast_budget_bytes: int = 1 << 30):
    """EXACT distributed triangle count over an undirected edge stream
    (self-loops and duplicate/reversed edges tolerated) — the classic
    node-iterator-with-degree-orientation algorithm cast as bucketed
    exchanges:

    1. canonicalize (min,max), dedupe via one pair-hash bucket exchange;
    2. exact degrees via :func:`bucketed_sum`; attach deg to both
       endpoints with two key-bucketed co-partitions (union + per-bucket
       searchsorted — no driver collect, no broadcast: the degree table
       is vertex-sized);
    3. orient every edge from its (degree, id)-smaller endpoint — the
       standard bound: every out-degree is at most ~sqrt(2E), so wedge
       generation is O(E^1.5) worst case and per-hub work collapses;
    4. generate wedges per source INSIDE u-hash buckets, fully
       vectorized by grouping same-out-degree sources into (k, d)
       matrices + one triu_indices gather per distinct degree,
       pre-aggregated to (pair, count) before leaving the bucket;
    5. close wedges against the edge set in one pair-hash bucketed
       semi-join (structured-array searchsorted membership).

    Every exchange key is a single int hash bucket (memory/shuffle-key
    lesson of ``stages/partition.bucketed_agg``).  Returns a one-row
    table ``(n_edges, n_wedges, n_triangles)`` — each column exactly
    SQL-recomputable, so the whole operator is oracle-checkable.

    ``mode="auto"`` routes to :func:`_triangle_count_broadcast` when
    the canonical edge list fits ``broadcast_budget_bytes`` (16 B per
    edge): one driver collect + zero-copy broadcast replaces the five
    post-canonicalization exchanges.  Past the budget (or with
    ``mode="bucketed"``) the fully-distributed plan below runs — no
    stage of it ever holds more than one bucket."""
    B = int(num_buckets)

    edges = canonical_edges(edges_ds, a_col, b_col, num_buckets=B)
    n_edges = edges.count()
    if mode == "auto":
        mode = ("broadcast"
                if 16 * n_edges <= int(broadcast_budget_bytes)
                else "bucketed")
        plan_log("triangle_count", mode, edge_bytes=16 * n_edges,
                 budget_bytes=int(broadcast_budget_bytes))
    if mode == "broadcast":
        return _triangle_count_broadcast(edges, n_edges, B)
    attached = attach_degrees(edges, num_buckets=B, mode="bucketed")

    # -- 3 + 4. orient, bucket by source, vectorized wedge gen -------
    def wedges_bucket(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("u"), dtype=np.int64)
        v = np.asarray(g.column("v"), dtype=np.int64)
        x, y = _segment_pairs(u, v)
        if len(x):
            wa, wb = np.minimum(x, y), np.maximum(x, y)
            # pre-aggregate (pair -> count) before leaving the bucket
            order = np.lexsort((wb, wa))
            wa, wb = wa[order], wb[order]
            new = np.concatenate([[True], (wa[1:] != wa[:-1])
                                  | (wb[1:] != wb[:-1])])
            idx = np.flatnonzero(new)
            cnt = np.diff(np.append(idx, len(wa)))
            wa, wb = wa[idx], wb[idx]
        else:
            wa = wb = np.empty(0, dtype=np.int64)
            cnt = np.empty(0, dtype=np.int64)
        return pa.table({"a": pa.array(wa), "b": pa.array(wb),
                         "wcnt": pa.array(cnt.astype(np.int64))})

    wedges = exchange(attached.map_batches(_orient, batch_format="pyarrow"),
                      wedges_bucket, "u", B)

    # -- 5. close against the edge set -------------------------------
    def tag_w(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch.column("a"), "b": batch.column("b"),
                         "wcnt": batch.column("wcnt"),
                         "__side": pa.array(
                             np.zeros(len(batch), dtype=np.int8))})

    def tag_edge(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch.column("a"), "b": batch.column("b"),
                         "wcnt": pa.array(np.zeros(len(batch),
                                                   dtype=np.int64)),
                         "__side": pa.array(
                             np.ones(len(batch), dtype=np.int8))})

    def close_bucket(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("__side"))
        a = np.asarray(g.column("a"), dtype=np.int64)
        b = np.asarray(g.column("b"), dtype=np.int64)
        w = np.asarray(g.column("wcnt"), dtype=np.int64)
        ps = _packed_pair_set(a[side == 1], b[side == 1])
        wm = side == 0
        hit = _packed_pair_probe(ps, a[wm], b[wm])
        return pa.table({
            "tri": pa.array([int(w[wm][hit].sum())], type=pa.int64()),
            "wed": pa.array([int(w[wm].sum())], type=pa.int64())})

    closed = exchange(
        wedges.map_batches(tag_w, batch_format="pyarrow")
        .union(edges.map_batches(tag_edge, batch_format="pyarrow")),
        close_bucket, ["a", "b"], B).materialize()
    n_tri = int(closed.sum("tri") or 0)
    n_wed = int(closed.sum("wed") or 0)
    return pa.table({"n_edges": pa.array([int(n_edges)], type=pa.int64()),
                     "n_wedges": pa.array([n_wed], type=pa.int64()),
                     "n_triangles": pa.array([n_tri], type=pa.int64())})


def degree_assortativity(edges_ds, a_col: str = "a", b_col: str = "b",
                         num_buckets: int = 64, mode: str = "auto",
                         broadcast_budget_bytes: int = 1 << 30):
    """Degree-assortativity components of an undirected graph (Newman
    2002) as EXACT INTEGER sums — the repo's established pattern for
    making a floating-point statistic oracle-exact (cf. the per-group
    Pearson components of ``value_k_correlation``): the Pearson
    correlation over the directed-edge degree sequence is

        r = (m2*s11 - s1^2) / (m2*s2 - s1^2)

    where over each undirected edge {u, v}: m2 += 2, s1 += du + dv,
    s2 += du^2 + dv^2, s11 += 2*du*dv.  All four are int64-exact, so
    the oracle replays them bit-for-bit; callers derive float r.

    One canonical-edge exchange + :func:`attach_degrees` (broadcast
    degree lookup under the budget, two bucketed co-partitions past
    it), then a pure per-batch integer fold."""
    edges = canonical_edges(edges_ds, a_col, b_col, num_buckets=num_buckets)
    attached = attach_degrees(edges, num_buckets=num_buckets, mode=mode,
                              broadcast_budget_bytes=broadcast_budget_bytes)

    def fold(batch: pa.Table) -> pa.Table:
        da = np.asarray(batch.column("deg_a"), dtype=np.int64)
        db = np.asarray(batch.column("deg_b"), dtype=np.int64)
        return pa.table({
            "m2": pa.array([2 * len(da)], type=pa.int64()),
            "s1": pa.array([int((da + db).sum())], type=pa.int64()),
            "s2": pa.array([int((da * da + db * db).sum())],
                           type=pa.int64()),
            "s11": pa.array([int(2 * (da * db).sum())], type=pa.int64())})

    parts = attached.map_batches(fold, batch_format="pyarrow").materialize()
    return pa.table({
        "m2": pa.array([int(parts.sum("m2") or 0)], type=pa.int64()),
        "s1": pa.array([int(parts.sum("s1") or 0)], type=pa.int64()),
        "s2": pa.array([int(parts.sum("s2") or 0)], type=pa.int64()),
        "s11": pa.array([int(parts.sum("s11") or 0)], type=pa.int64())})


def butterfly_count(ds, group_col: str, item_col: str,
                    num_buckets: int = 64):
    """EXACT butterfly (bipartite 4-cycle) count of a (group, item)
    bipartite table: butterflies = sum over item pairs {a, b} of
    C(c_ab, 2), where c_ab = number of distinct groups containing both
    — the bipartite clustering primitive (Wang et al., "Butterfly
    counting in bipartite networks", 2014).

    Plan: :func:`cooccurrence_edges` emits one (a, b) row per
    co-occurring group (multiplicity preserved), ONE pair-bucketed
    exact count (:func:`bucketed_sum` over the pair), then a per-batch
    integer fold of C(c, 2) — no driver-side loop.  Returns one row
    ``(n_item_pairs, n_butterflies)``, both int64-exact."""
    from bqf_ray.stages.partition import bucketed_sum

    pairs = cooccurrence_edges(ds, group_col, item_col,
                               num_buckets=num_buckets)

    def tag_one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(len(batch), dtype=np.int64)))

    counts = bucketed_sum(pairs.map_batches(tag_one, batch_format="pyarrow"),
                          ["a", "b"], {"one": "c"},
                          num_buckets=num_buckets)

    def fold(batch: pa.Table) -> pa.Table:
        c = np.asarray(batch.column("c"), dtype=np.int64)
        return pa.table({
            "np_": pa.array([len(c)], type=pa.int64()),
            "bf": pa.array([int((c * (c - 1) // 2).sum())],
                           type=pa.int64())})

    parts = counts.map_batches(fold, batch_format="pyarrow").materialize()
    return pa.table({
        "n_item_pairs": pa.array([int(parts.sum("np_") or 0)],
                                 type=pa.int64()),
        "n_butterflies": pa.array([int(parts.sum("bf") or 0)],
                                  type=pa.int64())})


def _attach_value(es, lookup, key: str, out: str, num_buckets: int = 64):
    """Attach ``lookup`` — an int64 ``(v, val)`` dataset, unique per
    ``v``, covering every ``es[key]`` — to ``es`` as column ``out`` via
    ONE key-bucketed co-partition (union tag + per-bucket searchsorted).
    The distributed-side generalization of ``attach_degrees``'s
    bucketed plan; use a ``ray.put`` broadcast instead when the lookup
    fits the budget."""
    cols = list(es.schema().names)

    def tag_e(batch: pa.Table) -> pa.Table:
        t = batch.append_column("__val", pa.array(
            np.zeros(len(batch), dtype=np.int64)))
        return t.append_column("__side", pa.array(
            np.zeros(len(batch), dtype=np.int8)))

    def tag_l(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column("v"), dtype=np.int64)
        cols_d = {c: pa.array(np.zeros(len(v), dtype=np.int64))
                  for c in cols if c != key}
        cols_d[key] = pa.array(v)
        cols_d["__val"] = batch.column("val")
        cols_d["__side"] = pa.array(np.ones(len(v), dtype=np.int8))
        return pa.table(cols_d).select([*cols, "__val", "__side"])

    def join_bucket(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("__side"))
        k = np.asarray(g.column(key), dtype=np.int64)
        lv = k[side == 1]
        lval = np.asarray(g.column("__val"))[side == 1]
        order = np.argsort(lv)
        lv, lval = lv[order], lval[order]
        emask = side == 0
        ek = k[emask]
        pos = np.searchsorted(lv, ek)
        got = lval[pos]  # caller guarantees full coverage
        out_t = g.filter(pa.array(emask)).select(cols)
        return out_t.append_column(out, pa.array(got.astype(np.int64)))

    return exchange(es.map_batches(tag_e, batch_format="pyarrow")
                    .union(lookup.map_batches(tag_l, batch_format="pyarrow")),
                    join_bucket, key, num_buckets)


def frequent_itemsets(ds, group_col: str, item_col: str,
                      min_support: int = 2, num_buckets: int = 64,
                      mode: str = "auto",
                      broadcast_budget_bytes: int = 1 << 30):
    """Frequent item-PAIR mining over a (group, item) basket table —
    the A-priori 2-itemset step with association-rule components, all
    int64-exact so the whole operator is SQL-oracle-checkable:

    output one row per unordered item pair {a < b} co-occurring in
    ``c_ab >= min_support`` distinct groups, with the marginals needed
    for confidence/lift: ``(a, b, c_ab, c_a, c_b, n_groups)`` where
    ``c_i`` counts distinct groups containing item i.  Float
    ``lift = c_ab * n_groups / (c_a * c_b)`` derives downstream.

    Plan: :func:`cooccurrence_edges` (g-bucket exchange, in-bucket
    (g, item) dedupe + vectorized pair gen) → pair-bucketed exact count
    (``bucketed_sum``) → support filter (shrinks the pair table BEFORE
    marginals attach) → item supports from a second g-bucketed pass
    (in-bucket distinct-(g, i) is exact: g partitions by bucket) →
    marginals attached by ``ray.put`` broadcast under
    ``broadcast_budget_bytes`` (16 B/item), else two
    :func:`_attach_value` co-partitions.  ``n_groups`` is an exact
    distinct count of g (per-batch unique partials → one tiny bucketed
    dedupe)."""
    import ray

    from bqf_ray.stages.partition import bucketed_agg, bucketed_sum

    B = int(num_buckets)

    pairs = cooccurrence_edges(ds, group_col, item_col, num_buckets=B)

    def one(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "one", pa.array(np.ones(len(batch), dtype=np.int64)))

    c_ab = bucketed_sum(pairs.map_batches(one, batch_format="pyarrow"),
                        ["a", "b"], {"one": "c_ab"}, num_buckets=B)

    ms = int(min_support)

    def keep(batch: pa.Table) -> pa.Table:
        m = np.asarray(batch.column("c_ab"), dtype=np.int64) >= ms
        return batch.filter(pa.array(m))

    frequent = c_ab.map_batches(keep, batch_format="pyarrow")

    # --- item supports: distinct groups per item ---------------------
    def tag_g(batch: pa.Table) -> pa.Table:
        return pa.table({
            "g": pa.array(np.asarray(batch.column(group_col),
                                     dtype=np.int64)),
            "i": pa.array(np.asarray(batch.column(item_col),
                                     dtype=np.int64))})

    def support_bucket(grp: pa.Table) -> pa.Table:
        g = np.asarray(grp.column("g"), dtype=np.int64)
        i = np.asarray(grp.column("i"), dtype=np.int64)
        if not len(g):
            return pa.table({"v": pa.array([], pa.int64()),
                             "val": pa.array([], pa.int64())})
        pair = np.stack([g, i], axis=1)
        uniq = np.unique(pair, axis=0)
        iv, cnt = np.unique(uniq[:, 1], return_counts=True)
        return pa.table({"v": pa.array(iv),
                         "val": pa.array(cnt.astype(np.int64))})

    # per-g-bucket partials are per-item PARTIAL counts (an item spans
    # many g-buckets) — combine with one tiny item-keyed bucketed sum
    support = bucketed_sum(
        exchange(ds.map_batches(tag_g, batch_format="pyarrow"),
                 support_bucket, "g", B),
        ["v"], {"val": "val"}, num_buckets=B).materialize()

    # --- n_groups: exact distinct count of g -------------------------
    def g_partial(batch: pa.Table) -> pa.Table:
        g = np.unique(np.asarray(batch.column(group_col), dtype=np.int64))
        return pa.table({"g": pa.array(g)})

    n_groups = int(bucketed_agg(
        ds.map_batches(g_partial, batch_format="pyarrow"),
        ["g"], [("g", "count", "c")], num_buckets=B).count())

    if mode == "auto":
        n_sup = support.count()
        mode = ("broadcast"
                if 16 * n_sup <= int(broadcast_budget_bytes)
                else "bucketed")
        plan_log("frequent_itemsets", mode, support_bytes=16 * n_sup,
                 budget_bytes=int(broadcast_budget_bytes))

    if mode == "broadcast":
        blocks = [t for t in ray.get(support.to_arrow_refs())
                  if t.num_rows]
        sv = (np.concatenate([np.asarray(t.column("v"), dtype=np.int64)
                              for t in blocks])
              if blocks else np.empty(0, dtype=np.int64))
        sc = (np.concatenate([np.asarray(t.column("val"), dtype=np.int64)
                              for t in blocks])
              if blocks else np.empty(0, dtype=np.int64))
        order = np.argsort(sv)
        ref = ray.put((sv[order], sc[order]))

        def attach(batch: pa.Table) -> pa.Table:
            vs, cs = ray.get(ref)  # zero-copy plasma reads
            a = np.asarray(batch.column("a"), dtype=np.int64)
            b = np.asarray(batch.column("b"), dtype=np.int64)
            ca = cs[np.searchsorted(vs, a)]
            cb = cs[np.searchsorted(vs, b)]
            t = batch.append_column("c_a", pa.array(ca))
            t = t.append_column("c_b", pa.array(cb))
            return t.append_column("n_groups", pa.array(
                np.full(len(batch), n_groups, dtype=np.int64)))

        return frequent.map_batches(attach, batch_format="pyarrow")

    with_a = _attach_value(frequent, support, "a", "c_a", num_buckets=B)
    with_b = _attach_value(with_a, support, "b", "c_b", num_buckets=B)

    def add_ng(batch: pa.Table) -> pa.Table:
        return batch.append_column("n_groups", pa.array(
            np.full(len(batch), n_groups, dtype=np.int64)))

    return with_b.map_batches(add_ng, batch_format="pyarrow")


def association_rules(ds, group_col: str, item_col: str,
                      min_support: int = 2, min_conf: float = 0.0,
                      num_buckets: int = 64):
    """Directed association rules from the A-priori pair table: each
    frequent unordered pair {a, b} yields both rules a⇒b and b⇒a with

        confidence = c_ab / c_ante          (one IEEE division of exact ints)
        lift       = (c_ab·n_groups) / (c_ante·c_cons)

    computed from :func:`frequent_itemsets`'s exact int64 supports, so
    both floats are single-expression IEEE over exact integers —
    bit-identical to a SQL recompute (no order-dependent float sums).
    The rule expansion and filtering run as a zero-shuffle
    ``map_batches`` over the (already small) frequent-pair table.

    Output ``(antecedent, consequent, c_ab, c_ante, c_cons, n_groups,
    confidence, lift)`` with ``confidence >= min_conf``."""
    pairs = frequent_itemsets(ds, group_col, item_col,
                              min_support=min_support,
                              num_buckets=num_buckets)
    mc = float(min_conf)

    def expand(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        c_ab = np.asarray(batch.column("c_ab"), dtype=np.int64)
        c_a = np.asarray(batch.column("c_a"), dtype=np.int64)
        c_b = np.asarray(batch.column("c_b"), dtype=np.int64)
        n = np.asarray(batch.column("n_groups"), dtype=np.int64)
        ante = np.concatenate([a, b])
        cons = np.concatenate([b, a])
        cab2 = np.concatenate([c_ab, c_ab])
        c_ante = np.concatenate([c_a, c_b])
        c_cons = np.concatenate([c_b, c_a])
        n2 = np.concatenate([n, n])
        conf = cab2.astype(np.float64) / c_ante
        lift = (cab2 * n2).astype(np.float64) / (c_ante * c_cons)
        keep = conf >= mc
        return pa.table({
            "antecedent": pa.array(ante[keep]),
            "consequent": pa.array(cons[keep]),
            "c_ab": pa.array(cab2[keep]),
            "c_ante": pa.array(c_ante[keep]),
            "c_cons": pa.array(c_cons[keep]),
            "n_groups": pa.array(n2[keep]),
            "confidence": pa.array(conf[keep]),
            "lift": pa.array(lift[keep])})

    return pairs.map_batches(expand, batch_format="pyarrow")


def bfs_hops(edges_ds, seeds: np.ndarray, max_hops: int = 8,
             a_col: str = "a", b_col: str = "b",
             pre_canonical: bool = False, mode: str = "auto",
             node_budget: int = 20_000_000, num_shards: int = 16):
    """Multi-source BFS hop distances over an UNDIRECTED edge Dataset:
    ``(node, hop)`` for every vertex reachable from ``seeds`` within
    ``max_hops`` (min-hop semantics, the recursive-CTE shortest
    unweighted path).  The traversal primitive behind influence
    radius, contamination blast-radius, and graph-sampled curation.

    Plan: hop distance is SSSP with unit weights — the canonical edges
    run through :func:`_sssp_run` (``mode``, ``node_budget`` and
    ``num_shards`` as in :func:`sssp`), so every plan returns the same
    ``(node, hop)`` table."""
    edges = (edges_ds if pre_canonical
             else canonical_edges(edges_ds, a_col=a_col, b_col=b_col))
    ca, cb = (a_col, b_col) if pre_canonical else ("a", "b")
    return _sssp_run(
        "bfs_hops", edges, ca, cb,
        lambda batch: np.ones(batch.num_rows, dtype=np.int64), seeds,
        max_hops, mode, node_budget, num_shards
    ).rename_columns(["node", "hop"])


def _segment_pairs_keyed(sort_key: np.ndarray, values: np.ndarray):
    """:func:`_segment_pairs` plus the segment key per pair (the wedge
    CENTER for adjacency segments)."""
    order = np.lexsort((values, sort_key))
    k, v = sort_key[order], values[order]
    starts = np.concatenate([[True], k[1:] != k[:-1]]) \
        if len(k) else np.empty(0, dtype=bool)
    seg_off = np.flatnonzero(starts)
    seg_cnt = np.diff(np.append(seg_off, len(k)))
    xs, ys, ks = [], [], []
    for d in np.unique(seg_cnt):
        if d < 2:
            continue
        offs = seg_off[seg_cnt == d]
        mat = v[(offs[:, None] + np.arange(d)[None, :])]
        iu, ju = np.triu_indices(int(d), 1)
        xs.append(mat[:, iu].ravel())
        ys.append(mat[:, ju].ravel())
        ks.append(np.repeat(k[offs], len(iu)))
    if not xs:
        e = np.empty(0, dtype=values.dtype)
        return e, e.copy(), e.copy()
    return (np.concatenate(xs), np.concatenate(ys),
            np.concatenate(ks))


def edge_triangle_support(edges_ds, a_col: str = "a", b_col: str = "b",
                          num_buckets: int = 64,
                          broadcast_budget_bytes: int = 1 << 30,
                          pre_canonical: bool = False,
                          mode: str = "auto"):
    """Per-EDGE triangle support (how many triangles contain each
    edge) over an undirected edge stream — the cohesion signal k-truss
    peeling, spam-cluster detection, and strong-tie filtering start
    from.  Output: one row per canonical edge ``(a, b, support)``,
    support 0 included.

    Two plans, both exact and bit-identical:

    - ``"broadcast"``: the :func:`triangle_count` broadcast layout
      (degrees + orientation + sorted membership computed once on the
      driver and ``ray.put``) with the closure step emitting PER-EDGE
      partials instead of a scalar: each closed wedge (x, c, y)
      credits edges (c,x), (c,y), (x,y); per-bucket partials pre-sum
      locally, then ONE edge-table-sized ``bucketed_sum`` folds them
      and a final union restores support-0 edges.  Requires the
      canonical edge list to fit ``broadcast_budget_bytes``
      (16 B/edge — 1 GiB ≈ 67M edges).
    - ``"bucketed"``: the fully-distributed tier — no driver collect,
      no broadcast: degrees attach via :func:`attach_degrees`'s
      bucketed co-partition, wedges generate inside source-hash
      buckets CARRYING THEIR CENTER (24 B/wedge vs triangle_count's
      pre-aggregated 16 — the center is what per-edge credit needs),
      close against the edge set in one pair-hash bucketed exchange
      that emits locally pre-summed per-edge credits, and ONE
      ``bucketed_sum`` folds credits + support-0 zeros.  No stage
      holds more than one bucket; scale ``num_buckets`` with the
      graph so a bucket's wedge slice fits a worker.

    ``mode="auto"`` picks broadcast under the budget (fewer
    exchanges), bucketed past it — the former hard ceiling is gone."""
    B = int(num_buckets)
    # materialize the canonical edge list ONCE: count(), the broadcast
    # collection / degree attach, and the support-0 union below would
    # otherwise each re-execute the upstream edge construction (a
    # shuffle)
    edges = (edges_ds if pre_canonical
             else canonical_edges(edges_ds, a_col=a_col,
                                  b_col=b_col)).materialize()
    n_edges = edges.count()
    if mode == "auto":
        mode = ("broadcast"
                if 16 * n_edges <= int(broadcast_budget_bytes)
                else "bucketed")
        plan_log("edge_triangle_support", mode,
                 edge_bytes=16 * n_edges,
                 budget_bytes=int(broadcast_budget_bytes))
    if mode == "bucketed":
        return _edge_support_bucketed(edges, n_edges, B)
    if mode != "broadcast":
        raise ValueError(f"edge_triangle_support: unknown mode {mode!r}")
    return _edge_support_broadcast(edges, n_edges, B)


def _edge_support_bucketed(edges, n_edges: int, B: int):
    """Distributed per-edge support: the :func:`triangle_count`
    bucketed wedge exchange extended to carry wedge CENTERS so closure
    can credit all three member edges.  ``edges`` is canonical and
    materialized; every exchange key is a single int hash bucket."""
    import ray.data

    from bqf_ray.stages.partition import bucketed_sum

    if n_edges == 0:
        z = pa.array([], pa.int64())
        return ray.data.from_arrow(
            pa.table({"a": z, "b": z, "support": z}))
    attached = attach_degrees(edges, num_buckets=B, mode="bucketed")

    def wedges_bucket(g: pa.Table) -> pa.Table:
        u = np.asarray(g.column("u"), dtype=np.int64)
        v = np.asarray(g.column("v"), dtype=np.int64)
        x, y, c = _segment_pairs_keyed(u, v)
        return pa.table({"a": pa.array(np.minimum(x, y)),
                         "b": pa.array(np.maximum(x, y)),
                         "c": pa.array(c),
                         "__side": pa.array(
                             np.zeros(len(x), dtype=np.int8))})

    def tag_edge(batch: pa.Table) -> pa.Table:
        return pa.table({"a": batch.column("a"), "b": batch.column("b"),
                         "c": pa.array(np.zeros(batch.num_rows,
                                                dtype=np.int64)),
                         "__side": pa.array(
                             np.ones(batch.num_rows, dtype=np.int8))})

    def close_bucket(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("__side"))
        a = np.asarray(g.column("a"), dtype=np.int64)
        b = np.asarray(g.column("b"), dtype=np.int64)
        c = np.asarray(g.column("c"), dtype=np.int64)
        ps = _packed_pair_set(a[side == 1], b[side == 1])
        wm = side == 0
        wa, wb, wc = a[wm], b[wm], c[wm]
        hit = _packed_pair_probe(ps, wa, wb)
        if not hit.any():
            z = pa.array([], pa.int64())
            return pa.table({"a": z, "b": z, "s": z})
        cx, cy, cc = wa[hit], wb[hit], wc[hit]
        ea = np.concatenate([np.minimum(cc, cx), np.minimum(cc, cy),
                             np.minimum(cx, cy)])
        eb = np.concatenate([np.maximum(cc, cx), np.maximum(cc, cy),
                             np.maximum(cx, cy)])
        # local pre-sum before the credit exchange
        pairs = np.stack([ea, eb], axis=1)
        upair, cnt = np.unique(pairs, axis=0, return_counts=True)
        return pa.table({"a": pa.array(upair[:, 0]),
                         "b": pa.array(upair[:, 1]),
                         "s": pa.array(cnt.astype(np.int64))})

    wedges = exchange(attached.map_batches(_orient, batch_format="pyarrow"),
                      wedges_bucket, "u", B)
    partials = exchange(
        wedges.union(edges.map_batches(tag_edge, batch_format="pyarrow")),
        close_bucket, ["a", "b"], B)
    zeros = edges.map_batches(
        lambda t: pa.table({"a": t.column("a"), "b": t.column("b"),
                            "s": pa.array(np.zeros(t.num_rows,
                                                   dtype=np.int64))}),
        batch_format="pyarrow")
    return bucketed_sum(partials.union(zeros), ["a", "b"],
                        {"s": "support"}, num_buckets=B)


def _edge_support_broadcast(edges, n_edges: int, B: int):
    """Driver-collected broadcast plan (see
    :func:`edge_triangle_support`); ``edges`` canonical+materialized,
    list bounded by the caller's broadcast budget."""
    import ray
    import ray.data

    from bqf_ray.stages.partition import bucket_of, bucketed_sum

    blocks = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
    a = (np.concatenate([np.asarray(t.column("a"), dtype=np.int64)
                         for t in blocks])
         if blocks else np.empty(0, dtype=np.int64))
    b = (np.concatenate([np.asarray(t.column("b"), dtype=np.int64)
                         for t in blocks])
         if blocks else np.empty(0, dtype=np.int64))
    vu, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    deg = np.bincount(inv).astype(np.int64)
    da, db = deg[inv[:len(a)]], deg[inv[len(a):]]
    a_first = (da < db) | ((da == db) & (a < b))
    u = np.where(a_first, a, b)
    v = np.where(a_first, b, a)
    ubkt = bucket_of(u, num_buckets=B)
    ps = _packed_pair_set(a, b)
    ref = ray.put((u, v, ubkt, ps))

    def bucket_task(batch: pa.Table) -> pa.Table:
        bu, bv, bbkt, bps = ray.get(ref)  # zero-copy plasma reads
        ea, eb = [], []
        for i in np.asarray(batch.column("id"), dtype=np.int64):
            m = bbkt == i
            x, y, c = _segment_pairs_keyed(bu[m], bv[m])
            if not len(x):
                continue
            wa, wb = np.minimum(x, y), np.maximum(x, y)
            hit = _packed_pair_probe(bps, wa, wb)
            if not hit.any():
                continue
            cx, cy, cc = x[hit], y[hit], c[hit]
            # credit all three edges of each closed wedge, canonical
            ea.append(np.concatenate([
                np.minimum(cc, cx), np.minimum(cc, cy),
                np.minimum(cx, cy)]))
            eb.append(np.concatenate([
                np.maximum(cc, cx), np.maximum(cc, cy),
                np.maximum(cx, cy)]))
        if not ea:
            z = pa.array([], pa.int64())
            return pa.table({"a": z, "b": z, "s": z})
        eaa, ebb = np.concatenate(ea), np.concatenate(eb)
        # local pre-sum before the exchange
        pairs = np.stack([eaa, ebb], axis=1)
        upair, cnt = np.unique(pairs, axis=0, return_counts=True)
        return pa.table({"a": pa.array(upair[:, 0]),
                         "b": pa.array(upair[:, 1]),
                         "s": pa.array(cnt.astype(np.int64))})

    partials = (ray.data.range(B, override_num_blocks=B)
                .map_batches(bucket_task, batch_format="pyarrow"))
    zeros = edges.map_batches(
        lambda t: pa.table({"a": t.column("a"), "b": t.column("b"),
                            "s": pa.array(np.zeros(t.num_rows,
                                                   dtype=np.int64))}),
        batch_format="pyarrow")
    return bucketed_sum(partials.union(zeros), ["a", "b"],
                        {"s": "support"}, num_buckets=B)


def clustering_components(edges_ds, a_col: str = "a", b_col: str = "b",
                          num_buckets: int = 64,
                          broadcast_budget_bytes: int = 1 << 30,
                          mode: str = "auto"):
    """Per-NODE local-clustering-coefficient components: ``(node, deg,
    n_tri, n_wedges)`` with ``coefficient = n_tri / n_wedges``
    deriving downstream in float — the node-level cohesion profile
    (spam rings cluster high, crawl hubs low).  Composes
    :func:`edge_triangle_support` (each triangle contributes 2 to the
    sum of supports over a member node's incident edges, so ``n_tri =
    Σ support / 2`` exactly) with one endpoint-exploded
    map-side-combined fold.  Integer-exact throughout."""
    from bqf_ray.stages.partition import bucketed_agg

    sup = edge_triangle_support(
        edges_ds, a_col=a_col, b_col=b_col, num_buckets=num_buckets,
        broadcast_budget_bytes=broadcast_budget_bytes, mode=mode)

    def explode(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        s = np.asarray(batch.column("support"), dtype=np.int64)
        return pa.table({
            "node": pa.array(np.concatenate([a, b])),
            "s": pa.array(np.concatenate([s, s])),
            "one": pa.array(np.ones(2 * len(a), dtype=np.int64))})

    fold = bucketed_agg(sup.map_batches(explode, batch_format="pyarrow"),
                        ["node"],
                        [("one", "sum", "deg"), ("s", "sum", "s2")],
                        num_buckets=num_buckets, combine_local=True)

    def finish(batch: pa.Table) -> pa.Table:
        deg = np.asarray(batch.column("deg"), dtype=np.int64)
        s2 = np.asarray(batch.column("s2"), dtype=np.int64)
        return pa.table({"node": batch.column("node"),
                         "deg": pa.array(deg),
                         "n_tri": pa.array(s2 // 2),
                         "n_wedges": pa.array(deg * (deg - 1) // 2)})

    return fold.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# behavior-path n-grams (length-n event sequences per key)
# ---------------------------------------------------------------------------

def path_ngram_counts(ds, n: int = 3, key_col: str = "user_id",
                      ts_col: str = "ts", id_col: str = "event_id",
                      label_col: str = "event_type",
                      out_cols: list[str] | None = None,
                      num_buckets: int = 32):
    """Length-``n`` behavior paths: counts of every n-long run of
    CONSECUTIVE events per key in ``(ts, id)`` order — the n-gram
    generalization of :func:`transition_counts` (n=2); n=3 is the
    path-trigram table behind "what do users do between A and C".

    Plan is identical to :func:`transition_counts`: key-bucketed
    shuffle (runs never split across buckets), ONE lexsort per bucket,
    window validity = first and last row of the window share the key
    (rows between are equal too — the sort is key-major), per-bucket
    pre-aggregation, then a label-tuple-sized final exchange.
    """
    from bqf_ray.pipelines.windowed import _keyed_rows
    from bqf_ray.stages.partition import bucketed_agg

    N = int(n)
    assert N >= 2, "path n-grams need n >= 2"
    cols = out_cols or [f"step_{j}" for j in range(N)]
    assert len(cols) == N

    def bucket(batch: pa.Table) -> pa.Table:
        return _keyed_rows(key_col, ts_col, id_col)(batch).append_column(
            "l", batch.column(label_col))

    def windows_bucket(group: pa.Table) -> pa.Table:
        empty = pa.table({**{c: pa.array([], pa.string()) for c in cols},
                          "partial": pa.array([], pa.int64())})
        u = np.asarray(group.column("u"), dtype=np.int64)
        if len(u) < N:
            return empty
        t = np.asarray(group.column("t"), dtype=np.int64)
        i = np.asarray(group.column("i"), dtype=np.int64)
        lab = group.column("l")
        if isinstance(lab, pa.ChunkedArray):
            lab = lab.combine_chunks()
        order = np.lexsort((i, t, u))
        us = u[order]
        starts = np.flatnonzero(us[:len(us) - N + 1] == us[N - 1:])
        if not len(starts):
            return empty
        tt = pa.table({
            **{cols[j]: lab.take(pa.array(order[starts + j]))
               for j in range(N)},
            "n": pa.array(np.ones(len(starts), dtype=np.int64))})
        return (tt.group_by(cols).aggregate([("n", "sum")])
                .rename_columns(cols + ["partial"]))

    return bucketed_agg(
        exchange(ds.map_batches(bucket, batch_format="pyarrow"),
                 windows_bucket, "u", num_buckets),
        cols, [("partial", "sum", "n")])


# ---------------------------------------------------------------------------
# k-core decomposition (fixed-round synchronous peel)
# ---------------------------------------------------------------------------

# k-core triple: alive sources message 1 per neighbor, SUM, then the
# commit restricts degrees to alive nodes and peels

def _kcore_message(state, e):
    nn, alive = state
    ok = alive[_found(nn, e["x"])[0]]
    tu, cnt = np.unique(e["y"][ok], return_counts=True)
    return tu, cnt.astype(np.int64)


def _kcore_prep(x):
    nodes = np.unique(x)
    return nodes, {"alive": np.ones(len(nodes), dtype=bool)}


def _kcore_commit(shard, K, peel):
    alive = shard.vec["alive"]
    deg = _scatter(shard, np.zeros(len(shard.nodes), dtype=np.int64))
    deg[~alive] = 0               # restricted to both-alive edges
    shard.vec["deg"] = deg
    if not peel:
        return False, int(alive.sum())
    nxt = alive & (deg >= K)
    shard.vec["alive"] = nxt
    return bool((nxt != alive).any()), int(nxt.sum())


def _kcore_table(shard, min_deg):
    deg = shard.vec["deg"]
    keep = shard.vec["alive"] & (deg >= min_deg)
    return pa.table({"node": pa.array(shard.nodes[keep]),
                     "core_deg": pa.array(deg[keep])})


def kcore(edges_ds, k: int, rounds: int = 6,
          a_col: str = "a", b_col: str = "b", pre_canonical: bool = False,
          mode: str = "auto", node_budget: int = 20_000_000,
          num_shards: int = 16):
    """R-round synchronous k-core peel over an UNDIRECTED edge Dataset:
    each round drops — all at once — every surviving node whose degree
    among survivors is < ``k``; after ``rounds`` rounds, emit
    ``(node, core_deg)`` for the survivors, ``core_deg`` = degree
    within the surviving set.

    Peeling is MONOTONE (the alive set only shrinks, and once it stops
    shrinking every later round is a no-op), so the fixed-round result
    equals the true k-core whenever peeling converges within ``rounds``
    — and fixing R is exactly what makes the operator SQL-replayable:
    the oracle unrolls the same R HAVING rounds as CTEs (the
    ``bpe_merges`` unrolled-CTE pattern).  Convergence is detected and
    rounds stop early with an identical result.

    Plan: canonical edges materialized once, alive/degree vectors in
    the vertex runtime (:class:`_Runtime`): each round is one edge scan
    in which alive sources message 1 per neighbor, a summed fold, and a
    commit that restricts degrees to alive nodes and peels.  ``mode``
    picks P as in :func:`pagerank` (``broadcast`` = one driver-local
    shard, ``sharded`` = ``num_shards`` range-partitioned shard actors,
    ``auto`` = P = 1 up to ``node_budget`` vertices) — identical output
    at every P.
    """
    K = int(k)
    assert K >= 1, "k-core needs k >= 1"
    _check_mode("kcore", mode)
    edges = (edges_ds if pre_canonical
             else canonical_edges(edges_ds, a_col=a_col, b_col=b_col))
    ca, cb = (a_col, b_col) if pre_canonical else ("a", "b")
    rt, ed = _node_runtime("kcore", mode, node_budget, num_shards,
                           edges.materialize(), ca, cb, _kcore_prep)

    def one_pass(peel):
        res = rt.round(ed, ("alive",), _kcore_message, _sum_by,
                       _kcore_commit, apply_args=(K, peel))
        return any(ch for ch, _ in res), sum(na for _, na in res)

    for _ in range(int(rounds)):
        changed, n_alive = one_pass(True)
        if not changed or not n_alive:
            # converged (or nothing left): deg was computed within
            # alive == next alive, so it IS the in-core degree
            return rt.result(_kcore_table, K)
    # not converged within R rounds: one more restricted degree pass
    one_pass(False)
    return rt.result(_kcore_table, 1)


# ---------------------------------------------------------------------------
# label propagation communities (fixed-round synchronous LPA)
# ---------------------------------------------------------------------------

# LPA triple: each edge sends its source's label to the neighbor as
# pre-counted (node, label, count) partials; the fold sums them, picks
# the argmax (max count, ties → smallest label); the commit adopts it

def _lpa_prep(x):
    nodes = np.unique(x)
    return nodes, {"labels": nodes.copy()}


def _lpa_message(state, e):
    nn, lb = state
    key = np.stack([e["y"], lb[_found(nn, e["x"])[0]]], axis=1)
    uk, cnt = np.unique(key, axis=0, return_counts=True)
    return uk[:, 0], uk[:, 1], cnt.astype(np.int64)


def _lpa_pick(v, lab, c):
    uk, inv = np.unique(np.stack([v, lab], axis=1), axis=0,
                        return_inverse=True)
    sums = np.zeros(len(uk), dtype=np.int64)
    np.add.at(sums, inv, c)
    uv, ul = uk[:, 0], uk[:, 1]
    order = np.lexsort((ul, -sums, uv))
    uv, ul = uv[order], ul[order]
    _, first = np.unique(uv, return_index=True)
    return uv[first], ul[first]


def _lpa_commit(shard):
    old = shard.vec["labels"]
    shard.vec["labels"] = _scatter(shard, old.copy())
    return bool((shard.vec["labels"] != old).any())


def label_propagation(edges_ds, rounds: int = 3,
                      a_col: str = "a", b_col: str = "b",
                      pre_canonical: bool = False,
                      mode: str = "auto", node_budget: int = 20_000_000,
                      num_shards: int = 16):
    """Fixed-round SYNCHRONOUS label propagation (Raghavan et al. 2007,
    made deterministic): labels start as node ids; each round EVERY
    node simultaneously adopts the most frequent label among its
    neighbors, ties broken by the smallest label.  Returns
    ``(node, community)`` after exactly ``rounds`` rounds — the fixed
    round count (not convergence, which synchronous LPA does not
    guarantee — bipartite graphs oscillate) is what makes the operator
    bit-deterministic AND SQL-replayable: the oracle unrolls the same
    R rounds as join+QUALIFY CTEs.  If labels reach a fixpoint earlier,
    later rounds are identity and the loop early-stops with the same
    result.

    Plan: canonical edges materialized once, the label vector in the
    vertex runtime (:class:`_Runtime`; ``mode`` picks P as in
    :func:`kcore`): per round ONE edge scan emits pre-counted
    ``(node, neighbor_label, count)`` partials, the fold sums them and
    picks each node's argmax, and the commit adopts the picks —
    identical labels at every P.
    """
    _check_mode("label_propagation", mode)
    edges = (edges_ds if pre_canonical
             else canonical_edges(edges_ds, a_col=a_col, b_col=b_col))
    ca, cb = (a_col, b_col) if pre_canonical else ("a", "b")
    rt, ed = _node_runtime("label_propagation", mode, node_budget,
                           num_shards, edges.materialize(), ca, cb,
                           _lpa_prep)
    for _ in range(int(rounds)):
        if not any(rt.round(ed, ("labels",), _lpa_message, _lpa_pick,
                            _lpa_commit)):
            break                     # fixpoint: identity rounds
    return rt.result(_state_table, {"community": "labels"})


def transition_probs(ds, key_col: str = "user_id", ts_col: str = "ts",
                     id_col: str = "event_id",
                     label_col: str = "event_type",
                     num_buckets: int = 32):
    """Markov transition probabilities: :func:`transition_counts` plus
    ``n_from`` (total outgoing transitions per source label) and
    ``p = n / n_from``.  The counts table is label-pair-sized, so the
    share computation runs on ONE block (``repartition(1)`` is the
    right plan at label cardinality, the ``new_keys_daily`` argument);
    the single int64/int64 IEEE division is bit-exact vs SQL's
    ``n / SUM(n) OVER (PARTITION BY from_type)``."""
    counts = transition_counts(ds, key_col=key_col, ts_col=ts_col,
                               id_col=id_col, label_col=label_col,
                               num_buckets=num_buckets)

    def finish(batch: pa.Table) -> pa.Table:
        frm = batch.column("from_type")
        if isinstance(frm, pa.ChunkedArray):
            frm = frm.combine_chunks()
        n = np.asarray(batch.column("n"), dtype=np.int64)
        codes = frm.dictionary_encode().indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        tot = np.zeros(codes.max() + 1 if len(codes) else 0,
                       dtype=np.int64)
        np.add.at(tot, codes, n)
        n_from = tot[codes]
        return pa.table({"from_type": frm,
                         "to_type": batch.column("to_type"),
                         "n": pa.array(n),
                         "n_from": pa.array(n_from),
                         "p": pa.array(n / n_from)})

    return counts.repartition(1).map_batches(finish,
                                             batch_format="pyarrow",
                                             batch_size=None)


# HITS triple, per half-step: each edge sends the read vector's value at
# its ``frm`` end to its ``to`` end, SUM; the commit reports the max
# for the driver's deterministic integer rescale

def _hits_prep(node, dout, din):
    order = np.argsort(node)
    return node[order], {"hub": np.ones(len(node), dtype=np.int64),
                         "auth": np.zeros(len(node), dtype=np.int64),
                         "deg": np.maximum(dout, din)}


def _hits_message(state, e, frm, to):
    nn, vv = state
    return _sum_by(e[to], vv[_found(nn, e[frm])[0]])


def _hits_commit(shard):
    shard.vec["out"] = _scatter(shard, np.zeros(len(shard.nodes),
                                                dtype=np.int64))
    return int(shard.vec["out"].max(initial=0))


def _hits_scale(shard, q, which):
    shard.vec[which] = shard.vec.pop("out") // np.int64(q)


def hits(edges_ds, src_col: str, dst_col: str, rounds: int = 2,
         scale_bits: int = 20, mode: str = "auto",
         node_budget: int = 20_000_000, num_shards: int = 16,
         output: str = "arrays"):
    """Bit-deterministic HITS hubs/authorities (Kleinberg 1999, JACM
    46(5)) over a directed edge Dataset, fixed-round like
    :func:`label_propagation` / :func:`kcore`.

    The float L2 normalization of textbook HITS is replaced by a
    DETERMINISTIC integer rescale after every half-step:
    ``v ← v // max(1, max(v) >> scale_bits)`` — every quantity stays an
    exact int64 (values cap at ~2^(scale_bits+1), so each Σ over a
    node's edges stays < 2^62 under the loud degree guard), scores stay
    PROPORTIONAL to HITS' up to floor rounding, and each round unrolls
    to a (join → sum → max → div) SQL CTE the oracle replays bit-exactly
    (the pagerank/bpe-merges strategy).  Multi-edges each contribute
    (no implicit dedup — feed :func:`canonical_edges` output if simple-
    graph semantics are wanted).

    Plan: one cached (s, t) edge projection and hub/auth in the vertex
    runtime (:class:`_Runtime`; ``mode`` picks P as in
    :func:`pagerank`); each half-step is one edge scan summing the read
    vector into the other end plus a P-sized max fold for the rescale
    — at P > 1 over edges co-bucketed twice, by source range and by
    destination range (the two half-steps read opposite sides).
    Bit-identical at every P.  Returns ``(nodes, hub, auth)`` int64
    arrays (hub init = 1, so round-1 authority = in-degree), or a
    Dataset with ``output="dataset"``.
    """
    from bqf_ray.stages.partition import bucketed_sum

    _check_mode("hits", mode)

    def edge_cols(batch: pa.Table) -> pa.Table:
        return pa.table({
            "s": pa.array(np.asarray(batch.column(src_col),
                                     dtype=np.int64)),
            "t": pa.array(np.asarray(batch.column(dst_col),
                                     dtype=np.int64))})

    edges = edges_ds.map_batches(edge_cols,
                                 batch_format="pyarrow").materialize()

    def node_partials(batch: pa.Table) -> pa.Table:
        s = np.asarray(batch.column("s"), dtype=np.int64)
        t = np.asarray(batch.column("t"), dtype=np.int64)
        su, sc = np.unique(s, return_counts=True)
        tu, tc = np.unique(t, return_counts=True)
        return pa.table({
            "node": pa.array(np.concatenate([su, tu])),
            "dout": pa.array(np.concatenate(
                [sc.astype(np.int64), np.zeros(len(tu), np.int64)])),
            "din": pa.array(np.concatenate(
                [np.zeros(len(su), np.int64), tc.astype(np.int64)]))})

    nd_ds = bucketed_sum(edges.map_batches(node_partials,
                                           batch_format="pyarrow"),
                         ["node"], {"dout": "dout", "din": "din"}
                         ).materialize()
    rt, n = _table_runtime("hits", nd_ds, mode, node_budget, num_shards)
    rt.init(nd_ds, ("node", "dout", "din"), _hits_prep)
    deg_max = max(*rt.each(_pop_max, "deg"), 1)
    if n and deg_max >= (1 << (62 - scale_bits - 1)):
        raise ValueError(
            f"hits: max degree {deg_max} ≥ 2^{62 - scale_bits - 1} "
            "breaks the int64 half-step sum envelope — lower "
            "scale_bits or pre-aggregate parallel edges")
    by_s = rt.cobucket(edges, "s")         # auth←hub reads hub(s)
    by_t = rt.cobucket(edges, "t")         # hub←auth reads auth(t)

    def half(edges_b, frm, to, read, write):
        gmax = max(rt.round(edges_b, (read,), _hits_message, _sum_by,
                            _hits_commit, (frm, to)))
        rt.each(_hits_scale, max(1, gmax >> scale_bits), write)

    for _ in range(int(rounds)):
        half(by_s, "s", "t", "hub", "auth")
        half(by_t, "t", "s", "auth", "hub")

    if output == "dataset":
        return rt.result(_state_table, {"hub": "hub", "auth": "auth"},
                         dataset=True)
    tbl = rt.result(_state_table, {"hub": "hub", "auth": "auth"})
    return (np.asarray(tbl.column("node"), dtype=np.int64),
            np.asarray(tbl.column("hub"), dtype=np.int64),
            np.asarray(tbl.column("auth"), dtype=np.int64))


def link_prediction(edges_ds, a_col: str = "a", b_col: str = "b",
                    min_cn: int = 2, num_buckets: int = 64,
                    max_degree: int | None = None,
                    mode: str = "auto",
                    broadcast_budget_bytes: int = 1 << 30):
    """Common-neighbor link prediction over an undirected graph: for
    every NON-edge pair ``(a, b)`` with at least ``min_cn`` shared
    neighbors, emit exact ``(a, b, cn, deg_a, deg_b, jaccard)`` where
    ``jaccard = cn / (deg_a + deg_b - cn)`` is the neighborhood-Jaccard
    score in ONE IEEE division (bit-matches the SQL replay).

    Plan (all exchanges 1-int hash buckets, no global sort):

    1. canonicalize edges once (materialized — consumed three times:
       wedges, anti-join tags, degrees);
    2. wedge pairs per CENTER vertex (center-hash bucketed, the
       vectorized :func:`_segment_pairs`), locally pre-summed to
       ``(pair, cn)`` partials before leaving the bucket task;
    3. ONE pair-hash exchange folds exact ``cn`` AND removes existing
       edges in the same bucket (edges ride the union tagged — the
       anti-join costs no extra shuffle);
    4. degrees attach via :func:`attach_degrees`'s budget-gated
       broadcast / bucketed plans.

    ``max_degree`` (optional) skips wedge generation at hub centers
    with more neighbors — the standard hub cutoff that bounds the
    deg² wedge blowup; ``cn`` then UNDERCOUNTS pairs whose only shared
    neighbors are hubs (documented estimator bias; leave ``None`` for
    the exact/oracle path).  Candidate volume is bounded by
    Σ_c deg(c)² over kept centers; size ``min_cn`` to the graph.

    Reference scope: the reference engine has no graph surface — this
    is part of the training-data/graph suite (SURVEY.md §2 additions).
    """
    B = int(num_buckets)
    if min_cn < 1:
        raise ValueError("min_cn must be >= 1")
    edges = canonical_edges(edges_ds, a_col, b_col, num_buckets=B)

    def wedges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a"), dtype=np.int64)
        b = np.asarray(batch.column("b"), dtype=np.int64)
        return pa.table({"c": pa.array(np.concatenate([a, b])),
                         "n": pa.array(np.concatenate([b, a]))})

    def gen_pairs(grp: pa.Table) -> pa.Table:
        c = np.asarray(grp.column("c"), dtype=np.int64)
        n = np.asarray(grp.column("n"), dtype=np.int64)
        if max_degree is not None:
            # drop whole hub centers (not a truncated sample of their
            # neighbors — truncation would make cn partition-dependent)
            order = np.lexsort((n, c))
            c, n = c[order], n[order]
            starts = np.concatenate([[True], c[1:] != c[:-1]]) \
                if len(c) else np.empty(0, dtype=bool)
            seg = np.cumsum(starts) - 1
            sizes = np.bincount(seg) if len(c) else np.empty(0, np.int64)
            keep = sizes[seg] <= int(max_degree)
            c, n = c[keep], n[keep]
        x, y = _segment_pairs(c, n)
        wa, wb = np.minimum(x, y), np.maximum(x, y)
        # local pre-sum: (pair, count) partials leave the task, not
        # raw wedges
        order = np.lexsort((wb, wa))
        wa, wb = wa[order], wb[order]
        new = np.concatenate([[True], (wa[1:] != wa[:-1])
                              | (wb[1:] != wb[:-1])]) \
            if len(wa) else np.empty(0, dtype=bool)
        idx = np.flatnonzero(new)
        cnt = np.diff(np.append(idx, len(wa))).astype(np.int64)
        wa, wb = wa[idx], wb[idx]
        return pa.table({
            "a": pa.array(wa), "b": pa.array(wb), "cn": pa.array(cnt),
            "__side": pa.array(np.zeros(len(wa), dtype=np.int8))})

    def tag_edges(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a"), dtype=np.int64)
        return pa.table({
            "a": pa.array(a), "b": batch.column("b"),
            "cn": pa.array(np.zeros(len(a), dtype=np.int64)),
            "__side": pa.array(np.ones(len(a), dtype=np.int8))})

    thresh = np.int64(min_cn)

    def fold_bucket(g: pa.Table) -> pa.Table:
        side = np.asarray(g.column("__side"))
        a = np.asarray(g.column("a"), dtype=np.int64)
        b = np.asarray(g.column("b"), dtype=np.int64)
        cn = np.asarray(g.column("cn"), dtype=np.int64)
        em = side == 1
        ea, eb = a[em], b[em]
        pm = ~em
        a, b, cn = a[pm], b[pm], cn[pm]
        if not len(a):
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "cn": pa.array([], pa.int64())})
        order = np.lexsort((b, a))
        a, b, cn = a[order], b[order], cn[order]
        new = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        seg = np.cumsum(new) - 1
        tot = np.zeros(int(seg[-1]) + 1, dtype=np.int64)
        np.add.at(tot, seg, cn)
        ua, ub = a[new], b[new]
        keep = tot >= thresh
        if len(ea):
            keep &= ~_packed_pair_probe(_packed_pair_set(ea, eb),
                                        ua, ub)
        return pa.table({"a": pa.array(ua[keep]), "b": pa.array(ub[keep]),
                         "cn": pa.array(tot[keep])})

    cand = exchange(edges.map_batches(wedges, batch_format="pyarrow"),
                    gen_pairs, "c", B)
    pairs = exchange(
        cand.union(edges.map_batches(tag_edges, batch_format="pyarrow")),
        fold_bucket, ["a", "b"], B)

    scored = attach_degrees(pairs, num_buckets=B, mode=mode,
                            broadcast_budget_bytes=broadcast_budget_bytes,
                            deg_edges=edges)

    def score(batch: pa.Table) -> pa.Table:
        cn = np.asarray(batch.column("cn"), dtype=np.int64)
        da = np.asarray(batch.column("deg_a"), dtype=np.int64)
        db = np.asarray(batch.column("deg_b"), dtype=np.int64)
        jac = cn.astype(np.float64) / (da + db - cn).astype(np.float64)
        return batch.append_column("jaccard", pa.array(jac))

    out = scored.map_batches(score, batch_format="pyarrow")
    # schema floor: with zero candidate pairs no task ever runs and the
    # result would surface schema-less (fuzz finding) — union a typed
    # empty block so downstream always sees the contract columns
    import ray
    z = pa.array([], pa.int64())
    floor = pa.table({"a": z, "b": z, "cn": z, "deg_a": z, "deg_b": z,
                      "jaccard": pa.array([], pa.float64())})
    return out.union(ray.data.from_arrow(floor))


# SSSP/BFS triple: the frontier (nodes the last round improved) relaxes
# its edges, MIN-fold; the commit grows the shard's node set, marks the
# next frontier and reports whether it is non-empty.  Other sources
# already relaxed with the same dist, so this equals a full relaxation.

def _sssp_message(state, e, both):
    nn, dd, fr = state
    fn, fd, ys, ds = nn[fr], dd[fr], [], []
    for s, t in (("x", "y"), ("y", "x"))[:1 + both]:   # both: undirected
        ix, hit = _found(fn, e[s])
        ys.append(e[t][hit])
        ds.append(fd[ix[hit]] + e["w"][hit])
    y, d = _min_by(np.concatenate(ys), np.concatenate(ds))
    ix, hit = _found(nn, y)        # a node already at ≤ d cannot improve
    keep = ~hit | (d < dd[np.minimum(ix, len(dd) - 1)])
    return y[keep], d[keep]


def _sssp_merge(shard):
    (cn, cd), shard.staged = (shard.staged
                              or (np.empty(0, dtype=np.int64),) * 2), None
    nodes, dist = shard.nodes, shard.vec["dist"]
    pos, hit = _found(nodes, cn)
    if not hit.all():               # new nodes enter at +inf, in order
        fresh, first = np.unique(cn[~hit], return_index=True)
        at = pos[~hit][first]
        nodes = np.insert(nodes, at, fresh)
        dist = np.insert(dist, at, np.iinfo(np.int64).max)
        pos = pos + _found(fresh, cn)[0]          # shift past inserts
    elif not dist.flags.writeable:  # zero-copy from the object store
        dist = dist.copy()
    old = dist[pos]
    np.minimum.at(dist, pos, cd)
    front = np.zeros(len(dist), dtype=bool)
    front[pos] = dist[pos] < old
    shard.nodes, shard.vec["dist"], shard.vec["front"] = nodes, dist, front
    return bool(front.any())


def _sssp_run(op: str, edges, ca: str, cb: str, weight, seeds, rounds,
              mode: str, node_budget, num_shards):
    """The one round loop of :func:`sssp` and :func:`bfs_hops`:
    ``(node, dist)`` after ≤ ``rounds`` min-folded relaxations from
    ``seeds`` at distance 0, each round one scan of the doubled
    ``edges`` (``w = weight(batch)``) relaxing from the frontier only.
    P = 1 holds the dist vector on the driver and (``auto``) hands the
    remaining rounds to ``num_shards`` shard actors once it holds more
    than ``node_budget`` nodes; ``sharded`` starts there."""
    _check_mode(op, mode)
    B = int(node_budget)
    why = dict(node_budget=B, forced=int(mode != "auto"))
    nodes = np.unique(np.asarray(seeds, dtype=np.int64))
    P = _shard_count(mode, len(nodes), B, num_shards) if len(nodes) else 1
    if P == 1:
        edges = edges.materialize()      # every round re-scans it
    rt, ed = _edge_runtime(op, P, B, edges, ca, cb, weight, False)
    rt.seed(nodes, dist=np.zeros(len(nodes), dtype=np.int64),
            front=np.ones(len(nodes), dtype=bool))
    if not rt.local:
        rt.log(n_nodes=len(nodes), **why)
    for _ in range(int(rounds) if len(nodes) else 0):
        if rt.local and _shard_count(mode, len(rt.shards[0].nodes), B,
                                     num_shards) > 1:
            # outgrew the driver: shard actors run the remaining rounds
            nodes, dist, front = rt.shards[0].get_state(("dist", "front"))
            rt, ed = _edge_runtime(op, int(num_shards), B, edges, ca, cb,
                                   weight)
            rt.seed(nodes, dist=dist, front=front)
            rt.log(n_nodes=len(nodes), **why)
        if not any(rt.round(ed, ("dist", "front"), _sssp_message, _min_by,
                            _sssp_merge, (rt.local,))):
            break                            # converged = true SSSP
    if rt.local:
        rt.log(n_nodes=len(rt.shards[0].nodes), **why)
    return rt.result(_state_table, {"dist": "dist"})


def _sssp_weights(batch: pa.Table, w_col: str) -> np.ndarray:
    if batch.column(w_col).null_count:
        raise ValueError("sssp: null weight")
    w = np.asarray(batch.column(w_col), dtype=np.int64)
    if len(w) and w.min() <= 0:
        raise ValueError("sssp: weights must be positive "
                         "(zero/negative edges void the "
                         "fixed-round contract)")
    return w


def sssp(edges_ds, seeds: "np.ndarray", rounds: int = 4,
         a_col: str = "a", b_col: str = "b", w_col: str = "w",
         mode: str = "auto", node_budget: int = 20_000_000,
         num_shards: int = 16):
    """Fixed-round Bellman-Ford single-source (multi-seed) shortest
    paths over an UNDIRECTED weighted edge Dataset: after R rounds,
    ``(node, dist)`` holds the exact min-cost path using ≤ R edges
    from the seed set — the bounded-recursion SSSP a SQL unrolled-CTE
    replay computes, and (early-stop detected) the true Dijkstra
    distances once no round improves anything.  Weights must be
    POSITIVE int64 (loud raise on null/≤0 — zero/negative cycles void
    the fixed-round equality).

    Plan (:func:`_sssp_run`): the ``(nodes, dist)`` vector lives in
    the vertex runtime (:class:`_Runtime`); each round is ONE scan of
    the doubled edges in which the frontier (the nodes the last round
    improved) emits per-batch MIN-folded candidate relaxations, and a
    min-fold commit that grows the vector as the frontier reaches new
    nodes.  ``broadcast`` and ``auto`` start at
    P = 1 (the vector on the driver, edges materialized once); past
    ``node_budget`` settled nodes ``auto`` hands the remaining rounds
    to ``num_shards`` range-partitioned shard actors (``sharded``
    starts there), edges doubled and co-bucketed by source range once
    — driver state O(P).  Min-folds are order-independent, so every
    plan returns the same table (asserted in tests)."""
    return _sssp_run("sssp", edges_ds, a_col, b_col,
                     lambda batch: _sssp_weights(batch, w_col), seeds,
                     rounds, mode, node_budget, num_shards)


def ktruss(edges_ds, k: int, rounds: int = 3,
           a_col: str = "a", b_col: str = "b", num_buckets: int = 64,
           broadcast_budget_bytes: int = 1 << 30, mode: str = "auto"):
    """Fixed-round k-truss peel: each round recomputes per-edge
    triangle support over the SURVIVING edges
    (:func:`edge_triangle_support`) and drops edges with support
    < k − 2.  The peel is monotone, so the fixed-round result is a
    superset of the true k-truss that EQUALS it once converged —
    detected and early-stopped when a round drops nothing (the
    :func:`kcore` contract, lifted from vertices to edges).  Returns
    the surviving canonical ``(a, b)`` edge Dataset.

    Per round: one broadcast wedge-closure pass + one edge-table fold
    (the edge_triangle_support plan and its ``broadcast_budget_bytes``
    envelope) + a stateless filter; the edge set only shrinks."""
    import pyarrow.compute as pc

    K = int(k)
    if K < 2:
        raise ValueError("ktruss: k must be >= 2")
    thr = K - 2
    # materialized once: every round's support pass + the count would
    # otherwise re-execute the upstream edge construction per use
    cur = canonical_edges(edges_ds, a_col=a_col,
                          b_col=b_col).materialize()
    n_cur = cur.count()

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("support"),
                             pa.scalar(thr))).select(["a", "b"])

    for _ in range(int(rounds)):
        if n_cur == 0:
            break
        # cur is already canonical (the peel filter preserves canonical
        # form) — skip the two dedup sorts per round
        sup = edge_triangle_support(
            cur, num_buckets=num_buckets,
            broadcast_budget_bytes=broadcast_budget_bytes,
            pre_canonical=True, mode=mode)
        cur = sup.map_batches(keep, batch_format="pyarrow") \
            .materialize()
        n_new = cur.count()
        if n_new == n_cur:
            break                            # converged = true k-truss
        n_cur = n_new
    return cur


def _csr(src, dst):
    """``(sorted nodes, indptr, neighbors sorted within each node)``."""
    order = np.lexsort((dst, src))
    src, nbrs = src[order], dst[order]
    nodes = np.unique(src)
    indptr = np.searchsorted(
        src, np.append(nodes, np.iinfo(np.int64).max)).astype(np.int64)
    return nodes, indptr, nbrs


def _csr_prep(x, y):
    nodes, indptr, nbrs = _csr(x, y)
    return nodes, {"indptr": indptr, "nbrs": nbrs}


def _walk_step(csr, w, cur, k, salt, hash_fn):
    """Step ``k`` of walks ``w`` at nodes ``cur``: ``(ok, next)`` where
    ``ok`` marks walks at a node with neighbors and ``next`` is their
    sorted neighbor ``H(walk_id|k|v|salt) % deg(v)``."""
    nd, ip, nb = csr
    pos, ok = _found(nd, cur)
    deg = np.where(ok, ip[np.minimum(pos + 1, len(ip) - 1)]
                   - ip[np.minimum(pos, len(ip) - 1)], 0)
    ok &= deg > 0
    if not ok.any():
        return ok, cur[:0]
    keys = np.array([f"{a}|{k}|{b}|{salt}" for a, b in
                     zip(w[ok], cur[ok])], dtype=object)
    h = hash_fn(pa.array(keys, pa.string()))
    idx = h % deg[ok].astype(np.uint64)
    return ok, nb[ip[pos[ok]] + idx.astype(np.int64)]


def _random_walks_sharded(edges, seeds, L, W, salt, hash_fn, num_shards,
                          why):
    """Sharded walk tier (past the CSR broadcast budget): the complete
    sorted neighbor list of every node lives in its range's shard actor
    (edges arrive doubled and grouped by source range), and the walk
    frontier is routed to its current node's shard each step — L
    frontier-sized exchanges instead of an edge-sized broadcast; the
    step rule is the same :func:`_walk_step` over the same sorted
    neighbor order, so the corpus is bit-identical to the broadcast
    plan.  Shards are actors even at ``num_shards=1``: the step tasks
    read them from workers."""
    import uuid

    import ray

    P = max(1, int(num_shards))
    ed = _both_dirs(edges, "a", "b").materialize()
    actors, route = _make_shards(P), _shard_route(ed, "x", P)
    plan_log("random_walks", "sharded", P=P, **why)
    _shard_init(actors, _with_part(ed, route, "x"), ("x", "y"), _csr_prep)
    token = f"random_walks-{uuid.uuid4().hex}"

    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    wid = (seeds[:, None] * W
           + np.arange(W, dtype=np.int64)[None, :]).ravel()
    step0 = pa.table({
        "walk_id": pa.array(wid),
        "seed": pa.array(np.repeat(seeds, W)),
        "step": pa.array(np.zeros(len(wid), dtype=np.int64)),
        "node": pa.array(np.repeat(seeds, W))})
    outs = [ray.data.from_arrow(step0)]
    frontier = outs[0]

    for k in range(1, L + 1):
        def step(group: pa.Table, k=k) -> pa.Table:
            p = int(group.column(_PART)[0].as_py())
            w = np.asarray(group.column("walk_id"), dtype=np.int64)
            sd = np.asarray(group.column("seed"), dtype=np.int64)
            ok, nxt = _walk_step(
                _cached_state(actors, token, p, ("indptr", "nbrs")), w,
                np.asarray(group.column("node"), dtype=np.int64), k,
                salt, hash_fn)
            return pa.table({
                "walk_id": pa.array(w[ok]),
                "seed": pa.array(sd[ok]),
                "step": pa.array(np.full(len(nxt), k, dtype=np.int64)),
                "node": pa.array(nxt)})

        frontier = (_with_part(frontier, route, "node").groupby(_PART)
                    .map_groups(step, batch_format="pyarrow")
                    .materialize())
        if frontier.count() == 0:
            break
        outs.append(frontier)
    return outs[0].union(*outs[1:]) if len(outs) > 1 else outs[0]


def random_walks(edges_ds, seeds: "np.ndarray", walk_len: int = 5,
                 walks_per_seed: int = 4, salt: str = "w",
                 algo: str = "md5", a_col: str = "a", b_col: str = "b",
                 broadcast_budget_bytes: int = 1 << 30,
                 mode: str = "auto", num_shards: int = 16):
    """Deterministic node2vec-style random-walk corpus over an
    UNDIRECTED graph: ``walks_per_seed`` walks of ``walk_len`` steps
    from every seed, where step ``k`` at node ``v`` moves to sorted
    neighbor ``H(walk_id|k|v|salt) % deg(v)`` — hash-chosen, so the
    corpus is BIT-DETERMINISTIC under any partitioning and (with
    ``algo="md5"``) replayable in ANSI SQL via the
    ``('0x' || substr(md5(s), 1, 16))::UBIGINT`` identity the sampling
    family uses.  ``algo="xx64"`` swaps in the vectorized xxhash64 for
    the scale path (same structure, not SQL-replayable).  Walks that
    reach a degree-0 / absent node stop early; every walk emits its
    step-0 seed row.  ``walk_id = seed · walks_per_seed + j``.

    Plan: walks are embarrassingly parallel GIVEN the adjacency — the
    canonical edge list folds into a CSR (sorted nodes, indptr, sorted
    neighbors) under ``broadcast_budget_bytes`` (16 B/edge; past it the
    ``auto`` plan routes to :func:`_random_walks_sharded` — adjacency
    in range-partitioned shard actors, one frontier-sized exchange per
    step, bit-identical corpus), ships ONCE
    via ``ray.put``, and ONE ``map_batches`` pass advances each walk
    partition all ``walk_len`` steps locally (a numpy loop over steps,
    vectorized across walks).  No per-step exchange at all.  Output
    ``(walk_id, seed, step, node)``."""
    import ray

    from bqf_ray.functions.hashing import (md5_hash64_array,
                                           xxhash64_array)

    L, W = int(walk_len), int(walks_per_seed)
    if L < 1 or W < 1:
        raise ValueError("walk_len and walks_per_seed must be >= 1")
    _check_mode("random_walks", mode)
    hash_fn = {"md5": md5_hash64_array, "xx64": xxhash64_array}[algo]
    edges = canonical_edges(edges_ds, a_col=a_col, b_col=b_col)
    if mode == "sharded":
        return _random_walks_sharded(
            edges, seeds, L, W, salt, hash_fn, num_shards,
            dict(budget_bytes=int(broadcast_budget_bytes), forced=1))

    # fold adjacency to a CSR under the broadcast budget
    n_edges = edges.count()
    if 16 * n_edges > broadcast_budget_bytes:
        if mode == "auto":
            return _random_walks_sharded(
                edges, seeds, L, W, salt, hash_fn, num_shards,
                dict(edge_bytes=16 * n_edges,
                     budget_bytes=int(broadcast_budget_bytes), forced=0))
        raise ValueError(
            f"random_walks: {n_edges} edges × 16 B exceed the "
            f"{broadcast_budget_bytes} B broadcast budget — use "
            "mode='sharded' (per-step co-partitioned frontier "
            "exchange) for the larger tier")
    parts = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
    ea = np.concatenate([np.asarray(t.column("a"), dtype=np.int64)
                         for t in parts] or [np.empty(0, dtype=np.int64)])
    eb = np.concatenate([np.asarray(t.column("b"), dtype=np.int64)
                         for t in parts] or [np.empty(0, dtype=np.int64)])
    ref = ray.put(_csr(np.concatenate([ea, eb]), np.concatenate([eb, ea])))

    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if not len(seeds):
        # typed empty: a map over an empty dataset never executes its
        # UDF, so the output schema would be lost downstream
        z = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table({
            "walk_id": z, "seed": z, "step": z, "node": z}))
    wid = (seeds[:, None] * W
           + np.arange(W, dtype=np.int64)[None, :]).ravel()
    walks = ray.data.from_arrow(pa.table({
        "walk_id": pa.array(wid),
        "seed": pa.array(np.repeat(seeds, W))}))

    def advance(batch: pa.Table) -> pa.Table:
        csr = ray.get(ref)
        w = np.asarray(batch.column("walk_id"), dtype=np.int64)
        sd = np.asarray(batch.column("seed"), dtype=np.int64)
        out_w, out_s, out_k, out_n = [w], [sd], \
            [np.zeros(len(w), dtype=np.int64)], [sd]
        cur = sd
        for k in range(1, L + 1):
            ok, cur = _walk_step(csr, w, cur, k, salt, hash_fn)
            if not ok.any():
                break
            w, sd = w[ok], sd[ok]
            out_w.append(w)
            out_s.append(sd)
            out_k.append(np.full(len(w), k, dtype=np.int64))
            out_n.append(cur)
        return pa.table({"walk_id": pa.array(np.concatenate(out_w)),
                         "seed": pa.array(np.concatenate(out_s)),
                         "step": pa.array(np.concatenate(out_k)),
                         "node": pa.array(np.concatenate(out_n))})

    return walks.map_batches(advance, batch_format="pyarrow")


def clustering_coefficients(edges_ds, a_col: str = "a", b_col: str = "b",
                            num_buckets: int = 64,
                            broadcast_budget_bytes: int = 1 << 30,
                            mode: str = "auto"):
    """Per-node local clustering coefficient — Watts–Strogatz
    ``c(v) = 2·t(v) / (d(v)·(d(v)−1))`` with ``t(v)`` the triangles
    through v, computed WITHOUT per-node neighbor sets: per-edge
    triangle support already satisfies ``Σ_{(v,u)} support = 2·t(v)``,
    so one endpoint-explode of :func:`edge_triangle_support`'s output
    carrying ``(support, 1)`` partials and ONE node-bucketed sum give
    both ``2t(v)`` and ``d(v)`` in the same exchange.  The coefficient
    is a single IEEE division of exact int64s — SQL-replayable.
    Nodes with ``d < 2`` have no defined coefficient and are dropped
    (mirror ``WHERE degree >= 2``).  Output ``(node, degree,
    sum_support, clustering)``."""
    from bqf_ray.stages.partition import bucketed_sum

    sup = edge_triangle_support(
        edges_ds, a_col=a_col, b_col=b_col, num_buckets=num_buckets,
        broadcast_budget_bytes=broadcast_budget_bytes, mode=mode)

    def explode(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column(a_col), dtype=np.int64)
        b = np.asarray(batch.column(b_col), dtype=np.int64)
        s = np.asarray(batch.column("support"), dtype=np.int64)
        return pa.table({
            "node": pa.array(np.concatenate([a, b])),
            "ps": pa.array(np.concatenate([s, s])),
            "pd": pa.array(np.ones(2 * len(a), dtype=np.int64))})

    sums = bucketed_sum(sup.map_batches(explode, batch_format="pyarrow"),
                        ["node"], {"ps": "sum_support", "pd": "degree"},
                        num_buckets=num_buckets)

    def finish(batch: pa.Table) -> pa.Table:
        d = np.asarray(batch.column("degree"), dtype=np.int64)
        ss = np.asarray(batch.column("sum_support"), dtype=np.int64)
        keep = d >= 2
        d, ss = d[keep], ss[keep]
        return pa.table({
            "node": pa.array(np.asarray(batch.column("node"),
                                        dtype=np.int64)[keep]),
            "degree": pa.array(d),
            "sum_support": pa.array(ss),
            "clustering": pa.array(ss.astype(np.float64) / (d * (d - 1)))})

    return sums.map_batches(finish, batch_format="pyarrow")
