"""Distributed k-means (Lloyd) over an embedding column — full-corpus,
bit-deterministic, no row materialization.

Every iteration is ONE ``map_batches`` pass emitting per-(batch, cluster)
partials: member count, an INTEGER-QUANTIZED coordinate sum
(``round(x · 2^s)`` per element) and an integer inertia.  Integer sums
are order-independent, so the reduced centroids — and therefore every
assignment, every iteration, and the final result — are bit-identical
regardless of batch boundaries, partitioning, or execution order.  This
is the same integer-units determinism trick the engine's float
aggregates use (``__ray_entry__`` module docstring), applied to an
iterative algorithm.  The driver-side reduce touches only ``k × dim``
integers per iteration (Python ints, so inertia never overflows).

Assignment rule shared by fit and assign: ``argmin_c ||x − c||²`` in
float64 with ties to the lowest cluster index; empty clusters keep
their previous centroid.  Init takes the first ``k`` distinct-looking
rows of a deterministic ``limit(sample)`` prefix via a seeded choice
(the :func:`bqf_ray.pipelines.knn.train_ivf_centroids` convention).

At 100 TB each iteration streams the input again (no cache); pass an
already-materialized Dataset (or a column-pruned parquet read — only
the embedding column rides) to trade object-store memory for re-reads.

The reference has no clustering (SURVEY.md §2.4); engine-defined
addition in the embedding family; k-means itself per Lloyd (1982).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.pipelines.knn import _to_matrix


def _quantize(x: np.ndarray, scale: int) -> np.ndarray:
    """Quantize and enforce the exactness envelope: every term of the
    matmul expansion must stay an exact float64 integer, which needs
    ``dim * (2 * max|q|)^2 < 2^53`` — a DIM-DEPENDENT bound (at dim=32
    this is the old 2^23 cap; at dim=128 it is 2^22)."""
    q = np.rint(x * scale).astype(np.int64)
    if q.size:
        dim = q.shape[-1] if q.ndim > 1 else 1
        m = int(np.abs(q).max())
        if dim * (2 * m) ** 2 >= (1 << 53):
            raise ValueError(
                f"quantized coordinates (max |q|={m}, dim={dim}) exceed "
                "the float64 exactness envelope dim*(2*max|q|)^2 < 2^53 "
                "— lower scale_bits or normalize the embeddings")
    return q


def _assign_to(xq: np.ndarray, cents_q: np.ndarray) -> np.ndarray:
    """argmin_c ||xq − cq||² over int64-quantized points/centroids,
    computed exactly (ties → lowest index).  Uses the matmul expansion
    ``|x|² − 2x·c + |c|²`` in float64: the ``_quantize`` envelope
    (dim·(2·max|q|)² < 2^53) keeps every dot product, norm, and the
    3-term sum an exactly-representable float64 integer."""
    xf = xq.astype(np.float64)
    cf = cents_q.astype(np.float64)
    d2 = ((xf * xf).sum(axis=1)[:, None]
          - 2.0 * (xf @ cf.T)
          + (cf * cf).sum(axis=1)[None, :])
    return np.argmin(d2, axis=1).astype(np.int64)


def kmeans_fit(ds, k: int = 8, iters: int = 5, vec_col: str = "embedding",
               scale_bits: int = 20, sample: int = 4096, seed: int = 13):
    """Fit k-means; returns ``(centroids_q int64 (k, d), info)`` where
    ``info`` carries per-iteration ``inertia`` (exact Python ints in
    quantized units) and final ``sizes``.  Centroids stay in quantized
    integer space end-to-end — divide by ``2^scale_bits`` for floats."""
    scale = 1 << int(scale_bits)

    tbl = ds.limit(sample).take_batch(sample, batch_format="pyarrow")
    x0 = _to_matrix(tbl.column(vec_col))
    if len(x0) == 0:
        raise ValueError("kmeans_fit: empty input")
    rng = np.random.RandomState(seed)
    pick = rng.choice(len(x0), min(k, len(x0)), replace=False)
    cents_q = _quantize(x0[pick], scale)
    k_eff = len(cents_q)
    dim = cents_q.shape[1]

    inertia_hist: list[int] = []
    sizes = np.zeros(k_eff, dtype=np.int64)
    for _ in range(int(iters)):
        cq = cents_q            # rebind for closure capture per iteration

        def partials(batch: pa.Table) -> pa.Table:
            xq = _quantize(_to_matrix(batch.column(vec_col)), scale)
            if len(xq) == 0:
                return pa.table({
                    "cluster": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum": pa.array([], pa.list_(pa.int64(), dim)),
                    "inertia": pa.array([], pa.int64())})
            a = _assign_to(xq, cq)
            diff = xq - cq[a]
            per_row_in = (diff.astype(np.float64) ** 2).sum(axis=1)
            u = np.unique(a)
            sums = np.zeros((len(u), dim), dtype=np.int64)
            iner = np.zeros(len(u), dtype=np.int64)
            n = np.zeros(len(u), dtype=np.int64)
            inv = np.searchsorted(u, a)
            np.add.at(sums, inv, xq)
            np.add.at(iner, inv, per_row_in.astype(np.int64))
            np.add.at(n, inv, 1)
            return pa.table({
                "cluster": pa.array(u),
                "n": pa.array(n),
                "sum": pa.FixedSizeListArray.from_arrays(
                    pa.array(sums.reshape(-1)), dim),
                "inertia": pa.array(iner)})

        part = (ds.select_columns([vec_col])
                .map_batches(partials, batch_format="pyarrow")
                .take_all())
        tot_n = np.zeros(k_eff, dtype=np.int64)
        tot_sum = np.zeros((k_eff, dim), dtype=object)   # python ints
        tot_in = 0
        for row in part:
            c = int(row["cluster"])
            tot_n[c] += int(row["n"])
            tot_sum[c] += np.asarray(row["sum"], dtype=np.int64)
            tot_in += int(row["inertia"])
        inertia_hist.append(tot_in)
        sizes = tot_n
        new_q = cents_q.copy()
        for c in range(k_eff):
            if tot_n[c] > 0:
                # exact integer mean in quantized units (round half away
                # from zero is irrelevant: floor-div of python ints,
                # identical everywhere)
                new_q[c] = np.array(
                    [int(s) // int(tot_n[c]) for s in tot_sum[c]],
                    dtype=np.int64)
        cents_q = new_q

    return cents_q, {"inertia": inertia_hist, "sizes": sizes,
                     "scale_bits": int(scale_bits)}


def kmeans_assign(ds, cents_q: np.ndarray, vec_col: str = "embedding",
                  scale_bits: int = 20, out_col: str = "cluster"):
    """Append the exact assignment column for fitted quantized
    centroids — the same argmin rule as fit, so fit→assign is
    self-consistent bit-for-bit."""
    scale = 1 << int(scale_bits)
    cq = np.asarray(cents_q, dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        xq = _quantize(_to_matrix(batch.column(vec_col)), scale)
        a = (_assign_to(xq, cq) if len(xq)
             else np.empty(0, dtype=np.int64))
        return batch.append_column(out_col, pa.array(a))

    return ds.map_batches(assign, batch_format="pyarrow")


def kmeans_cluster_stats(ds, k: int = 8, iters: int = 5,
                         vec_col: str = "embedding", scale_bits: int = 20,
                         seed: int = 13):
    """End-to-end fit + final per-cluster stats:
    ``(cluster, n, inertia)`` with inertia in exact quantized integer
    units — deterministic across any partitioning."""
    from ray.data.aggregate import Sum

    cents_q, _ = kmeans_fit(ds, k=k, iters=iters, vec_col=vec_col,
                            scale_bits=scale_bits, seed=seed)
    scale = 1 << int(scale_bits)

    def partials(batch: pa.Table) -> pa.Table:
        xq = _quantize(_to_matrix(batch.column(vec_col)), scale)
        if len(xq) == 0:
            return pa.table({"cluster": pa.array([], pa.int64()),
                             "pn": pa.array([], pa.int64()),
                             "pin": pa.array([], pa.int64())})
        a = _assign_to(xq, cents_q)
        diff = xq - cents_q[a]
        per_row = (diff.astype(np.float64) ** 2).sum(axis=1).astype(np.int64)
        u = np.unique(a)
        inv = np.searchsorted(u, a)
        n = np.zeros(len(u), dtype=np.int64)
        iner = np.zeros(len(u), dtype=np.int64)
        np.add.at(n, inv, 1)
        np.add.at(iner, inv, per_row)
        return pa.table({"cluster": pa.array(u), "pn": pa.array(n),
                         "pin": pa.array(iner)})

    return (ds.select_columns([vec_col])
            .map_batches(partials, batch_format="pyarrow")
            .groupby("cluster")
            .aggregate(Sum("pn", alias_name="n"),
                       Sum("pin", alias_name="inertia")))


def _in_sorted(sorted_arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Membership of x in a sorted int64 array (vectorized)."""
    if len(sorted_arr) == 0:
        return np.zeros(len(x), dtype=bool)
    i = np.minimum(np.searchsorted(sorted_arr, x), len(sorted_arr) - 1)
    return sorted_arr[i] == x


def dbscan_embeddings(ds, sim_threshold: float = 0.3, min_pts: int = 3,
                      vec_col: str = "embedding", id_col: str = "vec_id",
                      mode: str = "auto", num_buckets: int = 64):
    """Density clustering (DBSCAN, Ester et al. 1996) over an embedding
    column with COSINE similarity ≥ ``sim_threshold`` as the ε-ball.
    ``min_pts`` counts NEIGHBORS EXCLUDING the point itself (classic
    |N_ε(p)| ≥ minPts including p is this with ``min_pts+1``).

    Deterministic label rule (order-independent, unlike textbook
    seed-order DBSCAN): a cluster is a connected component of the
    core-core neighbor graph labeled by its MINIMUM core id; border
    points (non-core with ≥1 core neighbor) take the MIN label among
    their core neighbors; everything else is noise (NULL label).

    Plan: the ε-pair table comes from :func:`bqf_ray.pipelines.dedup.
    embedding_dup_pairs` (auto exact-broadcast / LSH-blocked route —
    past the broadcast budget recall follows the blocked plan's
    documented banding curve); degrees ride ONE bucketed exchange;
    the core id array, component labels and border labels are
    NODE-sized driver/broadcast state (the kcore/bfs envelope —
    ~80 MB per 10M cores) with components from
    :func:`bqf_ray.pipelines.graph.connected_components` (union-find
    under the edge budget, pointer-jumping past it).  The corpus
    itself streams; only pair/node tables shuffle.
    Output ``(id_col, role: core|border|noise, cluster_id: nullable)``.
    """
    import pyarrow.compute as pc
    import ray

    from bqf_ray.pipelines.dedup import embedding_dup_pairs
    from bqf_ray.pipelines.graph import connected_components
    from bqf_ray.stages.partition import bucketed_agg

    proj = ds.select_columns([id_col, vec_col])
    pairs = embedding_dup_pairs(
        proj, threshold=sim_threshold, vec_col=vec_col, id_col=id_col,
        mode=mode).materialize()       # consumed 3×: degree/core/border

    def sym_deg(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("id_a"), dtype=np.int64)
        b = np.asarray(batch.column("id_b"), dtype=np.int64)
        node = np.concatenate([a, b])
        t = pa.table({"node": pa.array(node),
                      "d": pa.array(np.ones(len(node), np.int64))})
        return (t.group_by(["node"]).aggregate([("d", "sum")])
                .rename_columns(["node", "d"]))

    deg = bucketed_agg(pairs.map_batches(sym_deg, batch_format="pyarrow"),
                       ["node"], [("d", "sum", "deg")],
                       num_buckets=num_buckets)
    if min_pts <= 0:
        # zero-neighbor points have NO pair row (degree table misses
        # them) but deg=0 ≥ min_pts makes every point core
        parts = [np.asarray(b.column(id_col), dtype=np.int64)
                 for b in proj.select_columns([id_col])
                              .iter_batches(batch_format="pyarrow")]
    else:
        parts = [np.asarray(b.filter(pc.greater_equal(
                     b.column("deg"), pa.scalar(int(min_pts), pa.int64())))
                     .column("node"), dtype=np.int64)
                 for b in deg.iter_batches(batch_format="pyarrow")]
    core = (np.sort(np.concatenate(parts)) if parts
            else np.empty(0, np.int64))
    core_ref = ray.put(core)

    class CoreEdges:
        def __init__(self):
            self.core = ray.get(core_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            a = np.asarray(batch.column("id_a"), dtype=np.int64)
            b = np.asarray(batch.column("id_b"), dtype=np.int64)
            keep = _in_sorted(self.core, a) & _in_sorted(self.core, b)
            return pa.table({"id_a": pa.array(a[keep]),
                             "id_b": pa.array(b[keep])})

    cc = connected_components(
        pairs.map_batches(CoreEdges, batch_format="pyarrow",
                          concurrency=2, num_cpus=0.5), "id_a", "id_b")
    lab_nodes, lab_vals = [], []
    for b in cc.iter_batches(batch_format="pyarrow"):
        lab_nodes.append(np.asarray(b.column("doc_id"), dtype=np.int64))
        lab_vals.append(np.asarray(b.column("cluster_id"),
                                   dtype=np.int64))
    nodes = (np.concatenate(lab_nodes) if lab_nodes
             else np.empty(0, np.int64))
    vals = (np.concatenate(lab_vals) if lab_vals
            else np.empty(0, np.int64))
    # isolated cores (no core neighbor) form singleton clusters
    srt = np.sort(nodes)
    iso = core[~_in_sorted(srt, core)]
    nodes = np.concatenate([nodes, iso])
    vals = np.concatenate([vals, iso])
    o = np.argsort(nodes)
    labels_ref = ray.put((nodes[o], vals[o]))

    class BorderMin:
        """(non-core node, MIN core-neighbor label) partials."""

        def __init__(self):
            self.core = ray.get(core_ref)
            self.lnodes, self.lvals = ray.get(labels_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            a = np.asarray(batch.column("id_a"), dtype=np.int64)
            b = np.asarray(batch.column("id_b"), dtype=np.int64)
            am = _in_sorted(self.core, a)
            bm = _in_sorted(self.core, b)
            # non-core endpoint paired with the core side's label
            n1, c1 = a[~am & bm], b[~am & bm]
            n2, c2 = b[am & ~bm], a[am & ~bm]
            node = np.concatenate([n1, n2])
            cidx = np.searchsorted(self.lnodes,
                                   np.concatenate([c1, c2]))
            t = pa.table({"node": pa.array(node),
                          "lab": pa.array(self.lvals[cidx]
                                          if len(node) else
                                          np.empty(0, np.int64))})
            return (t.group_by(["node"]).aggregate([("lab", "min")])
                    .rename_columns(["node", "lab"]))

    border = bucketed_agg(
        pairs.map_batches(BorderMin, batch_format="pyarrow",
                          concurrency=2, num_cpus=0.5),
        ["node"], [("lab", "min", "lab")], num_buckets=num_buckets)
    bn, bv = [], []
    for b in border.iter_batches(batch_format="pyarrow"):
        bn.append(np.asarray(b.column("node"), dtype=np.int64))
        bv.append(np.asarray(b.column("lab"), dtype=np.int64))
    bnodes = np.concatenate(bn) if bn else np.empty(0, np.int64)
    bvals = np.concatenate(bv) if bv else np.empty(0, np.int64)
    o = np.argsort(bnodes)
    border_ref = ray.put((bnodes[o], bvals[o]))

    class Assemble:
        def __init__(self):
            self.core = ray.get(core_ref)
            self.lnodes, self.lvals = ray.get(labels_ref)
            self.bnodes, self.bvals = ray.get(border_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column(id_col), dtype=np.int64)
            is_core = _in_sorted(self.core, ids)
            is_border = _in_sorted(self.bnodes, ids)
            lab = np.zeros(len(ids), dtype=np.int64)
            if len(self.lnodes):
                ci = np.minimum(np.searchsorted(self.lnodes, ids),
                                len(self.lnodes) - 1)
                lab = np.where(is_core, self.lvals[ci], lab)
            if len(self.bnodes):
                bi = np.minimum(np.searchsorted(self.bnodes, ids),
                                len(self.bnodes) - 1)
                lab = np.where(is_border, self.bvals[bi], lab)
            role = np.where(is_core, "core",
                            np.where(is_border, "border", "noise"))
            ok = is_core | is_border
            return pa.table({
                id_col: pa.array(ids),
                "role": pa.array(role.astype(object), pa.string()),
                "cluster_id": pa.array(lab, pa.int64(), mask=~ok)})

    return ds.select_columns([id_col]).map_batches(
        Assemble, batch_format="pyarrow", concurrency=2, num_cpus=0.5)
