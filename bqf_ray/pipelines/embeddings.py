"""Embedding-column operators: per-vector stats, L2 normalization, int8
quantization — the embedding-table maintenance steps of a training-data
pipeline (shrink 4-byte floats to 1-byte codes for ANN at scale).

All stages are zero-copy Arrow FixedSizeList/List → numpy matrix reshapes
(`knn._to_matrix`) and vectorized kernels.  Float determinism for the SQL
oracle: sums of squares are SEQUENTIAL left-folds in float64
(`np.cumsum(..., axis=1)[:, -1]`), which matches DuckDB's `list_sum`
fold bit-for-bit (verified exact on the fixture embeddings); rounding is
`floor(x + 0.5)` on both sides (numpy `np.round` half-to-even would NOT
match DuckDB's `round`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from bqf_ray.pipelines.knn import _to_matrix


def embedding_stats(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                    bits: int = 8):
    """(vec_id, dim, l2_norm, max_abs, q_sum, q_min, q_max): per-vector
    geometry plus a checksum view of the ``bits``-bit symmetric
    quantization (codes in [-(2^(b-1)-1), 2^(b-1)-1] via
    ``floor(x·Q/max_abs + 0.5)``) — scalars, so the whole transform is
    SQL-oracle-checkable without list-column compares."""
    Q = float((1 << (bits - 1)) - 1)

    def stats(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch.column(vec_col)).astype(np.float64)
        sq = m * m
        ss = np.cumsum(sq, axis=1)[:, -1] if m.shape[1] else \
            np.zeros(len(m))
        ma = np.abs(m).max(axis=1) if m.shape[1] else np.zeros(len(m))
        scale = Q / np.maximum(ma, 1e-30)
        q = np.floor(m * scale[:, None] + 0.5)
        return pa.table({
            id_col: batch.column(id_col),
            "dim": pa.array(np.full(len(m), m.shape[1], dtype=np.int64)),
            "l2_norm": pa.array(np.sqrt(ss), pa.float64()),
            "max_abs": pa.array(ma, pa.float64()),
            "q_sum": pa.array(np.cumsum(q, axis=1)[:, -1].astype(np.int64)),
            "q_min": pa.array(q.min(axis=1).astype(np.int64)),
            "q_max": pa.array(q.max(axis=1).astype(np.int64)),
        })

    return ds.map_batches(stats, batch_format="pyarrow")


def normalize_embeddings(ds, vec_col: str = "embedding"):
    """Replace the embedding column with its L2-normalized float32 form
    (zero vectors pass through unchanged)."""

    def norm(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch.column(vec_col)).astype(np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        out = (m / np.maximum(n, 1e-30)).astype(np.float32)
        d = out.shape[1]
        offs = np.arange(len(out) + 1, dtype=np.int32) * np.int32(d)
        col = pa.ListArray.from_arrays(pa.array(offs),
                                       pa.array(out.reshape(-1)))
        i = batch.schema.get_field_index(vec_col)
        return batch.set_column(i, vec_col, col)

    return ds.map_batches(norm, batch_format="pyarrow")


def quantize_embeddings(ds, vec_col: str = "embedding",
                        id_col: str = "vec_id", bits: int = 8):
    """(id, codes: list<int8>, scale: float64) — symmetric per-vector
    quantization; dequantize as ``codes * scale``.  Cosine distortion is
    bounded by ~1/Q per axis (pytest-checked against the exact values)."""
    assert 2 <= bits <= 8
    Q = float((1 << (bits - 1)) - 1)

    def quant(batch: pa.Table) -> pa.Table:
        m = _to_matrix(batch.column(vec_col)).astype(np.float64)
        ma = np.abs(m).max(axis=1) if m.shape[1] else np.zeros(len(m))
        scale_in = Q / np.maximum(ma, 1e-30)
        q = np.floor(m * scale_in[:, None] + 0.5).astype(np.int8)
        d = q.shape[1]
        offs = np.arange(len(q) + 1, dtype=np.int32) * np.int32(d)
        codes = pa.ListArray.from_arrays(pa.array(offs),
                                         pa.array(q.reshape(-1)))
        return pa.table({
            id_col: batch.column(id_col),
            "codes": codes,
            "scale": pa.array(np.maximum(ma, 1e-30) / Q, pa.float64()),
        })

    return ds.map_batches(quant, batch_format="pyarrow")


def embedding_covariance(ds, vec_col: str = "embedding",
                         scale: int = 1000, num_buckets: int = 32):
    """EXACT integer second-moment components of an embedding column —
    the d×d Gram/covariance accumulators (PCA, whitening, feature-drift
    detection run on these): values quantize as ``q = floor(x·scale
    + 0.5)`` (int64), each batch contributes ``qᵀq`` via ONE int64
    matmul partial (order-independent, so bit-exact under any
    partitioning — the k-means determinism rule applied to linear
    algebra), and partials fold in one tiny (i, j)-keyed exchange.

    Output rows: upper-triangle ``(i, j, s) = Σ q_i q_j`` for i ≤ j,
    marginals ``(i, -1, Σ q_i)``, and the row count ``(-1, -1, n)`` —
    covariance ``S/n − (s_i/n)(s_j/n)`` over ``scale²`` derives
    downstream in float.  Overflow envelope: ``n · (scale·|x|_max)² <
    2^63``.  Rows with a null vector are excluded."""
    import pyarrow.compute as pc

    from bqf_ray.stages.partition import bucketed_sum

    SC = float(scale)

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.filter(col.is_valid())
        n = len(col)
        if not n:
            z = pa.array([], pa.int64())
            return pa.table({"i": z, "j": z, "s": z})
        flat = np.asarray(col.flatten(), dtype=np.float64)
        d = len(flat) // n
        offs = np.asarray(col.offsets, dtype=np.int64)
        if not np.all(np.diff(offs) == d):
            raise ValueError("embedding_covariance: ragged vectors")
        q = np.floor(flat.reshape(n, d) * SC + 0.5).astype(np.int64)
        S = q.T @ q                      # exact int64 gemm partial
        s = q.sum(axis=0)
        iu, ju = np.triu_indices(d)
        i = np.concatenate([iu, np.arange(d), [-1]]).astype(np.int64)
        j = np.concatenate([ju, np.full(d, -1), [-1]]).astype(np.int64)
        v = np.concatenate([S[iu, ju], s, [n]]).astype(np.int64)
        return pa.table({"i": pa.array(i), "j": pa.array(j),
                         "s": pa.array(v)})

    return bucketed_sum(ds.map_batches(partial, batch_format="pyarrow"),
                        ["i", "j"], {"s": "s"},
                        num_buckets=num_buckets)


def embedding_dim_quantiles(ds, vec_col: str = "embedding",
                            qs: tuple = (0.25, 0.5, 0.75),
                            num_buckets: int = 32):
    """Exact per-DIMENSION PERCENTILE_DISC quantiles of an embedding
    column — the column-wise normalization statistics (robust scaling,
    clipping ranges) of a feature matrix: one row per dimension with
    ``(dim, n, q_25, q_50, ...)``.  Explodes each vector to ``(dim,
    value)`` rows (×d fan-out — the price of exact per-dim selection;
    the sketch path is :mod:`bqf_ray.sketches.kll` per dim when d·n
    exceeds the exchange budget) and rides
    :func:`bqf_ray.pipelines.aggregates.grouped_exact_quantiles`' one
    key-bucketed exchange.  Null vectors are excluded; float32 values
    pass through an exact float64 widening."""
    from bqf_ray.pipelines.aggregates import grouped_exact_quantiles

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.filter(col.is_valid())
        n = len(col)
        if not n:
            return pa.table({"dim": pa.array([], pa.int64()),
                             "x": pa.array([], pa.float64())})
        flat = np.asarray(col.flatten(), dtype=np.float64)
        d = len(flat) // n
        offs = np.asarray(col.offsets, dtype=np.int64)
        if not np.all(np.diff(offs) == d):
            raise ValueError("embedding_dim_quantiles: ragged vectors")
        return pa.table({
            "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), n)),
            "x": pa.array(flat)})

    return grouped_exact_quantiles(
        ds.map_batches(explode, batch_format="pyarrow"), "dim", "x",
        qs=qs, num_buckets=num_buckets)


def pca_fit(ds, vec_col: str = "embedding", scale: int = 1000,
            num_buckets: int = 32):
    """Distributed PCA fit: ONE corpus pass computes the exact integer
    covariance components (:func:`embedding_covariance` — per-batch
    int64 ``qᵀq`` matmul partials, order-independent ⇒ bit-identical
    under any partitioning), the d×d eigendecomposition then runs on
    the driver (d is tens–thousands; the 100-TB-sized work is the
    corpus pass, never this d×d step).

    Returns ``(eigvals, components, mean, n)`` with eigenvalues
    DESCENDING, ``components[k]`` the k-th eigenvector (rows), and
    ``mean`` the float column means — all derived from the same exact
    integers on every run, so the spectrum is deterministic up to
    LAPACK (one driver call, one platform).
    """
    comp = embedding_covariance(ds, vec_col=vec_col, scale=scale,
                                num_buckets=num_buckets).to_pandas()
    return _pca_from_components(comp, scale)


def _pca_from_components(comp, scale: int):
    nrow = comp[(comp.i == -1) & (comp.j == -1)]
    n = int(nrow.s.iloc[0])
    marg = comp[(comp.i >= 0) & (comp.j == -1)].sort_values("i")
    d = len(marg)
    si = marg.s.to_numpy(dtype=np.int64)
    S = np.zeros((d, d), dtype=np.float64)
    up = comp[(comp.i >= 0) & (comp.j >= 0)]
    ii = up.i.to_numpy(dtype=np.int64)
    jj = up.j.to_numpy(dtype=np.int64)
    ss = up.s.to_numpy(dtype=np.int64)
    # cov_ij = (n·S_ij − s_i·s_j) / (n²·scale²): assemble the NUMERATOR
    # exactly in int64 (same envelope as the matmul partials), divide
    # once — the float matrix is then a deterministic function of the
    # exact integers
    num = n * ss - si[ii] * si[jj]
    denom = float(n) * float(n) * float(scale) * float(scale)
    S[ii, jj] = num / denom
    S[jj, ii] = S[ii, jj]
    eigvals, eigvecs = np.linalg.eigh(S)        # ascending
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    components = eigvecs[:, order].T
    mean = si / (float(n) * float(scale))
    return eigvals, components, mean, n


def pca_summary(ds, vec_col: str = "embedding", scale: int = 1000,
                tol: float = 1e-9, num_buckets: int = 32):
    """Driver-contract row for :func:`pca_fit` (the bound-flag
    pattern — eigenvalues themselves are not SQL-recomputable, their
    conservation laws are): one row ``(n, d, trace, eig_sum_ok,
    psd_ok)`` where ``trace`` divides the EXACT integer
    ``Σ_i (n·S_ii − s_i²)`` by the exact ``n²·scale²`` (one IEEE
    division shared with the SQL replay), ``eig_sum_ok`` asserts
    ``|Σλ − trace| ≤ tol·max(trace, 1)`` (trace conservation of the
    eigendecomposition) and ``psd_ok`` asserts ``λ_min ≥
    −tol·max(trace, 1)`` (covariance PSD-ness).  Returns a 1-row
    pyarrow table."""
    comp = embedding_covariance(ds, vec_col=vec_col, scale=scale,
                                num_buckets=num_buckets).to_pandas()
    n = int(comp[(comp.i == -1) & (comp.j == -1)].s.iloc[0])
    marg = comp[(comp.i >= 0) & (comp.j == -1)].sort_values("i")
    d = len(marg)
    diag = (comp[(comp.i >= 0) & (comp.i == comp.j)]
            .sort_values("i").s.to_numpy(dtype=np.int64))
    si = marg.s.to_numpy(dtype=np.int64)
    tr_num = int((n * diag - si * si).sum())    # exact int64
    trace = float(tr_num) / float(n * n * scale * scale)
    eigvals, _, _, n2 = _pca_from_components(comp, scale)
    assert n2 == n
    slack = tol * max(trace, 1.0)
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "d": pa.array([d], pa.int64()),
        "trace": pa.array([trace], pa.float64()),
        "eig_sum_ok": pa.array([bool(abs(float(eigvals.sum()) - trace)
                                     <= slack)]),
        "psd_ok": pa.array([bool(eigvals[-1] >= -slack)]),
    })


def pca_project(ds, components: np.ndarray, mean: np.ndarray,
                k: int, vec_col: str = "embedding",
                out_col: str = "pca"):
    """Project every vector onto the top-``k`` principal components —
    a stateless vectorized ``map_batches`` stage (one (n, d)×(d, k)
    matmul per batch; the (k, d) component matrix is kilobytes and
    ships in the task closure).  Appends ``out_col`` as
    ``list<float64>``."""
    W = np.ascontiguousarray(components[:k].T, dtype=np.float64)
    mu = np.asarray(mean, dtype=np.float64)

    def project(batch: pa.Table) -> pa.Table:
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(col)
        flat = np.asarray(col.flatten(), dtype=np.float64)
        d = len(mu)
        proj = (flat.reshape(n, d) - mu) @ W
        offs = np.arange(n + 1, dtype=np.int32) * np.int32(k)
        lst = pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                       pa.array(proj.reshape(-1)))
        return batch.append_column(out_col, lst)

    return ds.map_batches(project, batch_format="pyarrow")


def frequent_directions_cov(ds, vec_col: str = "embedding",
                            ell: int = 16, scale: int = 1000):
    """Frequent-Directions covariance sketch vs the exact int64 Gram —
    the matrix member of the sketch family driver-checked end to end:
    per-block FD partials (one thin SVD per block) merge to an
    ℓ×d sketch whose ‖AᵀA − BᵀB‖₂ error is certified two ways:

    - ``within_certificate``: error ≤ the sketch's own Σδ shrink
      certificate (structural — tests the implementation);
    - ``within_published_bound``: error ≤ 2‖A‖²_F/ℓ (Liberty 2013 —
      tests the algorithm), with ‖A‖²_F the EXACT int64 Σq² a SQL
      oracle recomputes.

    The exact d×d Gram rides :func:`embedding_covariance` (int64
    partials, one tiny exchange) — d is small, so the exact side is
    cheap; the sketch is the 100-TB path where even the (i, j)
    exchange per block matters or a downstream consumer wants ℓ ≪ n
    rows, not a d×d fold.  The Gram comes first: it gives the sketch
    its d.

    Returns one pandas row ``(ell, d, n, frob_sq,
    within_published_bound, within_certificate)``."""
    import pandas as pd

    from bqf_ray.sketches.freqdir import FrequentDirections
    from bqf_ray.stages.sketch_stage import build_sketch

    SC = float(scale)
    L = int(ell)

    cov = embedding_covariance(ds, vec_col=vec_col, scale=scale).take_all()
    d = 1 + max((int(r["i"]) for r in cov), default=-1)
    G = np.zeros((d, d), dtype=np.float64)
    n_exact = 0
    frob_exact = 0
    for r in cov:
        i, j, s = int(r["i"]), int(r["j"]), int(r["s"])
        if i == -1 and j == -1:
            n_exact = s
        elif j == -1:
            continue                      # marginals — not needed here
        else:
            G[i, j] = G[j, i] = float(s)
            if i == j:
                frob_exact += s

    def key_fn(batch: pa.Table):
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = col.filter(col.is_valid())
        flat = np.asarray(col.flatten(), dtype=np.float64)
        return np.floor(flat.reshape(len(col), d) * SC + 0.5), None

    fd = build_sketch(ds, key_fn, lambda: FrequentDirections(ell=L, d=d))

    if fd.n != n_exact or fd.frob_sq != frob_exact:
        raise AssertionError(
            f"sketch/exact disagree on invariants: n {fd.n}/{n_exact}, "
            f"frob {fd.frob_sq}/{frob_exact}")
    err = fd.spectral_error_vs(G)
    return pd.DataFrame({
        "ell": np.array([L], np.int64),
        "d": np.array([d], np.int64),
        "n": np.array([n_exact], np.int64),
        "frob_sq": np.array([frob_exact], np.int64),
        "within_published_bound": [err <= fd.published_bound() + 1e-6],
        "within_certificate": [err <= fd.delta_sum * (1 + 1e-9) + 1e-6]})
