"""Genomic tool pipelines (reference bqf build/query/filter shapes) + CLI."""

import numpy as np
import pyarrow as pa
import pytest

from bqf_ray.functions.dna import encode, sequence_kmer_hashes, sequence_kmers
from bqf_ray.pipelines.genomic import (build_from_counted_smers, filter_fastx,
                                       query_sequences)


def _random_genome(n, seed):
    rng = np.random.RandomState(seed)
    return "".join("ACGT"[i] for i in rng.randint(0, 4, n))


@pytest.fixture(scope="module")
def counted_smers():
    """Deterministic counted s-mer table (FIXTURES.md §2 shape)."""
    rng = np.random.RandomState(31)
    s = 11
    smers = sorted({_random_genome(s, 1000 + i) for i in range(500)})
    counts = rng.randint(1, 100, len(smers))
    return s, pa.table({"smer": pa.array(smers),
                        "count": pa.array(counts, pa.int64())})


def test_build_and_point_queries(ray_session, counted_smers):
    import ray
    s, tbl = counted_smers
    ps = build_from_counted_smers(ray.data.from_arrow(tbl).repartition(4),
                                  s=s, codec="ec", count_size=5,
                                  num_partitions=4)
    from bqf_ray.functions.dna import kmer_to_hash
    keys = np.array([kmer_to_hash(encode(m), s) for m in tbl["smer"].to_pylist()],
                    dtype=np.uint64)
    got = ps.query_batch(keys)
    exp = np.minimum(np.asarray(tbl["count"]), 31).astype(np.uint64)
    np.testing.assert_array_equal(got, exp)


def test_build_rejects_wrong_smer_length(ray_session, counted_smers):
    import ray
    s, tbl = counted_smers
    with pytest.raises(Exception):
        build_from_counted_smers(ray.data.from_arrow(tbl), s=s + 1,
                                 num_partitions=2)


def test_query_sequences_fimpera(ray_session, counted_smers):
    import ray
    s, tbl = counted_smers
    ps = build_from_counted_smers(ray.data.from_arrow(tbl), s=s,
                                  count_size=8, num_partitions=4)
    # a sequence stitched from known smers has nonzero presence;
    # note: the index stores smers as-written, queries canonicalize —
    # use sequences whose canonical smers we control by querying both
    present = tbl["smer"].to_pylist()[0]
    q = pa.table({"query_id": pa.array([0, 1], pa.int64()),
                  "seq": pa.array([present, "ACGT" * 10])})
    out = query_sequences(ray.data.from_arrow(q), ps, k=s, s=s).to_pandas()
    out = out.set_index("query_id")
    # k == s == len(seq): direct lookup path (abstract_bqf.cpp:200-203)
    from bqf_ray.functions.dna import canonical, kmer_to_hash
    exp0 = int(ps.query_batch(np.array(
        [kmer_to_hash(canonical(encode(present), s), s)], dtype=np.uint64))[0])
    assert out.loc[0, "minimum"] == exp0 or out.loc[0, "presence_ratio"] in (0.0, 1.0)


def test_filter_fastx_matches_exact_counts(ray_session):
    import ray
    genome = _random_genome(4000, 77)
    reads = [genome[i:i + 120] for i in range(0, 3880, 53)]
    k = 17
    ds = ray.data.from_arrow(pa.table({"seq": pa.array(reads)})).repartition(4)
    out = filter_fastx(ds, k=k, mode="text", num_partitions=4).to_pandas()
    # exact oracle over canonical kmers
    all_k = np.concatenate([sequence_kmers(r, k) for r in reads])
    uniq, cnt = np.unique(all_k, return_counts=True)
    from bqf_ray.functions.dna import decode
    expected = {decode(int(v), k) for v in uniq[cnt >= 2]}
    assert set(out["kmer"]) == expected
    # binary mode round-trips the codes
    outb = filter_fastx(ds, k=k, mode="binary", num_partitions=4).to_pandas()
    assert set(outb["kmer_code"].astype(np.uint64)) == set(uniq[cnt >= 2].tolist())


def test_cli_end_to_end(ray_session, counted_smers, tmp_path):
    """Drive the reference-tool CLI surface in-process."""
    import pyarrow.parquet as pq
    from bqf_ray import cli
    s, tbl = counted_smers
    inp = str(tmp_path / "counted.parquet")
    pq.write_table(tbl, inp)
    idx_dir = str(tmp_path / "idx")
    cli.main(["build", "-i", inp, "-o", idx_dir, "-s", str(s), "-c", "5"])
    qtbl = pa.table({"query_id": pa.array([0], pa.int64()),
                     "seq": pa.array([tbl["smer"].to_pylist()[0]])})
    qin = str(tmp_path / "queries.parquet")
    pq.write_table(qtbl, qin)
    qout = str(tmp_path / "qout")
    cli.main(["query", "-b", idx_dir, "-i", qin, "-o", qout,
              "-k", str(s), "-s", str(s)])
    res = pq.read_table(qout).to_pandas()
    assert len(res) == 1 and "presence_ratio" in res.columns


def test_cli_query_after_rebuild_with_fewer_partitions(ray_session,
                                                       counted_smers,
                                                       tmp_path):
    """A rebuild into the same directory leaves the old build's higher
    part files behind; ``bqf query`` loads only the manifest's shards."""
    import os

    import pandas as pd
    import pyarrow.parquet as pq
    from bqf_ray import cli
    s, tbl = counted_smers
    inp = str(tmp_path / "counted.parquet")
    pq.write_table(tbl, inp)
    qin = str(tmp_path / "queries.parquet")
    pq.write_table(pa.table({"query_id": pa.array([0, 1], pa.int64()),
                             "seq": pa.array(tbl["smer"].to_pylist()[:2])}),
                   qin)

    def query(idx_dir):
        out = str(tmp_path / f"q_{os.path.basename(idx_dir)}")
        cli.main(["query", "-b", idx_dir, "-i", qin, "-o", out,
                  "-k", str(s), "-s", str(s)])
        return pq.read_table(out).to_pandas().sort_values("query_id") \
            .reset_index(drop=True)

    reused, clean = str(tmp_path / "reused"), str(tmp_path / "clean")
    for idx_dir, parts in ((reused, 8), (reused, 4), (clean, 4)):
        cli.main(["build", "-i", inp, "-o", idx_dir, "-s", str(s),
                  "-c", "5", "--partitions", str(parts)])
    assert os.path.exists(os.path.join(reused, "part-00007.sketch"))
    got = query(reused)
    assert len(got) == 2
    pd.testing.assert_frame_equal(got, query(clean))


def test_cli_index_probe_webtext(ray_session, tmp_path):
    """Drive the web-text CLI: index pages parquet, probe documents."""
    import pyarrow.parquet as pq
    from bqf_ray import cli
    from bqf_ray.sources.pages import generate_pages
    t = generate_pages(300, seed=6)
    t = t.append_column("doc_id", pa.array(np.arange(len(t), dtype=np.int64)))
    pin = str(tmp_path / "pages.parquet")
    pq.write_table(t, pin)
    idx_dir = str(tmp_path / "widx")
    cli.main(["index", "-i", pin, "-o", idx_dir, "-q", "10"])
    pout = str(tmp_path / "probe_out")
    cli.main(["probe", "-b", idx_dir, "-i", pin, "-o", pout])
    res = pq.read_table(pout).to_pandas()
    assert len(res) == 300
    assert (res["presence_ratio"] == 1.0).all()   # self-probe: all present
