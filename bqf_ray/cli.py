"""CLI — Ray-Data forms of the reference's three tools
(/root/reference/src/main.cpp:12-14: ``bqf build|query|filter``), plus
``index``/``probe`` for the web-text domain.

Examples:
    python -m bqf_ray.cli build  -s 28 -q 14 -c 5 -i counted.parquet -o /tmp/idx
    python -m bqf_ray.cli query  -b /tmp/idx -k 32 -s 28 -i queries.parquet -o out/
    python -m bqf_ray.cli filter -k 21 -i reads.parquet -o out/ --mode text
    python -m bqf_ray.cli index  -i pages.parquet -o /tmp/widx
    python -m bqf_ray.cli update -b /tmp/widx --add new.parquet --remove gone.parquet
    python -m bqf_ray.cli probe  -b /tmp/widx -i docs.parquet -o out/ --resumable-partitions 64

Inputs are parquet (or newline text via --text-input, mirroring the
reference's line-based files).  This module owns a Ray session (the driver
contract in __ray_entry__ does NOT go through here).
"""

from __future__ import annotations

import argparse
import sys


def _init_ray(args):
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
        return True
    return False


def _read(args, default_cols=None):
    import ray
    if args.text_input:
        ds = ray.data.read_text(args.input)
        return ds
    return ray.data.read_parquet(args.input)


def cmd_build(args):
    """``bqf build`` (main.cpp:30-103): counted s-mers → partitioned filter."""
    import ray
    from bqf_ray.pipelines.genomic import build_from_counted_smers
    owned = _init_ray(args)
    ds = _read(args)
    if args.text_input:
        # "<smer> <count>" lines (abstract_bqf.cpp:30-45)
        import pyarrow as pa

        def parse(batch: pa.Table) -> pa.Table:
            smers, counts = [], []
            for line in batch.column("text").to_pylist():
                parts = line.split()
                smers.append(parts[0])
                counts.append(int(parts[1]) if len(parts) > 1 else 1)
            return pa.table({"smer": pa.array(smers),
                             "count": pa.array(counts, pa.int64())})

        ds = ds.map_batches(parse, batch_format="pyarrow")
    ps = build_from_counted_smers(
        ds, s=args.smer_size, codec=args.codec, count_size=args.count_size,
        q=args.quotient_size, num_partitions=args.partitions,
        checkpoint_dir=args.output)
    print(f"built {len(ps.shards)} shards, {ps.elements_inside} elements "
          f"-> {args.output}", file=sys.stderr)
    if owned:
        ray.shutdown()


def cmd_query(args):
    """``bqf query`` (main.cpp:105-173): sequences → fimpera stats."""
    import ray
    from bqf_ray.pipelines.build_index import BqfIndex
    from bqf_ray.pipelines.genomic import query_sequences
    owned = _init_ray(args)
    # shards come from the manifest, not the directory listing: a
    # rebuild with fewer partitions leaves stale part files behind
    ps = BqfIndex.load(args.bqf).psketch
    id_col = "query_id"
    if getattr(args, "fastx", False):
        from bqf_ray.sources.fastx import read_fastx
        ds = read_fastx(args.input)
        id_col = "name"
    else:
        ds = _read(args)
        if args.text_input:
            import pyarrow as pa

            def number(batch: pa.Table) -> pa.Table:
                seqs = [s for s in batch.column("text").to_pylist()
                        if s and not s.startswith(">")]
                return pa.table({"query_id": pa.array(range(len(seqs)),
                                                      pa.int64()),
                                 "seq": pa.array(seqs)})

            ds = ds.map_batches(number, batch_format="pyarrow")
    out = query_sequences(ds, ps, k=args.kmer_size, s=args.smer_size,
                          id_col=id_col)
    out.write_parquet(args.output)
    print(f"wrote query results -> {args.output}", file=sys.stderr)
    if owned:
        ray.shutdown()


def cmd_filter(args):
    """``bqf filter`` (main.cpp:175-249): reads → k-mers seen ≥ 2."""
    import ray
    from bqf_ray.pipelines.genomic import filter_fastx
    owned = _init_ray(args)
    if getattr(args, "fastx", False):
        from bqf_ray.sources.fastx import read_fastx
        ds = read_fastx(args.input)
    else:
        ds = _read(args)
        if args.text_input:
            import pyarrow as pa

            def seqs(batch: pa.Table) -> pa.Table:
                ss = [s for s in batch.column("text").to_pylist()
                      if s and not s.startswith((">", "@", "+"))]
                return pa.table({"seq": pa.array(ss)})

            ds = ds.map_batches(seqs, batch_format="pyarrow")
    out = filter_fastx(ds, k=args.kmer_size, mode=args.mode,
                       q=args.quotient_size)
    out.write_parquet(args.output)
    print(f"wrote filtered kmers -> {args.output}", file=sys.stderr)
    if owned:
        ray.shutdown()


def cmd_index(args):
    """Web-text flagship: pages parquet → partitioned BQF token index."""
    import ray
    from bqf_ray.pipelines.build_index import build_bqf_index
    owned = _init_ray(args)
    ds = ray.data.read_parquet(args.input, columns=[args.text_col])
    idx = build_bqf_index(ds, text_col=args.text_col, s=args.shingle,
                          q=args.quotient_size, count_size=args.count_size,
                          num_partitions=args.partitions,
                          checkpoint_dir=args.output,
                          input_lineage=[args.input])
    print(f"indexed {idx.psketch.elements_inside} keys -> {args.output}",
          file=sys.stderr)
    if owned:
        ray.shutdown()


def cmd_update(args):
    """Incrementally maintain a checkpointed web-text index: add new
    documents and/or retract removed ones (only touched shards rewrite)."""
    import ray
    from bqf_ray.pipelines.build_index import update_bqf_index
    owned = _init_ray(args)
    add = ray.data.read_parquet(args.add) if args.add else None
    rem = ray.data.read_parquet(args.remove) if args.remove else None
    idx = update_bqf_index(args.bqf, add_ds=add, remove_ds=rem)
    print(f"index now holds {idx.psketch.elements_inside} keys "
          f"-> {args.bqf}", file=sys.stderr)
    if owned:
        ray.shutdown()


def cmd_probe(args):
    """Probe documents against a web-text index → fimpera stats parquet."""
    import ray
    from bqf_ray.pipelines.build_index import BqfIndex
    owned = _init_ray(args)
    idx = BqfIndex.load(args.bqf)
    ds = ray.data.read_parquet(args.input)
    out = idx.probe_documents(ds, id_col=args.id_col, z=args.z)
    if args.resumable_partitions:
        from bqf_ray.state.output import resumable_write_parquet
        meta = resumable_write_parquet(out, args.output, args.id_col,
                                       num_buckets=args.resumable_partitions)
        print(f"wrote {len(meta)} partitions (resumable) -> {args.output}",
              file=sys.stderr)
    else:
        out.write_parquet(args.output)
        print(f"wrote probe results -> {args.output}", file=sys.stderr)
    if owned:
        ray.shutdown()


def cmd_checksum(args):
    """Order-invariant content checksum of a parquet table — compare
    across copies/migrations without sorting either side."""
    import ray
    owns = _init_ray(args)
    try:
        ds = ray.data.read_parquet(args.input,
                                   columns=args.cols.split(","))
        from bqf_ray.pipelines.audit import dataset_checksum
        row = dataset_checksum(ds, args.cols.split(",")).take_all()[0]
        print(f"rows={row['n_rows']} checksum={row['checksum']}")
    finally:
        if owns:
            ray.shutdown()


def cmd_curate(args):
    """End-to-end corpus curation (lang/quality filter → exact dedup →
    near-dup removal) over a documents parquet, written through the
    resumable partitioned sink; prints per-stage survivor counts."""
    import ray
    owns = _init_ray(args)
    try:
        ds = ray.data.read_parquet(args.input)
        from bqf_ray.pipelines.curate import curate_corpus
        stats, _ = curate_corpus(
            ds, min_quality=args.min_quality,
            near_threshold=args.near_threshold,
            out_dir=args.output, out_buckets=args.partitions)
        for stage, n in stats:
            print(f"{stage}: {n}")
    finally:
        if owns:
            ray.shutdown()


def main(argv=None):
    p = argparse.ArgumentParser(prog="bqf_ray")
    p.add_argument("--num-cpus", type=int, default=8)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("-i", "--input", required=True)
    b.add_argument("-o", "--output", required=True)
    b.add_argument("-s", "--smer-size", type=int, required=True)
    b.add_argument("-q", "--quotient-size", type=int, default=10)
    b.add_argument("-c", "--count-size", type=int, default=5)
    b.add_argument("--codec", choices=["ec", "oom"], default="ec")
    b.add_argument("--partitions", type=int, default=8)
    b.add_argument("--text-input", action="store_true")
    b.set_defaults(fn=cmd_build)

    qp = sub.add_parser("query")
    qp.add_argument("-b", "--bqf", required=True)
    qp.add_argument("-i", "--input", required=True)
    qp.add_argument("-o", "--output", required=True)
    qp.add_argument("-k", "--kmer-size", type=int, required=True)
    qp.add_argument("-s", "--smer-size", type=int, required=True)
    qp.add_argument("--text-input", action="store_true")
    qp.add_argument("--fastx", action="store_true",
                    help="input is FASTA/FASTQ files (record-assembled)")
    qp.set_defaults(fn=cmd_query)

    f = sub.add_parser("filter")
    f.add_argument("-i", "--input", required=True)
    f.add_argument("-o", "--output", required=True)
    f.add_argument("-k", "--kmer-size", type=int, required=True)
    f.add_argument("-q", "--quotient-size", type=int, default=12)
    f.add_argument("--mode", choices=["text", "binary", "stream"],
                   default="text")
    f.add_argument("--text-input", action="store_true")
    f.add_argument("--fastx", action="store_true",
                   help="input is FASTA/FASTQ files (record-assembled)")
    f.set_defaults(fn=cmd_filter)

    ix = sub.add_parser("index")
    ix.add_argument("-i", "--input", required=True)
    ix.add_argument("-o", "--output", required=True)
    ix.add_argument("--text-col", default="text")
    ix.add_argument("--shingle", type=int, default=1)
    ix.add_argument("-q", "--quotient-size", type=int, default=14)
    ix.add_argument("-c", "--count-size", type=int, default=8)
    ix.add_argument("--partitions", type=int, default=16)
    ix.set_defaults(fn=cmd_index)

    cu = sub.add_parser("curate")
    cu.add_argument("-i", "--input", required=True)
    cu.add_argument("-o", "--output", required=True)
    cu.add_argument("--min-quality", type=float, default=0.5)
    cu.add_argument("--near-threshold", type=float, default=0.8)
    cu.add_argument("--partitions", type=int, default=16)
    cu.set_defaults(fn=cmd_curate)

    up = sub.add_parser("update")
    up.add_argument("-b", "--bqf", required=True)
    up.add_argument("--add", default=None,
                    help="parquet of documents to insert")
    up.add_argument("--remove", default=None,
                    help="parquet of documents to retract")
    up.set_defaults(fn=cmd_update)

    pr = sub.add_parser("probe")
    pr.add_argument("-b", "--bqf", required=True)
    pr.add_argument("-i", "--input", required=True)
    pr.add_argument("-o", "--output", required=True)
    pr.add_argument("--id-col", default="doc_id")
    pr.add_argument("-z", type=int, default=0)
    pr.add_argument("--resumable-partitions", type=int, default=0,
                    help="write a resumable partitioned sink with this "
                         "many id-hash buckets (re-runs skip finished "
                         "partitions)")
    pr.set_defaults(fn=cmd_probe)

    ck = sub.add_parser("checksum")
    ck.add_argument("-i", "--input", required=True)
    ck.add_argument("--cols", required=True,
                    help="comma-separated columns to checksum")
    ck.set_defaults(fn=cmd_checksum)

    args = p.parse_args(argv)
    args.fn(args)


if __name__ == "__main__":
    main()
