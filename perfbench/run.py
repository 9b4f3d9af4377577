"""The repo benchmark: BQF index build and sketch-UDAF workloads.

    python3 perfbench/run.py --num-cpus 2 --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1> [--scale full|small]

Run from the repository root.  One driver process, no extra threads, closed
loop: a workload's pipeline runs to completion through the public API, its
output is gated against an exact oracle, then the next run starts, until
``--seconds`` have passed.  Set-up (Ray start and worker warm-up) is
repeated ``setups`` times and its median reported.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same loop,
then one traced run with the per-operator breakdown from ``Dataset.stats()``
and the Ray-free kernel ledger, and prints the per-layer metrics.  Earlier
stdout lines carry detail records; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import procs  # noqa: E402  (perfbench/ is on the path as the script's dir)

# Object store size, fixed so that runs on hosts with more or less memory
# measure the same thing.  Ray spills past it into its temp dir.
OBJECT_STORE_BYTES = 512 << 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--num-cpus", type=int, required=True,
                   help="Ray logical CPUs (pinned in BENCHMARK.json)")
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="input sizes; 'small' is for the benchmark's test")
    return p.parse_args(argv)


class RepTimeout(Exception):
    """A rep ran past its time limit."""


def _on_alarm(signum, frame):
    raise RepTimeout("rep exceeded its time limit")


def detail(kind: str, **fields) -> None:
    print(json.dumps({"detail": kind, **fields}, default=float), flush=True)


def canary_s() -> float:
    """Seconds for a fixed pure-Python loop in the driver.  It runs no
    library code; it lets a reader tell a slow host from a slow program."""
    t0 = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return time.perf_counter() - t0


# --- Ray --------------------------------------------------------------------

def ray_start(num_cpus: int, temp_dir_fd: int) -> None:
    """Start Ray with every file it writes -- sessions, logs, sockets, the
    object store and spills -- in the directory open as ``temp_dir_fd``.

    Ray puts its AF_UNIX sockets under its temp dir, and such a path may be
    at most 107 bytes, however deep the checkout is.  So Ray is handed the
    dir as ``/proc/<pid>/fd/<n>``: a short alias, valid for Ray's processes
    too, that lasts while the driver holds the handle open."""
    import ray
    # workers import bqf_ray from the checkout
    path = os.environ.get("PYTHONPATH", "")
    if REPO not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (REPO, path) if p)
    alias = f"/proc/{os.getpid()}/fd/{temp_dir_fd}"
    os.environ["RAY_TMPDIR"] = alias
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=alias, _plasma_directory=alias)
    ray.data.DataContext.get_current().enable_progress_bars = False


def ray_stop() -> None:
    import ray
    if ray.is_initialized():
        pids = procs.descendants()
        ray.shutdown()
        procs.wait_gone(pids)


# --- measurement ------------------------------------------------------------

def run_rep(wl, timeout_s: int) -> dict:
    """One pipeline run plus its gate.  A rep that raises, fails its gate or
    runs past ``timeout_s`` counts as failed."""
    from workloads import GateError
    t0 = time.perf_counter()
    signal.alarm(timeout_s)
    try:
        out = wl.rep()
        wall = time.perf_counter() - t0
        signal.alarm(0)
        wl.gate(out)
        return {"ok": True, "wall_s": wall}
    except RepTimeout:
        return {"ok": False, "timeout": True, "error": "timeout",
                "wall_s": time.perf_counter() - t0}
    except GateError as e:
        return {"ok": False, "error": f"gate: {e}",
                "wall_s": time.perf_counter() - t0}
    except Exception as e:             # a failed rep must not end the run
        traceback.print_exc()
        return {"ok": False, "error": f"{type(e).__name__}: {e}",
                "wall_s": time.perf_counter() - t0}
    finally:
        signal.alarm(0)


def measure(wl, seconds: float, timeout_s: int) -> tuple[list[dict], float]:
    reps, rss = [], 0.0
    end = time.perf_counter() + seconds
    while True:
        rep = run_rep(wl, timeout_s)
        reps.append(rep)
        rss = max(rss, procs.peak_rss_mb())
        if rep.get("timeout") or time.perf_counter() >= end:
            return reps, rss


def main(argv=None) -> int:
    args = parse_args(argv)
    import layers
    import workloads
    from bqf_ray.sources.pages import generate_pages

    wl = workloads.make(args.workload, args.scale)
    sizes = workloads.SIZES[args.scale]
    signal.signal(signal.SIGALRM, _on_alarm)
    work = os.path.join(REPO, ".perfbench_work", str(os.getpid()))
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(os.path.join(work, "ray"))
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    ray_dir_fd = os.open(os.path.join(work, "ray"),
                         os.O_RDONLY | os.O_DIRECTORY)
    try:
        # load generation: not part of set-up or of any timing
        wl.generate(args.seed, work)
        warm_files = workloads.write_parquet(
            generate_pages(sizes["warm_pages"], seed=args.seed + 1)
            .select(["url", "html"]), os.path.join(work, "warm"))

        setup_s, phases = [], []
        for i in range(sizes["setups"]):
            if i:
                ray_stop()
            t0 = time.perf_counter()
            ray_start(args.num_cpus, ray_dir_fd)
            t1 = time.perf_counter()
            wl.setup(warm_files)
            t2 = time.perf_counter()
            setup_s.append(t2 - t0)
            phases.append({"ray_start_s": t1 - t0, "workload_s": t2 - t1})
        if isinstance(wl, workloads.UdafWorkload):
            wl.refs = wl.put_blocks()

        canary = [canary_s()]
        reps, rss = measure(wl, args.seconds, sizes["rep_timeout_s"])
        canary.append(canary_s())
        attempted = len(reps)
        failed = sum(not r["ok"] for r in reps)
        ok_walls = [r["wall_s"] for r in reps if r["ok"]]
        rec = wl.record() if ok_walls else {}
        detail("reps", workload=args.workload, seed=args.seed,
               setup_s=setup_s, setup_phases=phases, reps=reps,
               canary_s=canary, peak_rss_mb=rss, **rec)

        if args.trace:
            if not ok_walls or reps[-1].get("timeout"):
                raise SystemExit("no clean rep to trace against")
            signal.alarm(2 * sizes["rep_timeout_s"])
            t_ok, metrics, info = layers.traced_run(
                wl, statistics.median(ok_walls), rec)
            signal.alarm(0)
            attempted, failed = attempted + 1, failed + (not t_ok)
            detail("trace", **info)
        else:
            rates = [wl.rows_per_rep / r["wall_s"] if r["ok"] else 0.0
                     for r in reps]
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "rows_per_s": (statistics.median(rates), "rows/s"),
                "bits_per_element": (rec.get("bits_per_element", 0.0),
                                     "bits"),
            }
    finally:
        ray_stop()
        os.close(ray_dir_fd)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
