"""The benchmark's own test: every workload at small size on a held-out seed.

    python3 -m pytest perfbench/test_perfbench.py -q

Each run must exit 0, print a result line naming every metric that
BENCHMARK.json lists for its mode with the listed unit, and pass every
correctness gate.  A run in a deeply nested checkout must pass and leave
nothing behind; a checkout without the library must fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 424242       # not used while the benchmark was tuned

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(cwd, workload, trace, timeout=300, env=None):
    cmd = SPEC["command"] + ["--workload", workload,
                             "--seed", str(HELD_OUT_SEED), "--seconds", "1",
                             "--trace", str(trace), "--scale", "small"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout, env=env)


def copy_checkout(dest, with_library=True):
    """BENCHMARK.json and the benchmark's paths, plus the library if asked."""
    dest.mkdir(parents=True, exist_ok=True)
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), dest)
    for d in SPEC["paths"] + (["bqf_ray"] if with_library else []):
        shutil.copytree(os.path.join(REPO, d), dest / d,
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_gates(workload, trace):
    p = run_bench(REPO, workload, trace)
    assert p.returncode == 0, p.stderr[-4000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stdout[-4000:]
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_runs_in_a_deep_checkout_and_writes_only_inside_it(tmp_path):
    # Ray's socket paths must stay within 107 bytes however deep the checkout
    # is.  TMPDIR and RAY_TMPDIR name a path under a regular file, which
    # cannot be created, so a write that falls back to them fails the run.
    checkout = tmp_path / ("d" * 100) / "checkout"
    copy_checkout(checkout)
    env = dict(os.environ, TMPDIR="/proc/version/tmp",
               RAY_TMPDIR="/proc/version/tmp")
    p = run_bench(str(checkout), SPEC["workloads"][-1]["name"], 0, env=env)
    assert p.returncode == 0, p.stderr[-4000:]
    assert json.loads(p.stdout.strip().splitlines()[-1])["correct"] is True
    assert not (checkout / ".perfbench_work").exists()


def test_fails_without_the_library(tmp_path):
    copy_checkout(tmp_path, with_library=False)
    p = run_bench(str(tmp_path), SPEC["workloads"][0]["name"], 0, timeout=180)
    assert p.returncode != 0
    lines = p.stdout.strip().splitlines()
    assert not lines or '"metrics"' not in lines[-1]
