"""Self-test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = _run(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace and workload == "pair":
        # pair.py binds solve_multiplier by name: the wrapper must reach it
        assert out["metrics"]["limiting.solve_multiplier.calls"]["value"] > 0
    if trace and workload == "transport":
        assert out["metrics"]["kernels.velocity_pair_grid.calls"]["value"] > 0


def test_invalid_input_counts_as_failed(tmp_path):
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    try:
        import run
        import workloads
        from gsqg.cli import main
        wl = workloads.LimitingWorkload(0, "tiny", str(tmp_path))
        runner = run.Runner(wl, main, caches=[])
        valid = wl.setup()[0]
        for spl in [valid, (0.5, 2.0, 0.3), valid]:   # p >= 1/(1-s)
            runner.run_op(spl, traced=False)
    finally:
        del sys.path[:2]
    assert [res.ok for _, res, _ in runner.ops] == [True, False, True]
    assert "exit 1" in runner.ops[1][1].why
    assert run.end_to_end(runner, 0.0)["ok_frac"] == pytest.approx(2 / 3)
    assert runner.mismatched_fingerprints() == []
