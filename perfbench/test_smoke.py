"""Seconds-long smoke test of the benchmark harness.

Runs the ``smoke`` workload (a classical-branch wave and a short Riemann
chain) timed and traced, and checks the metric names, the operation counts
and that the harness's checks can fail.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_smoke(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_declared(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(workloads.build("smoke", SEED))
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_timed_run_prints_every_end_to_end_metric():
    result = run_smoke(0)
    assert_declared(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = run_smoke(1)
    assert_declared(result, BENCH["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["chain.runs"] == 1
    assert values["chain.site_steps"] == 201 * 5000
    assert values["acwave.kernel_builds"] >= 1
    assert values["newwave.candidates"] == 0  # classical branch only
    assert values["trace.spans"] > 0
    trace = json.loads((ROOT / ".perfbench_out" / "trace-smoke.json")
                       .read_text())
    assert len(trace["spans"]) == values["trace.spans"]


def test_failed_operations_are_counted():
    def boom():
        raise ZeroDivisionError

    records = run_ops([workloads.Op("raises", "task", boom),
                       workloads.Op("false", "check", lambda: False),
                       workloads.Op("true", "check", lambda: True)])
    assert [r["error"] is None for r in records] == [False, False, True]
    assert records[1]["error"] == "check failed"


def test_travelling_wave_check_sees_a_wrong_slope():
    wave = workloads.kinetic_wave(0.5, workloads.MU1)
    xi = workloads.off_kink_points(np.random.default_rng(SEED), wave.z, 4)
    assert workloads.tw_residual(wave, xi) <= workloads.TW_TOL

    class Bent:
        """The wave with u' off by 0.01 xi, so u'' is off by 0.01."""
        V, params, sigma = wave.V, wave.params, wave.sigma
        evaluate = staticmethod(wave.evaluate)

        @staticmethod
        def derivative(x, method=None):
            return wave.derivative(x, method=method) + 0.01 * x

    assert workloads.tw_residual(Bent, xi) > workloads.TW_TOL


def test_probe_points_keep_clear_of_kinks():
    z = 0.212
    xi = workloads.off_kink_points(np.random.default_rng(SEED), z, 200)
    assert np.all(np.abs(xi) >= z + workloads.TW_EDGE_GAP)
    assert np.all(np.abs(xi) <= z + 10.0)
    for c in (z, -z):
        assert np.all(np.abs(xi - c - np.round(xi - c))
                      >= workloads.TW_KINK_MARGIN)
