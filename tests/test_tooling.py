"""The benchmark harness's view of the package stays in step with it."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    """A perfbench module, loaded by path: perfbench is not a package.

    It is registered in sys.modules first, where dataclasses look up the
    module of a class they build.
    """
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (span name, module, attribute, work count) as the tracer reads them
SPANS = _load("tracing").SPANS
WORKLOADS = _load("workloads")
BENCHMARKED = [w["name"] for w in
               json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("module, attr", [span[1:3] for span in SPANS],
                         ids=[span[0] for span in SPANS])
def test_traced_function_resolves(module, attr):
    # the tracer wraps a module function, or a method found in its class's
    # own namespace; a renamed function would break only a traced run
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[attr])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", BENCHMARKED + ["smoke"])
def test_workload_builds(name):
    ops = WORKLOADS.build(name, seed=1)
    assert ops and {op.kind for op in ops} <= {"task", "check"}


@pytest.mark.parametrize("wave", ["wave_v02", "wave_v05"])
def test_benchmark_checks_pass(wave, request):
    # the benchmark's own correctness checks, on the suite's reference waves:
    # both kernel routes, and the travelling-wave equation off the plateau
    w = request.getfixturevalue(wave)
    rng = np.random.default_rng(1)
    assert WORKLOADS.routes_agree(w)
    points = WORKLOADS.off_kink_points(rng, w.z, WORKLOADS.TW_POINTS)
    assert WORKLOADS.tw_residual(w, points) <= WORKLOADS.TW_TOL
