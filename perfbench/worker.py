"""One round of one workload, in a fresh interpreter.

run.py starts this script once per round, and a few more times with
``--setup-only`` to sample set-up time. Set-up ends when fkwaves is imported
and the workload's inputs are generated; the script then issues the
workload's operations one after another and writes a JSON result to the path
given by ``--result``. With ``--trace 1`` the operations run under the span
tracer, and the result carries the per-layer metrics instead of timings that
a timed run would report.

    python3 perfbench/worker.py --workload onset --seed 1 --trace 0 \
        --result out.json [--trace-file trace.json] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import fkwaves  # set-up time includes this import
import numpy as np
import scipy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# NumPy fallback throughput on a fixed-size seeded chain, as in
# benchmarks/bench_chain.py
NUMPY_RATE_SITES = 2000
NUMPY_RATE_STEPS = 2500
NUMPY_RATE_REPEATS = 3


def run_ops(ops: list[workloads.Op]) -> list[dict]:
    """Issue the operations in order; a failed one is recorded, not fatal."""
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.fn()
            error = None if op.kind == "task" or bool(value) else "check failed"
        except Exception as exc:  # counted as a failed operation
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        records.append({"name": op.name, "kind": op.kind,
                        "seconds": time.perf_counter() - t0, "error": error})
        print(f"  {op.kind:5s} {'ok' if error is None else 'FAILED':6s} "
              f"{records[-1]['seconds']:8.3f} s  {op.name}", file=sys.stderr)
    return records


def environment() -> dict:
    """What the measurement ran on, for the report."""
    return {
        "backend": fkwaves.BACKEND,
        "FKWAVES_PURE_PYTHON": os.environ.get(fkwaves.PURE_ENV_VAR, ""),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def numpy_site_steps_per_s(seed: int) -> float:
    """Median throughput of the NumPy integrator on a seeded two-phase chain."""
    from fkwaves._chain_numpy import run_chain

    rng = np.random.default_rng(seed)
    n = NUMPY_RATE_SITES
    u0 = np.where(np.arange(n) < n // 2, 1.12, -0.88)
    u0 = u0 + 0.01 * rng.standard_normal(n)
    v0 = 0.01 * rng.standard_normal(n)
    v0[0] = v0[-1] = 0.0
    rates = []
    for _ in range(NUMPY_RATE_REPEATS):
        u, v = u0.copy(), v0.copy()
        t0 = time.perf_counter()
        run_chain(u, v, 1.0, 0.12, 0.05, 0.01, NUMPY_RATE_STEPS)
        rates.append(n * NUMPY_RATE_STEPS / (time.perf_counter() - t0))
    return float(np.median(rates))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if src not in Path(fkwaves.__file__).resolve().parents:
        print(f"fkwaves imported from {fkwaves.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed)
    setup_end = time.monotonic()
    result: dict = {"setup_end": setup_end}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_modules=("workloads",))
    t0 = time.perf_counter()
    records = run_ops(ops)
    wall = time.perf_counter() - t0
    result.update({
        "environment": environment(),
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": records,
    })
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        n_spans = len(tracer.spans)
        covered = sum(s["self_s"] for s in tracer.summary().values())
        layers.update({
            "chain.numpy_site_steps_per_s": numpy_site_steps_per_s(args.seed),
            "trace.wall_s": wall,
            "trace.spans": n_spans,
            "trace.overhead_s": n_spans * tracing.span_cost(),
            "trace.unattributed_s": wall - covered,
        })
        result["per_layer"] = layers
        if args.trace_file:
            write_trace(args.trace_file, args, tracer)
    Path(args.result).write_text(json.dumps(result))
    return 0


def write_trace(path: str, args, tracer: tracing.Tracer) -> None:
    """Spans (times relative to the first span) and per-name totals."""
    t0 = tracer.spans[0][tracing.START] if tracer.spans else 0.0
    spans = [[name, parent, round(start - t0, 7), round(end - start, 7),
              round(end - start - child, 7), work]
             for name, parent, start, end, child, work in tracer.spans]
    Path(path).write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "columns": ["name", "parent", "start_s", "duration_s", "self_s",
                    "work"],
        "summary": tracer.summary(),
        "spans": spans,
    }))


if __name__ == "__main__":
    sys.exit(main())
