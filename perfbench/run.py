"""fkwaves benchmark: end-to-end and per-layer metrics of its workloads.

    python3 perfbench/run.py --workload plateau_wave --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout. The script first runs the repository's own
in-place extension build (``python3 setup.py build_ext --inplace``), whose
time counts towards no metric. It then measures whole rounds of the workload,
each in a fresh interpreter (perfbench/worker.py) with an empty
FKWAVES_CACHE_DIR, until ``--seconds`` have passed; a round that starts always
finishes. Timed runs (``--trace 0``) report the median ``wall_s`` and
``peak_rss_mib`` over their rounds, and the median ``setup_s`` over the rounds
and a few extra interpreters that only set up. Traced runs (``--trace 1``)
report the per-layer metrics instead. ``--workload all`` runs every workload
in BENCHMARK.json and prints one result line for each.

The last line on standard output is the result as JSON: ``correct``,
``attempted``, ``failed`` and ``metrics``. Progress goes to standard error; a
report with the environment and every operation goes to
``.perfbench_out/report-<workload>-trace<0|1>.json`` and the spans of a traced
run to ``.perfbench_out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# a run must end within this many seconds of its start, build excluded
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
# runnable by name but not in BENCHMARK.json: the two halves of thresholds,
# and the harness's own smoke test
OTHER_WORKLOADS = ("onset", "depinning", "smoke")
BUILD_TIMEOUT_S = 840.0


class BenchError(Exception):
    """The benchmark could not measure; nothing is printed on stdout."""


def check_checkout() -> dict:
    """BENCHMARK.json, after checking that ROOT is an fkwaves checkout."""
    for rel in ("src/fkwaves/__init__.py", "setup.py", "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            raise BenchError(f"{ROOT} is not an fkwaves checkout: {rel} "
                             "is missing")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_extension() -> None:
    """The repository's in-place build; a compiled core it makes is used."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / "build.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, "setup.py", "build_ext", "--inplace"],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"in-place build failed, see {OUT / 'build.log'}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".so"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def worker_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env["FKWAVES_CACHE_DIR"] = cache_dir
    return env


def spawn(workload: str, seed: int, trace: int, deadline: float,
          setup_only: bool = False) -> dict:
    """One worker interpreter; returns its result plus setup_s."""
    with tempfile.TemporaryDirectory(dir=OUT, prefix="round-") as tmp:
        cache = Path(tmp) / "cache"
        cache.mkdir()
        result_path = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--result", str(result_path)]
        if trace:
            cmd += ["--trace-file", str(OUT / f"trace-{workload}.json")]
        if setup_only:
            cmd.append("--setup-only")
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(str(cache)),
                                stdout=sys.stderr, stderr=sys.stderr)
        try:
            code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"{workload} round passed the run's deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not result_path.is_file():
            raise BenchError(f"{workload} worker exited with code {code}")
        result = json.loads(result_path.read_text())
    result["setup_s"] = result["setup_end"] - start
    return result


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Whole rounds until `seconds` have passed; the aggregated result."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    rounds = []
    while True:
        t = time.monotonic()
        rounds.append(spawn(workload, seed, trace, deadline))
        now = time.monotonic()
        # stop once measured long enough, or if another round would overrun
        if now - start >= seconds or now + (now - t) > deadline:
            break
    setups = [r["setup_s"] for r in rounds]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, 0, deadline,
                                setup_only=True)["setup_s"])
    ops = [op for r in rounds for op in r["ops"]]
    agg = {
        "correct": not any(op["error"] == "check failed" for op in ops),
        "attempted": len(ops),
        "failed": sum(op["error"] is not None for op in ops),
        "rounds": len(rounds),
        "environment": rounds[0]["environment"],
        "ops": ops,
    }
    if trace:
        agg["values"] = {name: statistics.median(r["per_layer"][name]
                                                 for r in rounds)
                         for name in rounds[0]["per_layer"]}
    else:
        agg["values"] = {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in rounds),
        }
        agg["setup_samples"] = setups
    return agg


def result_line(agg: dict, declared: list[dict]) -> dict:
    """The declared metrics, each with its unit, in BENCHMARK.json's order."""
    missing = [m["name"] for m in declared if m["name"] not in agg["values"]]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {
        "correct": agg["correct"],
        "attempted": agg["attempted"],
        "failed": agg["failed"],
        "metrics": {m["name"]: {"value": agg["values"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    help="a workload of BENCHMARK.json, or all (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        bench = check_checkout()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload == "all":
            chosen = names
        elif args.workload in names or args.workload in OTHER_WORKLOADS:
            chosen = [args.workload]
        else:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(names + list(OTHER_WORKLOADS))} or all")
        seconds = (args.seconds if args.seconds is not None
                   else bench["run_seconds"])
        build_extension()
        declared = bench["per_layer" if args.trace else "end_to_end"]
        ident = {"git_sha": git_sha(), "source_sha256": source_digest()}
        lines = []
        for name in chosen:
            print(f"{name}: seed {args.seed}, trace {args.trace}",
                  file=sys.stderr)
            agg = measure(name, args.seed, seconds, args.trace)
            line = result_line(agg, declared)
            (OUT / f"report-{name}-trace{args.trace}.json").write_text(
                json.dumps({"workload": name, "seed": args.seed,
                            "seconds": seconds, **ident, **agg,
                            "result": line}, indent=1))
            lines.append(line if len(chosen) == 1
                         else {"workload": name, **line})
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
