"""Spans around fkwaves' public functions, recorded from outside the package.

``Tracer.install`` replaces each function or method named in ``SPANS`` with a
wrapper that records one span per call: its name, the span that was open when
it started (its cause), start and end on ``time.perf_counter``, and a work
count taken from the call's arguments or result. Functions are replaced in
every module that holds them, since the package's modules import each other's
functions by name. Spans stay in memory until the run ends. Timed runs install
no wrappers.

A span's self time is its duration minus the time its child spans cover, so
the self times of all spans add up to the time spent under any span, and work
done by a function that has no span of its own counts towards the nearest
traced caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

import numpy as np


def _size(i: int) -> Callable:
    return lambda args, kwargs, result: int(np.size(args[i]))


def _site_steps(args, kwargs, result) -> int:
    n_steps = args[2] if len(args) > 2 else kwargs.get("n_steps", 1)
    return len(args[0].u) * int(n_steps)


# (span name, module, attribute, work count or None)
SPANS = [
    ("dispersion.root_set", "fkwaves.dispersion", "root_set", None),
    ("dispersion.is_resonant", "fkwaves.dispersion", "is_resonant", None),
    ("quadrature.tail_integral", "fkwaves.quadrature", "tail_integral",
     _size(0)),
    ("acwave.KernelQuadrature", "fkwaves.acwave", "KernelQuadrature.__init__",
     None),
    ("acwave.KernelQuadrature.q", "fkwaves.acwave", "KernelQuadrature.q",
     _size(1)),
    ("acwave.KernelQuadrature.U", "fkwaves.acwave", "KernelQuadrature.U",
     _size(1)),
    ("acwave.U_profile", "fkwaves.acwave", "U_profile", _size(0)),
    ("acwave.kernel_q", "fkwaves.acwave", "kernel_q", _size(0)),
    ("acwave.sigma_AC", "fkwaves.acwave", "sigma_AC", None),
    ("acwave.ac_admissible", "fkwaves.acwave", "ac_admissible", None),
    ("newwave.kinetic_wave", "fkwaves.newwave", "kinetic_wave", None),
    ("newwave.find_z", "fkwaves.newwave", "find_z",
     lambda args, kwargs, result: len(result)),
    ("newwave.solve_shape", "fkwaves.newwave", "solve_shape", None),
    # work: 1 when the assembled plateau wave is admissible
    ("newwave.assemble_wave", "fkwaves.newwave", "assemble_wave",
     lambda args, kwargs, result: int(result.admissible and result.z > 0)),
    ("newwave.check_generalized", "fkwaves.newwave", "check_generalized",
     None),
    ("newwave.WaveSolution.evaluate", "fkwaves.newwave",
     "WaveSolution.evaluate", _size(1)),
    ("newwave.WaveSolution.derivative", "fkwaves.newwave",
     "WaveSolution.derivative", _size(1)),
    ("bifurcation.threshold_V0", "fkwaves.bifurcation", "threshold_V0", None),
    ("bifurcation.kernel_jet", "fkwaves.bifurcation", "kernel_jet", None),
    ("chain.init_from_wave", "fkwaves.chain", "init_from_wave", None),
    ("chain.step", "fkwaves.chain", "step", _site_steps),
    ("chain.run_and_classify", "fkwaves.chain", "run_and_classify", None),
    ("chain.sweep_dynamic_threshold", "fkwaves.chain",
     "sweep_dynamic_threshold", None),
]

# one span record: name, parent index (-1 at top level), start, end,
# time covered by child spans, work count
NAME, PARENT, START, END, CHILD, WORK = range(6)


class Tracer:
    """Records spans in memory; installed for the rest of the process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    rec[WORK] = work(args, kwargs, result)
                return result
            finally:
                stack.pop()
                rec[END] = clock()
                if rec[PARENT] >= 0:
                    spans[rec[PARENT]][CHILD] += rec[END] - rec[START]
        return traced

    def install(self, extra_modules: tuple[str, ...] = ()) -> None:
        """Wrap every entry of SPANS in fkwaves and in extra_modules."""
        for name, modname, attr, work in SPANS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, work))
                continue
            orig = getattr(module, attr)
            wrapper = self.wrap(name, orig, work)
            for modname2, mod in list(sys.modules.items()):
                if not (modname2 == "fkwaves"
                        or modname2.startswith("fkwaves.")
                        or modname2 in extra_modules):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, work count."""
        out: dict[str, dict] = {}
        for rec in self.spans:
            s = out.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0, "work": 0})
            dur = rec[END] - rec[START]
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - rec[CHILD]
            s["work"] += rec[WORK]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called `name` that ran inside a span called `ancestor`."""
        inside = [False] * len(self.spans)
        n = 0
        for i, rec in enumerate(self.spans):
            p = rec[PARENT]
            inside[i] = p >= 0 and (inside[p]
                                    or self.spans[p][NAME] == ancestor)
            n += inside[i] and rec[NAME] == name
        return n


def span_cost(calls: int = 20000) -> float:
    """Seconds a span adds to one call, measured on a no-op function."""
    def noop(x):
        return x

    traced = Tracer().wrap("noop", noop, None)
    best_plain = best_traced = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        best_plain = min(best_plain, t1 - t0)
        best_traced = min(best_traced, t2 - t1)
    return max(best_traced - best_plain, 0.0) / calls


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run; layers it did not reach read 0."""
    s = tracer.summary()

    def get(name: str, field: str) -> float:
        return s.get(name, {}).get(field, 0)

    q_pts = (get("acwave.KernelQuadrature.q", "work")
             + get("acwave.KernelQuadrature.U", "work"))
    q_s = (get("acwave.KernelQuadrature.q", "self_s")
           + get("acwave.KernelQuadrature.U", "self_s"))
    res_pts = get("acwave.U_profile", "work") + get("acwave.kernel_q", "work")
    res_s = get("acwave.U_profile", "self_s") + get("acwave.kernel_q", "self_s")
    candidates = get("newwave.find_z", "work")
    site_steps = get("chain.step", "work")
    step_s = get("chain.step", "self_s")
    return {
        "dispersion.root_set_s": get("dispersion.root_set", "self_s"),
        "dispersion.root_set_calls": get("dispersion.root_set", "calls"),
        "dispersion.is_resonant_s": get("dispersion.is_resonant", "self_s"),
        "quadrature.tail_integral_s": get("quadrature.tail_integral",
                                          "self_s"),
        "quadrature.tail_points": get("quadrature.tail_integral", "work"),
        "acwave.kernel_builds": get("acwave.KernelQuadrature", "calls"),
        "acwave.kernel_build_s": get("acwave.KernelQuadrature", "self_s"),
        "acwave.q_points": q_pts,
        "acwave.q_s": q_s,
        "acwave.q_points_per_s": _rate(q_pts, q_s),
        "acwave.residue_points": res_pts,
        "acwave.residue_s": res_s,
        "acwave.residue_points_per_s": _rate(res_pts, res_s),
        "acwave.sigma_ac_s": get("acwave.sigma_AC", "self_s"),
        "acwave.ac_admissible_s": get("acwave.ac_admissible", "self_s"),
        "newwave.find_z_s": get("newwave.find_z", "self_s"),
        "newwave.det_evals": tracer.count_under("acwave.KernelQuadrature.q",
                                                "newwave.find_z"),
        "newwave.candidates": candidates,
        "newwave.admissible_per_candidate": _rate(
            get("newwave.assemble_wave", "work"), candidates),
        "newwave.solve_shape_s": get("newwave.solve_shape", "self_s"),
        "newwave.assemble_wave_s": get("newwave.assemble_wave", "self_s"),
        "newwave.check_generalized_s": get("newwave.check_generalized",
                                           "self_s"),
        "newwave.evaluate_s": get("newwave.WaveSolution.evaluate", "self_s"),
        "newwave.derivative_s": get("newwave.WaveSolution.derivative",
                                    "self_s"),
        "bifurcation.threshold_V0_s": get("bifurcation.threshold_V0",
                                          "self_s"),
        "bifurcation.kernel_jet_s": get("bifurcation.kernel_jet", "self_s"),
        # the two chain task totals include their children
        "chain.init_from_wave_s": get("chain.init_from_wave", "total_s"),
        "chain.runs": get("chain.run_and_classify", "calls"),
        "chain.site_steps": site_steps,
        "chain.step_s": step_s,
        "chain.site_steps_per_s": _rate(site_steps, step_s),
        "chain.run_and_classify_s": get("chain.run_and_classify", "total_s"),
        "chain.classify_overhead_s": get("chain.run_and_classify", "self_s"),
    }
