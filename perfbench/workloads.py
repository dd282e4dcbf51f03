"""The benchmark's workloads: the tasks each one issues and the checks on them.

A workload is built in two steps. ``build(name, seed)`` does the input
generation, which counts towards set-up time; it returns the workload's
operations, in the order a single client issues them. Each operation is one
library task or one correctness check. A task stores its result for later
operations; a check returns True when the result holds. Every check compares
against an independent computation or a property of the method, never against
a saved copy of an earlier output.

The seed draws the points at which checks probe the results (plateau points,
travelling-wave-equation points) and, when a compiled integrator core is
active, the state of the backend bit-identity run. The tasks themselves are
fixed by the workload, so every seed issues the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fkwaves import (ModelParams, init_from_wave, init_riemann, kernel_jet,
                     kernel_q, kinetic_wave, peierls_stress, run_and_classify,
                     sigma_AC, sweep_dynamic_threshold, threshold_V0, z_linear)
from fkwaves import _backend, _chain_numpy

# Cross-validation grid of the acceptance suite, clear of the kernel jump at
# xi = 0 by at least 0.3.
XI_CROSS = np.array([-9.0, -6.5, -5.5, -3.3, -2.2, -1.0, -0.4, 0.3, 0.7,
                     1.0, 1.7, 2.2, 3.3, 4.5, 5.5, 6.5, 7.7, 8.5, 9.0, 10.0])
DUAL_ROUTE_TOL = 1e-6
# |u| on the plateau; the seed commit reaches 4.5e-6 at V = 0.2
PLATEAU_U_TOL = 1e-5
PLATEAU_POINTS = 16
# Travelling-wave equation residual with u'' a central difference of
# WaveSolution.derivative (residue route); about 1e-5 on the seed commit.
TW_TOL = 1e-4
TW_STEP = 1e-3
TW_POINTS = 16
# u'' is only piecewise smooth: its kinks sit at +-z + integers, so probe
# points keep this distance from them.
TW_KINK_MARGIN = 0.05
# The residue route converges slowly at small lags: within 0.3 of the
# plateau edge the residual reaches 3e-4 at V = 0.2, beyond 0.5 it stays
# below 1e-5. Probe points keep this distance from the edge.
TW_EDGE_GAP = 0.5
JUMP_TOL = 1e-6
# leading plateau width from the identity and fd jets, relative agreement
Z_LINEAR_REL_TOL = 1e-6
V0_ANCHOR, V0_TOL = 0.357, 0.005
Z02_ANCHOR, Z_TOL = 0.212, 0.01
SIGMA_D_ANCHOR, SIGMA_D_TOL = 0.128, 0.005
# sigma_AC at the measured front velocity of the sigma = 0.14 Riemann run
KINETIC_MATCH_TOL = 2e-3
SHAPE_MASS_TOL = 1e-12
BIT_IDENTITY_SITES = 400
BIT_IDENTITY_STEPS = 2000

MU1 = ModelParams(mu=1.0, alpha=0.0)
MU1_DAMPED = ModelParams(mu=1.0, alpha=0.1)


@dataclass(frozen=True)
class Op:
    """One operation of a workload: a library task or a correctness check."""

    name: str
    kind: str  # "task" | "check"
    fn: Callable[[], object]


def phi_prime(u: np.ndarray) -> np.ndarray:
    """Phi'(u) = u + 1 - 2 theta(u), theta(0) = 0, written out independently."""
    return u + 1.0 - 2.0 * (u > 0.0)


def off_kink_points(rng: np.random.Generator, z: float, n: int,
                    reach: float = 10.0) -> np.ndarray:
    """n points with z + TW_EDGE_GAP <= |xi| <= z + reach, off the kinks."""
    pts: list[float] = []
    while len(pts) < n:
        x = rng.choice((-1.0, 1.0)) * (z + rng.uniform(TW_EDGE_GAP, reach))
        if all(abs(x - c - round(x - c)) >= TW_KINK_MARGIN for c in (z, -z)):
            pts.append(x)
    return np.array(pts)


def tw_residual(wave, xi: np.ndarray) -> float:
    """max |V^2 u'' - (u(xi+1) - 2u(xi) + u(xi-1)) - mu (sigma - Phi'(u))|."""
    h = TW_STEP
    d2 = (wave.derivative(xi + h, method="residue")
          - wave.derivative(xi - h, method="residue")) / (2.0 * h)
    um, u0, up = wave.evaluate(np.concatenate([xi - 1.0, xi, xi + 1.0]),
                               method="residue").reshape(3, -1)
    rhs = up - 2.0 * u0 + um + wave.params.mu * (wave.sigma - phi_prime(u0))
    return float(np.max(np.abs(wave.V**2 * d2 - rhs)))


def routes_agree(wave) -> bool:
    a = wave.evaluate(XI_CROSS, method="residue")
    b = wave.evaluate(XI_CROSS, method="quad")
    return bool(np.max(np.abs(a - b)) <= DUAL_ROUTE_TOL)


def _set(r: dict, key: str, fn: Callable[[], object]) -> Callable[[], object]:
    def task() -> object:
        r[key] = fn()
        return r[key]
    return task


# ---------------------------------------------------------------------------
# plateau_wave: fkwaves wave --velocity 0.2, then simulate --ic wave
# ---------------------------------------------------------------------------

def plateau_wave(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    V, N, T = 0.2, 3000, 2000.0
    xi = np.linspace(-40.0, 40.0, 1601)
    plateau_frac = rng.uniform(-1.0, 1.0, PLATEAU_POINTS)
    r: dict = {}

    def wave_ok():
        w = r["wave"]
        return (w.branch == "new" and w.admissible
                and abs(w.z - Z02_ANCHOR) <= Z_TOL)

    def signs_ok():
        z, u = r["wave"].z, r["profile"]
        return bool(np.all(u[xi < -z] > 0.0) and np.all(u[xi > z] < 0.0))

    def plateau_flat():
        w = r["wave"]
        return bool(np.max(np.abs(w.evaluate(plateau_frac * w.z)))
                    <= PLATEAU_U_TOL)

    def tw_ok():
        w = r["wave"]
        return tw_residual(w, off_kink_points(rng, w.z, TW_POINTS)) <= TW_TOL

    return [
        Op("kinetic_wave(0.2)", "task", _set(r, "wave",
                                             lambda: kinetic_wave(V, MU1))),
        Op("branch new, admissible, z = 0.212", "check", wave_ok),
        Op("shape mass = 1", "check", lambda: abs(
            r["wave"].shape.mass() - 1.0) <= SHAPE_MASS_TOL),
        Op("|u| small on the plateau", "check", plateau_flat),
        Op("residue and quad routes agree", "check",
           lambda: routes_agree(r["wave"])),
        Op("profile on [-40, 40]", "task", _set(
            r, "profile", lambda: r["wave"].evaluate(xi, method="residue"))),
        Op("profile signs outside the plateau", "check", signs_ok),
        Op("travelling-wave equation outside the plateau", "check", tw_ok),
        Op("init_from_wave(N=3000)", "task", _set(
            r, "state", lambda: init_from_wave(r["wave"], N))),
        Op("run_and_classify(T=2000)", "task", _set(
            r, "outcome", lambda: run_and_classify(r["state"], T))),
        Op("seeded chain traps", "check",
           lambda: r["outcome"].classification == "Trapped"),
    ]


# ---------------------------------------------------------------------------
# onset: threshold velocity, kernel jets, classical waves above V0
# ---------------------------------------------------------------------------

NEAR_THRESHOLD_V = (0.33, 0.3375, 0.345, 0.35, 0.355)
CLASSICAL_V = (0.4, 0.5)


def onset(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    r: dict = {}
    ops = [
        Op("threshold_V0(alpha=0)", "task", _set(
            r, "V0", lambda: threshold_V0(MU1))),
        Op("V0 = 0.357", "check",
           lambda: abs(r["V0"] - V0_ANCHOR) <= V0_TOL),
        Op("residue kernel_q(0) changes sign across V0", "check",
           lambda: kernel_q(0.0, r["V0"] - 2e-3, MU1)
           * kernel_q(0.0, r["V0"] + 2e-3, MU1) < 0.0),
        Op("threshold_V0(alpha=0.1)", "task", _set(
            r, "V0_damped", lambda: threshold_V0(MU1_DAMPED))),
        Op("damping lowers V0", "check",
           lambda: r["V0_damped"] < r["V0"]),
    ]
    for V in NEAR_THRESHOLD_V:
        fd, ident = f"fd@{V}", f"identity@{V}"
        ops += [
            Op(f"kernel_jet(fd, V={V})", "task", _set(
                r, fd, lambda V=V: kernel_jet(V, MU1, method="fd"))),
            Op(f"kernel_jet(identity, V={V})", "task", _set(
                r, ident, lambda V=V: kernel_jet(V, MU1, method="identity"))),
            Op(f"fd slope jump = 2 mu / V^2 at V={V}", "check",
               lambda V=V, fd=fd: abs(
                   r[fd].q_plus - r[fd].q_minus - 2.0 * MU1.mu / V**2)
               <= JUMP_TOL),
            Op(f"fd and identity jets give one z_linear at V={V}", "check",
               lambda fd=fd, ident=ident: abs(
                   z_linear(r[fd]) - z_linear(r[ident]))
               <= Z_LINEAR_REL_TOL * abs(z_linear(r[ident]))),
        ]
    for V in CLASSICAL_V:
        key = f"wave@{V}"

        def tw_ok(key=key):
            w = r[key]
            return tw_residual(w, off_kink_points(rng, w.z, TW_POINTS)) \
                <= TW_TOL

        ops += [
            Op(f"kinetic_wave({V})", "task", _set(
                r, key, lambda V=V: kinetic_wave(V, MU1))),
            Op(f"classical branch at V={V}", "check",
               lambda key=key: r[key].branch == "ac"
               and r[key].admissible and r[key].z == 0.0),
            Op(f"residue and quad routes agree at V={V}", "check",
               lambda key=key: routes_agree(r[key])),
            Op(f"travelling-wave equation at V={V}", "check", tw_ok),
        ]
    return ops


# ---------------------------------------------------------------------------
# depinning: fkwaves threshold --dynamic, plus one Riemann run
# ---------------------------------------------------------------------------

def _compiled_core_active() -> bool:
    return _backend.run_chain is not _chain_numpy.run_chain


def bit_identity_state(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two-phase chain with noise, frozen ends, as the backend tests use."""
    half = BIT_IDENTITY_SITES // 2
    u = np.concatenate([1.0 + 0.1 * rng.standard_normal(half),
                        -1.0 + 0.1 * rng.standard_normal(half)])
    v = 0.05 * rng.standard_normal(u.size)
    v[0] = v[-1] = 0.0
    return u, v


def depinning(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    r: dict = {}
    tol = 2e-3

    def monotone():
        labels = [c for _, c in sorted(r["sweep"].history)]
        first_steady = labels.index("Steady")
        return (set(labels) <= {"Trapped", "Steady"}
                and all(c == "Steady" for c in labels[first_steady:]))

    def bracketed():
        s = r["sweep"]
        lo, hi = s.bracket
        return lo <= s.sigma_D <= hi and hi - lo <= tol

    def kinetic_match():
        out = r["riemann"]
        return (out.classification == "Steady"
                and abs(sigma_AC(out.velocity, MU1) - 0.14)
                <= KINETIC_MATCH_TOL)

    ops = [
        Op("sweep_dynamic_threshold([0.1, 0.2])", "task", _set(
            r, "sweep", lambda: sweep_dynamic_threshold(
                MU1, 0.1, 0.2, N=1000, T=2000.0, dt=0.01, tol=tol))),
        Op("classifications monotone in sigma", "check", monotone),
        Op("sigma_D inside a bracket no wider than tol", "check", bracketed),
        Op("sigma_D below the Peierls stress, sigma_D = 0.128", "check",
           lambda: r["sweep"].sigma_D < peierls_stress(MU1)
           and abs(r["sweep"].sigma_D - SIGMA_D_ANCHOR) <= SIGMA_D_TOL),
        Op("run_and_classify(riemann, sigma=0.14)", "task", _set(
            r, "riemann", lambda: run_and_classify(
                init_riemann(1000, MU1, 0.14), T=2000.0, dt=0.01))),
        Op("Steady, sigma_AC(velocity) = 0.14", "check", kinetic_match),
    ]
    if _compiled_core_active():
        u, v = bit_identity_state(rng)

        def identical():
            ua, va, ub, vb = u.copy(), v.copy(), u.copy(), v.copy()
            _chain_numpy.run_chain(ua, va, 1.0, 0.12, 0.05, 0.01,
                                   BIT_IDENTITY_STEPS)
            _backend.run_chain(ub, vb, 1.0, 0.12, 0.05, 0.01,
                               BIT_IDENTITY_STEPS)
            return np.array_equal(ua, ub) and np.array_equal(va, vb)

        ops.append(Op("compiled core bit-identical to NumPy", "check",
                      identical))
    return ops


# ---------------------------------------------------------------------------
# thresholds: onset, then depinning, in one interpreter
# ---------------------------------------------------------------------------

def thresholds(seed: int) -> list[Op]:
    """Both fkwaves threshold modes: cold kernels, then the integrator.

    On their own, onset (about 18 s) and depinning (about 32 s) are too short
    for a steady wall time on a host whose speed drifts by 15% over tens of
    seconds. Run back to back they measure about 50 s. No cache is shared:
    depinning calls no kernel code.
    """
    return onset(seed) + depinning(seed)


# ---------------------------------------------------------------------------
# smoke: seconds-long, for testing the harness itself
# ---------------------------------------------------------------------------

def smoke(seed: int) -> list[Op]:
    rng = np.random.default_rng(seed)
    V = 0.5
    r: dict = {}

    def tw_ok():
        w = r["wave"]
        return tw_residual(w, off_kink_points(rng, w.z, 4)) <= TW_TOL

    return [
        Op("kinetic_wave(0.5)", "task", _set(r, "wave",
                                             lambda: kinetic_wave(V, MU1))),
        Op("classical branch", "check", lambda: r["wave"].branch == "ac"),
        Op("residue and quad routes agree", "check",
           lambda: routes_agree(r["wave"])),
        Op("travelling-wave equation", "check", tw_ok),
        Op("run_and_classify(riemann, N=200)", "task", _set(
            r, "riemann", lambda: run_and_classify(
                init_riemann(200, MU1, 0.14), T=50.0, dt=0.01))),
        Op("front moved", "check",
           lambda: r["riemann"].fronts[-1] > r["riemann"].fronts[0]),
    ]


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "plateau_wave": plateau_wave,
    "thresholds": thresholds,
    "onset": onset,
    "depinning": depinning,
    "smoke": smoke,
}


def build(name: str, seed: int) -> list[Op]:
    """Inputs and operations of one workload; raises KeyError on a bad name."""
    return WORKLOADS[name](seed)

