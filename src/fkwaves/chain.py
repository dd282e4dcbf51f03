"""Direct integration of the driven chain and front classification.

The damped chain

    d2u/dt2 + alpha du/dt = u_{n+1} - 2 u_n + u_{n-1} + mu (sigma - Phi'(u_n))

is integrated by damped velocity Verlet with the outermost sites frozen,
either from a two-state Riemann initial condition or from a reconstructed
traveling wave. The front position over time classifies the long-run
behavior as Steady or Trapped; bisection over sigma locates the dynamic
depinning threshold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._backend import BACKEND, front_scan, run_chain
from .dispersion import bisect_change
from .errors import Inconclusive, NoFront, NumericBlowup, ProfileRange
from .newwave import WaveSolution
from .params import ModelParams

# front must sit this many sites away from the end for a trusted record
EDGE_GUARD = 50
# minimum trailing-fit slope that counts as steady motion (sites per time)
V_MIN = 1e-3
# a steady front must also advance this many sites over the last tenth
RECENT_SITES = 2
# shortest usable record when the front leaves early
MIN_FIT_TIME = 300.0
# front positions are recorded this often
RECORD_DT = 1.0
BLOWUP_LIMIT = 1e6

__all__ = [
    "BACKEND", "ChainState", "SimOutcome", "SweepResult", "phi", "phi_prime",
    "energy", "peierls_stress", "init_riemann", "init_from_wave",
    "front_position", "step", "run_and_classify", "sweep_dynamic_threshold",
]


def phi_prime(u):
    """Piecewise-linear force law: u + 1 below the spinodal point, u - 1 above.

    The convention at the spinodal value itself is Phi'(0) = 1.
    """
    u = np.asarray(u, float)
    return (u + 1.0) - 2.0 * (u > 0.0)


def phi(u):
    """On-site potential, continuous across the corner: Phi(0) = 1/2."""
    u = np.asarray(u, float)
    return np.where(u > 0.0, 0.5 * (u - 1.0) ** 2, 0.5 * (u + 1.0) ** 2)


def peierls_stress(params: ModelParams) -> float:
    """Static depinning threshold sqrt(mu / (4 + mu))."""
    return float(np.sqrt(params.mu / (4.0 + params.mu)))


@dataclass
class ChainState:
    """Chain of N + 1 sites; sites 0 and N stay frozen during integration."""

    u: np.ndarray
    v: np.ndarray
    t: float
    params: ModelParams
    sigma: float

    @property
    def N(self) -> int:
        return len(self.u) - 1


@dataclass(frozen=True)
class SimOutcome:
    classification: str  # "Steady" | "Trapped" | "Inconclusive"
    velocity: float
    sigma: float
    times: np.ndarray
    fronts: np.ndarray
    state: ChainState
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    sigma_D: float
    bracket: tuple[float, float]
    history: tuple[tuple[float, str], ...]


def energy(state: ChainState) -> float:
    """Total energy: kinetic + bond + on-site, with the -sigma u work term.

    Conserved exactly by the undamped dynamics; the integrator keeps it
    within an O(dt^2) band.
    """
    u, v = state.u, state.v
    mu, sigma = state.params.mu, state.sigma
    kin = 0.5 * float(v @ v)
    bonds = np.diff(u)
    spring = 0.5 * float(bonds @ bonds)
    onsite = float(np.sum(mu * (phi(u) - sigma * u)))
    return kin + spring + onsite


def init_riemann(N: int, params: ModelParams, sigma: float,
                 n0: int | None = None) -> ChainState:
    """Two-state initial condition: upper equilibrium left of n0, lower right.

    The front starts at site n0 - 1 with all velocities zero.
    """
    if not np.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if n0 is None:
        n0 = N // 2
    if not 0 < n0 < N:
        raise ValueError("n0 must be an interior site")
    u = np.empty(N + 1)
    u[:n0] = sigma + 1.0
    u[n0:] = sigma - 1.0
    return ChainState(u=u, v=np.zeros(N + 1), t=0.0, params=params,
                      sigma=sigma)


def init_from_wave(wave: WaveSolution, N: int,
                   n0: int | None = None) -> ChainState:
    """Sample a traveling wave onto the chain, front at site n0.

    u_n = u(n - n0) and v_n = -V u'(n - n0). Raises ProfileRange when the
    wave (plateau plus decaying tails) does not fit between the frozen ends.
    """
    if n0 is None:
        n0 = N // 2
    span = wave.z + 45.0
    if n0 - span < 0 or n0 + span > N:
        raise ProfileRange(
            f"wave spans +-{span:.0f} sites around n0={n0}, chain has "
            f"[0, {N}]")
    xi = np.arange(N + 1, dtype=float) - n0
    u = wave.evaluate(xi, method="residue")
    v = -wave.V * wave.derivative(xi, method="residue")
    return ChainState(u=u, v=v, t=0.0, params=wave.params, sigma=wave.sigma)


_NO_FRONT = "no site satisfies u_n > 0 >= u_{n+1}"


def front_position(u: np.ndarray) -> int:
    """Leftmost site n with u_n > 0 and u_{n+1} <= 0; NoFront if none."""
    first = front_scan(np.ascontiguousarray(u, dtype=float))[0]
    if first < 0:
        raise NoFront(_NO_FRONT)
    return first


def step(state: ChainState, dt: float, n_steps: int = 1) -> ChainState:
    """Advance the state in place by n_steps of size dt; returns the state.

    Raises ValueError, with the state untouched, for a negative n_steps.
    """
    run_chain(state.u, state.v, state.params.mu, state.sigma,
              state.params.alpha, dt, n_steps)
    state.t += n_steps * dt
    return state


def run_and_classify(state: ChainState, T: float,
                     dt: float = 0.01) -> SimOutcome:
    """Integrate to time T tracking the front, then classify the motion.

    Steady: the least-squares slope of the trailing quarter of the front
    record exceeds V_MIN and the front advanced more than RECENT_SITES over
    the final tenth. Trapped: neither, with the full record available.
    Inconclusive: the front came within EDGE_GUARD of the frozen end before
    enough record accumulated to fit a velocity (MIN_FIT_TIME); with a long
    enough record the truncated trajectory is classified normally, since a
    front that marches off the end is the Steady outcome showing itself.
    Raises ValueError unless dt > 0, a record's RECORD_DT / dt steps fit
    run_chain's step count, and T spans at least four records, so that the
    trailing quarter holds two.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not RECORD_DT / dt < sys.maxsize:
        raise ValueError(f"dt = {dt} is too small: a front record of "
                         f"{RECORD_DT:g} would take more than {sys.maxsize} "
                         "steps")
    sub = max(1, int(round(RECORD_DT / dt)))
    records = T / (sub * dt)
    if not 4.0 <= records < np.inf:
        raise ValueError(
            f"T = {T} must be finite and span at least 4 front records of "
            f"{sub * dt:g} for the velocity fit")
    n_rec = int(records)
    times = [state.t]
    fronts = [front_position(state.u)]
    flags: set[str] = set()
    exited = False
    for _ in range(n_rec):
        step(state, dt, sub)
        nu, n_fronts, m = front_scan(state.u)
        if not math.isfinite(m) or m > BLOWUP_LIMIT:
            raise NumericBlowup(f"|u| reached {m:.1e} at t={state.t:.1f}")
        if nu < 0:
            raise NoFront(_NO_FRONT)
        times.append(state.t)
        fronts.append(nu)
        if n_fronts > 1:
            flags.add("MULTIFRONT")
        if nu > state.N - EDGE_GUARD:
            exited = True
            flags.add("EDGE")
            break
    times_a = np.array(times)
    fronts_a = np.array(fronts, float)
    elapsed = times_a[-1] - times_a[0]
    if exited and elapsed < MIN_FIT_TIME:
        return SimOutcome("Inconclusive", np.nan, state.sigma, times_a,
                          fronts_a, state, tuple(sorted(flags)))
    tail = times_a >= times_a[-1] - 0.25 * elapsed
    # shift the time origin; raw times of long runs condition the fit badly
    slope = float(np.polyfit(times_a[tail] - times_a[tail][0],
                             fronts_a[tail], 1)[0])
    recent = times_a >= times_a[-1] - 0.1 * elapsed
    moved = fronts_a[-1] - fronts_a[recent][0]
    if slope > V_MIN and moved > RECENT_SITES:
        return SimOutcome("Steady", slope, state.sigma, times_a, fronts_a,
                          state, tuple(sorted(flags)))
    if exited:
        # reached the edge without steady trailing motion: call it undecided
        return SimOutcome("Inconclusive", np.nan, state.sigma, times_a,
                          fronts_a, state, tuple(sorted(flags)))
    return SimOutcome("Trapped", 0.0, state.sigma, times_a, fronts_a,
                      state, tuple(sorted(flags)))


def sweep_dynamic_threshold(params: ModelParams, sigma_lo: float,
                            sigma_hi: float, N: int = 1000,
                            T: float = 2000.0, dt: float = 0.01,
                            tol: float = 2e-3) -> SweepResult:
    """Bisect sigma between a Trapped and a Steady Riemann run.

    bisect_change narrows [sigma_lo, sigma_hi] to width tol, keeping a
    Trapped run at the lower end and a Steady one at the upper; sigma_D is
    the midpoint, and history lists every run in order. Every run must
    classify cleanly; an Inconclusive run aborts the sweep by raising
    Inconclusive (increase N or T and retry). Requires the initial
    endpoints to bracket: lo Trapped, hi Steady.
    """
    history: list[tuple[float, str]] = []

    def classify(s: float) -> str:
        out = run_and_classify(init_riemann(N, params, s), T, dt)
        history.append((s, out.classification))
        if out.classification == "Inconclusive":
            raise Inconclusive(
                f"run at sigma={s:.6f} ended Inconclusive (front reached "
                f"the edge guard); N={N} T={T} too small")
        return out.classification

    lo, hi = float(sigma_lo), float(sigma_hi)
    c_lo = classify(lo)
    c_hi = classify(hi)
    if c_lo != "Trapped" or c_hi != "Steady":
        raise ValueError(
            f"endpoints do not bracket the threshold: sigma={lo} is {c_lo}, "
            f"sigma={hi} is {c_hi}")
    lo, hi = bisect_change(classify, lo, hi, "Trapped", tol)
    return SweepResult(sigma_D=0.5 * (lo + hi), bracket=(lo, hi),
                       history=tuple(history))
