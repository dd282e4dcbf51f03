"""Pure NumPy chain integrator and front scan; reference implementation.

The hand-written C core in _chain_core.c is the same algorithm with the same
floating-point operation order (compiled with fused multiply-adds disabled),
so trajectories from the two backends agree bit for bit. run_chain here makes
three passes per step: kick-drift, force, closing half-kick. The C core fuses
each closing half-kick with the next step's kick-drift into one pass over
the sites; every element still takes v = (v + hdt F) f2, then
v = f1 v + hdt F and u = u + dt v, in this order, so nothing is rounded
differently. On a chain of more than the core's TILE interior sites it also
takes those fused steps in blocks of up to DEPTH, one TILE-site tile at a
time, each stepped in a buffer with ghost sites on either side; a ghost
recomputes its neighbour's operations exactly, so the tiled path is
bit-identical as well, and shorter chains keep the plain loop. Keep the
two in step: tests/test_backends.py checks the identity of run_chain and
front_scan on random and hand-built states, on both sides of the core's
tile and block edges.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def run_chain(u: np.ndarray, v: np.ndarray, mu: float, sigma: float,
              alpha: float, dt: float, n_steps: int) -> None:
    """Advance the damped chain in place by n_steps of velocity Verlet.

    Sites 0 and N stay frozen at their initial values. The damping enters
    through the standard factorization: half kicks scaled by
    f1 = 1 - alpha dt / 2 and f2 = 1 / (1 + alpha dt / 2). Raises
    ValueError for a negative n_steps.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be non-negative, got {n_steps}")
    hdt = 0.5 * dt
    f1 = 1.0 - alpha * hdt
    f2 = 1.0 / (1.0 + alpha * hdt)
    vi = v[1:-1]
    F = _force(u, mu, sigma)
    for _ in range(n_steps):
        vi *= f1
        vi += hdt * F
        u[1:-1] += dt * vi
        F = _force(u, mu, sigma)
        vi += hdt * F
        vi *= f2


def front_scan(u: np.ndarray) -> tuple[int, int, float]:
    """(first, count, max_abs) of a 1-D float64 chain state u.

    first is the leftmost site n with u_n > 0 >= u_{n+1}, or -1 if there is
    none; count is the number of such sites; max_abs is max |u|, NaN if any
    site is NaN. Raises ValueError for an empty u.
    """
    hits = np.nonzero((u[:-1] > 0.0) & (u[1:] <= 0.0))[0]
    first = int(hits[0]) if len(hits) else -1
    return first, len(hits), float(np.max(np.abs(u)))


def _force(u: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    lap = (u[2:] - 2.0 * u[1:-1]) + u[:-2]
    phip = (u[1:-1] + 1.0) - 2.0 * (u[1:-1] > 0.0)
    return lap + mu * (sigma - phip)
