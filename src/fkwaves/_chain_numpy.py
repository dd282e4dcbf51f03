"""Pure NumPy chain integrator; reference implementation.

The hand-written C core in _chain_core.c is the same algorithm with the same
floating-point operation order (compiled with fused multiply-adds disabled),
so trajectories from the two backends agree bit for bit. Keep the two in
step: tests/test_backends.py checks the identity on random states.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def run_chain(u: np.ndarray, v: np.ndarray, mu: float, sigma: float,
              alpha: float, dt: float, n_steps: int) -> None:
    """Advance the damped chain in place by n_steps of velocity Verlet.

    Sites 0 and N stay frozen at their initial values. The damping enters
    through the standard factorization: half kicks scaled by
    f1 = 1 - alpha dt / 2 and f2 = 1 / (1 + alpha dt / 2).
    """
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


def _force(u: np.ndarray, mu: float, sigma: float) -> np.ndarray:
    lap = (u[2:] - 2.0 * u[1:-1]) + u[:-2]
    phip = (u[1:-1] + 1.0) - 2.0 * (u[1:-1] > 0.0)
    return lap + mu * (sigma - phip)
