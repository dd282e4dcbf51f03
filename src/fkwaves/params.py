"""Model parameters of the driven chain.

The chain obeys

    u_n'' + alpha u_n' = u_{n+1} - 2 u_n + u_{n-1} + mu (sigma - Phi'(u_n))

with the piecewise quadratic substrate potential

    Phi(u) = (u + 1)^2 / 2   for u <= 0,
    Phi(u) = (u - 1)^2 / 2   for u >= 0,

so Phi'(u) = u + 1 - 2 theta(u) with the convention theta(0) = 0. mu is the
substrate coupling, alpha the viscous damping, and sigma the applied force.
sigma is not part of ModelParams because traveling-wave constructions treat it
as an output (the kinetic relation) rather than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ModelParams:
    """Coupling and damping of the chain; immutable and hashable."""

    mu: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(
                f"alpha must be nonnegative and finite, got {self.alpha}")
        # normalize ints etc. so caching keys compare reliably
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "alpha", float(self.alpha))
