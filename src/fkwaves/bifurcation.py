"""Threshold velocity and small-plateau expansion of the new branch.

The classical kink loses admissibility where the kernel value q(0) changes
sign; that velocity V0 is the bifurcation point of the z > 0 branch. Near
V0 the plateau is narrow and the shape function collapses onto its
endpoints, so z and the endpoint masses follow in closed form from the jet
of the kernel at 0: the value q(0), the one-sided slopes q'(0+) and q'(0-)
(q is continuous at 0 but kinked), and the shared quadratic coefficient.
Those numbers come from exact advance-delay identities, so no numerical
differentiation enters the default path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acwave import quad_kernel, sigma_AC
from .dispersion import (
    bisect_change,
    eval_Lk,
    real_roots,
    resonance_velocities,
)
from .errors import NoPositiveRoot, NoSignChange, RegimeMismatch
from .newwave import ShapeFunction
from .params import ModelParams

# bisection width for the threshold velocity
V0_TOL = 1e-5
# scan resolution used to bracket the q(0) sign change
V0_SCAN_POINTS = 60
# upper end of that scan
V0_SCAN_MAX = 1.2
# margin kept between scan endpoints and a resonance
RESONANCE_MARGIN = 2e-3
# a quartic root with a smaller relative imaginary part counts as real
QUARTIC_IMAG_TOL = 1e-8
FD_STEP = 1e-3


@dataclass(frozen=True)
class KernelJet:
    """Jet of the kernel q at the origin.

    q0 is q(0); q_plus / q_minus are the one-sided slopes q'(0+) / q'(0-);
    q2 is the quadratic coefficient shared by both sides:
    q(xi) ~ q0 + q'(0+-) xi + q2 xi^2 near 0.
    """

    V: float
    q0: float
    q_plus: float
    q_minus: float
    q2: float


def kernel_jet(V: float, params: ModelParams,
               method: str = "identity") -> KernelJet:
    """Kernel jet at xi = 0 by one of three routes.

    "identity" (default) evaluates exact advance-delay identities with
    quadrature kernel values: the governing equation at the corner gives

        V^2 q'(0+) = alpha V q(0) - U(1) - U(-1) - mu (sigma - 1)
        q'(0+) - q'(0-) = 2 mu / V^2
        2 V^2 q2 = alpha V (q'(0+)+q'(0-))/2 + q(1) - (2+mu) q(0) + q(-1)

    "closed" uses the single-real-root closed form (valid above the first
    resonance only, RegimeMismatch below); "fd" estimates the one-sided
    slopes by polynomial extrapolation as an independent cross-check.
    """
    if method == "identity":
        return _jet_identity(V, params)
    if method == "closed":
        return _jet_closed(V, params)
    if method == "fd":
        return _jet_fd(V, params)
    raise ValueError(f"unknown jet method {method!r}")


def _jet_identity(V: float, params: ModelParams) -> KernelJet:
    mu, alpha = params.mu, params.alpha
    qk = quad_kernel(V, params)
    q0 = _q0_of_V(V, params)
    U1, Um1 = qk.U(np.array([1.0, -1.0]))
    q_plus = (alpha * V * q0 - (U1 + Um1) - mu * (qk.sigma - 1.0)) / V**2
    q_minus = q_plus - 2.0 * mu / V**2
    q1, qm1 = qk.q(np.array([1.0, -1.0]))
    q2 = (alpha * V * 0.5 * (q_plus + q_minus)
          + q1 - (2.0 + mu) * q0 + qm1) / (2.0 * V**2)
    return KernelJet(V=V, q0=q0, q_plus=float(q_plus),
                     q_minus=float(q_minus), q2=float(q2))


def _jet_closed(V: float, params: ModelParams) -> KernelJet:
    """Single-root closed form; requires exactly one real root pair."""
    if params.alpha != 0.0:
        raise RegimeMismatch("closed form requires alpha = 0")
    mu = params.mu
    roots = real_roots(V, params)
    if roots.size != 1:
        raise RegimeMismatch(
            f"closed form needs a single real root pair, found {roots.size}; "
            "V is below the first resonance")
    r = roots[0]
    lk = eval_Lk(r, V, params)
    base = _jet_identity(V, params)
    s = 4.0 * mu * np.cos(r) / (r * lk)
    sig = sigma_AC(V, params)
    q_plus = (mu - sig * (2.0 + mu) - s) / V**2
    q_minus = (-mu - sig * (2.0 + mu) - s) / V**2
    return KernelJet(V=V, q0=base.q0, q_plus=q_plus, q_minus=q_minus,
                     q2=base.q2)


def _jet_fd(V: float, params: ModelParams) -> KernelJet:
    """One-sided polynomial extrapolation; cross-check route only.

    Fits a cubic through q on 0 and four one-sided offsets; the linear and
    quadratic fit coefficients estimate q'(0+-) and q2.
    """
    qk = quad_kernel(V, params)
    q0 = _q0_of_V(V, params)

    def one_sided(sign: float) -> tuple[float, float]:
        h = FD_STEP
        x = sign * np.array([0.0, h, 2 * h, 3 * h, 4 * h])
        v = qk.q(x)
        v[0] = q0
        c = np.polyfit(x, v, 3)
        return float(c[2]), float(c[1])

    qp, ap = one_sided(+1.0)
    qm, am = one_sided(-1.0)
    return KernelJet(V=V, q0=q0, q_plus=qp, q_minus=qm,
                     q2=0.5 * (ap + am))


def _q0_of_V(V: float, params: ModelParams) -> float:
    return float(quad_kernel(V, params).q(np.zeros(1))[0])


def scan_velocities(params: ModelParams) -> np.ndarray:
    """threshold_V0's V0_SCAN_POINTS velocities, ascending to V0_SCAN_MAX
    from RESONANCE_MARGIN above the largest resonance for alpha = 0 and
    from 0.05 otherwise (damping removes the resonances)."""
    if params.alpha == 0.0:
        lo = resonance_velocities(params)[0][0] + RESONANCE_MARGIN
    else:
        lo = 0.05
    return np.linspace(lo, V0_SCAN_MAX, V0_SCAN_POINTS)


def threshold_V0(params: ModelParams, tol: float = V0_TOL) -> float:
    """Bifurcation velocity: the zero of q(0) along the classical branch.

    Walks scan_velocities down from V0_SCAN_MAX for a sign change of
    q(0), stops at the first one, the change at the largest velocity, and
    narrows it by bisect_change to width tol; the midpoint is returned.
    Damped chains keep remnant q(0) oscillations near former resonances at
    low V; those zeros are not the admissibility boundary, which is why the
    top change wins, and the scan never builds a kernel below its bracket.
    Raises NoSignChange when q(0) keeps one sign over the whole window,
    which happens at large damping.
    """
    vs = scan_velocities(params)
    above = _q0_of_V(vs[-1], params)
    for i in range(vs.size - 2, -1, -1):
        val = _q0_of_V(vs[i], params)
        if val * above < 0:
            a, b = bisect_change(lambda v: np.sign(_q0_of_V(v, params)),
                                 vs[i], vs[i + 1], np.sign(val), tol)
            return 0.5 * (a + b)
        above = val
    raise NoSignChange(
        f"q(0) does not change sign on [{vs[0]:.4f}, {V0_SCAN_MAX}] "
        f"(mu={params.mu}, alpha={params.alpha})")


def z_linear(jet: KernelJet) -> float:
    """Leading-order plateau half-width from the kernel jet."""
    return jet.q0 * (jet.q_plus - jet.q_minus) / (2.0 * jet.q_plus
                                                  * jet.q_minus)


def shape_linear(jet: KernelJet) -> ShapeFunction:
    """Leading-order shape: two endpoint masses, no continuous part."""
    z = z_linear(jet)
    den = jet.q_minus - jet.q_plus
    return ShapeFunction(s=np.array([-z, z]),
                         a=np.array([jet.q_minus / den, -jet.q_plus / den]))


def z_quartic(jet: KernelJet) -> float:
    """Next-order z: smallest positive root of the quartic correction.

    The quartic in z (ascending coefficients)

        c0 + c1 z + c2 z^2 + c3 z^3 + c4 z^4 = 0,
        c0 = (q+ - q-) q0,          c1 = 4 q2 q0 - 2 q+ q-,
        c2 = 4 q2 (q+ - q-),        c3 = 32 q2^2 / 3,
        c4 = 32 q2^3 / (3 (q+ - q-)),

    reduces to the linear estimate when q2 = 0. The roots come from the
    companion matrix of the trimmed polynomial (q2 = 0 leaves -c0 / c1),
    and the positive real ones take one Newton step; NoPositiveRoot if
    there is none.
    """
    qp, qm, q0, q2 = jet.q_plus, jet.q_minus, jet.q0, jet.q2
    d = qp - qm
    poly = np.polynomial.Polynomial([d * q0,
                                     4.0 * q2 * q0 - 2.0 * qp * qm,
                                     4.0 * q2 * d,
                                     32.0 * q2**2 / 3.0,
                                     32.0 * q2**3 / (3.0 * d)])
    r = poly.roots()
    x = r.real[(np.abs(r.imag) <= QUARTIC_IMAG_TOL * (1.0 + np.abs(r)))
               & (r.real > 0.0)]
    x = x - poly(x) / poly.deriv()(x)
    x = x[x > 0.0]
    if x.size == 0:
        raise NoPositiveRoot("quartic has no positive real root")
    return float(x.min())


def shape_quadratic(jet: KernelJet) -> ShapeFunction:
    """Next-order shape: endpoint masses plus a constant interior density.

    Interior density zeta = -2 q2 / (q+ - q-) on [-z, z] with z from the
    quartic; the endpoint masses keep total mass 1 exactly. As atoms, the
    density's mass 2 z zeta splits evenly between -z and +z.
    """
    z = z_quartic(jet)
    d = jet.q_plus - jet.q_minus
    zeta = -2.0 * jet.q2 / d
    D = d + 4.0 * jet.q2 * z
    half_sum = (jet.q_plus + jet.q_minus) / (2.0 * D)
    mass_minus = D / (2.0 * d) - half_sum  # at xi = -z
    mass_plus = D / (2.0 * d) + half_sum   # at xi = +z
    return ShapeFunction(s=np.array([-z, z]),
                         a=z * zeta + np.array([mass_minus, mass_plus]))
