"""Panel quadrature with contour arcs and analytic tails for profile integrals.

All profile and kernel integrals in this package are parts of

    integral_0^inf  e^{ik xi} / (k^p L(k, V))  dk,

whose integrand has simple poles at the positive real roots of L
(alpha = 0) or damped roots close to the axis (alpha > 0) and decays like
k^{-p-2}. One panel grid covers [0, K]: Gauss-Legendre panels along the
real axis, and semicircular arcs that carry the contour past the poles at
the axis on whichever side the caller picks. The tail [K, inf) is
closed-form: 1/L expands in terms e^{ijk} / k^p, and one pass integrates
all of them, stacking every shift j into one call of exp_tail_integrals.
There each point runs one continued fraction, at a pivot order from which
the recurrence between orders is stable both downward and upward, and the
recurrence fills the other orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import sici

from .errors import QuadratureFail
from .params import ModelParams

GAUSS_ORDER = 24
PANEL_WIDTH = 1.5
# K = KFAC * (largest possible real root); |1/L| <= 1/((KFAC^2-1) V^2 k^2) beyond
KFAC = 10.0
TAIL_TARGET = 1e-10


@dataclass(frozen=True)
class PanelGrid:
    """Gauss-Legendre nodes and weights along a path from 0 to K.

    Without arcs the path is the real segment [0, K] and nodes and weights
    are real. Each arc replaces a short real segment by a semicircle in the
    complex plane; nodes and weights are then complex, with arc weights
    i rho e^{i theta} d theta.
    """

    nodes: np.ndarray
    weights: np.ndarray
    K: float


@lru_cache(maxsize=8)
def _gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(order)


def build_panels(K: float, width: float = PANEL_WIDTH,
                 order: int = GAUSS_ORDER,
                 refine: tuple[tuple[float, float], ...] = (),
                 arcs: tuple[tuple[float, float, int], ...] = ()) -> PanelGrid:
    """Panels from 0 to K, graded towards the refine centres and the arcs.

    refine entries (center, scale) add edges at center +- scale * powers of
    two; they resolve sharp but smooth peaks, e.g. a complex pole pair
    pinching the axis just past a resonance. arcs entries (center, rho, side)
    replace the segment (center - rho, center + rho) by a semicircle that
    bulges up for side +1 (passing above a pole) and down for side -1, and
    grade the panels beside it in the same way with scale rho. The on-axis
    nodes come first, then the arcs' nodes.
    """
    edges = set(np.linspace(0.0, K, int(np.ceil(K / width)) + 1).tolist())
    for xc, scale in tuple(refine) + tuple((xc, rho) for xc, rho, _ in arcs):
        edges.add(xc)
        for f in (0.5, 1.0, 2.0, 4.0, 8.0):
            edges.add(xc - scale * f)
            edges.add(xc + scale * f)
    es = np.array(sorted(e for e in edges if 0.0 <= e <= K))
    es = es[np.concatenate([[True], np.diff(es) > 1e-9])]
    x, w = _gauss_rule(order)
    a, b = es[:-1], es[1:]
    keep = np.ones(a.size, bool)
    for xc, rho, _ in arcs:
        keep &= np.abs(0.5 * (a + b) - xc) > rho - 1e-12
    a, b = a[keep], b[keep]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = [(half[:, None] * x[None, :] + mid[:, None]).ravel()]
    weights = [(half[:, None] * w[None, :]).ravel()]
    for xc, rho, side in arcs:
        t0, t1 = (np.pi, 0.0) if side > 0 else (np.pi, 2.0 * np.pi)
        e = np.exp(1j * (0.5 * (t1 - t0) * x + 0.5 * (t0 + t1)))
        nodes.append(xc + rho * e)
        weights.append(1j * rho * e * (0.5 * (t1 - t0) * w))
    return PanelGrid(nodes=np.concatenate(nodes),
                     weights=np.concatenate(weights), K=float(es[-1]))


# ---------------------------------------------------------------------------
# analytic tail
# ---------------------------------------------------------------------------

# Upward by-parts recursion for T[p] loses relative accuracy like
# (aK)^{p-1}/(p-1)! against the K^{1-p} decay of the true values, so it is
# only used for |a| K <= CF_SPLIT; beyond that each order comes from the
# continued fraction for the exponential integral, which tightens as |a| K
# grows. e^{CF_SPLIT} * eps bounds the recursion's relative error.
CF_SPLIT = 18.0
CF_EPS = 1e-15
CF_MAX_ITER = 500


def _expint_cf(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """E_p(z) = integral_1^inf e^{-zt} t^{-p} dt by modified Lentz, per point.

    Valid for |arg z| < pi; here z = -i|a|K sits on the imaginary axis,
    where the fraction still converges (slower as |z| drops, hence the
    CF_SPLIT floor on |z|).
    """
    tiny = 1e-300
    p = p.astype(float)
    b = z + p
    c = np.full(z.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / b
    h = d.copy()
    for i in range(1, CF_MAX_ITER + 1):
        ai = -float(i) * (p - 1 + i)
        b = b + 2.0
        d = ai * d + b
        np.copyto(d, tiny, where=np.abs(d) < tiny)
        d = 1.0 / d
        c = b + ai / c
        np.copyto(c, tiny, where=np.abs(c) < tiny)
        delta = c * d
        h = h * delta
        if np.all(np.abs(delta - 1.0) < CF_EPS):
            break
    else:
        raise QuadratureFail(
            "exponential-integral continued fraction did not converge")
    return np.exp(-z) * h


def _expint_orders(z: np.ndarray, p_max: int) -> np.ndarray:
    """E_p(z) for p = 0 .. p_max (row 0 unused) from one fraction per point.

    The fraction runs at the pivot order p* = clip(floor(|z|), 1, p_max),
    and p E_{p+1} = e^{-z} - z E_p fills the other orders: downward below
    p*, where p < |z| damps errors, and upward above it, where |z| < p does.
    """
    piv = np.clip(np.floor(np.abs(z)), 1, p_max).astype(int)
    E = np.zeros((p_max + 1, z.size), dtype=complex)
    E[piv, np.arange(z.size)] = _expint_cf(piv, z)
    ez = np.exp(-z)
    for p in range(p_max - 1, 0, -1):
        E[p] = np.where(p < piv, (ez - p * E[p + 1]) / z, E[p])
    for p in range(1, p_max):
        E[p + 1] = np.where(p >= piv, (ez - z * E[p]) / p, E[p + 1])
    return E


def exp_tail_integrals(a, p_max: int, K: float) -> np.ndarray:
    """T[p] = integral_K^inf e^{iak} k^{-p} dk for p = 1 .. p_max.

    For |a| K <= CF_SPLIT, T[1] comes from the sine and cosine integrals and
    higher p follow from integrating by parts:
    T[p] = e^{iaK} K^{1-p}/(p-1) + ia/(p-1) T[p-1]. For larger |a| K,
    T[p] = K^{1-p} E_p(-i|a|K), every order from one continued fraction per
    point (_expint_orders), accurate relative to its own magnitude. a = 0 is
    allowed only for p >= 2 (T[p] = K^{1-p}/(p-1)). Vectorized: scalar a
    gives shape (p_max+1,), an array gives (p_max+1, len(a)).
    """
    arr = np.atleast_1d(np.asarray(a, dtype=float))
    T = np.zeros((p_max + 1, arr.size), dtype=complex)
    av = np.abs(arr)
    zero = arr == 0.0
    if zero.any():
        T[1, zero] = np.nan
        for p in range(2, p_max + 1):
            T[p, zero] = K ** (1 - p) / (p - 1)
    rec = ~zero & (av * K <= CF_SPLIT)
    if rec.any():
        av_r = av[rec]
        si, ci = sici(av_r * K)
        t1 = -ci + 1j * (0.5 * np.pi - si)
        T[1, rec] = t1
        phase = np.exp(1j * av_r * K)
        prev = t1
        for p in range(2, p_max + 1):
            prev = phase * K ** (1 - p) / (p - 1) + (1j * av_r / (p - 1)) * prev
            T[p, rec] = prev
    cf = av * K > CF_SPLIT
    if cf.any():
        scale = K ** (1.0 - np.arange(p_max + 1))
        T[1:, cf] = (scale[:, None] * _expint_orders(-1j * (av[cf] * K),
                                                     p_max))[1:]
    neg = arr < 0.0
    if neg.any():
        T[:, neg] = np.conj(T[:, neg])
    return T[:, 0] if np.isscalar(a) or np.ndim(a) == 0 else T


@lru_cache(maxsize=64)
def _inv_L_series(mu: float, alpha: float, V: float,
                  n_terms: int) -> np.ndarray:
    """Expansion sum_m w^m of 1/(1 - w) where 1/L = -w-series / (V^2 k^2).

    Entry C[n + j, p] of the (2n+1) x (2n+1) table, n = n_terms - 1, is the
    coefficient of e^{ijk} / k^p. The generator is
    w = (mu + 2 - 2 cos k)/(V^2 k^2) - i alpha/(V k). Shifts |j| <= n and
    orders p <= 2n hold every power up to w^n, so multiplying by w adds
    each of its terms as a shifted slice and never drops a nonzero entry
    off the table.
    """
    w = {(0, 2): (mu + 2.0) / V**2, (1, 2): -1.0 / V**2,
         (-1, 2): -1.0 / V**2}
    if alpha != 0.0:
        w[(0, 1)] = -1j * alpha / V
    n = n_terms - 1
    size = 2 * n + 1
    cur = np.zeros((size, size), dtype=complex)
    cur[n, 0] = 1.0
    total = cur.copy()
    for _ in range(n):
        nxt = np.zeros_like(cur)
        for (dj, dp), c in w.items():
            nxt[max(dj, 0):size + min(dj, 0), dp:] += \
                c * cur[max(-dj, 0):size - max(dj, 0), :size - dp]
        cur = nxt
        total += cur
    total.setflags(write=False)
    return total


def tail_terms_needed(V: float, params: ModelParams, K: float) -> int:
    """Series length so the geometric remainder stays below TAIL_TARGET.

    The |w| bound below 0.5 that convergence requires keeps it at 35 or
    fewer terms. At the kernels' K = KFAC sqrt(mu + 4) / V the bound is
    1 / KFAC^2 + alpha / (KFAC sqrt(mu + 4)) at every V, so every kernel
    takes 6 terms or more and no velocity helps: at mu = 1 every kernel
    fails once alpha >= 10.96.
    """
    w_bound = (params.mu + 4.0) / (V**2 * K**2) + params.alpha / (V * K)
    if w_bound >= 0.5:
        raise QuadratureFail(
            f"tail series does not converge fast enough at V={V:g}, "
            f"alpha={params.alpha:g}: |w| bound {w_bound:.3f} >= 0.5")
    return int(np.ceil(np.log(TAIL_TARGET) / np.log(w_bound))) + 1


def tail_integral(xis: np.ndarray, V: float, params: ModelParams, K: float,
                  extra_p: int) -> np.ndarray:
    """integral_K^inf e^{ik xi} / (k^extra_p L(k, V)) dk for each xi.

    Each term C[j, p] e^{ijk} / k^(p + 2 + extra_p) of the 1/L series
    integrates to C[j, p] T[p + 2 + extra_p](xi + j), and one call of
    exp_tail_integrals covers all shifts j at once.
    """
    C = _inv_L_series(params.mu, params.alpha, V,
                      tail_terms_needed(V, params, K))
    n = C.shape[0] // 2
    xis = np.atleast_1d(np.asarray(xis, float))
    shifted = xis[None, :] + np.arange(-n, n + 1)[:, None]
    T = exp_tail_integrals(shifted.ravel(), C.shape[1] + 1 + extra_p, K)
    T = T[2 + extra_p:].reshape(C.shape[1], *shifted.shape)
    out = -np.einsum("jp,pjx->x", C, T) / V**2
    if not np.all(np.isfinite(out)):
        raise QuadratureFail("tail series produced non-finite values")
    return out
