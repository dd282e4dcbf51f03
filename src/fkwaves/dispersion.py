"""Dispersion analysis of the linearized traveling-wave problem.

Plane waves e^{ik xi} in the co-moving frame xi = n - V t satisfy L(k, V) = 0
with

    L(k, V) = mu + 4 sin^2(k/2) - V^2 k^2 - i k alpha V.

Real roots are lattice phonons radiated by a steadily moving front; the sign
of k * dL/dk decides whether a phonon travels ahead of or behind the front.
Complex roots control the core shape through residue sums. Velocities where a
real root is degenerate (L = dL/dk = 0) are resonances; kinetic quantities
develop cusps or poles there. real_roots refuses a velocity within
RESONANCE_TOL of one with ResonantVelocity, and every undamped computation
(root_set, near_axis_roots, the residue sums, the kernel quadrature) passes
through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ResonantVelocity, RootCountMismatch
from .params import ModelParams

log = logging.getLogger(__name__)

# Newton targets for complex roots
COMPLEX_ROOT_TOL = 1e-10
NEWTON_STEP_TOL = 1e-13
NEWTON_ITERS = 60
# is_resonant: V within about this distance of a resonance velocity
RESONANCE_TOL = 1e-5
# roots closer than this (relative) are considered duplicates
DEDUPE_RADIUS = 1e-8
# complex roots kept per half plane: the length of every residue series
DEFAULT_N_PAIRS = 400
# off-axis band: for alpha = 0 complex roots cannot sit closer to the real
# axis than this outside the resonance exclusion zone
AXIS_OFFSET = 5e-5
# parts per bracket in each pass of the real-axis search
SPLIT = 64
# boundary refinement rounds of the winding count
WINDING_ROUNDS = 40
# the near-axis strip 0 < |Im k| < STRIP_HEIGHT of near_axis_roots reaches
# a little past the kernel quadrature's REFINE_BAND = 0.5; the first Newton
# seeds of both root searches come from the axes (_band_attempt), and only
# the strip's dense retry adds a grid on rows at these Im k
STRIP_HEIGHT = 0.6
STRIP_SEED_ROWS = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55)
# smallest damping the root searches accept: below it the damped phonon roots sit
# closer to the real axis than the search can tell apart from it
MIN_DAMPING = 1e-10


def check_velocity(V: float) -> None:
    """Run first by KernelQuadrature and _real_axis (both root searches)."""
    if not 0.0 < V < np.inf:
        raise ValueError(f"V must be positive and finite, got {V}")


def eval_L(k, V: float, params: ModelParams):
    """Dispersion function L(k, V); accepts scalar or array, real or complex k."""
    k = np.asarray(k)
    val = params.mu + 4.0 * np.sin(k / 2.0) ** 2 - V**2 * k**2
    if params.alpha != 0.0:
        val = val - 1j * k * params.alpha * V
    return val if val.ndim else val[()]


def eval_Lk(k, V: float, params: ModelParams):
    """dL/dk."""
    k = np.asarray(k)
    val = 2.0 * np.sin(k) - 2.0 * V**2 * k
    if params.alpha != 0.0:
        val = val - 1j * params.alpha * V
    return val if val.ndim else val[()]


def _monotone_zeros(f, edges: np.ndarray) -> np.ndarray:
    """The zero of f on every piece between consecutive edges where f is
    monotone and changes sign strictly, bracketed to two adjacent doubles;
    each pass cuts every bracket into SPLIT parts with one call of f."""
    fe = f(edges)
    i = np.nonzero(np.sign(fe[:-1]) * np.sign(fe[1:]) < 0)[0]
    a, b, s = edges[i], edges[i + 1], np.sign(fe[i])[:, None]
    t, rows = np.arange(SPLIT + 1) / SPLIT, np.arange(i.size)
    while True:
        c = 0.5 * (a + b)
        # a collapsed bracket has no double strictly inside
        if not ((a < c) & (c < b)).any():
            return c
        grid = a[:, None] + (b - a)[:, None] * t
        grid[:, -1] = b
        # the first cut at or past the zero; cut 0 is a, before it
        j = (s * f(grid) <= 0.0).argmax(axis=1)
        a, b = grid[rows, j - 1], grid[rows, j]


def bisect_change(f, a: float, b: float, fa, tol: float) -> tuple[float, float]:
    """Bracket [a, b] of a change of f, halved to width tol or less.

    f returns a sign or a label, fa = f(a) and f(b) differs from it; the
    bracket keeps f(a) == fa and f(b) != fa, so an exact zero of a sign
    counts as a change. Stops early at two adjacent doubles, where no
    midpoint lies strictly inside, so any tol terminates. For expensive
    scalar functions; cheap vectorised ones use _monotone_zeros.
    """
    while b - a > tol:
        c = 0.5 * (a + b)
        if not a < c < b:
            break
        if f(c) == fa:
            a = c
        else:
            b = c
    return a, b


@lru_cache(maxsize=1024)
def _real_axis(V: float, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Critical points and roots of the undamped L on (0, kmax], ascending.

    L_kk = 2 cos k - 2 V^2 vanishes only at 2 pi n +- arccos(V^2), so L_k is
    monotone between those points and each piece holds at most one critical
    point of L; L is monotone between consecutive critical points, and
    L < 0 beyond kmax = sqrt(mu + 4) / V. Both arrays are read-only.
    """
    check_velocity(V)
    kmax = np.sqrt(mu + 4.0) / V
    crit = _critical_points(V, mu, 0.0, kmax)
    p = ModelParams(mu, 0.0)
    roots = _monotone_zeros(lambda k: eval_L(k, V, p),
                            np.concatenate([[0.0], crit, [kmax]]))
    crit.flags.writeable = roots.flags.writeable = False
    return crit, roots


def _critical_points(V: float, mu: float, lo: float,
                     hi: float) -> np.ndarray:
    """Critical points of the undamped L on (lo, hi), ascending: one
    _monotone_zeros pass over the pieces between the zeros of L_kk."""
    # for V >= 1, L_kk <= 0 everywhere and any edges will do
    turn = np.arccos(min(V**2, 1.0))
    n = 2.0 * np.pi * np.arange(np.ceil(hi / (2.0 * np.pi)) + 1.0)
    infl = (n[:, None] + np.array([-turn, turn])).ravel()
    infl = infl[(infl > lo) & (infl < hi)]
    p = ModelParams(mu, 0.0)
    return _monotone_zeros(lambda k: eval_Lk(k, V, p),
                           np.concatenate([[lo], infl, [hi]]))


def real_roots(V: float, params: ModelParams) -> np.ndarray:
    """Positive real roots of L(., V), ascending and read-only.

    Only defined for alpha = 0; damping pushes every root off the real axis.
    This is the package's resonance gate: it raises ResonantVelocity when
    is_resonant(V, params), and every undamped computation reads its real
    roots here, so none runs on top of a resonance.

    Negative roots are the mirror images -k and are not returned.
    """
    if params.alpha != 0.0:
        raise ValueError("real roots exist only for alpha = 0")
    if is_resonant(V, params):
        raise ResonantVelocity(f"V={V} is within tolerance of a resonance")
    return _real_axis(V, params.mu)[1]


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------

def _newton_complex(seeds: np.ndarray, V: float,
                    params: ModelParams) -> np.ndarray:
    """Vectorized Newton iteration on L; returns converged points only,
    each polished by two more steps to within rounding of a fixed point."""
    k = np.asarray(seeds, dtype=complex).copy()
    step = np.full(k.shape, np.inf)
    # dead iterates carry NaN; silence the resulting invalid-value noise
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(NEWTON_ITERS):
            f = eval_L(k, V, params)
            df = eval_Lk(k, V, params)
            bad = np.abs(df) < 1e-14
            df = np.where(bad, 1.0, df)
            d = f / df
            k = np.where(bad, np.nan, k - d)
            step = np.abs(d)
            if np.all(~np.isfinite(k)
                      | (step < NEWTON_STEP_TOL * (1.0 + np.abs(k)))):
                break
        ok = np.isfinite(k)
        ok &= ((step < NEWTON_STEP_TOL * (1.0 + np.abs(k)))
               | (np.abs(eval_L(k, V, params)) <= COMPLEX_ROOT_TOL))
    k = k[ok]
    for _ in range(2):
        k = k - eval_L(k, V, params) / eval_Lk(k, V, params)
    return k


def _strip_predictors(V: float, params: ModelParams, n_strips: int,
                      sgn: float) -> np.ndarray:
    """Asymptotic seeds near x = (2m+1) pi, e^y ~ V^2 x^2 - mu - 2."""
    x0 = (2 * np.arange(1, n_strips + 1) + 1) * np.pi
    arg = V**2 * x0**2 - params.mu - 2.0
    x0, y0 = x0[arg > 2.0, None], np.log(arg[arg > 2.0, None])
    return (x0 + np.array([0.0, -1.0, 1.0]) + sgn * 1j * y0).ravel()


def _winding_count(V: float, params: ModelParams, x0: float, x1: float,
                   y0: float, y1: float) -> int:
    """Zeros of L inside the rectangle via boundary phase tracking.

    Each boundary segment is subdivided until consecutive phase increments
    stay below pi/2, which makes the wrapped phase sum equal the winding
    number of L around the contour.
    """
    corners = [complex(x0, y0), complex(x1, y0), complex(x1, y1),
               complex(x0, y1), complex(x0, y0)]
    roots = np.outer([-1.0, 1.0], _real_axis(V, params.mu)[1]).ravel()
    pts = []
    for a, b in zip(corners[:-1], corners[1:]):
        n = max(16, int(4.0 * abs(b - a)))
        t = np.arange(n) / n
        if a.imag == b.imag:
            # a sample over every real root: two roots just off the edge
            # between two samples turn the phase by 2 pi, which wraps to 0
            at = (roots - a.real) / (b.real - a.real)
            t = np.union1d(t, at[(at > 0.0) & (at < 1.0)])
        pts.append(a + (b - a) * t)
    pts = np.concatenate(pts + [np.array([corners[-1]])])
    # L is evaluated once per point: a round evaluates only its midpoints
    vals = fresh = eval_L(pts, V, params)
    for _ in range(WINDING_ROUNDS):
        if np.min(np.abs(fresh)) < 1e-13:
            raise RootCountMismatch(
                "winding contour passes through a zero of L; shift the rectangle")
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.nonzero(np.abs(dphi) >= 0.5 * np.pi)[0]
        if bad.size == 0:
            total = dphi.sum() / (2.0 * np.pi)
            n = int(np.rint(total))
            if abs(total - n) > 1e-2:
                raise RootCountMismatch(f"winding sum {total} is not an integer")
            return n
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        fresh = eval_L(mids, V, params)
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, fresh)
    raise RootCountMismatch("winding refinement did not settle")


def _strip_seeds(V: float, params: ModelParams) -> np.ndarray:
    """Seeds from the real axis, for both half planes: the first seeds of
    the near-axis strip search and part of those of a residue set.

    Near a critical point x_c of the undamped L_0, or at x_c = 0,
    L(x_c + t) ~ L_0(x_c) + L_0''(x_c) t^2 / 2 - i alpha V (x_c + t), and
    both roots t of that quadratic are seeds. The critical points reach
    x_b(STRIP_HEIGHT), not just kmax = sqrt(mu + 4) / V: a maximum of L_0
    just below zero past kmax has a strip root above it. Those below kmax
    are _real_axis's, so only the few beyond are bracketed here. Damped,
    each phonon root r moved by its first-order shift
    i alpha V r / L_k(r) is a seed too.
    """
    p0, aV = ModelParams(params.mu, 0.0), params.alpha * V
    crit, r = _real_axis(V, params.mu)
    xc = np.concatenate([[0.0], crit, _critical_points(
        V, params.mu, np.sqrt(params.mu + 4.0) / V,
        _x_bound(V, params, STRIP_HEIGHT))])
    # a t^2 + b t + c = 0, solved without cancellation
    a, b = np.cos(xc) - V**2, -1j * aV
    c = eval_L(xc, V, p0) - 1j * aV * xc
    d = np.sqrt(b * b - 4.0 * a * c + 0j)
    q = -0.5 * (b + np.where((np.conj(b) * d).real >= 0.0, d, -d))
    with np.errstate(divide="ignore", invalid="ignore"):
        seeds = np.concatenate([xc + q / a, xc + c / q])
    if aV:
        seeds = np.append(seeds, r + 1j * aV * r / eval_Lk(r, V, p0))
    return seeds[np.isfinite(seeds)]


def _fold(ks: np.ndarray, params: ModelParams, sgn: float) -> np.ndarray:
    """Distinct roots with sgn Im k > 0 and Re k >= 0, sorted by |Im| then Re.

    ks are Newton-converged points. Each is folded onto Re k >= 0 by the
    mirror k -> -conj(k), under which the half plane is closed; real parts
    within 1e-9 of the imaginary axis snap onto it. A point is dropped when
    it lies within DEDUPE_RADIUS (relative) of an earlier one, and since the
    points are sorted by |Im|, only the few before it in that band are
    compared. Undamped, points within AXIS_OFFSET of the axis are the real
    roots and are dropped too.
    """
    floor = 1e-12 if params.alpha > 0.0 else AXIS_OFFSET
    ks = ks[sgn * ks.imag > floor]
    re = np.abs(ks.real)
    re[re < 1e-9 * (1.0 + np.abs(ks.imag))] = 0.0
    ks = re + 1j * ks.imag
    im = np.abs(ks.imag)
    order = np.lexsort((re, im))
    ks, im = ks[order], im[order]
    tol = DEDUPE_RADIUS * (1.0 + np.abs(ks))
    band = np.arange(ks.size) - np.searchsorted(im, im - tol)
    dup = np.zeros(ks.size, bool)
    for lag in range(1, int(band.max(initial=0)) + 1):
        dup[lag:] |= np.abs(ks[lag:] - ks[:-lag]) <= tol[lag:]
    return ks[~dup]


def _family_sizes(reps: np.ndarray) -> np.ndarray:
    """Roots each representative stands for: 2 off the imaginary axis (k
    and its mirror -conj(k); a positive real root r and -r), 1 on it."""
    return np.where(reps.real > 0.0, 2, 1)


def _unfold(reps: np.ndarray) -> np.ndarray:
    """Each family as (-conj(k), k); an axis root is its own mirror."""
    both = np.column_stack([-np.conj(reps), reps])
    return both[np.column_stack([reps.real > 0.0, np.ones(reps.size, bool)])]


def _x_bound(V: float, params: ModelParams, height: float) -> float:
    """|Re k| of every zero of L with |Im k| <= height is below this.

    With k = x + iy, |Vk + i alpha| >= V|x| and |k| >= |x| give
    |V^2 k^2 + i alpha V k| >= V^2 x^2, while |mu + 2 - 2 cos k| <=
    mu + 2 + 2 cosh y, so L has no zero with |y| <= height beyond
    sqrt(mu + 2 + 2 cosh height) / V.
    """
    return np.sqrt(params.mu + 2.0 + 2.0 * np.cosh(height)) / V


def _residue_height(reps: np.ndarray, n_roots: int) -> float:
    """Midway across the |Im| gap above the family holding the n_roots-th
    root, so a cut never splits a mirror pair; inf when the search found
    no family above it."""
    n_keep = int(np.searchsorted(np.cumsum(_family_sizes(reps)), n_roots)) + 1
    if n_keep >= reps.size:
        return np.inf
    return 0.5 * (abs(reps[n_keep - 1].imag) + abs(reps[n_keep].imag))


def _band_attempt(V: float, params: ModelParams, n_roots: int, sgn: float,
                  dense: bool) -> np.ndarray:
    """Every complex root with 0 < sgn Im k < H, sorted by |Im| then |Re|;
    RootCountMismatch when the search fails.

    Newton starts from the _strip_seeds in the half plane, a few per
    velocity. n_roots = 0 asks for the near-axis strip, H = STRIP_HEIGHT.
    n_roots > 0 asks for a residue set, and H is _residue_height, so the
    band holds n_roots or n_roots + 1 roots; its seeds add the imaginary
    axis at |Im k| = 1, 2, 4, 8, where L(sgn i y) = mu + V^2 y^2 +
    sgn alpha V y - 4 sinh^2(y/2) is real and Newton stays on the axis
    (for V >= 1 the x_c = 0 model of _strip_seeds yields no root there),
    and the _strip_predictors of the roots further out. The dense retry
    adds a grid at spacing 0.35 on the rows STRIP_SEED_ROWS, or for a
    residue set on rows 0.05 to 9 at spacing 0.45. Every converged root is
    polished (_newton_complex). Mirror symmetry L(-conj(k)) = conj(L(k))
    pairs each off-axis root with a partner in the same half plane, so the
    search keeps one representative per family. The winding count over
    [-x_b(H) - 1, x_b(H) + 1] times the band (_x_bound) counts every root
    in it and must match the roots located. Undamped, the band's near edge
    sits at half AXIS_OFFSET, below every complex root that _fold keeps
    and above the real roots; damped, on the axis.
    """
    seeds = [_strip_seeds(V, params)]
    if n_roots:
        seeds += [sgn * 1j * np.array([1.0, 2.0, 4.0, 8.0]),
                  _strip_predictors(V, params, n_roots // 2 + 8, sgn)]
    if dense:
        if n_roots:
            reach = np.sqrt(params.mu + 4.0) / V + 2.0 * np.pi
            rows = np.arange(0.05, 9.0, 0.45)
        else:
            reach = _x_bound(V, params, STRIP_HEIGHT) + 0.7
            rows = STRIP_SEED_ROWS
        gx, gy = np.meshgrid(np.arange(0.0, reach, 0.35), rows)
        seeds.append((gx + sgn * 1j * gy).ravel())
    seeds = np.concatenate(seeds)
    reps = _fold(_newton_complex(seeds[sgn * seeds.imag > 0.0], V, params),
                 params, sgn)
    height = _residue_height(reps, n_roots) if n_roots else STRIP_HEIGHT
    reps = reps[np.abs(reps.imag) < height]
    located = int(_family_sizes(reps).sum())
    if np.isinf(height):
        what = f"found only {located} roots, no family above root {n_roots}"
    else:
        x_max = _x_bound(V, params, height) + 1.0
        y_lo = 0.0 if params.alpha > 0.0 else 0.5 * AXIS_OFFSET
        y0, y1 = (-height, -y_lo) if sgn < 0.0 else (y_lo, height)
        n_inside = _winding_count(V, params, -x_max, x_max, y0, y1)
        if n_inside == located:
            return _unfold(reps)
        what = f"winding count {n_inside} != located {located}"
    raise RootCountMismatch(
        f"{what} in the strip 0 < {'-Im' if sgn < 0.0 else 'Im'} k < "
        f"{height} (V={V}, alpha={params.alpha}, "
        f"{'dense' if dense else 'first'} seeds)")


def _retry_dense(V: float, params: ModelParams, n_roots: int,
                 sgn: float) -> tuple[np.ndarray, bool]:
    """_band_attempt with first seeds, or on RootCountMismatch with dense
    seeds, whose mismatch propagates; and whether the retry ran. The first
    mismatch is logged at DEBUG, so a retry says why it ran."""
    try:
        return _band_attempt(V, params, n_roots, sgn, dense=False), False
    except RootCountMismatch as exc:
        log.debug("dense retry: %s", exc)
        return _band_attempt(V, params, n_roots, sgn, dense=True), True


@dataclass(frozen=True)
class RootSet:
    """The dispersion roots behind the residue sums at one velocity.

    upper / lower hold complex roots of smallest |Im k| in each half plane,
    sorted by |Im| then |Re|; real_ahead / real_behind the positive real
    roots (alpha = 0 only) radiating ahead of (k L_k > 0) or behind the
    front, ascending. A real root's mirror -k belongs to the same class.
    dense_retry says whether a half plane's search needed its dense seeds.
    """

    upper: np.ndarray
    lower: np.ndarray
    real_ahead: np.ndarray
    real_behind: np.ndarray
    dense_retry: bool = False


def _complex_roots(V: float, params: ModelParams, n_roots: int) -> RootSet:
    """The RootSet whose halves are _band_attempt(V, params, n_roots, ...).

    Damping 0 < alpha < MIN_DAMPING raises ValueError, and an undamped
    resonant V raises ResonantVelocity from real_roots. For alpha = 0 the
    lower half is the conjugate of the upper; with damping the halves are
    searched independently.
    """
    if 0.0 < params.alpha < MIN_DAMPING:
        raise ValueError(
            f"damping alpha = {params.alpha:g} is below the root search's "
            f"floor MIN_DAMPING = {MIN_DAMPING:g}; use alpha = 0 for an "
            "undamped chain")
    reals = real_roots(V, params) if params.alpha == 0.0 else np.array([])
    ahead = reals * eval_Lk(reals, V, params).real > 0.0
    upper, retry = _retry_dense(V, params, n_roots, 1.0)
    if params.alpha == 0.0:
        lower = np.conj(upper)
    else:
        lower, retry_lower = _retry_dense(V, params, n_roots, -1.0)
        retry |= retry_lower
    return RootSet(upper, lower, reals[ahead], reals[~ahead], retry)


@lru_cache(maxsize=256)
def root_set(V: float, params: ModelParams) -> RootSet:
    """Memoized real and complex roots at velocity V.

    Each half plane holds DEFAULT_N_PAIRS complex roots, the length of the
    residue series (convolve), or one more where the cut would
    split a mirror pair (k, -conj k). Its seeds are the strip's, the
    imaginary axis and the asymptotic predictors (_band_attempt). A
    mismatch re-seeds densely once, and a second one raises
    RootCountMismatch. Damping 0 < alpha < MIN_DAMPING raises ValueError,
    and an undamped resonant V raises ResonantVelocity from real_roots.
    """
    return _complex_roots(V, params, DEFAULT_N_PAIRS)


def near_axis_roots(V: float, params: ModelParams) -> RootSet:
    """The roots a kernel quadrature's contour plan reads.

    upper / lower hold every complex root with |Im k| < STRIP_HEIGHT,
    unfolded and sorted as in root_set, and real_ahead / real_behind are
    root_set's. The search is root_set's with the band's height fixed and
    Newton seeded from the real axis alone (_band_attempt). A mismatch
    re-seeds densely once, and a second one raises RootCountMismatch. Tiny
    damping and resonant V are refused as in root_set.
    """
    return _complex_roots(V, params, 0)


# ---------------------------------------------------------------------------
# resonances
# ---------------------------------------------------------------------------

def resonance_velocities(params: ModelParams, count: int = 5) -> list[tuple[float, float]]:
    """First `count` resonance velocities, descending, as (V, k) pairs.

    A resonance is a simultaneous zero L = dL/dk = 0 with k real; there the
    radiated phonon travels exactly at the front speed. Resonances are a
    property of the undamped dispersion, so alpha is ignored here.

    Eliminating V leaves g(k) = mu + 2 - 2 cos k - k sin k = 0. Since
    g'' = k sin k vanishes only at n pi, g' is monotone between those
    points and g between the zeros of g', so two _monotone_zeros passes
    bracket every resonance k to adjacent doubles. V is read from L = 0,
    sqrt(mu + 4 sin^2(k/2)) / k, which is stationary in k there. Since
    V^2 = sin k / k <= 1 / k, the search range k_cap doubles until the
    count-th largest V has V^2 k_cap > 1: no resonance beyond is faster.
    """
    if count < 1:
        return []
    mu = params.mu
    k_cap = max(40.0, 12.0 * count)
    while True:
        edges = np.append(np.pi * np.arange(np.ceil(k_cap / np.pi)), k_cap)
        crit = _monotone_zeros(lambda k: np.sin(k) - k * np.cos(k), edges)
        ks = _monotone_zeros(
            lambda k: mu + 2.0 - 2.0 * np.cos(k) - k * np.sin(k),
            np.concatenate([[0.0], crit, [k_cap]]))
        V = np.sqrt(mu + 4.0 * np.sin(ks / 2.0) ** 2) / ks
        top = np.argsort(-V)[:count]
        if top.size == count and V[top[-1]] ** 2 * k_cap > 1.0:
            return [(float(V[i]), float(ks[i])) for i in top]
        k_cap *= 2.0


def is_resonant(V: float, params: ModelParams) -> bool:
    """True when V lies within RESONANCE_TOL of a resonance velocity.

    Implemented locally: at distance dV from a resonance the extremal value
    of L between (or instead of) the colliding real roots is about
    |dL/dV| * dV = 2 V k^2 dV, so the test reads L at the critical points
    of the real axis and needs no global resonance enumeration.
    """
    if params.alpha > 0.0:
        return False
    crit = _real_axis(V, params.mu)[0]
    return bool(np.any(np.abs(eval_L(crit, V, params))
                       <= RESONANCE_TOL * 2.0 * V * crit**2))
