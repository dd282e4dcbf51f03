"""Classical traveling kink of the driven chain and its kinetic relation.

In the frame xi = n - V t the displacement U(xi) of a steadily moving front
solves a linear advance-delay equation on each side of xi = 0, closed by the
continuity condition U(0) = 0. Fourier inversion gives U as a contour
integral; residues at dispersion roots turn it into rapidly converging sums,
one per side. The applied stress sigma is then pinned to the kinetic value
Sigma(V), and the wave is admissible when U keeps the sign pattern
U > 0 behind the front and U < 0 ahead of it.

Two independent routes evaluate U and q: residue sums over a truncated root
set (U_profile, kernel_q) and contour quadrature with analytic tails
(U_integral, q_integral), whose contour passes each root at the real axis
by an arc on the side the radiation condition picks. Both take Sigma(V)
from the quadrature, the constant that makes its U(0) = 0, and they
cross-validate each other; the plateau solver (newwave's build_Q, find_z,
solve_shape and assemble_wave) reads only the quadrature route.

Both routes meet in one function, convolve, which sums U or q over a
discrete measure of atoms (s_j, a_j). U_profile and kernel_q are the unit
atom at 0; a plateau wave is its shape's atoms. The residue route reads
points outside the atoms' support only, and a single atom's own position:
ahead of the last atom the plus series, behind the first the minus series,
each through P(k) = sum_j a_j e^{-ik s_j} and the total mass, so a whole
shape costs one product of xi against one root per mirror family per
series. On the
quadrature route every plateau computation reads the kernel only at small
lags, where q and U are analytic between the integers; there convolve
reads a piecewise-Chebyshev table of each, built once per velocity from the
quadrature's own values.

A wave is read by one near-field rule, read_wave: the points within
NEAR_FIELD of its atoms' support take the quadrature route, where the
residue series converge slowly, and the points beyond take the residues.
Both the plateau wave's u and u' and the classical sign check read u there,
and one sign test, admissible_signs, judges every wave.
"""

from __future__ import annotations

import logging
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .dispersion import (
    _family_sizes,
    check_velocity,
    eval_L,
    eval_Lk,
    near_axis_roots,
    root_set,
    DEFAULT_N_PAIRS,
)
from .errors import QuadratureFail, TruncationWarning
from .params import ModelParams
from .quadrature import (
    GAUSS_ORDER,
    KFAC,
    PANEL_WIDTH,
    build_panels,
    tail_integral,
    tail_terms_needed,
)

# one-sided branch disagreement at xi = 0 beyond this means the residue
# series of DEFAULT_N_PAIRS root pairs is too short
TRUNCATION_TOL = 1e-4
# read_wave takes the points within this distance of the atoms' support
# by quadrature: at small lags the residue series converge slowly
NEAR_FIELD = 0.5
# admissibility sampling: the sign checks of classical and plateau waves
# read u at these distances beyond the front or the plateau edge
ADMISSIBLE_RANGE = 40.0
ADMISSIBLE_SPACING = 0.05
SIGN_GRID = np.linspace(ADMISSIBLE_SPACING, ADMISSIBLE_RANGE,
                        int(np.ceil(ADMISSIBLE_RANGE / ADMISSIBLE_SPACING)))
# The classical check adds LADDER, the points ADMISSIBLE_TOL 2^j below the
# first grid point: just below V0 its violation is a bump of height
# ~ q(0)^2 squeezed against the front (2.6e-7 at 3e-4 ahead of it at
# V = 0.3568), which only the ladder sees. A plateau wave gets no ladder:
# its m-point mesh does not resolve the sign within about 1e-3 of +-z. At
# mu = 1, V = 0.2192 the m = 100 wave has u(+-z) = +-6.5e-7 (residual
# 2.6e-6) and keeps the wrong sign out to about 3e-4 past the edge, so a
# ladder would reject the wave for its mesh error.
ADMISSIBLE_TOL = 1e-6
LADDER = ADMISSIBLE_TOL * 2.0 ** np.arange(
    int(np.ceil(np.log2(ADMISSIBLE_SPACING / ADMISSIBLE_TOL))))
# quadrature self-check target at construction time
QUAD_SELF_TOL = 1e-8
# the kernel quadrature reads |xi| <= QUAD_REACH only: from |xi| ~ 22 on a
# Gauss panel spans too many periods of e^{ik xi} to keep QUAD_SELF_TOL
QUAD_REACH = 20.0
# quadrature points per block of the one kernel integral; bounds its
# (points x nodes) temporaries to a few MiB each
ROW_BLOCK = 256
# the kernel tables cover lags in [-TABLE_REACH, TABLE_REACH], one
# Chebyshev piece per unit interval between integers
TABLE_REACH = 3
# a piece is done once its trailing coefficients (the root mean square of
# the last eighth) fall below TABLE_TOL of its largest, or below the
# kernel's own rounding floor on that piece (KernelQuadrature.rounding):
# outer q pieces are small against q(0), so there the floor can lie above
# TABLE_TOL of the piece. Its node count doubles from TABLE_MIN_NODES up to
# TABLE_MAX_NODES
TABLE_TOL = 1e-14
TABLE_MIN_NODES = 16
TABLE_MAX_NODES = 128

log = logging.getLogger(__name__)


def sigma_AC(V: float, params: ModelParams) -> float:
    """Kinetic relation Sigma(V) of the classical branch, KernelQuadrature's
    sigma for every alpha. The phonon sum (alpha = 0) and the residue
    continuity sum over N root pairs (converging as N^-3) test it."""
    return quad_kernel(V, params).sigma


def _branch_terms(V: float, params: ModelParams):
    """(k, w, L_k(k)) of the plus and of the minus branch: the root k
    with Re k >= 0 of each mirror family (k, -conj k) or (r, -r), and its
    size w (_family_sizes). L_k(-conj k) = -conj L_k(k), so at real x the
    members' terms are conjugate and a branch sums w Re(term) per family.
    """
    roots = root_set(V, params)
    sides = []
    for cx, real in ((roots.upper, roots.real_ahead),
                     (roots.lower, roots.real_behind)):
        k = np.concatenate([cx[cx.real >= 0.0], real])
        sides.append((k, _family_sizes(k), eval_Lk(k, V, params)))
    return sides


def _truncation_check(V: float, plus0: float, minus0: float,
                      kind: str) -> None:
    """Warn when the branches at an atom differ by over TRUNCATION_TOL.

    Only a lag-0 read reaches it, read_wave never, and it names the first
    caller outside this module. Undamped the branches of q are conjugate,
    so kernel_q(0, V = 0.2) = -0.60853 (q_integral: -0.62107) passes in
    silence; damped it fires.
    """
    if abs(plus0 - minus0) > TRUNCATION_TOL:
        level, frame = 1, sys._getframe()
        while frame.f_back and frame.f_globals["__name__"] == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"{kind} branch mismatch {abs(plus0 - minus0):.2e} at xi=0: the "
            f"residue series of {DEFAULT_N_PAIRS} root pairs is too short "
            f"at V={V}", TruncationWarning, stacklevel=level)


def _one_sided_sum(x, k, coef) -> np.ndarray:
    """Re sum_k e^{ik x} coef_k for each x."""
    E = np.outer(x, 1j * k)
    np.exp(E, out=E)
    return (E @ coef).real


def _measure(atoms):
    """(s, a) as float arrays: at least one atom, one mass each, s sorted."""
    s, a = (np.asarray(v, float) for v in atoms)
    if s.size == 0 or s.shape != a.shape:
        raise ValueError("a measure needs at least one atom and one mass "
                         "per position")
    if np.any(np.diff(s) < 0.0):
        raise ValueError("atom positions must be in ascending order")
    return s, a


def convolve(xi, atoms, V: float, params: ModelParams, kind: str = "U",
             method: str = "residue"):
    """sum_j a_j f(xi - s_j) for f = U (at sigma = Sigma(V)) or f = q.

    atoms = (s, a) is a discrete measure of one atom or more: positions s_j
    in ascending order, within a few units of 0, and masses a_j. The
    classical profile and kernel are the unit atom at 0, and a plateau wave
    is its shape's atoms. Every xi must be finite.

    The "residue" route reads points outside the support [s_0, s_-1]: a
    point ahead of the last atom takes the plus branch and one behind the
    first atom the minus branch, each through P(k) = sum_j a_j e^{-ik s_j}
    and the total mass. Each branch sums one root per mirror family
    (_branch_terms), so the work is one n_xi x n_families product per
    branch. A single atom may also be read at its own position, the branch
    average at lag 0. Any other point raises ValueError; read_wave takes
    those by quadrature. The "quad" route has no one-sided form and sums
    over the lags xi - s_j: from the kernel's table (KernelQuadrature.table)
    when every lag lies within TABLE_REACH, else by quadrature.
    """
    if kind not in ("U", "q"):
        raise ValueError(f"unknown convolution kind {kind!r}")
    s, a = _measure(atoms)
    xi = np.atleast_1d(np.asarray(xi, float))
    if not np.all(np.isfinite(xi)):
        raise ValueError("convolve reads only finite points")
    if method == "quad":
        qk = quad_kernel(V, params)
        lags = (xi[:, None] - s[None, :]).ravel()
        inside = np.max(np.abs(lags), initial=0.0) <= TABLE_REACH
        vals = (qk.table(kind) if inside else getattr(qk, kind))(lags)
        return vals.reshape(len(xi), len(s)) @ a
    if method != "residue":
        raise ValueError(f"unknown kernel method {method!r}")
    ahead, behind = xi > s[-1], xi < s[0]
    on = ~(ahead | behind)
    if on.any() and s.size > 1:
        raise ValueError(
            f"the residue route reads {s.size} atoms only outside their "
            f"support [{s[0]:g}, {s[-1]:g}]; read_wave takes the points "
            "within it by quadrature")
    (kp, wp, lkp), (km, wm, lkm) = _branch_terms(V, params)
    mu2 = 2.0 * params.mu
    if kind == "U":
        sigma = sigma_AC(V, params)
        sides = ((kp, wp / (kp * lkp), sigma - 1.0, -mu2),
                 (km, wm / (km * lkm), sigma + 1.0, mu2))
    else:
        sides = ((kp, 1j * wp / lkp, 0.0, mu2),
                 (km, 1j * wm / lkm, 0.0, -mu2))
    mass = np.sum(a)
    out = np.empty(xi.shape)
    lag0 = []
    for (k, coef, const, scale), rows in zip(sides, (ahead, behind)):
        coef = coef * (a @ np.exp(np.outer(s, -1j * k)))
        out[rows] = const * mass + scale * _one_sided_sum(xi[rows], k, coef)
        if on.any():
            lag0.append(const * mass + scale * _one_sided_sum(s, k, coef)[0])
    if lag0:
        _truncation_check(V, *lag0, kind)
        out[on] = 0.5 * sum(lag0)
    return out


# the classical profile and kernel as a measure: one unit mass at 0; every
# classical wave's shape shares these arrays, so they are read-only views
UNIT_ATOM = (np.broadcast_to(0.0, 1), np.broadcast_to(1.0, 1))


def read_wave(xi, atoms, V: float, params: ModelParams, kind: str = "U",
              method: str = "residue") -> np.ndarray:
    """convolve of a wave's atoms by the near-field rule.

    On method "residue" the points within NEAR_FIELD of the atoms' support
    [-z, z] take the quadrature route (the kernel tables) and the points
    beyond it the residue route; "quad" takes quadrature throughout.
    """
    if method != "residue":
        return convolve(xi, atoms, V, params, kind, method)
    s, _ = _measure(atoms)
    xi = np.atleast_1d(np.asarray(xi, float))
    near = np.abs(xi) <= np.max(np.abs(s)) + NEAR_FIELD
    out = np.empty(xi.shape)
    for route, rows in (("residue", ~near), ("quad", near)):
        if rows.any():
            out[rows] = convolve(xi[rows], atoms, V, params, kind, route)
    return out


def admissible_signs(u, x: np.ndarray) -> bool:
    """The sign test of every wave: u < 0 at the points x ahead of it and
    u > 0 at -x behind it, where u reads the wave at an array of points."""
    ahead, behind = np.split(u(np.concatenate([x, -x])), 2)
    return bool(np.all(ahead < 0.0) and np.all(behind > 0.0))


def U_profile(xi, V: float, params: ModelParams):
    """Two-branch residue form of the wave profile U(xi) at sigma = Sigma(V):
    upper-half roots and ahead phonons for xi > 0, their lower / behind
    partners for xi < 0, and at 0 the branch average (see convolve)."""
    return _shaped(xi, convolve(xi, UNIT_ATOM, V, params, "U"))


def kernel_q(xi, V: float, params: ModelParams):
    """Residue form of the kernel q(xi) = -U'(xi); continuous at xi = 0,
    where it converges slowly and, undamped, its truncation check is blind
    (see _truncation_check)."""
    return _shaped(xi, convolve(xi, UNIT_ATOM, V, params, "q"))


def _shaped(xi, out: np.ndarray):
    """A float for scalar xi, else the array of values."""
    return float(out[0]) if np.ndim(xi) == 0 else out


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanProvenance:
    """How a KernelQuadrature's panel plan came about.

    near_axis counts the strip roots above and below the axis that the plan
    read, dense_retry says whether their search needed its dense seeds,
    tail_terms is the length of the 1/L series behind the analytic tail,
    and self_check is the largest difference in q between the panel sums
    of the kernel's grid and of the refined grid, at most QUAD_SELF_TOL.
    """

    near_axis: tuple[int, int]
    dense_retry: bool
    tail_terms: int
    self_check: float


class KernelQuadrature:
    """Contour quadrature of q(xi), U(xi) and the kinetic stress sigma.

    With I_p(xi) the contour integral of e^{ik xi} / (k^p L(k)) over
    (0, inf) and c = 2 mu / pi: q = c Re I_0, U = sigma - c Im I_1, and
    sigma = c Im I_1(0) = Sigma(V) makes U(0) = 0. The contour is the
    alpha -> 0+ limit of the damped one for every alpha, so the radiation
    condition has one rule: every root at the axis is passed by a
    semicircular arc on its far side. A small damping moves a real root r
    by i alpha V r / L_k(r), so a phonon radiating ahead (r L_k > 0) counts
    as above the axis and is passed below, one radiating behind is passed
    above, and a damped root within POLE_BAND of the axis is passed on the
    side away from its Im k. Panels are graded under every complex root
    within REFINE_BAND of the axis. The plan reads only those roots, so it
    comes from near_axis_roots: the roots of the strip |Im k| <
    STRIP_HEIGHT, a little wider than REFINE_BAND, checked by a winding
    count over the part of the strip where roots can lie. The oscillatory
    tail is integrated analytically. Construction checks the panel sums of
    q against a refined panel grid and raises QuadratureFail if the two
    disagree beyond QUAD_SELF_TOL; provenance records the plan's inputs and
    that check. table("q") and table("U") tabulate the two on small lags.
    """

    # contour arcs engage for damped poles closer to the axis than this
    POLE_BAND = 0.3
    # panels are graded under complex roots closer to the axis than this
    REFINE_BAND = 0.5
    ARC_RHO = 0.08

    def __init__(self, V: float, params: ModelParams):
        check_velocity(V)
        self.V = V
        self.params = params
        self._c = 2.0 * params.mu / np.pi
        K = KFAC * np.sqrt(params.mu + 4.0) / V
        # a tail that cannot converge fails before any other work
        tail_terms = tail_terms_needed(V, params, K)
        roots = near_axis_roots(V, params)
        self._refine = self._plan_refine(roots, K)
        self._arcs = self._plan_arcs(roots, K, params.alpha > 0.0)
        self._grid = self._make_grid(K, 1.0, 0)
        probe = np.array([0.0, 0.37, 1.0, -2.2])
        # both grids end at the same K, so the analytic tail is the same
        # term on both sides: the check compares the panel sums only
        fine = self._integral(probe, 0, self._make_grid(K, 0.5, 8),
                              tail=False)
        err = self._c * float(np.max(np.abs(
            self._integral(probe, 0, tail=False) - fine)))
        if err > QUAD_SELF_TOL:
            raise QuadratureFail(
                f"panel quadrature self-check failed at V={V:g}, "
                f"alpha={params.alpha:g}: {err:.2e} > {QUAD_SELF_TOL:.0e}")
        prov = self.provenance = PlanProvenance(
            near_axis=(roots.upper.size, roots.lower.size),
            dense_retry=roots.dense_retry, tail_terms=tail_terms,
            self_check=err)
        log.debug("kernel at V=%r, alpha=%r: %d + %d near-axis roots%s, "
                  "%d tail terms, self-check %.1e", V, params.alpha,
                  *prov.near_axis, " (dense retry)" if prov.dense_retry
                  else "", prov.tail_terms, prov.self_check)
        self._tables: dict[str, KernelTable] = {}

    @staticmethod
    def _plan_refine(roots, K: float):
        """Extra panel edges under complex roots near the real axis.

        Just past a resonance a root sits at distance |Im k| << 1 from the
        contour; the integrand stays smooth on the axis but peaks with that
        width, so panels within REFINE_BAND of a root of either half plane
        are shrunk to match it, damped or not.
        """
        found: dict[float, float] = {}
        for k in np.concatenate([roots.upper, roots.lower]):
            if abs(k.imag) < KernelQuadrature.REFINE_BAND \
                    and 0.0 < k.real < K:
                xc = round(float(k.real), 6)
                sc = max(abs(float(k.imag)), 1e-3)
                found[xc] = min(found.get(xc, np.inf), sc)
        return tuple(sorted(found.items()))

    @staticmethod
    def _plan_arcs(roots, K: float, damped: bool):
        """One arc (center, rho, side) per root at the axis.

        Undamped, the roots are the real ones; damped, those within
        POLE_BAND of the axis with 0.3 < Re k < K - 1. Each arc is centred
        on its root's point of the axis. Its radius is ARC_RHO or a third of
        the distance from that centre to the nearest other centre or other
        near-axis complex root, whichever is smaller, so the disks are
        disjoint and none holds a foreign root.
        """
        near = np.concatenate([roots.upper, roots.lower])
        near = near[np.abs(near.imag) < KernelQuadrature.POLE_BAND]
        if damped:
            on = (0.3 < near.real) & (near.real < K - 1.0)
            poles, foreign = near[on], near[~on]
            xc, side = poles.real, np.where(poles.imag < 0.0, 1, -1)
        else:
            xc = np.concatenate([roots.real_ahead, roots.real_behind])
            side = np.repeat([-1, 1], [roots.real_ahead.size,
                                       roots.real_behind.size])
            foreign = near
        others = np.concatenate([xc, foreign])
        arcs = []
        for i, c in enumerate(xc):
            gap = np.abs(np.delete(others, i) - c)
            rho = min(KernelQuadrature.ARC_RHO,
                      np.min(gap, initial=np.inf) / 3.0)
            arcs.append((float(c), float(rho), int(side[i])))
        return tuple(sorted(arcs))

    def _make_grid(self, K: float, refine: float, extra_order: int):
        """Panel nodes, weights / L(k) at them, the count of leading nodes
        that carry the integrand in real arithmetic (undamped, the on-axis
        nodes, where L is real) and the panels' end K."""
        grid = build_panels(K, width=PANEL_WIDTH * refine,
                            order=GAUSS_ORDER + extra_order,
                            refine=self._refine, arcs=self._arcs)
        k = grid.nodes
        n = 0 if self.params.alpha > 0.0 else np.count_nonzero(k.imag == 0.0)
        return k, grid.weights / eval_L(k, self.V, self.params), n, grid.K

    def _integral(self, xi: np.ndarray, p: int, grid=None,
                  tail: bool = True) -> np.ndarray:
        """Part p of the contour integral of e^{ik xi} / (k^p L(k)) dk.

        The real part for p = 0 and the imaginary part for p = 1, at |xi| <=
        QUAD_REACH. The first n nodes carry only that part, cos or sin(k xi) /
        (k^p L), in real arithmetic; the others e^{ik xi} / (k^p L). Points go
        in blocks of ROW_BLOCK. grid is a tuple from _make_grid, by default the
        kernel's; tail=False omits the analytic tail beyond its K.
        """
        xi = np.atleast_1d(np.asarray(xi, float))
        if not np.all(np.abs(xi) <= QUAD_REACH):
            raise ValueError("the kernel quadrature reads lags only within "
                             f"|xi| <= QUAD_REACH = {QUAD_REACH:g}")
        part = (np.real, np.imag)[p]
        k, c, n, K = grid or self._grid
        c = c / k**p
        kr, cr = k[:n].real, c[:n].real
        out = np.empty(xi.shape)
        for lo in range(0, xi.size, ROW_BLOCK):
            x = xi[lo:lo + ROW_BLOCK]
            z = np.exp(1j * np.outer(x, k[n:])) @ c[n:]
            if tail:
                z = z + tail_integral(x, self.V, self.params, K, extra_p=p)
            out[lo:lo + ROW_BLOCK] = \
                (np.cos, np.sin)[p](np.outer(x, kr)) @ cr + part(z)
        return out

    @cached_property
    def sigma(self) -> float:
        """Kinetic stress Sigma(V), on first use: threshold_V0 reads q only."""
        return self._c * float(self._integral(0.0, 1)[0])

    def q(self, xi) -> np.ndarray:
        """Kernel q(xi)."""
        return self._c * self._integral(xi, 0)

    def U(self, xi) -> np.ndarray:
        """Profile U(xi) at the kinetic stress sigma = Sigma(V)."""
        return self.sigma - self._c * self._integral(xi, 1)

    def rounding(self, kind: str, reach: float) -> float:
        """Rounding floor of q (kind "q") or U (kind "U") on |xi| <= reach.

        eps times the size of each panel term c_j e^{ik_j xi} / k_j^p, with
        the error eps |k_j xi| of its phase: no table of the kernel's own
        values gets below it.
        """
        k, c, _, _ = self._grid
        p = ("q", "U").index(kind)
        size = np.abs(c / k**p) * (1.0 + np.abs(k) * reach)
        return float(np.finfo(float).eps * self._c * np.sum(size))

    def table(self, kind: str) -> KernelTable:
        """Piecewise-Chebyshev table of q (kind "q") or U (kind "U").

        Made on first use: most kernels, such as the many that threshold_V0
        builds, never read one.
        """
        if kind not in ("q", "U"):
            raise ValueError(f"unknown kernel table kind {kind!r}")
        if kind not in self._tables:
            self._tables[kind] = KernelTable(self, kind)
        return self._tables[kind]


@dataclass(frozen=True)
class TablePiece:
    """Chebyshev series of a kernel table on one unit interval of lags.

    nodes is the node count it converged at and tail the ratio of the root
    mean square of its last eighth of coefficients to its largest one.
    """

    interval: tuple[int, int]
    nodes: int
    tail: float
    coef: np.ndarray


class KernelTable:
    """q or U of one KernelQuadrature on lags in [-TABLE_REACH, TABLE_REACH].

    Between the integers both are analytic: V^2 q'' = q(x+1) - 2q(x)
    + q(x-1) - mu q + 2 mu delta(x) puts the kink of q at 0 and pushes it
    into ever higher derivatives at +-1, +-2, .... So each unit piece is
    interpolated on its own Chebyshev points, from the kernel's own q or U
    values, the first time a lag falls in it; pieces is what has been built.
    """

    def __init__(self, kernel: KernelQuadrature, kind: str):
        self.kernel = kernel
        self.kind = kind
        self._pieces: dict[int, TablePiece] = {}

    @property
    def pieces(self) -> tuple[TablePiece, ...]:
        return tuple(self._pieces[lo] for lo in sorted(self._pieces))

    def __call__(self, lags) -> np.ndarray:
        lags = np.atleast_1d(np.asarray(lags, float))
        if np.any(np.abs(lags) > TABLE_REACH):
            raise ValueError(f"kernel table lags must lie in "
                             f"[-{TABLE_REACH}, {TABLE_REACH}]")
        lo = np.clip(np.floor(lags), -TABLE_REACH, TABLE_REACH - 1)
        out = np.empty(lags.shape)
        for n in np.unique(lo):
            at = lo == n
            out[at] = chebyshev.chebval(2.0 * (lags[at] - n) - 1.0,
                                        self._piece(int(n)).coef)
        return out

    def _piece(self, lo: int) -> TablePiece:
        if lo not in self._pieces:
            self._pieces[lo] = self._build(lo)
        return self._pieces[lo]

    def _build(self, lo: int) -> TablePiece:
        """Double the node count until the coefficient tail is below
        TABLE_TOL or the kernel's rounding floor; QuadratureFail past
        TABLE_MAX_NODES."""
        f = getattr(self.kernel, self.kind)
        where = (f"{self.kind} table piece [{lo}, {lo + 1}] at "
                 f"V={self.kernel.V}, alpha={self.kernel.params.alpha}")
        floor = self.kernel.rounding(self.kind, abs(lo) + 1)
        n = TABLE_MIN_NODES
        while True:
            coef = chebyshev.chebinterpolate(
                lambda t: f(lo + 0.5 * (t + 1.0)), n - 1)
            top = np.max(np.abs(coef))
            tail = float(np.sqrt(np.mean(coef[-(n // 8):] ** 2)) / top)
            if tail <= max(TABLE_TOL, floor / top):
                break
            if 2 * n > TABLE_MAX_NODES:
                raise QuadratureFail(
                    f"{where}: Chebyshev tail {tail:.1e} of the largest "
                    f"coefficient at {n} nodes, above {TABLE_TOL:.0e} and "
                    f"the rounding floor {floor / top:.1e}")
            n *= 2
        log.debug("%s: %d nodes, Chebyshev tail %.1e", where, n, tail)
        return TablePiece(interval=(lo, lo + 1), nodes=n, tail=tail,
                          coef=coef)


@lru_cache(maxsize=64)
def quad_kernel(V: float, params: ModelParams) -> KernelQuadrature:
    return KernelQuadrature(V, params)


def U_integral(xi, V: float, params: ModelParams):
    """Quadrature evaluation of U(xi) at sigma = Sigma(V) = sigma_AC(V).

    Independent of the residue route, constant included: panels over [0, K]
    with an arc past each root at the axis on its alpha -> 0+ side, plus an
    analytic tail. Serves as the oracle for U_profile.
    """
    return _shaped(xi, quad_kernel(V, params).U(xi))


def q_integral(xi, V: float, params: ModelParams):
    """Quadrature evaluation of the kernel q(xi); oracle for kernel_q."""
    return _shaped(xi, quad_kernel(V, params).q(xi))


def ac_admissible(V: float, params: ModelParams) -> bool:
    """Sign check of the classical wave: U > 0 for xi < 0, U < 0 for xi > 0.

    Reads U by read_wave at +-LADDER and +-SIGN_GRID, the spacing
    ADMISSIBLE_SPACING on (0, ADMISSIBLE_RANGE], so the ladder and the
    grid's first points come from the U table.
    """
    return admissible_signs(lambda x: read_wave(x, UNIT_ATOM, V, params),
                            np.concatenate([LADDER, SIGN_GRID]))
