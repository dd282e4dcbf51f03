"""Construction of traveling waves with a zero plateau (the z > 0 branch).

Below the threshold velocity the classical kink violates its sign
constraints. A generalized wave fixes this by staying exactly at the
spinodal value u = 0 on a plateau [-z, z]: writing u as a convolution of a
normalized shape function h supported on [-z, z] with the classical profile
U turns the plateau condition into a homogeneous Fredholm equation of the
first kind with the kernel q(xi - s). Discretized on a uniform mesh the
equation becomes Q(z) h = 0; z is located where det Q(z) changes sign, h is
the null direction, and the stress follows from u(z) + u(-z) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .acwave import (
    ADMISSIBLE_SPACING,
    UNIT_ATOM,
    ac_admissible,
    convolve,
    sigma_AC,
)
from .dispersion import bisect_change, require_nonresonant
from .errors import (
    NoAdmissibleWave,
    NoCandidate,
    NotConverged,
    NullspaceNotRankOne,
    ResonantVelocity,
)
from .params import ModelParams

DEFAULT_MESH = 100
# z grid scanned for determinant sign changes: Z_FLOOR_POINTS geometric
# points from Z_FLOOR (z -> 0 as V -> V0), then Z_SCAN_POINTS on Z_RANGE
Z_RANGE = (0.005, 1.0)
Z_SCAN_POINTS = 160
Z_FLOOR = 1e-5
Z_FLOOR_POINTS = 24
Z_BISECT_TOL = 1e-8
# plateau flatness required before a wave counts as admissible; the
# achieved residual is reported on the wave and shrinks with the mesh
PLATEAU_TOL = 1e-3
PLATEAU_SAMPLES = 41
# sign constraints sampled on +-(z, z+range]
CHECK_RANGE = 40.0
# singular-value gates for the null direction
NULLSPACE_REL = 1e-6
NULLSPACE_GAP = 1e-3
# residue-route waves evaluate points this close to the plateau by quadrature
NEAR_PLATEAU = 0.5


@dataclass(frozen=True)
class ShapeFunction:
    """Normalized weight h whose convolution with U builds the wave.

    weights are sampled values of h on the mesh; the trapezoidal integral of
    weights plus the two optional point masses at -z and +z equals 1. The
    purely analytic small-z approximations carry their mass entirely in
    delta_minus / delta_plus (at xi = -z / +z) and an optional constant.
    """

    z: float
    mesh: np.ndarray
    weights: np.ndarray
    delta_plus: float = 0.0
    delta_minus: float = 0.0

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The shape as a discrete measure: positions and masses.

        The masses are the trapezoidal weights times h; the point masses
        join the atoms at the mesh ends, which are exactly -z and +z.
        Without a mesh the point masses are the atoms, and the classical
        z = 0 wave is one unit atom at 0.
        """
        if len(self.mesh):
            s, a = self.mesh, _trapezoid(self.mesh) * self.weights
        elif self.z > 0:
            s, a = np.array([-self.z, self.z]), np.zeros(2)
        else:
            s, a = np.zeros(1), np.zeros(1)
        a[0] += self.delta_minus
        a[-1] += self.delta_plus
        return s, a

    def mass(self) -> float:
        return float(np.sum(self.atoms()[1]))


@dataclass(frozen=True)
class KineticPoint:
    V: float
    sigma: float
    z: float
    admissible: bool
    branch: str  # "ac" | "new"
    flag: str = "ok"


@dataclass(frozen=True)
class WaveSolution:
    """Assembled traveling wave u(xi) at one velocity."""

    V: float
    params: ModelParams
    z: float
    sigma: float
    shape: ShapeFunction
    residual: float
    admissible: bool
    branch: str

    def evaluate(self, xi, method: str = "residue") -> np.ndarray:
        """u(xi) = sigma - Sigma(V) + integral h(s) U(xi - s) ds.

        method "residue" (default: residue sums, with the points within
        NEAR_PLATEAU of the plateau by quadrature) or "quad" (quadrature
        throughout, the cross-check route).
        """
        Sigma = sigma_AC(self.V, self.params)
        return self.sigma - Sigma + self._convolve(xi, "U", method)

    def derivative(self, xi, method: str = "residue") -> np.ndarray:
        """du/dxi; the kernel q is -dU/dxi, so this is -(h * q)(xi).

        A traveling wave moves sites by du/dt = -V du/dxi, which seeds the
        velocity field of a chain simulation.
        """
        return -self._convolve(xi, "q", method)

    def _convolve(self, xi, kind: str, method: str) -> np.ndarray:
        """convolve of the shape's atoms; on the residue route the points
        within NEAR_PLATEAU of [-z, z] take the quadrature route, because
        there the residue series of the slope converge slowly."""
        xi = np.atleast_1d(np.asarray(xi, float))
        quad = np.abs(xi) <= self.z + NEAR_PLATEAU if method == "residue" \
            else np.zeros(xi.shape, bool)
        out = np.zeros(xi.shape)
        for route, rows in ((method, ~quad), ("quad", quad)):
            if rows.any():
                out[rows] = convolve(xi[rows], self.shape.atoms(), self.V,
                                     self.params, kind, route)
        return out


def _trapezoid(mesh: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights of a uniform mesh."""
    if len(mesh) < 2:
        return np.zeros(len(mesh))
    d = mesh[1] - mesh[0]
    w = np.full(len(mesh), d)
    w[0] = w[-1] = 0.5 * d
    return w


def build_Q(z: float, V: float, params: ModelParams,
            m: int = DEFAULT_MESH, kernel: str = "quad") -> np.ndarray:
    """Discretized plateau operator Q[i][j] = w_j q(xi_i - s_j).

    Uniform m-point mesh on [-z, z] with trapezoidal weights; rows are the
    plateau collocation points, columns the shape samples. Convolution
    structure: Q[i][j] / w_j depends on i - j only.
    """
    if m < 3:
        raise ValueError("mesh size m must be >= 3")
    if z <= 0:
        raise ValueError("z must be positive")
    # kernel values q((i - j) d) for all lags of the uniform mesh
    lags = np.arange(-(m - 1), m) * (2.0 * z / (m - 1))
    qv = convolve(lags, UNIT_ATOM, V, params, "q", kernel)
    w = _trapezoid(np.linspace(-z, z, m))
    idx = np.arange(m)
    Q = qv[(idx[:, None] - idx[None, :]) + m - 1]
    return Q * w[None, :]


def find_z(V: float, params: ModelParams, m: int = DEFAULT_MESH,
           kernel: str = "quad") -> list[float]:
    """Plateau half-widths where det Q(z) changes sign, ascending.

    The sign of det Q (from slogdet) is scanned on the fixed grid of z
    over [Z_FLOOR, Z_RANGE[1]]; each change is narrowed by bisect_change
    to a bracket of width Z_BISECT_TOL, whose midpoint is returned. Raises
    NoCandidate when the determinant keeps one sign across the grid.
    """
    require_nonresonant(V, params)

    def sign(z: float) -> float:
        return np.linalg.slogdet(build_Q(z, V, params, m, kernel))[0]

    zs = np.concatenate([
        np.geomspace(Z_FLOOR, Z_RANGE[0], Z_FLOOR_POINTS, endpoint=False),
        np.linspace(*Z_RANGE, Z_SCAN_POINTS)])
    signs = np.array([sign(z) for z in zs])
    out: list[float] = []
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        a, b = bisect_change(sign, zs[i], zs[i + 1], signs[i], Z_BISECT_TOL)
        z = 0.5 * (a + b)
        if not out or z - out[-1] > 10 * Z_BISECT_TOL:
            out.append(z)
    if not out:
        raise NoCandidate(
            f"det Q has no sign change for z in [{Z_FLOOR:g}, "
            f"{Z_RANGE[1]:g}] at V={V}")
    return out


def solve_shape(z: float, V: float, params: ModelParams,
                m: int = DEFAULT_MESH,
                kernel: str = "quad") -> ShapeFunction:
    """Null direction of Q(z), normalized to unit trapezoidal integral.

    Extracted from the SVD; requires a clean rank-one null space: smallest
    singular value <= 1e-6 of the largest and well separated from the next.
    """
    Q = build_Q(z, V, params, m, kernel)
    _, sv, vt = np.linalg.svd(Q)
    if sv[-1] > NULLSPACE_REL * sv[0]:
        raise NotConverged(
            f"smallest singular value {sv[-1]:.2e} is not a null direction "
            f"(largest {sv[0]:.2e}); z={z} is not a determinant zero")
    if sv[-1] > NULLSPACE_GAP * sv[-2]:
        raise NullspaceNotRankOne(
            f"ambiguous null space: s_min={sv[-1]:.2e} s_next={sv[-2]:.2e}")
    h = vt[-1]
    s = np.linspace(-z, z, m)
    integral = float(_trapezoid(s) @ h)
    if integral == 0.0:
        raise NullspaceNotRankOne("null direction has zero mean")
    h = h / integral
    return ShapeFunction(z=z, mesh=s, weights=h)


def assemble_wave(shape: ShapeFunction, V: float, params: ModelParams,
                  kernel: str = "quad") -> WaveSolution:
    """Wave profile and stress from a shape function.

    sigma is fixed by u(z) + u(-z) = 0; the reported residual is max |u|
    over uniformly spaced plateau samples. Admissibility is judged by
    check_generalized with default range and plateau tolerance.
    """
    Sigma = sigma_AC(V, params)
    atoms = shape.atoms()
    edges = np.array([shape.z, -shape.z])
    plateau = np.linspace(-shape.z, shape.z, PLATEAU_SAMPLES) \
        if shape.z > 0 else np.zeros(1)
    u_edges, u_plat = np.split(convolve(
        np.concatenate([edges, plateau]), atoms, V, params, "U", kernel),
        [2])
    sigma = Sigma - 0.5 * float(np.sum(u_edges))
    residual = float(np.max(np.abs(sigma - Sigma + u_plat)))
    wave = WaveSolution(
        V=V, params=params, z=shape.z, sigma=sigma, shape=shape,
        residual=residual, admissible=False,
        branch="new" if shape.z > 0 else "ac")
    return replace(wave, admissible=check_generalized(wave))


def check_generalized(wave: WaveSolution) -> bool:
    """Generalized admissibility: flat plateau and strict signs outside.

    True iff the plateau residual is <= PLATEAU_TOL and u < 0 on
    (z, z + CHECK_RANGE], u > 0 on [-z - CHECK_RANGE, -z), sampled at
    spacing ADMISSIBLE_SPACING.
    """
    if wave.residual > PLATEAU_TOL:
        return False
    n = int(np.ceil(CHECK_RANGE / ADMISSIBLE_SPACING))
    xs = wave.z + np.linspace(ADMISSIBLE_SPACING, CHECK_RANGE, n)
    right = wave.evaluate(xs)
    left = wave.evaluate(-xs)
    return bool(np.all(right < 0.0) and np.all(left > 0.0))


def kinetic_point(V: float, params: ModelParams, m: int = DEFAULT_MESH,
                  kernel: str = "quad") -> KineticPoint:
    """One point of the kinetic relation sigma(V).

    Returns the classical branch when it is admissible; otherwise runs the
    plateau pipeline and returns the unique admissible z > 0 wave (smallest
    plateau residual when several candidates pass).
    """
    wave = kinetic_wave(V, params, m, kernel)
    return KineticPoint(V=V, sigma=wave.sigma, z=wave.z,
                        admissible=wave.admissible, branch=wave.branch)


def kinetic_wave(V: float, params: ModelParams, m: int = DEFAULT_MESH,
                 kernel: str = "quad") -> WaveSolution:
    """Full wave behind kinetic_point; used for profiles and chain seeding."""
    require_nonresonant(V, params)
    if ac_admissible(V, params):
        shape = ShapeFunction(z=0.0, mesh=np.array([]), weights=np.array([]),
                              delta_plus=0.5, delta_minus=0.5)
        return assemble_wave(shape, V, params, kernel)
    candidates = find_z(V, params, m, kernel)
    accepted: list[WaveSolution] = []
    reasons: list[tuple[float, str]] = []
    for z in candidates:
        try:
            shape = solve_shape(z, V, params, m, kernel)
        except (NotConverged, NullspaceNotRankOne) as exc:
            reasons.append((z, f"{type(exc).__name__}: {exc}"))
            continue
        wave = assemble_wave(shape, V, params, kernel)
        if wave.admissible:
            accepted.append(wave)
        elif wave.residual > PLATEAU_TOL:
            reasons.append((z, f"plateau residual {wave.residual:.2e} > "
                               f"PLATEAU_TOL = {PLATEAU_TOL:.0e}"))
        else:
            reasons.append((z, "sign violated outside the plateau"))
    if not accepted:
        raise NoAdmissibleWave(
            f"no admissible wave at V={V}: {len(candidates)} determinant "
            "zeros, none passed the sign and plateau checks; "
            + "; ".join(f"z={z:.6g}: {why}" for z, why in reasons),
            reasons)
    accepted.sort(key=lambda w: w.residual)
    return accepted[0]


def kinetic_curve(V_list, params: ModelParams, m: int = DEFAULT_MESH,
                  kernel: str = "quad") -> list[KineticPoint]:
    """kinetic_point per velocity; failures become flagged placeholder rows.

    Resonant velocities are marked SKIPPED_RESONANT with NaN sigma.
    Velocities where the plateau pipeline finds nothing keep the classical
    branch value as an inadmissible reference row (the classical relation
    stays finite off resonance, damping included) flagged NO_CANDIDATE or
    NO_ADMISSIBLE_WAVE. The sweep always continues.
    """
    out = []
    for V in V_list:
        try:
            out.append(kinetic_point(V, params, m, kernel))
        except ResonantVelocity:
            out.append(KineticPoint(V=V, sigma=np.nan, z=np.nan,
                                    admissible=False, branch="",
                                    flag="SKIPPED_RESONANT"))
        except (NoCandidate, NoAdmissibleWave) as exc:
            flag = ("NO_CANDIDATE" if isinstance(exc, NoCandidate)
                    else "NO_ADMISSIBLE_WAVE")
            sigma = sigma_AC(V, params)
            out.append(KineticPoint(V=V, sigma=sigma, z=0.0,
                                    admissible=False, branch="ac",
                                    flag=flag))
    return out
