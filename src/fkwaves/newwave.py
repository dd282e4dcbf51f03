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
    SIGN_GRID,
    UNIT_ATOM,
    ac_admissible,
    admissible_signs,
    convolve,
    read_wave,
    sigma_AC,
)
from .dispersion import bisect_change
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
# singular-value gates for the null direction
NULLSPACE_REL = 1e-6
NULLSPACE_GAP = 1e-3


@dataclass(frozen=True)
class ShapeFunction:
    """Normalized shape h whose convolution with U builds the wave.

    The shape is a discrete measure on [-z, z]: atoms at the ascending
    positions s with masses a, which sum to 1. A plateau shape has its
    first and last atoms at -z and +z, and those carry the end point
    masses; the classical z = 0 wave is one unit atom at 0. z is the last
    atom's position.
    """

    s: np.ndarray
    a: np.ndarray

    @property
    def z(self) -> float:
        return float(self.s[-1])

    def mass(self) -> float:
        return float(np.sum(self.a))


# the classical kink's shape: the unit atom at 0
CLASSICAL = ShapeFunction(*UNIT_ATOM)


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
    """Assembled traveling wave u(xi) at one velocity.

    The plateau half-width z is the shape's, and the branch is "new" for a
    plateau (z > 0) and "ac" for the classical kink (z = 0).
    """

    V: float
    params: ModelParams
    sigma: float
    shape: ShapeFunction
    residual: float
    admissible: bool

    @property
    def z(self) -> float:
        return self.shape.z

    @property
    def branch(self) -> str:
        return "new" if self.z > 0 else "ac"

    def evaluate(self, xi, method: str = "residue") -> np.ndarray:
        """u(xi) = sigma - Sigma(V) + integral h(s) U(xi - s) ds.

        method "residue" (default: residue sums, with the points within
        NEAR_FIELD of the plateau by quadrature, as read_wave does) or
        "quad" (quadrature throughout, the cross-check route).
        """
        u = read_wave(xi, (self.shape.s, self.shape.a), self.V, self.params,
                      "U", method)
        return self.sigma - sigma_AC(self.V, self.params) + u

    def derivative(self, xi, method: str = "residue") -> np.ndarray:
        """du/dxi; the kernel q is -dU/dxi, so this is -(h * q)(xi).

        A traveling wave moves sites by du/dt = -V du/dxi, which seeds the
        velocity field of a chain simulation.
        """
        return -read_wave(xi, (self.shape.s, self.shape.a), self.V,
                          self.params, "q", method)


def _trapezoid(mesh: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights of a uniform mesh of >= 2 points."""
    d = mesh[1] - mesh[0]
    w = np.full(len(mesh), d)
    w[0] = w[-1] = 0.5 * d
    return w


def build_Q(z: float, V: float, params: ModelParams,
            m: int = DEFAULT_MESH) -> np.ndarray:
    """Discretized plateau operator Q[i][j] = w_j q(xi_i - s_j).

    Uniform m-point mesh on [-z, z] with trapezoidal weights; rows are the
    plateau collocation points, columns the shape samples. Convolution
    structure: Q[i][j] / w_j depends on i - j only. The kernel values come
    from convolve's quadrature route, that is the kernel's q table.
    """
    if m < 3:
        raise ValueError("mesh size m must be >= 3")
    if z <= 0:
        raise ValueError("z must be positive")
    # kernel values q((i - j) d) for all lags of the uniform mesh
    lags = np.arange(-(m - 1), m) * (2.0 * z / (m - 1))
    qv = convolve(lags, UNIT_ATOM, V, params, "q", "quad")
    w = _trapezoid(np.linspace(-z, z, m))
    idx = np.arange(m)
    Q = qv[(idx[:, None] - idx[None, :]) + m - 1]
    return Q * w[None, :]


def find_z(V: float, params: ModelParams,
           m: int = DEFAULT_MESH) -> list[float]:
    """Plateau half-widths where det Q(z) changes sign, ascending.

    The sign of det Q (from slogdet) is scanned on the fixed grid of z
    over [Z_FLOOR, Z_RANGE[1]]; each change is narrowed by bisect_change
    to a bracket of width Z_BISECT_TOL, whose midpoint is returned. Raises
    NoCandidate when the determinant keeps one sign across the grid.
    """

    def sign(z: float) -> float:
        return np.linalg.slogdet(build_Q(z, V, params, m))[0]

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
                m: int = DEFAULT_MESH) -> ShapeFunction:
    """Null direction of Q(z) as atoms on the mesh, of unit total mass.

    The atoms are the mesh points with masses w_j h_j, w the trapezoidal
    weights and h the null direction from the SVD. Requires a clean
    rank-one null space: smallest singular value <= 1e-6 of the largest and
    well separated from the next.
    """
    Q = build_Q(z, V, params, m)
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
    w = _trapezoid(s)
    integral = float(w @ h)
    if integral == 0.0:
        raise NullspaceNotRankOne("null direction has zero mean")
    return ShapeFunction(s=s, a=w * (h / integral))


def assemble_wave(shape: ShapeFunction, V: float,
                  params: ModelParams) -> WaveSolution:
    """Wave profile and stress from a shape function.

    sigma is fixed by u(z) + u(-z) = 0; the reported residual is max |u|
    over uniformly spaced plateau samples. Admissibility is judged by
    check_generalized with default range and plateau tolerance.
    """
    Sigma = sigma_AC(V, params)
    edges = np.array([shape.z, -shape.z])
    plateau = np.linspace(-shape.z, shape.z, PLATEAU_SAMPLES)
    u_edges, u_plat = np.split(convolve(
        np.concatenate([edges, plateau]), (shape.s, shape.a), V, params,
        "U", "quad"), [2])
    sigma = Sigma - 0.5 * float(np.sum(u_edges))
    residual = float(np.max(np.abs(sigma - Sigma + u_plat)))
    wave = WaveSolution(V=V, params=params, sigma=sigma, shape=shape,
                        residual=residual, admissible=False)
    return replace(wave, admissible=check_generalized(wave))


def check_generalized(wave: WaveSolution) -> bool:
    """Generalized admissibility: flat plateau and strict signs outside.

    True iff the plateau residual is <= PLATEAU_TOL, u < 0 at z + SIGN_GRID
    and u > 0 at -z - SIGN_GRID: the grid and the sign test
    (admissible_signs) of ac_admissible, without its ladder (see
    acwave.ADMISSIBLE_TOL).
    """
    if wave.residual > PLATEAU_TOL:
        return False
    return admissible_signs(wave.evaluate, wave.z + SIGN_GRID)


def kinetic_wave(V: float, params: ModelParams,
                 m: int = DEFAULT_MESH) -> WaveSolution:
    """The wave of one point of the kinetic relation sigma(V).

    Returns the classical kink when it is admissible; otherwise runs the
    plateau pipeline and returns the admissible z > 0 wave (smallest
    plateau residual when several candidates pass). An admissible
    classical kink is the wave of the CLASSICAL shape with sigma = Sigma(V);
    it needs no assembly, and ac_admissible has already checked its signs
    on SIGN_GRID.
    """
    if ac_admissible(V, params):
        return WaveSolution(V=V, params=params, sigma=sigma_AC(V, params),
                            shape=CLASSICAL, residual=0.0, admissible=True)
    candidates = find_z(V, params, m)
    accepted: list[WaveSolution] = []
    reasons: list[tuple[float, str]] = []
    for z in candidates:
        try:
            shape = solve_shape(z, V, params, m)
        except (NotConverged, NullspaceNotRankOne) as exc:
            reasons.append((z, f"{type(exc).__name__}: {exc}"))
            continue
        wave = assemble_wave(shape, V, params)
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


def kinetic_curve(V_list, params: ModelParams,
                  m: int = DEFAULT_MESH) -> list[KineticPoint]:
    """kinetic_wave per velocity; failures become flagged placeholder rows.

    Resonant velocities are marked SKIPPED_RESONANT with NaN sigma.
    Velocities where the plateau pipeline finds nothing keep the classical
    branch value as an inadmissible reference row (the classical relation
    stays finite off resonance, damping included) flagged NO_CANDIDATE or
    NO_ADMISSIBLE_WAVE. The sweep always continues.
    """
    out = []
    for V in V_list:
        try:
            wave = kinetic_wave(V, params, m)
            out.append(KineticPoint(V=V, sigma=wave.sigma, z=wave.z,
                                    admissible=wave.admissible,
                                    branch=wave.branch))
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
