"""Plateau waves: Fredholm discretization, z location, assembly, kinetics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fkwaves import (
    ModelParams,
    NoAdmissibleWave,
    NotConverged,
    ResonantVelocity,
    U_integral,
    assemble_wave,
    build_Q,
    find_z,
    kinetic_curve,
    kinetic_point,
    kinetic_wave,
    sigma_AC,
    solve_shape,
)
from fkwaves import newwave
from fkwaves.acwave import U_profile, convolve, kernel_q

# frozen pipeline outputs at default mesh/kernel
Z_V02 = 0.21245312092439184
SIGMA_V02 = 0.12977743281914506
Z_V03 = 0.06554660588690323
SIGMA_V03 = 0.1281659579778525
Z_V025_M40 = 0.13960252013596347

FIRST_RESONANCE_V = 0.24441475248391872
# residue convolution of a whole measure against the sum over its atoms
CONVOLVE_TOL = 1e-11
# quadrature-route assembly of the V = 0.2 wave evaluates 43 x 100 lags
ASSEMBLE_PEAK_BYTES = 64 * 2**20


@pytest.fixture(scope="module")
def z_candidates(params):
    return find_z(0.2, params)


class TestBuildQ:
    def test_convolution_structure(self, params):
        # Q[i][j] / w_j depends on i - j only
        Q = build_Q(0.2, 0.2, params, m=24)
        s = np.linspace(-0.2, 0.2, 24)
        d = s[1] - s[0]
        tw = np.full(24, d)
        tw[0] = tw[-1] = 0.5 * d
        core = Q / tw[None, :]
        for off in (-5, -1, 0, 1, 5):
            diag = np.diagonal(core, offset=off)
            assert np.abs(diag - diag[0]).max() < 1e-12

    def test_input_validation(self, params):
        with pytest.raises(ValueError):
            build_Q(0.2, 0.2, params, m=2)
        with pytest.raises(ValueError):
            build_Q(-0.1, 0.2, params)


class TestFindZ:
    def test_smallest_zero_is_kinetic_plateau(self, z_candidates):
        assert z_candidates == sorted(z_candidates)
        assert z_candidates[0] == pytest.approx(Z_V02, abs=1e-7)

    def test_resonant_velocity_rejected(self, params):
        with pytest.raises(ResonantVelocity):
            find_z(FIRST_RESONANCE_V, params)


class TestSolveShape:
    def test_null_direction(self, params, z_candidates):
        z = z_candidates[0]
        h = solve_shape(z, 0.2, params)
        Q = build_Q(z, 0.2, params)
        assert np.abs(Q @ h.weights).max() < 1e-6
        assert h.mass() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_zero(self, params):
        # z away from any determinant zero has no null direction
        with pytest.raises(NotConverged):
            solve_shape(0.15, 0.2, params)


class TestWaveSolution:
    def test_frozen_v02(self, wave_v02):
        assert wave_v02.branch == "new"
        assert wave_v02.admissible
        assert wave_v02.z == pytest.approx(Z_V02, abs=1e-7)
        assert wave_v02.sigma == pytest.approx(SIGMA_V02, rel=1e-9)
        assert wave_v02.residual < 1e-5

    def test_plateau_pinned(self, wave_v02):
        xs = np.array([-wave_v02.z, -0.3 * wave_v02.z, 0.0, wave_v02.z])
        assert np.abs(wave_v02.evaluate(xs)).max() <= wave_v02.residual * 1.01

    def test_sign_structure(self, wave_v02):
        z = wave_v02.z
        assert wave_v02.evaluate(np.array([z + 1.0]))[0] < 0.0
        assert wave_v02.evaluate(np.array([-z - 1.0]))[0] > 0.0

    def test_evaluate_methods_agree(self, wave_v02):
        xs = np.array([0.8, 2.0, -1.5, 5.5])
        a = wave_v02.evaluate(xs, method="quad")
        b = wave_v02.evaluate(xs, method="residue")
        assert np.abs(a - b).max() < 1e-8

    def test_derivative_matches_fd(self, wave_v02):
        xs = np.array([0.8, 2.0, -1.5])
        h = 1e-5
        fd = (wave_v02.evaluate(xs + h) - wave_v02.evaluate(xs - h)) / (2 * h)
        assert np.abs(wave_v02.derivative(xs) - fd).max() < 1e-6

    def test_residue_slope_near_plateau(self, wave_v02):
        # the residue series of the slope converge slowly beside the
        # plateau; there the residue route must match the quadrature route
        d = wave_v02.z + np.array([0.05, 0.1, 0.3])
        xs = np.concatenate([d, -d])
        a = wave_v02.derivative(xs, method="residue")
        b = wave_v02.derivative(xs, method="quad")
        assert np.abs(a - b).max() <= 1e-8

    def test_assemble_memory_bounded(self, wave_v02, params):
        tracemalloc.start()
        try:
            assemble_wave(wave_v02.shape, 0.2, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= ASSEMBLE_PEAK_BYTES

    def test_zero_plateau_reduces_to_classical(self, wave_v05, params):
        # above threshold the pipeline returns the classical wave exactly
        assert wave_v05.branch == "ac"
        assert wave_v05.z == 0.0
        assert wave_v05.sigma == pytest.approx(sigma_AC(0.5, params), abs=1e-14)
        xs = np.array([-3.7, -1.1, 0.6, 2.9, 7.3])
        diff = wave_v05.evaluate(xs) - U_integral(xs, 0.5, params)
        assert np.abs(diff).max() < 1e-10


class TestKinetics:
    def test_frozen_v03(self, params):
        kp = kinetic_point(0.3, params)
        assert kp.z == pytest.approx(Z_V03, abs=1e-7)
        assert kp.sigma == pytest.approx(SIGMA_V03, rel=1e-9)
        assert kp.branch == "new" and kp.admissible

    def test_mesh_self_convergence(self, params):
        a = kinetic_point(0.25, params, m=40)
        b = kinetic_point(0.25, params, m=80)
        assert a.z == pytest.approx(Z_V025_M40, abs=1e-7)
        assert abs(b.z - a.z) < 1e-6
        assert abs(b.sigma - a.sigma) < 1e-5

    def test_curve_marks_resonance(self, params):
        rows = kinetic_curve([FIRST_RESONANCE_V], params)
        assert rows[0].flag == "SKIPPED_RESONANT"
        assert np.isnan(rows[0].sigma)

    def test_rejection_reasons(self, params, z_candidates, monkeypatch):
        monkeypatch.setattr(newwave, "check_generalized", lambda wave: False)
        with pytest.raises(NoAdmissibleWave) as info:
            kinetic_wave(0.2, params)
        reasons = dict(info.value.reasons)
        assert sorted(reasons) == z_candidates
        # the kinetic plateau is flat, so only the sign check can fail it
        assert reasons[z_candidates[0]] == "sign violated outside the plateau"
        for why in reasons.values():
            assert why in str(info.value)
            assert why.startswith(("sign violated", "plateau residual",
                                   "NotConverged: ", "NullspaceNotRankOne: "))

    def test_damped_curve_finite_at_former_resonance(self):
        # damping removes the resonance; the plateau branch takes over and
        # the curve stays finite where the undamped relation diverges
        rows = kinetic_curve([0.157173], ModelParams(1.0, 0.1))
        assert rows[0].flag == "ok"
        assert rows[0].branch == "new" and rows[0].admissible
        assert rows[0].z > 0.0
        assert np.isfinite(rows[0].sigma)


@st.composite
def atoms_and_points(draw):
    """Sorted atoms on [-1, 1] with masses, and points on, between and far
    outside them."""
    n = draw(st.integers(1, 6))
    s = np.sort(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                               max_size=n)))
    on = [s[i] for i in draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      max_size=3))]
    edges = np.concatenate([[s[0] - 0.5], s, [s[-1] + 0.5]])
    between = []
    for i, t in draw(st.lists(st.tuples(st.integers(0, n),
                                        st.floats(0.01, 0.99)),
                              min_size=1, max_size=4)):
        between.append(edges[i] + t * (edges[i + 1] - edges[i]))
    far = [sign * x for sign, x in draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1.5, 1500.0)),
        min_size=1, max_size=3))]
    return s, a, np.array(on + between + far)


class TestConvolution:
    @pytest.mark.parametrize("V, alpha", [(0.2, 0.0), (0.25, 0.1)])
    @settings(max_examples=40, deadline=None)
    @given(case=atoms_and_points())
    def test_residue_matches_sum_over_atoms(self, V, alpha, case):
        s, a, xi = case
        p = ModelParams(1.0, alpha)
        for kind, f in (("U", U_profile), ("q", kernel_q)):
            ref = sum(aj * np.atleast_1d(f(xi - sj, V, p))
                      for sj, aj in zip(s, a))
            got = convolve(xi, (s, a), V, p, kind)
            assert np.abs(got - ref).max() <= CONVOLVE_TOL, kind

    @pytest.mark.parametrize("V, alpha", [(0.2, 0.0), (0.25, 0.1)])
    def test_lag_zero_is_branch_average(self, V, alpha):
        # an atom at xi belongs to neither side; e^{ik x} is exactly 1 at
        # the smallest |x|, so those points give the one-sided limits
        p = ModelParams(1.0, alpha)
        tiny = np.nextafter(0.0, 1.0)
        for f in (U_profile, kernel_q):
            plus, zero, minus = f(np.array([tiny, 0.0, -tiny]), V, p)
            assert zero == pytest.approx(0.5 * (plus + minus), abs=1e-15)

    def test_rejects_unsorted_atoms(self, params):
        with pytest.raises(ValueError):
            convolve(np.zeros(1), (np.array([0.1, -0.1]), np.ones(2)),
                     0.2, params)
