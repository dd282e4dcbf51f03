"""Plateau waves: Fredholm discretization, z location, assembly, kinetics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fkwaves import (
    ModelParams,
    NoAdmissibleWave,
    NoCandidate,
    NotConverged,
    ResonantVelocity,
    U_integral,
    assemble_wave,
    build_Q,
    find_z,
    is_resonant,
    kernel_jet,
    kinetic_curve,
    kinetic_wave,
    sigma_AC,
    solve_shape,
    z_quartic,
)
from fkwaves import newwave
from fkwaves.acwave import (
    NEAR_FIELD,
    RESIDUE_CUT,
    UNIT_ATOM,
    U_profile,
    _branch_sum,
    _one_sided_sum,
    _residue_branches,
    convolve,
    kernel_q,
    read_wave,
)

# frozen pipeline outputs at default mesh/kernel
Z_V02 = 0.21245312092439184
SIGMA_V02 = 0.12977743281914506
Z_V03 = 0.06554660588690323
SIGMA_V03 = 0.1281659579778525
Z_V025_M40 = 0.13960252013596347

FIRST_RESONANCE_V = 0.24441475248391872
# velocities in the last 0.005 below V0 (0.35701 undamped, 0.35611 at
# alpha 0.1), where z falls below Z_RANGE; with the relative bound on z
# against the quartic small-plateau law
NEAR_V0 = [(0.0, (0.3526, 0.353, 0.354, 0.355, 0.356, 0.3568), 1e-3),
           (0.1, (0.35, 0.354, 0.3558), 5e-3)]
# residue convolution of a whole measure against the sum over its atoms
CONVOLVE_TOL = 1e-11
# the residue route's per-point cut against the sum over every family: the
# cut's own bound plus this many ulps of the sum of the terms' sizes (the
# two sums round differently: up to 4.7 ulps seen, at mu 2, V 1, xi 1.5)
CUT_ULPS = 8
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

    def test_no_sign_change_raises(self, params, monkeypatch):
        # no velocity tried (0.5, 0.8, 1.2) keeps det Q of one sign, so a
        # positive definite Q stands in for one
        monkeypatch.setattr(newwave, "build_Q", lambda z, *a: np.eye(3))
        with pytest.raises(NoCandidate, match="no sign change"):
            find_z(0.5, params)

    def test_resonant_velocity_rejected(self, params):
        with pytest.raises(ResonantVelocity):
            find_z(FIRST_RESONANCE_V, params)


class TestSolveShape:
    def test_null_direction(self, params, z_candidates):
        # the plateau equation on the mesh: Q[i, j] h_j = q(s_i - s_j) a_j
        z = z_candidates[0]
        sh = solve_shape(z, 0.2, params)
        plateau = convolve(sh.s, (sh.s, sh.a), 0.2, params, "q", "quad")
        assert np.abs(plateau).max() < 1e-6
        assert sh.mass() == pytest.approx(1.0, abs=1e-12)

    def test_end_atoms_converge(self, params):
        # the end samples of h grow like 1/d with the mesh spacing d, but
        # the end atoms, the point masses at -z and +z, converge
        ends = []
        for m in (50, 100, 200):
            z = find_z(0.2, params, m)[0]
            ends.append(solve_shape(z, 0.2, params, m).a[[0, -1]])
        coarse = np.abs(ends[1] - ends[0])
        fine = np.abs(ends[2] - ends[1])
        assert np.all(coarse < 2e-3)
        assert np.all(fine <= 0.5 * coarse)

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
        assert wave_v05.sigma == sigma_AC(0.5, params)
        xs = np.array([-3.7, -1.1, 0.6, 2.9, 7.3])
        diff = wave_v05.evaluate(xs) - U_integral(xs, 0.5, params)
        assert np.abs(diff).max() < 1e-10

    def test_classical_shape_is_read_only(self, wave_v05):
        # every classical wave and every U_profile / kernel_q call share
        # the unit atom, so a write through one wave must fail
        with pytest.raises(ValueError):
            wave_v05.shape.a[0] = 2.0
        assert wave_v05.shape.mass() == 1.0

    def test_damped_classical_sigma_is_kinetic(self):
        # the classical wave's stress is Sigma(V) by definition, not an
        # assembled value that carries the quadrature's error in U(0)
        damped = ModelParams(1.0, 0.1)
        assert kinetic_wave(0.5, damped).sigma == sigma_AC(0.5, damped)


class TestKinetics:
    def test_frozen_v03(self, params):
        kp = kinetic_wave(0.3, params)
        assert kp.z == pytest.approx(Z_V03, abs=1e-7)
        assert kp.sigma == pytest.approx(SIGMA_V03, rel=1e-9)
        assert kp.branch == "new" and kp.admissible

    def test_mesh_self_convergence(self, params):
        a = kinetic_wave(0.25, params, m=40)
        b = kinetic_wave(0.25, params, m=80)
        assert a.z == pytest.approx(Z_V025_M40, abs=1e-7)
        assert abs(b.z - a.z) < 1e-6
        assert abs(b.sigma - a.sigma) < 1e-5

    def test_curve_marks_resonance(self, params):
        rows = kinetic_curve([FIRST_RESONANCE_V], params)
        assert rows[0].flag == "SKIPPED_RESONANT"
        assert np.isnan(rows[0].sigma)

    def test_curve_keeps_classical_placeholders(self, params, monkeypatch):
        # a velocity without a plateau wave keeps a flagged, inadmissible
        # classical row, and the sweep goes on to the next velocity
        build = newwave.kinetic_wave
        failures = {0.3: NoCandidate("no zero"),
                    0.4: NoAdmissibleWave("none admissible")}

        def failing(V, *args):
            if V in failures:
                raise failures[V]
            return build(V, *args)

        monkeypatch.setattr(newwave, "kinetic_wave", failing)
        rows = kinetic_curve([0.3, 0.4, 0.5], params)
        for row, flag in zip(rows, ("NO_CANDIDATE", "NO_ADMISSIBLE_WAVE")):
            assert row.flag == flag
            assert row.sigma == sigma_AC(row.V, params)
            assert row.z == 0.0 and row.branch == "ac"
            assert not row.admissible
        wave = build(0.5, params)
        assert rows[2].flag == "ok" and rows[2].sigma == wave.sigma
        assert rows[2].admissible and rows[2].branch == "ac"

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

    @pytest.mark.parametrize("alpha, velocities, rel", NEAR_V0)
    def test_branch_reaches_threshold(self, alpha, velocities, rel,
                                      monkeypatch):
        # record the waves behind the rows as kinetic_curve builds them
        waves = []
        build = newwave.kinetic_wave

        def recording(*args):
            waves.append(build(*args))
            return waves[-1]

        monkeypatch.setattr(newwave, "kinetic_wave", recording)
        params = ModelParams(1.0, alpha)
        rows = kinetic_curve(velocities, params)
        assert len(waves) == len(rows)
        for row, wave in zip(rows, waves):
            assert row.flag == "ok" and row.admissible and row.branch == "new"
            assert row.z == wave.z
            predicted = z_quartic(kernel_jet(row.V, params))
            assert abs(row.z - predicted) <= rel * predicted
            assert wave.shape.mass() == pytest.approx(1.0, abs=1e-12)

    def test_unresolved_plateau_is_named(self, params):
        # at m = 100 the null space of Q(z) is not resolved below z ~ 2e-4:
        # z(0.3569) = 1.25e-4 fails the rank-one gate by name
        with pytest.raises(NoAdmissibleWave) as info:
            kinetic_wave(0.3569, params)
        z, why = info.value.reasons[0]
        assert z == pytest.approx(1.25e-4, rel=1e-2)
        assert why.startswith("NullspaceNotRankOne: ")

    @pytest.mark.slow
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(V=st.floats(0.12, 0.35), alpha=st.sampled_from((0.0, 0.1)))
    def test_shape_has_unit_mass(self, V, alpha):
        # below threshold the wave's shape is a unit measure on [-z, z]
        # with its end atoms at the plateau edges
        params = ModelParams(1.0, alpha)
        assume(not is_resonant(V, params))
        shape = kinetic_wave(V, params).shape
        assert shape.mass() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(shape.s) > 0.0)
        assert shape.s[0] == -shape.z and shape.s[-1] == shape.z

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
    """Sorted atoms on [-1, 1] with masses, and points outside their support,
    near it and far from it; a single atom is also read at its own
    position."""
    n = draw(st.integers(1, 6))
    s = np.sort(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                               max_size=n)))
    on = [s[0]] if n == 1 else []
    near = [s[-1] + d if sign > 0 else s[0] - d for sign, d in draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.005, 0.5)),
        min_size=1, max_size=4))]
    far = [sign * x for sign, x in draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1.5, 1500.0)),
        min_size=1, max_size=3))]
    return s, a, np.array(on + near + far)


def assert_cut_holds(x, side, k, coef):
    """A branch's cut read at x against its sum over every family: within
    RESIDUE_CUT of each point's largest term, plus CUT_ULPS ulps of the sum
    of its terms' sizes for the two sums' rounding."""
    got = _branch_sum(x, side, k, coef)
    ref = _one_sided_sum(x, k, coef)
    size = np.abs(np.exp(1j * np.outer(x, k)) * coef)
    bound = (RESIDUE_CUT * np.max(size, axis=1, initial=0.0)
             + CUT_ULPS * np.finfo(float).eps * np.sum(size, axis=1))
    assert np.all(np.abs(got - ref) <= bound)


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

    @settings(max_examples=60, deadline=None)
    @given(mu=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           alpha=st.sampled_from([0.0, 0.1, 1.0]),
           V=st.floats(0.1, 1.2), case=atoms_and_points())
    def test_residue_cut_within_its_bound(self, mu, alpha, V, case):
        p = ModelParams(mu, alpha)
        assume(not is_resonant(V, p))
        s, a, xi = case
        for kind in ("U", "q"):
            branches = _residue_branches(s, a, V, p, kind)
            for (k, coef, _), side in zip(branches, (1.0, -1.0)):
                x = xi[side * xi >= side * (s[-1] if side > 0 else s[0])]
                assert_cut_holds(x, side, k, coef)

    @pytest.mark.parametrize("mu, alpha, V", [(1.0, 0.0, 0.2),
                                              (4.0, 1.0, 0.4)])
    def test_residue_cut_at_the_smallest_depth(self, mu, alpha, V):
        # a point one denormal past the atom keeps every term it needs
        p = ModelParams(mu, alpha)
        tiny = np.nextafter(0.0, 1.0)
        for kind in ("U", "q"):
            branches = _residue_branches(*UNIT_ATOM, V, p, kind)
            for (k, coef, _), side in zip(branches, (1.0, -1.0)):
                assert_cut_holds(np.array([side * tiny, 0.0]), side, k, coef)

    @pytest.mark.parametrize("V, alpha", [(0.2, 0.0), (0.25, 0.1)])
    def test_lag_zero_is_branch_average(self, V, alpha):
        # an atom at xi belongs to neither side; e^{ik x} is exactly 1 at
        # the smallest |x|, so those points give the one-sided limits
        p = ModelParams(1.0, alpha)
        tiny = np.nextafter(0.0, 1.0)
        for f in (U_profile, kernel_q):
            plus, zero, minus = f(np.array([tiny, 0.0, -tiny]), V, p)
            assert zero == pytest.approx(0.5 * (plus + minus), abs=1e-15)

    def test_rejects_unknown_kind_and_method(self, params):
        with pytest.raises(ValueError, match="unknown convolution kind"):
            convolve(np.zeros(1), UNIT_ATOM, 0.2, params, kind="u")
        with pytest.raises(ValueError, match="unknown kernel method"):
            convolve(np.zeros(1), UNIT_ATOM, 0.2, params, method="fft")

    def test_read_wave_near_field_rule(self, wave_v02):
        # points within NEAR_FIELD of [-z, z] take the quadrature route,
        # the points beyond it the residues
        w = wave_v02
        atoms = (w.shape.s, w.shape.a)
        edge = w.z + NEAR_FIELD
        xi = np.array([-edge - 0.1, -edge, -0.1, 0.0, edge, edge + 0.1, 5.0])
        near = np.abs(xi) <= edge
        got = read_wave(xi, atoms, w.V, w.params, "q")
        for rows, route in ((near, "quad"), (~near, "residue")):
            assert np.array_equal(got[rows], convolve(
                xi[rows], atoms, w.V, w.params, "q", route))

    def test_residue_reads_only_outside_the_support(self, params):
        # between or on the atoms of a measure of several atoms the residue
        # route raises; read_wave takes those points by quadrature
        atoms = (np.array([-0.2, 0.1, 0.2]), np.array([0.3, 0.5, 0.2]))
        for x in (-0.2, 0.0, 0.1, 0.15, 0.2):
            with pytest.raises(ValueError, match="read_wave"):
                convolve(np.array([3.0, x]), atoms, 0.2, params)
        xi = np.array([-0.2, 0.0, 0.15, 0.2])
        for kind in ("U", "q"):
            assert np.array_equal(
                read_wave(xi, atoms, 0.2, params, kind),
                convolve(xi, atoms, 0.2, params, kind, "quad"))

    @pytest.mark.parametrize("method", ["residue", "quad"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, params, method, bad):
        with pytest.raises(ValueError, match="finite points"):
            convolve(np.array([2.0, bad]), UNIT_ATOM, 0.2, params,
                     method=method)
        with pytest.raises(ValueError, match="finite points"):
            read_wave(np.array([bad]), UNIT_ATOM, 0.2, params, "q", method)

    @pytest.mark.parametrize("method", ["residue", "quad"])
    @pytest.mark.parametrize("atoms", [
        (np.empty(0), np.empty(0)),
        (np.array([0.0, 0.1]), np.ones(1)),
    ], ids=["empty", "ragged"])
    def test_rejects_empty_or_ragged_measure(self, params, method, atoms):
        with pytest.raises(ValueError, match="at least one atom"):
            convolve(np.array([2.0]), atoms, 0.2, params, method=method)
        with pytest.raises(ValueError, match="at least one atom"):
            read_wave(np.array([1.0]), atoms, 0.2, params, method=method)

    def test_rejects_unsorted_atoms(self, params):
        with pytest.raises(ValueError):
            convolve(np.zeros(1), (np.array([0.1, -0.1]), np.ones(2)),
                     0.2, params)
