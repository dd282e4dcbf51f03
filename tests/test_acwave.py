"""Classical smoothened waves: kinetic relation, profiles, admissibility.

The two independent evaluation routes (residue series and contour
quadrature) cross-validate each other, and the profile is pushed back
through the traveling-frame equation it is supposed to solve.
"""

import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fkwaves import (
    ModelParams,
    QuadratureFail,
    TruncationWarning,
    U_integral,
    U_profile,
    ac_admissible,
    find_z,
    kernel_q,
    kinetic_wave,
    q_integral,
    sigma_AC,
    solve_shape,
    threshold_V0,
)
from fkwaves import acwave, dispersion
from fkwaves.acwave import (
    ADMISSIBLE_SPACING,
    ADMISSIBLE_TOL,
    LADDER,
    QUAD_REACH,
    QUAD_SELF_TOL,
    SIGN_GRID,
    TABLE_REACH,
    TABLE_TOL,
    UNIT_ATOM,
    KernelQuadrature,
    admissible_signs,
    convolve,
    quad_kernel,
    read_wave,
)
from fkwaves.dispersion import eval_Lk, is_resonant, real_roots, root_set
from fkwaves.quadrature import KFAC, tail_terms_needed

# frozen module outputs; guard against silent drift of either route
SIGMA_V05 = 0.13365213078946997
SIGMA_V045 = 0.12897350952960743

# central differences with h = 5e-4 leave O(h^2 u'''') ~ 1e-5 in the
# second derivative near the kink, so the equation residual cannot be
# expected below ~1e-4
FD_H = 5e-4
RESIDUAL_TOL = 2e-4

DUAL_ROUTE_TOL = 1e-8
# one root per mirror family against the sum over every root
FAMILY_TOL = 1e-12
# undamped sigma_AC against the phonon sum
PHONON_REL_TOL = 1e-14
# threshold_V0 at mu = 1 by damping
V0_DAMPED = {0.1: 0.3561111708818856, 0.5: 0.3487542621159957,
             1.0: 0.329481635659428, 1.5: 0.2920784643140889}
DERIV_TOL = 1e-6

# the kernel tables against the quadrature they interpolate
TABLE_MATCH_TOL = 1e-12
# the quadrature route's measure-folded panel sum against the sum over its
# lags, relative to the largest value
FAR_LAG_TOL = 1e-14
# its points: near the plateau, past TABLE_REACH and close to QUAD_REACH
FOLD_POINTS = np.array([-19.5, -9.0, -5.5, -3.3, -1.0, 0.3, 0.7, 1.7, 4.5,
                        10.0, 19.5])
# tracemalloc peak of a 20-point quadrature read of the 100-atom V = 0.2
# shape (5.2 MiB measured)
FOLD_PEAK_BYTES = 7 * 2**20
# find_z zeros computed with the quadrature at every lag, before the kernel
# tables; the tables must leave every bit of them in place
FIND_Z_ZEROS = {
    (0.2, 0.0): [0.21245312092439184, 0.49417664763312674,
                 0.5268578635671605, 0.7245556674063581, 0.9914312510070561],
    (0.1023, 0.0): [0.056496078248293884, 0.13878631779232864,
                    0.18948981787423663, 0.2568971838291335,
                    0.35474384114427393, 0.5315171230514094,
                    0.5951702232030952, 0.6688121518698877,
                    0.7596855798907248, 0.8582706352299866],
    (0.3, 0.0): [0.06554660588690323, 0.5752028668751507],
    (0.25, 0.1): [0.14342887295117168, 0.6420898205829118],
}


def equation_residual(profile, xi, V, params, sigma):
    """Traveling-frame equation residual at points xi (FD derivatives).

    The on-site force changes branch with the sign of xi; points within
    FD_H of zero are rejected so the stencil never straddles the kink.
    """
    xi = np.asarray(xi, float)
    assert np.all(np.abs(xi) > FD_H)
    u = profile(xi)
    up = (profile(xi + FD_H) - profile(xi - FD_H)) / (2.0 * FD_H)
    upp = (profile(xi + FD_H) - 2.0 * u + profile(xi - FD_H)) / FD_H**2
    lap = profile(xi + 1.0) - 2.0 * u + profile(xi - 1.0)
    force = sigma - (u + 1.0) + 2.0 * (xi < 0.0)
    return V**2 * upp - params.alpha * V * up - lap - params.mu * force


class TestSigmaAC:
    def test_frozen_anchors(self, params):
        assert sigma_AC(0.5, params) == pytest.approx(SIGMA_V05, rel=1e-12)
        assert sigma_AC(0.45, params) == pytest.approx(SIGMA_V045, rel=1e-12)

    def test_positive_below_sound(self, params):
        for V in (0.2, 0.3, 0.45, 0.6, 0.8):
            assert sigma_AC(V, params) > 0.0

    def test_alpha_continuity(self, params):
        # damping enters the kinetic relation linearly at small alpha
        base = sigma_AC(0.5, params)
        d3 = sigma_AC(0.5, ModelParams(1.0, 1e-3)) - base
        d4 = sigma_AC(0.5, ModelParams(1.0, 1e-4)) - base
        assert d3 == pytest.approx(10.0 * d4, rel=1e-3)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 4.0])
    def test_undamped_is_the_phonon_sum(self, mu):
        # the radiated energy of the classical kink, 2 mu sum 1/|r L_k(r)|
        # over the positive real roots. Near the resonance clusters of small
        # V, L_k(r) is small and the roots' rounding enters the sum itself:
        # at mu 4, V 0.0638 it is 1.1e-14 off a 40-digit sum and sigma_AC
        # 2.8e-15, so the reference is read from V = 0.15 up
        p = ModelParams(mu, 0.0)
        for V in np.linspace(0.15, 1.2, 15):
            r = real_roots(V, p)
            ref = 2.0 * mu * np.sum(1.0 / np.abs(r * eval_Lk(r, V, p)))
            assert sigma_AC(V, p) == pytest.approx(ref, rel=PHONON_REL_TOL)

    @pytest.mark.parametrize("alpha,V", [(1.0, 0.15), (0.5, 0.15),
                                         (1.5, 0.3)])
    def test_damped_residue_sum_converges_to_it(self, alpha, V):
        # the continuity sum mu (S_plus - S_minus), S_pm = sum 1/(k L_k)
        # over the upper / lower roots, falls short of sigma_AC by a
        # truncation of order N^-3 in the N root pairs it keeps: -3.04e-8
        # at N = 400 and -3.87e-9 at 800 for alpha 1, V 0.15
        p = ModelParams(1.0, alpha)
        err = []
        for n in (400, 800):
            roots = dispersion._complex_roots(V, p, n)
            s = [np.sum(1.0 / (k * eval_Lk(k, V, p)))
                 for k in (roots.upper, roots.lower)]
            err.append(p.mu * (s[0] - s[1]).real - sigma_AC(V, p))
        assert abs(err[1]) <= 1e-8
        assert 7.0 <= err[0] / err[1] <= 9.0


def every_root_sums(xi, atoms, V, params):
    """U and q as residue sums over every root of root_set: both members
    of each mirror family, and r with -r for each real root, with U's
    constant from sigma_AC. The sums are complex; their imaginary parts
    cancel."""
    roots = root_set(V, params)
    s, a = atoms
    branches = []
    for cx, real in ((roots.upper, roots.real_ahead),
                     (roots.lower, roots.real_behind)):
        k = np.concatenate([cx, real, -real])
        lk = eval_Lk(k, V, params)
        P = np.exp(-1j * np.outer(k, s)) @ a
        branches.append((k, lk, P))
    sig = sigma_AC(V, params)
    mu2, mass = 2.0 * params.mu, np.sum(a)

    def side(x, branch, sign):
        k, lk, P = branch
        E = np.exp(1j * np.outer(x, k)) * P
        U = (sig - sign) * mass - sign * mu2 * (E @ (1.0 / (k * lk)))
        return U, sign * mu2 * (E @ (1j / lk))

    ahead, behind = xi > s[-1], xi < s[0]
    U, q = np.zeros(xi.shape, complex), np.zeros(xi.shape, complex)
    for rows, branch, sign in ((ahead, branches[0], 1.0),
                               (behind, branches[1], -1.0)):
        U[rows], q[rows] = side(xi[rows], branch, sign)
    on = ~(ahead | behind)
    if on.any():
        (Up, qp), (Um, qm) = (side(s, b, g) for b, g in
                              ((branches[0], 1.0), (branches[1], -1.0)))
        U[on], q[on] = 0.5 * (Up + Um), 0.5 * (qp + qm)
    return U, q


class TestMirrorFamilies:
    # the residue route sums each mirror family once, as w Re(term); the
    # sum over every root it stands for must agree; small V leaves damped
    # lag-0 reads short of converged, which TestTruncation covers
    @pytest.mark.filterwarnings("ignore::fkwaves.TruncationWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mu=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
           alpha=st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
           V=st.floats(0.1, 1.2),
           three=st.booleans(),
           d=st.lists(st.floats(0.05, 60.0), min_size=1, max_size=6))
    def test_matches_sum_over_every_root(self, mu, alpha, V, three, d):
        p = ModelParams(mu, alpha)
        assume(not is_resonant(V, p))
        atoms = ((np.array([-0.4, 0.1, 0.5]), np.array([0.3, -0.2, 0.9]))
                 if three else (np.zeros(1), np.ones(1)))
        s = atoms[0]
        d = np.array(d)
        xi = np.concatenate([s[-1] + d, s[0] - d, [] if three else s])
        U, q = every_root_sums(xi, atoms, V, p)
        for kind, ref in (("U", U), ("q", q)):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(ref.imag)) <= FAMILY_TOL * scale, kind
            got = convolve(xi, atoms, V, p, kind)
            assert np.max(np.abs(got - ref.real)) <= FAMILY_TOL * scale, kind


class TestProfileEquation:
    XI = np.array([-3.3, -1.7, -0.7, -0.3, 0.3, 0.7, 1.7, 3.3, 6.1])

    @pytest.mark.parametrize("V,alpha", [(0.5, 0.0), (0.2, 0.0), (0.5, 0.1)])
    def test_residue_route_solves_equation(self, V, alpha):
        p = ModelParams(1.0, alpha)
        sigma = sigma_AC(V, p)
        prof = lambda x: U_profile(x, V, p)
        res = equation_residual(prof, self.XI, V, p, sigma)
        assert np.abs(res).max() < RESIDUAL_TOL

    def test_quadrature_route_solves_equation(self, params):
        V = 0.2
        sigma = sigma_AC(V, params)
        prof = lambda x: U_integral(x, V, params)
        res = equation_residual(prof, self.XI, V, params, sigma)
        assert np.abs(res).max() < RESIDUAL_TOL


class TestDualRoute:
    XI = np.array([-5.5, -2.2, -0.4, 0.7, 3.3, 8.5])

    @pytest.mark.parametrize("V", [0.5, 0.2])
    def test_profiles_agree(self, V, params):
        a = U_profile(self.XI, V, params)
        b = U_integral(self.XI, V, params)
        assert np.abs(a - b).max() < DUAL_ROUTE_TOL

    @pytest.mark.parametrize("V", [0.5, 0.2])
    def test_kernels_agree(self, V, params):
        # q jumps at xi = 0, so the residue series converges like 1/n
        # there; stay half a site away and allow for the slower decay
        xs = np.array([-5.5, -2.2, -0.7, 0.7, 3.3, 8.5])
        a = kernel_q(xs, V, params)
        b = q_integral(xs, V, params)
        assert np.abs(a - b).max() < 5e-8

    def test_branch_average_at_zero(self, params):
        assert U_integral(0.0, 0.5, params) == pytest.approx(0.0, abs=1e-12)
        assert U_integral(0.0, 0.2, params) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("V", [0.15, 0.3, 0.8])
    def test_damped_branch_average_at_zero(self, V, alpha):
        # sigma_AC is the quadrature's own continuity constant, so U(0)
        # vanishes up to rounding at every damping; no root set enters
        assert abs(U_integral(0.0, V, ModelParams(1.0, alpha))) <= 1e-12

    @pytest.mark.parametrize(
        "f", [U_profile, kernel_q, U_integral, q_integral],
        ids=["U_profile", "kernel_q", "U_integral", "q_integral"])
    def test_result_shape_follows_input(self, f, params):
        assert isinstance(f(0.7, 0.5, params), float)
        for xi in (np.array([0.7]), np.array([-0.7, 0.7])):
            out = f(xi, 0.5, params)
            assert isinstance(out, np.ndarray) and out.shape == xi.shape


class TestTwoRouteKernel:
    # the contour's arcs against the residue route, which knows nothing of
    # them; an arc on the wrong side of a root moves q by O(1)
    XI = np.array([-5.5, -2.2, -0.7, 0.7, 2.2, 5.5])
    TOL = 1e-6

    @pytest.mark.parametrize("V,alpha", [
        (0.2443848, 0.0), (0.1572026, 0.0), (0.1021824, 0.0),
        (0.1032124, 0.0), (0.2444268, 1e-3), (0.1439301, 1e-3),
        (0.1032124, 1e-3)])
    def test_builds_beside_resonances(self, V, alpha):
        p = ModelParams(1.0, alpha)
        qk = KernelQuadrature(V, p)
        assert np.abs(qk.q(self.XI) - kernel_q(self.XI, V, p)).max() < self.TOL

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(V=st.floats(0.12, 1.0),
           alpha=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    def test_agrees_at_random_velocities(self, V, alpha):
        p = ModelParams(1.0, alpha)
        assume(not is_resonant(V, p))
        qk = KernelQuadrature(V, p)
        assert np.abs(qk.q(self.XI) - kernel_q(self.XI, V, p)).max() < self.TOL


class TestKernelPlan:
    @pytest.mark.parametrize("V,alpha", [
        (0.2, 0.0), (0.2443848, 0.0), (0.1032124, 0.0), (0.3, 0.1),
        (0.1032124, 1e-3), (0.05, 0.1)])
    def test_matches_root_set_plan(self, V, alpha):
        # the plan from the strip's roots against the plan from the full
        # residue root set, whose cut lies far above the planned band
        p = ModelParams(1.0, alpha)
        qk = KernelQuadrature(V, p)
        K = KFAC * np.sqrt(p.mu + 4.0) / V
        roots = root_set(V, p)
        for got, want in ((qk._refine, qk._plan_refine(roots, K)),
                          (qk._arcs, qk._plan_arcs(roots, K, alpha > 0.0))):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.allclose(g, w, rtol=0.0, atol=2e-15)

    def test_records_provenance(self, caplog):
        p = ModelParams(1.0, 0.1)
        with caplog.at_level(logging.DEBUG, logger="fkwaves"):
            qk = KernelQuadrature(0.15, p)
        prov = qk.provenance
        assert 0.0 < prov.self_check <= QUAD_SELF_TOL
        strip = dispersion.near_axis_roots(0.15, p)
        assert prov.near_axis == (strip.upper.size, strip.lower.size)
        assert not prov.dense_retry
        assert prov.tail_terms == tail_terms_needed(
            0.15, p, KFAC * np.sqrt(p.mu + 4.0) / 0.15)
        built = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("kernel at V=0.15")]
        assert len(built) == 1
        assert f"{prov.near_axis[0]} + {prov.near_axis[1]} near-axis" \
            in built[0]

    def test_tail_bound_fails_first(self):
        # at alpha = 12 no velocity has a convergent tail, and the kernel
        # says so before its strip search and self-check run
        with pytest.raises(QuadratureFail,
                           match=r"tail series .* V=1\.2, alpha=12: "):
            KernelQuadrature(1.2, ModelParams(1.0, 12.0))

    def test_self_check_names_the_kernel(self, monkeypatch):
        monkeypatch.setattr(acwave, "QUAD_SELF_TOL", 0.0)
        with pytest.raises(QuadratureFail, match=r"self-check failed at "
                           r"V=0\.3, alpha=0\.1: .* > 0e\+00"):
            KernelQuadrature(0.3, ModelParams(1.0, 0.1))

    def test_cold_threshold_reads_no_root_set(self, monkeypatch):
        # the onset needs only q(0), whose kernels plan from the strip
        calls = []
        for module in (dispersion, acwave):
            full = module.root_set
            monkeypatch.setattr(module, "root_set", lambda *a, f=full:
                                calls.append(a) or f(*a))
        quad_kernel.cache_clear()
        V0 = threshold_V0(ModelParams(1.0, 0.0))
        assert V0 == 0.3570147628397361
        assert quad_kernel.cache_info().misses > 60
        assert calls == []

    def test_profile_reads_no_root_set(self, monkeypatch):
        # U's constant is the kernel's own integral at 0, not a residue sum
        calls = []
        for module, name in ((dispersion, "root_set"), (acwave, "root_set"),
                             (acwave, "sigma_AC")):
            full = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=full:
                                calls.append(a) or f(*a))
        qk = KernelQuadrature(0.25, ModelParams(1.0, 0.1))
        u = qk.U(np.array([-2.5, 0.0, 0.4, 7.0]))
        qk.table("U")(np.array([0.0, 1.5]))
        assert abs(u[1]) <= 1e-12 and qk.sigma > 0.0
        assert calls == []


class TestQuadReach:
    # past the reach a Gauss panel spans too many periods of e^{ik xi}
    # and the sums grow without bound (-1.4e49 at mu 1, V 0.2, xi 1500)
    @pytest.mark.parametrize("mu,alpha,V", [
        (1.0, 0.0, 0.2), (1.0, 0.0, 0.1023), (1.0, 1.0, 0.2757),
        (4.0, 0.1, 0.1023), (4.0, 1.0, 0.7061), (0.5, 0.5, 0.9)])
    def test_accurate_up_to_the_reach(self, mu, alpha, V):
        # far from the atom the residue sums are exact to rounding
        p = ModelParams(mu, alpha)
        qk = KernelQuadrature(V, p)
        xi = np.array([-QUAD_REACH, -QUAD_REACH + 0.37, QUAD_REACH - 0.37,
                       QUAD_REACH])
        assert np.abs(qk.q(xi) - kernel_q(xi, V, p)).max() <= QUAD_SELF_TOL
        assert np.abs(qk.U(xi) - U_profile(xi, V, p)).max() <= QUAD_SELF_TOL

    @pytest.mark.parametrize("read", [
        lambda x, V, p: U_integral(x, V, p),
        lambda x, V, p: q_integral(x, V, p),
        lambda x, V, p: quad_kernel(V, p).q(np.array([0.0, x])),
        lambda x, V, p: convolve(np.array([x]), UNIT_ATOM, V, p, "U", "quad"),
        lambda x, V, p: read_wave(np.array([x]), UNIT_ATOM, V, p, "q",
                                  "quad"),
        lambda x, V, p: kinetic_wave(V, p).evaluate(x, method="quad"),
    ], ids=["U_integral", "q_integral", "q", "convolve", "read_wave",
            "evaluate"])
    @pytest.mark.parametrize("x", [-QUAD_REACH - 1e-9, 1500.0])
    def test_beyond_the_reach_raises(self, read, x, params):
        with pytest.raises(ValueError, match=f"QUAD_REACH = {QUAD_REACH:g}"):
            read(x, 0.5, params)

    @pytest.mark.parametrize("kind", ["q", "U"])
    def test_nan_lag_raises(self, kind, params):
        with pytest.raises(ValueError, match=f"QUAD_REACH = {QUAD_REACH:g}"):
            getattr(quad_kernel(0.5, params), kind)(np.array([0.0, np.nan]))


class TestFoldedQuadrature:
    # past TABLE_REACH the quadrature route folds a measure into one panel
    # sum through P(k) = sum_j a_j e^{-ik s_j}
    @pytest.mark.parametrize("alpha, V, z", [
        (0.0, 0.2, FIND_Z_ZEROS[(0.2, 0.0)][0]),
        (0.0, 0.1023, FIND_Z_ZEROS[(0.1023, 0.0)][4]),
        (0.1, 0.25, 0.14342887295117168)])
    @pytest.mark.parametrize("kind", ["q", "U"])
    def test_matches_sum_over_lags(self, alpha, V, z, kind):
        # the plateau shape's atoms and the points lie on a grid of 2^-20,
        # so every lag xi - s_j is exact: a rounded lag moves q by up to
        # 2e-14 at V 0.1023, an error of the reference, not of the sum
        p = ModelParams(1.0, alpha)
        shape = solve_shape(z, V, p)
        s = np.round(shape.s * 2.0**20) / 2.0**20
        xi = np.round(FOLD_POINTS * 2.0**20) / 2.0**20
        qk = quad_kernel(V, p)
        lags = (xi[:, None] - s).ravel()
        ref = getattr(qk, kind)(lags).reshape(xi.size, s.size) @ shape.a
        got = convolve(xi, (s, shape.a), V, p, kind, "quad")
        assert np.max(np.abs(got - ref)) <= FAR_LAG_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["q", "U"])
    def test_lag_beyond_the_reach_raises(self, kind, params):
        # the point lies within QUAD_REACH, its lag from the first atom not
        atoms = (np.array([-0.3, 0.2]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=f"QUAD_REACH = {QUAD_REACH:g}"):
            convolve(np.array([4.0, QUAD_REACH - 0.1]), atoms, 0.2, params,
                     kind, "quad")

    def test_tail_blocked_in_memory(self, wave_v02, params):
        # 20 points x 100 atoms: the analytic tail of all 2000 lags at once
        # would peak at 18 MiB
        atoms = (wave_v02.shape.s, wave_v02.shape.a)
        xi = np.linspace(-9.0, 10.0, 20)
        convolve(xi, atoms, 0.2, params, "U", "quad")
        tracemalloc.start()
        try:
            convolve(xi, atoms, 0.2, params, "U", "quad")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= FOLD_PEAK_BYTES


class TestKernelTable:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(V=st.floats(0.12, 0.9), alpha=st.sampled_from([0.0, 0.1]),
           lags=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
    def test_matches_quadrature(self, V, alpha, lags):
        p = ModelParams(1.0, alpha)
        assume(not is_resonant(V, p))
        qk = KernelQuadrature(V, p)
        lags = np.array(lags)
        for kind in ("q", "U"):
            err = np.abs(qk.table(kind)(lags) - getattr(qk, kind)(lags))
            assert err.max() <= TABLE_MATCH_TOL, kind

    def test_far_lag_takes_quadrature(self, params):
        # past TABLE_REACH the read is the measure-folded panel sum, which
        # takes every node in complex arithmetic: q's own value to rounding
        V = 0.4321
        qk = quad_kernel(V, params)
        xi = np.array([0.5, 3.5])
        got = convolve(xi, UNIT_ATOM, V, params, "q", "quad")
        ref = qk.q(xi)
        assert np.max(np.abs(got - ref)) <= FAR_LAG_TOL * np.max(np.abs(ref))
        assert qk.table("q").pieces == ()
        with pytest.raises(ValueError):
            qk.table("q")(xi)
        with pytest.raises(ValueError):
            qk.table("h")

    def test_pieces_report_their_build(self, params, caplog):
        qk = KernelQuadrature(0.2, params)
        with caplog.at_level(logging.DEBUG, logger="fkwaves"):
            qk.table("q")(np.array([-0.5, 0.25, 1.5, 0.75]))
        pieces = qk.table("q").pieces
        assert [pc.interval for pc in pieces] == [(-1, 0), (0, 1), (1, 2)]
        for pc in pieces:
            assert pc.nodes in (16, 32, 64, 128)
            assert 0.0 < pc.tail <= TABLE_TOL
            assert pc.coef.size == pc.nodes
        built = [r.getMessage() for r in caplog.records
                 if "table piece" in r.getMessage()]
        assert len(built) == 3
        assert f"{pieces[0].nodes} nodes" in built[0]

    def test_node_cap_raises(self, params, monkeypatch):
        monkeypatch.setattr(acwave, "TABLE_MAX_NODES", 16)
        qk = KernelQuadrature(0.2, params)
        with pytest.raises(QuadratureFail,
                           match=r"q table piece \[0, 1\].* at 16 nodes"):
            qk.table("q")(np.array([0.5]))

    @pytest.mark.parametrize("mu, alpha, V", [
        (4.0, 0.0, 0.05), (4.0, 0.1, 0.05), (4.0, 0.0, 0.4), (4.0, 0.1, 0.4),
        (0.5, 0.0, 1.2)])
    def test_every_piece_builds(self, mu, alpha, V):
        # outer q pieces are small against q(0), and at mu = 4, V = 0.05 so
        # are the U pieces: their tails stop at the kernel's rounding floor
        qk = KernelQuadrature(V, ModelParams(mu, alpha))
        lags = np.arange(-TABLE_REACH, TABLE_REACH) + 0.5
        for kind in ("q", "U"):
            err = np.abs(qk.table(kind)(lags) - getattr(qk, kind)(lags))
            assert len(qk.table(kind).pieces) == 2 * TABLE_REACH
            assert err.max() <= TABLE_MATCH_TOL, kind

    @pytest.mark.parametrize("V,alpha", list(FIND_Z_ZEROS))
    def test_find_z_zeros_unchanged(self, V, alpha):
        assert find_z(V, ModelParams(1.0, alpha)) == FIND_Z_ZEROS[(V, alpha)]


class TestKernelDerivative:
    def test_q_is_minus_dU(self, params):
        # q(xi) = -U'(xi) at sigma = Sigma(V)
        V, h = 0.2, 1e-5
        xs = np.array([0.4, 1.3, 2.6, 5.1])
        du = (U_integral(xs + h, V, params) - U_integral(xs - h, V, params)) / (2 * h)
        assert np.abs(q_integral(xs, V, params) + du).max() < DERIV_TOL


class TestAdmissibility:
    def test_brackets_threshold(self, params):
        # sign condition fails just below the threshold velocity, holds above
        assert not ac_admissible(0.35, params)
        assert ac_admissible(0.36, params)

    def test_far_from_threshold(self, params):
        assert not ac_admissible(0.30, params)
        assert ac_admissible(0.50, params)

    def test_ladder_doubles_up_to_the_grid(self):
        assert np.array_equal(LADDER, ADMISSIBLE_TOL * 2.0 ** np.arange(16))
        assert LADDER[-1] < ADMISSIBLE_SPACING <= 2.0 * LADDER[-1]

    @pytest.mark.parametrize("alpha", sorted(V0_DAMPED))
    def test_admissible_just_above_threshold(self, alpha):
        # U(0) = 0, so u at -LADDER[0] is about q(0) LADDER[0], positive
        # once q(0) > 0 above V0: the sign pattern holds right above it
        assert ac_admissible(V0_DAMPED[alpha] + 1e-3, ModelParams(1.0, alpha))

    def test_kinetic_wave_takes_the_kink_above_threshold(self):
        # V0 = 0.32948 at alpha 1: 2e-4 above it the classical kink is
        # admissible and no plateau is needed
        p = ModelParams(1.0, 1.0)
        wave = kinetic_wave(0.3297, p)
        assert wave.branch == "ac" and wave.admissible
        assert wave.sigma == sigma_AC(0.3297, p)

    def test_only_the_ladder_sees_the_bump(self, params):
        # just below V0 = 0.35701 the violation hugs the front
        V = 0.3568

        def u(x):
            return read_wave(x, UNIT_ATOM, V, params)

        assert admissible_signs(u, SIGN_GRID)
        assert not admissible_signs(u, LADDER)
        assert not ac_admissible(V, params)


class TestTruncation:
    def test_warns_when_series_too_short(self, params, monkeypatch):
        # the series length is fixed, so a two-pair root set stands in for
        # a series that is too short
        monkeypatch.setattr(acwave, "root_set", lambda V, p:
                            dispersion._complex_roots(V, p, 2))
        with pytest.warns(TruncationWarning):
            U_profile(np.array([0.0]), 0.2, params)

    @pytest.mark.parametrize("read", [
        U_profile, kernel_q,
        lambda x, V, p: convolve(np.array([x]), UNIT_ATOM, V, p, "U"),
        lambda x, V, p: convolve(np.array([x]), UNIT_ATOM, V, p, "q")],
        ids=["U_profile", "kernel_q", "convolve_U", "convolve_q"])
    def test_warning_names_the_caller(self, read, monkeypatch):
        monkeypatch.setattr(acwave, "root_set", lambda V, p:
                            dispersion._complex_roots(V, p, 2))
        with pytest.warns(TruncationWarning) as record:
            read(0.0, 0.1023, ModelParams(1.0, 0.1))
        assert [w.filename for w in record] == [__file__]

    def test_silent_at_default_length(self, params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U_profile(np.array([0.0, 1.0]), 0.2, params)


class TestVelocityCheck:
    # NaN passes a V <= 0 test and inf a V > 0 one; every entry point
    # names the velocity before any root search or kernel build
    @pytest.mark.parametrize("f,alpha", [
        (dispersion.root_set, 0.0), (dispersion.root_set, 0.1),
        (dispersion.near_axis_roots, 0.1), (real_roots, 0.0),
        (KernelQuadrature, 0.0), (KernelQuadrature, 0.1), (sigma_AC, 0.1),
        (kinetic_wave, 0.0), (kinetic_wave, 0.1),
        (lambda V, p: U_profile(1.0, V, p), 0.1)],
        ids=["root_set", "root_set_damped", "near_axis_roots", "real_roots",
             "KernelQuadrature", "KernelQuadrature_damped", "sigma_AC",
             "kinetic_wave", "kinetic_wave_damped", "U_profile"])
    @pytest.mark.parametrize("V", [np.nan, np.inf, 0.0, -0.2])
    def test_names_the_velocity(self, f, alpha, V):
        with pytest.raises(ValueError,
                           match="V must be positive and finite"):
            f(V, ModelParams(1.0, alpha))
