"""Dispersion function, its root finding, and resonance location.

Oracles are independent of the module internals: finite differences for the
derivative, dense sign-change scans for real roots, and the one-dimensional
reduction of the resonance system solved directly with brentq.
"""

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq

from fkwaves import (
    ModelParams,
    ResonantVelocity,
    RootCountMismatch,
    eval_L,
    eval_Lk,
    is_resonant,
    real_roots,
    resonance_velocities,
    root_set,
    sigma_AC,
)
from fkwaves import dispersion
from fkwaves.acwave import QUAD_SELF_TOL, quad_kernel
from fkwaves.bifurcation import scan_velocities
from fkwaves.dispersion import (
    DEFAULT_N_PAIRS,
    MIN_DAMPING,
    STRIP_HEIGHT,
    bisect_change,
    near_axis_roots,
)

FD_TOL = 1e-6
ROOT_TOL = 1e-8
RES_TOL = 1e-8

P1 = ModelParams(mu=1.0, alpha=0.0)


class TestEvalL:
    def test_value_at_zero(self):
        # L(0) = mu exactly
        assert eval_L(np.array([0.0]), 0.5, P1)[0] == pytest.approx(1.0)

    def test_derivative_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        ks = rng.uniform(0.3, 30.0, 12) + 1j * rng.uniform(-2.0, 2.0, 12)
        h = 1e-6
        for alpha in (0.0, 0.25):
            p = ModelParams(1.0, alpha)
            fd = (eval_L(ks + h, 0.4, p) - eval_L(ks - h, 0.4, p)) / (2 * h)
            assert_allclose(eval_Lk(ks, 0.4, p), fd, rtol=1e-5, atol=FD_TOL)

    @settings(max_examples=60, deadline=None)
    @given(kr=st.floats(-25, 25), ki=st.floats(-3, 3),
           alpha=st.floats(0, 1), V=st.floats(0.05, 1.0))
    def test_conjugate_reflection_symmetry(self, kr, ki, alpha, V):
        # L(-conj(k)) = conj(L(k)) holds for every damping level
        p = ModelParams(1.0, alpha)
        k = np.array([complex(kr, ki)])
        lhs = eval_L(-np.conj(k), V, p)
        rhs = np.conj(eval_L(k, V, p))
        assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _scan_real_root_count(V, params, k_max=80.0):
    # independent count: sign changes of L(k) on a dense grid, k > 0
    k = np.linspace(1e-6, k_max, 400001)
    f = np.real(eval_L(k, V, params))
    return int(np.sum(np.sign(f[1:]) != np.sign(f[:-1])))


class TestRealRoots:
    @pytest.mark.parametrize("V", [0.5, 0.3, 0.2, 0.11])
    def test_roots_satisfy_dispersion(self, V):
        rs = real_roots(V, P1)
        assert np.all(rs > 0)
        assert np.max(np.abs(eval_L(rs, V, P1))) < ROOT_TOL

    @pytest.mark.parametrize("V", [0.5, 0.2, 0.11])
    def test_count_matches_scan(self, V):
        rs = real_roots(V, P1)
        assert len(rs) == _scan_real_root_count(V, P1)

    def test_undamped_only(self):
        with pytest.raises(ValueError, match="alpha = 0"):
            real_roots(0.5, ModelParams(1.0, 0.1))

    def test_single_pair_above_first_resonance(self):
        assert len(real_roots(0.5, P1)) == 1

    def test_radiation_side_above_first_resonance(self):
        # group velocity below the front speed puts the phonon behind
        rs = root_set(0.5, P1)
        assert len(rs.real_ahead) == 0 and len(rs.real_behind) == 1
        r = rs.real_behind[0]
        cg = np.sin(r) / np.sqrt(1.0 + 4.0 * np.sin(r / 2.0) ** 2)
        assert cg < 0.5

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(0.2, 4.0), V=st.floats(0.05, 1.5))
    def test_real_axis_invariants(self, mu, V):
        p = ModelParams(mu, 0.0)
        assume(not is_resonant(V, p))
        rs = real_roots(V, p)
        assert len(rs) == _scan_real_root_count(V, p)
        assert np.all(np.diff(rs) > 0) and np.all(rs > 0)
        assert np.max(np.abs(eval_L(rs, V, p)), initial=0.0) < ROOT_TOL
        # the radiation sides partition the roots by the sign of k L_k
        roots = near_axis_roots(V, p)
        assert np.array_equal(
            np.sort(np.concatenate([roots.real_ahead, roots.real_behind])),
            rs)
        assert np.all(roots.real_ahead
                      * eval_Lk(roots.real_ahead, V, p) > 0)
        assert np.all(roots.real_behind
                      * eval_Lk(roots.real_behind, V, p) < 0)
        for v_res, _ in resonance_velocities(p, count=3):
            assert is_resonant(v_res, p)


def _on_roots(ks, V, params):
    # a Newton step to the root below 1e-12 relative: one ulp of a far
    # root (|k| ~ 1e3) moves L by about 2e-8
    step = eval_L(ks, V, params) / eval_Lk(ks, V, params)
    return bool(np.all(np.abs(step) < 1e-12 * (1.0 + np.abs(ks))))


class TestComplexRoots:
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_roots_satisfy_dispersion(self, alpha):
        p = ModelParams(1.0, alpha)
        roots = root_set(0.5, p)
        ks = np.concatenate([roots.upper, roots.lower])
        assert len(ks) >= 2 * DEFAULT_N_PAIRS        # both half planes
        assert _on_roots(ks, 0.5, p)

    def test_roots_are_newton_fixed_points(self):
        # a seed's Newton run may stop at |L| <= COMPLEX_ROOT_TOL short of
        # the root; every root is polished, so five more steps move none
        # beyond rounding (here -3.3107 - 0.0548i moved by 8.6e-14 unpolished)
        V, p = float(np.linspace(0.05, 1.2, 107)[74]), ModelParams(4.0, 0.1)
        rs = root_set(V, p)
        for half in (rs.upper, rs.lower):
            k = half.copy()
            for _ in range(5):
                k = k - eval_L(k, V, p) / eval_Lk(k, V, p)
            assert np.all(np.abs(k - half) <= 1e-15 * (1.0 + np.abs(half)))

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_root_set_partition_is_consistent(self, alpha):
        p = ModelParams(1.0, alpha)
        rs = root_set(0.5, p)
        assert np.all(rs.upper.imag > 0)
        assert np.all(rs.lower.imag < 0)

        def sort(z):
            return np.array(sorted(z, key=lambda w: (w.imag, w.real)))

        # each half family is closed under the mirror k -> -conj(k)
        assert_allclose(sort(rs.upper), sort(-np.conj(rs.upper)),
                        rtol=1e-8, atol=1e-8)
        assert_allclose(sort(rs.lower), sort(-np.conj(rs.lower)),
                        rtol=1e-8, atol=1e-8)
        if alpha == 0.0:
            # without damping the halves are complex conjugates
            assert_allclose(sort(rs.lower), sort(np.conj(rs.upper)),
                            rtol=1e-12, atol=1e-12)

    # V keeps RESONANCE_MARGIN, twice the is_resonant tolerance, from the
    # resonances; root_set refuses damping below MIN_DAMPING, and alpha
    # starts at 1e-6.
    RESONANCE_MARGIN = 2e-5

    @settings(max_examples=40, deadline=None)
    @given(V=st.floats(0.12, 1.0),
           alpha=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
    def test_root_set_invariants(self, V, alpha):
        p = ModelParams(1.0, alpha)
        assume(all(abs(V - v) > self.RESONANCE_MARGIN
                   for v, _ in resonance_velocities(P1, count=5)))
        rs = root_set(V, p)
        n = DEFAULT_N_PAIRS
        for half in (rs.upper, rs.lower):
            # a cut never splits a mirror pair, so n or n + 1 per half
            assert len(half) in (n, n + 1)
            assert _on_roots(half, V, p)
            # each half is closed under the mirror k -> -conj(k)
            mirror = -np.conj(half)
            dist = np.abs(mirror[:, None] - half[None, :]).min(axis=1)
            assert np.all(dist <= 1e-9 * (1.0 + np.abs(half)))
        assert np.all(rs.upper.imag > 0)
        assert np.all(rs.lower.imag < 0)
        if alpha == 0.0:
            assert np.array_equal(rs.lower, np.conj(rs.upper))

    def test_tiny_damping_refused(self):
        # below the floor the damped phonon roots are indistinguishable from
        # the real axis; refuse instead of a misleading RootCountMismatch
        with pytest.raises(ValueError, match="MIN_DAMPING"):
            root_set(0.3, ModelParams(1.0, 1e-12))

    @pytest.mark.parametrize("V", [0.2, 0.3, 0.5])
    def test_min_damping_accepted(self, V):
        p = ModelParams(1.0, MIN_DAMPING)
        rs = root_set(V, p)
        for half in (rs.upper, rs.lower):
            assert len(half) in (DEFAULT_N_PAIRS, DEFAULT_N_PAIRS + 1)
            assert _on_roots(half, V, p)

    @pytest.mark.parametrize("search", ["root_set", "near_axis_roots"])
    def test_root_set_beside_resonances(self, search):
        # two real roots just below the winding contour's bottom edge turn
        # the phase by 2 pi between two of its samples unless the edge is
        # sampled above each real root
        for v_res, _ in resonance_velocities(P1, count=4):
            for dv in (-3e-4, -1e-4, -2e-5, 2e-5, 1e-4, 3e-4):
                V = v_res + dv
                if is_resonant(V, P1):
                    continue
                rs = getattr(dispersion, search)(V, P1)
                for half in (rs.upper, rs.lower):
                    if search == "root_set":
                        assert len(half) in (DEFAULT_N_PAIRS,
                                             DEFAULT_N_PAIRS + 1)
                    else:
                        assert np.all(np.abs(half.imag) < STRIP_HEIGHT)
                    assert _on_roots(half, V, P1)


def _near_resonance(mu, n, dv):
    return resonance_velocities(ModelParams(mu, 0.0), count=n)[n - 1][0] + dv


def _miscount(monkeypatch, wrong_calls):
    # the winding count is off by one on the first wrong_calls calls
    count, calls = dispersion._winding_count, []

    def miscount(*args):
        calls.append(args)
        return count(*args) + (len(calls) <= wrong_calls)

    monkeypatch.setattr(dispersion, "_winding_count", miscount)
    return calls


class TestNearAxisRoots:
    # (mu, alpha, V): both dampings, beside the resonances on both sides,
    # and the slow damped end of the threshold scan, where the strip is
    # widest (x_b ~ 46)
    CASES = [
        (1.0, 0.0, 0.2), (1.0, 0.1, 0.2), (1.0, 0.1, 0.05),
        (0.5, 0.0, 0.13), (4.0, 0.1, 0.3),
        (1.0, 0.0, _near_resonance(1.0, 1, 2e-5)),
        (1.0, 0.0, _near_resonance(1.0, 2, -1e-4)),
        (2.0, 0.1, _near_resonance(2.0, 3, 1e-3)),
        (4.0, 0.0, _near_resonance(4.0, 8, -2e-3)),
    ]

    @pytest.mark.parametrize("mu,alpha,V", CASES)
    def test_matches_root_set(self, mu, alpha, V):
        # the strip holds exactly the strip roots of the residue root set,
        # whose cut lies above the strip, in the same order
        p = ModelParams(mu, alpha)
        near, full = near_axis_roots(V, p), root_set(V, p)
        for strip, half in ((near.upper, full.upper),
                            (near.lower, full.lower)):
            assert abs(half[-1].imag) > STRIP_HEIGHT
            ref = half[np.abs(half.imag) < STRIP_HEIGHT]
            assert strip.shape == ref.shape
            assert np.max(np.abs(strip - ref), initial=0.0) < 1e-9
        assert np.array_equal(near.real_ahead, full.real_ahead)
        assert np.array_equal(near.real_behind, full.real_behind)
        assert not near.dense_retry

    def test_dense_retry_recovers(self, monkeypatch):
        p = ModelParams(1.0, 0.1)
        calls = _miscount(monkeypatch, 1)
        near = near_axis_roots(0.3, p)
        assert near.dense_retry and len(calls) == 3
        ref = root_set(0.3, p)
        assert np.allclose(near.upper, ref.upper[:near.upper.size],
                           rtol=0.0, atol=1e-9)

    def test_dense_retry_says_why(self, monkeypatch, caplog):
        _miscount(monkeypatch, 1)
        with caplog.at_level(logging.DEBUG, logger="fkwaves.dispersion"):
            assert near_axis_roots(0.3, ModelParams(1.0, 0.1)).dense_retry
        why = [r.getMessage() for r in caplog.records
               if r.name == "fkwaves.dispersion"]
        assert len(why) == 1
        assert why[0].startswith("dense retry: winding count ")
        assert "(V=0.3, alpha=0.1, first seeds)" in why[0]

    def test_count_mismatch_raises(self, monkeypatch):
        calls = _miscount(monkeypatch, 2)
        with pytest.raises(RootCountMismatch,
                           match=r"strip 0 < Im k < 0\.6 \(V=0\.3,.*dense"):
            near_axis_roots(0.3, P1)
        assert len(calls) == 2

    def test_refuses_like_root_set(self):
        with pytest.raises(ValueError, match="MIN_DAMPING"):
            near_axis_roots(0.3, ModelParams(1.0, 1e-12))
        with pytest.raises(ResonantVelocity):
            near_axis_roots(_near_resonance(1.0, 1, 0.0), P1)


class TestStripSeeds:
    # the first seeds alone find the strip: at threshold_V0's scan
    # velocities for both dampings, where a strip root lies past
    # kmax = sqrt(mu + 4) / V, and just outside the close resonance pair
    # at mu = 1 (resonances 5 and 6, 7.3e-6 apart)
    CASES = [(1.0, alpha, float(V)) for alpha in (0.0, 0.1)
             for V in scan_velocities(ModelParams(1.0, alpha))] + [
        (0.5, 0.0, 0.1), (0.5, 0.1, 0.1), (1.0, 0.1, 0.14746),
        (1.0, 0.0, _near_resonance(1.0, 6, -1.2e-5)),
        (1.0, 0.0, _near_resonance(1.0, 5, 1.2e-5))]

    @pytest.mark.parametrize("mu,alpha,V", CASES)
    def test_same_roots_as_root_set(self, mu, alpha, V):
        # both searches polish every root, but a root reached from another
        # seed may settle on a neighbouring double: within rounding of L
        p = ModelParams(mu, alpha)
        near, full = near_axis_roots(V, p), root_set(V, p)
        assert not near.dense_retry
        for strip, half in ((near.upper, full.upper),
                            (near.lower, full.lower)):
            ref = half[np.abs(half.imag) < STRIP_HEIGHT]
            assert strip.shape == ref.shape
            assert np.all(np.abs(strip - ref) <= 1e-15 * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize("mu,alpha,V,root", [
        (0.5, 0.0, 0.1, 21.78 + 0.53j), (1.0, 0.1, 0.14746, 15.587 - 0.542j)])
    def test_reaches_past_kmax(self, mu, alpha, V, root):
        near = near_axis_roots(V, ModelParams(mu, alpha))
        assert root.real > np.sqrt(mu + 4.0) / V
        half = near.upper if root.imag > 0.0 else near.lower
        assert np.min(np.abs(half - root)) < 5e-3


class TestRootSetSeeds:
    # the dense retry adds a grid up to Im k = 9 to the first seeds, an
    # independent reference for them: mu 4 undamped at V >= 1, where only
    # the imaginary-axis seeds reach the root on that axis, and damped
    # cases, among them the root set that came out furthest from its
    # Newton fixed point before every root was polished
    VS = np.linspace(0.05, 1.2, 107)
    CASES = [(4.0, 0.0, 1.0), (4.0, 0.0, 1.1), (4.0, 0.0, 1.2),
             (1.0, 0.0, 0.2), (4.0, 0.1, float(VS[74])),
             (2.0, 0.1, float(VS[2])), (0.5, 0.5, 0.36462),
             (1.0, 1.0, 0.15), (4.0, 0.5, 1.2)]

    @pytest.mark.parametrize("mu,alpha,V", CASES)
    def test_matches_dense_grid(self, mu, alpha, V):
        p = ModelParams(mu, alpha)
        rs = root_set(V, p)
        assert not rs.dense_retry
        for sgn, half in ((1.0, rs.upper), (-1.0, rs.lower)):
            ref = dispersion._band_attempt(V, p, DEFAULT_N_PAIRS, sgn,
                                           dense=True)
            assert half.shape == ref.shape
            assert np.max(np.abs(half - ref)) < 1e-12

    @pytest.mark.parametrize("V", [1.0, 1.1, 1.2])
    def test_imaginary_axis_root(self, V):
        # L(iy) = mu + V^2 y^2 - 4 sinh^2(y/2) is concave in y for V <= 1
        # and has one zero y > 0 on this range, located here by brentq
        mu = 4.0
        y = brentq(lambda y: mu + V**2 * y**2 - 4.0 * np.sinh(y / 2.0) ** 2,
                   0.0, 20.0, xtol=1e-14)
        upper = root_set(V, ModelParams(mu, 0.0)).upper
        axis = upper[upper.real == 0.0]
        assert axis.size == 1
        assert axis[0].imag == pytest.approx(y, rel=1e-12)

    def test_dense_retry_recovers(self, monkeypatch):
        p = ModelParams(1.0, 0.1)
        ref = root_set(0.3, p)
        calls = _miscount(monkeypatch, 1)
        rs = dispersion._complex_roots(0.3, p, DEFAULT_N_PAIRS)
        # upper: first seeds miscounted, dense seeds; lower: first seeds
        assert rs.dense_retry and len(calls) == 3
        for half, ref_half in ((rs.upper, ref.upper), (rs.lower, ref.lower)):
            assert half.shape == ref_half.shape
            assert np.max(np.abs(half - ref_half)) < 1e-12


class TestWindingCount:
    def test_evaluates_each_contour_point_once(self, monkeypatch):
        # a refinement round evaluates L only at the midpoints it inserts;
        # the closing corner repeats the contour's first point
        count, eval_L = dispersion._winding_count, dispersion.eval_L
        points, active = [], []

        def winding(*args):
            points.append([])
            active.append(True)
            try:
                return count(*args)
            finally:
                active.pop()

        def counted_L(k, V, params):
            if active:
                points[-1].append(np.ravel(k))
            return eval_L(k, V, params)

        monkeypatch.setattr(dispersion, "_winding_count", winding)
        monkeypatch.setattr(dispersion, "eval_L", counted_L)
        root_set.__wrapped__(0.2, ModelParams(1.0, 0.1))
        assert points
        for pts in map(np.concatenate, points):
            assert pts.size == np.unique(pts).size + 1


class TestResonances:
    def test_count_zero_is_empty(self):
        assert resonance_velocities(P1, count=0) == []

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 4.0])
    def test_against_scalar_reduction(self, mu):
        # eliminating V from L = dL/dk = 0 leaves
        #   g(k) = mu + 2 - 2 cos k - k sin k = 0,  V = sqrt(sin k / k);
        # V ~ sqrt(mu + 4) / k at large k, so k <= 200 holds the twelve
        # largest
        p = ModelParams(mu, 0.0)

        def g(k):
            return mu + 2.0 - 2.0 * np.cos(k) - k * np.sin(k)

        ks = np.linspace(0.5, 200.0, 80001)
        vals = g(ks)
        found = []
        for i in np.nonzero(vals[:-1] * vals[1:] < 0)[0]:
            k0 = brentq(g, ks[i], ks[i + 1], xtol=1e-13)
            s = np.sin(k0) / k0
            if s > 0:
                found.append((np.sqrt(s), k0))
        found.sort(reverse=True)
        got = resonance_velocities(p, count=12)
        assert len(got) == 12
        for (Vg, kg), (Vo, ko) in zip(got, found):
            assert Vg == pytest.approx(Vo, abs=RES_TOL)
            assert kg == pytest.approx(ko, abs=1e-6)
            # a double root: L and dL/dk vanish together
            assert abs(eval_L(kg, Vg, p)) < 1e-12 * (1.0 + kg**2)
            assert abs(eval_Lk(kg, Vg, p)) < 1e-12 * (1.0 + kg**2)

    def test_first_resonance_value(self):
        # regression anchor, cross-checked by the reduction test above
        V1, k1 = resonance_velocities(P1, count=1)[0]
        assert V1 == pytest.approx(0.24441475248391872, abs=1e-9)
        assert k1 == pytest.approx(8.866559875871447, abs=1e-6)

    def test_is_resonant_flags(self):
        V1 = resonance_velocities(P1, count=1)[0][0]
        assert is_resonant(V1, P1)
        assert not is_resonant(0.5, P1)
        assert not is_resonant(0.3570147628397361, P1)

    def test_resonant_velocity_refused(self):
        V1 = resonance_velocities(P1, count=1)[0][0]
        with pytest.raises(ResonantVelocity):
            sigma_AC(V1, P1)

    @pytest.mark.parametrize("dv", [0.0, -3e-6, 3e-6])
    def test_root_functions_refuse_resonance(self, dv):
        # real_roots is the one resonance gate: at V1 two real roots
        # collide, and within RESONANCE_TOL of it they nearly do
        V = resonance_velocities(P1, count=1)[0][0] + dv
        with pytest.raises(ResonantVelocity):
            real_roots(V, P1)
        with pytest.raises(ResonantVelocity):
            root_set(V, P1)


    def test_near_coincident_resonances(self):
        # at mu = 1 the fifth and sixth resonances lie 7.3e-6 apart, so
        # their exclusion zones overlap: the pair is refused as one, and
        # just outside it the kernel builds
        (v5, _), (v6, _) = resonance_velocities(P1, count=6)[4:]
        assert 0.0 < v5 - v6 < 2.0 * dispersion.RESONANCE_TOL
        mid = 0.5 * (v5 + v6)
        for f in (real_roots, near_axis_roots, quad_kernel):
            with pytest.raises(ResonantVelocity):
                f(mid, P1)
        for V in (v5 + 1.2e-5, v6 - 1.2e-5):
            assert quad_kernel(V, P1).provenance.self_check <= QUAD_SELF_TOL


class TestModelParams:
    @pytest.mark.parametrize("mu, alpha", [
        (float("inf"), 0.0), (1.0, float("inf")), (1.0, float("nan"))])
    def test_rejects_non_finite(self, mu, alpha):
        with pytest.raises(ValueError):
            ModelParams(mu, alpha)


class TestBisectChange:
    def test_zero_tol_ends_at_adjacent_doubles(self):
        # below the double spacing, tol is never met: the bisection ends
        # once no double lies strictly inside the bracket
        def label(x):
            return "Trapped" if x < 0.1 else "Steady"

        a, b = bisect_change(label, 0.0, 1.0, "Trapped", 0.0)
        assert label(a) == "Trapped" and label(b) == "Steady"
        assert b == np.nextafter(a, np.inf)
