"""Kernel jet, threshold velocity, and the small-plateau expansion."""

import numpy as np
import pytest

from fkwaves import (
    ModelParams,
    NoPositiveRoot,
    NoSignChange,
    RegimeMismatch,
    kernel_jet,
    shape_linear,
    shape_quadratic,
    threshold_V0,
    z_linear,
    z_quartic,
)
from fkwaves import bifurcation
from fkwaves.acwave import quad_kernel
from fkwaves.bifurcation import V0_SCAN_POINTS, KernelJet, scan_velocities

V0_ALPHA0 = 0.3570147628397361
V0_ALPHA01 = 0.3561111708818856

# frozen identity-route jet at V = 0.5
JET_V05 = {
    "q0": 0.5667831365654605,
    "q_plus": 1.7690429972023534,
    "q_minus": -6.230957002797647,
    "q2": -3.845743995988479,
}


class TestKernelJet:
    def test_frozen_jet(self, params):
        jet = kernel_jet(0.5, params)
        for name, want in JET_V05.items():
            assert getattr(jet, name) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("V,mu", [(0.5, 1.0), (0.45, 1.0), (0.5, 2.0)])
    def test_slope_jump(self, V, mu):
        # the corner of the on-site force fixes q'(0+) - q'(0-) = 2 mu / V^2
        jet = kernel_jet(V, ModelParams(mu, 0.0))
        assert jet.q_plus - jet.q_minus == pytest.approx(
            2.0 * mu / V**2, abs=1e-10)

    def test_closed_form_matches_identity(self, params):
        a = kernel_jet(0.5, params)
        b = kernel_jet(0.5, params, method="closed")
        assert b.q_plus == pytest.approx(a.q_plus, abs=1e-12)
        assert b.q_minus == pytest.approx(a.q_minus, abs=1e-12)

    def test_fd_route_matches_identity(self, params):
        a = kernel_jet(0.5, params)
        b = kernel_jet(0.5, params, method="fd")
        assert b.q_plus == pytest.approx(a.q_plus, rel=1e-5)
        assert b.q_minus == pytest.approx(a.q_minus, rel=1e-5)
        assert b.q2 == pytest.approx(a.q2, rel=1e-3)

    def test_closed_form_regime_checks(self, params):
        with pytest.raises(RegimeMismatch):
            kernel_jet(0.5, ModelParams(1.0, 0.1), method="closed")
        with pytest.raises(RegimeMismatch):
            # three real root pairs at V = 0.2
            kernel_jet(0.2, params, method="closed")

    def test_unknown_method(self, params):
        with pytest.raises(ValueError, match="unknown jet method"):
            kernel_jet(0.5, params, method="spline")

    def test_q0_changes_sign_at_threshold(self, params):
        assert kernel_jet(0.34, params).q0 < 0.0
        assert kernel_jet(0.37, params).q0 > 0.0


class TestThreshold:
    def test_frozen_alpha0(self, params):
        assert threshold_V0(params) == pytest.approx(V0_ALPHA0, abs=1e-10)

    def test_frozen_damped(self):
        v0 = threshold_V0(ModelParams(1.0, 0.1))
        assert v0 == pytest.approx(V0_ALPHA01, abs=1e-10)
        assert v0 < V0_ALPHA0

    def test_zero_tol_terminates(self, params):
        # bisection stops at adjacent doubles instead of looping forever
        assert threshold_V0(params, tol=0.0) == pytest.approx(V0_ALPHA0,
                                                              abs=1e-5)

    def test_branch_width_vanishes_at_threshold(self, params):
        jet = kernel_jet(V0_ALPHA0, params)
        assert abs(z_linear(jet)) < 1e-4


class TestScanOrder:
    def _fake_q0(self, monkeypatch, q0):
        # q0(V) stands in for the kernel's q(0); returns the velocities asked
        calls = []
        monkeypatch.setattr(bifurcation, "_q0_of_V",
                            lambda V, p: calls.append(V) or q0(V))
        return calls

    def test_top_change_wins_and_nothing_below_is_built(self, monkeypatch):
        # three sign changes; the scan walks down and stops at the top one
        calls = self._fake_q0(monkeypatch, lambda V: (V - 0.3) * (V - 0.6)
                              * (V - 0.9123))
        V0 = threshold_V0(ModelParams(1.0, 0.1))
        assert V0 == pytest.approx(0.9123, abs=1e-5)
        vs = scan_velocities(ModelParams(1.0, 0.1))
        below = vs[vs < 0.9123][-1]
        assert min(calls) == below
        assert len([V for V in calls if V in vs]) == np.count_nonzero(
            vs >= below)

    def test_one_sign_scans_everything(self, monkeypatch):
        calls = self._fake_q0(monkeypatch, lambda V: 1.0 + V)
        with pytest.raises(NoSignChange, match=r"\(mu=1\.0, alpha=0\.1\)"):
            threshold_V0(ModelParams(1.0, 0.1))
        assert len(calls) == V0_SCAN_POINTS
        assert np.array_equal(calls, scan_velocities(ModelParams(1.0, 0.1))
                              [::-1])

    @pytest.mark.parametrize("alpha,V0,kernels", [
        (0.0, V0_ALPHA0, 65), (0.1, V0_ALPHA01, 56)])
    def test_kernels_built(self, alpha, V0, kernels):
        # 11 bisection kernels, and the scan points from the top down to
        # the bracket: the slow damped kernels below it are never built
        quad_kernel.cache_clear()
        assert threshold_V0(ModelParams(1.0, alpha)) == V0
        assert quad_kernel.cache_info().misses == kernels


class TestExpansion:
    def test_quartic_reduces_to_linear(self):
        jet = KernelJet(V=0.35, q0=-0.2, q_plus=2.0, q_minus=-6.0, q2=0.0)
        assert z_quartic(jet) == pytest.approx(z_linear(jet), rel=1e-12)

    def test_quartic_near_linear_below_threshold(self, params):
        jet = kernel_jet(0.35, params)
        zl, zq = z_linear(jet), z_quartic(jet)
        assert zq > 0.0
        assert zq == pytest.approx(zl, rel=0.05)

    def test_no_positive_root(self):
        jet = KernelJet(V=0.35, q0=0.2, q_plus=2.0, q_minus=-6.0, q2=0.0)
        with pytest.raises(NoPositiveRoot):
            z_quartic(jet)

    def test_linear_shape_mass(self, params):
        sl = shape_linear(kernel_jet(0.35, params))
        assert sl.mass() == pytest.approx(1.0, abs=1e-12)
        assert list(sl.s) == [-sl.z, sl.z]

    def test_quadratic_shape_mass(self, params):
        sq = shape_quadratic(kernel_jet(0.35, params))
        assert sq.mass() == pytest.approx(1.0, abs=1e-12)
        assert list(sq.s) == [-sq.z, sq.z]
