"""Panel quadrature, contour arcs past poles, and analytic tails.

Every assertion here is checked against scipy.integrate.quad (with cauchy /
oscillatory weights) or a closed form, never against the module itself.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import exp1

from fkwaves import ModelParams
from fkwaves.dispersion import eval_L
from fkwaves.quadrature import (
    KFAC,
    TAIL_TARGET,
    _inv_L_series,
    build_panels,
    exp_tail_integrals,
    tail_integral,
    tail_terms_needed,
)

PV_TOL = 1e-9
TAIL_TOL = 1e-7

# the highest order tail_integral asks for: 35 series terms, extra_p = 1
P_MAX = 71


class TestPanels:
    def test_weights_integrate_constants(self):
        # by Cauchy the path from 0 to K integrates 1 to K, arcs or not
        grid = build_panels(37.0, arcs=((4.2, 0.08, -1), (11.5, 0.05, 1)))
        assert grid.nodes.real.min() > 0.0
        assert grid.nodes.real.max() < 37.0
        assert np.sum(grid.weights) == pytest.approx(37.0, abs=1e-9)

    def test_no_node_on_a_pole(self):
        grid = build_panels(20.0, arcs=((5.0, 0.08, 1),))
        assert np.min(np.abs(grid.nodes - 5.0)) > 0.08 - 1e-12

    def test_plain_integral_of_cosine(self):
        grid = build_panels(25.0)
        assert np.cos(grid.nodes) @ grid.weights == pytest.approx(
            np.sin(25.0), abs=1e-11)

    def test_arcs_detour_and_keep_integrals(self):
        # side +1 bulges up, -1 down; by Cauchy an arc changes nothing for
        # an entire integrand
        grid = build_panels(25.0, arcs=((6.0, 0.08, 1), (9.3, 0.05, -1)))
        arc = grid.nodes[grid.nodes.imag != 0.0]
        assert arc.size == 48
        assert np.all((arc.imag > 0.0) == (np.abs(arc - 6.0) < 0.081))
        got = np.exp(1j * grid.nodes) @ grid.weights
        assert got == pytest.approx((np.exp(25j) - 1.0) / 1j, abs=1e-12)

    def test_refine_concentrates_nodes(self):
        base = build_panels(30.0)
        fine = build_panels(30.0, refine=((12.0, 0.05),))
        near = lambda g: np.sum(np.abs(g.nodes - 12.0) < 0.5)
        assert near(fine) > near(base)


class TestArcsPastPoles:
    # an arc below a pole (side -1) gives the principal value plus
    # i pi times the residue, an arc above it (side +1) minus that
    @pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
    @pytest.mark.parametrize("r", [3.7, 9.2])
    def test_cosine_past_simple_pole(self, r, side):
        K = 30.0
        grid = build_panels(K, arcs=((r, 0.08, side),))
        got = (np.cos(grid.nodes) / (grid.nodes - r)) @ grid.weights
        pv = quad(np.cos, 0.0, K, weight="cauchy", wvar=r, limit=400)[0]
        assert got == pytest.approx(pv - side * 1j * np.pi * np.cos(r),
                                    abs=PV_TOL)

    def test_two_poles(self):
        K = 30.0
        grid = build_panels(K, arcs=((4.0, 0.08, 1), (6.0, 0.08, -1)))

        def g(k):
            return np.sin(k + 0.3)

        k = grid.nodes
        got = (g(k) / ((k - 4.0) * (k - 6.0))) @ grid.weights
        # residues at 4 and 6, passed above and below
        c4, c6 = g(4.0) / (4.0 - 6.0), g(6.0) / (6.0 - 4.0)
        # oracle: split the domain between the poles so each piece holds one
        w1 = quad(lambda k: g(k) / (k - 6.0), 0.0, 5.0, weight="cauchy",
                  wvar=4.0, limit=400)[0]
        w2 = quad(lambda k: g(k) / (k - 4.0), 5.0, K, weight="cauchy",
                  wvar=6.0, limit=400)[0]
        assert got == pytest.approx(w1 + w2 - 1j * np.pi * (c4 - c6),
                                    abs=1e-8)


class TestExpTails:
    # |a| K > 18 (a = 2.5 at K = 12 here, and the last three cases of the
    # quad test) takes the continued-fraction branch
    @pytest.mark.parametrize("a", [0.7, -1.3, 2.5])
    def test_p1_against_exponential_integral(self, a):
        # integral_K^inf e^{iak}/k dk = E1(-iaK) for a > 0, conjugate else
        K = 12.0
        T = exp_tail_integrals(a, 3, K)
        want = exp1(-1j * abs(a) * K)
        if a < 0:
            want = np.conj(want)
        assert_allclose(T[1], want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("K,a,p", [
        pytest.param(12.0, 0.7, 2, id="0.7-2"),
        pytest.param(12.0, 0.7, 4, id="0.7-4"),
        pytest.param(12.0, -1.3, 3, id="-1.3-3"),
        # continued fraction at order floor(|a| K) = 20, 24, 21, recurrence
        # down to p = 13 and 20, up to p = 30
        (2.0, 10.0, 13), (2.0, -12.0, 30), (3.0, -7.0, 20)])
    def test_higher_p_against_oscillatory_quad(self, K, a, p):
        # the continued-fraction branch is held to its relative accuracy
        cf = abs(a) * K > 18.0
        opts = dict(epsabs=0.0, epsrel=1e-13) if cf else {}
        B = K + 400 * np.pi / abs(a)
        re = quad(lambda k: k**-p, K, B, weight="cos", wvar=a, limit=2000,
                  **opts)[0]
        im = quad(lambda k: k**-p, K, B, weight="sin", wvar=a, limit=2000,
                  **opts)[0]
        # leading remainder of the truncated upper limit, by parts
        rem = -np.exp(1j * a * B) * B**-p / (1j * a)
        got = exp_tail_integrals(a, P_MAX, K)[p]
        if cf:
            assert_allclose(got, re + 1j * im + rem, rtol=1e-12)
        else:
            assert_allclose(got, re + 1j * im + rem, atol=1e-9)

    def test_zero_frequency_closed_form(self):
        K = 9.0
        T = exp_tail_integrals(0.0, 4, K)
        for p in (2, 3, 4):
            assert T[p] == pytest.approx(K ** (1 - p) / (p - 1), rel=1e-14)


class TestDispersionTail:
    @pytest.mark.parametrize("xi,extra_p,alpha", [
        pytest.param(0.3, 0, 0.0, id="0.3-0"),
        pytest.param(-0.7, 0, 0.0, id="-0.7-0"),
        pytest.param(1.1, 1, 0.0, id="1.1-1"),
        (0.9, 1, 0.1)])
    def test_against_oscillatory_quad(self, xi, extra_p, alpha):
        V, K = 0.5, 60.0
        params = ModelParams(mu=1.0, alpha=alpha)
        got = tail_integral(np.array([xi]), V, params, K, extra_p)[0]

        def f(k):
            return 1.0 / (k**extra_p * eval_L(np.array([k]), V, params)[0])

        # composite Gauss over whole periods plus the by-parts remainder
        x, w = np.polynomial.legendre.leggauss(40)
        B = K + 1200 * np.pi / abs(xi)
        edges = np.arange(K, B, 2 * np.pi / abs(xi))
        total = 0.0 + 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            kk = half * x + mid
            fv = 1.0 / (kk**extra_p * eval_L(kk, V, params))
            total += half * np.sum(w * fv * np.exp(1j * xi * kk))
        total += -np.exp(1j * xi * edges[-1]) * f(edges[-1]) / (1j * xi)
        assert_allclose(got, total, atol=TAIL_TOL)


class TestInverseSeries:
    @pytest.mark.parametrize("mu,alpha,V,n_terms", [
        (1.0, 0.0, 0.2, 5), (1.0, 0.1, 0.35, 8), (4.0, 0.5, 0.05, 12),
        (0.5, 0.1, 1.2, 20)])
    def test_table_sums_the_powers_of_w(self, mu, alpha, V, n_terms):
        # sum C[n + j, p] e^{ijk} / k^p = sum_{m <= n} w(k)^m
        C = _inv_L_series(mu, alpha, V, n_terms)
        n = n_terms - 1
        j, p = np.arange(-n, n + 1)[:, None], np.arange(2 * n + 1)[None, :]
        for k in (3.7, 11.2, 40.0):
            w = (mu + 2.0 - 2.0 * np.cos(k)) / (V * k) ** 2 \
                - 1j * alpha / (V * k)
            want = np.sum(w ** np.arange(n + 1))
            got = np.sum(C * np.exp(1j * j * k) / k**p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestTailSeriesLength:
    @pytest.mark.parametrize("alpha", [9.0, 10.5])
    def test_remainder_below_target(self, alpha):
        # strong damping brings the |w| bound near 0.5, where the series
        # needs more than 24 terms
        V, params = 0.2, ModelParams(mu=1.0, alpha=alpha)
        K = KFAC * np.sqrt(params.mu + 4.0) / V
        w_bound = (params.mu + 4.0) / (V * K) ** 2 + alpha / (V * K)
        assert w_bound ** tail_terms_needed(V, params, K) <= TAIL_TARGET
