"""Lattice dynamics: force law, energy, integration, front classification."""

import tracemalloc

import numpy as np
import pytest

from fkwaves import (
    ChainState,
    Inconclusive,
    ModelParams,
    NoFront,
    NumericBlowup,
    energy,
    front_position,
    init_from_wave,
    init_riemann,
    peierls_stress,
    phi,
    phi_prime,
    run_and_classify,
    step,
    sweep_dynamic_threshold,
)
from fkwaves import chain

# frozen quick-run outcome (N=600, T=150, dt=0.01)
STEADY_V_S014 = 0.5379144326512725

ONE_PARTICLE_TOL = 1e-7
# seeding a 3001-site chain from the V = 0.2 wave; the residue convolution
# needs one sites x roots product per branch, not one per (site, sample) lag
SEED_PEAK_BYTES = 128 * 2**20


class TestForceLaw:
    def test_phi_prime_branches(self):
        assert phi_prime(-0.5) == pytest.approx(0.5)
        assert phi_prime(0.5) == pytest.approx(-0.5)
        # spinodal convention: the lower branch owns u = 0
        assert phi_prime(0.0) == pytest.approx(1.0)

    def test_phi_continuous_at_corner(self):
        eps = 1e-12
        assert phi(eps) == pytest.approx(phi(-eps), abs=1e-11)
        assert phi(0.0) == pytest.approx(0.5)
        # minima at the two equilibria
        assert phi(-1.0) == pytest.approx(0.0)
        assert phi(1.0) == pytest.approx(0.0)

    def test_peierls_stress_closed_form(self):
        assert peierls_stress(ModelParams(1.0, 0.0)) == pytest.approx(
            np.sqrt(1.0 / 5.0), rel=1e-14)
        assert peierls_stress(ModelParams(2.0, 0.0)) == pytest.approx(
            np.sqrt(2.0 / 6.0), rel=1e-14)


class TestIntegrator:
    def test_uniform_equilibrium_is_stationary(self, params):
        st = init_riemann(200, params, 0.05)
        st.u[:] = 0.05 - 1.0
        step(st, 0.01, 500)
        assert np.abs(st.v).max() < 1e-14
        assert np.abs(st.u - (0.05 - 1.0)).max() < 1e-14

    def test_riemann_energy_closed_form(self, params):
        # kinetic 0; one bond at the jump stores 2; each site contributes
        # mu (phi - sigma u) at its equilibrium
        N, n0, s = 400, 200, 0.07
        st = init_riemann(N, params, s, n0)
        E_ref = (2.0 + n0 * (-s**2 / 2 - s)
                 + (N + 1 - n0) * (-s**2 / 2 + s))
        assert energy(st) == pytest.approx(E_ref, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.4])
    def test_one_particle_analytic(self, alpha):
        # middle site of a 3-site chain with frozen ends is a linear
        # oscillator: frequency sqrt(2 + mu - alpha^2/4), damping alpha/2
        mu, s, eps = 1.3, 0.05, 0.02
        p = ModelParams(mu, alpha)
        ueq = s - 1.0
        st = ChainState(u=np.array([ueq, ueq + eps, ueq]), v=np.zeros(3),
                        t=0.0, params=p, sigma=s)
        dt, t_end = 1e-3, 5.0
        step(st, dt, int(round(t_end / dt)))
        w = np.sqrt(2.0 + mu - alpha**2 / 4.0)
        decay = np.exp(-alpha * t_end / 2.0)
        ana = ueq + eps * decay * (np.cos(w * t_end)
                                   + alpha / (2 * w) * np.sin(w * t_end))
        assert abs(st.u[1] - ana) < ONE_PARTICLE_TOL

    def test_blowup_detected(self, params):
        # dt above the phonon stability limit 2/omega_max
        with pytest.raises(NumericBlowup):
            run_and_classify(init_riemann(100, params, 0.05), T=400.0, dt=2.0)

    @pytest.mark.parametrize("site, value", [
        (20, np.nan), (-1, np.nan), (-1, -np.inf),
        (-1, -np.nextafter(chain.BLOWUP_LIMIT, np.inf))])
    def test_bad_value_detected(self, params, site, value):
        # an interior NaN spreads through the force; a frozen end keeps its
        # value, so the first record's scan sees it as set
        state = init_riemann(100, params, 0.05)
        state.u[site] = value
        with pytest.raises(NumericBlowup):
            run_and_classify(state, T=400.0)


class TestFront:
    def test_front_position(self):
        u = np.array([1.1, 1.0, 0.2, -0.8, -1.0])
        assert front_position(u) == 2
        # any array-like of numbers, not only float64 arrays
        assert front_position([2, 1, -1, -1]) == 1
        assert front_position(np.repeat(u, 2)[::2]) == 2

    def test_no_front(self):
        with pytest.raises(NoFront):
            front_position(np.full(10, -0.5))

    def test_front_lost_mid_run(self, params, monkeypatch):
        # a step that leaves every site below zero: the first record
        # after it finds no front
        def flatten(state, dt, n_steps=1):
            state.u[:] = -0.5
            return state

        monkeypatch.setattr(chain, "step", flatten)
        with pytest.raises(NoFront):
            run_and_classify(init_riemann(100, params, 0.05), T=400.0)


class TestClassification:
    def test_below_static_threshold_traps(self, params):
        out = run_and_classify(init_riemann(600, params, 0.05), T=150.0)
        assert out.classification == "Trapped"
        assert out.velocity == 0.0

    def test_above_threshold_runs_steady(self, params):
        out = run_and_classify(init_riemann(600, params, 0.14), T=150.0)
        assert out.classification == "Steady"
        assert out.velocity == pytest.approx(STEADY_V_S014, rel=1e-9)

    def test_edge_without_steady_motion_is_inconclusive(self, params,
                                                         monkeypatch):
        # a front parked at the edge guard that steps past it once the fit
        # time is over has reached the edge without steady trailing motion
        state = init_riemann(200, params, 0.05)
        park = state.N - chain.EDGE_GUARD

        def fake_step(st, dt, n_steps=1):
            st.t += n_steps * dt
            front = park + (st.t >= chain.MIN_FIT_TIME + 100.0)
            st.u[:] = np.where(np.arange(st.u.size) <= front, 1.0, -1.0)
            return st

        monkeypatch.setattr(chain, "step", fake_step)
        out = run_and_classify(state, T=1000.0)
        assert out.classification == "Inconclusive"
        assert out.flags == ("EDGE",) and np.isnan(out.velocity)
        assert out.fronts[-1] == park + 1
        assert out.times[-1] - out.times[0] >= chain.MIN_FIT_TIME

    def test_wave_seed_spans_check(self, wave_v02):
        from fkwaves import ProfileRange
        with pytest.raises(ProfileRange):
            init_from_wave(wave_v02, N=80)

    def test_wave_seed_front_at_center(self, wave_v02):
        st = init_from_wave(wave_v02, N=400)
        assert abs(front_position(st.u) - 200) <= 1
        assert st.sigma == pytest.approx(wave_v02.sigma)

    def test_wave_seed_memory_bounded(self, wave_v02):
        tracemalloc.start()
        try:
            init_from_wave(wave_v02, N=3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= SEED_PEAK_BYTES


class TestSweep:
    def test_rejects_non_bracketing_endpoints(self, params):
        with pytest.raises(ValueError, match="do not bracket"):
            sweep_dynamic_threshold(params, 0.01, 0.02, N=400, T=150.0)

    def test_inconclusive_run_aborts(self, params):
        # on 200 sites the sigma = 0.3 front reaches the edge guard before
        # its velocity can be fitted, so the sweep stops and names the run
        with pytest.raises(Inconclusive,
                           match=r"sigma=0\.300000 .*N=200 T=400\.0"):
            sweep_dynamic_threshold(params, 0.1, 0.3, N=200, T=400.0)
