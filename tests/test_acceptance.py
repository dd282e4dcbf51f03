"""End-to-end acceptance checks for the reconstruction pipeline.

Each test pins one externally visible guarantee of the package at its
stated tolerance: the threshold velocity, anchor points of the kinetic
relation, cross-validation of the two kernel routes, the energy balance
of every wave on the kinetic curve, the near-threshold expansion, and direct lattice runs confirming which waves propagate and
which trap.
"""

import numpy as np
import pytest

from fkwaves import (ModelParams, U_integral, energy, eval_Lk,
                     init_from_wave, init_riemann, kernel_jet, kinetic_curve,
                     kinetic_wave, peierls_stress, real_roots,
                     resonance_velocities, run_and_classify, sigma_AC,
                     sweep_dynamic_threshold, threshold_V0, z_linear)
from fkwaves import newwave
from fkwaves.chain import front_position, step

# Cross-validation grid for the two profile routes, clear of the kernel
# jump at xi = 0 by at least 0.3.
XI_CROSS = np.array([-9.0, -6.5, -5.5, -3.3, -2.2, -1.0, -0.4, 0.3, 0.7,
                     1.0, 1.7, 2.2, 3.3, 4.5, 5.5, 6.5, 7.7, 8.5, 9.0, 10.0])

# Velocities close below the threshold, inside the small-plateau regime.
NEAR_THRESHOLD_V = (0.33, 0.3375, 0.345, 0.35, 0.355)

DUAL_ROUTE_TOL = 1e-6
ENERGY_GAP_TOL = 1e-5
JUMP_TOL = 1e-6
REDUCTION_TOL = 1e-10
PLATEAU_RESIDUAL_TOL = 1e-5
ENERGY_DRIFT_TOL = 1e-4
PROFILE_MATCH_TOL = 0.04  # 2 percent of the kink amplitude u_+ - u_- = 2


# ---------------------------------------------------------------------------
# kinetic relation anchors
# ---------------------------------------------------------------------------

def test_threshold_velocity_location(params):
    assert threshold_V0(params) == pytest.approx(0.357, abs=0.005)


def test_midrange_plateau_width_and_residual(wave_v02):
    assert wave_v02.branch == "new"
    assert wave_v02.admissible
    assert wave_v02.z == pytest.approx(0.212, abs=0.01)
    assert wave_v02.residual <= PLATEAU_RESIDUAL_TOL


def test_deep_subthreshold_plateau_width(params):
    point = kinetic_wave(0.1023, params)
    assert point.branch == "new"
    assert point.admissible
    assert point.z == pytest.approx(0.355, abs=0.015)


def test_static_threshold_closed_form():
    # sigma_P(mu) = sqrt(mu / (4 + mu)) for the biquadratic well
    for mu in (0.5, 1.0, 2.0):
        expected = np.sqrt(mu / (4.0 + mu))
        assert peierls_stress(ModelParams(mu, 0.0)) == pytest.approx(
            expected, rel=1e-12)


# ---------------------------------------------------------------------------
# kernel and profile cross-checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("V", [0.4, 0.5, 0.7])
def test_kernel_slope_jump_matches_forcing(mu, V):
    # The fd route fits the two one-sided slopes independently, so the
    # jump is a measurement rather than part of the construction.
    jet = kernel_jet(V, ModelParams(mu, 0.0), method="fd")
    assert abs(jet.q_plus - jet.q_minus - 2.0 * mu / V**2) <= JUMP_TOL


def test_degenerate_plateau_reduces_to_classical(wave_v05, params):
    assert wave_v05.branch == "ac"
    assert wave_v05.z == 0.0
    assert abs(wave_v05.sigma - sigma_AC(0.5, params)) <= REDUCTION_TOL
    xi = np.linspace(-12.0, 12.0, 50)
    dev = np.abs(wave_v05.evaluate(xi) - U_integral(xi, 0.5, params))
    assert np.max(dev) <= REDUCTION_TOL


def test_profile_routes_cross_validate(wave_v05, wave_v02):
    for wave in (wave_v05, wave_v02):
        a = wave.evaluate(XI_CROSS, method="residue")
        b = wave.evaluate(XI_CROSS, method="quad")
        assert np.max(np.abs(a - b)) <= DUAL_ROUTE_TOL


# ---------------------------------------------------------------------------
# energy balance
# ---------------------------------------------------------------------------

def radiated_flux(wave):
    """The undamped energy balance's sigma: the work of the applied stress
    leaves as phonons, 2 mu sum_r |h(r)|^2 / |r L_k(r)| over the positive
    real roots r, with h(r) = sum_j a_j e^{-i r s_j} the shape's transform.
    The classical kink has h = 1, and the sum is sigma_AC's own."""
    r = real_roots(wave.V, wave.params)
    h = np.exp(-1j * np.outer(r, wave.shape.s)) @ wave.shape.a
    return 2.0 * wave.params.mu * float(np.sum(
        np.abs(h) ** 2 / np.abs(r * eval_Lk(r, wave.V, wave.params).real)))


@pytest.mark.slow
def test_kinetic_curve_matches_radiated_energy(params, monkeypatch):
    # the waves kinetic_curve builds, to read their shapes
    waves = []
    build = newwave.kinetic_wave

    def record(*args):
        waves.append(build(*args))
        return waves[-1]

    monkeypatch.setattr(newwave, "kinetic_wave", record)
    velocities = np.linspace(0.16, 0.55, 20)
    rows = kinetic_curve(velocities, params)
    assert len(waves) == len(rows) == len(velocities)
    for row, wave in zip(rows, waves):
        assert row.flag == "ok"
        assert row.admissible
        assert row.sigma == wave.sigma
        assert abs(row.sigma - radiated_flux(wave)) <= ENERGY_GAP_TOL


def test_energy_gap_converges_at_second_order(params, wave_v02):
    # the gap is the plateau mesh's error: each doubling of m cuts it
    # about four times
    waves = [kinetic_wave(0.2, params, m=50), wave_v02,
             kinetic_wave(0.2, params, m=200)]
    gaps = [abs(w.sigma - radiated_flux(w)) for w in waves]
    assert gaps[2] > 0.0
    assert gaps[0] >= 3.5 * gaps[1]
    assert gaps[1] >= 3.5 * gaps[2]


# ---------------------------------------------------------------------------
# near-threshold expansion
# ---------------------------------------------------------------------------

def test_plateau_width_follows_linear_prediction(params):
    for V in NEAR_THRESHOLD_V:
        point = kinetic_wave(V, params)
        predicted = z_linear(kernel_jet(V, params))
        assert abs(point.z - predicted) / point.z <= 0.1


# ---------------------------------------------------------------------------
# lattice dynamics
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_dynamic_threshold_from_lattice_sweep(params):
    result = sweep_dynamic_threshold(params, 0.11, 0.15, N=1000, T=2000.0,
                                     dt=0.01, tol=2e-3)
    assert result.sigma_D == pytest.approx(0.128, abs=0.005)
    assert result.bracket[0] <= result.sigma_D <= result.bracket[1]


def test_riemann_front_matches_kinetic_wave(params):
    out = run_and_classify(init_riemann(1000, params, 0.14), T=2000.0,
                           dt=0.01)
    assert out.classification == "Steady"
    assert out.velocity == pytest.approx(0.54, abs=0.02)

    # The emitted front should be the traveling wave at the measured
    # velocity up to a lattice translation; fit the shift, then compare
    # around the front.
    wave = kinetic_wave(out.velocity, params)
    nu = front_position(out.state.u)
    sites = np.arange(nu - 25, nu + 26)
    segment = out.state.u[sites]

    def maxdev(shift):
        return float(np.max(np.abs(segment - wave.evaluate(sites - shift))))

    coarse = np.linspace(nu - 0.8, nu + 1.8, 53)
    devs = [maxdev(s) for s in coarse]
    i = int(np.argmin(devs))
    fine = np.linspace(coarse[max(i - 1, 0)], coarse[min(i + 1, 52)], 41)
    assert min(maxdev(s) for s in fine) <= PROFILE_MATCH_TOL


@pytest.mark.slow
@pytest.mark.parametrize("V", [0.1, 0.2, 0.3])
def test_seeded_subthreshold_wave_traps(V, params):
    # Below the dynamic threshold the reconstructed waves are all
    # unstable on the lattice: the front must arrest, not run.
    wave = kinetic_wave(V, params)
    out = run_and_classify(init_from_wave(wave, 3000), T=2000.0, dt=0.01)
    assert out.classification == "Trapped"


def test_undamped_energy_conservation_second_order(params):
    # Trapped configuration below the dynamic threshold; the settled
    # oscillation bounds the integrator's energy error.
    def max_drift(dt):
        state = init_riemann(400, params, 0.12)
        step(state, dt, int(round(1500.0 / dt)))
        e0 = energy(state)
        worst = 0.0
        for _ in range(20):
            step(state, dt, int(round(50.0 / dt)))
            worst = max(worst, abs(energy(state) - e0))
        return worst

    d1 = max_drift(0.01)
    d2 = max_drift(0.005)
    assert d1 <= ENERGY_DRIFT_TOL
    assert 3.0 <= d1 / d2 <= 5.0  # second order in dt


# ---------------------------------------------------------------------------
# damping
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_damping_lowers_threshold_and_fills_resonances(params):
    damped = ModelParams(1.0, 0.1)
    assert threshold_V0(damped) < threshold_V0(params)

    # At the undamped resonance velocities the damped kinetic relation
    # stays finite, carried by admissible finite-plateau waves.
    former = [V for V, _ in resonance_velocities(params, count=4)]
    for row in kinetic_curve(former, damped):
        assert row.flag == "ok"
        assert row.admissible
        assert row.z > 0.0
        assert np.isfinite(row.sigma)
        assert row.sigma > 0.0
