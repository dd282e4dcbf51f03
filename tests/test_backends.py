"""Backend selection and cross-backend trajectory identity."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fkwaves import BACKEND, PURE_ENV_VAR, ModelParams, init_riemann, step
from fkwaves import _chain_numpy
from fkwaves.chain import BLOWUP_LIMIT

try:
    from fkwaves import _chain_core
except ImportError:
    _chain_core = None

needs_core = pytest.mark.skipif(_chain_core is None,
                                reason="extension not built")
# the compiled core's tile width and steps per tile visit; a chain of more
# than TILE interior sites takes its tiled path
TILE, DEPTH = ((_chain_core.TILE, _chain_core.DEPTH) if _chain_core
               else (1024, 32))
BACKENDS = [pytest.param(_chain_numpy, id="numpy"),
            pytest.param(_chain_core, id="c", marks=needs_core)]


def _trajectory(run_chain, n_steps):
    rng = np.random.default_rng(7)
    u = np.concatenate([[1.05], 1.0 + 0.1 * rng.standard_normal(60),
                        -1.0 + 0.1 * rng.standard_normal(60), [-0.95]])
    v = 0.05 * rng.standard_normal(u.size)
    v[0] = v[-1] = 0.0
    run_chain(u, v, 1.0, 0.05, 0.1, 0.01, n_steps)
    return u, v


def _bits(a):
    return a.view(np.uint64)


def _two_phase(n, seed):
    """A noisy kink state of n sites with one interior site at +0.0 and one
    at -0.0 (the same site when n == 3)."""
    rng = np.random.default_rng(seed)
    u = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    u += 0.3 * rng.standard_normal(n)
    v = 0.1 * rng.standard_normal(n)
    u[1 + (n - 3) // 3] = 0.0
    u[n - 2 - (n - 3) // 3] = -0.0
    return u, v


def _non_finite_at_tile_edge(n, seed):
    """_two_phase with NaN, +-inf and +-0.0 on the last site of the first
    tile and the first of the second, and DEPTH sites either side of them,
    where a tile's ghosts end; sites past the chain's interior are left."""
    u, v = _two_phase(n, seed)
    edge = 1 + TILE
    sites = [edge - 1 - DEPTH, edge - DEPTH, edge - 1, edge,
             edge - 1 + DEPTH, edge + DEPTH]
    for site, u_value, v_value in zip(
            sites, [np.nan, np.inf, -0.0, 0.0, -np.inf, -0.0],
            [-0.0, np.inf, 0.0, np.nan, -np.inf, np.nan]):
        if site < n - 1:
            u[site], v[site] = u_value, v_value
    return u, v


@st.composite
def chain_runs(draw):
    """A noisy two-phase state with sites at exactly +0.0 and -0.0; about
    half the chains are long enough for the compiled core's tiled path."""
    n = draw(st.integers(3, 400) | st.integers(TILE, 2 * TILE + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.where(np.arange(n) < n // 2, 1.0, -1.0)
    u += draw(st.floats(0.0, 0.5)) * rng.standard_normal(n)
    v = draw(st.floats(0.0, 0.5)) * rng.standard_normal(n)
    sites = st.integers(1, n - 2)
    u[draw(st.lists(sites, min_size=1, max_size=4))] = 0.0
    u[draw(st.lists(sites, min_size=1, max_size=4))] = -0.0
    alpha = draw(st.just(0.0) | st.floats(1e-3, 1.0))
    args = (draw(st.floats(0.2, 4.0)), draw(st.floats(0.0, 0.3)), alpha,
            draw(st.floats(1e-3, 0.05)), draw(st.integers(0, 3000)))
    return u, v, args


# any float, with the signed zeros and non-finite values drawn often
site_values = (st.floats(allow_nan=True, allow_infinity=True)
               | st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))

ABOVE_LIMIT = np.nextafter(BLOWUP_LIMIT, np.inf)
NAN, INF = np.nan, np.inf
SCAN_STATES = {
    "no front, all negative": [-0.5] * 10,
    "no front, all positive": [0.5] * 10,
    "no front, rising": [-1.0, -0.2, 0.0, 0.3, 1.0],
    "one site": [0.3],
    "several fronts": [1.0, -1.0, 2.0, -2.0, 3.0, -3.0],
    "first and last bond": [1.0, 0.0, 1.0, 1.0, -1.0],
    "signed zeros": [0.0, -0.0, 1.0, -0.0, 0.0, 1.0, 0.0, 2.0, -0.0],
    "nan first": [NAN, 1.0, -1.0],
    "nan in the front": [1.0, NAN, -1.0],
    "nan last": [1.0, -1.0, NAN],
    "infinities": [INF, -1.0, 1.0, -INF],
    "minus infinity first": [-INF, 1.0, -1.0],
    "just above the blow-up limit": [1.0, -ABOVE_LIMIT, 1.0, -1.0],
    "exactly the blow-up limit": [BLOWUP_LIMIT, -1.0],
}


class TestSelection:
    def test_active_backend_is_compiled(self):
        # conftest builds the extension; absence would be a packaging bug
        assert BACKEND == "c"

    def test_env_var_forces_numpy(self):
        code = ("import fkwaves; print(fkwaves.BACKEND)")
        env = dict(os.environ, **{PURE_ENV_VAR: "1"})
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "numpy"


class TestBitIdentity:
    @needs_core
    def test_trajectories_bit_identical(self):
        u_a, v_a = _trajectory(_chain_numpy.run_chain, 5000)
        u_b, v_b = _trajectory(_chain_core.run_chain, 5000)
        assert np.array_equal(u_a, u_b)
        assert np.array_equal(v_a, v_b)

    @needs_core
    @settings(max_examples=60, deadline=None)
    @given(run=chain_runs())
    def test_random_states_bit_identical(self, run):
        u0, v0, args = run
        u_a, v_a, u_b, v_b = u0.copy(), v0.copy(), u0.copy(), v0.copy()
        _chain_numpy.run_chain(u_a, v_a, *args)
        _chain_core.run_chain(u_b, v_b, *args)
        assert np.array_equal(_bits(u_a), _bits(u_b))
        assert np.array_equal(_bits(v_a), _bits(v_b))
        ends = [0, -1]
        assert np.array_equal(_bits(u_b[ends]), _bits(u0[ends]))
        assert np.array_equal(_bits(v_b[ends]), _bits(v0[ends]))

    # 3..19 sites give every remainder of an 8-lane loop over the n - 2
    # interior sites, and the short chains that skip the vector loop;
    # 1001 and 3001 are the depinning sweep's and the wave run's chains.
    # TILE + 1 and TILE + 2 sites still fit one tile, TILE + 3 leaves a
    # second tile of one site, 2 TILE + 2 fills two tiles and 2 TILE + 3
    # adds a third of one site. 0..3 steps reach the fused loop's first and
    # last steps, or skip it; the tiled path splits the n_steps - 1 fused
    # steps into blocks of at most DEPTH, and run_and_classify takes 100
    # steps per record. A tiled chain also runs from non-finite values and
    # signed zeros where its tiles' ghosts begin and end.
    @needs_core
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("n", [*range(3, 20), 1001, 3001, TILE + 1,
                                   TILE + 2, TILE + 3, 2 * TILE + 2,
                                   2 * TILE + 3])
    def test_every_vector_remainder_bit_identical(self, n, alpha):
        states = [_two_phase(n, seed=n)]
        if n - 2 > TILE:
            states.append(_non_finite_at_tile_edge(n, seed=n))
        steps = (0, 1, 2, 3, DEPTH - 1, DEPTH, DEPTH + 1, 2 * DEPTH + 1,
                 100, 300)
        for (u0, v0), n_steps in itertools.product(states, steps):
            u_a, v_a, u_b, v_b = u0.copy(), v0.copy(), u0.copy(), v0.copy()
            args = (1.0, 0.1, alpha, 0.05, n_steps)
            with np.errstate(invalid="ignore", over="ignore"):
                _chain_numpy.run_chain(u_a, v_a, *args)
            _chain_core.run_chain(u_b, v_b, *args)
            assert np.array_equal(_bits(u_a), _bits(u_b)), n_steps
            assert np.array_equal(_bits(v_a), _bits(v_b)), n_steps
            ends = [0, -1]
            assert np.array_equal(_bits(u_b[ends]), _bits(u0[ends]))
            assert np.array_equal(_bits(v_b[ends]), _bits(v0[ends]))
            if n_steps == 0:
                assert np.array_equal(_bits(u_b), _bits(u0))
                assert np.array_equal(_bits(v_b), _bits(v0))


def _scans_agree(u):
    u = np.asarray(u, dtype=float)
    first, count, max_abs = _chain_core.front_scan(u)
    ref_first, ref_count, ref_max_abs = _chain_numpy.front_scan(u)
    assert (first, count) == (ref_first, ref_count)
    assert np.array_equal(max_abs, ref_max_abs, equal_nan=True)
    return first, count, max_abs


class TestFrontScan:
    @needs_core
    @settings(max_examples=200, deadline=None)
    @given(u=st.lists(site_values, min_size=1, max_size=400))
    def test_random_values_agree(self, u):
        _scans_agree(u)

    @needs_core
    @settings(max_examples=60, deadline=None)
    @given(run=chain_runs())
    def test_integrated_states_agree(self, run):
        u, v, args = run
        _chain_core.run_chain(u, v, *args)
        _scans_agree(u)

    @needs_core
    @pytest.mark.parametrize("u", SCAN_STATES.values(), ids=list(SCAN_STATES))
    def test_hand_built_states_agree(self, u):
        first, count, max_abs = _scans_agree(u)
        u = np.asarray(u)
        hits = [n for n in range(u.size - 1) if u[n] > 0.0 >= u[n + 1]]
        assert (first, count) == ((hits or [-1])[0], len(hits))
        if np.isnan(u).any():
            assert np.isnan(max_abs)
        else:
            assert max_abs == np.abs(u).max()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_state_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.front_scan(np.empty(0))


class TestNegativeSteps:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_rejects_and_leaves_state(self, backend):
        u0, v0 = _two_phase(12, seed=3)
        u, v = u0.copy(), v0.copy()
        with pytest.raises(ValueError, match="n_steps"):
            backend.run_chain(u, v, 1.0, 0.1, 0.0, 0.01, -5)
        assert np.array_equal(_bits(u), _bits(u0))
        assert np.array_equal(_bits(v), _bits(v0))

    def test_step_keeps_the_clock(self):
        state = init_riemann(40, ModelParams(1.0, 0.0), 0.05)
        u0 = state.u.copy()
        with pytest.raises(ValueError, match="n_steps"):
            step(state, 0.01, -5)
        assert state.t == 0.0
        assert np.array_equal(state.u, u0)


BAD_STATES = {
    "mismatched lengths": lambda u, v: (u, v[:-1]),
    "float32": lambda u, v: (u.astype(np.float32), v),
    "strided view": lambda u, v: (np.repeat(u, 2)[::2], v),
    "read-only": lambda u, v: (np.frombuffer(u.tobytes()), v),
}


class TestCoreArguments:
    @needs_core
    @pytest.mark.parametrize("bad", BAD_STATES.values(), ids=list(BAD_STATES))
    def test_rejected_and_untouched(self, bad):
        u, v = bad(np.linspace(1.0, -1.0, 12), np.full(12, 0.01))
        before = u.copy(), v.copy()
        with pytest.raises((TypeError, ValueError)):
            _chain_core.run_chain(u, v, 1.0, 0.1, 0.0, 0.01, 10)
        assert np.array_equal(u, before[0]) and np.array_equal(v, before[1])
