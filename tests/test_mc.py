import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest

import polydiv.mc
from polydiv.errors import ConfigError, DomainError, InvalidParameterError
from polydiv.mc import (
    BLOCK_SIZE,
    SimConfig,
    _worker_count,
    martingale_diagnostic,
    mc_price,
    simulate_paths,
    yield_path_stats,
)
from polydiv.model import JumpSpec, ModelParams, PointMass, State, TwoPoint
from polydiv.moments import dividend_futures, stock_futures



class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(n_paths=0, horizon=1.0)
        with pytest.raises(InvalidParameterError):
            SimConfig(n_paths=10, horizon=-1.0)
        with pytest.raises(InvalidParameterError):
            SimConfig(n_paths=10, horizon=1.0, store_policy="everything")

    @pytest.mark.parametrize("field,value", [
        ("n_paths", math.nan), ("n_paths", 2.5), ("n_paths", 10.0), ("n_paths", True),
        ("steps_per_year", math.nan), ("steps_per_year", 0), ("steps_per_year", 52.0),
        ("steps_per_year", True), ("seed", -1), ("seed", 1.5), ("seed", False),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"need an integer {field} >= "):
            SimConfig(**{"n_paths": 10, "horizon": 1.0, field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(n_paths=np.int64(10), horizon=1.0, steps_per_year=np.int32(52),
                        seed=np.uint64(2 ** 64 - 1))
        assert (cfg.n_paths, cfg.steps_per_year, cfg.seed) == (10, 52, 2 ** 64 - 1)

    @pytest.mark.parametrize("window", [(0.0, 2.0), (0.8, 0.2), (-0.5, 1.5)])
    def test_window_outside_the_horizon_rejected(self, window):
        with pytest.raises(InvalidParameterError, match="t0 <= t1 <= horizon"):
            SimConfig(n_paths=10, horizon=1.0, windows=(window,))

    def test_started_and_full_horizon_windows_accepted(self):
        cfg = SimConfig(n_paths=10, horizon=1.0, windows=((-0.5, 1.0), (0.0, 1.0), (0.5, 0.5)))
        assert cfg.windows == ((-0.5, 1.0), (0.0, 1.0), (0.5, 0.5))


class TestSimulatePaths:
    def test_deterministic_limit(self):
        # sigma = nu = 0, b = 0, y = 0: the stock grows at the short rate
        p = ModelParams.single_factor(r=0.02, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        st = State(0.0, 1.0, [0.0])
        bundle = simulate_paths(p, None, st, SimConfig(n_paths=3, horizon=1.0, seed=1))
        np.testing.assert_allclose(bundle.terminal_x, math.exp(0.02), rtol=1e-3)

    def test_initial_state_must_be_inside(self, params_a02):
        with pytest.raises(DomainError):
            simulate_paths(params_a02, None, State(0.0, 1.0, [0.5]),
                           SimConfig(n_paths=2, horizon=1.0))

    def test_e_preservation(self, params_a02, state0):
        cfg = SimConfig(n_paths=2000, horizon=2.0, steps_per_year=52, seed=9,
                        store_policy="full")
        bundle = simulate_paths(params_a02, None, state0, cfg)
        assert np.all(bundle.terminal_x > 0)
        assert np.all(bundle.terminal_y >= 0)
        assert np.all(bundle.terminal_y.sum(axis=1) <= 0.2 * bundle.terminal_x + 1e-12)
        assert np.all(bundle.yield_paths >= 0)
        assert np.all(bundle.yield_paths <= 0.2 + 1e-12)

    def test_seed_determinism(self, params_a02, state0):
        cfg = SimConfig(n_paths=5000, horizon=0.5, seed=77)
        b1 = simulate_paths(params_a02, None, state0, cfg)
        b2 = simulate_paths(params_a02, None, state0, cfg)
        np.testing.assert_array_equal(b1.terminal_x, b2.terminal_x)
        np.testing.assert_array_equal(b1.disc_div, b2.disc_div)

    @pytest.mark.parametrize("value", ["two", "0", "-3"])
    def test_invalid_thread_count_rejected(self, params_a02, state0, monkeypatch, value):
        monkeypatch.setenv("POLYDIV_THREADS", value)
        with pytest.raises(ConfigError, match=f"POLYDIV_THREADS.*'{value}'"):
            simulate_paths(params_a02, None, state0, SimConfig(n_paths=10, horizon=0.1))

    def test_empty_thread_count_means_the_affinity_mask(self, monkeypatch):
        monkeypatch.setenv("POLYDIV_THREADS", "")
        assert _worker_count() == len(os.sched_getaffinity(0))
        monkeypatch.delenv("POLYDIV_THREADS")
        assert _worker_count() == len(os.sched_getaffinity(0))

    def test_worker_count_invariance(self, params_a02, monkeypatch):
        # the pinned-stream config with a started window and stored yields;
        # nu = 0.6 makes the model project paths back onto E
        jump = JumpSpec(lam=1.0, dist=TwoPoint(z1=-0.3, p=0.4, z2=0.25))
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE + 5, horizon=0.5, seed=11, store_policy="full",
                        windows=((-0.25, 0.25), (0.25, 0.5)))
        state = State(c=0.01, x=1.0, y=[0.0371])
        arrays = ("terminal_x", "terminal_y", "terminal_c", "disc_div", "jump_counts",
                  "yield_paths")
        dtypes = (np.float64,) * 4 + (np.int64, np.float64)
        for params in (params_a02, dataclasses.replace(params_a02, nu=np.array([0.6]))):
            monkeypatch.setenv("POLYDIV_THREADS", "1")
            b1 = simulate_paths(params, jump, state, cfg)
            assert b1.workers == 1
            for workers in (2, 4):
                monkeypatch.setenv("POLYDIV_THREADS", str(workers))
                bw = simulate_paths(params, jump, state, cfg)
                assert bw.workers == min(workers, 3)
                assert bw.projection_count == b1.projection_count
                pairs = [(getattr(b1, name), getattr(bw, name), dtype)
                         for name, dtype in zip(arrays, dtypes)]
                pairs += [(b1.window_sums[w], bw.window_sums[w], np.float64)
                          for w in cfg.windows]
                for one, many, dtype in pairs:
                    assert many.dtype == dtype and many.flags.c_contiguous
                    assert one.shape == many.shape and one.tobytes() == many.tobytes()
        assert b1.projection_count > 0

    def test_failing_worker_raises_and_leaves_no_process(self, params_a02, state0,
                                                         monkeypatch):
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE, horizon=0.1, seed=4)
        monkeypatch.setenv("POLYDIV_THREADS", "2")
        bundle = simulate_paths(params_a02, None, state0, cfg)
        assert bundle.workers == 2
        assert multiprocessing.active_children() == []

        def fail(*args):
            raise RuntimeError("block failed")

        # the forked workers inherit the patched module
        monkeypatch.setattr(polydiv.mc, "_simulate_block", fail)
        with pytest.raises(RuntimeError, match="block failed"):
            simulate_paths(params_a02, None, state0, cfg)
        assert multiprocessing.active_children() == []

    @staticmethod
    def _assert_same_paths(one, other):
        for name in ("terminal_x", "terminal_y", "terminal_c", "disc_div", "jump_counts"):
            assert getattr(one, name).tobytes() == getattr(other, name).tobytes()
        for w in one.config.windows:
            assert one.window_sums[w].tobytes() == other.window_sums[w].tobytes()
        assert one.projection_count == other.projection_count

    def test_no_affinity_mask_means_every_cpu(self, params_a02, state0, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE, horizon=0.1, seed=4, windows=((0.0, 0.1),))
        monkeypatch.setenv("POLYDIV_THREADS", "1")
        one = simulate_paths(params_a02, None, state0, cfg)
        monkeypatch.delenv("POLYDIV_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _worker_count() == (os.cpu_count() or 1)
        bundle = simulate_paths(params_a02, None, state0, cfg)
        assert bundle.workers == min(os.cpu_count() or 1, 2)
        self._assert_same_paths(one, bundle)

    def test_no_fork_runs_the_blocks_in_process(self, params_a02, state0, monkeypatch):
        # Windows has no fork start method
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE, horizon=0.1, seed=4, windows=((0.0, 0.1),))
        monkeypatch.setenv("POLYDIV_THREADS", "2")
        forked = simulate_paths(params_a02, None, state0, cfg)
        assert forked.workers == 2

        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        bundle = simulate_paths(params_a02, None, state0, cfg)
        assert bundle.workers == 1
        self._assert_same_paths(forked, bundle)

    def test_zero_intensity_matches_pure_diffusion(self, params_a02, state0):
        cfg = SimConfig(n_paths=4000, horizon=0.5, seed=13)
        plain = simulate_paths(params_a02, None, state0, cfg)
        zero = simulate_paths(params_a02, JumpSpec(lam=0.0, dist=PointMass(-0.5)), state0, cfg)
        np.testing.assert_array_equal(plain.terminal_x, zero.terminal_x)

    def test_cumulative_dividends_nonnegative_increments(self, params_a02, state0):
        cfg = SimConfig(n_paths=500, horizon=1.0, seed=3, windows=((0.0, 0.5), (0.5, 1.0)))
        bundle = simulate_paths(params_a02, None, state0, cfg)
        assert np.all(bundle.window_sums[(0.0, 0.5)] >= 0)
        assert np.all(bundle.window_sums[(0.5, 1.0)] >= 0)
        total = bundle.window_sums[(0.0, 0.5)] + bundle.window_sums[(0.5, 1.0)]
        np.testing.assert_allclose(total, bundle.terminal_c, rtol=1e-12)

    def test_jump_counts_and_depressed_mean(self, params_a02, state0):
        jump = JumpSpec(lam=0.5, dist=PointMass(-0.5))
        cfg = SimConfig(n_paths=20000, horizon=1.0, steps_per_year=126, seed=21)
        bundle = simulate_paths(params_a02, jump, state0, cfg)
        # Poisson(0.5) over one year per path
        assert bundle.jump_counts.sum() == pytest.approx(0.5 * 20000, rel=0.05)
        # compensated jumps preserve the futures price
        est = mc_price(bundle, lambda x: x, 1.0, underlying="stock")
        closed = stock_futures(params_a02, jump, state0, 0.0, bundle.horizon)
        assert abs(est.value - closed) < 4 * est.std_error

    def test_two_point_jumps_run(self, params_a02, state0):
        jump = JumpSpec(lam=1.0, dist=TwoPoint(z1=-0.3, p=0.4, z2=0.25))
        cfg = SimConfig(n_paths=2000, horizon=0.5, seed=2)
        bundle = simulate_paths(params_a02, jump, state0, cfg)
        assert bundle.jump_counts.sum() > 0
        assert np.all(bundle.terminal_x > 0)

    def test_two_point_stream_is_pinned(self, params_a02, state0):
        # sums recorded on a seeded run of two blocks and five paths; any
        # change in what the step loop draws, or in what order, moves them
        jump = JumpSpec(lam=1.0, dist=TwoPoint(z1=-0.3, p=0.4, z2=0.25))
        cfg = SimConfig(n_paths=2 * BLOCK_SIZE + 5, horizon=0.5, seed=11,
                        windows=((0.0, 0.25), (0.25, 0.5)))
        bundle = simulate_paths(params_a02, jump, state0, cfg)
        assert float(bundle.terminal_x.sum()) == 8085.026585856374
        assert float(bundle.terminal_c.sum()) == 149.59930440393222
        assert [float(w.sum()) for w in bundle.window_sums.values()] == \
            [75.39784718297403, 74.20145722095818]
        assert int(bundle.jump_counts.sum()) == 4021

    def test_jump_increment_identity(self, state0):
        # with diffusion switched off, a single-jump Euler step satisfies
        # X1 = X0 + (r X0 - D - lam m1 base) dt + base * z0 exactly, which
        # keeps the post-jump price above D/a
        z0, lam = -0.5, 75.0
        p = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.0, b=0.0103,
                                      beta=-0.3439, nu=0.0)
        jump = JumpSpec(lam=lam, dist=PointMass(z0))
        cfg = SimConfig(n_paths=256, horizon=1 / 252, steps_per_year=252, seed=6)
        bundle = simulate_paths(p, jump, state0, cfg)
        # replay the block's RNG stream to recover the per-path jump counts
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((6, 0))))
        rng.standard_normal((256, 2))
        n_jumps = rng.poisson(lam / 252, 256)
        np.testing.assert_array_equal(bundle.jump_counts, n_jumps)
        dt = 1 / 252
        d0 = 0.0371
        base = 1.0 - d0 / 0.2
        drift = (0.01 - d0 - lam * z0 * base) * dt
        single = n_jumps == 1
        assert single.sum() > 10
        expected = 1.0 + drift + base * z0
        np.testing.assert_allclose(bundle.terminal_x[single], expected, rtol=1e-15)
        assert np.all(bundle.terminal_x[single] >= d0 / 0.2)


class TestEulerMeans:
    """Degree one of the Euler scheme in closed form.  While no projection
    fires, one step maps the means of (x, y) by the drift step I + A dt (the
    compensated jumps and the noise have mean zero) and accrues the
    trapezoid 0.5 (1'y + 1'y') dt, so n steps give the simulator's own
    means, with no discretization slack."""

    Z_CHECK = 3.890591886413094      # two-sided normal quantile, tail mass 1e-4

    @staticmethod
    def euler_means(params, state, steps_per_year, n_steps, window):
        """E[X_n], E[Y_n] and E[window sum] of the Euler scheme."""
        dt = 1.0 / steps_per_year
        d = params.d
        drift = np.zeros((1 + d, 1 + d))
        drift[0] = [params.r] + [-1.0] * d
        drift[1:, 0] = params.b
        drift[1:, 1:] = params.beta
        xy = np.concatenate(([state.x], state.y))
        first, last = (round(t * steps_per_year) for t in window)
        accrued = 0.0
        for i in range(n_steps):
            nxt = xy + dt * drift @ xy
            if first <= i < last:
                accrued += 0.5 * dt * (xy[1:].sum() + nxt[1:].sum())
            xy = nxt
        return xy[0], xy[1:], accrued

    @pytest.mark.parametrize("steps_per_year", [63, 252])
    def test_sample_means_match_the_euler_map(self, params_a02, state0, steps_per_year):
        jump = JumpSpec(lam=0.2, dist=TwoPoint(z1=-0.4, p=0.35, z2=0.5))
        window = (0.25, 0.75)
        cfg = SimConfig(n_paths=4 * BLOCK_SIZE, horizon=1.0, steps_per_year=steps_per_year,
                        seed=19, windows=(window,))
        bundle = simulate_paths(params_a02, jump, state0, cfg)
        assert bundle.projection_count == 0
        x, y, accrued = self.euler_means(params_a02, state0, steps_per_year, steps_per_year,
                                         window)
        for sample, mean in ((bundle.terminal_x, x), (bundle.terminal_y[:, 0], y[0]),
                             (bundle.window_sums[window], accrued)):
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - mean) <= self.Z_CHECK * se


class TestMcPrice:
    def test_constant_payoff(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=100, horizon=0.5, seed=1))
        est = mc_price(bundle, lambda x: np.full_like(x, 3.0), 0.9)
        assert est.value == pytest.approx(2.7)
        assert est.std_error == 0.0

    def test_payoff_of_the_wrong_shape_rejected(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=10, horizon=0.5, seed=1))
        with pytest.raises(InvalidParameterError, match="one value per path"):
            mc_price(bundle, lambda x: x.sum(), 1.0)

    def test_unknown_control_rejected(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=10, horizon=0.5, seed=1))
        with pytest.raises(InvalidParameterError, match="unknown control 'antithetic'"):
            mc_price(bundle, lambda x: x, 1.0, control="antithetic")

    def test_control_absorbs_linear_payoff(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=5000, horizon=1.0, seed=4))
        est = mc_price(bundle, lambda x: x, 1.0, control="degree-one")
        closed = stock_futures(params_a02, None, state0, 0.0, bundle.horizon)
        assert est.value == pytest.approx(closed, rel=1e-13)
        assert est.std_error < 1e-15

    def test_control_reduces_variance_for_calls(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=20000, horizon=0.25, seed=8))
        payoff = lambda x: np.maximum(x - 1.0, 0.0)
        plain = mc_price(bundle, payoff, 1.0, control="none")
        controlled = mc_price(bundle, payoff, 1.0, control="degree-one")
        assert controlled.std_error <= plain.std_error

    def test_degenerate_underlying_warns(self):
        p = ModelParams.single_factor(r=0.02, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        st = State(0.0, 1.0, [0.0])
        bundle = simulate_paths(p, None, st, SimConfig(n_paths=50, horizon=.5, seed=1))
        with pytest.warns(RuntimeWarning):
            est = mc_price(bundle, lambda x: x, 1.0, control="degree-one")
        assert est.control == "none"

    def test_window_underlying(self, params_a02, state0):
        cfg = SimConfig(n_paths=50000, horizon=1.0, steps_per_year=126, seed=10,
                        windows=((0.0, 1.0),))
        bundle = simulate_paths(params_a02, None, state0, cfg)
        est = mc_price(bundle, lambda c: c, 1.0, control="none", underlying=(0.0, 1.0))
        closed = dividend_futures(params_a02, None, state0, 0.0, 0.0, bundle.horizon)
        assert abs(est.value - closed) < 3 * est.std_error

    def test_started_window_includes_accrual(self, params_a02):
        st = State(c=0.01, x=1.0, y=[0.0371])
        cfg = SimConfig(n_paths=20000, horizon=1.0, steps_per_year=126, seed=14,
                        windows=((-0.5, 1.0),))
        bundle = simulate_paths(params_a02, None, st, cfg)
        est = mc_price(bundle, lambda c: c, 1.0, control="none", underlying=(-0.5, 1.0))
        closed = dividend_futures(params_a02, None, st, 0.0, -0.5, 1.0)
        assert abs(est.value - closed) < 4 * est.std_error
        # the control variate's closed-form mean carries the accrual too
        linear = mc_price(bundle, lambda c: c, 1.0, control="degree-one", underlying=(-0.5, 1.0))
        assert linear.value == pytest.approx(closed, rel=1e-12)

    def test_unknown_underlying_rejected(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=10, horizon=0.5, seed=1))
        with pytest.raises(InvalidParameterError):
            mc_price(bundle, lambda x: x, 1.0, underlying=(0.0, 0.25))


class TestDiagnostics:
    def test_martingale_contains_initial_price(self, params_a02, state0):
        cfg = SimConfig(n_paths=50000, horizon=1.0, steps_per_year=126, seed=12)
        bundle = simulate_paths(params_a02, None, state0, cfg)
        diag = martingale_diagnostic(bundle)
        assert diag.ci_low <= 1.0 <= diag.ci_high

    def test_martingale_deterministic_case(self):
        p = ModelParams.single_factor(r=0.02, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        st = State(0.0, 1.0, [0.0])
        bundle = simulate_paths(p, None, st, SimConfig(n_paths=10, horizon=1.0, seed=1))
        diag = martingale_diagnostic(bundle)
        assert diag.value == pytest.approx(1.0, rel=1e-3)

    def test_yield_stats_require_full_storage(self, params_a02, state0):
        bundle = simulate_paths(params_a02, None, state0,
                                SimConfig(n_paths=10, horizon=0.5, seed=1))
        with pytest.raises(InvalidParameterError):
            yield_path_stats(bundle)

    def test_ten_year_yield_path(self, params_a02, state0):
        cfg = SimConfig(n_paths=1, horizon=10.0, steps_per_year=252, seed=1,
                        store_policy="full")
        bundle = simulate_paths(params_a02, None, state0, cfg)
        stats = yield_path_stats(bundle)
        assert 0.0 <= stats.minimum and stats.maximum <= 0.2
        # mean-reversion level b/(r - beta - sigma^2) = 3.75% for these params
        level = 0.0103 / (0.01 + 0.3439 - 0.2813 ** 2)
        assert level == pytest.approx(0.0375, abs=2e-4)
        assert abs(stats.quantiles[0.5] - level) < 0.015
