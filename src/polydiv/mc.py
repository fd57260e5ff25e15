"""Euler Monte-Carlo simulator with state-space projection and control variates.

Paths are generated in fixed-size blocks, each block drawing from its own
counter-based Philox stream keyed by (seed, block index).  Blocks run in
forked worker processes, one per CPU by default, and write their slices of
the outputs in place into one shared anonymous map allocated before the
fork.  Results are therefore bit-identical for a given seed regardless of
how many workers execute the blocks; the block size is a module constant
and part of the reproducibility contract.
"""

import math
import mmap
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InvalidParameterError
from .model import PointMass, State, in_state_space, jump_moment, require_admissible
from .moments import dividend_futures, stock_futures

BLOCK_SIZE = 4096          # paths per RNG block; fixed for reproducibility
RNG_ALGORITHM = "philox4x64/seedseq(seed, block)"
_X_FLOOR = 1e-12


@dataclass(frozen=True)
class SimConfig:
    """Simulation request: path count, resolution, seed, horizon, storage."""

    n_paths: int
    horizon: float
    steps_per_year: int = 252
    seed: int = 0
    store_policy: str = "terminal"          # "terminal" or "full"
    windows: tuple = ()                     # (T0, T1) pairs for window accruals

    def __post_init__(self):
        for name, least in (("n_paths", 1), ("steps_per_year", 1), ("seed", 0)):
            value = getattr(self, name)
            # a bool is an Integral too, but no count or seed
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    and value >= least):
                raise InvalidParameterError(f"need an integer {name} >= {least}, got {value!r}")
        if not 0 < self.horizon < math.inf:
            raise InvalidParameterError(f"need a finite horizon > 0, got {self.horizon}")
        if self.store_policy not in ("terminal", "full"):
            raise InvalidParameterError(f"unknown store policy {self.store_policy!r}")
        object.__setattr__(self, "windows", tuple((float(a), float(b)) for a, b in self.windows))
        for t0, t1 in self.windows:
            if not t0 <= t1 <= self.horizon:
                raise InvalidParameterError(f"window {t0:g}..{t1:g} needs t0 <= t1 <= horizon")


@dataclass(eq=False)
class PathBundle:
    """Simulated terminal states plus accumulators needed by the estimators."""

    config: SimConfig
    params: object
    jump: object
    state0: State
    horizon: float
    dt: float
    terminal_c: np.ndarray
    terminal_x: np.ndarray
    terminal_y: np.ndarray
    disc_div: np.ndarray
    window_sums: dict
    window_grid: dict
    jump_counts: np.ndarray
    yield_paths: np.ndarray = None
    rng_algorithm: str = RNG_ALGORITHM
    projection_count: int = 0
    workers: int = 1                        # processes that ran the blocks


def _worker_count():
    """Worker processes from ``POLYDIV_THREADS``: a positive integer, or, if
    unset or empty, the CPUs in this process's affinity mask (all CPUs where
    the platform has no affinity mask)."""
    env = os.environ.get("POLYDIV_THREADS", "")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"POLYDIV_THREADS must be a positive integer, got {env!r}")
    return count


def _shared_arrays(*specs):
    """Zeroed C-contiguous arrays, one per (shape, dtype), over one shared anonymous map.

    The map is shared, not private: a process forked after this call writes
    into the pages the caller reads.  The arrays keep the map alive.
    """
    offsets, size = [], 0
    for shape, dtype in specs:
        offsets.append(size)
        size += math.prod(shape) * np.dtype(dtype).itemsize   # 8-byte items keep all aligned
    buf = mmap.mmap(-1, size)
    return [np.ndarray(shape, dtype, buffer=buf, offset=offset)
            for (shape, dtype), offset in zip(specs, offsets)]


def _simulate_block(params, jump, state0, n_steps, dt, window_idx, rng, store_yields,
                    x_out, y_out, c, disc, wsums, jcount, yields):
    """Step one block's paths, writing them into its slices of the outputs; returns
    the number of projections onto E."""
    n = c.size
    d, a, r = params.d, params.a, params.r
    b, beta, sigma, nu = params.b, params.beta, params.sigma, params.nu
    sqrt_dt = math.sqrt(dt)
    jumps_on = jump is not None and jump.active
    if jumps_on:
        lam, dist = jump.lam, jump.dist
        m1 = jump_moment(jump, 1)

    x = np.full(n, float(state0.x))
    y = np.tile(np.asarray(state0.y, dtype=float), (n, 1))
    c[:] = state0.c
    disc[:] = 0.0
    wsums[:] = 0.0
    jcount[:] = 0
    projections = 0
    if store_yields:
        yields[:, 0] = y.sum(axis=1) / x

    div = y.sum(axis=1)
    for i in range(n_steps):
        t = i * dt
        base = np.maximum(x - div / a, 0.0)
        z = rng.standard_normal((n, 1 + d))

        drift_x = r * x - div
        if jumps_on:
            drift_x = drift_x - lam * m1 * base
            n_jumps = rng.poisson(lam * dt, n)
            if isinstance(dist, PointMass):
                jump_sum = dist.z0 * n_jumps
            else:
                # binomial(0, p) draws nothing from the stream: skipping
                # the jump-free paths leaves every draw where it was
                jumped = n_jumps > 0
                hits = np.zeros_like(n_jumps)
                hits[jumped] = rng.binomial(n_jumps[jumped], dist.p)
                jump_sum = dist.z1 * hits + dist.z2 * (n_jumps - hits)
            jcount += n_jumps
        x_new = x + drift_x * dt + sigma * base * sqrt_dt * z[:, 0]
        if jumps_on:
            x_new = x_new + base * jump_sum

        dy = (np.outer(x, b) + y @ beta.T) * dt
        dy += nu[None, :] * np.sqrt(np.maximum(base[:, None] * y, 0.0)) * sqrt_dt * z[:, 1:]
        y_new = y + dy

        # project back onto E: clip factors, rescale at the cap, floor x
        y_new = np.maximum(y_new, 0.0)
        s = y_new.sum(axis=1)
        cap = a * np.maximum(x_new, 0.0)
        over = s > cap
        if over.any():
            projections += int(over.sum())
            ratio = np.where(s > 0, cap / np.where(s > 0, s, 1.0), 0.0)
            y_new[over] *= ratio[over, None]
        x_new = np.maximum(x_new, _X_FLOOR)

        div_new = y_new.sum(axis=1)
        seg = 0.5 * (div + div_new) * dt
        c += seg
        disc += 0.5 * (math.exp(-r * t) * div + math.exp(-r * (t + dt)) * div_new) * dt
        for widx, (i0, i1) in enumerate(window_idx):
            if i0 <= i < i1:
                wsums[widx] += seg
        if store_yields:
            yields[:, i + 1] = div_new / x_new

        x, y, div = x_new, y_new, div_new

    x_out[:] = x
    y_out[:] = y
    return projections


_installed_block = None     # a forked worker's block runner, set by its pool initializer


def _install_block(run_block):
    global _installed_block
    _installed_block = run_block


def _run_installed_block(k):
    return _installed_block(k)


def simulate_paths(params, jump, state0, config):
    """Simulate Euler paths of (C, X, Y) per the config; deterministic in seed.

    The state is projected onto E after every step (factor clipping plus a
    proportional rescale at the yield cap); jumps are compensated compound
    Poisson applied to the stock.  Window accruals and the discounted
    dividend integral use trapezoid rule on the dividend rate.  A window
    that started before time 0 (T0 < 0) starts its sum from ``state0.c``,
    the accrual since the window start.

    ``POLYDIV_THREADS`` bounds the worker processes (see ``_worker_count``),
    capped at the block count; with one, or where the platform cannot fork,
    the blocks run in this process.
    """
    membership = in_state_space(params, state0)
    if not membership.inside:
        raise DomainError(
            f"initial state outside E: x={membership.x}, min_y={membership.min_y}, "
            f"cap slack={membership.cap_slack}"
        )
    require_admissible(params)

    dt = 1.0 / config.steps_per_year
    n_steps = max(1, round(config.horizon * config.steps_per_year))
    horizon = n_steps * dt
    window_idx = []
    window_grid = {}
    for t0, t1 in config.windows:
        # SimConfig keeps t0 <= t1 <= horizon, so neither index passes n_steps
        i0 = max(int(round(t0 * config.steps_per_year)), 0)
        i1 = max(int(round(t1 * config.steps_per_year)), i0)
        window_idx.append((i0, i1))
        # a started window keeps its negative T0 so that its mean includes state0.c
        window_grid[(t0, t1)] = (t0 if t0 < 0 else i0 * dt, i1 * dt)

    n = config.n_paths
    n_blocks = -(-n // BLOCK_SIZE)
    n_workers = min(_worker_count(), n_blocks)
    if n_workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():   # Windows
            n_workers = 1
    store_yields = config.store_policy == "full"
    terminal_x, terminal_y, terminal_c, disc_div, wsums, jcounts, yields = _shared_arrays(
        ((n,), float), ((n, params.d), float), ((n,), float), ((n,), float),
        ((len(window_idx), n), float), ((n,), np.int64),
        ((n, n_steps + 1 if store_yields else 0), float))

    def run_block(k):
        rows = slice(k * BLOCK_SIZE, min((k + 1) * BLOCK_SIZE, n))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, k))))
        return _simulate_block(
            params, jump, state0, n_steps, dt, window_idx, rng, store_yields,
            terminal_x[rows], terminal_y[rows], terminal_c[rows], disc_div[rows],
            wsums[:, rows], jcounts[rows], yields[rows])

    if n_workers == 1:
        projections = [run_block(k) for k in range(n_blocks)]
    else:
        # fork, not spawn: the workers inherit run_block and the output map,
        # so only block indices and projection counts are pickled
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(n_workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_install_block, initargs=(run_block,))
        try:
            projections = list(pool.map(_run_installed_block, range(n_blocks)))
        finally:
            # a failed block cancels the blocks not yet started; every worker is joined
            pool.shutdown(cancel_futures=True)

    for idx, (t0, _) in enumerate(config.windows):
        if t0 < 0:  # a started window carries the accrual since its start
            wsums[idx] += state0.c
    window_sums = {win: wsums[idx] for idx, win in enumerate(config.windows)}
    return PathBundle(
        config=config,
        params=params,
        jump=jump,
        state0=state0,
        horizon=horizon,
        dt=dt,
        terminal_c=terminal_c,
        terminal_x=terminal_x,
        terminal_y=terminal_y,
        disc_div=disc_div,
        window_sums=window_sums,
        window_grid=window_grid,
        jump_counts=jcounts,
        yield_paths=yields if store_yields else None,
        projection_count=sum(projections),
        workers=n_workers,
    )


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with standard error and a 95% confidence interval."""

    value: float
    std_error: float
    ci_low: float
    ci_high: float
    n_paths: int
    control: str = "none"
    control_coef: float = 0.0


_Z95 = 1.959963984540054


def _estimate(samples, scale=1.0, **labels):
    """Mean of `samples` times `scale`, with its standard error and 95% CI."""
    n = samples.size
    value = scale * float(samples.mean())
    se = scale * float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=value, std_error=se, ci_low=value - _Z95 * se,
                      ci_high=value + _Z95 * se, n_paths=n, **labels)


def _underlying_values(bundle, underlying):
    if underlying == "stock":
        return bundle.terminal_x
    if isinstance(underlying, tuple) and underlying in bundle.window_sums:
        return bundle.window_sums[underlying]
    raise InvalidParameterError(f"unknown underlying {underlying!r}; simulate the window first")


def _underlying_mean(bundle, underlying):
    """Closed-form expectation of the simulated underlying (snapped to the grid)."""
    if underlying == "stock":
        return stock_futures(bundle.params, bundle.jump, bundle.state0, 0.0, bundle.horizon)
    t0, t1 = bundle.window_grid[underlying]
    return dividend_futures(bundle.params, bundle.jump, bundle.state0, 0.0, t0, t1)


def mc_price(bundle, payoff, discount, control="none", underlying="stock"):
    """Discounted Monte-Carlo payoff estimate, optionally variance-reduced.

    With ``control="degree-one"`` the payoff is regressed in-sample on
    (1, underlying) and the linear term is replaced by its closed-form
    expectation, which leaves the estimator unbiased up to the in-sample
    regression and typically shrinks the variance substantially.
    """
    u = _underlying_values(bundle, underlying)
    p = np.asarray(payoff(u), dtype=float)
    if p.shape != u.shape:
        raise InvalidParameterError("payoff must map the underlying array to one value per path")
    n = p.size
    coef = 0.0
    if control == "degree-one":
        if np.ptp(u) == 0.0 or np.var(u) == 0.0:
            warnings.warn("degenerate underlying: control variate disabled", RuntimeWarning)
            samples = p
            control = "none"
        else:
            design = np.column_stack([np.ones(n), u])
            (_, coef), *_ = np.linalg.lstsq(design, p, rcond=None)
            samples = p - coef * (u - _underlying_mean(bundle, underlying))
    elif control == "none":
        samples = p
    else:
        raise InvalidParameterError(f"unknown control {control!r}")

    return _estimate(samples, discount, control=control, control_coef=float(coef))


def martingale_diagnostic(bundle):
    """Sample estimate of the discounted gains at the horizon versus X_0.

    The discounted gains process (discounted stock plus accumulated
    discounted dividends) is a martingale, so its expectation must equal
    the initial stock price at every horizon.
    """
    values = math.exp(-bundle.params.r * bundle.horizon) * bundle.terminal_x + bundle.disc_div
    return _estimate(values)


@dataclass(frozen=True)
class YieldStats:
    """Summary statistics of stored dividend-yield paths."""

    minimum: float
    maximum: float
    quantiles: dict


def yield_path_stats(bundle, quantiles=(0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)):
    """Min/max/quantiles of the dividend yield across all stored path values."""
    if bundle.yield_paths is None:
        raise InvalidParameterError("yield paths were not stored; use store_policy='full'")
    flat = bundle.yield_paths.ravel()
    qs = {float(q): float(np.quantile(flat, q)) for q in quantiles}
    return YieldStats(minimum=float(flat.min()), maximum=float(flat.max()), quantiles=qs)
