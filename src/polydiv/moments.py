"""Conditional moments, futures prices, and present-value diagnostics.

Everything here rests on the polynomial moment formula: a polynomial with
coefficient row u on the basis monomials H has

    E_t[u' H(C_T, X_T, Y_T)] = (expm(G' (T - t)) u)' H(C_t, X_t, Y_t).

Every moment is such a row, carried back on one degree block of G (or on
its closed c-free sub-block) and dotted with the current state's monomials,
so small high-degree moments do not inherit the absolute errors of large
ones.  Window dividends restart the accrual at T0 (the Markov property).
Futures prices and the dividend present value need only degree one, where
the diffusions and the compensated jumps drop out: the (2 + d) drift matrix.
With no small moments to lose there, the mean itself is carried forward,
over a whole futures strip at once (:func:`futures_strip`).
"""

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from ._blas import single_thread
from .errors import DomainError, InvalidParameterError, NumericError
from .generator import build_basis, build_generator, eval_basis
from .model import require_admissible


def expm_apply(mat, dt, v):
    """Apply the matrix exponential: ``expm(mat * dt) @ v``.

    ``v`` is a vector or a matrix of columns.  ``dt = 0`` returns a copy of
    ``v`` exactly.  Uses scaling-and-squaring with the 13th-order rational
    approximant underneath.
    """
    return _apply(_exponential(mat, dt), v)


def _exponential(mat, dt):
    """``expm(mat * dt)``, or ``None`` (the identity) at ``dt = 0``; a negative
    dt or a non-finite entry raises."""
    mat = np.asarray(mat, dtype=float)
    if dt < 0:
        raise InvalidParameterError(f"need dt >= 0, got {dt}")
    if not np.all(np.isfinite(mat)):
        raise NumericError("non-finite entries in matrix-exponential input")
    return None if dt == 0 else expm(mat * dt)


def _apply(exponential, v):
    """``exponential @ v`` from :func:`_exponential`: a copy of ``v`` for ``None``."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NumericError("non-finite entries in matrix-exponential input")
    if exponential is None:
        return v.copy()
    out = exponential @ v
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix exponential produced non-finite values")
    return out


def _check_moment_args(name, count, t, **dates):
    """Reject a moment count that is not an integer >= 1, a non-finite time,
    and `dates` that do not follow t and each other in keyword order."""
    if not isinstance(count, numbers.Real) or not float(count).is_integer() or count < 1:
        raise InvalidParameterError(f"need an integer {name} >= 1, got {count!r}")
    times = list({"t": t, **dates}.items())
    for key, value in times:
        if not math.isfinite(value):
            raise InvalidParameterError(f"need a finite {key}, got {key}={value}")
    for (a, ta), (b, tb) in zip(times, times[1:]):
        if tb < ta:
            raise InvalidParameterError(f"need {b} >= {a}, got {b}={tb} < {a}={ta}")


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Conditional expectations of all basis monomials over a horizon (t, T)."""

    basis: object
    t: float
    T: float
    values: np.ndarray

    def value(self, i=0, j=0, alpha=None):
        """Moment E_t[c^i x^j y^alpha] at time T."""
        if alpha is None:
            alpha = (0,) * self.basis.d
        return float(self.values[self.basis.position(i, j, alpha)])


@single_thread
def conditional_moments(params, jump, state, t, T, n):
    """All mixed moments of (C_T, X_T, Y_T) up to total degree n, given time t:
    ``H_B(state) @ expm(B' (T - t))`` on each degree block B, one row each."""
    _check_moment_args("n", n, t, T=T)
    basis = build_basis(params.d, int(n))
    mat = build_generator(params, jump, basis).matrix
    h = eval_basis(basis, state)
    values = np.concatenate([h[s] @ expm_apply(mat[s, s].T, T - t, np.eye(s.stop - s.start))
                             for s in basis.blocks])
    return MomentSet(basis=basis, t=t, T=T, values=values)


def _forward_means(params, state, t, dates, rate=0.0):
    """E_t[(C_s - C_t, X_s, Y_s)] discounted at `rate`, for each date s >= t, in
    request order: the mean is carried forward from (0, x, y) over the sorted
    dates by the drift matrix ``[[0, 0, 1'], [0, r - rate, -1'], [0, b, beta -
    rate I]]``, exponentiated in one stacked call, once per distinct step."""
    d = params.d
    mat = np.zeros((2 + d, 2 + d))
    mat[0, 2:] = 1.0
    mat[1, 1] = params.r - rate
    mat[1, 2:] = -1.0
    mat[2:, 1] = params.b
    mat[2:, 2:] = params.beta - rate * np.eye(d)
    # sets and dicts over the few dates: np.unique would page ~0.4 MB of sort code in
    times = sorted({t, *map(float, dates)})
    steps = sorted({b - a for a, b in zip(times, times[1:])})
    props = dict(zip(steps, expm(np.multiply.outer(steps, mat)))) if steps else {}
    means = {t: np.concatenate(([0.0, state.x], state.y))}
    for a, b in zip(times, times[1:]):
        means[b] = props[b - a] @ means[a]
    out = np.array([means[s] for s in dates]).reshape(len(dates), 2 + d)
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix exponential produced non-finite values")
    return out


def futures_strip(params, state, t, windows, expiries=()):
    """Dividend futures E_t[C_T1 - C_T0] for each (T0, T1) of `windows` and
    stock futures E_t[X_T] for each T of `expiries`, as two arrays in request
    order, from one forward propagation of the degree-one mean.

    All dates are checked before any work, the parameters once.  A window
    that has started (T0 < t) needs ``state.c`` to be the dividends accrued
    since T0, and is priced as ``state.c`` plus E_t[C_T1 - C_t].  Only the
    drift enters: compensated jumps leave every mean unchanged.
    """
    w = np.array(windows, dtype=float).reshape(len(windows), 2)
    e = np.array(expiries, dtype=float).reshape(len(expiries))
    if not np.all(np.isfinite(np.append(w, e))):
        raise InvalidParameterError("futures dates must be finite")
    bad = [f"window ({T0}, {T1}) ends before it starts" for T0, T1 in w if T1 < T0]
    bad += [f"date {T} lies before t={t}" for T in np.append(w[:, 1], e) if T < t]
    if bad:
        raise InvalidParameterError("; ".join(bad))
    require_admissible(params)
    n = len(w)
    means = _forward_means(params, state, t, np.concatenate((np.maximum(w[:, 0], t), w[:, 1], e)))
    accrued = np.where(w[:, 0] < t, state.c, 0.0)
    return means[n:2 * n, 0] - means[:n, 0] + accrued, means[2 * n:, 1]


def stock_futures(params, jump, state, t, T):
    """Futures price on the stock, E_t[X_T]: a one-date :func:`futures_strip`.
    `jump` does not enter."""
    return float(futures_strip(params, state, t, (), (T,))[1][0])


def dividend_futures(params, jump, state, t, T0, T1):
    """Futures price on dividends paid over [T0, T1], E_t[C_T1 - C_T0]: a
    one-window :func:`futures_strip`.  `jump` does not enter."""
    return float(futures_strip(params, state, t, ((T0, T1),))[0][0])


def _power_moments(params, jump, state, dt, n, window=None, first=1, held=None):
    """E_t[P^k], k = first..n, for P = X_T at T = t + dt, or with a `window`
    length for P = C_T1 - C_T0 over [T0, T1] = [T, T + window].

    X_T^k is the x^k row, which leads the c-free sub-block of degree k.  As
    C_T1 - C_T0 accrues like C restarted from 0 at T0, E_T0[P^k] is the c^k
    row, which leads the block, carried back over the window and restricted
    to the c-free monomials.  Either row is carried back over dt on the
    c-free sub-block, so ``state.c`` does not enter.

    The generator never mixes degrees, so each E_t[P^k] needs block k alone
    and is the same number whatever n is asked for.  `held`, a dict, keeps
    the c-free exponentials by (degree, dt) and the carried-back window rows
    by (degree, window): the lines of one model passed the same dict share
    them, bit for bit.
    """
    held = {} if held is None else held
    basis = build_basis(params.d, n)
    mat = build_generator(params, jump, basis).matrix
    h = eval_basis(basis, state)
    out = np.empty(n - first + 1)
    for k in range(first, n + 1):
        s, f = basis.blocks[k], basis.c_free[k]
        if window is None:
            row = np.eye(f.stop - f.start)[0]
        else:
            if ("row", k, window) not in held:
                carried = expm_apply(mat[s, s].T, window, np.eye(s.stop - s.start)[0])
                held["row", k, window] = carried[f.start - s.start:]
            row = held["row", k, window]
        if ("c-free", k, dt) not in held:
            held["c-free", k, dt] = _exponential(mat[f, f].T, dt)
        out[k - first] = _apply(held["c-free", k, dt], row) @ h[f]
    return out


@single_thread
def cumulative_dividend_moments(params, jump, state, t, T0, T1, n):
    """Raw moments M_1..M_n of the window dividends C_T1 - C_T0, given time t."""
    _check_moment_args("n", n, t, T0=T0, T1=T1)
    return _power_moments(params, jump, state, T0 - t, int(n), window=T1 - T0)


@single_thread
def stock_price_moments(params, jump, state, t, T, n_moments):
    """Raw moments M_1..M_N of X_T, given time t."""
    _check_moment_args("n_moments", n_moments, t, T=T)
    return _power_moments(params, jump, state, T - t, int(n_moments))


class PresentValue(NamedTuple):
    """Split of the stock price into dividend PV and discounted terminal value."""

    pv_dividends: float
    discounted_terminal: float


def pv_dividends(params, state, horizon):
    """Present value of dividends over [t, t+horizon] plus the discounted
    expected terminal stock price.

    Computed from the degree-one drift system discounted at r, so the
    identity ``pv + discounted_terminal == state.x`` holds to numerical
    precision for every horizon.
    """
    if horizon < 0:
        raise InvalidParameterError(f"need horizon >= 0, got {horizon}")
    require_admissible(params)
    acc, x = _forward_means(params, state, 0.0, (horizon,), rate=params.r)[0, :2]
    return PresentValue(pv_dividends=float(acc), discounted_terminal=float(x))


def pv_dividends_limit(params, state, horizon=200.0, check_horizon=150.0, tol=1e-6):
    """Infinite-horizon dividend PV, approximated at a long finite horizon.

    Raises :class:`DomainError` if the PV has not converged between the
    check horizon and the final horizon (relative to the stock price).

    The PV approaches its limit like exp(-kappa T), where kappa is the
    slowest decay rate of the discount-tilted (x, y) drift
    ``[[0, -1'], [b, beta - r I]]`` (minus its spectral abscissa). The
    default horizons (200/150 years, ``tol=1e-6``) therefore converge only
    when kappa >= ln(1e6)/150 ~ 0.092/year. The reference parameter sets
    decay at 0.032/year, so at the defaults this function raises
    :class:`DomainError` on them. Size the horizons from kappa instead:
    ``check_horizon >= ln(1/tol)/kappa`` (for example 15/kappa at
    ``tol=1e-6``) and ``horizon`` a few e-foldings beyond it (for example
    20/kappa).
    """
    far = pv_dividends(params, state, horizon)
    near = pv_dividends(params, state, check_horizon)
    if abs(far.pv_dividends - near.pv_dividends) > tol * state.x:
        raise DomainError(
            "dividend present value not converged: "
            f"|PV({horizon}) - PV({check_horizon})| = "
            f"{abs(far.pv_dividends - near.pv_dividends):.3e} > {tol:g} * x"
        )
    return far
