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

Both power-moment functions read through one record of the model read
last, which extends a line's moments by degree and shares their
exponentials (:func:`_power_moments`), and return fresh arrays.
"""

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from ._blas import single_thread
from .errors import DomainError, InvalidParameterError, NumericError
from .generator import block_directions, build_basis, build_block, build_generator, eval_basis
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
    """Reject a moment count that is not an integer >= 1 (or is a bool), a
    non-finite time, and `dates` that do not follow t and each other in
    keyword order."""
    if (not isinstance(count, numbers.Real) or isinstance(count, bool)
            or not float(count).is_integer() or count < 1):
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
    mat = build_generator(params, jump, basis)
    h = eval_basis(basis, state)
    values = np.concatenate([h[s] @ expm_apply(mat[s, s].T, T - t, np.eye(s.stop - s.start))
                             for s in basis.blocks])
    return MomentSet(basis=basis, t=t, T=T, values=values)


def _drift(params, rate):
    """The drift matrix A = ``[[0, 0, 1'], [0, r - rate, -1'], [0, b, beta -
    rate I]]`` of the mean of (C, X, Y) discounted at `rate`, where C
    accrues the discounted dividends."""
    d = params.d
    mat = np.zeros((2 + d, 2 + d))
    mat[0, 2:] = 1.0
    mat[1, 1] = params.r - rate
    mat[1, 2:] = -1.0
    mat[2:, 1] = params.b
    mat[2:, 2:] = params.beta - rate * np.eye(d)
    return mat


def _forward_means(params, state, t, dates, rate=0.0, tangents=False):
    """E_t[(C_s - C_t, X_s, Y_s)] discounted at `rate`, for each date s >= t, in
    request order: the mean is carried forward from (0, x, y) over the sorted
    dates by the drift matrix A of :func:`_drift`, exponentiated in one
    stacked call, once per distinct step.

    With ``tangents`` each date gets a (1 + 2d + d^2, 2 + d) array: the mean,
    then its derivatives in b_k, beta_kl (row-major) and y_k.  The step is
    then the Van Loan matrix of A with each E_i = dA/dtheta_i below it in
    the first block column: its exponential maps (m, t_1, ..) to (e^A m,
    L(A, E_1) m + e^A t_1, ..), with L the Frechet derivative of the
    exponential.  The mean is linear in y, so the y tangents start at the
    unit vectors and have no E."""
    d = params.d
    mat = _drift(params, rate)
    start = np.concatenate(([0.0, state.x], state.y))
    if tangents:
        m, q = 2 + d, d + d * d
        mat = np.kron(np.eye(1 + q + d), mat)
        rows = m * np.arange(1, q + 1) + 2 + np.append(np.arange(d), np.repeat(np.arange(d), d))
        mat[rows, np.append(np.ones(d, int), 2 + np.tile(np.arange(d), d))] = 1.0
        start = np.concatenate((start, np.zeros(q * m), np.eye(m)[2:].ravel()))
    # sets and dicts over the few dates: np.unique would page ~0.4 MB of sort code in
    times = sorted({t, *map(float, dates)})
    steps = sorted({b - a for a, b in zip(times, times[1:])})
    props = dict(zip(steps, expm(np.multiply.outer(steps, mat)))) if steps else {}
    means = {t: start}
    for a, b in zip(times, times[1:]):
        means[b] = props[b - a] @ means[a]
    out = np.array([means[s] for s in dates]).reshape(len(dates), -1, 2 + d)
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix exponential produced non-finite values")
    return out if tangents else out[:, 0]


def futures_strip(params, state, t, windows, expiries=(), tangents=False):
    """Dividend futures E_t[C_T1 - C_T0] for each (T0, T1) of `windows` and
    stock futures E_t[X_T] for each T of `expiries`, as two arrays in request
    order, from one forward propagation of the degree-one mean.

    All dates are checked before any work, the parameters once.  A window
    that has started (T0 < t) needs ``state.c`` to be the dividends accrued
    since T0, and is priced as ``state.c`` plus E_t[C_T1 - C_t].  Only the
    drift enters: compensated jumps leave every mean unchanged.  With
    ``tangents`` each price is a row: the price, then its derivatives in
    b_k, beta_kl (row-major) and y_k (see :func:`_forward_means`).
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
    means = _forward_means(params, state, t, np.concatenate((np.maximum(w[:, 0], t), w[:, 1], e)),
                           tangents=tangents)
    strip = means[n:2 * n, ..., 0] - means[:n, ..., 0]
    accrued = np.where(w[:, 0] < t, state.c, 0.0)
    if not tangents:
        return strip + accrued, means[2 * n:, 1]
    strip[:, 0] += accrued
    return strip, means[2 * n:, :, 1]


def stock_futures(params, jump, state, t, T):
    """Futures price on the stock, E_t[X_T]: a one-date :func:`futures_strip`.
    `jump` does not enter."""
    return float(futures_strip(params, state, t, (), (T,))[1][0])


def dividend_futures(params, jump, state, t, T0, T1):
    """Futures price on dividends paid over [T0, T1], E_t[C_T1 - C_T0]: a
    one-window :func:`futures_strip`.  `jump` does not enter."""
    return float(futures_strip(params, state, t, ((T0, T1),))[0][0])


@dataclass(eq=False)
class _Record:
    """The model, jump and state by value (``key``: arrays can change in place),
    each line's moments by (dt, window), the exponentials its lines share
    and the line read ``last`` (see :func:`_power_moments`)."""

    key: tuple
    moments: dict = field(default_factory=dict)
    held: dict = field(default_factory=dict)
    last: tuple = None


_record = _Record(None)          # of the model read last; swapped, never cleared
_RECORD_LOCK = threading.Lock()  # guards swapping and extending ``_record``


def _power_moments(params, jump, state, dt, n, window=None):
    """E_t[P^k], k = 1..n, as a fresh array, for P = X_T at T = t + dt, or
    with a `window` length for P = C_T1 - C_T0 over [T0, T1] = [T, T + window].

    X_T^k is the x^k row, which leads the c-free sub-block of degree k.  As
    C_T1 - C_T0 accrues like C restarted from 0 at T0, E_T0[P^k] is the c^k
    row, which leads the block, carried back over the window and restricted
    to the c-free monomials.  Either row is carried back over dt on the
    c-free sub-block and dotted with the state's c-free monomials, so
    ``state.c`` does not enter.

    The generator never mixes degrees, so each E_t[P^k] needs block k alone
    (:func:`build_block`) and is the same number whatever n is asked for.  So
    ``_record`` extends a line (dt, window)'s vector by degree and reads a
    smaller n's prefix; its lines share the c-free exponentials by (degree,
    dt) and the carried-back window rows by (degree, window), bit for bit, and
    a degree's block is built only to make one of them.  A new model, jump or state (its c aside),
    or a return to a line it has left, starts a new record, so a repeated pass
    over a model's lines makes the calls of the first.
    """
    global _record
    key = (params.r, params.a, params.sigma, params.d, params.b.tobytes(),
           params.beta.tobytes(), params.nu.tobytes(), jump, state.x, state.y.tobytes())
    line = (dt, window)
    with _RECORD_LOCK:
        record = _record
        if record.key != key or (line != record.last and line in record.moments):
            record = _record = _Record(key)
        record.last = line
        raw, held = record.moments.get(line, np.empty(0)), record.held
        if raw.size < n:
            require_admissible(params)
            basis = build_basis(params.d, n)
            more = np.empty(n - raw.size)
            for k in range(raw.size + 1, n + 1):
                s, f = basis.blocks[k], basis.c_free[k]
                row_key, free_key = ("row", k, window), ("c-free", k, dt)
                new_row = window is not None and row_key not in held
                if new_row or free_key not in held:
                    block = build_block(params, jump, basis, k)
                    free = f.start - s.start        # where the c-free monomials start
                    if new_row:
                        carried = expm_apply(block.T, window, np.eye(s.stop - s.start)[0])
                        held[row_key] = carried[free:]
                    if free_key not in held:
                        held[free_key] = _exponential(block[free:, free:].T, dt)
                row = np.eye(f.stop - f.start)[0] if window is None else held[row_key]
                h = basis.eval(state.c, state.x, state.y, f)
                more[k - raw.size - 1] = _apply(held[free_key], row) @ h
            raw = record.moments[line] = np.concatenate((raw, more))
    return raw[:n].copy()


def _van_loan(a, tau, v, h):
    """``expm(a tau) @ v`` and X = int_0^tau e^(a s) v h' e^(a (tau - s)) ds,
    both from one exponential of ``[[a, v h'], [0, a]] tau`` (Van Loan, IEEE
    TAC 1978).  For a perturbation E of a, h' L(a tau, E tau) v = sum(E' * X),
    with L the Frechet derivative of the exponential: one exponential serves
    every direction."""
    m = v.size
    if tau == 0:
        return v.copy(), np.zeros((m, m))
    big = np.zeros((2 * m, 2 * m))
    big[:m, :m] = big[m:, m:] = a
    big[:m, m:] = np.outer(v, h)
    e = _exponential(big, tau)
    return e[:m, :m] @ v, e[:m, m:]


def _power_moment_tangents(params, jump, state, dt, n, window=None):
    """Derivatives of :func:`_power_moments`' E_t[P^k], k = 1..n, as an
    (n, p + d) array: in theta = b_k, beta_kl, sigma, nu_k (the order of
    :func:`block_directions`), then in the factor levels y_k.

    Each moment is a row v carried back over tau by B' (B a degree block or
    its c-free sub-block) and dotted with h, so its derivative along dB is
    sum(dB * X) with X from :func:`_van_loan`.  A window row is carried back
    twice: over the window on the full block, then over dt on the c-free
    sub-block.  y enters through h alone.
    """
    require_admissible(params)
    basis = build_basis(params.d, n)
    h = eval_basis(basis, state)
    point = np.concatenate(([state.c, state.x], state.y))
    dh = []
    for k in range(params.d):           # d/dy_k of each monomial
        lowered = basis.exponents.copy()
        lowered[:, 2 + k] = np.maximum(lowered[:, 2 + k] - 1, 0)
        dh.append(basis.exponents[:, 2 + k] * np.prod(point ** lowered, axis=1))
    dh = np.array(dh)
    out = []
    for k, (block, dirs) in enumerate(block_directions(params, jump, basis), 1):
        f, free = basis.c_free[k], basis.c_free[k].start - basis.blocks[k].start
        row, grad = np.eye(len(block) - free)[0], np.zeros(len(dirs))
        if window is not None:
            carried = _exponential(block[free:, free:].T, dt)
            h_window = np.zeros(len(block))
            h_window[free:] = h[f] if carried is None else carried.T @ h[f]
            row, x = _van_loan(block.T, window, np.eye(len(block))[0], h_window)
            row = row[free:]
            grad += (dirs * x).sum(axis=(1, 2))
        row, x = _van_loan(block[free:, free:].T, dt, row, h[f])
        grad += (dirs[:, free:, free:] * x).sum(axis=(1, 2))
        out.append(np.concatenate((grad, dh[:, f] @ row)))
    return np.array(out)


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
    if not 0 <= horizon < math.inf:
        raise InvalidParameterError(f"need a finite horizon >= 0, got {horizon}")
    require_admissible(params)
    acc, x = _forward_means(params, state, 0.0, (horizon,), rate=params.r)[0, :2]
    return PresentValue(pv_dividends=float(acc), discounted_terminal=float(x))


def pv_dividends_limit(params, state):
    """Dividend PV over [t, infinity), the limit of :func:`pv_dividends`:
    -[0, 1'] K^-1 (x, y), with K = ``[[0, -1'], [b, beta - r I]]`` the
    discount-tilted (x, y) drift, and a discounted terminal value of 0.

    A spectral abscissa of K >= 0 (b = 0 gives the eigenvalue 0) raises
    :class:`DomainError`: the discounted stock does not vanish, a bubble.
    """
    require_admissible(params)
    tilted = _drift(params, params.r)[1:, 1:]
    abscissa = float(np.max(np.linalg.eigvals(tilted).real))
    if abscissa >= 0:
        raise DomainError(f"tilted drift spectral abscissa {abscissa:.6g} >= 0: a bubble")
    w = np.linalg.solve(tilted, np.concatenate(([state.x], state.y)))
    return PresentValue(pv_dividends=float(-w[1:].sum()), discounted_terminal=0.0)
