"""Conditional moments, futures prices, and present-value diagnostics.

Everything here rests on one identity: conditional expectations of basis
monomials propagate through the matrix exponential of the generator,

    E_t[H(C_T, X_T, Y_T)] = expm(G * (T - t)) @ H(C_t, X_t, Y_t).

The generator preserves total degree, so the exponential is taken one
degree block at a time; moments of dividends paid over a window [T0, T1]
restart the accrual at T0 (the Markov property).  Futures prices and the
dividend present value need only degree one, where the diffusions and the
compensated jumps drop out: they solve the (2 + d) linear drift ODE.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, InvalidParameterError, NumericError
from .generator import GeneratorMatrix, build_basis, build_generator, eval_basis
from .model import State, require_admissible


def expm_apply(gen, dt, v):
    """Apply the matrix exponential: ``expm(G * dt) @ v``.

    A :class:`GeneratorMatrix` is exponentiated one degree block of its
    basis at a time (all-zero blocks, such as the constant monomial's, pass
    through unchanged); a plain matrix is one block.  ``dt = 0`` returns a
    copy of ``v`` exactly.  Uses scaling-and-squaring with the 13th-order
    rational approximant underneath.
    """
    if isinstance(gen, GeneratorMatrix):
        mat, blocks = gen.matrix, gen.basis.blocks
    else:
        mat = np.asarray(gen, dtype=float)
        blocks = (slice(None),)
    v = np.asarray(v, dtype=float)
    if dt < 0:
        raise InvalidParameterError(f"need dt >= 0, got {dt}")
    if not np.all(np.isfinite(mat)) or not np.all(np.isfinite(v)):
        raise NumericError("non-finite entries in matrix-exponential input")
    out = v.copy()
    if dt == 0:
        return out
    for s in blocks:
        block = mat[s, s]
        if block.any():
            out[s] = expm(block * dt) @ v[s]
    if not np.all(np.isfinite(out)):
        raise NumericError("matrix exponential produced non-finite values")
    return out


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


def conditional_moments(params, jump, state, t, T, n):
    """All mixed moments of (C_T, X_T, Y_T) up to total degree n, given time t."""
    if T < t:
        raise InvalidParameterError(f"need T >= t, got T={T} < t={t}")
    basis = build_basis(params.d, n, include_c=True)
    gen = build_generator(params, jump, basis)
    values = expm_apply(gen, T - t, eval_basis(basis, state))
    return MomentSet(basis=basis, t=t, T=T, values=values)


def _degree_one_moments(params, state, dt, rate=0.0):
    """E_t[(C_T - C_t, X_T, Y_T)] discounted at `rate`, T = t + dt, for
    admissible parameters: an accumulator row (d acc = 1'y) on top of the
    (x, y) drift ``[[r - rate, -1'], [b, beta - rate I]]``."""
    d = params.d
    mat = np.zeros((2 + d, 2 + d))
    mat[0, 2:] = 1.0
    mat[1, 1] = params.r - rate
    mat[1, 2:] = -1.0
    mat[2:, 1] = params.b
    mat[2:, 2:] = params.beta - rate * np.eye(d)
    return expm_apply(mat, dt, np.concatenate(([0.0, state.x], state.y)))


def stock_futures(params, jump, state, t, T):
    """Futures price on the stock: E_t[X_T].

    `jump` does not enter: compensated jumps leave every mean unchanged.
    """
    if T < t:
        raise InvalidParameterError(f"need T >= t, got T={T} < t={t}")
    require_admissible(params)
    return float(_degree_one_moments(params, state, T - t)[1])


def dividend_futures(params, jump, state, t, T0, T1):
    """Futures price on dividends paid over [T0, T1]: E_t[C_T1 - C_T0].

    The expected (x, y) at max(T0, t) is propagated over the window from a
    zero accrual.  For a window that has already started (T0 < t) the
    state's ``c`` must measure dividends accrued since the window start;
    the price is then ``state.c`` plus the dividends still to come,
    E_t[C_T1 - C_t].  `jump` does not enter, as in :func:`stock_futures`.
    """
    if T1 < T0:
        raise InvalidParameterError(f"need T1 >= T0, got T1={T1} < T0={T0}")
    if T1 < t:
        raise InvalidParameterError(f"window end T1={T1} lies before t={t}")
    require_admissible(params)
    start = max(T0, t)
    at_start = _degree_one_moments(params, state, start - t)
    to_come = _degree_one_moments(params, State(0.0, at_start[1], at_start[2:]), T1 - start)[0]
    return float(to_come + (state.c if T0 < t else 0.0))


def cumulative_dividend_moments(params, jump, state, t, T0, T1, n):
    """Raw moments M_1..M_n of the window dividends C_T1 - C_T0, given time t.

    Given the state at T0, C_T1 - C_T0 accrues like C restarted from 0 (the
    Markov property).  So E_T0[(C_T1 - C_T0)^k] is the c^k row of
    ``expm(G_k (T1 - T0))`` on the degree-k block, restricted to the c-free
    monomials: a polynomial in the time-T0 state.  The generator keeps the
    c-free sub-block G_f of each degree block closed, so M_k is that row
    times ``expm(G_f (T0 - t))`` times the c-free monomials of the current
    state.  Both exponentials act on the row (as exponentials of the
    transposed blocks), carrying the polynomial's coefficients back to t.
    Propagating the state monomials forward to T0 instead gives the small
    c-free moments of high degree absolute errors of the size of the large
    ones, which loses M_5 and M_6 of late windows.  The result does not
    depend on ``state.c``, and T0 = t needs no special case.
    """
    if n < 1 or int(n) != n:
        raise InvalidParameterError(f"need moment count n >= 1, got {n}")
    if T0 < t:
        raise InvalidParameterError(f"need t <= T0, got T0={T0} < t={t}")
    if T1 < T0:
        raise InvalidParameterError(f"need T0 <= T1, got T1={T1} < T0={T0}")
    n = int(n)
    basis = build_basis(params.d, n, include_c=True)
    mat = build_generator(params, jump, basis).matrix
    h = eval_basis(basis, state)
    out = np.empty(n)
    for k in range(1, n + 1):
        s, f = basis.blocks[k], basis.c_free[k]
        unit = np.zeros(s.stop - s.start)
        unit[0] = 1.0                       # c^k leads its block
        row = expm_apply(mat[s, s].T, T1 - T0, unit)[f.start - s.start:]
        out[k - 1] = expm_apply(mat[f, f].T, T0 - t, row) @ h[f]
    return out


def stock_price_moments(params, jump, state, t, T, n_moments):
    """Raw moments M_1..M_N of X_T, computed on the (x, y)-only basis."""
    if n_moments < 1:
        raise InvalidParameterError(f"need at least one moment, got {n_moments}")
    basis = build_basis(params.d, int(n_moments), include_c=False)
    gen = build_generator(params, jump, basis)
    values = expm_apply(gen, T - t, eval_basis(basis, state))
    zeros = (0,) * params.d
    return np.array([values[basis.position(0, k, zeros)] for k in range(1, int(n_moments) + 1)])


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
    out = _degree_one_moments(params, state, horizon, rate=params.r)
    return PresentValue(pv_dividends=float(out[0]), discounted_terminal=float(out[1]))


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
