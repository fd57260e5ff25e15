"""Maximum-entropy density recovery from moments and option pricing with it.

Given raw moments M_0=1, M_1, ..., M_N of a distribution on [0, inf), the
entropy-maximizing density with those moments is exponential-polynomial,

    f(x) = exp(-(lam_0 + lam_1 x + ... + lam_N x^N)),

and the multipliers solve a smooth convex dual problem.  The solve runs
on a truncated, rescaled domain (raw powers of index-scale numbers are
numerically hopeless) with Gauss-Legendre quadrature and a damped Newton
iteration on the dual; the matched moments are verified on a refined
node set before a fit is accepted.

Neither the moments of an option's underlying nor their fits depend on
the strike, so repeated prices on one underlying (a strike grid, a
moment-count sweep) reuse them.  The moments come from the public moment
functions, which share the moments module's record of the model priced
last: a larger count extends a line's vector by degree, a smaller one reads
its prefix.  Cold fits go through ``_cold_fit``, an LRU cache keyed by the
exact bytes of a moment vector, which holds a failed fit too.

A fit may start from an earlier density fitted to at most as many moments
(``fit_maxent(m, start=...)``): Newton tries its standardized coefficients,
padded with zeros, before the cold starts.  From three moments on,
``_cold_fit`` starts from the cold fit of the vector's prefix of one moment
fewer, fetched through itself: the domain cut, the standardized coordinate
and the panels depend on M_1 and M_2 alone, so that start is the prefix
density exactly.  It is a pure function of the moment bytes, so a moment
sweep pays for each count once, and a price is bit-identical to the
memo-free chain of cold fits, whatever the memo holds and in whatever order
the counts are priced.  Calibration prices each trial point next to one it
just priced, and Newton from that neighbour's coefficients takes a few
steps instead of dozens; a fit from such a start depends on it, so it skips
the cache.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import roots_legendre

from ._blas import single_thread
from .errors import ConvergenceError, InfeasibleMomentsError, InvalidParameterError
from .moments import _power_moment_tangents, cumulative_dividend_moments, stock_price_moments

_TAIL_WIDTHS = 40.0      # upper domain cut: M1 + 40 standard deviations
_SUPPORT_WIDTHS = 30.0   # lower support cut for concentrated densities
_FIT_NODES = 800         # first quadrature size; doubled (up to 4x) if the check fails
_NEWTON_ITERS, _NEWTON_TOL = 200, 1e-12
_VERIFY_TOL = 1e-10      # accepted residual, also on the refined rule
_MEMO_SIZE = 24          # cold fits held: counts 2..6 of four underlyings


@dataclass(frozen=True, eq=False)
class MaxEntDensity:
    """Fitted exponential-polynomial density on [0, x_max].

    ``lambdas`` are the multipliers on the original (unscaled) x axis;
    ``scale`` is the domain cut x_max; ``panels`` the composite
    Gauss-Legendre rule the fit was made and verified on, as (a, b, count)
    on the original axis, and ``nodes`` its nodes.  For densities much
    narrower than their domain, ``support_lo`` marks a lower cut below
    which the fitted mass is zero to double precision.  ``newton_start``
    names the start Newton converged from: ``"given"`` (a ``start``
    density of the same moment count), ``"prefix"`` (one of fewer moments),
    ``"gaussian"`` or ``"exponential"``.

    The exponent polynomial is evaluated through its mean-centered,
    std-scaled representation (``gamma``, ``z_center``, ``z_scale``,
    ``log_norm``): the raw power-basis multipliers of a concentrated
    density are astronomically large with canceling terms and cannot be
    summed accurately in floating point.
    """

    lambdas: np.ndarray
    scale: float
    panels: tuple
    nodes: np.ndarray
    moments: np.ndarray
    iterations: int
    newton_start: str
    residual: float
    gamma: np.ndarray
    z_center: float
    z_scale: float
    log_norm: float
    support_lo: float

    def pdf(self, x):
        """Density values, zero outside [support_lo, x_max]."""
        x = np.asarray(x, dtype=float)
        u = x / self.scale
        out = _log_pdf((u - self.z_center) / self.z_scale, self.gamma, self.log_norm)
        inside = (x >= self.support_lo) & (u <= 1.0)
        if inside.all():        # as on the fit's own panels
            np.exp(out, out=out)
        else:
            out = np.where(inside, np.exp(np.where(inside, out, 0.0)), 0.0)
        out /= self.scale
        return out if out.ndim else float(out)

    def entropy(self):
        """Differential entropy -int f ln f = sum_n lam_n M_n."""
        return float(self.lambdas @ self.moments)


def _check_feasible(m):
    n = m.size - 1
    if abs(m[0] - 1.0) > 1e-12:
        raise InvalidParameterError(f"M_0 must equal 1, got {m[0]}")
    if n >= 1 and m[1] <= 0:
        raise InfeasibleMomentsError(f"need M_1 > 0 for a density on [0, inf), got {m[1]}")
    if n >= 2 and m[2] - m[1] ** 2 <= 0:
        raise InfeasibleMomentsError(
            f"moment sequence infeasible: M_2 - M_1^2 = {m[2] - m[1] ** 2:.6g} <= 0"
        )
    if n >= 3 and m[1] * m[3] - m[2] ** 2 <= 0:
        raise InfeasibleMomentsError(
            "moment sequence infeasible: M_1*M_3 - M_2^2 <= 0"
        )


@lru_cache(maxsize=64)
def _gauss_legendre01(n):
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _panel_nodes(panels):
    """Nodes and weights of the composite Gauss-Legendre rule on ``panels``."""
    nodes, weights = [], []
    for a, b, count in panels:
        u, w = _gauss_legendre01(count)
        nodes.append(a + (b - a) * u)
        weights.append((b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _quad_rule(center, width, n, lo=0.0):
    """Composite Gauss-Legendre panels (a, b, count) on [lo, 1] around the bulk.

    The tail padding needed for slowly decaying densities makes the domain
    much wider than a concentrated density's support; plain quadrature then
    under-resolves the bulk.  Panels split at center +/- 12 widths keep the
    node density high where the mass lives.
    """
    split_lo = center - 12.0 * width
    split_hi = center + 12.0 * width
    edges = [lo]
    if split_lo > lo + 0.05:
        edges.append(split_lo)
    if edges[-1] + 0.05 < split_hi < 0.95:
        edges.append(split_hi)
    edges.append(1.0)
    if len(edges) == 2:
        return ((lo, 1.0, n),)
    bulk = next(k for k in range(len(edges) - 1) if edges[k] <= center <= edges[k + 1])
    n_panels = len(edges) - 1
    counts = [max(96, round(0.4 * n / (n_panels - 1)))] * n_panels
    counts[bulk] = max(96, n - sum(counts[:bulk]) - sum(counts[bulk + 1:]))
    return tuple(zip(edges[:-1], edges[1:], counts))


def _start_points(mu, s0):
    """Named candidate starting coefficients in standardized coordinates.

    The two-moment Gaussian start is the unit quadratic there and is nearly
    exact for bump-shaped densities; the exponential start suits wide,
    heavy-shouldered ones.  Ordered by coefficient of variation.
    """
    n = mu.size
    exp_start = np.zeros(n)
    exp_start[0] = s0 / mu[0]
    if n == 1:
        return [("exponential", exp_start)]
    gauss = np.zeros(n)
    gauss[1] = 0.5
    if s0 < 0.35 * mu[0]:
        return [("gaussian", gauss), ("exponential", exp_start)]
    return [("exponential", exp_start), ("gaussian", gauss)]


def _powers(v, n, out=None):
    """The powers v^1..v^n as the columns of a C-ordered (v.size, n) table
    (or of ``out``), by repeated multiplication: the bits of ``np.cumprod``
    along the rows, one column at a time instead of one short row at a time."""
    out = np.empty((v.size, n)) if out is None else out
    out[:, 0] = v
    for k in range(1, n):
        np.multiply(out[:, k - 1], v, out=out[:, k])
    return out


def _log_pdf(z, gamma, log_norm):
    """-(log_norm + polyval(z, (0, *gamma))) as a fresh array (or a 0-d one):
    Horner's rule, in place, in ``polyval``'s order and so with its bits.  A
    table of powers of z costs six times as much."""
    out = np.multiply(z, 0.0, out=np.empty_like(z))
    out += gamma[-1]
    for c in (*gamma[-2::-1], 0.0):
        out *= z
        out += c
    out += log_norm
    return np.negative(out, out=out)


def _z_basis(m0, s0, n):
    """The basis change z^p = sum_k chg[p, k] u^k (p, k = 0..n) of the
    standardized coordinate z = (u - m0)/s0."""
    chg = np.zeros((n + 1, n + 1))
    for p in range(n + 1):
        for k in range(p + 1):
            chg[p, k] = math.comb(p, k) * (-m0) ** (p - k) / s0 ** p
    return chg


def _dual_newton(mu, nodes, weights, gamma0, m0, s0):
    """Damped Newton iteration on the convex dual of the moment problem.

    The exponent polynomial is parametrized in mean-centered, std-scaled
    coordinates z = (u - m0)/s0, where the dual Hessian (a covariance of
    standardized powers) stays well conditioned even for densities that are
    very concentrated relative to the domain.  Newton steps are invariant
    under this affine change, but the linear solves are not, which is the
    whole point.  Residuals are always measured on the raw moments ``mu``.

    Most of the time goes to evaluating line-search candidates, about half of
    which are rejected, and an evaluation is a few short numpy calls on the
    nodes.  So a candidate is evaluated in place, on the one fresh array its
    exponent makes: ``shift - expo`` (exactly ``-(expo - shift)``), then the
    exponential, the weights and the normalization.  Its residual is a
    ``max`` over the N Python floats of the same difference, absolute value
    and quotient, and its scalars are tested with ``math.isfinite``.  The bit
    rule: every float the iteration compares or returns is the one the array
    expressions ``weights * exp(-(expo - shift)) / total`` and
    ``max(|umom - mu| / max(|mu|, 1e-300))`` give, from the same IEEE
    operations in the same order.  A non-finite candidate normalizes to NaN
    everywhere, so its residual and merit are NaN and it is rejected.

    Returns (lam_scaled including lam_0, gamma, log_z, iterations, residual).
    """
    n = mu.size
    # power tables by repeated multiplication, as the refined-rule check builds them
    zpow = np.empty((nodes.size, 2 * n + 1))
    zpow[:, 0] = 1.0
    _powers((nodes - m0) / s0, 2 * n, out=zpow[:, 1:])
    zcols = zpow[:, 1:n + 1]
    upow = _powers(nodes, n)
    chg = _z_basis(m0, s0, n)
    target_z = chg[1:] @ np.concatenate(([1.0], mu))
    # Hessian [p, q] = cov(z^(p+1), z^(q+1)) = <z^(p+q+2)> - <z^(p+1)><z^(q+1)>: exactly symmetric
    hankel = np.add.outer(np.arange(2, n + 2), np.arange(n))
    ridge = 1e-13 * np.eye(n)
    targets = [(v, max(abs(v), 1e-300)) for v in mu.tolist()]

    def state(g):
        prob = zcols @ g                # the exponent, then the probabilities
        shift = prob.min()
        np.subtract(shift, prob, out=prob)
        np.exp(prob, out=prob)
        prob *= weights
        total = prob.sum()
        prob /= total
        umom = upow.T @ prob            # <u^1 .. u^N>
        log_z = math.log(total) - shift
        merit = log_z + g @ target_z
        resid = max([abs(u - v) / scale for u, (v, scale) in zip(umom.tolist(), targets)])
        return prob, umom, log_z, merit, resid

    gamma = np.asarray(gamma0, dtype=float)
    prob, umom, log_z, merit, residual = state(gamma)
    best = (gamma, log_z, residual)
    it = 0
    for it in range(1, _NEWTON_ITERS + 1):
        if residual < _NEWTON_TOL:
            break
        # differences first, then the basis change: keeps the gradient noise
        # proportional to the residual instead of to the moment magnitudes
        grad = chg[1:, 1:] @ (mu - umom)
        # the Hessian's moments, made only here: most line-search candidates are rejected
        zmom = zpow.T @ prob            # <z^0 .. z^2N>
        zm = zmom[1:n + 1]
        hess = zmom[hankel] - zm[:, None] * zm
        dscale = 1.0 / np.sqrt(np.maximum(hess.diagonal(), 1e-30))
        hs = hess * dscale[:, None] * dscale[None, :]
        try:
            step = dscale * np.linalg.solve(hs + ridge, -(dscale * grad))
        except np.linalg.LinAlgError:
            step = dscale * np.linalg.lstsq(hs, -(dscale * grad), rcond=None)[0]
        if not np.isfinite(step).all():
            step = -grad

        slope = grad @ step
        t = 1.0
        accepted = False
        for _ in range(30):
            cand = gamma + t * step
            prob_c, umom_c, log_z_c, merit_c, resid_c = state(cand)
            # Armijo on the dual merit drives the global phase; once the
            # merit gets too flat to compare reliably, accepting on raw
            # residual decrease keeps the tail convergence going
            ok_merit = math.isfinite(merit_c) and (
                merit_c <= merit + 1e-4 * t * slope + 1e-13 * abs(merit)
            )
            ok_resid = math.isfinite(resid_c) and resid_c < residual * (1.0 - 1e-4)
            if ok_merit or ok_resid:
                gamma, prob, umom, log_z, merit, residual = (
                    cand, prob_c, umom_c, log_z_c, merit_c, resid_c)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break           # nothing moved: a retry would repeat this search exactly
        if residual < best[2]:
            best = (gamma, log_z, residual)

    gamma, log_z, residual = best
    lam = np.empty(n + 1)
    lam[1:] = chg[1:, 1:].T @ gamma
    lam[0] = log_z + chg[1:, 0] @ gamma
    return lam, gamma, log_z, it, residual


@single_thread
def fit_maxent(moments, start=None):
    """Fit the maximum-entropy density matching raw moments M_0..M_N.

    Parameters
    ----------
    moments : sequence
        Raw moments, M_0 = 1 first.  At least (M_0, M_1).
    start : MaxEntDensity, optional
        An earlier fit to at most as many moments: of nearby moments, or of
        a prefix of these.  Newton tries its standardized coefficients
        first, padded with zeros, and the cold starts after them; the
        acceptance check is the same.

    Raises
    ------
    InvalidParameterError
        If ``start`` is not a density fitted to at most as many moments.
    InfeasibleMomentsError
        If the sequence fails the leading Hankel checks.
    ConvergenceError
        If the dual Newton iteration cannot reach the target residual.
    """
    m = np.asarray(moments, dtype=float)
    if m.ndim != 1 or m.size < 2:
        raise InvalidParameterError("need at least (M_0, M_1)")
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("non-finite moment input")
    _check_feasible(m)
    if start is not None and not (
            isinstance(start, MaxEntDensity) and start.moments.size <= m.size):
        raise InvalidParameterError(
            f"start must be a MaxEntDensity fitted to at most {m.size - 1} moments")

    n = m.size - 1
    std = math.sqrt(m[2] - m[1] ** 2) if n >= 2 else m[1]
    scale = m[1] + _TAIL_WIDTHS * std
    mu = m[1:] / scale ** np.arange(1, n + 1)
    center = float(mu[0])
    width = std / scale
    # for very concentrated densities, cut the zero-mass region below the
    # bulk: it carries no probability but makes the dual landscape stiff
    lo = center - _SUPPORT_WIDTHS * width
    lo = lo if lo > 0.05 else 0.0

    rejected = None      # (error, nodes) of the last fit the refined rule rejected
    warm = [] if start is None else [
        ("given" if start.gamma.size == n else "prefix",
         np.concatenate((start.gamma, np.zeros(n - start.gamma.size))))]
    # the exponent polynomial's standardized coordinate z = (u - m0)/s0
    var = mu[1] - mu[0] ** 2 if n >= 2 else 0.0
    m0, s0 = (mu[0], math.sqrt(var)) if var > 0 else (0.0, 1.0)
    for nodes_count in (_FIT_NODES, 2 * _FIT_NODES, 4 * _FIT_NODES):
        panels = _quad_rule(center, width, nodes_count, lo=lo)
        u, w = _panel_nodes(panels)
        converged = None
        best = np.inf
        for origin, gamma0 in warm + _start_points(mu, s0):
            fit = _dual_newton(mu, u, w, gamma0, m0, s0)
            best = min(best, fit[-1])
            if fit[-1] <= _VERIFY_TOL:
                converged = fit
                break
        if converged is None:
            # Newton failed from every start; more nodes will not help
            break
        lam_scaled, gamma, log_z, iters, residual = converged
        warm = [(origin, gamma)]
        # verify the matched moments against a refined quadrature rule,
        # evaluating through the standardized coefficients for stability
        # (Horner's rule, as MaxEntDensity.pdf does)
        u2, w2 = _panel_nodes(_quad_rule(center, width, 2 * nodes_count, lo=lo))
        phi = _log_pdf((u2 - m0) / s0, gamma, log_z)
        np.exp(phi, out=phi)
        phi *= w2
        mom2 = phi @ _powers(u2, n)
        err2 = np.max(np.abs(mom2 - mu) / np.maximum(np.abs(mu), 1e-300))
        check = max(err2, abs(phi.sum() - 1.0))
        if check < _VERIFY_TOL:
            # change of variables x = scale * u: lam_0 picks up ln(scale)
            lam = lam_scaled / scale ** np.arange(n + 1)
            lam[0] += math.log(scale)
            return MaxEntDensity(
                lambdas=lam,
                scale=float(scale),
                panels=tuple((a * scale, b * scale, count) for a, b, count in panels),
                nodes=u * scale,
                moments=m.copy(),
                iterations=iters,
                newton_start=origin,
                residual=float(residual),
                gamma=gamma.copy(),
                z_center=float(m0),
                z_scale=float(s0),
                log_norm=float(log_z),
                support_lo=float(lo * scale),
            )
        rejected = (check, u2.size)
    if converged is not None:
        raise ConvergenceError(
            "maxent fit failed the refined-rule check at every node count: moment error "
            f"{rejected[0]:.3e} (target {_VERIFY_TOL:g}) on {rejected[1]} nodes, after "
            f"Newton reached residual {residual:.3e} on {u.size}")
    raise ConvergenceError(
        f"maxent dual did not converge: best residual {best:.3e} (target {_VERIFY_TOL:g}) "
        f"with {u.size} nodes" + ("" if rejected is None else
                                  ", after the refined-rule check rejected the fit with "
                                  f"moment error {rejected[0]:.3e} on {rejected[1]} nodes"))


@single_thread
def integrate_payoff(density, payoff, points=()):
    """Integral of ``payoff(x) * density(x)`` on the fit's own panels.

    ``points`` lists the payoff's kinks (e.g. a strike).  A panel holding a
    kink is split there, and each piece keeps the panel's node count, so
    no piece is resolved more coarsely than the fit was verified on.  The
    payoff and the pdf are evaluated once, on all nodes together.
    """
    x, w = _panel_nodes(_split_panels(density.panels, points))
    return float(w @ (np.asarray(payoff(x), dtype=float) * density.pdf(x)))


def _split_panels(panels, points):
    """``panels`` with each one that holds a point of ``points`` split there;
    every piece keeps the panel's node count."""
    pieces = []
    for a, b, count in panels:
        edges = [a, *sorted({p for p in points if a < p < b}), b]
        pieces += [(lo, hi, count) for lo, hi in zip(edges[:-1], edges[1:])]
    return pieces


@dataclass(frozen=True)
class OptionSpec:
    """European option description.

    ``underlying`` is "stock" (payoff on X at expiry) or "dividend"
    (payoff on dividends paid over ``window``, which ends at or before
    ``expiry``); ``rate`` is the discount rate applied to the payoff at
    expiry.
    """

    kind: str
    underlying: str
    strike: float
    expiry: float
    rate: float
    window: tuple = None

    def __post_init__(self):
        if self.kind not in ("call", "put"):
            raise InvalidParameterError(f"unknown option kind {self.kind!r}")
        if self.underlying not in ("stock", "dividend"):
            raise InvalidParameterError(f"unknown underlying {self.underlying!r}")
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise InvalidParameterError(f"strike must be positive and finite, got {self.strike}")
        if not (self.expiry > 0 and math.isfinite(self.expiry)):
            raise InvalidParameterError(f"expiry must be positive and finite, got {self.expiry}")
        if not math.isfinite(self.rate):
            raise InvalidParameterError(f"rate must be finite, got {self.rate}")
        if self.underlying == "dividend":
            if self.window is None or len(self.window) != 2:
                raise InvalidParameterError("dividend option needs a (T0, T1) window")
            if not all(map(math.isfinite, self.window)):
                raise InvalidParameterError(f"window ends must be finite, got {self.window}")
            if self.window[1] < self.window[0]:
                raise InvalidParameterError(f"window must be ordered, got {self.window}")
            if self.expiry < self.window[1]:
                raise InvalidParameterError(
                    f"expiry {self.expiry} is before the window end {self.window[1]}")


def option_payoff(kind, strike):
    """The call or put payoff on an array of underlying values (a scalar too)."""
    if kind == "call":
        return lambda x: np.maximum(x - strike, 0.0)
    return lambda x: np.maximum(strike - x, 0.0)


@lru_cache(maxsize=_MEMO_SIZE)
def _cold_fit(key):
    """A cold fit of the moments with bytes ``key``, or the ``ConvergenceError`` it raised.

    From three moments on, Newton starts from the cold fit of the prefix of
    one moment fewer when that is a density, and from the cold starts alone
    when it failed.
    """
    m = np.frombuffer(key)
    prefix = _cold_fit(m[:-1].tobytes()) if m.size > 3 else None
    try:
        return fit_maxent(m, start=prefix if isinstance(prefix, MaxEntDensity) else None)
    except ConvergenceError as exc:
        return exc


def fit_fields(density, n_moments):
    """How a price was made: the maxent fit's moment count, Newton iterations
    and the start they converged from (``newton_start``), residual,
    quadrature nodes, and two signs of a density that needs the domain cut:
    gamma_N <= 0 (``top_coefficient``, the standardized top multiplier) and
    ln pdf(cut) - ln pdf(M_1) near 0 (``cut_log_pdf_ratio``, from the
    exponent, so it never underflows).  ``None`` for a point mass."""
    if density is None:
        return {"moments_used": n_moments, "newton_iterations": None, "newton_start": None,
                "residual": None, "nodes": None, "top_coefficient": None,
                "cut_log_pdf_ratio": None}
    z_mean, z_cut = (np.array([density.moments[1] / density.scale, 1.0])
                     - density.z_center) / density.z_scale
    exponent = np.concatenate(([0.0], density.gamma))
    return {"moments_used": density.moments.size - 1, "newton_iterations": density.iterations,
            "newton_start": density.newton_start, "residual": density.residual,
            "nodes": density.nodes.size,
            "top_coefficient": float(density.gamma[-1]),
            "cut_log_pdf_ratio": float(polyval(z_mean, exponent) - polyval(z_cut, exponent))}


def _option_line(spec, state):
    """The dates of the option's underlying from t = 0, (T,) for the stock
    and (T0, T1) with T0 >= 0 for a window, or None for a zero-length
    window, and the strike on it (see :func:`_option_inputs`)."""
    if spec.underlying == "stock":
        return (spec.expiry,), spec.strike
    t0, t1 = spec.window
    if t1 == t0:
        return None, spec.strike
    if t1 < 0:
        raise InvalidParameterError(f"window {spec.window} has ended")
    return (max(t0, 0.0), t1), spec.strike - (state.c if t0 < 0 else 0.0)


def _option_inputs(params, jump, state, spec, n_moments):
    """Moments M_1..M_N of the option's underlying, the strike on it, and the discount.

    For a dividend window that already started (T0 < 0) the state's ``c``
    must be the accrual since the window start; the payoff is then on
    ``state.c`` plus the dividends still to come, priced as an option on
    the latter with the strike lowered by ``state.c``.  A zero-length
    window pays on no dividends.

    The moments come from the public moment functions, through their record.
    """
    if not (isinstance(n_moments, numbers.Real) and float(n_moments).is_integer()
            and n_moments >= 2):
        raise InvalidParameterError(f"need at least two moments, as a whole number, "
                                    f"got {n_moments!r}")
    n_moments = int(n_moments)
    discount = math.exp(-spec.rate * spec.expiry)
    dates, strike = _option_line(spec, state)
    if dates is None:
        return np.zeros(n_moments), strike, discount
    moments = stock_price_moments if len(dates) == 1 else cumulative_dividend_moments
    return moments(params, jump, state, 0.0, *dates, n_moments), strike, discount


@single_thread
def price_option(params, jump, state, spec, n_moments, start=None):
    """Price ``spec`` by moment matching with ``n_moments`` moments.

    Returns the discounted payoff integral against the maxent fit of the
    underlying's moments and that fit, whose ``moments`` show the count
    used; degenerate underlyings (variance within rounding of zero) price
    the point mass directly and return ``None`` for it.  If the full moment
    count is numerically unfittable (densities extremely concentrated
    relative to their mean), the fit falls back to fewer moments, never
    below two.  ``start`` (a density or ``None``) seeds, outside the cache,
    every count tried that is at least its own (see :func:`fit_maxent`);
    smaller counts fit cold, each through the cold fits of its prefixes
    (see ``_cold_fit``).  A ``start`` that is not a density raises
    :class:`InvalidParameterError`.
    """
    if not (start is None or isinstance(start, MaxEntDensity)):
        raise InvalidParameterError(f"start must be a MaxEntDensity, got {type(start).__name__}")
    raw_moments, strike, discount = _option_inputs(params, jump, state, spec, n_moments)
    payoff = option_payoff(spec.kind, strike)
    m1, m2 = raw_moments[:2]
    if m1 <= 0 or m2 - m1 ** 2 <= 64 * np.finfo(float).eps * m2:
        return discount * float(payoff(max(m1, 0.0))), None
    for count in range(len(raw_moments), 1, -1):
        m = np.concatenate(([1.0], raw_moments[:count]))
        try:
            if start is not None and start.moments.size <= m.size:
                density = fit_maxent(m, start=start)
            else:
                density = _cold_fit(m.tobytes())
                if isinstance(density, ConvergenceError):
                    raise ConvergenceError(*density.args)
            break
        except ConvergenceError:
            if count == 2:
                raise
    return discount * integrate_payoff(density, payoff, points=(strike,)), density


@single_thread
def price_tangents(params, jump, state, spec, density):
    """Derivatives of the value ``price_option`` made from the fit ``density``,
    without a refit: in theta and y (the columns of
    ``moments._power_moment_tangents``), and in the strike.

    With the fit's domain held, the maxent dual gives dE[g] = cov(g, z)'
    H^-1 d<z>, where z holds the powers 1..N of the fit's standardized
    coordinate, H = cov(z, z) is the Newton Hessian and d<z> follows from dM
    by the basis change.  The expectations run on the fit's own panels,
    split at the strike as the price's integral is.
    """
    dates, strike = _option_line(spec, state)
    window = dates[1] - dates[0] if len(dates) == 2 else None
    n = density.moments.size - 1
    x, w = _panel_nodes(_split_panels(density.panels, (strike,)))
    prob = w * density.pdf(x)
    prob /= prob.sum()
    powers = _powers((x / density.scale - density.z_center) / density.z_scale, n)
    dev = powers - prob @ powers
    cov = (prob * option_payoff(spec.kind, strike)(x)) @ dev
    d_z = np.linalg.solve(dev.T @ (prob[:, None] * dev), cov)
    chg = _z_basis(density.z_center, density.z_scale, n)[1:, 1:]
    d_moments = d_z @ chg / density.scale ** np.arange(1, n + 1)
    # a call loses, a put gains, the probability of ending in the money
    d_strike = -prob[x > strike].sum() if spec.kind == "call" else prob[x < strike].sum()
    discount = math.exp(-spec.rate * spec.expiry)
    return (discount * d_moments @ _power_moment_tangents(params, jump, state, dates[0], n, window),
            discount * d_strike)


def price_stock_option(params, jump, state, spec, n_moments):
    """Price a stock option by moment matching with ``n_moments`` moments."""
    if spec.underlying != "stock":
        raise InvalidParameterError("spec.underlying must be 'stock'")
    return price_option(params, jump, state, spec, n_moments)[0]


def price_dividend_option(params, jump, state, spec, n_moments):
    """Price an option on dividends paid over spec.window."""
    if spec.underlying != "dividend":
        raise InvalidParameterError("spec.underlying must be 'dividend'")
    return price_option(params, jump, state, spec, n_moments)[0]
