"""Model parameters, jump specification, state space, and admissibility checks.

The model couples a stock price X with a vector of dividend factors Y.
The dividend rate is D = 1'Y, the dividend yield D/X is bounded by the
cap parameter ``a``, and the joint process lives on

    E = {(x, y) : x > 0, y >= 0, 1'y <= a*x}.

Admissibility means the drift points inward at the boundary of E, which
is a set of linear inequalities on (r, a, b, beta).  Strict versions of
the inequalities (involving the volatility loadings nu) guarantee the
factor and cap boundaries are never touched.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InadmissibleParamsError, InvalidParameterError


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Diffusion coefficients of the joint (stock, factors) dynamics.

    Attributes
    ----------
    r : float
        Short rate (1/year).
    a : float
        Dividend-yield cap (> 0).
    sigma : float
        Stock volatility scale (>= 0).
    d : int
        Number of dividend factors (>= 1).
    b : ndarray, shape (d,)
        Drift loading of the factors on the stock price (1/year).
    beta : ndarray, shape (d, d)
        Factor mean-reversion matrix (1/year).
    nu : ndarray, shape (d,)
        Factor volatility loadings (>= 0).
    """

    r: float
    a: float
    sigma: float
    d: int
    b: np.ndarray
    beta: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        object.__setattr__(self, "beta", np.atleast_2d(np.asarray(self.beta, dtype=float)))
        object.__setattr__(self, "nu", np.atleast_1d(np.asarray(self.nu, dtype=float)))
        _check_structure(self)
        object.__setattr__(self, "d", int(self.d))

    @classmethod
    def single_factor(cls, r, a, sigma, b, beta, nu):
        """Build a d=1 parameter set from scalars."""
        return cls(r=r, a=a, sigma=sigma, d=1, b=[b], beta=[[beta]], nu=[nu])


def _check_structure(params):
    if params.d < 1 or int(params.d) != params.d:
        raise InvalidParameterError(f"factor count d must be a positive integer, got {params.d}")
    if not params.a > 0:
        raise InvalidParameterError(f"yield cap a must be positive, got {params.a}")
    if params.sigma < 0:
        raise InvalidParameterError(f"stock volatility sigma must be non-negative, got {params.sigma}")
    d = params.d
    if params.b.shape != (d,):
        raise InvalidParameterError(f"b must have shape ({d},), got {params.b.shape}")
    if params.beta.shape != (d, d):
        raise InvalidParameterError(f"beta must have shape ({d}, {d}), got {params.beta.shape}")
    if params.nu.shape != (d,):
        raise InvalidParameterError(f"nu must have shape ({d},), got {params.nu.shape}")
    if np.any(params.nu < 0):
        raise InvalidParameterError("volatility loadings nu must be non-negative")
    if not np.isfinite(np.concatenate(
            ([params.r, params.a, params.sigma], params.b, params.beta.ravel(), params.nu))).all():
        raise InvalidParameterError("non-finite parameter value")


@dataclass(frozen=True)
class PointMass:
    """Degenerate jump-size distribution concentrated at z0 > -1."""

    z0: float

    def __post_init__(self):
        if not -1.0 < self.z0 < np.inf:
            raise InvalidParameterError(f"jump support must lie in (-1, inf), got {self.z0}")

    def points(self):
        return ((self.z0, 1.0),)


@dataclass(frozen=True)
class TwoPoint:
    """Two-point jump-size distribution: z1 with probability p, else z2."""

    z1: float
    p: float
    z2: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise InvalidParameterError(f"probability p must be in [0, 1], got {self.p}")
        if not (-1.0 < self.z1 < np.inf and -1.0 < self.z2 < np.inf):
            raise InvalidParameterError("jump support must lie in (-1, inf)")

    def points(self):
        return ((self.z1, self.p), (self.z2, 1.0 - self.p))


@dataclass(frozen=True)
class JumpSpec:
    """Compound-Poisson jump component of the stock price.

    ``lam`` is the arrival intensity per year; ``dist`` the jump-size
    distribution.  ``lam == 0`` or ``dist is None`` means pure diffusion.
    """

    lam: float = 0.0
    dist: PointMass | TwoPoint | None = None

    def __post_init__(self):
        if not 0 <= self.lam < np.inf:
            raise InvalidParameterError(f"jump intensity must be finite and non-negative, got {self.lam}")

    @property
    def active(self):
        return self.lam > 0 and self.dist is not None


def jump_moment(jump, m):
    """Raw moment E[z^m] over the points of the jump-size law (m >= 0, m_0 = 1)."""
    if not (m >= 0 and float(m).is_integer()):
        raise InvalidParameterError(f"moment order must be a non-negative integer, got {m}")
    if jump is None or jump.dist is None:
        raise InvalidParameterError("no jump distribution specified")
    if m == 0:
        return 1.0
    return float(sum(w * z ** int(m) for z, w in jump.dist.points()))


@dataclass(frozen=True, eq=False)
class State:
    """A point (c, x, y): cumulative dividends, stock price, factor vector."""

    c: float
    x: float
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        if not (math.isfinite(self.c) and math.isfinite(self.x) and np.isfinite(self.y).all()):
            raise InvalidParameterError(f"non-finite state c={self.c}, x={self.x}, y={self.y}")


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """Slack values of the inward-drift inequalities plus non-attainment flags.

    ``factor_slack[k]`` is the left-hand side of the inward-drift condition
    at the boundary y_k = 0; ``cap_slack`` the one at the yield cap
    1'y = a*x.  Admissible iff all slacks are >= 0.  ``factor_interior``
    and ``cap_interior`` are the strict boundary non-attainment flags.
    """

    admissible: bool
    factor_slack: np.ndarray
    cap_slack: float
    factor_interior: np.ndarray
    cap_interior: bool


@dataclass(frozen=True)
class StateSpaceReport:
    """Membership of a state in E with signed distances for projection logic."""

    inside: bool
    x: float
    min_y: float
    cap_slack: float


def _min_offdiag(values, k, d):
    # empty minimum (d == 1) is defined as 0
    if d == 1:
        return 0.0
    return min(values[l] for l in range(d) if l != k)


def validate_admissibility(params):
    """Evaluate the inward-drift inequalities and boundary non-attainment flags.

    Returns an :class:`AdmissibilityReport` carrying the slack of each
    inequality (not just flags), so a report shows how far each one holds.
    Raises :class:`InvalidParameterError` on structural violations.
    """
    _check_structure(params)
    d, a, r = params.d, params.a, params.r
    b, beta, nu = params.b, params.beta, params.nu

    neg = np.minimum(beta, 0.0)
    factor_slack = np.array(
        [b[k] + a * _min_offdiag(neg[k], k, d) for k in range(d)]
    )

    col_sums = beta.sum(axis=0)
    cap_slack = r - a - col_sums.max() - b.sum() / a

    half_nu2 = 0.5 * nu ** 2
    factor_interior = np.array(
        [
            b[k]
            + _min_offdiag(np.minimum(a * beta[k] + half_nu2[k], 0.0), k, d)
            > half_nu2[k]
            for k in range(d)
        ]
    )
    cap_interior = bool(r - a - (half_nu2 / a + col_sums).max() - b.sum() / a > 0)

    admissible = bool(np.all(factor_slack >= 0) and cap_slack >= 0)
    return AdmissibilityReport(
        admissible=admissible,
        factor_slack=factor_slack,
        cap_slack=float(cap_slack),
        factor_interior=factor_interior,
        cap_interior=cap_interior,
    )


def require_admissible(params):
    """Raise :class:`InadmissibleParamsError`, naming each violated
    inward-drift inequality, unless the parameters are admissible."""
    report = validate_admissibility(params)
    if report.admissible:
        return
    problems = [
        f"factor drift condition violated for component {k + 1}: "
        f"b + a*min(offdiag beta)^- = {s:.6g} < 0"
        for k, s in enumerate(report.factor_slack) if s < 0
    ]
    if not report.cap_slack >= 0:
        problems.append(
            "yield-cap drift condition violated: "
            f"r - a - max colsum(beta) - sum(b)/a = {report.cap_slack:.6g} < 0"
        )
    raise InadmissibleParamsError("; ".join(problems))


def in_state_space(params, state):
    """Check membership of a state in E = {x > 0, y >= 0, 1'y <= a*x}."""
    x = float(state.x)
    min_y = float(state.y.min())
    cap = float(params.a * x - state.y.sum())
    inside = bool(x > 0 and min_y >= 0 and cap >= 0)
    return StateSpaceReport(inside=inside, x=x, min_y=min_y, cap_slack=cap)


def dividend_rate(state):
    """Instantaneous dividend rate D = 1'y."""
    return float(state.y.sum())


def dividend_yield(state):
    """Dividend yield D/x; lies in [0, a] for states in E."""
    if state.x <= 0:
        raise DomainError(f"dividend yield requires x > 0, got x={state.x}")
    return float(state.y.sum() / state.x)
