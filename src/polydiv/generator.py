"""Graded monomial basis and the generator matrix of the (jump-)diffusion.

The augmented process (C, X, Y) is polynomial: its generator maps
polynomials of total degree <= n into themselves.  On a fixed monomial
basis H the action is therefore a matrix G with G @ H(state) equal to
the generator applied to H componentwise.  A polynomial with coefficient
row u has the conditional expectation

    E_t[u' H(C_T, X_T, Y_T)] = (expm(G' (T - t)) u)' H(C_t, X_t, Y_t):

its coefficients are carried back over the horizon and evaluated at the
current state.

Monomials c^i x^j y^alpha are ordered graded-lexicographically with
c < x < y_1 < ... < y_d, the constant monomial first.  The generator
preserves total degree (each image term has the same total degree as its
source), so G is block-diagonal over the degree blocks of the basis and
each block can be exponentiated on its own.  Nor does it raise the power
of c: c-free monomials map to c-free monomials, so the c-free part of a
block is a closed sub-block.

On a fixed basis the sparsity pattern of G is constant.  Each entry is a
pure number times one parameter factor: 1, r, b_k, beta_kl, sigma^2/a^q,
nu_k^2/a^q or lam E[Z^m]/a^q.  The pattern is therefore computed once per
basis, as a template of (flat index, term id, multiplier) triples, and
:func:`build_generator` only evaluates the short vector of term factors
and sums the weighted entries with one ``np.bincount``.  A caller that
needs one degree block builds it alone (:func:`build_block`) from the
template's entries in that block.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError
from .model import jump_moment, require_admissible


class MultiIndex(NamedTuple):
    """Exponents (i, j, alpha) of the monomial c^i x^j y^alpha."""

    i: int
    j: int
    alpha: tuple

    @property
    def degree(self):
        return self.i + self.j + sum(self.alpha)


def _compositions(total, parts):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class PolyBasis:
    """Ordered monomial basis of degree <= n in (c, x, y_1..y_d).

    ``blocks[k]`` is the slice of ``members`` holding the monomials of total
    degree k, and ``c_free[k]`` its tail of c-free monomials.  Row p of
    ``exponents`` holds the exponents (i, j, alpha) of ``members[p]``.
    """

    d: int
    n: int
    members: tuple
    _pos: dict = field(repr=False)
    exponents: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)
    c_free: tuple = field(repr=False)

    @property
    def size(self):
        return len(self.members)

    def position(self, i, j, alpha):
        """Index of the monomial c^i x^j y^alpha; KeyError if absent."""
        return self._pos[MultiIndex(i, j, tuple(alpha))]

    def eval(self, c, x, y, rows=slice(None)):
        """Componentwise monomial evaluation, in basis order; ``rows`` (a
        slice) evaluates only those monomials."""
        point = np.concatenate(([c, x], np.atleast_1d(np.asarray(y, dtype=float))))
        return np.prod(point ** self.exponents[rows], axis=1)


@lru_cache(maxsize=None)
def build_basis(d, n):
    """Graded-lex monomial basis of degree <= n in the 2+d variables (c, x, y)."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    if n < 1:
        raise InvalidParameterError(f"need basis degree n >= 1, got {n}")
    members = [MultiIndex(e[0], e[1], e[2:]) for k in range(n + 1) for e in _compositions(k, 2 + d)]
    members.sort(key=lambda m: (m.degree, tuple(-e for e in (m.i, m.j) + m.alpha)))
    members = tuple(members)
    pos = {m: k for k, m in enumerate(members)}
    # members are sorted by degree, so each degree occupies one slice
    degrees = [m.degree for m in members]
    starts = [degrees.index(k) for k in range(n + 1)] + [len(members)]
    blocks = tuple(slice(lo, hi) for lo, hi in zip(starts, starts[1:]))
    # within a block the power of c decreases, so the c-free monomials
    # (x^j y^alpha with j + |alpha| = k, of which there are C(k + d, d)) come last
    c_free = tuple(slice(s.stop - math.comb(k + d, d), s.stop) for k, s in enumerate(blocks))
    exponents = np.array([(i, j) + alpha for i, j, alpha in members])
    exponents.flags.writeable = False
    return PolyBasis(d=d, n=n, members=members, _pos=pos, exponents=exponents,
                     blocks=blocks, c_free=c_free)


def _base_power_terms(d, m):
    """Expansion of (x - 1'y/a)^m as [(x-exponent, y-exponents, q, coeff)].

    Each term is ``coeff * x^(m-q) * y^gamma / a^q`` with q = |gamma|; the
    integer ``coeff`` carries the sign, so the cap ``a`` enters only
    through the term factor 1/a^q.
    """
    out = []
    for q in range(m + 1):
        cq = math.comb(m, q) * (-1) ** q
        for gamma in _compositions(q, d):
            mult = math.factorial(q)
            for g in gamma:
                mult //= math.factorial(g)
            out.append((m - q, gamma, q, cq * mult))
    return out


def _add_tuple(alpha, k, delta):
    lst = list(alpha)
    lst[k] += delta
    return tuple(lst)


def _term_factors(params, jump, n):
    """Parameter factor of every template term: 1, r, b_k, beta_kl
    (row-major), sigma^2/a^q (q = 0..2), nu_k^2/a^q (k-major, q = 0..1),
    then lam E[Z^m]/a^q at m * (n + 1) + q (m, q = 0..n; zero for m < 2 and
    without jumps)."""
    inv_a = params.a ** -np.arange(max(n, 2) + 1.0)
    lam_moments = np.zeros(n + 1)
    if jump is not None and jump.active:
        lam_moments[2:] = [jump.lam * jump_moment(jump, m) for m in range(2, n + 1)]
    return np.concatenate((
        [1.0, params.r], params.b, params.beta.ravel(),
        params.sigma ** 2 * inv_a[:3], np.outer(params.nu ** 2, inv_a[:2]).ravel(),
        np.outer(lam_moments, inv_a[:n + 1]).ravel(),
    ))


def _term_starts(d):
    """Where the b, beta, sigma, nu and jump groups of `_term_factors` start."""
    t_b = 2
    t_beta = t_b + d
    t_sigma = t_beta + d * d
    t_nu = t_sigma + 3
    return t_b, t_beta, t_sigma, t_nu, t_nu + 2 * d


class _Template(NamedTuple):
    """Generator entries on one basis: flat index ``row * size + col``, term
    id (an index into the `_term_factors` vector) and pure-number multiplier."""

    flat: np.ndarray
    term: np.ndarray
    mult: np.ndarray


@lru_cache(maxsize=None)
def _generator_template(d, n):
    """The generator's sparsity pattern on ``build_basis(d, n)``.

    Independent of the model inputs; raises AssertionError if an image
    monomial escapes the basis (polynomial closure).
    """
    basis = build_basis(d, n)
    one, rate = 0, 1
    t_b, t_beta, t_sigma, t_nu, t_jump = _term_starts(d)
    entries = []
    for row, mi in enumerate(basis.members):
        i, j, alpha = mi

        def add(ii, jj, aa, term, mult):
            try:
                col = basis.position(ii, jj, aa)
            except KeyError:  # pragma: no cover - closure violation is a bug
                raise AssertionError(
                    f"generator image {(ii, jj, aa)} of {mi} escapes the degree-{n} basis"
                ) from None
            entries.append((row * basis.size + col, term, mult))

        # dividend accrual: D * df/dc
        if i:
            for k in range(d):
                add(i - 1, j, _add_tuple(alpha, k, 1), one, i)

        # stock drift: (r x - D) * df/dx
        if j:
            add(i, j, alpha, rate, j)
            for k in range(d):
                add(i, j - 1, _add_tuple(alpha, k, 1), one, -j)

        # factor drift: sum_k (b_k x + (beta y)_k) * df/dy_k
        for k in range(d):
            ak = alpha[k]
            if not ak:
                continue
            down = _add_tuple(alpha, k, -1)
            add(i, j + 1, down, t_b + k, ak)
            for l in range(d):
                add(i, j, _add_tuple(down, l, 1), t_beta + k * d + l, ak)

        # stock diffusion: 0.5 sigma^2 (x - D/a)^2 * d2f/dx2
        if j >= 2:
            for dj, gamma, q, cf in _base_power_terms(d, 2):
                aa = tuple(alpha[k] + gamma[k] for k in range(d))
                add(i, j - 2 + dj, aa, t_sigma + q, 0.5 * j * (j - 1) * cf)

        # factor diffusion: 0.5 nu_k^2 y_k (x - D/a) * d2f/dy_k2
        for k in range(d):
            ak = alpha[k]
            if ak < 2:
                continue
            down = _add_tuple(alpha, k, -1)
            for dj, gamma, q, cf in _base_power_terms(d, 1):
                aa = tuple(down[l] + gamma[l] for l in range(d))
                add(i, j + dj, aa, t_nu + 2 * k + q, 0.5 * ak * (ak - 1) * cf)

        # compensated jumps: only powers m >= 2 of the jump size survive the
        # cancellation against -f and the compensator drift
        for m in range(2, j + 1):
            for dj, gamma, q, cf in _base_power_terms(d, m):
                aa = tuple(alpha[k] + gamma[k] for k in range(d))
                add(i, j - m + dj, aa, t_jump + m * (n + 1) + q, math.comb(j, m) * cf)

    flat, term, mult = zip(*entries)
    tpl = _Template(np.array(flat), np.array(term), np.array(mult, dtype=float))
    for arr in tpl:
        arr.flags.writeable = False
    return tpl


def build_generator(params, jump, basis):
    """Generator matrix G on `basis` for admissible parameters, in 1/year:
    ``G @ eval_basis(basis, state)`` is the generator applied to each basis
    monomial, evaluated at the state.

    Raises :class:`InadmissibleParamsError` if the inward-drift conditions
    fail.  The matrix is the basis's cached template weighted by the
    parameter factors; building the template asserts polynomial closure.
    """
    if params.d != basis.d:
        raise InvalidParameterError(f"parameters have d={params.d}, the basis d={basis.d}")
    require_admissible(params)
    tpl = _generator_template(basis.d, basis.n)
    weights = tpl.mult * _term_factors(params, jump, basis.n)[tpl.term]
    size = basis.size
    return np.bincount(tpl.flat, weights=weights, minlength=size * size).reshape(size, size)


@lru_cache(maxsize=None)
def _block_entries(d, n, k):
    """Degree block k's entries of ``_generator_template(d, n)``: their
    slice of it (the rows come in basis order, so a block's entries are
    contiguous) and their flat indices into the block."""
    tpl = _generator_template(d, n)
    basis = build_basis(d, n)
    s = basis.blocks[k]
    lo, hi = np.searchsorted(tpl.flat // basis.size, (s.start, s.stop))
    row, col = np.divmod(tpl.flat[lo:hi], basis.size)   # col in block k too: G never mixes degrees
    local = (row - s.start) * (s.stop - s.start) + col - s.start
    local.flags.writeable = False
    return slice(lo, hi), local


def build_block(params, jump, basis, k):
    """Degree block k of the generator on `basis`,
    ``build_generator(params, jump, basis)[s, s]`` for ``s = basis.blocks[k]``,
    bit for bit: the same template entries, weighted alike and summed in the
    same order.

    Unlike :func:`build_generator` it does not check admissibility; a
    caller building several blocks checks once, with
    :func:`polydiv.model.require_admissible`.
    """
    if params.d != basis.d:
        raise InvalidParameterError(f"parameters have d={params.d}, the basis d={basis.d}")
    entries, local = _block_entries(basis.d, basis.n, k)
    tpl = _generator_template(basis.d, basis.n)
    weights = tpl.mult[entries] * _term_factors(params, jump, basis.n)[tpl.term[entries]]
    width = basis.blocks[k].stop - basis.blocks[k].start
    return np.bincount(local, weights=weights, minlength=width * width).reshape(width, width)


def generator_directions(params, basis):
    """The derivatives of the generator on `basis` in theta = b_1..b_d, beta_kl
    (row-major), sigma, nu_1..nu_d, one matrix each: the template weighted
    by the derivative of each term factor, 2 sigma/a^q and 2 nu_k/a^q in
    the diffusion terms and 1 in the drift terms.  The jump terms do not
    depend on theta."""
    d, n = basis.d, basis.n
    t_b, t_beta, t_sigma, t_nu, t_jump = _term_starts(d)
    inv_a = params.a ** -np.arange(3.0)
    slope = np.zeros((2 * d + d * d + 1, t_jump + (n + 1) ** 2))
    drift = np.arange(d + d * d)
    slope[drift, t_b + drift] = 1.0                  # the b and beta groups are adjacent
    slope[d + d * d, t_sigma:t_nu] = 2.0 * params.sigma * inv_a
    for k in range(d):
        slope[d + d * d + 1 + k, t_nu + 2 * k:t_nu + 2 * k + 2] = 2.0 * params.nu[k] * inv_a[:2]
    tpl = _generator_template(d, n)
    size = basis.size
    return np.array([np.bincount(tpl.flat, weights=tpl.mult * row[tpl.term],
                                 minlength=size * size).reshape(size, size) for row in slope])


def eval_basis(basis, state):
    """Vector H(c, x, y) of all basis monomials at the given state."""
    return basis.eval(state.c, state.x, state.y)


def apply_generator_pointwise(params, jump, basis, coeffs, state):
    """Generator applied to a polynomial, evaluated analytically at a state.

    The polynomial is given by its coefficient vector over `basis`.  The
    value is assembled from the drift/diffusion partial derivatives of each
    monomial; the jump integral is evaluated by shifting x directly for
    every support point of the jump distribution.  Independent of
    :func:`build_generator` on purpose, so the two can cross-check.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (basis.size,):
        raise InvalidParameterError(
            f"coefficient vector must have length {basis.size}, got {coeffs.shape}"
        )
    c, x = float(state.c), float(state.x)
    y = np.atleast_1d(np.asarray(state.y, dtype=float))
    d, a, r = params.d, params.a, params.r
    b, beta, sigma, nu = params.b, params.beta, params.sigma, params.nu
    dvd = float(y.sum())
    base = x - dvd / a
    beta_y = beta @ y

    total = 0.0
    for pos, (i, j, alpha) in enumerate(basis.members):
        cf = coeffs[pos]
        if cf == 0.0:
            continue
        yk_pow = [y[k] ** alpha[k] if alpha[k] else 1.0 for k in range(d)]
        y_all = math.prod(yk_pow)
        ci = c ** i
        xj = x ** j

        val = 0.0
        if i:
            val += dvd * i * c ** (i - 1) * xj * y_all
        if j:
            val += (r * x - dvd) * j * ci * x ** (j - 1) * y_all
        for k in range(d):
            ak = alpha[k]
            if not ak:
                continue
            rest = math.prod(yk_pow[l] for l in range(d) if l != k)
            val += (b[k] * x + beta_y[k]) * ak * ci * xj * rest * y[k] ** (ak - 1)
        if j >= 2:
            val += 0.5 * sigma ** 2 * base ** 2 * j * (j - 1) * ci * x ** (j - 2) * y_all
        for k in range(d):
            ak = alpha[k]
            if ak < 2:
                continue
            rest = math.prod(yk_pow[l] for l in range(d) if l != k)
            val += (
                0.5 * nu[k] ** 2 * y[k] * base * ak * (ak - 1)
                * ci * xj * rest * y[k] ** (ak - 2)
            )
        total += cf * val

    if jump is not None and jump.active:
        p0 = 0.0
        px = 0.0
        for pos, (i, j, alpha) in enumerate(basis.members):
            cf = coeffs[pos]
            if cf == 0.0:
                continue
            y_all = math.prod(y[k] ** alpha[k] for k in range(d) if alpha[k])
            p0 += cf * c ** i * x ** j * y_all
            if j:
                px += cf * c ** i * j * x ** (j - 1) * y_all
        for z, wz in jump.dist.points():
            if wz == 0.0:
                continue
            xz = x + base * z
            pz = 0.0
            for pos, (i, j, alpha) in enumerate(basis.members):
                cf = coeffs[pos]
                if cf == 0.0:
                    continue
                y_all = math.prod(y[k] ** alpha[k] for k in range(d) if alpha[k])
                pz += cf * c ** i * xz ** j * y_all
            total += jump.lam * wz * (pz - p0 - base * z * px)

    return float(total)
