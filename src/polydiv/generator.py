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
basis, one template of (flat index, term id, multiplier) triples per degree
block.  A block is its template weighted by the short vector of term factors
and summed by one ``np.bincount`` (:func:`build_block`); the same call can
weight it by the factors' theta-derivatives too (:func:`block_directions`).
:func:`build_generator` places the blocks on the diagonal of the whole G.
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


def _term_factors(params, jump, basis):
    """Parameter factor of every template term on `basis`: 1, r, b_k, beta_kl
    (row-major), sigma^2/a^q (q = 0..2), nu_k^2/a^q (k-major, q = 0..1),
    then lam E[Z^m]/a^q at m * (n + 1) + q (m, q = 0..n; zero for m < 2 and
    without jumps)."""
    if params.d != basis.d:
        raise InvalidParameterError(f"parameters have d={params.d}, the basis d={basis.d}")
    inv_a = params.a ** -np.arange(max(basis.n, 2) + 1.0)
    lam_moments = np.zeros(basis.n + 1)
    if jump is not None and jump.active:
        lam_moments[2:] = [jump.lam * jump_moment(jump, m) for m in range(2, basis.n + 1)]
    return np.concatenate((
        [1.0, params.r], params.b, params.beta.ravel(),
        params.sigma ** 2 * inv_a[:3], np.outer(params.nu ** 2, inv_a[:2]).ravel(),
        np.outer(lam_moments, inv_a[:basis.n + 1]).ravel(),
    ))


def _term_starts(d):
    """Where the b, beta, sigma, nu and jump groups of `_term_factors` start."""
    t_b = 2
    t_beta = t_b + d
    t_sigma = t_beta + d * d
    t_nu = t_sigma + 3
    return t_b, t_beta, t_sigma, t_nu, t_nu + 2 * d


class _Template(NamedTuple):
    """Generator entries in one degree block of width w: flat index ``row * w
    + col`` into the block, term id (an index into the `_term_factors`
    vector) and pure-number multiplier."""

    flat: np.ndarray
    term: np.ndarray
    mult: np.ndarray


@lru_cache(maxsize=None)
def _generator_template(d, n):
    """The generator's sparsity pattern on ``build_basis(d, n)``, one
    `_Template` per degree block.

    Independent of the model inputs; asserts that each image monomial has
    the degree of its source.
    """
    basis = build_basis(d, n)
    one, rate = 0, 1
    t_b, t_beta, t_sigma, t_nu, t_jump = _term_starts(d)
    entries = [[] for _ in basis.blocks]
    for row, mi in enumerate(basis.members):
        i, j, alpha = mi
        s = basis.blocks[mi.degree]

        def add(ii, jj, aa, term, mult):
            assert ii + jj + sum(aa) == mi.degree, f"generator image {(ii, jj, aa)} of {mi}"
            col = basis.position(ii, jj, aa) - s.start
            entries[mi.degree].append(((row - s.start) * (s.stop - s.start) + col, term, mult))

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

    blocks = []
    for block in entries:
        flat, term, mult = list(zip(*block)) or ((), (), ())   # the constant's block is empty
        tpl = _Template(np.array(flat, dtype=np.intp), np.array(term, dtype=np.intp),
                        np.array(mult, dtype=float))
        for arr in tpl:
            arr.flags.writeable = False
        blocks.append(tpl)
    return tuple(blocks)


def _weigh(basis, k, rows):
    """Block k of the template on `basis` weighted by each row of term factors
    (indexed like `_term_factors`): a (rows, w, w) stack from one
    ``np.bincount``, each entry summing its weights in template order."""
    tpl = _generator_template(basis.d, basis.n)[k]
    width = basis.blocks[k].stop - basis.blocks[k].start
    area = width * width
    weights = rows.take(tpl.term, axis=1)
    weights *= tpl.mult
    index = tpl.flat + np.arange(0, len(rows) * area, area)[:, None]
    return np.bincount(index.ravel(), weights.ravel(), len(rows) * area).reshape(-1, width, width)


def build_generator(params, jump, basis):
    """Generator matrix G on `basis` for admissible parameters, in 1/year:
    ``G @ eval_basis(basis, state)`` is the generator applied to each basis
    monomial, evaluated at the state.

    Raises :class:`InadmissibleParamsError` if the inward-drift conditions
    fail.  The matrix is block-diagonal, its blocks those of
    :func:`build_block`.
    """
    factors = _term_factors(params, jump, basis)[None]
    require_admissible(params)
    out = np.zeros((basis.size, basis.size))
    for k, s in enumerate(basis.blocks):
        out[s, s] = _weigh(basis, k, factors)[0]
    return out


def build_block(params, jump, basis, k):
    """Degree block k of the generator on `basis`,
    ``build_generator(params, jump, basis)[s, s]`` for ``s = basis.blocks[k]``.

    Unlike :func:`build_generator` it does not check admissibility; a
    caller building several blocks checks once, with
    :func:`polydiv.model.require_admissible`.
    """
    return _weigh(basis, k, _term_factors(params, jump, basis)[None])[0]


def block_directions(params, jump, basis):
    """A pair for each degree k = 1..n: block k (:func:`build_block`) and a
    stack of its derivatives in theta = b_1..b_d, beta_kl (row-major), sigma,
    nu_1..nu_d, in that order: the template weighted by each term factor's
    derivative, 2 sigma/a^q and 2 nu_l/a^q in the diffusion terms and 1 in
    the drift terms.  The jump terms do not depend on theta."""
    d = basis.d
    t_b, _, t_sigma, t_nu, _ = _term_starts(d)
    inv_a = params.a ** -np.arange(3.0)
    factors = _term_factors(params, jump, basis)
    rows = np.zeros((2 + 2 * d + d * d, factors.size))
    rows[0] = factors
    drift = np.arange(d + d * d)
    rows[1 + drift, t_b + drift] = 1.0                 # the b and beta groups are adjacent
    rows[1 + d + d * d, t_sigma:t_nu] = 2.0 * params.sigma * inv_a
    for l in range(d):
        rows[2 + d + d * d + l, t_nu + 2 * l:t_nu + 2 * l + 2] = 2.0 * params.nu[l] * inv_a[:2]
    stacks = (_weigh(basis, k, rows) for k in range(1, basis.n + 1))
    return [(stack[0], stack[1:]) for stack in stacks]


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
