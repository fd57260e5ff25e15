import hashlib
import math

import numpy as np
import pytest

from polydiv.errors import InadmissibleParamsError, InvalidParameterError
from polydiv.generator import (
    apply_generator_pointwise,
    block_directions,
    build_basis,
    build_block,
    build_generator,
    eval_basis,
)
from polydiv.model import JumpSpec, ModelParams, PointMass, State, TwoPoint
from polydiv.moments import expm_apply

from conftest import random_admissible_params, random_state_in_E


class TestBasis:
    def test_degree_one_layout(self):
        b = build_basis(1, 1)
        assert b.size == 4
        assert [(m.i, m.j, m.alpha) for m in b.members] == [
            (0, 0, (0,)), (1, 0, (0,)), (0, 1, (0,)), (0, 0, (1,)),
        ]

    @pytest.mark.parametrize("d,n,size", [(1, 2, 10), (1, 6, 84), (2, 3, 35), (3, 4, 126)])
    def test_sizes(self, d, n, size):
        assert build_basis(d, n).size == size == math.comb(n + d + 2, d + 2)

    def test_lookup_bijection(self):
        b = build_basis(2, 4)
        for pos, m in enumerate(b.members):
            assert b.position(m.i, m.j, m.alpha) == pos

    @pytest.mark.parametrize("d,n", [(1, 6), (3, 6)])
    def test_c_free_tails(self, d, n):
        b = build_basis(d, n)
        for k, (s, f) in enumerate(zip(b.blocks, b.c_free)):
            assert s.start <= f.start and f.stop == s.stop
            assert [m.i == 0 for m in b.members[s]] == [p >= f.start for p in range(s.start, s.stop)]
            assert f.stop - f.start == math.comb(k + d, d)

    def test_degree_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_basis(1, 0)

    def test_no_factor_rejected(self):
        with pytest.raises(InvalidParameterError, match="need d >= 1, got 0"):
            build_basis(0, 2)

    def test_eval(self):
        b = build_basis(1, 1)
        np.testing.assert_allclose(b.eval(0.0, 1.0, [0.0371]), [1, 0, 1, 0.0371])
        np.testing.assert_allclose(b.eval(0.0, 0.0, [0.0]), [1, 0, 0, 0])
        b2 = build_basis(1, 3)
        vec = b2.eval(2.0, 3.0, [4.0])
        assert vec[b2.position(1, 1, (1,))] == pytest.approx(24.0)
        # the vectorized product against a loop over the monomials
        b3 = build_basis(3, 6)
        c, x, y = 0.7, 1.3, [0.05, 0.11, 0.02]
        loop = [c ** i * x ** j * math.prod(yk ** ak for yk, ak in zip(y, alpha))
                for i, j, alpha in b3.members]
        np.testing.assert_allclose(b3.eval(c, x, y), loop, rtol=1e-15, atol=0)


class TestGeneratorMatrix:
    def test_degree_one_block(self, params_a02):
        basis = build_basis(1, 1)
        g = build_generator(params_a02, None, basis)
        # rows/cols 1..3 are (c, x, y); the generator acts as
        # c -> y, x -> r x - y, y -> b x + beta y
        block = g[1:, 1:]
        np.testing.assert_allclose(
            block,
            [[0.0, 0.0, 1.0], [0.0, 0.01, -1.0], [0.0, 0.0103, -0.3439]],
        )
        # constant monomial row and column are identically zero
        assert not g[0].any()
        assert not g[:, 0].any()

    def test_drift_only_x_squared(self):
        p = ModelParams.single_factor(r=0.03, a=0.1, sigma=0.0, b=0.0, beta=-0.2, nu=0.0)
        basis = build_basis(1, 2)
        g = build_generator(p, None, basis)
        row = g[basis.position(0, 2, (0,))]
        expect = np.zeros(basis.size)
        expect[basis.position(0, 2, (0,))] = 2 * 0.03   # 2 r x^2
        expect[basis.position(0, 1, (1,))] = -2.0       # -2 x y cross term
        np.testing.assert_allclose(row, expect)

    def test_jump_terms_vanish_for_linear_x(self, params_a02):
        basis = build_basis(1, 3)
        g0 = build_generator(params_a02, None, basis)
        for dist in (PointMass(-0.3), TwoPoint(-0.4, 0.3, 0.5)):
            gj = build_generator(params_a02, JumpSpec(lam=2.0, dist=dist), basis)
            for pos, m in enumerate(basis.members):
                if m.j <= 1:
                    np.testing.assert_array_equal(g0[pos], gj[pos])
            # degree >= 2 in x must differ
            assert not np.allclose(g0, gj)

    def test_factor_count_must_match_basis(self, params_a02):
        with pytest.raises(InvalidParameterError):
            build_generator(params_a02, None, build_basis(2, 2))

    def test_inadmissible_params_rejected(self):
        p = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.3, b=-0.01, beta=-0.3, nu=0.02)
        with pytest.raises(InadmissibleParamsError):
            build_generator(p, None, build_basis(1, 2))

    def test_volatility_absent_from_degree_one(self, params_a02):
        basis = build_basis(1, 1)
        g1 = build_generator(params_a02, None, basis)
        bumped = ModelParams.single_factor(r=0.01, a=0.2, sigma=0.9, b=0.0103,
                                           beta=-0.3439, nu=0.05)
        g2 = build_generator(bumped, None, basis)
        np.testing.assert_array_equal(g1, g2)


# sha256 of build_generator(...).tobytes() at n = 6 on pinned_params(d), one
# digest per jump of PINNED_JUMPS, recorded before the factor diffusion was
# routed through _base_power_terms and the jump moments through the law's
# points: neither edit moved a bit, and no later one should
PINNED_DIGESTS = {
    1: ("397a6dc14d18ec7dfdb084bb14fd57e3173d54a43967678319d6928f679964f4",
        "74a1fa5467a3453645b31e4f6a0aebdaf64e942d49d406c998d98cd74ddaf1e6",
        "82ae28ef922d8de894fecaefde1372a9f7a4d006ce8e5975b5cb84dc863e6f15"),
    2: ("0a8e5042428c78208aa11cdeb388a422ee4572b3cff4ace1e5e47ee7bece6752",
        "7a16fc66ec560de5945556eee54f69225f2e1254dd79baab6cba5dbf356c55c3",
        "08ddf7b348fcf0230033611f9045b8cc0af328152757e1063ef210cbc1d19301"),
    3: ("58b726cef65627d7bf22c184e80b02c21c0b3dff198c2ea8c412371e8743fad4",
        "fc12e656fd0e175f5c26b89c46cb06542e6c0a16be6c4fa53c1c2879388b68fb",
        "d8fe0237fc62b81f1498de3e5b7a43aaf9928aa4b3af41709c13210e2a9a1bac"),
}
PINNED_JUMPS = (None, JumpSpec(lam=0.8, dist=PointMass(-0.4)),
                JumpSpec(lam=1.5, dist=TwoPoint(z1=-0.5, p=0.35, z2=0.7)))


def pinned_params(d):
    beta = [[-0.5, 0.03, -0.02], [0.01, -0.45, 0.02], [0.02, -0.01, -0.4]]
    return ModelParams(r=0.01, a=0.2, sigma=0.28, d=d, b=[0.008, 0.01, 0.006][:d],
                       beta=[row[:d] for row in beta[:d]], nu=[0.02, 0.03, 0.025][:d])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_generator_bits_are_pinned(d):
    basis = build_basis(d, 6)
    digests = tuple(hashlib.sha256(build_generator(pinned_params(d), jump, basis).tobytes())
                    .hexdigest() for jump in PINNED_JUMPS)
    assert digests == PINNED_DIGESTS[d]


TWO_POINT_JUMP = JumpSpec(lam=0.2, dist=TwoPoint(z1=-0.4, p=0.35, z2=0.5))


@pytest.mark.parametrize("jump", [None, TWO_POINT_JUMP], ids=["no_jump", "two_point"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_block_is_the_generators_block_bit_for_bit(d, jump):
    basis = build_basis(d, 6)
    gen = build_generator(pinned_params(d), jump, basis)
    for k, s in enumerate(basis.blocks):
        block = build_block(pinned_params(d), jump, basis, k)
        assert block.shape == (s.stop - s.start,) * 2
        assert block.tobytes() == gen[s, s].tobytes()


@pytest.mark.parametrize("jump", [None, TWO_POINT_JUMP], ids=["no_jump", "two_point"])
def test_block_directions_are_the_blocks_and_their_derivatives(jump):
    # b and beta enter the block linearly and sigma, nu through their
    # squares, so a central difference is exact up to rounding
    params, basis, h = pinned_params(2), build_basis(2, 6), 1e-4
    pairs = block_directions(params, jump, basis)
    assert len(pairs) == 6
    for k, (block, dirs) in enumerate(pairs, 1):
        assert block.tobytes() == build_block(params, jump, basis, k).tobytes()
        assert dirs.shape == (2 * 2 + 2 * 2 + 1,) + block.shape
        theta = np.concatenate((params.b, params.beta.ravel(), [params.sigma], params.nu))
        for i, direction in enumerate(dirs):
            def at(step):
                t = theta.copy()
                t[i] += step
                moved = ModelParams(r=params.r, a=params.a, sigma=t[6], d=2, b=t[:2],
                                    beta=t[2:6].reshape(2, 2), nu=t[7:])
                return build_block(moved, jump, basis, k)
            np.testing.assert_allclose(direction, (at(h) - at(-h)) / (2 * h), rtol=0, atol=1e-8)


def test_a_block_needs_the_basis_dimension():
    with pytest.raises(InvalidParameterError, match="parameters have d=1"):
        build_block(pinned_params(1), None, build_basis(2, 3), 2)


class TestPointwiseOracle:
    def test_generator_of_c_is_dividend_rate(self, params_a02):
        basis = build_basis(1, 2)
        coeffs = np.zeros(basis.size)
        coeffs[basis.position(1, 0, (0,))] = 1.0
        st = State(0.4, 1.3, [0.02])
        assert apply_generator_pointwise(params_a02, None, basis, coeffs, st) == pytest.approx(0.02)

    @pytest.mark.parametrize("size", [5, 7])
    def test_coefficient_vector_of_the_wrong_length_rejected(self, params_a02, size):
        basis = build_basis(1, 1)       # (1, c, x, y): 4 members
        with pytest.raises(InvalidParameterError, match=f"length 4, got \\({size},\\)"):
            apply_generator_pointwise(params_a02, None, basis, np.zeros(size),
                                      State(0.4, 1.3, [0.02]))

    def test_generator_of_x_is_drift(self, params_a02):
        basis = build_basis(1, 2)
        coeffs = np.zeros(basis.size)
        coeffs[basis.position(0, 1, (0,))] = 1.0
        st = State(0.0, 1.1, [0.03])
        val = apply_generator_pointwise(params_a02, None, basis, coeffs, st)
        assert val == pytest.approx(0.01 * 1.1 - 0.03)

    def test_generator_of_x_squared_reference_point(self, params_a02):
        basis = build_basis(1, 2)
        coeffs = np.zeros(basis.size)
        coeffs[basis.position(0, 2, (0,))] = 1.0
        st = State(0.0, 1.0, [0.0371])
        val = apply_generator_pointwise(params_a02, None, basis, coeffs, st)
        expect = 2 * (0.01 - 0.0371) + 0.2813 ** 2 * (1 - 0.0371 / 0.2) ** 2
        assert val == pytest.approx(expect, rel=1e-14)
        assert val == pytest.approx(-0.0017046, abs=5e-7)

    def test_matrix_and_pointwise_agree(self):
        rng = np.random.default_rng(42)
        jumps = [None,
                 JumpSpec(lam=0.7, dist=PointMass(-0.35)),
                 JumpSpec(lam=1.3, dist=TwoPoint(-0.5, 0.4, 0.6))]
        # 60 random models on degree-4 bases, then the largest basis the
        # engine uses: d = 3, n = 6 (462 monomials) with the two-point jump
        for trial in range(63):
            if trial < 60:
                d, n, jump = int(rng.integers(1, 4)), 4, jumps[trial % 3]
            else:
                d, n, jump = 3, 6, jumps[2]
            params = random_admissible_params(rng, d)
            state = random_state_in_E(rng, params)
            basis = build_basis(d, n)
            gen = build_generator(params, jump, basis)
            coeffs = rng.standard_normal(basis.size)
            via_matrix = float(coeffs @ (gen @ eval_basis(basis, state)))
            direct = apply_generator_pointwise(params, jump, basis, coeffs, state)
            assert via_matrix == pytest.approx(direct, rel=1e-10, abs=1e-12)
            # the generator never mixes degrees, so block-by-block
            # exponentiation equals the whole-matrix exponential
            off_block = gen.copy()
            for s in basis.blocks:
                off_block[s, s] = 0.0
            assert not off_block.any()
            # nor does it raise the power of c: c-free rows stay c-free
            for s, f in zip(basis.blocks, basis.c_free):
                assert not gen[f, s.start:f.start].any()
            h = eval_basis(basis, state)
            whole = expm_apply(gen, 0.8, h)
            by_block = np.concatenate([expm_apply(gen[s, s], 0.8, h[s]) for s in basis.blocks])
            np.testing.assert_allclose(by_block, whole, rtol=0, atol=1e-8 * np.abs(whole).max())

    def test_linearity(self, params_a02):
        rng = np.random.default_rng(1)
        basis = build_basis(1, 4)
        gen = build_generator(params_a02, None, basis)
        u, v = rng.standard_normal((2, basis.size))
        st = State(0.2, 0.9, [0.05])
        h = eval_basis(basis, st)
        lhs = (u + 2.5 * v) @ (gen @ h)
        rhs = u @ (gen @ h) + 2.5 * (v @ (gen @ h))
        assert lhs == pytest.approx(rhs, rel=1e-12)
