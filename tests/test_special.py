import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import eval_jacobi

from spinalias import (
    HarmonicIndex,
    build_grid_equiangular,
    build_grid_gauss,
    spin_sph_harm,
    wigner_d,
)
from spinalias.special import _wigner_d_blocks

from _invariants import (
    addition_theorem_deviation,
    h_factor,
    jacobi,
    jacobi_deriv,
    jacobi_norm,
    orthonormality_deviation,
    wigner_d_jacobi,
    wigner_parity_deviation,
)


def wigner_d_factorial_sum(l, m1, m2, beta):
    """Independent oracle: the textbook factorial-sum form of d^l_{m1,m2}."""
    kmin = max(0, m1 - m2)
    kmax = min(l + m1, l - m2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        num = (-1) ** (k + m2 - m1) * math.sqrt(
            math.factorial(l + m1)
            * math.factorial(l - m1)
            * math.factorial(l + m2)
            * math.factorial(l - m2)
        )
        den = (
            math.factorial(k)
            * math.factorial(l + m1 - k)
            * math.factorial(l - m2 - k)
            * math.factorial(m2 - m1 + k)
        )
        total += (
            num
            / den
            * math.cos(beta / 2) ** (2 * l + m1 - m2 - 2 * k)
            * math.sin(beta / 2) ** (2 * k + m2 - m1)
        )
    return total


def mp_wigner_d(l, m1, m2, beta):
    """Independent oracle for large degrees: d^l_{m1,m2} from its Jacobi
    form, evaluated at 50 digits with mpmath (float result)."""
    with mpmath.workdps(50):
        k = min(l + m1, l - m1, l + m2, l - m2)
        if k in (l + m1, l - m2):
            a, sign = m2 - m1, (-1) ** (m2 - m1)
        else:
            a, sign = m1 - m2, 1
        b = 2 * l - 2 * k - a
        beta = mpmath.mpf(beta)
        x = mpmath.cos(beta)
        # P_k^(a,b)(x) = (-1)^k P_k^(b,a)(-x) keeps the series argument small
        poly = (mpmath.jacobi(k, a, b, x) if x >= 0
                else (-1) ** k * mpmath.jacobi(k, b, a, -x))
        pref = mpmath.sqrt(mpmath.binomial(2 * l - k, k + a) / mpmath.binomial(k + b, b))
        return float(sign * pref * mpmath.sin(beta / 2) ** a * mpmath.cos(beta / 2) ** b * poly)


def assert_matches_mp(values, l, m1, m2, theta, rtol=1e-11):
    """Relative agreement where |d| > 1e-3, absolute 1e-13 elsewhere."""
    ref = np.array([mp_wigner_d(l, m1, m2, t) for t in theta])
    big = np.abs(ref) > 1e-3
    msg = f"l={l} m1={m1} m2={m2}"
    assert_allclose(np.asarray(values)[big], ref[big], rtol=rtol, atol=0, err_msg=msg)
    assert_allclose(np.asarray(values)[~big], ref[~big], rtol=0, atol=1e-13, err_msg=msg)


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi(0, 2.0, 2.0, 0.7) == 1.0

    def test_legendre_p2(self):
        assert_allclose(jacobi(2, 0.0, 0.0, 0.5), -0.125, rtol=1e-15)

    def test_parity_example(self):
        assert_allclose(
            jacobi(3, 2.0, 1.0, -0.3), -jacobi(3, 1.0, 2.0, 0.3), rtol=1e-14
        )

    @pytest.mark.parametrize("nu", [1, 2, 5, 11, 17])
    @pytest.mark.parametrize("alpha,beta", [(0, 0), (2, 2), (1, 3), (0.5, -0.5)])
    def test_against_scipy(self, nu, alpha, beta):
        t = np.linspace(-1, 1, 41)
        assert_allclose(jacobi(nu, alpha, beta, t), eval_jacobi(nu, alpha, beta, t),
                        rtol=1e-12, atol=1e-12)

    def test_parity_sweep(self):
        # relative to each polynomial's scale on the grid (pointwise
        # relative error is meaningless at the roots)
        t = np.linspace(-1, 1, 101)
        worst = 0.0
        for nu in range(31):
            for alpha in range(7):
                for beta in range(7):
                    lhs = np.asarray(jacobi(nu, float(alpha), float(beta), -t))
                    rhs = (-1) ** nu * np.asarray(jacobi(nu, float(beta), float(alpha), t))
                    scale = max(1.0, float(np.abs(rhs).max()))
                    worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
        assert worst < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            jacobi(2, 0.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            jacobi(-1, 0.0, 0.0, 0.0)

    def test_deriv_matches_difference_quotient(self):
        t = 0.37
        h = 1e-6
        approx = (jacobi(5, 1.0, 2.0, t + h) - jacobi(5, 1.0, 2.0, t - h)) / (2 * h)
        assert_allclose(jacobi_deriv(5, 1.0, 2.0, t), approx, rtol=1e-8)


class TestJacobiNorm:
    def test_legendre_degree_zero(self):
        assert_allclose(jacobi_norm(0, 0.0, 0.0), 2.0, rtol=1e-15)

    def test_legendre_degree_one(self):
        assert_allclose(jacobi_norm(1, 0.0, 0.0), 2.0 / 3.0, rtol=1e-15)

    def test_against_quadrature(self):
        # independent oracle: adaptive quadrature of the weighted square
        def integrand(t):
            return (1 - t) ** 2 * (1 + t) ** 2 * eval_jacobi(2, 2, 2, t) ** 2

        oracle, err = quad(integrand, -1, 1, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        assert_allclose(jacobi_norm(2, 2.0, 2.0), oracle, rtol=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            jacobi_norm(2, -1.0, 0.0)


class TestHFactor:
    def test_cancellation(self):
        assert h_factor(0, 0, 5) == 1.0

    def test_small_exact(self):
        assert_allclose(h_factor(2, 0, 2), math.sqrt(4.0 / 24.0), rtol=1e-15)

    def test_against_factorials(self):
        exact = math.sqrt(
            math.factorial(10 - 3) * math.factorial(10 + 3)
            / (math.factorial(10 + 2) * math.factorial(10 - 2))
        )
        assert_allclose(h_factor(2, 3, 10), exact, rtol=1e-14)

    def test_large_arguments_no_overflow(self):
        val = h_factor(5, 3, 200)
        assert np.isfinite(val) and val > 0

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            h_factor(3, 0, 2)


class TestWignerD:
    def test_identity_element(self):
        assert_allclose(wigner_d(0, 0, 0, 1.234), 1.0, rtol=1e-15)

    def test_degree_two_value(self):
        assert_allclose(wigner_d(2, 0, 2, math.pi / 2), math.sqrt(6) / 4, rtol=1e-14)

    def test_paper_parity_example(self):
        lhs = wigner_d(3, 1, 2, math.pi - 0.8)
        rhs = (-1) ** (3 + 2) * wigner_d(3, -1, 2, 0.8)
        assert_allclose(lhs, rhs, atol=1e-14)

    def test_against_factorial_sum(self):
        for ell in range(7):
            for s in range(-ell, ell + 1):
                for m in range(-ell, ell + 1):
                    for theta in (0.0, 0.37, 1.2, math.pi / 2, 2.6, math.pi):
                        assert_allclose(
                            wigner_d(ell, m, s, theta),
                            wigner_d_factorial_sum(ell, m, -s, theta),
                            atol=5e-13,
                        )

    @pytest.mark.parametrize("ell", [7, 12, 40])
    def test_against_jacobi_form(self, ell):
        # every order and spin of the degree, poles and equator included
        theta = np.array([0.0, 0.37, 1.2, math.pi / 2, 2.6, math.pi])
        worst = max(
            float(np.abs(wigner_d(ell, m, s, theta) - wigner_d_jacobi(ell, m, s, theta)).max())
            for s in range(-ell, ell + 1) for m in range(-ell, ell + 1)
        )
        assert worst < 1e-12

    def test_parity_sweep(self):
        assert wigner_parity_deviation(wigner_d, l_max=20) < 1e-12

    def test_mp_oracle_matches_factorial_sum(self):
        for ell in range(5):
            for m1 in range(-ell, ell + 1):
                for m2 in range(-ell, ell + 1):
                    for theta in (0.0, 0.37, 2.6, math.pi):
                        assert_allclose(mp_wigner_d(ell, m1, m2, theta),
                                        wigner_d_factorial_sum(ell, m1, m2, theta),
                                        atol=5e-15)

    @pytest.mark.parametrize("ell,m,s", [(1100, 1095, 2), (2000, 1990, 3), (1500, -1497, 2)])
    def test_large_degree_against_mpmath(self, ell, m, s):
        # the factorial prefactor alone passes the double range here
        theta = [0.0, 0.3, 1.5, 2.9, math.pi]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = wigner_d(ell, m, s, theta)
        assert_matches_mp(values, ell, m, -s, theta)

    def test_index_error(self):
        with pytest.raises(ValueError):
            wigner_d(1, 2, 0, 0.5)

    def test_theta_domain_error(self):
        with pytest.raises(ValueError):
            wigner_d(2, 0, 0, 3.5)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, [0.5, math.nan]])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match="colatitude"):
            wigner_d(3, 1, 2, theta)
        with pytest.raises(ValueError, match="colatitude"):
            spin_sph_harm(3, 1, 2, theta, 0.0)


def both_schemes_nodes(L, s):
    """Gauss and equiangular nodes for band L (the latter has theta = 0
    and pi/2), plus theta = pi."""
    gauss = build_grid_gauss(s + L + 1, s, 1).theta_nodes
    equi = build_grid_equiangular(s + L + 2 + L % 2, s, 1).theta_nodes
    assert equi[0] == 0.0 and np.abs(equi - math.pi / 2).min() < 1e-15
    return np.concatenate([gauss, equi, [math.pi]])


class TestWignerDBlocks:
    """The per-order recursion kernel against the Jacobi-form oracle."""

    def check_rows(self, L, s, row_offsets):
        theta = both_schemes_nodes(L, s)
        orders = list(range(-L, L + 1))
        blocks = _wigner_d_blocks(orders, s, L, theta)
        for m, block in zip(orders, blocks):
            l0 = max(abs(m), s)
            assert block.shape == (L - l0 + 1, theta.size)
            assert not block.flags.writeable
            for ell in sorted({l0 + k for k in row_offsets(L - l0) if l0 + k <= L}):
                assert_allclose(block[ell - l0], wigner_d_jacobi(ell, m, s, theta),
                                rtol=0, atol=1e-12, err_msg=f"ell={ell} m={m} s={s}")

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_every_row_small_band(self, s):
        self.check_rows(24, s, lambda n: range(n + 1))

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_large_band_every_order(self, s):
        # the first steps, every 16th degree and the top row of every order
        # (the full sweep costs the oracle minutes at L = 128)
        self.check_rows(128, s, lambda n: [0, 1, 2, *range(0, n + 1, 16), n])

    def test_ell0_zero_first_step(self):
        theta = np.linspace(0.0, math.pi, 13)
        (block,) = _wigner_d_blocks([0], 0, 3, theta)
        assert_allclose(block[0], 1.0, rtol=0, atol=0)
        assert_allclose(block[1], np.cos(theta), rtol=0, atol=1e-15)

    def test_shorter_top_is_a_prefix(self):
        theta = both_schemes_nodes(40, 2)
        orders = [-40, -7, -2, 0, 1, 3, 25, 40]
        short = _wigner_d_blocks(orders, 2, 30, theta)
        full = _wigner_d_blocks(orders, 2, 40, theta)
        for m, a, b in zip(orders, short, full):
            assert a.shape[0] == max(30 - max(abs(m), 2) + 1, 0)
            assert np.array_equal(a, b[: a.shape[0]]), m

    @pytest.mark.parametrize("s", [0, 2])
    def test_seeds_beyond_factorial_range(self, s):
        # closed-form seeds at ell0 = 1100 and 1095, and the orders m = -s
        # (sin^0 at theta = 0) and m = 0 carried up to the same top
        theta = np.array([0.0, 1e-3, 0.3, math.pi / 2, 1.9, 3.0, math.pi])
        orders, top = [1100, -1100, 1095, -s, 0], 1110
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = _wigner_d_blocks(orders, s, top, theta)
        for m, block in zip(orders, blocks):
            l0 = max(abs(m), s)
            assert block.shape == (top - l0 + 1, theta.size)
            assert_matches_mp(block[0], l0, m, -s, theta)
            # after 1100 steps the recursion error at the poles is about
            # ell^2 eps: 1.7e-11 at theta = 0 for m = -s = -2
            assert_matches_mp(block[-1], top, m, -s, theta,
                              rtol=1e-11 if top - l0 < 100 else 3e-11)

    @pytest.mark.parametrize("s", [0, 2])
    def test_small_band_sweep_without_warnings(self, s):
        # every order, m = -s and s = m = 0 included, on nodes with both poles
        L = 24
        theta = both_schemes_nodes(L, s)
        orders = list(range(-L, L + 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = _wigner_d_blocks(orders, s, L, theta)
        for m, block in zip(orders, blocks):
            l0 = max(abs(m), s)
            assert_matches_mp(block[0], l0, m, -s, theta)
            # d^l_{m,-s}(0) = delta_{m,-s}, d^l_{m,-s}(pi) = (-1)^(l+m) delta_{m,s}
            ells = np.arange(l0, L + 1)
            assert_allclose(block[:, theta == 0.0].ravel(), float(m == -s) * np.ones(ells.size),
                            rtol=0, atol=1e-13)
            assert_allclose(block[:, -1], (m == s) * (-1.0) ** (ells + m), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("orders,s,top", [
        ([], 2, 10),            # no orders: no blocks
        ([3, -3, 3], 1, 12),    # repeated orders, both signs
        ([9, 2, -1], 2, 6),     # ell0 = 9 > top: a zero-row block
        ([4, -4, 0], 4, 4),     # top = ell0: one row each
        ([0], 0, 5),            # s = m = 0 starts at ell = 0
    ])
    def test_edge_cases_match_single_order_calls(self, orders, s, top):
        theta = both_schemes_nodes(8, s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = _wigner_d_blocks(orders, s, top, theta)
            alone = [_wigner_d_blocks([m], s, top, theta)[0] for m in orders]
        assert len(blocks) == len(orders)
        for m, block, single in zip(orders, blocks, alone):
            assert block.shape == (max(top - max(abs(m), s) + 1, 0), theta.size)
            assert np.array_equal(block, single), m

    def test_order_subsets_agree(self):
        # a block does not depend on which other orders share the pass
        theta = both_schemes_nodes(20, 1)
        alone = _wigner_d_blocks([5], 1, 20, theta)[0]
        mixed = _wigner_d_blocks([-20, 5, 0, 19], 1, 20, theta)[1]
        assert np.array_equal(alone, mixed)


class TestSpinSphHarm:
    def test_constant_mode(self):
        val = spin_sph_harm(0, 0, 0, 0.3, 1.1)
        assert_allclose(val, 1.0 / math.sqrt(4 * math.pi), rtol=1e-15)

    def test_addition_theorem_value(self):
        total = sum(
            abs(spin_sph_harm(2, m, 2, 0.9, 2.2)) ** 2 for m in range(-2, 3)
        )
        assert_allclose(total, 5.0 / (4 * math.pi), rtol=1e-13)

    def test_modulus_independent_of_phi(self):
        mods = [abs(spin_sph_harm(2, 1, 2, math.pi / 2, phi)) for phi in (0.0, 1.0, math.pi, 5.0)]
        assert_allclose(mods, mods[0], rtol=1e-14)

    def test_addition_theorem_sweep(self):
        assert addition_theorem_deviation(spin_sph_harm, l_max=20, s_max=3) < 1e-12

    def test_orthonormality_dense_quadrature(self):
        assert orthonormality_deviation(wigner_d, l_max=10, s_max=3) < 1e-10

    def test_conjugation_identity(self):
        # conj(Y_{l,m;s}) = (-1)^(s+m) Y_{l,-m;-s}
        for ell, m, s in [(2, 1, 2), (3, -2, 1), (4, 0, 3), (5, 4, 2)]:
            lhs = np.conj(spin_sph_harm(ell, m, s, 1.1, 2.3))
            rhs = (-1) ** (s + m) * spin_sph_harm(ell, -m, -s, 1.1, 2.3)
            assert_allclose(lhs, rhs, atol=1e-14)


class TestHarmonicIndex:
    def test_valid(self):
        idx = HarmonicIndex(3, -2, 1)
        assert (idx.ell, idx.m, idx.s) == (3, -2, 1)

    def test_invalid_ell(self):
        with pytest.raises(ValueError):
            HarmonicIndex(1, 0, 2)

    def test_negative_spin_rejected(self):
        with pytest.raises(ValueError):
            HarmonicIndex(2, 0, -1)
