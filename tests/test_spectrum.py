import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinalias import (
    AngularPowerSpectrum,
    HarmonicIndex,
    SamplingGrid,
    SamplingScheme,
    aliased_spectrum,
    build_grid_equiangular,
    build_grid_gauss,
    circular_covariance,
    enumerate_aliases,
    verify_bandlimit,
    wigner_d,
    xi_factors,
)

from _invariants import CellOracle, wigner_d_jacobi

SCHEMES = [build_grid_gauss, build_grid_equiangular]


def class_routes(grid, ells, u_max, s=2):
    """The route ``aliased_spectrum`` takes per residue class, from the class's shape.

    R rows (ell, m) at the listed ell, C columns (u, v) with u <= u_max and
    n mirror-closed nodes: the kernel when n (R + C) < R C, else the product.
    """
    two_q, n = 2 * grid.Q, grid._nodes.size
    rows = Counter(m % two_q for ell in set(ells) for m in range(-ell, ell + 1))
    cols = Counter(v % two_q for u in range(s, u_max + 1) for v in range(-u, u + 1))
    return ["kernel" if n * (rows[c] + cols[c]) < rows[c] * cols[c] else "product"
            for c in rows if cols[c]]


@pytest.fixture(scope="module")
def grid():
    return build_grid_gauss(6, 2, 1)


class TestAngularPowerSpectrum:
    def test_total(self):
        spec = AngularPowerSpectrum(2, 4, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 0.5]))
        assert_allclose(spec.C_total, [1.5, 2.5, 3.5])
        assert spec.total_at(3) == 2.5

    def test_flat(self):
        spec = AngularPowerSpectrum.flat(2, 5)
        assert_allclose(spec.C_total, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AngularPowerSpectrum(2, 4, np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            AngularPowerSpectrum(2, 3, np.array([1.0, -0.1]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="need 0 <= s <= L_max, got s=-1, L_max=3"):
            AngularPowerSpectrum.flat(-1, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AngularPowerSpectrum(2, 3, np.array([1.0, bad]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="finite"):
            AngularPowerSpectrum(2, 3, np.array([1.0, 0.0]), np.array([bad, 0.0]))

    @pytest.mark.parametrize("s,L_max,n", [(-1, 3, 5), (3, 1, 0), (3, 2, 0)])
    def test_band_rejected(self, s, L_max, n):
        # a negative spin, or a band ending below s, is named as such
        with pytest.raises(ValueError, match=f"need 0 <= s <= L_max, got s={s}, L_max={L_max}"):
            AngularPowerSpectrum(s, L_max, np.zeros(n), np.zeros(n))

    def test_out_of_range(self):
        spec = AngularPowerSpectrum.flat(2, 4)
        with pytest.raises(ValueError):
            spec.total_at(5)


class TestXiFactors:
    def test_exact_regime_identity(self):
        # with Q large enough only the r=0 cell is on the lattice, and in
        # the exact regime it carries unit weight: xi0 = 1
        wide = build_grid_gauss(6, 2, 5)
        for ell, m in [(2, 0), (2, 1), (3, -2)]:
            f = xi_factors(wide, ell, m, ell, 2)
            assert_allclose(f.xi, 0.0, atol=1e-24)
            assert_allclose(f.xi0, 1.0, rtol=1e-12)

    def test_non_negative(self, grid):
        for ell_prime in range(2, 9):
            for m in (-2, 0, 1):
                f = xi_factors(grid, 2, m, ell_prime, 2)
                assert f.xi >= 0 and f.xi0 >= 0

    def test_consistency_with_enumeration(self, grid):
        # xi0 equals the tau^2 mass of the enumerated cells at each degree,
        # plus the identity cell at the source degree
        source = HarmonicIndex(2, 1, 2)
        amap = enumerate_aliases(source, grid, u_max=10)
        for ell_prime in range(2, 11):
            total = sum(e.tau**2 for e in amap.entries if e.alias.ell == ell_prime)
            if ell_prime == source.ell:
                from spinalias import tau as tau_fn

                total += tau_fn(grid, source, source.ell, source.m) ** 2
            f = xi_factors(grid, source.ell, source.m, ell_prime, 2)
            assert abs(f.xi0 - total) < 1e-12

    @pytest.mark.parametrize("build", SCHEMES)
    def test_matches_cell_oracle(self, build):
        # round-off zeros (parity-annihilated cells) are ~1e-30, hence the atol
        grid = build(8, 2, 2)
        oracle = CellOracle(grid, 2)
        for ell, m in [(2, 0), (3, -2), (5, 3)]:
            for ell_prime in range(2, 41):
                f = xi_factors(grid, ell, m, ell_prime, 2)
                xi, xi0 = oracle.xi(ell, m, ell_prime)
                assert_allclose([f.xi, f.xi0], [xi, xi0], rtol=1e-12, atol=1e-24)

    def test_xi_excludes_central_wrap(self, grid):
        # at the source degree the r=0 cell is the identity: xi < xi0
        f = xi_factors(grid, 2, 0, 2, 2)
        assert f.xi0 - f.xi == pytest.approx(1.0, rel=1e-12)

    def test_m0_structural_zero(self, grid):
        # at m = 0 the r = 0 cell of an odd degree offset is a parity zero
        # on a mirror-symmetric grid, so xi0 carries no extra mass there
        for g in (grid, build_grid_equiangular(6, 2, 1)):
            for ell, ell_prime in [(2, 3), (2, 7), (3, 8), (4, 11)]:
                f = xi_factors(g, ell, 0, ell_prime, 2)
                assert abs(f.xi0 - f.xi) <= 1e-28, g.scheme

    def test_empty_grid_gives_zero(self):
        empty = SamplingGrid(
            SamplingScheme.GAUSS_JACOBI, 6, 2, 1,
            np.empty(0), np.empty(0),
        )
        f = xi_factors(empty, 2, 0, 4, 2)
        assert f.xi == 0.0 and f.xi0 == 0.0

    def test_empty_residue_class_gives_zero(self):
        # no order v = 5 (mod 8) lies within ell' = 2
        f = xi_factors(build_grid_gauss(16, 2, 4), 5, 5, 2, 2)
        assert f.xi == 0.0 and f.xi0 == 0.0


class TestAliasedSpectrum:
    def test_zero_spectrum(self, grid):
        spec = AngularPowerSpectrum(2, 8, np.zeros(7), np.zeros(7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # u_max = L_max drops no degree of the spectrum
            out = aliased_spectrum(grid, spec, [2, 3, 4], u_max=8)
        assert out == [0.0, 0.0, 0.0]

    def test_bandlimited_fixed_point(self):
        # N - s and Q both exceed the band limit: prediction returns the input
        spec = AngularPowerSpectrum(
            2, 3, np.array([0.7, 1.3]), np.array([0.3, 0.2])
        )
        for grid in (build_grid_gauss(8, 2, 5), build_grid_equiangular(8, 2, 5)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = aliased_spectrum(grid, spec, [2, 3], u_max=3)
            assert_allclose(out, spec.C_total, rtol=1e-10, err_msg=grid.scheme.value)

    @pytest.mark.parametrize("build", SCHEMES)
    def test_matches_cell_oracle(self, build):
        grid = build(8, 2, 2)
        rng = np.random.default_rng(11)
        spec = AngularPowerSpectrum(2, 40, rng.uniform(0.1, 1.0, 39), rng.uniform(0.1, 1.0, 39))
        ells = [2, 3, 5, 8]
        expected = CellOracle(grid, 2).spectrum(spec, ells, 40)
        out = aliased_spectrum(grid, spec, ells, u_max=40)
        assert_allclose(out, expected, rtol=1e-12)

    def test_truncation_warning(self):
        # ell + 2(N - s) = 10: u_max = L_max = 8 drops nothing the spectrum holds,
        # u_max = 8 < L_max = 10 and u_max = 7 < L_max = 8 drop degrees it holds
        for grid in (build_grid_gauss(6, 2, 1), build_grid_equiangular(6, 2, 1)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                aliased_spectrum(grid, AngularPowerSpectrum.flat(2, 8), [2], u_max=8)
            with pytest.warns(UserWarning) as caught:
                aliased_spectrum(grid, AngularPowerSpectrum.flat(2, 10), [2], u_max=8)
            assert [str(w.message) for w in caught] == [
                "u_max=8 may truncate aliases of ell=2 "
                "(nearest wrap-around degrees extend past it)"]
            with pytest.warns(UserWarning, match="u_max=7 may truncate aliases of ell=2"):
                aliased_spectrum(grid, AngularPowerSpectrum.flat(2, 8), [2], u_max=7)

    def test_umax_validation(self, grid):
        spec = AngularPowerSpectrum.flat(2, 4)
        with pytest.raises(ValueError):
            aliased_spectrum(grid, spec, [2], u_max=6)

    @pytest.mark.parametrize("u_max", [1, 0])
    def test_umax_below_spin_rejected(self, grid, u_max):
        # no degree u >= s is left to sum over
        spec = AngularPowerSpectrum.flat(2, 6)
        with pytest.raises(ValueError, match=f"need u_max >= s, got u_max={u_max} < s=2"):
            aliased_spectrum(grid, spec, [2, 3], u_max=u_max)

    @pytest.mark.parametrize("build", SCHEMES)
    @pytest.mark.parametrize("Q,ells,u_max", [
        (5, [3, 2], 12),         # 2Q > 2 ell_max + 1: the classes are not 0 .. 2 ell_max
        (9, [2, 4, 3], 8),       # Q > u_max: each class holds one order
        (2, [5, 2, 5, 3], 20),   # unsorted, with a repeated degree
    ])
    def test_sparse_residue_classes_match_cell_oracle(self, build, Q, ells, u_max):
        grid = build(8, 2, Q)
        rng = np.random.default_rng(Q)
        spec = AngularPowerSpectrum(2, u_max, rng.uniform(0.1, 1.0, u_max - 1),
                                    rng.uniform(0.1, 1.0, u_max - 1))
        oracle = CellOracle(grid, 2)
        out = aliased_spectrum(grid, spec, ells, u_max=u_max)
        assert_allclose(out, oracle.spectrum(spec, ells, u_max), rtol=1e-12)
        for ell in sorted(set(ells)):
            for m in range(-ell, ell + 1):
                for u in range(2, u_max + 1):
                    f = xi_factors(grid, ell, m, u, 2)
                    assert_allclose([f.xi, f.xi0], oracle.xi(ell, m, u), rtol=1e-12, atol=1e-24)

    @pytest.mark.parametrize("build", SCHEMES)
    def test_empty_degree_list(self, build):
        assert aliased_spectrum(build(8, 2, 5), AngularPowerSpectrum.flat(2, 12), [], 12) == []

    @pytest.mark.parametrize("build", SCHEMES)
    @pytest.mark.parametrize("route,N,Q,ells,u_max", [
        ("kernel", 6, 1, [2, 4, 7, 8], 14),
        ("product", 10, 8, range(2, 8), 7),  # N - s = Q = L + 1, ell, u <= L = 7
    ], ids=["kernel", "product"])
    def test_routes_match_cell_oracle(self, build, route, N, Q, ells, u_max):
        grid = build(N, 2, Q)
        assert set(class_routes(grid, ells, u_max)) == {route}
        rng = np.random.default_rng(N)
        size = u_max - 1
        spec = AngularPowerSpectrum(2, u_max, rng.uniform(0.1, 1.0, size),
                                    rng.uniform(0.1, 1.0, size))
        out = aliased_spectrum(grid, spec, ells, u_max=u_max)
        assert_allclose(out, CellOracle(grid, 2).spectrum(spec, ells, u_max), rtol=1e-12)

    @pytest.mark.parametrize("build", SCHEMES)
    @pytest.mark.parametrize("seed", [1, 50, 1000])
    def test_chunked_rows_match_cell_oracle(self, build, seed):
        # the rows of a class taken whole and one degree at a time, on the kernel route
        grid = build(6, 2, 1)
        ells = [2, 4, 7, 8]
        assert set(class_routes(grid, ells, 14)) == {"kernel"}
        rng = np.random.default_rng(seed)
        spec = AngularPowerSpectrum(2, 14, rng.uniform(0.1, 1.0, 13), rng.uniform(0.1, 1.0, 13))
        out = aliased_spectrum(grid, spec, ells, u_max=14)
        one_at_a_time = [aliased_spectrum(grid, spec, [ell], u_max=14)[0] for ell in ells]
        expected = CellOracle(grid, 2).spectrum(spec, ells, 14)
        assert_allclose(out, expected, rtol=1e-12)
        assert_allclose(one_at_a_time, expected, rtol=1e-12)

    @pytest.mark.parametrize("build", SCHEMES)
    def test_sparse_spectra_non_negative(self, build):
        # with N - s = 6 and Q = 4 the cross sums of ell, u <= 5 at v = m vanish,
        # so one multipole at u = 3 (or 3 and 5) leaves C~_2 and C~_4 (C~_2) at 0
        grid, ells, u_max = build(8, 2, 4), list(range(2, 13)), 20
        assert "kernel" in class_routes(grid, ells, u_max)
        oracle = CellOracle(grid, 2)
        transfer = np.array([[sum(oracle.xi(ell, m, u)[1] for m in range(-ell, ell + 1))
                              / (2 * ell + 1) for u in range(2, u_max + 1)] for ell in ells])
        assert np.all(transfer[[0, 2], 1] < 1e-25) and np.all(transfer[0, [1, 3]] < 1e-25)
        for multipoles in [[3], [3, 5], [2], [7], [12], [20], [4, 17], [11, 12]]:
            c_e = np.zeros(u_max - 1)
            c_e[np.array(multipoles) - 2] = 1.0
            spec = AngularPowerSpectrum(2, u_max, c_e, np.zeros(u_max - 1))
            out = np.array(aliased_spectrum(grid, spec, ells, u_max=u_max))
            expected = transfer @ c_e
            assert np.all(out >= 0), multipoles
            assert np.all(np.abs(out - expected) <= 1e-12 * expected + 4e-15 * out.max()), multipoles

    def test_product_memory_bounded_at_q1(self):
        # at Q = 1 a class holds about 8.3k rows and 8.3k columns here: their
        # product and its square would take about 530 MB
        grid = build_grid_gauss(16, 2, 1)
        spec = AngularPowerSpectrum.flat(2, 128)
        ells = list(range(2, 129))
        aliased_spectrum(grid, spec, ells, u_max=128)  # build and cache the blocks
        tracemalloc.start()
        try:
            aliased_spectrum(grid, spec, ells, u_max=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestCircularCovariance:
    def test_at_zero_separation(self):
        spec = AngularPowerSpectrum(2, 4, np.array([1.0, 0.5, 0.25]), np.zeros(3))
        expected = sum(
            (2 * ell + 1) / (4 * math.pi) * spec.total_at(ell) for ell in range(2, 5)
        )
        assert_allclose(circular_covariance(spec, 0.0), expected, rtol=1e-14)

    def test_zero_spectrum(self):
        spec = AngularPowerSpectrum(2, 4, np.zeros(3), np.zeros(3))
        assert circular_covariance(spec, 1.0) == 0.0

    @pytest.mark.parametrize("ell,s", [(3, 2), (5, 1), (4, 0)])
    def test_single_multipole_matches_wigner_diagonal(self, ell, s):
        # the covariance of one multipole is proportional to d^ell_{s,s}
        n = ell - s + 1
        c_e = np.zeros(n)
        c_e[-1] = 1.0
        spec = AngularPowerSpectrum(s, ell, c_e, np.zeros(n))
        for theta in (0.0, 0.4, 1.3, 2.2, math.pi):
            expected = (2 * ell + 1) / (4 * math.pi) * wigner_d_jacobi(ell, s, -s, theta)
            assert_allclose(circular_covariance(spec, theta), expected, atol=1e-13)

    def test_domain(self):
        spec = AngularPowerSpectrum.flat(0, 2)
        with pytest.raises(ValueError):
            circular_covariance(spec, 4.0)

    @pytest.mark.parametrize("theta", [
        -1e-12, -2e-9, 0.0, math.pi, math.pi + 1e-10, math.pi + 2e-9, 4.0, math.nan, math.inf,
    ])
    def test_accepts_what_wigner_d_accepts(self, theta):
        spec = AngularPowerSpectrum.flat(2, 4)
        try:
            wigner_d(4, 2, 2, theta)
        except ValueError:
            with pytest.raises(ValueError, match="colatitude"):
                circular_covariance(spec, theta)
        else:
            assert math.isfinite(circular_covariance(spec, theta))


class TestVerifyBandlimit:
    def test_passing_configuration(self):
        report = verify_bandlimit(4, 2, 8, 8, seed=1)
        assert report.passed and report.max_abs_error < 1e-10

    def test_failing_configuration(self):
        report = verify_bandlimit(4, 2, 4, 8, seed=1)
        assert not report.passed and report.max_abs_error > 1e-3

    def test_n_above_l0_but_too_few_nodes(self):
        # N > L0 alone is not enough for spin 2: the node count is N - s
        report = verify_bandlimit(4, 2, 5, 8, seed=1)
        assert not report.passed

    def test_constant_mode(self):
        report = verify_bandlimit(0, 0, 1, 1, seed=3)
        assert report.passed

    def test_invalid(self):
        with pytest.raises(ValueError):
            verify_bandlimit(1, 2, 8, 8, seed=0)
