import dataclasses
import gc
import math
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spinalias import (
    AliasClass,
    FieldSamples,
    HarmonicIndex,
    SpinCoefficients,
    aliased_coefficient,
    aliased_eb,
    build_grid_equiangular,
    build_grid_gauss,
    enumerate_aliases,
    h_q,
    i_n,
    synthesize,
    tau,
)
from spinalias import fieldsim
from spinalias.sampling import table_weights

from _invariants import (
    CellOracle,
    discrete_orthonormality_deviation,
    h_q_kronecker_deviation,
    i_n_halfgrid,
    parity_annihilation_deviation,
    spectral_vs_direct_deviation,
    tau_symmetry_deviation,
    wigner_d_jacobi,
)


@pytest.fixture(scope="module")
def gj_grid():
    return build_grid_gauss(6, 2, 1)


@pytest.fixture(scope="module")
def ea_grid():
    return build_grid_equiangular(6, 2, 1)


def with_table_weights(grid):
    """The grid re-weighted with the reference table's weight column."""
    return dataclasses.replace(grid, theta_weights=table_weights(grid))


class TestHQ:
    def test_all_phases_unity(self):
        assert_allclose(h_q(3, 3, 5), 2 * math.pi, rtol=1e-15)

    def test_on_lattice(self):
        assert_allclose(h_q(0, 2, 1), 2 * math.pi, rtol=1e-15)

    def test_off_lattice(self):
        assert h_q(0, 1, 2) == 0.0

    def test_direct_sum_agrees(self):
        assert h_q_kronecker_deviation() < 1e-12

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            h_q(0, 0, 0)


class TestIN:
    def test_exact_regime_diagonal(self, gj_grid):
        # quadrature reproduces the continuous norm 2/(2l+1)
        for ell in range(2, 4):
            for m in range(-ell, ell + 1):
                val = i_n(gj_grid, ell, m, ell, m, 2)
                assert_allclose(val, 2.0 / (2 * ell + 1), rtol=1e-12)

    def test_against_continuous_integral(self, gj_grid):
        # degree-4 integrand lies inside the exact regime of the rule;
        # oracle: numpy's own 50-point Gauss-Legendre rule in t = cos(theta)
        t50, w50 = np.polynomial.legendre.leggauss(50)
        theta = np.arccos(t50)
        oracle = float(
            (w50 * np.asarray(wigner_d_jacobi(2, 0, 2, theta))
             * np.asarray(wigner_d_jacobi(2, 2, 2, theta))).sum()
        )
        assert_allclose(i_n(gj_grid, 2, 0, 2, 2, 2), oracle, rtol=1e-12)

    def test_table_convention_value(self, gj_grid):
        # reference table value 0.7640 / kappa = 0.30560 (rounded print)
        val = i_n(with_table_weights(gj_grid), 2, 0, 2, 2, 2)
        assert abs(val - 0.30560) < 0.008

    def test_parity_annihilation_both_grids(self):
        assert parity_annihilation_deviation() < 1e-12

    def test_shared_grid_across_threads(self):
        # threads grow the same orders' blocks to different tops at once;
        # every reader must still get the single-threaded value
        cells = [(ell, m, u, v) for ell, m in [(2, 0), (5, -3), (9, 4)]
                 for u, v in [(ell + j, m + r) for j in range(0, 30, 3) for r in (-6, 0, 6)]
                 if u >= abs(v)]
        expected = {c: i_n(build_grid_gauss(12, 2, 3), *c, 2) for c in cells}
        grid = build_grid_gauss(12, 2, 3)

        def worker(k):
            order = np.random.default_rng(k).permutation(len(cells))
            return [(cells[i], i_n(grid, *cells[i], 2)) for i in order]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = [f.result(timeout=120) for f in
                           [pool.submit(worker, k) for k in range(8)]]
        finally:
            sys.setswitchinterval(old)
        for result in results:
            assert len(result) == len(cells)
            for cell, value in result:
                assert value == expected[cell], cell

    def test_index_errors(self, gj_grid):
        with pytest.raises(ValueError):
            i_n(gj_grid, 1, 0, 2, 0, 2)
        with pytest.raises(ValueError):
            i_n(gj_grid, 2, 0, 2, 3, 2)


class TestHalfGrid:
    def test_literal_doubling_on_even_gauss_grid(self, gj_grid):
        # even node count: doubling the lower half reproduces the full sum
        theta = gj_grid.theta_nodes
        w = gj_grid.theta_weights
        half = slice(0, gj_grid.n_theta // 2)
        for ell, m in [(2, 0), (3, 1), (4, -2)]:
            d1 = np.asarray(wigner_d_jacobi(ell, m, 2, theta))
            d2 = np.asarray(wigner_d_jacobi(ell, -m, 2, theta))
            full = float((w * d1 * d2).sum())
            folded = 2.0 * float((w[half] * d1[half] * d2[half]).sum())
            assert_allclose(folded, full, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["gauss", "equiangular"])
    @pytest.mark.parametrize("ell,m,s", [(2, 0, 2), (3, 2, 2), (5, -3, 2), (4, 4, 0)])
    def test_folded_matches_full(self, scheme, ell, m, s):
        build = build_grid_gauss if scheme == "gauss" else build_grid_equiangular
        grid = build(6 + s - 2, s, 1) if scheme == "equiangular" else build(6, s, 1)
        full = i_n(grid, ell, m, ell, -m, s)
        folded = i_n_halfgrid(grid, ell, m, ell, -m, s)
        assert_allclose(folded, full, atol=1e-12)


class TestTau:
    def test_reference_table_gauss(self, gj_grid):
        val = tau(with_table_weights(gj_grid), HarmonicIndex(2, 0, 2), 2, 2)
        assert abs(val - 0.7640) < 0.02

    def test_reference_table_equiangular(self, ea_grid):
        val = tau(with_table_weights(ea_grid), HarmonicIndex(2, 0, 2), 4, 4)
        assert abs(val - 0.8263) < 0.02

    def test_off_lattice_exact_zero(self, gj_grid, ea_grid):
        for grid in (gj_grid, ea_grid):
            assert tau(grid, HarmonicIndex(2, 0, 2), 3, 1) == 0.0

    @pytest.mark.parametrize("u,v", [(1, 5), (1, 2), (3, 4), (1, 1)])
    def test_invalid_alias_index_rejected(self, gj_grid, u, v):
        # rejected whether or not (u, v) lies on the lattice v = m (mod 2Q)
        with pytest.raises(ValueError, match="need u >= max"):
            tau(gj_grid, HarmonicIndex(2, 0, 2), u, v)

    def test_symmetry_sweep(self):
        assert tau_symmetry_deviation(l_max=8) < 1e-12

    def test_discrete_orthonormality(self):
        assert discrete_orthonormality_deviation(N=8, s=2, Q=2) < 1e-12

    def test_single_mode_field_equals_tau(self, gj_grid):
        # substituting one basis mode into the coefficient sum gives tau
        s = 2
        for u, v in [(2, 0), (3, 2), (4, -2), (5, 4)]:
            coeffs = SpinCoefficients.zeros(s, u)
            coeffs.set(u, v, 1.0)
            field = synthesize(coeffs, gj_grid)
            for ell in range(s, 5):
                for m in range(-ell, ell + 1):
                    direct = aliased_coefficient(field, HarmonicIndex(ell, m, s))
                    expected = tau(gj_grid, HarmonicIndex(ell, m, s), u, v)
                    assert abs(direct - expected) < 1e-12


class TestEnumerate:
    def test_q1_secondary_presence(self, gj_grid, ea_grid):
        # both schemes alias the worked-example source onto the same 12
        # secondary cells: (j, +-1) for j = 0..3 and (j, +-2) for j = 2, 3
        cells = {(j, r) for j in range(4) for r in (1, -1)}
        cells |= {(j, r) for j in (2, 3) for r in (2, -2)}
        for grid in (gj_grid, ea_grid):
            amap = enumerate_aliases(HarmonicIndex(2, 0, 2), grid, u_max=5)
            secondary = {(e.j, e.r) for e in amap.entries if e.klass is AliasClass.SECONDARY}
            assert secondary == {(e.j, e.r) for e in amap.entries} == cells, grid.scheme

    @pytest.mark.parametrize("build", [build_grid_gauss, build_grid_equiangular])
    def test_matches_cell_oracle(self, build):
        grid = build(8, 2, 2)
        oracle = CellOracle(grid, 2)
        for ell, m in [(2, 0), (3, -2), (5, 3)]:
            amap = enumerate_aliases(HarmonicIndex(ell, m, 2), grid, u_max=40)
            expected = oracle.aliases(ell, m, 40)
            got = {(e.alias.ell, e.alias.m, e.j, e.r): (e.klass, e.tau) for e in amap.entries}
            assert got.keys() == expected.keys()
            for cell, (klass, value) in expected.items():
                assert got[cell][0] is klass
                assert abs(got[cell][1] - value) <= 1e-12

    @pytest.mark.parametrize("build", [build_grid_gauss, build_grid_equiangular])
    def test_benchmark_scale_walk(self, build):
        grid = build(16, 2, 4)
        last_secondary = grid.N - grid.s - 1
        for ell, m in [(12, -12), (7, -3), (2, 0), (9, 5)]:
            source = HarmonicIndex(ell, m, 2)
            amap = enumerate_aliases(source, grid, u_max=200)
            assert amap.source == source
            keys = [(e.distance, e.j, e.r) for e in amap.entries]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for e in amap.entries:
                assert e.distance == math.hypot(e.j, e.alias.m - m)
                assert e.klass is (AliasClass.PRIMARY if e.j > last_secondary
                                   else AliasClass.SECONDARY)
                assert (e.j, e.intensity) == (e.alias.ell - ell, abs(e.tau))
                # tau() and the walk agree to rounding in the last digit
                assert abs(tau(grid, source, e.alias.ell, e.alias.m) - e.tau) <= 1e-15

    def test_kept_map_frees_its_grid(self):
        # the map holds its source and entries only, so the grid and its
        # Wigner-d tables go when the grid does
        grid = build_grid_gauss(16, 2, 4)
        amap = enumerate_aliases(HarmonicIndex(7, 3, 2), grid, u_max=60)
        ref = weakref.ref(grid)
        del grid
        gc.collect()
        assert ref() is None and amap.entries

    @pytest.mark.parametrize("build", [build_grid_gauss, build_grid_equiangular])
    def test_benchmark_grid_matches_cell_oracle(self, build):
        grid = build(16, 2, 4)
        oracle = CellOracle(grid, 2)
        for ell, m in [(9, -5), (4, 3)]:
            amap = enumerate_aliases(HarmonicIndex(ell, m, 2), grid, u_max=60)
            expected = oracle.aliases(ell, m, 60)
            got = {(e.alias.ell, e.alias.m, e.j, e.r): (e.klass, e.tau) for e in amap.entries}
            assert got.keys() == expected.keys()
            for cell, (klass, value) in expected.items():
                assert got[cell][0] is klass
                assert abs(got[cell][1] - value) <= 1e-12

    def test_q_large_removes_secondaries(self):
        grid = build_grid_gauss(6, 2, 5)  # Q = N - s + 1
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), grid)
        assert all(e.klass is AliasClass.PRIMARY for e in amap.entries)

    def test_q2_boundary_cells_persist(self):
        # v = +-4 secondary cells sit on the Q=2 lattice at |v| = u and survive
        grid = build_grid_gauss(6, 2, 2)
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), grid, u_max=5)
        secondary = {(e.j, e.r): e for e in amap.entries if e.klass is AliasClass.SECONDARY}
        assert (2, 1) in secondary and (2, -1) in secondary
        assert secondary[(2, 1)].alias.m == 4
        assert secondary[(2, 1)].intensity > 0.5

    def test_identity_excluded(self, gj_grid):
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), gj_grid, u_max=6)
        assert all((e.j, e.r) != (0, 0) for e in amap.entries)

    def test_sorted_and_unique(self, gj_grid):
        amap = enumerate_aliases(HarmonicIndex(2, 1, 2), gj_grid, u_max=8)
        dists = [e.distance for e in amap.entries]
        assert dists == sorted(dists)
        cells = [(e.j, e.r) for e in amap.entries]
        assert len(cells) == len(set(cells))

    def test_distance_definition(self, gj_grid):
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), gj_grid, u_max=6)
        by_cell = {(e.j, e.r): e for e in amap.entries}
        assert_allclose(by_cell[(0, 1)].distance, 2.0, rtol=1e-15)
        assert_allclose(by_cell[(2, 1)].distance, math.hypot(2, 2), rtol=1e-15)

    def test_odd_j_r0_dropped(self, gj_grid):
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), gj_grid, u_max=12)
        r0 = [(e.j, e.r) for e in amap.entries if e.r == 0]
        assert all(j % 2 == 0 for j, _ in r0)
        # even primary offsets at r=0 are present (the doubled-offset cells)
        assert (4, 0) in r0 and (6, 0) in r0

    def test_intensity_floor(self, gj_grid):
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), gj_grid, u_max=8)
        assert all(e.intensity > 1e-12 for e in amap.entries)

    def test_default_umax(self, gj_grid):
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), gj_grid)
        assert amap.u_max == 2 + 4 * (6 - 2)

    def test_umax_validation(self, gj_grid):
        with pytest.raises(ValueError):
            enumerate_aliases(HarmonicIndex(3, 0, 2), gj_grid, u_max=2)

    def test_distance_report(self):
        grid = build_grid_gauss(6, 2, 5)
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), grid)
        # entries are sorted by distance; the nearest surviving alias is the
        # first even primary offset at r=0, nearer than the first full wrap
        # at sqrt((N-s)^2 + (2N)^2) = hypot(4, 12)
        assert amap.entries[0].distance == 4.0
        assert amap.entries[0].distance < math.hypot(4, 12)


class TestAliasedCoefficient:
    def test_zero_field(self, gj_grid):
        field = FieldSamples(gj_grid, np.zeros((4, 2), dtype=complex))
        assert aliased_coefficient(field, HarmonicIndex(2, 0, 2)) == 0.0

    def test_shape_mismatch(self, gj_grid):
        field = FieldSamples.__new__(FieldSamples)
        field.grid = gj_grid
        field.values = np.zeros((3, 2), dtype=complex)
        with pytest.raises(ValueError):
            aliased_coefficient(field, HarmonicIndex(2, 0, 2))

    def test_spectral_vs_direct(self):
        assert spectral_vs_direct_deviation() < 1e-10


class TestAliasedEB:
    def test_parts_sum_to_coefficient(self, gj_grid):
        s = 2
        coeffs = SpinCoefficients.zeros(s, 4)
        rng = np.random.default_rng(5)
        for ell, m in coeffs.indices():
            coeffs.set(ell, m, complex(rng.standard_normal(), rng.standard_normal()))
        field = synthesize(coeffs, gj_grid)
        for ell, m in [(2, 0), (3, 1), (4, -2)]:
            a_e, a_b = aliased_eb(coeffs, gj_grid, ell, m)
            direct = aliased_coefficient(field, HarmonicIndex(ell, m, s))
            assert abs((a_e + a_b) - direct) < 1e-12

    def test_magnetic_part_vanishes_for_real_m0(self, gj_grid):
        # a real m=0 mode makes the +-m coefficients conjugate, so B = 0
        coeffs = SpinCoefficients.zeros(2, 4)
        coeffs.set(2, 0, 1.0)
        a_e, a_b = aliased_eb(coeffs, gj_grid, 2, 0)
        assert abs(a_b) < 1e-14
        assert abs(a_e - 1.0) < 1e-12

    def test_electric_part_vanishes_for_imaginary_m0(self, gj_grid):
        coeffs = SpinCoefficients.zeros(2, 4)
        coeffs.set(2, 0, 1.0j)
        a_e, a_b = aliased_eb(coeffs, gj_grid, 2, 0)
        assert abs(a_e) < 1e-14
        assert abs(a_b - 1.0j) < 1e-12

    @pytest.mark.parametrize("ell,m", [(2, -3), (2, 3), (1, 0)])
    def test_index_checked_before_synthesis(self, gj_grid, monkeypatch, ell, m):
        # the message names the caller's (ell, m), not the mirror -m or an L_max
        def must_not_run(*args, **kwargs):
            raise AssertionError("the field was synthesized")

        monkeypatch.setattr(fieldsim, "synthesize", must_not_run)
        coeffs = SpinCoefficients.zeros(2, 4)
        with pytest.raises(ValueError, match=re.escape(
                f"need ell >= max(|m|, s): got (ell={ell}, m={m}, s=2)")):
            aliased_eb(coeffs, gj_grid, ell, m)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1, -1], ids=["E", "B"])
    def test_split_phase(self, s, m, sign):
        # a_{ell,-m} = sign (-1)^(m+s) conj(a_{ell,m}) is pure E for sign +1
        # and pure B for sign -1, on a grid that aliases nothing below 8
        ell, phase = 4, sign * (-1) ** (m + s)
        a = complex(0.6, -1.3)
        if m == 0:
            a = 0.5 * (a + phase * a.conjugate())
        coeffs = SpinCoefficients.zeros(s, ell)
        coeffs.set(ell, m, a)
        coeffs.set(ell, -m, phase * a.conjugate())
        a_e, a_b = aliased_eb(coeffs, build_grid_gauss(s + 8, s, 8), ell, m)
        kept, dropped = (a_e, a_b) if sign == 1 else (a_b, a_e)
        assert abs(kept - a) < 1e-12
        assert abs(dropped) < 1e-12
