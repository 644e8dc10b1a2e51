import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinalias import (
    AngularPowerSpectrum,
    FieldSamples,
    HarmonicIndex,
    SpinCoefficients,
    aliased_coefficient,
    analyze,
    build_grid_equiangular,
    build_grid_gauss,
    monte_carlo_spectrum,
    sample_gaussian_coeffs,
    synthesize,
)
from spinalias import fieldsim, spectrum

from _invariants import gaussian_coeffs_loop, spin_sph_harm_jacobi


@pytest.fixture(scope="module")
def grid():
    return build_grid_gauss(6, 2, 1)


@pytest.fixture(scope="module")
def exact_grids():
    # alias-free for fields band-limited at 4 with spin 2, one per scheme
    return build_grid_gauss(8, 2, 8), build_grid_equiangular(8, 2, 8)


class TestSpinCoefficients:
    def test_zeros_shape(self):
        c = SpinCoefficients.zeros(2, 5)
        assert c.values.shape == (6, 11)
        assert all(c.get(ell, m) == 0 for ell, m in c.indices())

    def test_set_get_roundtrip(self):
        c = SpinCoefficients.zeros(1, 3)
        c.set(2, -1, 1.5 - 0.5j)
        assert c.get(2, -1) == 1.5 - 0.5j

    def test_invalid_index(self):
        c = SpinCoefficients.zeros(2, 4)
        with pytest.raises(ValueError):
            c.get(1, 0)
        with pytest.raises(ValueError):
            c.set(3, 4, 1.0)

    def test_lmax_below_spin(self):
        with pytest.raises(ValueError):
            SpinCoefficients.zeros(3, 2)


class TestSynthesize:
    def test_single_mode_equals_basis(self, grid):
        coeffs = SpinCoefficients.zeros(2, 3)
        coeffs.set(2, 0, 1.0)
        field = synthesize(coeffs, grid)
        for p, theta in enumerate(grid.theta_nodes):
            for q, phi in enumerate(grid.phi_nodes):
                assert_allclose(
                    field.values[p, q], spin_sph_harm_jacobi(2, 0, 2, theta, phi), atol=1e-14
                )

    def test_zero_coefficients(self, grid):
        field = synthesize(SpinCoefficients.zeros(2, 4), grid)
        assert np.all(field.values == 0)

    def test_linearity(self, grid):
        rng = np.random.default_rng(3)
        c1 = SpinCoefficients.zeros(2, 4)
        c2 = SpinCoefficients.zeros(2, 4)
        for ell, m in c1.indices():
            c1.set(ell, m, complex(*rng.standard_normal(2)))
            c2.set(ell, m, complex(*rng.standard_normal(2)))
        csum = SpinCoefficients(2, 4, c1.values + c2.values)
        lhs = analyze(synthesize(csum, grid), 2, 4)
        rhs = analyze(synthesize(c1, grid), 2, 4).values + analyze(
            synthesize(c2, grid), 2, 4
        ).values
        assert np.abs(lhs.values - rhs).max() < 1e-12


class TestGaussianDraws:
    def test_zero_spectrum(self):
        spec = AngularPowerSpectrum(2, 5, np.zeros(4), np.zeros(4))
        coeffs = sample_gaussian_coeffs(spec, 5, seed=11)
        assert np.all(coeffs.values == 0)

    def test_determinism(self):
        spec = AngularPowerSpectrum.flat(2, 6)
        a = sample_gaussian_coeffs(spec, 6, seed=42)
        b = sample_gaussian_coeffs(spec, 6, seed=42)
        assert np.array_equal(a.values, b.values)

    def test_seed_sensitivity(self):
        spec = AngularPowerSpectrum.flat(2, 6)
        a = sample_gaussian_coeffs(spec, 6, seed=42)
        b = sample_gaussian_coeffs(spec, 6, seed=43)
        assert not np.array_equal(a.values, b.values)

    def test_second_moments(self):
        # mean |a|^2 concentrates within 5 standard errors of C_E + C_B
        spec = AngularPowerSpectrum(2, 2, np.array([0.75]), np.array([0.25]))
        n = 10_000
        draws = np.array(
            [sample_gaussian_coeffs(spec, 2, seed=seed).get(2, 1) for seed in range(n)]
        )
        mean_sq = np.mean(np.abs(draws) ** 2)
        target = 1.0
        stderr = target / math.sqrt(n)  # |a|^2 is exponential with variance C^2
        assert abs(mean_sq - target) < 5 * stderr

    def test_bandlimit_respected(self):
        spec = AngularPowerSpectrum.flat(2, 8)
        coeffs = sample_gaussian_coeffs(spec, 4, seed=1)
        assert coeffs.L_max == 4

    def test_l0_above_spectrum_rejected(self):
        spec = AngularPowerSpectrum.flat(2, 4)
        with pytest.raises(ValueError, match="got L0=6, s=2, L_max=4"):
            sample_gaussian_coeffs(spec, 6, seed=0)

    def test_l0_below_spin_rejected(self):
        with pytest.raises(ValueError, match="need s <= L0 <= spectrum L_max, got L0=1, s=2"):
            sample_gaussian_coeffs(AngularPowerSpectrum.flat(2, 8), 1, seed=0)


class TestAnalyze:
    def test_matches_aliased_coefficient(self, grid):
        spec = AngularPowerSpectrum.flat(2, 5)
        coeffs = sample_gaussian_coeffs(spec, 5, seed=9)
        field = synthesize(coeffs, grid)
        tilde = analyze(field, 2, 5)
        for ell, m in tilde.indices():
            assert_allclose(
                tilde.get(ell, m),
                aliased_coefficient(field, HarmonicIndex(ell, m, 2)),
                atol=1e-13,
            )

    def test_roundtrip_exact(self, exact_grids):
        spec = AngularPowerSpectrum.flat(2, 4)
        coeffs = sample_gaussian_coeffs(spec, 4, seed=21)
        for grid in exact_grids:
            tilde = analyze(synthesize(coeffs, grid), 2, 4)
            assert np.abs(tilde.values - coeffs.values).max() < 1e-10, grid.scheme

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_roundtrip_sweep(self, data):
        # any band L0 <= 24 round-trips on both schemes once N - s > L0 and Q > L0
        s = data.draw(st.integers(0, 3), label="s")
        L0 = data.draw(st.integers(s, 24), label="L0")
        n = L0 + data.draw(st.integers(1, 6), label="extra nodes")
        Q = L0 + data.draw(st.integers(1, 6), label="extra longitudes")
        if data.draw(st.booleans(), label="equiangular"):
            grid = build_grid_equiangular(s + n + n % 2, s, Q)
        else:
            grid = build_grid_gauss(s + n, s, Q)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        coeffs = sample_gaussian_coeffs(AngularPowerSpectrum.flat(s, L0), L0, seed)
        tilde = analyze(synthesize(coeffs, grid), s, L0)
        assert np.abs(tilde.values - coeffs.values).max() <= 1e-12

    def test_energy_conservation(self, exact_grids):
        spec = AngularPowerSpectrum.flat(2, 4)
        coeffs = sample_gaussian_coeffs(spec, 4, seed=33)
        in_energy = float((np.abs(coeffs.values) ** 2).sum())
        for grid in exact_grids:
            tilde = analyze(synthesize(coeffs, grid), 2, 4)
            out_energy = float((np.abs(tilde.values) ** 2).sum())
            assert abs(in_energy - out_energy) < 1e-10, grid.scheme

    @pytest.mark.parametrize("s", [0, 2])
    def test_dense_basis_oracle(self, s):
        # the field summed mode by mode from the Jacobi-form harmonics, which
        # share no code with the Wigner-d blocks behind synthesize/analyze
        L0 = 6
        coeffs = sample_gaussian_coeffs(AngularPowerSpectrum.flat(s, L0), L0, seed=17)
        for grid in (build_grid_gauss(s + L0 + 1, s, L0 + 1),
                     build_grid_equiangular(s + L0 + 2, s, L0 + 1)):
            theta, phi = grid.theta_nodes[:, None], grid.phi_nodes[None, :]
            dense = sum(coeffs.get(ell, m) * spin_sph_harm_jacobi(ell, m, s, theta, phi)
                        for ell, m in coeffs.indices())
            assert np.abs(synthesize(coeffs, grid).values - dense).max() < 1e-12, grid.scheme
            tilde = analyze(FieldSamples(grid, dense), s, L0)
            assert np.abs(tilde.values - coeffs.values).max() < 1e-12, grid.scheme

    def test_tables_freed_with_grid(self):
        # the Wigner-d tables belong to the grid, so dropping it frees them
        grid = build_grid_gauss(10, 2, 6)
        coeffs = sample_gaussian_coeffs(AngularPowerSpectrum.flat(2, 5), 5, seed=4)
        field = synthesize(coeffs, grid)
        analyze(field, 2, 5)
        ref = weakref.ref(grid)
        del grid, field
        gc.collect()
        assert ref() is None

    def test_tables_built_only_for_asked_orders(self):
        # a single-mode field needs the table of its own order only
        grid = build_grid_gauss(44, 2, 41)
        coeffs = SpinCoefficients.zeros(2, 40)
        coeffs.set(40, 3, 1.0)
        synthesize(coeffs, grid)
        assert list(grid._d_tables) == [(3, 2)]
        assert grid._d_tables[(3, 2)].shape == (38, grid.n_theta)

    def test_negative_order_reads_its_mirror_table(self):
        # order -3 is served by the table of order 3, read reversed
        grid = build_grid_gauss(44, 2, 41)
        coeffs = SpinCoefficients.zeros(2, 40)
        coeffs.set(40, -3, 1.0)
        synthesize(coeffs, grid)
        assert list(grid._d_tables) == [(3, 2)]

    def test_analysis_tables_are_orders_m_ge_0(self):
        L0 = 48
        grid = build_grid_gauss(L0 + 3, 2, L0 + 1)
        coeffs = sample_gaussian_coeffs(AngularPowerSpectrum.flat(2, L0), L0, seed=2)
        analyze(synthesize(coeffs, grid), 2, L0)
        assert set(grid._d_tables) == {(m, 2) for m in range(L0 + 1)}


class TestDraw:
    @pytest.mark.parametrize("s", [0, 2, 3])
    def test_single_draw_matches_per_ell_loop(self, s):
        # spectra with zero entries, int and SeedSequence seeds, L0 from s up
        rng = np.random.default_rng(s)
        c_e, c_b = rng.random(97 - s), rng.random(97 - s)
        c_e[::3] = 0.0
        c_b[1::4] = 0.0
        spec = AngularPowerSpectrum(s, 96, c_e, c_b)
        for L0 in (s, 8, 96):
            for seed in (0, 12345, np.random.SeedSequence(7).spawn(2)[1]):
                drawn = sample_gaussian_coeffs(spec, L0, seed).values
                assert drawn.tobytes() == gaussian_coeffs_loop(spec, L0, seed).tobytes()

    @pytest.mark.parametrize("s", [0, 1, 2, 3])
    def test_draw_layout(self, s):
        # one draw, read degree by degree at a running offset as E re, E im,
        # B re, B im, so any change of which draw lands on which (ell, m, E/B) fails
        spec = AngularPowerSpectrum(s, 12, np.linspace(0.5, 2.0, 13 - s),
                                    np.linspace(1.5, 0.1, 13 - s))
        for L0 in (s, s + 1, 12):
            for seed in (0, 99):
                sizes = [2 * ell + 1 for ell in range(s, L0 + 1)]
                z = np.random.default_rng(seed).standard_normal(4 * sum(sizes))
                want = np.zeros((L0 + 1, 2 * L0 + 1), dtype=complex)
                at = 0
                for ell, n in zip(range(s, L0 + 1), sizes):
                    e_re, e_im, b_re, b_im = z[at : at + 4 * n].reshape(4, n)
                    at += 4 * n
                    ge = np.sqrt(spec.C_E[ell - s] / 2.0) * (e_re + 1j * e_im)
                    gb = np.sqrt(spec.C_B[ell - s] / 2.0) * (b_re + 1j * b_im)
                    want[ell, L0 - ell : L0 + ell + 1] = ge + 1j * gb
                drawn = sample_gaussian_coeffs(spec, L0, seed).values
                assert drawn.tobytes() == want.tobytes()


class TestMonteCarlo:
    def test_zero_spectrum(self, grid):
        spec = AngularPowerSpectrum(2, 6, np.zeros(5), np.zeros(5))
        report = monte_carlo_spectrum(spec, grid, 6, [2, 3, 4], 100, seed=0)
        assert report.empirical_mean == [0.0, 0.0, 0.0]
        assert report.predicted == [0.0, 0.0, 0.0]
        assert report.z_scores == [0.0, 0.0, 0.0]

    def test_alias_free_configuration(self, exact_grids):
        spec = AngularPowerSpectrum.flat(2, 4)
        for grid in exact_grids:
            report = monte_carlo_spectrum(spec, grid, 4, [2, 3, 4], 150, seed=2)
            assert_allclose(report.predicted, [1.0, 1.0, 1.0], rtol=1e-10)
            assert max(abs(z) for z in report.z_scores) < 4.0, grid.scheme

    def test_empty_ell_list_rejected(self, grid):
        with pytest.raises(ValueError, match="at least one ell"):
            monte_carlo_spectrum(AngularPowerSpectrum.flat(2, 4), grid, 4, [], 100, seed=0)

    def test_determinism(self, grid):
        spec = AngularPowerSpectrum.flat(2, 4)
        r1 = monte_carlo_spectrum(spec, grid, 4, [2, 3], 100, seed=5)
        r2 = monte_carlo_spectrum(spec, grid, 4, [2, 3], 100, seed=5)
        assert r1.empirical_mean == r2.empirical_mean
        assert r1.z_scores == r2.z_scores

    def test_prediction_warnings_surface(self, grid, monkeypatch):
        # a warning of the prediction reaches the caller
        predict = spectrum.aliased_spectrum

        def noisy(*args, **kwargs):
            warnings.warn("unexpected prediction warning", RuntimeWarning)
            return predict(*args, **kwargs)

        monkeypatch.setattr(spectrum, "aliased_spectrum", noisy)
        with pytest.warns(RuntimeWarning, match="unexpected prediction warning"):
            monte_carlo_spectrum(AngularPowerSpectrum.flat(2, 4), grid, 4, [2, 3], 100, seed=0)

    def test_default_run_warns_nothing(self, grid):
        # the simulate command's default lmax 8 on its N=6, s=2, Q=1 Gauss grid;
        # the warnings do not depend on the number of realizations
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monte_carlo_spectrum(AngularPowerSpectrum.flat(2, 8), grid, 8, range(2, 9), 200, seed=0)

    def test_band_below_spectrum_predicts_the_drawn_band(self, grid):
        # L0 = 7 < L_max = 10: the prediction sums the drawn band only, and warns nothing
        rng = np.random.default_rng(9)
        spec = AngularPowerSpectrum(2, 10, rng.uniform(0.1, 1.0, 9), rng.uniform(0.1, 1.0, 9))
        ells = [2, 5, 3, 9]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = monte_carlo_spectrum(spec, grid, 7, ells, 100, seed=3)
        band = AngularPowerSpectrum(2, 7, spec.C_E[:6], spec.C_B[:6])
        assert report.predicted == spectrum.aliased_spectrum(grid, band, ells, u_max=7)

    def test_ell_below_spin_rejected_before_drawing(self, grid, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a realization was drawn")

        monkeypatch.setattr(fieldsim, "synthesize", must_not_run)
        with pytest.raises(ValueError, match="each >= s=2, got \\[1, 2\\]"):
            monte_carlo_spectrum(AngularPowerSpectrum.flat(2, 8), grid, 8, [1, 2], 2000, seed=0)

    def test_band_below_spin_names_L0(self):
        spec, grid = AngularPowerSpectrum.flat(2, 8), build_grid_gauss(6, 2, 1)
        with pytest.raises(ValueError, match="got L0=1, s=2, L_max=8"):
            monte_carlo_spectrum(spec, grid, 1, [2], 2000, seed=0)

    def test_n_real_validation(self, grid):
        spec = AngularPowerSpectrum.flat(2, 4)
        with pytest.raises(ValueError):
            monte_carlo_spectrum(spec, grid, 4, [2], 50, seed=0)
