"""The field route: band-limited spin field synthesis, the discrete
coefficient sum over sampled fields, Gaussian coefficient draws, and the
checks of the alias analysis built on them (aliased coefficients, the
band-limit round trip and the Monte Carlo harness for the aliased-spectrum
prediction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .sampling import SamplingGrid, build_grid_gauss
from .special import HarmonicIndex

__all__ = [
    "SpinCoefficients",
    "FieldSamples",
    "MonteCarloReport",
    "BandlimitReport",
    "GENERATOR_NAME",
    "synthesize",
    "sample_gaussian_coeffs",
    "analyze",
    "aliased_coefficient",
    "aliased_eb",
    "verify_bandlimit",
    "monte_carlo_spectrum",
]

GENERATOR_NAME = "pcg64"


@dataclass
class SpinCoefficients:
    """Complex coefficients a_{ell,m;s} for s <= ell <= L_max, |m| <= ell.

    Stored densely as a (L_max+1, 2*L_max+1) array with m offset by
    L_max; slots outside the valid index triangle stay zero.
    """

    s: int
    L_max: int
    values: np.ndarray

    def __post_init__(self):
        expected = (self.L_max + 1, 2 * self.L_max + 1)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")

    @classmethod
    def zeros(cls, s: int, L_max: int) -> "SpinCoefficients":
        if L_max < s:
            raise ValueError(f"need L_max >= s, got L_max={L_max}, s={s}")
        values = np.zeros((L_max + 1, 2 * L_max + 1), dtype=complex)
        return cls(s=s, L_max=L_max, values=values)

    def indices(self):
        """All valid (ell, m) pairs, ell-major."""
        for ell in range(self.s, self.L_max + 1):
            for m in range(-ell, ell + 1):
                yield ell, m

    def get(self, ell: int, m: int) -> complex:
        self._check(ell, m)
        return complex(self.values[ell, m + self.L_max])

    def set(self, ell: int, m: int, value: complex) -> None:
        self._check(ell, m)
        self.values[ell, m + self.L_max] = value

    def _check(self, ell: int, m: int) -> None:
        if not (self.s <= ell <= self.L_max) or abs(m) > ell:
            raise ValueError(f"index (ell={ell}, m={m}) invalid for s={self.s}, L_max={self.L_max}")


@dataclass
class FieldSamples:
    """Field values on a grid, shape (theta count, phi count)."""

    grid: SamplingGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_theta, self.grid.n_phi)
        if self.values.shape != expected:
            raise ValueError(f"values must have shape {expected}, got {self.values.shape}")


def _norms(L: int, s: int) -> np.ndarray:
    """Per-degree factors sqrt((2 ell + 1) / (4 pi)) (-1)^s, ell = 0 .. L."""
    return np.sqrt((2 * np.arange(L + 1) + 1) / (4.0 * math.pi)) * (-1.0 if s % 2 else 1.0)


def synthesize(coeffs: SpinCoefficients, grid: SamplingGrid) -> FieldSamples:
    """Evaluate sum_{ell,m} a_{ell,m;s} Y_{ell,m;s} on the grid nodes.

    Y_{ell,m;s} = sqrt((2 ell + 1) / (4 pi)) (-1)^s d^ell_{m,-s}(theta) e^{i m phi};
    the grid sums the normalised coefficients over its nodes.
    """
    values = coeffs.values * _norms(coeffs.L_max, coeffs.s)[:, None]
    return FieldSamples(grid=grid, values=grid._synthesis(coeffs.s, values))


def sample_gaussian_coeffs(spec, L0: int, seed) -> SpinCoefficients:
    """Draw one Gaussian coefficient realization band-limited at L0.

    Electric and magnetic parts are independent complex circular
    Gaussians with variances C_E(ell) and C_B(ell), independent across
    (ell, m); the spin coefficient is a_E + i*a_B.  Deterministic for a
    given seed (PCG64; ``seed`` may be an int or a SeedSequence).
    """
    s = spec.s
    if not s <= L0 <= spec.L_max:
        raise ValueError(f"need s <= L0 <= spectrum L_max, got L0={L0}, s={s}, L_max={spec.L_max}")
    rng = np.random.default_rng(seed)
    out = SpinCoefficients.zeros(s, L0)
    ells = np.arange(s, L0 + 1)
    sizes = 2 * ells + 1
    starts = np.cumsum(sizes) - sizes
    # one draw, read per ell as E re, E im, B re, B im, each 2*ell+1 long
    z = rng.standard_normal(4 * int(sizes.sum()))
    ell = np.repeat(ells, sizes)
    slot = np.arange(ell.size) - np.repeat(starts, sizes)
    at = np.repeat(4 * starts, sizes) + slot
    size = np.repeat(sizes, sizes)
    e_re, e_im, b_re, b_im = (z[at + k * size] for k in range(4))
    scale_e = np.sqrt(spec.C_E[ell - s] / 2.0)
    scale_b = np.sqrt(spec.C_B[ell - s] / 2.0)
    ge = scale_e * (e_re + 1j * e_im)
    gb = scale_b * (b_re + 1j * b_im)
    out.values[ell, L0 - ell + slot] = ge + 1j * gb
    return out


def analyze(fieldsamples: FieldSamples, s: int, L_max: int) -> SpinCoefficients:
    """Discrete coefficient sums for all ell <= L_max.

    a~_{ell,m} = sum_k w_k T(theta_k, phi_k) conj(Y_{ell,m;s}(theta_k, phi_k))
    with separable weights w_k = w_p^(theta) w_q^(phi), w_p the measure
    weights.  The grid takes the sums over its nodes; they are scaled here
    by the norms of Y_{ell,m;s}.
    """
    grid = fieldsamples.grid
    if fieldsamples.values.shape != (grid.n_theta, grid.n_phi):
        raise ValueError("field shape does not match grid")
    out = SpinCoefficients.zeros(s, L_max)
    out.values[:] = grid._analysis(s, L_max, fieldsamples.values) * _norms(L_max, s)[:, None]
    return out


def aliased_coefficient(field: FieldSamples, source: HarmonicIndex) -> complex:
    """The discrete coefficient sum of :func:`analyze` at one index."""
    return analyze(field, source.s, source.ell).get(source.ell, source.m)


def aliased_eb(
    coeffs: SpinCoefficients, grid: SamplingGrid, ell: int, m: int
) -> tuple[complex, complex]:
    """Aliased electric and magnetic coefficients at (ell, m).

    Synthesizes the field on ``grid`` and analyzes it.  With
    conj(Y_{ell,m;s}) = (-1)^(m+s) Y_{ell,-m;-s}, the spin -s coefficient
    is (-1)^(m+s) conj(a~_{-m}), so
    (a~_E, a~_B) = ((a~_m + (-1)^(m+s) conj(a~_{-m}))/2,
                    (a~_m - (-1)^(m+s) conj(a~_{-m}))/2).
    """
    HarmonicIndex(ell, m, coeffs.s)  # checks the caller's (ell, m), not its mirror
    tilde = analyze(synthesize(coeffs, grid), coeffs.s, ell)
    mirror = (-1) ** (m + coeffs.s) * tilde.get(ell, -m).conjugate()
    a_plus = tilde.get(ell, m)
    return 0.5 * (a_plus + mirror), 0.5 * (a_plus - mirror)


@dataclass(frozen=True)
class BandlimitReport:
    L0: int
    s: int
    N: int
    Q: int
    seed: int
    max_abs_error: float
    tolerance: float
    passed: bool


def verify_bandlimit(L0: int, s: int, N: int, Q: int, seed: int) -> BandlimitReport:
    """Round-trip check of the alias-free reconstruction guarantee.

    Draws one random coefficient set band-limited at L0, synthesizes it
    on the Gauss grid (N, s, Q), re-analyzes, and reports the largest
    coefficient error against the tolerance 1e-10.  Exact reconstruction
    needs enough colatitude nodes (N - s > L0) and enough longitudes
    (Q > L0); failure is a report outcome, not an exception.
    """
    if L0 < s:
        raise ValueError(f"need L0 >= s, got L0={L0}, s={s}")
    tol = 1e-10
    grid = build_grid_gauss(N, s, Q)
    coeffs = sample_gaussian_coeffs(spectrum.AngularPowerSpectrum.flat(s, L0), L0, seed)
    tilde = analyze(synthesize(coeffs, grid), s, L0)
    max_err = float(np.abs(tilde.values - coeffs.values).max())
    return BandlimitReport(
        L0=L0, s=s, N=N, Q=Q, seed=seed,
        max_abs_error=max_err, tolerance=tol, passed=max_err < tol,
    )


@dataclass
class MonteCarloReport:
    ells: list
    empirical_mean: list
    std_error: list
    predicted: list
    z_scores: list
    n_real: int
    seed: int
    L0: int
    generator: str = GENERATOR_NAME


def monte_carlo_spectrum(
    spec, grid: SamplingGrid, L0: int, ell_list, n_real: int, seed: int
) -> MonteCarloReport:
    """Empirical aliased spectrum over repeated Gaussian realizations.

    For each realization draws coefficients band-limited at L0,
    synthesizes and re-analyzes on ``grid``, and accumulates the
    per-multipole mean of |a~_{ell,m}|^2 / (2*ell+1).  Reports the
    empirical mean, standard error, the linear-theory prediction and a
    z-score per requested multipole.  Realization seeds are spawned from
    one SeedSequence, so results are reproducible for a fixed seed
    regardless of evaluation order.
    """
    if n_real < 100:
        raise ValueError(f"need n_real >= 100, got {n_real}")
    ell_list = list(ell_list)
    if not ell_list or min(ell_list) < spec.s:  # checked before the first draw
        raise ValueError(f"need at least one ell, each >= s={spec.s}, got {ell_list}")
    children = np.random.SeedSequence(seed).spawn(n_real)
    samples = np.empty((n_real, len(ell_list)))
    for i, child in enumerate(children):
        coeffs = sample_gaussian_coeffs(spec, L0, child)
        tilde = analyze(synthesize(coeffs, grid), spec.s, max(ell_list))
        for k, ell in enumerate(ell_list):
            row = tilde.values[ell, tilde.L_max - ell : tilde.L_max + ell + 1]
            samples[i, k] = (np.abs(row) ** 2).sum() / (2 * ell + 1)
    mean = samples.mean(axis=0)
    sterr = samples.std(axis=0, ddof=1) / math.sqrt(n_real)
    cut = L0 - spec.s + 1  # the prediction reads the band the ensemble is drawn from
    band = spectrum.AngularPowerSpectrum(spec.s, L0, spec.C_E[:cut], spec.C_B[:cut])
    predicted = np.asarray(spectrum.aliased_spectrum(grid, band, ell_list, u_max=L0))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sterr > 0, (mean - predicted) / sterr, 0.0)
    return MonteCarloReport(
        ells=ell_list,
        empirical_mean=mean.tolist(),
        std_error=sterr.tolist(),
        predicted=predicted.tolist(),
        z_scores=z.tolist(),
        n_real=n_real,
        seed=seed,
        L0=L0,
    )
