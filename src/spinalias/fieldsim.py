"""The field route: band-limited spin field synthesis, the discrete
coefficient sum over sampled fields, Gaussian coefficient draws, and the
checks of the alias analysis built on them (aliased coefficients, the
band-limit round trip and the Monte Carlo harness for the aliased-spectrum
prediction).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spectrum
from .sampling import SamplingGrid, _parity, build_grid_gauss
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


def _order_scales(L: int, s: int):
    """Per-degree factors of the orders m >= 0 and m < 0, ell = 0 .. L.

    c_ell = sqrt((2 ell + 1) / (4 pi)) (-1)^s and (-1)^(ell+s) c_ell.
    """
    ells = np.arange(L + 1)
    norms = np.sqrt((2 * ells + 1) / (4.0 * math.pi)) * (-1.0 if s % 2 else 1.0)
    return norms, norms * _parity(ells, s)


def synthesize(coeffs: SpinCoefficients, grid: SamplingGrid) -> FieldSamples:
    """Evaluate sum_{ell,m} a_{ell,m;s} Y_{ell,m;s} on the grid nodes.

    The colatitude part is one product per order pair +-m with the order
    |m| block on the grid's mirror-closed nodes: order -m is that block
    reversed, with sign (-1)^(ell+s) per row.  The longitudes are a
    length-2Q inverse FFT; orders equal mod 2Q share a bin.
    """
    L, s, two_q = coeffs.L_max, coeffs.s, 2 * grid.Q
    # only the orders that carry a coefficient get a table
    carried = coeffs.values.any(axis=0)
    orders = np.flatnonzero(carried[L:] | carried[L::-1])
    blocks = grid._d_blocks(s, orders, L)
    # rows[i] = re, im of the scaled coefficients of order orders[i], then of its negative
    pos_scale, neg_scale = _order_scales(L, s)
    pos = coeffs.values.T[L + orders] * pos_scale
    neg = coeffs.values.T[L - orders] * neg_scale
    rows = np.stack([pos.real, pos.imag, neg.real, neg.imag], axis=1)
    # bins[m mod 2Q, re/im] = the order-m profile over grid._nodes
    bins = np.zeros((two_q, 2, grid._nodes.size))
    for i, m in enumerate(orders.tolist()):
        l0 = max(m, s)
        profiles = rows[i, :, l0:] @ blocks[m][: L + 1 - l0]
        bins[m % two_q] += profiles[:2]
        if m:
            bins[-m % two_q, :, ::-1] += profiles[2:]
    field = bins[:, 0, grid._near] + 1j * bins[:, 1, grid._near]
    values = two_q * np.fft.ifft(field, axis=0).T
    return FieldSamples(grid=grid, values=values)


def sample_gaussian_coeffs(spec, L0: int, seed) -> SpinCoefficients:
    """Draw one Gaussian coefficient realization band-limited at L0.

    Electric and magnetic parts are independent complex circular
    Gaussians with variances C_E(ell) and C_B(ell), independent across
    (ell, m); the spin coefficient is a_E + i*a_B.  Deterministic for a
    given seed (PCG64; ``seed`` may be an int or a SeedSequence).
    """
    if L0 > spec.L_max:
        raise ValueError(f"need L0 <= spectrum L_max, got L0={L0}, L_max={spec.L_max}")
    rng = np.random.default_rng(seed)
    s = spec.s
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
    weights: one length-2Q FFT over the longitudes, then one product per
    order pair +-m with the order |m| block on the grid's mirror-closed
    nodes, the -m columns reversed.
    """
    grid = fieldsamples.grid
    if fieldsamples.values.shape != (grid.n_theta, grid.n_phi):
        raise ValueError("field shape does not match grid")
    L, two_q = L_max, 2 * grid.Q
    out = SpinCoefficients.zeros(s, L)
    # w_p F[p, m mod 2Q] with F = sum_q w_q T(theta_p, phi_q) exp(-i m phi_q),
    # summed onto the mirror-closed nodes (a flat add.at is numpy's fast path)
    weighted = np.fft.fft(fieldsamples.values, axis=1)
    weighted *= grid.phi_weights[0] * grid.theta_weights[:, None]
    on_nodes = np.zeros((grid._nodes.size, two_q), dtype=complex)
    slots = grid._near[:, None] * two_q + np.arange(two_q)
    np.add.at(on_nodes.reshape(-1), slots.ravel(), weighted.ravel())
    # cols[b] = (re, im) of bin b, then of bin -b reversed: the columns of orders +-m
    fwd = on_nodes.T
    bwd = fwd[-np.arange(two_q) % two_q, ::-1]
    cols = np.stack([fwd.real, fwd.imag, bwd.real, bwd.imag], axis=2)
    signed = out.values.view(float).reshape(L + 1, 2 * L + 1, 2)
    for m, block in grid._d_blocks(s, range(L + 1), L).items():
        l0 = max(m, s)
        sums = block[: L + 1 - l0] @ cols[m % two_q]
        signed[l0:, L - m] = sums[:, 2:]
        signed[l0:, L + m] = sums[:, :2]
    pos_scale, neg_scale = _order_scales(L, s)
    out.values[:, L:] *= pos_scale[:, None]
    out.values[:, :L] *= neg_scale[:, None]
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
    if not ell_list:
        raise ValueError("need at least one ell")
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
    # the drawn ensemble is band-limited at L0, so u_max = L0 is not a truncation
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"u_max=\d+ may truncate", UserWarning)
        predicted = np.asarray(spectrum.aliased_spectrum(grid, spec, ell_list, u_max=L0))
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
