"""Angular power spectra, the squared-alias transfer factors, the aliased
spectrum prediction and the band-limit exactness check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aliasing import i_n
from .sampling import SamplingGrid, build_grid_gauss

__all__ = [
    "AngularPowerSpectrum",
    "XiFactors",
    "BandlimitReport",
    "xi_factors",
    "aliased_spectrum",
    "circular_covariance",
    "verify_bandlimit",
]


@dataclass(frozen=True)
class AngularPowerSpectrum:
    """Per-multipole variances C_E and C_B for ell = s .. L_max.

    The total spectrum C = C_E + C_B is the second moment of the spin
    coefficients: E[a conj(a')] = C * delta * delta.
    """

    s: int
    L_max: int
    C_E: np.ndarray
    C_B: np.ndarray

    def __post_init__(self):
        n = self.L_max - self.s + 1
        ce = np.asarray(self.C_E, dtype=float)
        cb = np.asarray(self.C_B, dtype=float)
        if ce.shape != (n,) or cb.shape != (n,):
            raise ValueError(f"spectra must have length {n} (ell = s .. L_max)")
        if np.any(ce < 0) or np.any(cb < 0):
            raise ValueError("spectrum entries must be non-negative")
        ce.setflags(write=False)
        cb.setflags(write=False)
        object.__setattr__(self, "C_E", ce)
        object.__setattr__(self, "C_B", cb)

    @classmethod
    def flat(cls, s: int, L_max: int, total: float = 1.0) -> "AngularPowerSpectrum":
        """Toy spectrum with constant total power per multipole."""
        n = L_max - s + 1
        half = np.full(n, total / 2.0)
        return cls(s=s, L_max=L_max, C_E=half, C_B=half.copy())

    @property
    def C_total(self) -> np.ndarray:
        return self.C_E + self.C_B

    def total_at(self, ell: int) -> float:
        if not (self.s <= ell <= self.L_max):
            raise ValueError(f"ell={ell} outside [s={self.s}, L_max={self.L_max}]")
        return float(self.C_E[ell - self.s] + self.C_B[ell - self.s])


@dataclass(frozen=True)
class XiFactors:
    """Squared-alias transfer factors at fixed (ell, m, ell').

    ``xi`` sums kappa^2 I^2 over the nonzero longitude wraps only and
    ``xi0`` includes the r = 0 cell.
    """

    ell: int
    m: int
    ell_prime: int
    xi: float
    xi0: float


def _lattice_wraps(m: int, u: int, Q: int):
    two_q = 2 * Q
    r_lo = math.ceil((-u - m) / two_q)
    r_hi = math.floor((u - m) / two_q)
    return [r for r in range(r_lo, r_hi + 1) if abs(m + r * two_q) <= u]


def xi_factors(grid: SamplingGrid, ell: int, m: int, ell_prime: int, s: int) -> XiFactors:
    """Transfer factors kappa^2 * sum_r I^2(ell, m; ell', m + 2rQ)."""
    if ell < max(abs(m), s) or ell_prime < s:
        raise ValueError(f"invalid indices (ell={ell}, m={m}, ell'={ell_prime}, s={s})")
    kappa2 = (2 * ell + 1) * (2 * ell_prime + 1) / 4.0
    acc_nonzero = 0.0
    acc_zero = 0.0
    for r in _lattice_wraps(m, ell_prime, grid.Q):
        v = m + 2 * r * grid.Q
        val = i_n(grid, ell, m, ell_prime, v, s) ** 2
        if r == 0:
            acc_zero += val
        else:
            acc_nonzero += val
    xi = kappa2 * acc_nonzero
    xi0 = kappa2 * (acc_nonzero + acc_zero)
    return XiFactors(ell=ell, m=m, ell_prime=ell_prime, xi=xi, xi0=xi0)


def aliased_spectrum(grid: SamplingGrid, spec: AngularPowerSpectrum, ell_list, u_max: int):
    """Predicted aliased spectrum C~_ell on ``grid``.

    Each per-m second moment is the full quadratic form
    E|a~_{ell,m}|^2 = sum_u xi0(ell, m, u) C_u (the identity cell
    included, so a band-limited alias-free configuration returns the
    input spectrum); C~_ell averages the moments over m.  The degree sum
    is truncated at ``u_max``.
    """
    if u_max > spec.L_max:
        raise ValueError(f"need u_max <= spectrum L_max, got {u_max} > {spec.L_max}")
    s = spec.s
    ell_list = list(ell_list)
    out = []
    for ell in ell_list:
        if u_max < ell + 2 * (grid.N - grid.s):
            warnings.warn(
                f"u_max={u_max} may truncate aliases of ell={ell} "
                f"(nearest wrap-around degrees extend past it)",
                stacklevel=2,
            )
        acc = 0.0
        for m in range(-ell, ell + 1):
            for u in range(s, u_max + 1):
                c_u = spec.total_at(u)
                if c_u == 0.0:
                    continue
                acc += xi_factors(grid, ell, m, u, s).xi0 * c_u
        out.append(acc / (2 * ell + 1))
    return out


def circular_covariance(spec: AngularPowerSpectrum, theta_psi: float) -> float:
    """Circular covariance sum_ell (2*ell+1)/(4*pi) C_ell d^ell_{s,s}(theta).

    The diagonal Wigner element is evaluated through its Jacobi form
    cos(theta/2)^(2s) P^(0,2s)_{ell-s}(cos theta), truncated at L_max.
    """
    from .special import jacobi

    if not (0.0 <= theta_psi <= math.pi + 1e-9):
        raise ValueError("theta outside [0, pi]")
    s = spec.s
    cos_half = math.cos(theta_psi / 2.0) ** (2 * s)
    total = 0.0
    for ell in range(s, spec.L_max + 1):
        c_l = spec.total_at(ell)
        if c_l == 0.0:
            continue
        total += (
            (2 * ell + 1)
            / (4.0 * math.pi)
            * c_l
            * cos_half
            * float(jacobi(ell - s, 0.0, 2.0 * s, math.cos(theta_psi)))
        )
    return total


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


def verify_bandlimit(
    L0: int, s: int, N: int, Q: int, seed: int, tol: float = 1e-10
) -> BandlimitReport:
    """Round-trip check of the alias-free reconstruction guarantee.

    Draws one random coefficient set band-limited at L0, synthesizes it
    on the Gauss grid (N, s, Q), re-analyzes, and reports the largest
    coefficient error.  Exact reconstruction needs enough colatitude
    nodes (N - s > L0) and enough longitudes (Q > L0); failure is a
    report outcome, not an exception.
    """
    from .fieldsim import analyze, sample_gaussian_coeffs, synthesize

    if L0 < s:
        raise ValueError(f"need L0 >= s, got L0={L0}, s={s}")
    grid = build_grid_gauss(N, s, Q)
    flat = AngularPowerSpectrum.flat(s, L0)
    coeffs = sample_gaussian_coeffs(flat, L0, seed)
    tilde = analyze(synthesize(coeffs, grid), s, L0)
    max_err = float(np.abs(tilde.values - coeffs.values).max())
    return BandlimitReport(
        L0=L0, s=s, N=N, Q=Q, seed=seed,
        max_abs_error=max_err, tolerance=tol, passed=max_err < tol,
    )
