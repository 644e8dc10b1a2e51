"""Angular power spectra, the squared-alias transfer factors, the aliased
spectrum prediction and the circular covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sampling import SamplingGrid
from .special import _wigner_d_blocks

__all__ = [
    "AngularPowerSpectrum",
    "XiFactors",
    "xi_factors",
    "aliased_spectrum",
    "circular_covariance",
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
        if self.s < 0 or self.L_max < self.s:
            raise ValueError(f"need 0 <= s <= L_max, got s={self.s}, L_max={self.L_max}")
        n = self.L_max - self.s + 1
        ce = np.asarray(self.C_E, dtype=float)
        cb = np.asarray(self.C_B, dtype=float)
        if ce.shape != (n,) or cb.shape != (n,):
            raise ValueError(f"spectra must have length {n} (ell = s .. L_max)")
        if not (np.all(np.isfinite(ce)) and np.all(np.isfinite(cb))):
            raise ValueError("spectrum entries must be finite")
        if np.any(ce < 0) or np.any(cb < 0):
            raise ValueError("spectrum entries must be non-negative")
        ce.setflags(write=False)
        cb.setflags(write=False)
        object.__setattr__(self, "C_E", ce)
        object.__setattr__(self, "C_B", cb)

    @classmethod
    def flat(cls, s: int, L_max: int) -> "AngularPowerSpectrum":
        """Toy spectrum with unit total power per multipole."""
        half = np.full(max(L_max - s + 1, 0), 0.5)
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


def xi_factors(grid: SamplingGrid, ell: int, m: int, ell_prime: int, s: int) -> XiFactors:
    """Transfer factors kappa^2 * sum_r I^2(ell, m; ell', m + 2rQ); the square drops row signs."""
    if ell < max(abs(m), s) or ell_prime < s:
        raise ValueError(f"invalid indices (ell={ell}, m={m}, ell'={ell_prime}, s={s})")
    kappa2 = (2 * ell + 1) * (2 * ell_prime + 1) / 4.0
    two_q = 2 * grid.Q
    # the source row, then one cell (ell', v) per order v = m (mod 2Q) with |v| <= ell'
    v = np.arange(m - (ell_prime + m) // two_q * two_q, ell_prime + 1, two_q)
    rows = grid._d_rows(s, [(m, ell, ell)] + [(w, ell_prime, ell_prime) for w in v.tolist()])
    squares = (rows[1:] @ (rows[0] * grid._weights)) ** 2
    r0 = v == m
    xi = float(kappa2 * squares[~r0].sum())
    xi0 = xi + float(kappa2 * squares[r0].sum())
    return XiFactors(ell=ell, m=m, ell_prime=ell_prime, xi=xi, xi0=xi0)


def aliased_spectrum(grid: SamplingGrid, spec: AngularPowerSpectrum, ell_list, u_max: int):
    """Predicted aliased spectrum C~_ell on ``grid``.

    Each per-m second moment is the full quadratic form
    E|a~_{ell,m}|^2 = sum_u xi0(ell, m, u) C_u (the identity cell
    included, so a band-limited alias-free configuration returns the
    input spectrum); C~_ell averages the moments over m.  The degree sum
    is truncated at ``u_max``; it warns ("may truncate") only when that
    drops degrees the spectrum holds, u_max < min(L_max, ell + 2(N - s)).

    The longitude comb couples order m only to the orders v = m (mod 2Q),
    so the cross sums are evaluated per residue class, from the unsigned
    rows (ell, m) and columns (u, v) of the class, whose squares drop the
    sign: as one rows x columns product, or through the class's
    nodes x nodes kernel when that costs fewer flops.
    """
    if u_max > spec.L_max:
        raise ValueError(f"need u_max <= spectrum L_max, got {u_max} > {spec.L_max}")
    s = spec.s
    if u_max < s:
        raise ValueError(f"need u_max >= s, got u_max={u_max} < s={s}")
    ell_list = list(ell_list)
    for ell in ell_list:
        if ell < s:
            raise ValueError(f"invalid indices (ell={ell}, s={s})")
        if u_max < min(spec.L_max, ell + 2 * (grid.N - grid.s)):
            warnings.warn(
                f"u_max={u_max} may truncate aliases of ell={ell} "
                f"(nearest wrap-around degrees extend past it)",
                stacklevel=2,
            )
    if not ell_list:
        return []
    top = max(ell_list)
    hi, two_q = max(top, u_max), 2 * grid.Q
    # the classes that occur among the rows, in order
    classes = list(dict.fromkeys(m % two_q for m in range(-top, top + 1)))
    # kappa^2 / (2 ell + 1) = (2u + 1) / 4 weights each squared cross sum
    weight = (2 * np.arange(s, u_max + 1) + 1) * spec.C_total[: u_max + 1 - s] / 4.0
    listed = np.zeros(hi + 1, dtype=bool)
    listed[ell_list] = True
    per_deg = np.zeros(hi + 1)
    # the rows (ell, m = c) are the class's cells at the listed ell, by m then ell
    for u, _, cols in grid._classes(s, classes, hi):
        is_row = listed[u]
        rows, row_degs = cols[is_row] * grid._weights, u[is_row]
        if hi > u_max:  # the cells beyond u_max hold rows only
            cols, u = cols[u <= u_max], u[u <= u_max]
        # per row, the squares summed are r K r^T with the class's node kernel
        # K = cols^T diag(col_weight) cols; the kernel route is taken when it costs
        # fewer flops, so the product never holds more cells than rows and cols
        (R, n), C, col_weight = rows.shape, cols.shape[0], weight[u - s]
        if n * (R + C) < R * C:  # K is positive semi-definite: clamp its rounding
            kernel = (cols.T * col_weight) @ cols
            squares = np.maximum(np.einsum("ij,ij->i", rows @ kernel, rows), 0.0)
        else:
            squares = (rows @ cols.T) ** 2 @ col_weight
        per_deg += np.bincount(row_degs, squares, minlength=hi + 1)
    return per_deg[ell_list].tolist()


def circular_covariance(spec: AngularPowerSpectrum, theta_psi: float) -> float:
    """Circular covariance sum_ell (2*ell+1)/(4*pi) C_ell d^ell_{s,s}(theta).

    d^ell_{s,s} = d^ell_{-s,-s} is the order -s block of the Wigner-d
    kernel; the sum is truncated at L_max.  ``theta_psi`` is checked as
    in ``wigner_d``.
    """
    s = spec.s
    (block,) = _wigner_d_blocks([-s], s, spec.L_max, [theta_psi])
    weights = (2 * np.arange(s, spec.L_max + 1) + 1) * spec.C_total / (4.0 * math.pi)
    return float(weights @ block[:, 0])
