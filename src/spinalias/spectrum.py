"""Angular power spectra, the squared-alias transfer factors, the aliased
spectrum prediction and the circular covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aliasing import _cross_sums, _weighted_rows, _wraps
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
        n = L_max - s + 1
        half = np.full(n, 0.5)
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
    """Transfer factors kappa^2 * sum_r I^2(ell, m; ell', m + 2rQ)."""
    if ell < max(abs(m), s) or ell_prime < s:
        raise ValueError(f"invalid indices (ell={ell}, m={m}, ell'={ell_prime}, s={s})")
    kappa2 = (2 * ell + 1) * (2 * ell_prime + 1) / 4.0
    squares = {r: _cross_sums(grid, s, m, [ell], v, [ell_prime])[0, 0] ** 2
               for r, v in _wraps(m, ell_prime, grid.Q)}
    xi = float(kappa2 * sum(sq for r, sq in squares.items() if r != 0))
    xi0 = xi + float(kappa2 * squares.get(0, 0.0))
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
    for ell in ell_list:
        if ell < s:
            raise ValueError(f"invalid indices (ell={ell}, s={s})")
        if u_max < ell + 2 * (grid.N - grid.s):
            warnings.warn(
                f"u_max={u_max} may truncate aliases of ell={ell} "
                f"(nearest wrap-around degrees extend past it)",
                stacklevel=2,
            )
    # kappa^2 / (2 ell + 1) = (2u + 1) / 4 weights each squared cross sum
    weight = np.array([(2 * u + 1) * spec.total_at(u) for u in range(s, u_max + 1)]) / 4.0
    out = np.zeros(len(ell_list))
    top = max(ell_list, default=-1)
    orders = {abs(v) for m in range(top + 1) for _, v in _wraps(m, u_max, grid.Q)}
    grid._d_blocks(s, orders | set(range(top + 1)), max(top, u_max))
    for m in range(top + 1):
        rows = [k for k, ell in enumerate(ell_list) if ell >= m]
        degs = [ell_list[k] for k in rows]
        for _, v in _wraps(m, u_max, grid.Q):
            lo = max(abs(v), s)
            d_v = grid._d_blocks(s, [abs(v)], u_max)[abs(v)][: u_max + 1 - lo]
            # order -m meets wrap -v: the same sums up to sign, so one product serves both
            pair = [_weighted_rows(grid, s, m, degs, v)]
            if m:
                pair.append(_weighted_rows(grid, s, -m, degs, -v))
            squares = (np.vstack(pair) @ d_v.T) ** 2 @ weight[lo - s :]
            out[rows] += squares.reshape(len(pair), len(rows)).sum(axis=0)
    return out.tolist()


def circular_covariance(spec: AngularPowerSpectrum, theta_psi: float) -> float:
    """Circular covariance sum_ell (2*ell+1)/(4*pi) C_ell d^ell_{s,s}(theta).

    d^ell_{s,s} = d^ell_{-s,-s} is the order -s block of the Wigner-d
    kernel; the sum is truncated at L_max.
    """
    if not (0.0 <= theta_psi <= math.pi + 1e-9):
        raise ValueError("theta outside [0, pi]")
    s = spec.s
    (block,) = _wigner_d_blocks([-s], s, spec.L_max, [theta_psi])
    weights = (2 * np.arange(s, spec.L_max + 1) + 1) * spec.C_total / (4.0 * math.pi)
    return float(weights @ block[:, 0])
