"""Angular power spectra, the squared-alias transfer factors, the aliased
spectrum prediction and the circular covariance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .aliasing import _class_columns, _class_orders, _order_rows, _weighted_row
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
    two_q = 2 * grid.Q
    orders = {abs(m)} | {abs(v) for v in _class_orders(m, ell_prime, two_q)}
    blocks = grid._d_blocks(s, orders, max(ell, ell_prime))
    u, v, cols = _class_columns(blocks, s, m, ell_prime, two_q)
    at = u == ell_prime  # one cell per order v; the row signs drop out in the square
    squares = (cols[at] @ _weighted_row(grid, blocks, s, ell, m)) ** 2
    r0 = v[at] == m
    xi = float(kappa2 * squares[~r0].sum())
    xi0 = xi + float(kappa2 * squares[r0].sum())
    return XiFactors(ell=ell, m=m, ell_prime=ell_prime, xi=xi, xi0=xi0)


# cap on the cells of the rows x columns product in aliased_spectrum (2 MB)
_PRODUCT_CELLS = 1 << 18


def aliased_spectrum(grid: SamplingGrid, spec: AngularPowerSpectrum, ell_list, u_max: int):
    """Predicted aliased spectrum C~_ell on ``grid``.

    Each per-m second moment is the full quadratic form
    E|a~_{ell,m}|^2 = sum_u xi0(ell, m, u) C_u (the identity cell
    included, so a band-limited alias-free configuration returns the
    input spectrum); C~_ell averages the moments over m.  The degree sum
    is truncated at ``u_max``.

    The longitude comb couples order m only to the orders v = m (mod 2Q),
    so the cross sums are evaluated as one product per residue class:
    the rows (ell, m) of the class against the columns (u, v) of the class.
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
        if u_max < ell + 2 * (grid.N - grid.s):
            warnings.warn(
                f"u_max={u_max} may truncate aliases of ell={ell} "
                f"(nearest wrap-around degrees extend past it)",
                stacklevel=2,
            )
    if not ell_list:
        return []
    degs = np.array(sorted(set(ell_list)))  # np.unique takes milliseconds on its first call
    top = int(degs[-1])
    two_q = 2 * grid.Q
    classes = dict.fromkeys(m % two_q for m in range(-top, top + 1))  # those that occur
    orders = {abs(v) for c in classes for v in _class_orders(c, u_max, two_q)}
    blocks = grid._d_blocks(s, orders | set(range(top + 1)), max(top, u_max))
    # kappa^2 / (2 ell + 1) = (2u + 1) / 4 weights each squared cross sum
    weight = np.array([(2 * u + 1) * spec.total_at(u) for u in range(s, u_max + 1)]) / 4.0
    per_deg = np.zeros(degs.size)
    for c in classes:
        u, _, cols = _class_columns(blocks, s, c, u_max, two_q)
        if not u.size:  # no order of the class within u_max
            continue
        ms = _class_orders(c, top, two_q)
        row_degs = [degs[degs >= abs(m)] for m in ms]
        rows = np.concatenate([_order_rows(blocks, m, d - max(abs(m), s))
                               for m, d in zip(ms, row_degs)]) * grid._weights
        cols, col_weight = cols.T, weight[u - s]
        # the row signs of negative orders drop out in the square; the rows
        # go through in chunks, so the product stays within _PRODUCT_CELLS
        squares = np.empty(rows.shape[0])
        step = max(1, _PRODUCT_CELLS // cols.shape[1])
        prod = np.empty((min(step, rows.shape[0]), cols.shape[1]))
        for at in range(0, rows.shape[0], step):
            chunk = prod[: min(step, rows.shape[0] - at)]
            np.matmul(rows[at : at + step], cols, out=chunk)
            chunk *= chunk
            squares[at : at + step] = chunk @ col_weight
        per_deg += np.bincount(np.searchsorted(degs, np.concatenate(row_degs)), squares,
                               minlength=degs.size)
    return per_deg[np.searchsorted(degs, ell_list)].tolist()


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
