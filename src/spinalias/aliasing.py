"""The aliasing matrix for separable spherical sampling schemes.

For a field sampled on a separable grid the discretely computed
coefficient mixes in other coefficients with weight

    tau(ell, m; u, v) = sqrt((2*ell+1)(2*u+1)) / (4*pi) * I(ell, m; u, v) * H(m, v),

where H is the longitude phase sum (a Kronecker comb on v = m + 2rQ) and
I is the colatitude cross sum of Wigner-d elements.  This module
evaluates both factors and enumerates the nonzero alias cells of a
source coefficient and classifies them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .sampling import SamplingGrid
from .special import HarmonicIndex

__all__ = [
    "AliasClass",
    "AliasEntry",
    "AliasMap",
    "DistanceReport",
    "INTENSITY_FLOOR",
    "h_q",
    "i_n",
    "tau",
    "enumerate_aliases",
    "distance_bound_report",
]

INTENSITY_FLOOR = 1e-12


class AliasClass(str, Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


@dataclass(frozen=True)
class AliasEntry:
    """One alias of one coefficient: location, class, strength, distance."""

    source: HarmonicIndex
    alias: HarmonicIndex
    j: int
    r: int
    klass: AliasClass
    tau: float
    intensity: float
    distance: float


@dataclass(frozen=True)
class AliasMap:
    source: HarmonicIndex
    grid: SamplingGrid
    u_max: int
    entries: tuple


@dataclass(frozen=True)
class DistanceReport:
    """Minimum enumerated alias distance next to its theoretical bound."""

    min_enumerated: float
    claimed_bound: float


def h_q(m: int, v: int, Q: int) -> complex:
    """Longitude phase sum for the 2Q-point trapezoidal rule, closed form.

    Equals 2*pi when v - m is a multiple of 2Q and 0 otherwise.
    """
    if Q < 1:
        raise ValueError(f"need Q >= 1, got Q={Q}")
    return complex(2.0 * math.pi) if (v - m) % (2 * Q) == 0 else 0.0j


def _parity(degs, s: int) -> np.ndarray:
    """(-1)^(deg+s) per degree: the row signs of a negative order."""
    return 1.0 - 2.0 * ((np.asarray(degs) + s) % 2)


def _order_rows(blocks: dict, k: int, sel, negative: bool) -> np.ndarray:
    """Rows ``sel`` of order -k if ``negative``, else of order k (k >= 0).

    Only orders k >= 0 are stored: order -k reads the block of order k
    reversed, with the row signs of :func:`_parity` left to the caller.
    """
    rows = blocks[k][sel]
    return rows[:, ::-1] if negative else rows


def _weighted_rows(grid: SamplingGrid, s: int, m: int, ells, v: int) -> np.ndarray:
    """Rows W * d^ell_{m,-s} arranged to meet the forward rows of order |v|.

    A reversal of the v rows moves onto these rows and the weights, so the
    (large) v block is never copied: sum_i W_i A_i B_(n-1-i) =
    sum_i W_(n-1-i) A_(n-1-i) B_i.  Row signs are left to the caller.
    """
    ells = np.asarray(ells, dtype=int)
    k = abs(m)
    blocks = grid._d_blocks(s, [k], int(ells.max(initial=0)))
    rows = _order_rows(blocks, k, ells - max(k, s), (m < 0) != (v < 0))
    return rows * (grid._weights[::-1] if v < 0 else grid._weights)


def _cross_sums(grid: SamplingGrid, s: int, m: int, ells, v: int, us) -> np.ndarray:
    """The cross sums I of :func:`i_n` for rows ell in ``ells``, columns u in ``us``."""
    us = np.asarray(us, dtype=int)
    k = abs(v)
    d_v = grid._d_blocks(s, [k], int(us.max(initial=0)))[k][us - max(k, s)]
    out = _weighted_rows(grid, s, m, ells, v) @ d_v.T
    if m < 0:
        out *= _parity(ells, s)[:, None]
    if v < 0:
        out *= _parity(us, s)
    return out


def _wraps(m: int, u_max: int, Q: int) -> list:
    """Longitude wraps (r, v = m + 2rQ) of order m with |v| <= u_max."""
    two_q = 2 * Q
    return [(r, m + r * two_q) for r in range(-((u_max + m) // two_q), (u_max - m) // two_q + 1)]


def i_n(grid: SamplingGrid, ell: int, m: int, u: int, v: int, s: int) -> float:
    """Colatitude cross sum sum_p w_p d^ell_{m,-s}(theta_p) d^u_{v,-s}(theta_p).

    ``w_p`` are the grid's measure weights, so the sum approximates the
    integral of the product against sin(theta) d(theta).
    """
    if ell < max(abs(m), s):
        raise ValueError(f"need ell >= max(|m|, s): got ({ell}, {m}, {s})")
    if u < max(abs(v), s):
        raise ValueError(f"need u >= max(|v|, s): got ({u}, {v}, {s})")
    return float(_cross_sums(grid, s, m, [ell], v, [u])[0, 0])


def _kappa(z1, z2):
    return np.sqrt((2 * z1 + 1) * (2 * z2 + 1)) / 2.0


def tau(grid: SamplingGrid, source: HarmonicIndex, u: int, v: int) -> float:
    """Aliasing matrix element tau_s(ell, m; u, v) on ``grid``.

    Under the trapezoidal longitude rule the phase factor is a Kronecker
    comb, so the value is kappa * I on the lattice v = m + 2rQ and exactly
    zero elsewhere (the colatitude sum is then skipped entirely).
    """
    if (v - source.m) % (2 * grid.Q) != 0:
        return 0.0
    return float(_kappa(source.ell, u) * i_n(grid, source.ell, source.m, u, v, source.s))


def enumerate_aliases(
    source: HarmonicIndex, grid: SamplingGrid, u_max: int | None = None
) -> AliasMap:
    """All aliases of ``source`` with degree at most ``u_max``.

    Walks every lattice cell (j, r) with s <= ell+j <= u_max and
    |m + 2rQ| <= ell+j, excluding the identity cell (0, 0), and keeps the
    cells whose intensity exceeds ``INTENSITY_FLOOR`` (parity-annihilated
    cells evaluate to round-off and are dropped).  Cells with degree
    offset j beyond N-s-1 are primary (immune to longitude refinement),
    the rest secondary.  Entries come back sorted by frequency-domain
    distance.
    """
    if u_max is None:
        u_max = source.ell + 4 * (grid.N - grid.s)
    if u_max < source.ell:
        raise ValueError(f"need u_max >= ell, got u_max={u_max}, ell={source.ell}")
    ell, m, s = source.ell, source.m, source.s
    wraps = _wraps(m, u_max, grid.Q)  # r = 0 gives the source order itself
    grid._d_blocks(s, {abs(v) for _, v in wraps}, u_max)
    # one product per wrap: a product over all wraps at once sums in another
    # order and moves tau in the last digit
    cols = [np.arange(max(abs(v), s), u_max + 1) for _, v in wraps]
    u = np.concatenate(cols)
    r = np.repeat([r for r, _ in wraps], [c.size for c in cols])
    taus = _kappa(ell, u) * np.concatenate(
        [_cross_sums(grid, s, m, [ell], v, c)[0] for (_, v), c in zip(wraps, cols)])
    keep = (np.abs(taus) > INTENSITY_FLOOR) & ((u != ell) | (r != 0))
    u, r, taus = u[keep], r[keep], taus[keep]
    j, dv = u - ell, 2 * grid.Q * r
    distance = np.array(list(map(math.hypot, j.tolist(), dv.tolist())))
    order = np.lexsort((r, j, distance))
    u, v, j, r, taus, distance = (x[order].tolist() for x in (u, m + dv, j, r, taus, distance))
    last_secondary = grid.N - grid.s - 1
    klass = [AliasClass.PRIMARY if jj > last_secondary else AliasClass.SECONDARY for jj in j]
    entries = tuple(map(AliasEntry, repeat(source), map(HarmonicIndex, u, v, repeat(s)), j, r,
                        klass, taus, map(abs, taus), distance))
    return AliasMap(source=source, grid=grid, u_max=u_max, entries=entries)


def distance_bound_report(alias_map: AliasMap) -> DistanceReport:
    """Minimum enumerated distance next to the closed-form claim.

    The claimed bound sqrt((N-s)^2 + (2N)^2) presumes the nearest
    surviving alias sits at the first primary degree offset with a full
    longitude wrap; the enumerated minimum can be smaller (for example
    the r = 0 primary cells).  Both values are reported side by side.
    """
    n, s = alias_map.grid.N, alias_map.grid.s
    claimed = math.hypot(n - s, 2 * n)
    if not alias_map.entries:
        return DistanceReport(math.inf, claimed)
    return DistanceReport(alias_map.entries[0].distance, claimed)
