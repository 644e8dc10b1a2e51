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
    "INTENSITY_FLOOR",
    "h_q",
    "i_n",
    "tau",
    "enumerate_aliases",
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


def h_q(m: int, v: int, Q: int) -> complex:
    """Longitude phase sum for the 2Q-point trapezoidal rule, closed form.

    Equals 2*pi when v - m is a multiple of 2Q and 0 otherwise.
    """
    if Q < 1:
        raise ValueError(f"need Q >= 1, got Q={Q}")
    return complex(2.0 * math.pi) if (v - m) % (2 * Q) == 0 else 0.0j


def i_n(grid: SamplingGrid, ell: int, m: int, u: int, v: int, s: int) -> float:
    """Colatitude cross sum sum_p w_p d^ell_{m,-s}(theta_p) d^u_{v,-s}(theta_p).

    ``w_p`` are the grid's measure weights, so the sum approximates the
    integral of the product against sin(theta) d(theta); the weights take
    the signs of the grid's unsigned rows from ``_signs``.
    """
    if ell < max(abs(m), s):
        raise ValueError(f"need ell >= max(|m|, s): got ({ell}, {m}, {s})")
    if u < max(abs(v), s):
        raise ValueError(f"need u >= max(|v|, s): got ({u}, {v}, {s})")
    row, col = grid._d_rows(s, [(m, ell, ell), (v, u, u)])
    return float(row * (grid._weights * grid._signs(s, [ell, u], [m, v]).prod()) @ col)


def _kappa(z1, z2):
    return np.sqrt((2 * z1 + 1) * (2 * z2 + 1)) / 2.0


def tau(grid: SamplingGrid, source: HarmonicIndex, u: int, v: int) -> float:
    """Aliasing matrix element tau_s(ell, m; u, v) on ``grid``.

    Under the trapezoidal longitude rule the phase factor is a Kronecker
    comb, so the value is kappa * I on the lattice v = m + 2rQ and exactly
    zero elsewhere (the colatitude sum is then skipped entirely).
    """
    if u < max(abs(v), source.s):
        raise ValueError(f"need u >= max(|v|, s): got ({u}, {v}, {source.s})")
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
    distance; each product of unsigned rows takes its signs from ``_signs``.
    """
    if u_max is None:
        u_max = source.ell + 4 * (grid.N - grid.s)
    if u_max < source.ell:
        raise ValueError(f"need u_max >= ell, got u_max={u_max}, ell={source.ell}")
    ell, m, s = source.ell, source.m, source.s
    ((u, v, cols),) = grid._classes(s, [m], u_max)
    r = (v - m) // (2 * grid.Q)  # r = 0 gives the source order itself
    is_source = (u == ell) & (r == 0)
    signs = grid._signs(s, u, v) * grid._signs(s, ell, m)
    taus = _kappa(ell, u) * (cols @ (cols[is_source][0] * grid._weights) * signs)
    keep = (np.abs(taus) > INTENSITY_FLOOR) & ~is_source
    u, v, r, taus = u[keep], v[keep], r[keep], taus[keep]
    j = u - ell
    distance = np.array(list(map(math.hypot, j.tolist(), (v - m).tolist())))
    order = np.lexsort((r, j, distance))
    u, v, j, r, taus, distance = (x[order].tolist() for x in (u, v, j, r, taus, distance))
    last_secondary = grid.N - grid.s - 1
    klass = [AliasClass.PRIMARY if jj > last_secondary else AliasClass.SECONDARY for jj in j]
    entries = tuple(map(AliasEntry, repeat(source), map(HarmonicIndex, u, v, repeat(s)), j, r,
                        klass, taus, map(abs, taus), distance))
    return AliasMap(source=source, grid=grid, u_max=u_max, entries=entries)

