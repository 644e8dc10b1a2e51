"""Scalar kernels: Wigner small-d matrices and spin-weighted spherical
harmonics, both read from the private block kernel that builds whole
orders of Wigner-d rows on a set of nodes.

All public functions accept scalar or ndarray angular arguments and
evaluate elementwise.  Everything here is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HarmonicIndex",
    "wigner_d",
    "spin_sph_harm",
]

_THETA_TOL = 1e-9


@dataclass(frozen=True)
class HarmonicIndex:
    """Location (ell, m, s) of a spin-s harmonic coefficient."""

    ell: int
    m: int
    s: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"spin weight must be >= 0, got s={self.s}")
        if self.ell < max(abs(self.m), self.s):
            raise ValueError(
                f"need ell >= max(|m|, s): got (ell={self.ell}, m={self.m}, s={self.s})"
            )


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta >= -_THETA_TOL) & (theta <= math.pi + _THETA_TOL)):  # NaN fails too
        raise ValueError("colatitude outside [0, pi]")
    return np.clip(theta, 0.0, math.pi)


def wigner_d(ell: int, m: int, s: int, theta):
    """Wigner small-d element d^ell_{m,-s}(theta).

    The last row of the order-m block of ``_wigner_d_blocks`` run up to
    ``ell``.  Accepts any integer spin: a negative s reads
    d^ell_{m,-s} = (-1)^(m+s) d^ell_{-m,s}.
    """
    if ell < max(abs(m), abs(s)):
        raise ValueError(f"need ell >= max(|m|, |s|): got ({ell}, {m}, {s})")
    sign = 1.0
    if s < 0:
        sign, m, s = (-1.0) ** (m + s), -m, -s
    theta = np.asarray(theta, dtype=float)
    (block,) = _wigner_d_blocks([m], s, ell, theta)
    val = sign * block[-1].reshape(theta.shape)
    return val if val.ndim else float(val)


def _wigner_d_blocks(orders, s: int, top: int, theta) -> list:
    """Rows d^ell_{m,-s}(theta), ell = max(|m|, s) .. top, for each order m.

    Runs the three-term recursion in ell

        d^{ell+1} = A [(cos(theta) - B) d^ell - C d^{ell-1}],
        A = (ell+1)(2ell+1) / sqrt(((ell+1)^2 - m^2)((ell+1)^2 - s^2)),
        B = -m s / (ell (ell+1)),
        C = sqrt((ell^2 - m^2)(ell^2 - s^2)) / (ell (2ell+1)),

    once for all requested orders, each seeded at ell0 = max(|m|, s) by
    the closed form sigma sqrt(C(2 ell0, p)) sin^p(theta/2) cos^q(theta/2),
    p = |m+s|, q = |m-s|, sigma = (-1)^(m+s) if m < -s else 1, taken in
    log space (C = 0 at ell0, so no earlier row is needed).  At ell0 = 0
    (s = m = 0) B and C are 0/0 and taken as 0, which gives
    d^1_{0,0} = cos(theta).  Returns one read-only (rows x nodes) array
    per order, in the order given; an order with ell0 > top gets zero
    rows.  The arrays are views of one buffer.

    With the orders sorted by ell0, the orders active at step ell are a
    prefix.  A, B and C are tabled before the loop for every (step,
    active order) pair, step-major, one triple per output row, so a step
    reads one contiguous slice and runs in place in preallocated rows.
    The table evaluates the same integers and the same float operations
    as a per-step evaluation, and the step keeps the order
    A ((cos(theta) - B) d^ell - C d^{ell-1}), so every row is the same to
    the bit.
    """
    if s < 0:
        raise ValueError(f"spin weight must be >= 0, got s={s}")
    theta = _check_theta(theta).ravel()
    cos_t = np.cos(theta)
    ms = np.asarray(orders, dtype=int).reshape(-1)
    # orders sorted by their first degree: the active ones are a prefix
    by_start = np.argsort(np.maximum(np.abs(ms), s), kind="stable")
    m = ms[by_start]
    l0 = np.maximum(np.abs(m), s)
    p, q = np.abs(m + s)[:, None], np.abs(m - s)[:, None]
    log_c = [math.lgamma(2 * n + 1) - math.lgamma(i + 1) - math.lgamma(j + 1)
             for n, i, j in zip(l0.tolist(), p.ravel().tolist(), q.ravel().tolist())]
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 at theta = 0: 0 log 0 = 0
        log_sin = np.where(p > 0, p * np.log(np.sin(theta / 2)), 0.0)
    sign = np.where((m < -s) & ((m + s) % 2 == 1), -1.0, 1.0)[:, None]
    cur = sign * np.exp(0.5 * np.array(log_c)[:, None] + log_sin + q * np.log(np.cos(theta / 2)))
    prev = cur.copy()  # an order not yet reached keeps its seed in both rows
    first = np.concatenate(([0], np.cumsum(np.maximum(top - l0 + 1, 0))))
    # the (step, active order) pairs, step-major: step ell holds the prefix of
    # orders with l0 <= ell, one pair per output row
    start = int(l0[0]) if m.size else top + 1
    ells = np.arange(start, top + 1)
    active = np.searchsorted(l0, ells, side="right")
    step, order = np.nonzero(l0 <= ells[:, None])
    ell, m_at = ells[step], m[order]
    dest = (first[:-1] - l0)[order] + ell
    # the same integers and float operations as a per-step evaluation, so every row
    # keeps its bits; at ell = 0 (s = m = 0) B and C are 0/0: a denominator of 1 gives 0
    e, width, m2 = ell + 1, 2 * ell + 1, m_at * m_at
    a = e * width / np.sqrt((e * e - m2) * (e * e - s * s))
    b = -m_at * s / np.maximum(ell * e, 1)
    neg_c = -np.sqrt((ell * ell - m2) * (ell * ell - s * s)) / np.maximum(ell * width, 1)
    a, b, neg_c = a[:, None], b[:, None], neg_c[:, None]  # columns: one per row of a step
    del step, order, ell, m_at, e, width, m2  # freed before the rows, to keep the peak down
    buf = np.empty((int(first[-1]), theta.size))
    scratch = np.empty_like(cur)
    hi = 0
    for ell, k in zip(range(start, top + 1), active.tolist()):
        lo, hi = hi, hi + k
        buf[dest[lo:hi]] = cur[:k]
        if ell == top:
            break
        # d^{ell+1} = A ((cos - B) d^ell - C d^{ell-1}) overwrites d^{ell-1} in place
        nxt, tmp = prev[:k], scratch[:k]
        nxt *= neg_c[lo:hi]
        np.subtract(cos_t, b[lo:hi], out=tmp)
        tmp *= cur[:k]
        nxt += tmp
        nxt *= a[lo:hi]
        prev, cur = cur, prev
    buf.setflags(write=False)
    blocks = [None] * m.size
    for i, pos in enumerate(by_start):
        blocks[pos] = buf[first[i] : first[i + 1]]
    return blocks


def spin_sph_harm(ell: int, m: int, s: int, theta, phi):
    """Spin-weighted spherical harmonic Y_{ell,m;s}(theta, phi).

    Y = sqrt((2*ell+1)/(4*pi)) * (-1)^s * exp(i*m*phi) * d^ell_{m,-s}(theta).
    """
    phi = np.asarray(phi, dtype=float)
    norm = math.sqrt((2 * ell + 1) / (4.0 * math.pi))
    sign = -1.0 if s % 2 else 1.0
    val = norm * sign * np.exp(1j * m * phi) * wigner_d(ell, m, s, theta)
    val = np.asarray(val)
    return val if val.ndim else complex(val)
