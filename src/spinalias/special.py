"""Scalar kernels: Jacobi polynomials, Wigner small-d matrices and
spin-weighted spherical harmonics, plus the private block kernel that
builds whole orders of Wigner-d rows on a set of nodes.

All public functions accept scalar or ndarray angular arguments and
evaluate elementwise.  Everything here is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HarmonicIndex",
    "jacobi",
    "jacobi_norm",
    "wigner_d",
    "spin_sph_harm",
]

_T_TOL = 1e-12
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


def jacobi(nu: int, alpha: float, beta: float, t):
    """Evaluate the Jacobi polynomial P_nu^(alpha, beta) at t in [-1, 1].

    Uses the standard three-term recurrence in the degree, which is exact
    for nu = 0, 1 and stable for alpha, beta > -1 and non-negative integer
    parameters.
    """
    if nu < 0:
        raise ValueError(f"degree must be >= 0, got nu={nu}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _T_TOL):
        raise ValueError("argument outside [-1, 1]")
    p_prev = np.ones_like(t)
    if nu == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p_cur = (alpha + 1.0) + (alpha + beta + 2.0) * (t - 1.0) / 2.0
    for k in range(2, nu + 1):
        c1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        c2 = (2.0 * k + alpha + beta - 1.0) * (
            (2.0 * k + alpha + beta) * (2.0 * k + alpha + beta - 2.0) * t
            + alpha * alpha
            - beta * beta
        )
        c3 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return p_cur if p_cur.ndim else float(p_cur)


def jacobi_norm(nu: int, alpha: float, beta: float) -> float:
    """Squared weighted L2 norm of P_nu^(alpha, beta) on [-1, 1].

    Returns the constant Lambda such that the polynomials of equal
    parameters integrate against the weight (1-t)^alpha (1+t)^beta to
    Lambda on the diagonal and 0 off it.
    """
    if nu < 0:
        raise ValueError(f"degree must be >= 0, got nu={nu}")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"need alpha, beta > -1, got ({alpha}, {beta})")
    log_val = (
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(nu + alpha + 1.0)
        + math.lgamma(nu + beta + 1.0)
        - math.lgamma(nu + 1.0)
        - math.lgamma(nu + alpha + beta + 1.0)
    )
    return math.exp(log_val) / (2.0 * nu + alpha + beta + 1.0)


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < -_THETA_TOL) or np.any(theta > math.pi + _THETA_TOL):
        raise ValueError("colatitude outside [0, pi]")
    return np.clip(theta, 0.0, math.pi)


def wigner_d(ell: int, m: int, s: int, theta):
    """Wigner small-d element d^ell_{m,-s}(theta).

    Evaluated through the symmetry-reduced Jacobi representation with
    non-negative polynomial parameters a = |m+s|, b = |m-s| and degree
    ell - max(|m|, |s|); the sign is fixed so that the result agrees with
    the half-angle product formula on the quadrant m+s >= 0, m-s >= 0.
    Accepts any integer spin (s may be negative).
    """
    if ell < max(abs(m), abs(s)):
        raise ValueError(f"need ell >= max(|m|, |s|): got ({ell}, {m}, {s})")
    theta = _check_theta(theta)
    m2 = -s
    k = min(ell + m, ell - m, ell + m2, ell - m2)
    if k == ell + m:
        a, lam = m2 - m, m2 - m
    elif k == ell - m:
        a, lam = m - m2, 0
    elif k == ell + m2:
        a, lam = m - m2, 0
    else:
        a, lam = m2 - m, m2 - m
    b = 2 * ell - 2 * k - a
    # prefactor sqrt( C(2*ell-k, k+a) / C(k+b, b) ), via log-gamma
    log_pref = 0.5 * (
        math.lgamma(2 * ell - k + 1)
        - math.lgamma(k + a + 1)
        - math.lgamma(k + b + 1)
        + math.lgamma(k + 1)
    )
    sign = -1.0 if lam % 2 else 1.0
    half = 0.5 * theta
    # the prefactor overflows alone for ell > ~1030; a = 0 keeps sin^0(0) = 1
    with np.errstate(divide="ignore"):
        log_sin = a * np.log(np.sin(half)) if a else 0.0
    log_val = log_pref + log_sin + b * np.log(np.cos(half))
    val = sign * np.exp(log_val) * jacobi(k, float(a), float(b), np.cos(theta))
    val = np.asarray(val)
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
    """
    if s < 0:
        raise ValueError(f"spin weight must be >= 0, got s={s}")
    theta = _check_theta(theta).ravel()
    cos_t = np.cos(theta)
    ms = np.asarray(orders, dtype=int).reshape(-1)
    # orders sorted by their first degree: the active ones are a prefix
    by_start = np.argsort(np.maximum(np.abs(ms), s), kind="stable")
    m = ms[by_start]
    m2 = m * m
    l0 = np.maximum(np.abs(m), s)
    p, q = np.abs(m + s)[:, None], np.abs(m - s)[:, None]
    log_c = [math.lgamma(2 * n + 1) - math.lgamma(i + 1) - math.lgamma(j + 1)
             for n, i, j in zip(l0, p.flat, q.flat)]
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 at theta = 0: 0 log 0 = 0
        log_sin = np.where(p > 0, p * np.log(np.sin(theta / 2)), 0.0)
    sign = np.where((m < -s) & ((m + s) % 2 == 1), -1.0, 1.0)[:, None]
    cur = sign * np.exp(0.5 * np.c_[log_c] + log_sin + q * np.log(np.cos(theta / 2)))
    prev = cur.copy()  # an order not yet reached keeps its seed in both rows
    first = np.concatenate(([0], np.cumsum(np.maximum(top - l0 + 1, 0))))
    buf = np.empty((int(first[-1]), theta.size))
    for ell in range(int(l0[0]) if m.size else top + 1, top + 1):
        k = np.searchsorted(l0, ell, side="right")
        buf[first[:k] + (ell - l0[:k])] = cur[:k]
        if ell == top:
            break
        a = (ell + 1) * (2 * ell + 1) / np.sqrt(
            ((ell + 1) ** 2 - m2[:k]) * ((ell + 1) ** 2 - s * s))
        if ell:
            b = -m[:k] * s / (ell * (ell + 1))
            c = np.sqrt((ell * ell - m2[:k]) * (ell * ell - s * s)) / (ell * (2 * ell + 1))
        else:
            b = c = np.zeros(k)
        # the next row overwrites the previous one in place
        nxt = prev[:k]
        nxt *= -c[:, None]
        step = cos_t - b[:, None]
        step *= cur[:k]
        nxt += step
        nxt *= a[:, None]
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
