"""Spherical sampling grids: Gauss quadrature colatitudes and the
equiangular scheme, both paired with a 2Q-point trapezoidal longitude rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .special import _wigner_d_blocks

__all__ = [
    "SamplingScheme",
    "SamplingGrid",
    "gauss_nodes",
    "build_grid_gauss",
    "build_grid_equiangular",
]


class SamplingScheme(str, Enum):
    GAUSS_JACOBI = "gauss"
    EQUIANGULAR = "equiangular"


@dataclass(frozen=True, eq=False)
class SamplingGrid:
    """Colatitude and longitude nodes with weights.

    ``theta_weights`` are measure weights for both schemes:
    sum_p w_p f(theta_p) approximates int_0^pi f(theta) sin(theta) d(theta).
    The longitude rule follows from Q: ``phi_nodes`` are pi q / Q, q < 2Q,
    and ``phi_weights`` the uniform trapezoidal weights pi/Q.  Arrays are
    read-only.

    The grid also owns the Wigner-d tables.  They live on ``_nodes``, the
    sorted node set closed under theta -> pi - theta: the grid's nodes
    plus the mirror of every node without one within 1e-12.  Node p is
    ``_nodes[_near[p]]``, and ``_weights`` carries the measure weights
    over to ``_nodes`` (zero on added mirrors).  Reflection is index
    reversal, so with

        d^ell_{-m,-s}(theta) = (-1)^(ell+s) d^ell_{m,-s}(pi - theta)

    order -m reads the reversed block of order m, and only orders
    m >= 0 are stored: one block of rows d^ell_{m,-s},
    ell = max(m, s) .. top, per (m, s), built for the orders and the top
    degree a call asks for and freed with the grid.  The grid computes
    both legs of the transforms over its nodes, ``_synthesis`` and
    ``_analysis``; the alias analysis reads rows of signed orders through
    ``_d_rows``.  Grids are safe to share across threads: two threads may
    both build a missing block, and a longer block may replace a shorter
    one, but readers always see a complete, read-only array.
    """

    scheme: SamplingScheme
    N: int
    s: int
    Q: int
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    phi_nodes: np.ndarray = field(init=False)
    phi_weights: np.ndarray = field(init=False)
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _near: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _d_tables: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        # the transforms read the longitude sums as a length-2Q FFT
        phi, w_phi = _phi_rule(self.Q)
        theta, w_theta = np.asarray(self.theta_nodes, float), np.asarray(self.theta_weights, float)
        if theta.shape != w_theta.shape:
            raise ValueError("theta nodes/weights length mismatch")
        if not (theta.ndim == 1 and np.all((theta >= 0.0) & (theta <= math.pi))
                and np.all(np.isfinite(w_theta))):
            raise ValueError("need theta nodes in [0, pi] and finite theta weights, both 1-D")
        nodes, near, weights = _mirror_closed(theta, w_theta)
        for name, arr in (("theta_nodes", theta), ("theta_weights", w_theta),
                          ("phi_nodes", phi), ("phi_weights", w_phi),
                          ("_nodes", nodes), ("_near", near), ("_weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_theta(self) -> int:
        return self.theta_nodes.size

    @property
    def n_phi(self) -> int:
        return self.phi_nodes.size

    def _d_blocks(self, s: int, orders, top: int) -> dict:
        """Blocks of d^ell_{m,-s} over ``_nodes``, per order |m| for m in ``orders``.

        Row i of block m holds ell = max(m, s) + i; each block reaches at
        least ``top``.  Blocks are cached on the grid under (m, s); a request
        beyond a cached block rebuilds that order to ``top``, in one
        recursion pass over every such order.
        """
        tables = self._d_tables
        orders = {abs(m) for m in map(int, orders)}
        out = {}
        for m in orders:
            block = tables.get((m, s))  # one read: another thread may replace it
            if block is not None and max(m, s) + len(block) > top:
                out[m] = block
        stale = sorted(orders - out.keys())
        if stale:
            for m, block in zip(stale, _wigner_d_blocks(stale, s, top, self._nodes)):
                tables[(m, s)] = out[m] = block
        return out

    def _d_rows(self, s: int, cells) -> np.ndarray:
        """Rows d^u_{v,-s} over ``_nodes``, u = lo .. hi, for each (v, lo, hi) in ``cells``.

        Orders v may have either sign: order -v is the reversed block of
        order v with row signs (-1)^(u+s).  The rows are stacked in the
        order of ``cells`` (a list); missing orders are built in one kernel
        pass up to the largest hi.
        """
        blocks = self._d_blocks(s, [v for v, _, _ in cells], max(hi for *_, hi in cells))
        rows = np.concatenate([blocks[abs(v)][lo - max(abs(v), s) : hi + 1 - max(abs(v), s),
                                              :: -1 if v < 0 else 1] for v, lo, hi in cells])
        at = 0
        for v, lo, hi in cells:
            if v < 0:  # the rows of odd u + s change sign
                odd = rows[at + (lo + s + 1) % 2 : at + hi + 1 - lo : 2]
                np.negative(odd, out=odd)
            at += hi + 1 - lo
        return rows

    def _synthesis(self, s: int, a: np.ndarray) -> np.ndarray:
        """Field values, shape (n_theta, 2Q), of the normalised coefficients ``a``.

        ``a`` is dense, (L+1, 2L+1) with order m in column L + m.  The
        colatitude part is one product per order pair +-m with the order
        |m| block: order -m is that block reversed, with sign (-1)^(ell+s)
        per row.  The longitudes are a length-2Q inverse FFT; orders equal
        mod 2Q share a bin.
        """
        L, two_q = a.shape[0] - 1, 2 * self.Q
        # only the orders that carry a coefficient get a table
        carried = a.any(axis=0)
        orders = np.flatnonzero(carried[L:] | carried[L::-1])
        blocks = self._d_blocks(s, orders, L)
        # rows[i] = re, im of the coefficients of order orders[i], then of its negative
        pos = a.T[L + orders]
        neg = a.T[L - orders] * _parity(np.arange(L + 1), s)
        rows = np.stack([pos.real, pos.imag, neg.real, neg.imag], axis=1)
        # bins[m mod 2Q, re/im] = the order-m profile over _nodes
        bins = np.zeros((two_q, 2, self._nodes.size))
        for i, m in enumerate(orders.tolist()):
            l0 = max(m, s)
            profiles = rows[i, :, l0:] @ blocks[m][: L + 1 - l0]
            bins[m % two_q] += profiles[:2]
            if m:
                bins[-m % two_q, :, ::-1] += profiles[2:]
        return two_q * np.fft.ifft(bins[:, 0, self._near] + 1j * bins[:, 1, self._near], axis=0).T

    def _analysis(self, s: int, L: int, values: np.ndarray) -> np.ndarray:
        """Colatitude sums of the samples ``values``, shape (n_theta, 2Q).

        Returns the dense (L+1, 2L+1) sums
        sum_k w_k T(theta_k, phi_k) d^ell_{m,-s}(theta_k) exp(-i m phi_k),
        order m in column L + m, with the sign (-1)^(ell+s) of the mirror
        already on the columns m < 0: one length-2Q FFT over the
        longitudes, then one product per order pair +-m with the order |m|
        block, the -m columns reversed.
        """
        two_q = 2 * self.Q
        # w_p F[p, m mod 2Q] with F = sum_q w_q T(theta_p, phi_q) exp(-i m phi_q),
        # summed onto the mirror-closed nodes (a flat add.at is numpy's fast path)
        weighted = np.fft.fft(values, axis=1)
        weighted *= self.phi_weights[0] * self.theta_weights[:, None]
        on_nodes = np.zeros((self._nodes.size, two_q), dtype=complex)
        slots = self._near[:, None] * two_q + np.arange(two_q)
        np.add.at(on_nodes.reshape(-1), slots.ravel(), weighted.ravel())
        # cols[b] = (re, im) of bin b, then of bin -b reversed: the columns of orders +-m
        fwd = on_nodes.T
        bwd = fwd[-np.arange(two_q) % two_q, ::-1]
        cols = np.stack([fwd.real, fwd.imag, bwd.real, bwd.imag], axis=2)
        sums = np.zeros((L + 1, 2 * L + 1), dtype=complex)
        signed = sums.view(float).reshape(L + 1, 2 * L + 1, 2)
        for m, block in self._d_blocks(s, range(L + 1), L).items():
            l0 = max(m, s)
            part = block[: L + 1 - l0] @ cols[m % two_q]
            signed[l0:, L - m] = part[:, 2:]
            signed[l0:, L + m] = part[:, :2]
        sums[:, :L] *= _parity(np.arange(L + 1), s)[:, None]
        return sums


def _parity(degs, s: int) -> np.ndarray:
    """(-1)^(deg+s) per degree: the row signs of a negative order."""
    return 1.0 - 2.0 * ((np.asarray(degs) + s) % 2)


def _mirror_closed(theta: np.ndarray, weights: np.ndarray):
    """Sorted nodes closed under theta -> pi - theta, with each node's index.

    Nodes are folded onto [0, pi/2] and merged within 1e-12; the lower
    half is the folded set and the upper half its exact mirror, so index
    reversal is reflection.  Returns (nodes, near, weights on nodes).
    """
    tol = 1e-12
    fold = np.minimum(theta, math.pi - theta)
    half = np.sort(fold)
    half = half[np.diff(half, prepend=-1.0) > tol]
    # a node at pi/2 is its own mirror and appears once
    self_mirror = int(half.size > 0 and half[-1] >= math.pi / 2 - tol)
    nodes = np.concatenate([half, math.pi - half[::-1][self_mirror:]])
    k = np.searchsorted(half, fold + tol, side="right") - 1
    near = np.where(theta > math.pi / 2, nodes.size - 1 - k, k)
    on_nodes = np.zeros(nodes.size)
    np.add.at(on_nodes, near, weights)
    return nodes, near, on_nodes


def _phi_rule(Q: int):
    if Q < 1:
        raise ValueError(f"need Q >= 1, got Q={Q}")
    q = np.arange(2 * Q)
    phi = q * math.pi / Q
    w = np.full(2 * Q, math.pi / Q)
    return phi, w


def gauss_nodes(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    The rule integrates polynomials of degree <= 2n-1 exactly.  Built by
    the Golub-Welsch eigenvalue method from the Legendre recurrence
    coefficients, with numpy's dense symmetric eigensolver.

    Returns
    -------
    (nodes, weights) : two ndarrays of length n, nodes increasing.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    # j / sqrt(4j^2 - 1) in its Jacobi form; the short form moves last digits
    jj = np.arange(1, n, dtype=float)
    ssum = 2.0 * jj
    off = np.sqrt(4.0 * jj * jj * jj * jj / (ssum * ssum * (ssum * ssum - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    # eigh returns the nodes in increasing order; the weight function has mass 2
    return nodes, 2.0 * vecs[0, :] ** 2


def build_grid_gauss(N: int, s: int, Q: int) -> SamplingGrid:
    """Gauss colatitude grid for spin ``s`` with 2Q longitudes.

    Places n = N - s colatitude nodes at arccos of the n-point
    Gauss-Legendre abscissas; the weights are the Gauss-Legendre weights
    omega_p, exact for cosine polynomials up to degree 2n - 1.  The rule
    is mirror-symmetric by construction: the upper half of the nodes is
    pi minus the lower half, a middle node sits at pi/2, and each mirror
    pair of weights is the pair's mean.
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    if N <= s:
        raise ValueError(f"need N > s, got N={N}, s={s}")
    t, omega = gauss_nodes(N - s)
    # descending t gives increasing theta
    theta = np.arccos(t[::-1])
    # the eigensolver's nodes are symmetric only to a few ulp
    half = theta.size // 2
    theta[theta.size - half:] = math.pi - theta[:half][::-1]
    if theta.size % 2:
        theta[half] = math.pi / 2
    weights = (omega + omega[::-1]) / 2
    return SamplingGrid(SamplingScheme.GAUSS_JACOBI, N, s, Q, theta, weights)


def build_grid_equiangular(N: int, s: int, Q: int) -> SamplingGrid:
    """Equiangular colatitude grid for spin ``s`` with 2Q longitudes.

    With n' = N - s (required even and positive) the grid has 2n' nodes
    theta_p = pi*p/(2n') and weights

        w_p = (2/n') sin(theta_p) sum_{k=0}^{n'-1} sin((2k+1) theta_p)/(2k+1),

    which reproduce integrals against sin(theta) d(theta) for cosine
    polynomials up to degree 2n'-1.  The pole node theta=0 carries
    weight zero.  Fields band-limited at L0 round-trip exactly when
    N - s > L0 and Q > L0.
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got s={s}")
    nprime = N - s
    if nprime <= 0 or nprime % 2:
        raise ValueError(f"need N - s positive and even, got N-s={nprime}")
    p = np.arange(2 * nprime)
    theta = math.pi * p / (2.0 * nprime)
    k = np.arange(nprime)
    # w[p] = (2/n') sin(theta_p) * sum_k sin((2k+1) theta_p) / (2k+1)
    sums = np.sin(np.outer(theta, 2 * k + 1)) @ (1.0 / (2 * k + 1))
    w_theta = (2.0 / nprime) * np.sin(theta) * sums
    return SamplingGrid(SamplingScheme.EQUIANGULAR, N, s, Q, theta, w_theta)


def table_weights(grid: SamplingGrid) -> np.ndarray:
    """Colatitude weight column as printed in the reference node table.

    The table lists omega_p / sin(theta_p) for the Gauss scheme and the
    measure weights themselves for the equiangular scheme.
    """
    if grid.scheme is SamplingScheme.GAUSS_JACOBI:
        return grid.theta_weights / np.sin(grid.theta_nodes)
    return grid.theta_weights

