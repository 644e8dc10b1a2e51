"""Shared invariant sweeps and oracles, used by the unit tests and the
acceptance gate.

Each sweep returns the worst deviation found so the callers can assert
against the stated tolerance; the Wigner-d sweeps take the evaluator they
check as an argument.  The oracles are independent routes to library
results (the Jacobi form of the Wigner-d elements, term-by-term phase
sums, the derivative weight formula, mirror-folded and cell-by-cell
colatitude sums) and share no code with the paths they check: nothing
here imports the library's Wigner-d evaluators.
"""

import math

import numpy as np

from spinalias import (
    AliasClass,
    HarmonicIndex,
    aliased_coefficient,
    build_grid_equiangular,
    build_grid_gauss,
    gauss_nodes,
    h_q,
    i_n,
    sample_gaussian_coeffs,
    synthesize,
    tau,
)
from spinalias.spectrum import AngularPowerSpectrum


def jacobi(nu: int, alpha: float, beta: float, t):
    """Evaluate the Jacobi polynomial P_nu^(alpha, beta) at t in [-1, 1].

    Uses the standard three-term recurrence in the degree, which is exact
    for nu = 0, 1 and stable for alpha, beta > -1 and non-negative integer
    parameters.
    """
    if nu < 0:
        raise ValueError(f"degree must be >= 0, got nu={nu}")
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
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
    if np.any(theta < -1e-9) or np.any(theta > math.pi + 1e-9):
        raise ValueError("colatitude outside [0, pi]")
    return np.clip(theta, 0.0, math.pi)


def wigner_d_jacobi(ell: int, m: int, s: int, theta):
    """Wigner small-d element d^ell_{m,-s}(theta) from its Jacobi form.

    Evaluated through the symmetry-reduced Jacobi representation with
    non-negative polynomial parameters a = |m+s|, b = |m-s| and degree
    ell - max(|m|, |s|); the sign is fixed so that the result agrees with
    the half-angle product formula on the quadrant m+s >= 0, m-s >= 0.
    Accepts any integer spin (s may be negative).  Shares no code with
    the library's l-recursion kernel.
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


def spin_sph_harm_jacobi(ell: int, m: int, s: int, theta, phi):
    """Spin-weighted spherical harmonic Y_{ell,m;s}(theta, phi) on ``wigner_d_jacobi``.

    Y = sqrt((2*ell+1)/(4*pi)) * (-1)^s * exp(i*m*phi) * d^ell_{m,-s}(theta).
    """
    phi = np.asarray(phi, dtype=float)
    norm = math.sqrt((2 * ell + 1) / (4.0 * math.pi))
    sign = -1.0 if s % 2 else 1.0
    val = norm * sign * np.exp(1j * m * phi) * wigner_d_jacobi(ell, m, s, theta)
    val = np.asarray(val)
    return val if val.ndim else complex(val)


def h_q_direct(m: int, v: int, Q: int) -> complex:
    """Longitude phase sum evaluated term by term."""
    q = np.arange(2 * Q)
    return complex((math.pi / Q) * np.exp(1j * (v - m) * q * math.pi / Q).sum())


def jacobi_deriv(nu: int, alpha: float, beta: float, t):
    """First derivative of P_nu^(alpha, beta) at t."""
    if nu == 0:
        t = np.asarray(t, dtype=float)
        z = np.zeros_like(t)
        return z if z.ndim else 0.0
    return 0.5 * (nu + alpha + beta + 1.0) * jacobi(nu - 1, alpha + 1.0, beta + 1.0, t)


def h_factor(z1: int, z2: int, z3: int) -> float:
    """sqrt( (z3-z2)! (z3+z2)! / ((z3+z1)! (z3-z1)!) ), in log space.

    Safe for arguments of several hundred where direct factorials would
    overflow.
    """
    for arg in (z3 - z2, z3 + z2, z3 + z1, z3 - z1):
        if arg < 0:
            raise ValueError(
                f"negative factorial argument in h_factor({z1}, {z2}, {z3})"
            )
    log_val = 0.5 * (
        math.lgamma(z3 - z2 + 1)
        + math.lgamma(z3 + z2 + 1)
        - math.lgamma(z3 + z1 + 1)
        - math.lgamma(z3 - z1 + 1)
    )
    return math.exp(log_val)


def gauss_weights_from_derivative(nodes, n: int, alpha: float = 0.0, beta: float = 0.0):
    """Gauss-Jacobi weights from the classical derivative formula.

    w_k = G / ((1 - t_k^2) * P'_n(t_k)^2) with
    G = 2^(alpha+beta+1) Gamma(n+alpha+1) Gamma(n+beta+1) /
        (n! Gamma(n+alpha+beta+1)).

    Independent of the Golub-Welsch eigenvectors behind ``gauss_nodes``.
    """
    nodes = np.asarray(nodes, dtype=float)
    g = math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(n + alpha + 1.0)
        + math.lgamma(n + beta + 1.0)
        - math.lgamma(n + 1.0)
        - math.lgamma(n + alpha + beta + 1.0)
    )
    dp = jacobi_deriv(n, alpha, beta, nodes)
    return g / ((1.0 - nodes * nodes) * np.asarray(dp) ** 2)


def i_n_halfgrid(grid, ell: int, m: int, u: int, v: int, s: int) -> float:
    """Mirror-folded colatitude cross sum for reflection-even integrands.

    Valid when the summand is invariant under theta -> pi - theta (for
    example v = -m with u = ell): mirror pairs are counted once and
    doubled, self-mirrored nodes (theta = pi/2, or zero-weight poles)
    once.
    """
    theta = grid.theta_nodes
    term = (grid.theta_weights * np.asarray(wigner_d_jacobi(ell, m, s, theta))
            * np.asarray(wigner_d_jacobi(u, v, s, theta)))
    lower = theta < math.pi / 2.0 - 1e-13
    middle = np.abs(theta - math.pi / 2.0) <= 1e-13
    return float(2.0 * term[lower].sum() + term[middle].sum())


class CellOracle:
    """Colatitude sums cell by cell on one grid, straight from ``wigner_d_jacobi``.

    Evaluates I(ell, m; u, v) = sum_p w_p d^ell_{m,-s} d^u_{v,-s} per
    lattice cell with the grid's weights, and from it the alias cells,
    the transfer factors and the aliased spectrum by the defining loops.
    It goes through neither the library's d-table cache nor ``i_n`` or
    ``tau``; only the Wigner-d values of one (degree, order) are memoized.
    """

    def __init__(self, grid, s: int):
        self.grid, self.s = grid, s
        self._d = {}

    def d(self, deg: int, order: int) -> np.ndarray:
        if (deg, order) not in self._d:
            self._d[deg, order] = np.asarray(
                wigner_d_jacobi(deg, order, self.s, self.grid.theta_nodes))
        return self._d[deg, order]

    def tau(self, ell: int, m: int, u: int, v: int) -> float:
        cross = float((self.grid.theta_weights * self.d(ell, m) * self.d(u, v)).sum())
        return math.sqrt((2 * ell + 1) * (2 * u + 1)) / 2.0 * cross

    def wraps(self, m: int, u: int) -> list:
        """Wraps r with v = m + 2rQ and |v| <= u."""
        two_q = 2 * self.grid.Q
        return [r for r in range(-u - abs(m), u + abs(m) + 1) if abs(m + r * two_q) <= u]

    def aliases(self, ell: int, m: int, u_max: int, floor: float = 1e-12) -> dict:
        """{(u, v, j, r): (class, tau)} over every lattice cell but the identity."""
        n = self.grid.N - self.grid.s
        out = {}
        for u in range(self.s, u_max + 1):
            for r in self.wraps(m, u):
                v = m + 2 * r * self.grid.Q
                value = self.tau(ell, m, u, v)
                if (u, r) != (ell, 0) and abs(value) > floor:
                    klass = AliasClass.PRIMARY if u - ell > n - 1 else AliasClass.SECONDARY
                    out[u, v, u - ell, r] = (klass, value)
        return out

    def xi(self, ell: int, m: int, u: int) -> tuple:
        """(xi, xi0): tau^2 summed over the wraps r != 0, and over all wraps."""
        sq = {r: self.tau(ell, m, u, m + 2 * r * self.grid.Q) ** 2 for r in self.wraps(m, u)}
        return sum(val for r, val in sq.items() if r != 0), sum(sq.values())

    def spectrum(self, spec, ells, u_max: int) -> list:
        """sum_m sum_u xi0(ell, m, u) C_u / (2 ell + 1) per ell."""
        return [
            sum(self.xi(ell, m, u)[1] * spec.total_at(u)
                for m in range(-ell, ell + 1) for u in range(self.s, u_max + 1))
            / (2 * ell + 1)
            for ell in ells
        ]


def gaussian_coeffs_loop(spec, L0: int, seed) -> np.ndarray:
    """Coefficient values drawn one ell at a time, E re, E im, B re, B im.

    The per-ell draw loop that ``sample_gaussian_coeffs`` replaced with a
    single draw; the two must agree bit for bit.
    """
    rng = np.random.default_rng(seed)
    s = spec.s
    out = np.zeros((L0 + 1, 2 * L0 + 1), dtype=complex)
    for ell in range(s, L0 + 1):
        n_m = 2 * ell + 1
        scale_e = math.sqrt(spec.C_E[ell - s] / 2.0)
        scale_b = math.sqrt(spec.C_B[ell - s] / 2.0)
        ge = scale_e * (rng.standard_normal(n_m) + 1j * rng.standard_normal(n_m))
        gb = scale_b * (rng.standard_normal(n_m) + 1j * rng.standard_normal(n_m))
        out[ell, L0 - ell : L0 + ell + 1] = ge + 1j * gb
    return out


def wigner_parity_deviation(wigner_d, l_max=20, thetas=(0.2, 0.9, 1.7, 2.5)) -> float:
    """max |d^l_{m,-s}(pi - t) - (-1)^(l+s) d^l_{-m,-s}(t)| over the sweep.

    ``wigner_d(ell, m, s, theta)`` is the evaluator under test.
    """
    worst = 0.0
    thetas = np.asarray(thetas)
    for ell in range(l_max + 1):
        for s in range(ell + 1):
            sign = -1.0 if (ell + s) % 2 else 1.0
            for m in range(-ell, ell + 1):
                lhs = np.asarray(wigner_d(ell, m, s, math.pi - thetas))
                rhs = sign * np.asarray(wigner_d(ell, -m, s, thetas))
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def orthonormality_deviation(wigner_d, l_max=10, s_max=3) -> float:
    """Dense-quadrature check of int Y conj(Y') dx = delta * delta.

    ``wigner_d(ell, m, s, theta)`` is the evaluator under test.

    The product rule is separable: an equispaced longitude rule with
    more points than 2*l_max makes the phase integral an exact
    2*pi*delta_{mm'}, and a Gauss-Legendre colatitude rule with at least
    4*(l+l') points handles the rest.  Both factors are checked.
    """
    n_theta = 4 * 2 * l_max + 4
    t, w = gauss_nodes(n_theta)
    theta = np.arccos(t)
    n_phi = 4 * 2 * l_max
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    worst = 0.0
    # longitude factor: (2pi/M) sum exp(i k phi) = 2pi delta_k for |k| <= 2 l_max
    for k in range(-2 * l_max, 2 * l_max + 1):
        val = (2.0 * math.pi / n_phi) * np.exp(1j * k * phi).sum()
        target = 2.0 * math.pi if k == 0 else 0.0
        worst = max(worst, abs(val - target))
    # colatitude factor per (s, m): gram of normalized rows
    for s in range(s_max + 1):
        for m in range(-l_max, l_max + 1):
            ells = [l for l in range(max(abs(m), s), l_max + 1)]
            if not ells:
                continue
            rows = np.array(
                [
                    math.sqrt((2 * l + 1) / (4.0 * math.pi)) * np.asarray(wigner_d(l, m, s, theta))
                    for l in ells
                ]
            )
            gram = 2.0 * math.pi * (rows * w) @ rows.T
            worst = max(worst, float(np.abs(gram - np.eye(len(ells))).max()))
    return worst


def addition_theorem_deviation(spin_sph_harm, l_max=20, s_max=3) -> float:
    """max | sum_m |Y_{l,m;s}|^2 - (2l+1)/(4pi) | at a few points.

    ``spin_sph_harm(ell, m, s, theta, phi)`` is the evaluator under test.
    """
    worst = 0.0
    points = [(0.4, 0.7), (1.3, 2.9), (2.8, 5.5)]
    for s in range(s_max + 1):
        for ell in range(s, l_max + 1):
            target = (2 * ell + 1) / (4.0 * math.pi)
            for theta, phi in points:
                total = sum(
                    abs(spin_sph_harm(ell, m, s, theta, phi)) ** 2
                    for m in range(-ell, ell + 1)
                )
                worst = max(worst, abs(total - target))
    return worst


def h_q_kronecker_deviation(q_values=(1, 2, 3, 5)) -> float:
    """Direct-vs-closed-form agreement and the Kronecker comb structure."""
    worst = 0.0
    for Q in q_values:
        for m in range(-3, 4):
            for v in range(-6 * Q, 6 * Q + 1):
                direct = h_q_direct(m, v, Q)
                closed = h_q(m, v, Q)
                worst = max(worst, abs(direct - closed))
                target = 2.0 * math.pi if (v - m) % (2 * Q) == 0 else 0.0
                worst = max(worst, abs(direct - target))
    return worst


def parity_annihilation_deviation(N=6, s=2, ell_max=4) -> float:
    """|I(l, 0; l+j, 0)| for odd j on both grids."""
    worst = 0.0
    for grid in (build_grid_gauss(N, s, 1), build_grid_equiangular(N, s, 1)):
        for ell in range(s, ell_max + 1):
            for j in range(1, 9, 2):
                worst = max(worst, abs(i_n(grid, ell, 0, ell + j, 0, s)))
    return worst


def tau_symmetry_deviation(l_max=8, N=6, s=2, Q=1) -> float:
    """max |tau(l,m;u,v) - tau(u,v;l,m)| over the on-lattice sweep."""
    grid = build_grid_gauss(N, s, Q)
    worst = 0.0
    for ell in range(s, l_max + 1):
        for m in range(-ell, ell + 1):
            src = HarmonicIndex(ell, m, s)
            for u in range(s, l_max + 1):
                for r in range((-u - m) // (2 * Q), (u - m) // (2 * Q) + 1):
                    v = m + 2 * r * Q
                    if abs(v) > u:
                        continue
                    fwd = tau(grid, src, u, v)
                    rev = tau(grid, HarmonicIndex(u, v, s), ell, m)
                    worst = max(worst, abs(fwd - rev))
    return worst


def spectral_vs_direct_deviation(L0=4, s=2, N=6, Q=1, seed=123) -> float:
    """Direct discrete sums vs the tau-weighted coefficient mixing."""
    grid = build_grid_gauss(N, s, Q)
    spec = AngularPowerSpectrum.flat(s, L0)
    coeffs = sample_gaussian_coeffs(spec, L0, seed)
    field = synthesize(coeffs, grid)
    worst = 0.0
    for ell in range(s, L0 + 1):
        for m in range(-ell, ell + 1):
            direct = aliased_coefficient(field, HarmonicIndex(ell, m, s))
            mixed = 0.0 + 0.0j
            for u in range(s, L0 + 1):
                for v in range(-u, u + 1):
                    a = coeffs.get(u, v)
                    if a == 0:
                        continue
                    mixed += tau(grid, HarmonicIndex(ell, m, s), u, v) * a
            worst = max(worst, abs(direct - mixed))
    return worst


def discrete_orthonormality_deviation(N=8, s=2, Q=2) -> float:
    """tau(l,m;u,m) = delta_{lu} in the exact regime on the Gauss grid."""
    grid = build_grid_gauss(N, s, Q)
    n = N - s
    worst = 0.0
    for ell in range(s, N):
        for u in range(s, N):
            if ell + u > 2 * n - 1:
                continue
            for m in range(-min(ell, u), min(ell, u) + 1):
                val = tau(grid, HarmonicIndex(ell, m, s), u, m)
                target = 1.0 if ell == u else 0.0
                worst = max(worst, abs(val - target))
    return worst
