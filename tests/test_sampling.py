import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import roots_jacobi

from spinalias import (
    SamplingScheme,
    build_grid_equiangular,
    build_grid_gauss,
    gauss_nodes,
)
from spinalias.sampling import SamplingGrid, table_weights

from _invariants import gauss_weights_from_derivative

# reference node table for (N=6, s=2), three printed decimals
TABLE_GJ_NODES = [0.533, 1.224, 1.918, 2.601]
TABLE_GJ_WEIGHTS = [0.684, 0.693, 0.693, 0.684]
TABLE_EA_NODES = [0.0, 0.392, 0.785, 1.178, 1.570, 1.963, 2.356, 2.748]
TABLE_EA_WEIGHTS = [0.0, 0.177, 0.247, 0.393, 0.361, 0.393, 0.247, 0.177]


class TestGaussNodes:
    def test_one_point_midpoint(self):
        nodes, weights = gauss_nodes(1)
        assert_allclose(nodes, [0.0], atol=1e-15)
        assert_allclose(weights, [2.0], rtol=1e-15)

    def test_two_point_legendre(self):
        nodes, weights = gauss_nodes(2)
        assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], rtol=1e-14)
        assert_allclose(weights, [1.0, 1.0], rtol=1e-14)

    def test_four_point_legendre(self):
        nodes, weights = gauss_nodes(4)
        assert_allclose(
            nodes,
            [-0.861136311594053, -0.339981043584856,
             0.339981043584856, 0.861136311594053],
            atol=1e-13,
        )
        assert_allclose(
            weights,
            [0.347854845137454, 0.652145154862546,
             0.652145154862546, 0.347854845137454],
            rtol=1e-12,
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_monomial_exactness(self, n):
        nodes, weights = gauss_nodes(n)
        for k in range(2 * n):
            approx = float(weights @ nodes**k)
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(approx - exact) < 1e-13

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_weight_routes_agree(self, n):
        nodes, weights = gauss_nodes(n)
        alt = gauss_weights_from_derivative(nodes, n)
        assert_allclose(weights, alt, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_scipy(self, n):
        nodes, weights = gauss_nodes(n)
        ref_nodes, ref_weights = roots_jacobi(n, 0.0, 0.0)
        assert_allclose(nodes, ref_nodes, atol=1e-13)
        assert_allclose(weights, ref_weights, rtol=1e-12)

    def test_library_does_not_import_scipy(self):
        # scipy is a test oracle only; the library and its CLI run without it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, spinalias, spinalias.cli; spinalias.build_grid_gauss(9, 2, 3); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gauss_nodes(0)


class TestGaussGrid:
    def test_reference_table(self):
        grid = build_grid_gauss(6, 2, 1)
        assert grid.scheme is SamplingScheme.GAUSS_JACOBI
        assert grid.n_theta == 4
        assert_allclose(grid.theta_nodes, TABLE_GJ_NODES, atol=0.01)
        assert_allclose(table_weights(grid), TABLE_GJ_WEIGHTS, atol=0.001)

    def test_node_symmetry(self):
        grid = build_grid_gauss(6, 2, 1)
        assert abs(grid.theta_nodes[0] + grid.theta_nodes[3] - math.pi) < 1e-12
        assert abs(grid.theta_nodes[1] + grid.theta_nodes[2] - math.pi) < 1e-12

    def test_three_point_legendre_case(self):
        grid = build_grid_gauss(3, 0, 1)
        expected_nodes = np.arccos([math.sqrt(0.6), 0.0, -math.sqrt(0.6)])
        assert_allclose(grid.theta_nodes, expected_nodes, atol=1e-14)
        assert_allclose(grid.theta_weights, [5 / 9, 8 / 9, 5 / 9], rtol=1e-13)

    def test_phi_rule(self):
        grid = build_grid_gauss(6, 2, 3)
        assert grid.n_phi == 6
        assert_allclose(grid.phi_nodes, np.arange(6) * math.pi / 3, atol=1e-15)
        assert_allclose(grid.phi_weights, math.pi / 3, rtol=1e-15)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_grid_gauss(2, 2, 1)
        with pytest.raises(ValueError):
            build_grid_gauss(6, 2, 0)
        with pytest.raises(ValueError):
            build_grid_gauss(6, -1, 1)


@pytest.mark.parametrize("theta,weights", [
    ([0.5, math.nan], [1.0, 1.0]),
    ([-1e-9, 1.0], [1.0, 1.0]),
    ([0.5, math.pi + 1e-9], [1.0, 1.0]),
    ([0.5, 1.0], [1.0, math.nan]),
    ([0.5, 1.0], [math.inf, 1.0]),
    ([[0.9, 2.2]], [[1.0, 1.0]]),
], ids=["nan-node", "below-0", "above-pi", "nan-weight", "inf-weight", "2-d"])
def test_rule_checked_at_build(theta, weights):
    # a bad rule fails when the grid is built, not at its first table or sum
    with pytest.raises(ValueError, match=r"need theta nodes in \[0, pi\] and finite theta weights"):
        SamplingGrid(SamplingScheme.GAUSS_JACOBI, 4, 0, 1, np.array(theta), np.array(weights))
    # the poles themselves are nodes of the equiangular rule
    SamplingGrid(SamplingScheme.GAUSS_JACOBI, 4, 0, 1, np.array([0.0, math.pi]), np.ones(2))


class TestEquiangularGrid:
    def test_reference_table(self):
        grid = build_grid_equiangular(6, 2, 1)
        assert grid.scheme is SamplingScheme.EQUIANGULAR
        assert grid.n_theta == 8
        assert_allclose(grid.theta_nodes, TABLE_EA_NODES, atol=0.001)
        assert_allclose(grid.theta_weights, TABLE_EA_WEIGHTS, atol=0.001)

    def test_pole_weight_zero(self):
        grid = build_grid_equiangular(6, 2, 1)
        assert grid.theta_weights[0] == 0.0

    def test_equator_weight_closed_form(self):
        grid = build_grid_equiangular(6, 2, 1)
        expected = 0.5 * (1 - 1 / 3 + 1 / 5 - 1 / 7)
        assert_allclose(grid.theta_weights[4], expected, rtol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_grid_equiangular(7, 2, 1)
        with pytest.raises(ValueError):
            build_grid_equiangular(2, 2, 1)


class TestMeasureWeights:
    @pytest.mark.parametrize("scheme,N,s", [
        ("gauss", 3, 2), ("gauss", 6, 2), ("gauss", 8, 3), ("gauss", 5, 0),
        ("equiangular", 2, 0), ("equiangular", 6, 2), ("equiangular", 8, 0),
        ("equiangular", 10, 4),
    ])
    def test_quadrature_exactness(self, scheme, N, s):
        # sum w g(theta) reproduces int g(theta) sin(theta) d(theta) for
        # cos-polynomials of degree up to 2(N-s)-1, and not beyond
        build = build_grid_gauss if scheme == "gauss" else build_grid_equiangular
        grid = build(N, s, 1)
        t = np.cos(grid.theta_nodes)
        for k in range(2 * (N - s) + 1):
            approx = float(grid.theta_weights @ t**k)
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert (abs(approx - exact) < 1e-12) == (k < 2 * (N - s))


class TestLongitudeExactness:
    @pytest.mark.parametrize("Q", [1, 2, 5])
    def test_phase_sums(self, Q):
        grid = build_grid_gauss(6, 2, Q)
        for k in range(-6 * Q, 6 * Q + 1):
            val = complex((grid.phi_weights * np.exp(1j * k * grid.phi_nodes)).sum())
            target = 2 * math.pi if k % (2 * Q) == 0 else 0.0
            assert abs(val - target) < 1e-12


def _mirror_deviation(grid):
    """Largest |theta_p + theta_(n-1-p) - pi| and |w_p - w_(n-1-p)|.

    A zero-weight node at theta = 0 is its own mirror and is left out.
    """
    theta, w = grid.theta_nodes, grid.theta_weights
    if theta[0] == 0.0 and w[0] == 0.0:
        theta, w = theta[1:], w[1:]
    return max(np.abs(theta + theta[::-1] - math.pi).max(), np.abs(w - w[::-1]).max())


class TestValidateSymmetry:
    """Mirror symmetry of the colatitude rules about pi/2."""

    def test_gauss_grid_symmetric(self):
        assert _mirror_deviation(build_grid_gauss(6, 2, 1)) < 1e-12

    def test_equiangular_grid_symmetric(self):
        assert _mirror_deviation(build_grid_equiangular(6, 2, 1)) < 1e-12

    @pytest.mark.parametrize("N,s", [(8, 2), (9, 3), (12, 0)])
    def test_gauss_sweep(self, N, s):
        assert _mirror_deviation(build_grid_gauss(N, s, 1)) < 1e-12

    def test_gauss_exactly_symmetric(self):
        # mirrored by construction, not left to the eigensolver's rounding
        asymmetric = []
        for n in range(1, 201):
            grid = build_grid_gauss(n + 2, 2, 1)
            theta, w = grid.theta_nodes, grid.theta_weights
            if not (np.all(theta + theta[::-1] == math.pi) and np.array_equal(w, w[::-1])):
                asymmetric.append(n)
        assert asymmetric == []
