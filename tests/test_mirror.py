"""The mirror identity behind the m >= 0 Wigner-d tables.

Every grid keeps one node set closed under theta -> pi - theta, so

    d^ell_{-m,-s}(theta) = (-1)^(ell+s) d^ell_{m,-s}(pi - theta)

serves each negative order from the cached block of order |m|, read
reversed.  The properties below hold on both schemes and on asymmetric
grids, whose node set gains the missing mirrors.  The references are the
Jacobi-form oracles ``wigner_d_jacobi``/``spin_sph_harm_jacobi`` of
``_invariants`` and direct kernel calls on the grid's own nodes, neither
of which reads the grid's tables.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinalias import (
    FieldSamples,
    SpinCoefficients,
    analyze,
    build_grid_equiangular,
    build_grid_gauss,
    i_n,
    synthesize,
)
from spinalias.sampling import SamplingGrid, SamplingScheme
from spinalias.special import _wigner_d_blocks

from _invariants import spin_sph_harm_jacobi, wigner_d_jacobi


def _custom_grid(theta, weights, Q: int) -> SamplingGrid:
    return SamplingGrid(SamplingScheme.GAUSS_JACOBI, len(theta), 0, Q,
                        np.asarray(theta), np.asarray(weights))


KINDS = ("gauss", "equiangular", "fixed", "random")


@st.composite
def grids(draw, s: int, Q: int = 1, kinds=KINDS):
    """A fresh grid of one of ``kinds``: Gauss, equiangular or asymmetric.

    The asymmetric ones are the fixed nodes (0.5, 1.0) and a random set,
    which may repeat a colatitude.
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "gauss":
        return build_grid_gauss(s + draw(st.integers(1, 41)), s, Q)
    if kind == "equiangular":
        return build_grid_equiangular(s + 2 * draw(st.integers(1, 21)), s, Q)
    if kind == "fixed":
        return _custom_grid([0.5, 1.0], [1.0, 1.0], Q)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    theta = rng.uniform(0.0, math.pi, n)
    if draw(st.booleans()):
        theta = np.append(theta, theta[0])
    return _custom_grid(np.sort(theta), rng.uniform(0.1, 1.0, theta.size), Q)


@settings(max_examples=40, deadline=None)
@given(s=st.integers(0, 3), data=st.data())
def test_node_set_is_mirror_closed(s, data):
    # nodes on Gauss grids, nodes plus pi on equiangular ones, at most 2n otherwise
    grid = data.draw(grids(s), label="grid")
    nodes, theta = grid._nodes, grid.theta_nodes
    assert np.all(np.diff(nodes) > 0)
    assert np.abs(nodes + nodes[::-1] - math.pi).max() <= 1e-15
    assert np.abs(nodes[grid._near] - theta).max() <= 1e-12
    # each node's weight lands on its point; added mirrors carry none
    summed = np.bincount(grid._near, grid.theta_weights, minlength=nodes.size)
    assert np.abs(grid._weights - summed).max() <= 1e-15
    if grid.scheme is SamplingScheme.EQUIANGULAR:
        assert nodes.size == theta.size + 1 and nodes[-1] == math.pi
    elif np.abs(theta + theta[::-1] - math.pi).max() <= 1e-12:
        assert nodes.size == theta.size
    else:
        assert nodes.size <= 2 * theta.size


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_negative_orders_served_from_the_positive_block(data):
    # the rows of orders +-m, degrees lo .. L, against the kernel on the grid's nodes:
    # order -m is the order-m block reversed over _nodes, and _signs makes it d^u_{-m,-s}
    s = data.draw(st.integers(0, 3), label="s")
    L = data.draw(st.integers(s, 40), label="L")
    m = data.draw(st.integers(0, L), label="m")
    lo = data.draw(st.integers(max(m, s), L), label="lo")
    first = lo - max(m, s)
    for kind in KINDS:
        grid = data.draw(grids(s, kinds=[kind]), label=kind)
        rows = grid._d_rows(s, [(-m, lo, L), (m, lo, L)])
        assert list(grid._d_tables) == [(m, s)]
        unsigned_neg, pos = np.split(rows, 2)
        assert np.array_equal(unsigned_neg, pos[:, ::-1] if m else pos)
        (direct_pos,) = _wigner_d_blocks([m], s, L, grid.theta_nodes)
        (direct_neg,) = _wigner_d_blocks([-m], s, L, grid.theta_nodes)
        signs = grid._signs(s, np.arange(lo, L + 1), -m)[:, None]
        served_neg = unsigned_neg[:, grid._near] * signs
        assert np.abs(pos[:, grid._near] - direct_pos[first:]).max(initial=0.0) <= 1e-12
        assert np.abs(served_neg - direct_neg[first:]).max(initial=0.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_synthesize_equals_dense_sum(data):
    # a few random modes of both signs; Q <= L folds orders into shared FFT bins
    s = data.draw(st.integers(0, 3), label="s")
    L = data.draw(st.integers(s, 40), label="L")
    Q = data.draw(st.integers(1, 8), label="Q")
    grid = data.draw(grids(s, Q), label="grid")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    coeffs = SpinCoefficients.zeros(s, L)
    for _ in range(data.draw(st.integers(1, 6), label="modes")):
        ell = int(rng.integers(s, L + 1))
        m = int(rng.integers(-ell, ell + 1))
        coeffs.set(ell, m, complex(*rng.standard_normal(2)))
    theta, phi = grid.theta_nodes[:, None], grid.phi_nodes[None, :]
    dense = sum(coeffs.get(ell, m) * spin_sph_harm_jacobi(ell, m, s, theta, phi)
                for ell, m in coeffs.indices() if coeffs.get(ell, m))
    assert np.abs(synthesize(coeffs, grid).values - dense).max() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_analyze_equals_dense_quadrature(data):
    # w_p w_q T conj(Y) summed node by node; repeated colatitudes share a point
    s = data.draw(st.integers(0, 3), label="s")
    L = data.draw(st.integers(s, 12), label="L")
    Q = data.draw(st.integers(1, 8), label="Q")
    grid = data.draw(grids(s, Q), label="grid")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    shape = (grid.n_theta, grid.n_phi)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tilde = analyze(FieldSamples(grid, values), s, L)
    theta, phi = grid.theta_nodes[:, None], grid.phi_nodes[None, :]
    weighted = grid.theta_weights[:, None] * grid.phi_weights[None, :] * values
    for ell, m in tilde.indices():
        dense = (weighted * np.conj(spin_sph_harm_jacobi(ell, m, s, theta, phi))).sum()
        assert abs(tilde.get(ell, m) - dense) <= 1e-12


@st.composite
def cells(draw):
    s = draw(st.integers(0, 3))
    ell = draw(st.integers(s, 40))
    u = draw(st.integers(s, 40))
    m = draw(st.integers(-ell, ell))
    v = draw(st.integers(-u, u))
    return s, ell, m, u, v


@settings(max_examples=60, deadline=None)
@given(cell=cells(), data=st.data())
def test_cross_sums_of_negative_orders(cell, data):
    # every sign pair (m, v) against the sum taken straight from the Jacobi form
    s, ell, m, u, v = cell
    grid = data.draw(grids(s), label="grid")
    theta = grid.theta_nodes
    direct = float((grid.theta_weights * np.asarray(wigner_d_jacobi(ell, m, s, theta))
                    * np.asarray(wigner_d_jacobi(u, v, s, theta))).sum())
    assert abs(i_n(grid, ell, m, u, v, s) - direct) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(cell=cells(), data=st.data())
def test_cross_sum_mirror_identity(cell, data):
    # I(ell, -m; u, -v) = (-1)^(ell+u) I(ell, m; u, v) on mirror-symmetric grids
    s, ell, m, u, v = cell
    grid = data.draw(grids(s, kinds=KINDS[:2]), label="grid")
    sign = -1.0 if (ell + u) % 2 else 1.0
    assert abs(i_n(grid, ell, -m, u, -v, s) - sign * i_n(grid, ell, m, u, v, s)) <= 1e-12
