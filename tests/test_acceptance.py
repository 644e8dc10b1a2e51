"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import subprocess
import sys
import time

import pytest

from spinalias import (
    AliasClass,
    AngularPowerSpectrum,
    HarmonicIndex,
    build_grid_gauss,
    enumerate_aliases,
    monte_carlo_spectrum,
    verify_bandlimit,
    wigner_d,
)

from _invariants import (
    h_q_kronecker_deviation,
    orthonormality_deviation,
    parity_annihilation_deviation,
    spectral_vs_direct_deviation,
    tau_symmetry_deviation,
    wigner_parity_deviation,
)

# printed reference tables for the worked example (N=6, s=2), 3-4 decimals
TABLE1_GJ_NODES = [0.533, 1.224, 1.918, 2.601]
TABLE1_GJ_WEIGHTS = [0.684, 0.693, 0.693, 0.684]
TABLE1_EA_NODES = [0.0, 0.392, 0.785, 1.178, 1.570, 1.963, 2.356, 2.748]
TABLE1_EA_WEIGHTS = [0.0, 0.177, 0.247, 0.393, 0.361, 0.393, 0.247, 0.177]

TABLE2 = {
    # (j, r): (gauss, equiangular)
    (0, 1): (0.7640, 0.6109),
    (0, -1): (0.7588, 0.6112),
    (1, 1): (0.6984, None),  # equiangular cell: see TABLE2_ERRATA
    (1, -1): (-0.6992, None),
    (2, 1): (0.3189, 0.2740),
    (2, -1): (0.3261, 0.2728),
    (2, 2): (0.9346, 0.8263),
    (2, -2): (0.9292, 0.8269),
    (3, 1): (0.1981, 0.1297),
    (3, -1): (-0.1925, -0.1286),
    (3, 2): (0.3891, 0.4492),
    (3, -2): (-0.3968, -0.4490),
}

# Equiangular (j=1, r=+-1) cells, i.e. (u, v) = (3, +-2): the printed values
# are not what the quadrature gives, so they are checked against their exact
# value instead.  d^2_{0,-2} = (sqrt(6)/4) sin^2(theta) and d^3_{+-2,-2} are
# cosine polynomials, so the cell is
#   kappa(2, 3) * int_0^pi d^2_{0,-2} d^3_{+-2,-2} sin(theta) dtheta
#     = +-sqrt(210)/20,
# with a cosine-polynomial integrand of degree 5.  The 8-node equiangular
# (Driscoll-Healy type) rule is exact to degree 7, so it returns this value
# exactly (as does the 4-node Gauss-Legendre rule with the sin(theta)
# measure), and the other ten equiangular cells match this exact-measure
# integral to 1.8e-3.  On the rounded Table-1 nodes and weights the same tau
# sum reproduces the other 22 printed cells to 1e-4 but gives +0.7235 and
# -0.7237 here, not +-0.167.  No choice of spin sign, v sign, sin(theta)
# factor, half-grid folding or kappa normalisation gives 0.1672.
SQRT210_OVER_20 = 0.7245688373094719
TABLE2_ERRATA = {
    # (j, r): (printed equiangular, exact equiangular)
    (1, 1): (0.1672, SQRT210_OVER_20),
    (1, -1): (-0.1673, -SQRT210_OVER_20),
}
ERRATUM_TOL = 1e-12


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "spinalias.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num} ({name}): {status}{' — ' + detail if detail else ''}")


def test_criterion_1_gauss_grid_table():
    start = time.perf_counter()
    code, out, _ = run_cli("grid", "--scheme", "gauss", "--N", "6", "--s", "2")
    elapsed = time.perf_counter() - start
    lines = [ln for ln in out.splitlines() if ln.startswith("theta")]
    nodes = [float(ln.split(",")[2]) for ln in lines]
    weights = [float(ln.split(",")[3]) for ln in lines]
    node_dev = max(abs(a - b) for a, b in zip(nodes, TABLE1_GJ_NODES))
    weight_dev = max(abs(a - b) for a, b in zip(weights, TABLE1_GJ_WEIGHTS))
    sym_dev = max(
        abs(nodes[0] + nodes[3] - math.pi), abs(nodes[1] + nodes[2] - math.pi)
    )
    ok = (
        code == 0
        and len(nodes) == 4
        and node_dev <= 0.01
        and weight_dev <= 0.01
        and sym_dev <= 1e-12
        and elapsed < 1.0
    )
    report(1, "Gauss node table", ok,
           f"node dev {node_dev:.4f}, weight dev {weight_dev:.4f}, "
           f"mirror dev {sym_dev:.1e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_equiangular_grid_table():
    start = time.perf_counter()
    code, out, _ = run_cli("grid", "--scheme", "equiangular", "--N", "6", "--s", "2")
    elapsed = time.perf_counter() - start
    lines = [ln for ln in out.splitlines() if ln.startswith("theta")]
    nodes = [float(ln.split(",")[2]) for ln in lines]
    weights = [float(ln.split(",")[3]) for ln in lines]
    node_dev = max(abs(a - b) for a, b in zip(nodes, TABLE1_EA_NODES))
    weight_dev = max(abs(a - b) for a, b in zip(weights, TABLE1_EA_WEIGHTS))
    equator_dev = abs(weights[4] - 0.361905)
    ok = (
        code == 0
        and len(nodes) == 8
        and node_dev <= 0.001
        and weight_dev <= 0.001
        and equator_dev <= 1e-6
        and elapsed < 1.0
    )
    report(2, "equiangular node table", ok,
           f"node dev {node_dev:.5f}, weight dev {weight_dev:.5f}, "
           f"equator dev {equator_dev:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_3_tau_table():
    start = time.perf_counter()
    code, out, _ = run_cli("alias-map", "--paper-example", "--Q", "1")
    assert code == 0
    tau_section = out.split("\n\n")[0].splitlines()
    computed = {}
    for line in tau_section[1:]:
        j, r, _u, _v, t_gj, t_ea = line.split(",")
        computed[(int(j), int(r))] = (float(t_gj), float(t_ea))
    elapsed = time.perf_counter() - start

    failures = []
    logged = []
    n_printed = 0
    for cell, (ref_gj, ref_ea) in TABLE2.items():
        got_gj, got_ea = computed[cell]
        for scheme, ref, got in (("gauss", ref_gj, got_gj),
                                 ("equiangular", ref_ea, got_ea)):
            if ref is None:
                continue
            n_printed += 1
            diff = abs(got - ref)
            if diff > 0.005:
                logged.append(f"  {scheme} j={cell[0]} r={cell[1]:+d}: "
                              f"printed {ref:+.4f} computed {got:+.4f} diff {diff:.4f}")
            if diff > 0.02:
                failures.append(f"{scheme} (j={cell[0]}, r={cell[1]})")
    erratum_failures = []
    for cell, (printed, exact) in TABLE2_ERRATA.items():
        got = computed[cell][1]
        logged.append(f"  equiangular j={cell[0]} r={cell[1]:+d}: "
                      f"printed {printed:+.4f} computed {got:+.4f} "
                      f"(erratum, exact {exact:+.16f}, diff {abs(got - exact):.1e})")
        if abs(got - exact) > ERRATUM_TOL:
            erratum_failures.append(f"equiangular (j={cell[0]}, r={cell[1]})")
    if logged:
        print("discrepancies above 0.005:")
        for line in logged:
            print(line)
    ok = not failures and not erratum_failures and elapsed < 5.0
    report(3, "tau value table", ok,
           f"{n_printed - len(failures)}/{n_printed} printed cells within 0.02; "
           f"{len(TABLE2_ERRATA) - len(erratum_failures)}/{len(TABLE2_ERRATA)} "
           f"erratum cells within {ERRATUM_TOL:.0e} of +-sqrt(210)/20, {elapsed:.2f}s")
    if failures or erratum_failures:
        pytest.fail(
            "printed cells outside 0.02: " + (", ".join(failures) or "none")
            + f"; erratum cells outside {ERRATUM_TOL:.0e} of +-sqrt(210)/20: "
            + (", ".join(erratum_failures) or "none")
        )
    assert elapsed < 5.0


def test_criterion_4_bandlimit_roundtrip():
    start = time.perf_counter()
    worst = 0.0
    for l0, s, n, q in ((4, 2, 8, 8), (6, 3, 10, 10)):
        for seed in range(20):
            rep = verify_bandlimit(l0, s, n, q, seed=seed)
            worst = max(worst, rep.max_abs_error)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report(4, "band-limited round trip", ok,
           f"max |a~ - a| = {worst:.2e} over 40 runs, {elapsed:.1f}s")
    assert ok


def test_criterion_5_secondary_elimination():
    start = time.perf_counter()
    # sweep: oversampled longitude (Q = N-s+1) kills every secondary alias;
    # N is chosen per (ell, s) so the surviving r=0 cells sit in the exact
    # regime of the colatitude rule
    leftover = 0.0
    for s in range(0, 4):
        for ell in range(max(s, 1), 7):
            n_cap = s + 2 * ell
            grid = build_grid_gauss(n_cap, s, n_cap - s + 1)
            for m in range(-ell, ell + 1):
                amap = enumerate_aliases(
                    HarmonicIndex(ell, m, s), grid, u_max=ell + (n_cap - s)
                )
                for e in amap.entries:
                    if e.klass is AliasClass.SECONDARY:
                        leftover = max(leftover, e.intensity)
    # reference configuration at Q=1: the four near secondaries are present
    grid = build_grid_gauss(6, 2, 1)
    amap = enumerate_aliases(HarmonicIndex(2, 0, 2), grid, u_max=5)
    secondary = {
        (e.j, e.r): e.intensity
        for e in amap.entries
        if e.klass is AliasClass.SECONDARY
    }
    required = [(2, 1), (2, -1), (3, 1), (3, -1)]
    present = all(secondary.get(cell, 0.0) > 0.1 for cell in required)
    elapsed = time.perf_counter() - start
    ok = leftover < 1e-12 and present and elapsed < 10.0
    report(5, "secondary-alias elimination", ok,
           f"worst leftover secondary {leftover:.1e}; Q=1 near-secondary "
           f"intensities {[round(secondary.get(c, 0.0), 3) for c in required]}, "
           f"{elapsed:.1f}s")
    assert ok


def test_criterion_6_invariant_suites():
    start = time.perf_counter()
    checks = {
        "orthonormality (1e-10)": (orthonormality_deviation(wigner_d), 1e-10),
        "wigner parity (1e-12)": (wigner_parity_deviation(wigner_d), 1e-12),
        "H_Q kronecker (1e-12)": (h_q_kronecker_deviation(), 1e-12),
        "parity annihilation (1e-12)": (parity_annihilation_deviation(), 1e-12),
        "tau symmetry (1e-12)": (tau_symmetry_deviation(), 1e-12),
        "spectral vs direct (1e-10)": (spectral_vs_direct_deviation(), 1e-10),
    }
    elapsed = time.perf_counter() - start
    bad = {k: v for k, (v, tol) in checks.items() if v >= tol}
    ok = not bad and elapsed < 60.0
    detail = "; ".join(f"{k.split(' (')[0]} {v:.1e}" for k, (v, _) in checks.items())
    report(6, "invariant suites", ok, f"{detail}, {elapsed:.1f}s")
    assert ok, bad


def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    spec = AngularPowerSpectrum.flat(2, 8)
    grid = build_grid_gauss(6, 2, 1)
    rep = monte_carlo_spectrum(spec, grid, 8, [2, 3, 4, 5, 6], 2000, seed=7)
    elapsed = time.perf_counter() - start
    worst_z = max(abs(z) for z in rep.z_scores)
    ok = worst_z < 3.0 and elapsed < 300.0
    report(7, "Monte Carlo spectrum validation", ok,
           f"|z| <= {worst_z:.2f} over ells {rep.ells}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_reproducible_output():
    start = time.perf_counter()
    first = run_cli("alias-map", "--paper-example", "--Q", "1", "--format", "csv")
    second = run_cli("alias-map", "--paper-example", "--Q", "1", "--format", "csv")
    elapsed = time.perf_counter() - start
    ok = first == second and first[0] == 0 and elapsed < 5.0
    report(8, "byte-reproducible output", ok,
           f"{len(first[1])} bytes identical across runs, {elapsed:.2f}s")
    assert ok
