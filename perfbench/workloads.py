"""The benchmark's workloads, their operations and the gates on them.

Every workload is a closed loop with one client: it runs a fixed cycle of
operation kinds, one operation at a time, until its time is up.  The
operations call spinalias only through its public functions (the ``cli``
workload through child processes), and each one is checked against an
oracle that does not share the path under test.  Gates apply to the
Gauss outputs; equiangular residuals are reported as values, because the
equiangular measure convention is known to be wrong at this commit.

Why each workload and cycle looks the way it does is written down in
``BENCHMARK.json`` and ``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spinalias as sa
from spinalias import cli as sa_cli
from spinalias import fieldsim as sa_fieldsim
from spinalias import spectrum as sa_spectrum
from tracing import NullTracer

S = 2  # spin weight of every workload
ROUNDTRIP_TOL = 1e-10
TAU_TOL = 1e-12
ALIAS_FREE_TOL = 1e-10
Z_LIMIT = 5.0
TAU_CHECKS_PER_OP = 3
CSV_WORDS = {"", "True", "False", "primary", "secondary", "gauss", "equiangular", "theta",
             "phi"}


@dataclass
class Outcome:
    """What one operation did and whether it passed its gate.

    ``values`` holds residuals and counts; ``layer_s`` holds per-layer
    seconds derived by the operation itself (traced runs only), which
    override the span self times of the same name; ``check`` is an
    oracle run after the operation's clock has stopped.
    """

    work: float
    passed: bool = True
    values: dict = field(default_factory=dict)
    layer_s: dict = field(default_factory=dict)
    check: Callable[[], tuple] | None = None


def build_grid(scheme: str, N: int, Q: int):
    if scheme == "gauss":
        return sa.build_grid_gauss(N, S, Q)
    return sa.build_grid_equiangular(N, S, Q)


def _cold_then_warm(tr, name: str, call) -> tuple:
    """Run ``call`` under span ``name``; in traced runs repeat it warm.

    The d-tables live in a cache keyed on the grid, so the cold call minus
    the warm repeat on the same grid is the table build, measured from
    outside the library.
    """
    t0 = time.perf_counter()
    with tr.span(name):
        result = call()
    cold = time.perf_counter() - t0
    if not tr.enabled:
        return result, {}
    t0 = time.perf_counter()
    with tr.span("measure.warm_repeat"):
        call()
    warm = time.perf_counter() - t0
    return result, {"special.dtable_build": max(cold - warm, 0.0), name: warm}


def dtable_bytes(pairs: int, grid) -> int:
    """Bytes of cached d-table values: one float64 per (pair, node)."""
    return pairs * grid.n_theta * 8


# ---------------------------------------------------------------- transform

def roundtrip(tr, scheme: str, L0: int, seed) -> Outcome:
    """Cold band-limit round trip on a fresh grid, checked against the draw."""
    N = S + L0 + (1 if scheme == "gauss" else 2)
    with tr.span("sampling.grid_build"):
        grid = build_grid(scheme, N, L0 + 1)
    spec = sa.AngularPowerSpectrum.flat(S, L0)
    with tr.span("fieldsim.draw"):
        coeffs = sa.sample_gaussian_coeffs(spec, L0, seed)
    field_, layer = _cold_then_warm(tr, "fieldsim.synth", lambda: sa.synthesize(coeffs, grid))
    with tr.span("fieldsim.analysis"):
        out = sa.analyze(field_, S, L0)
    err = float(np.abs(out.values - coeffs.values).max())
    n_coeff = (L0 + 1) ** 2 - S * S
    key = "roundtrip_err" if scheme == "gauss" else "eq_roundtrip_err"
    return Outcome(
        work=n_coeff,
        passed=scheme != "gauss" or err <= ROUNDTRIP_TOL,
        values={key: err, "dtable_bytes": dtable_bytes(n_coeff, grid)},
        layer_s=layer,
    )


class Transform:
    """Cold round trips at L0 = 48 and 96, Gauss and equiangular.

    An L0=96 op costs about six L0=48 ops, so the cycle runs six of the
    small ones per large one: each size gets about half of the time.
    """

    unit = "coefficients"
    KINDS = {"gauss48": ("gauss", 48), "equi48": ("equiangular", 48),
             "gauss96": ("gauss", 96), "equi96": ("equiangular", 96)}
    cycle = (["gauss48", "equi48"] * 3 + ["gauss96"]
             + ["gauss48", "equi48"] * 3 + ["equi96"])
    # statistics pool the two schemes of one size, which cost about the same
    groups = {"gauss48": "L0=48", "equi48": "L0=48", "gauss96": "L0=96", "equi96": "L0=96"}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        # touch every code path once at a size whose tables are negligible
        roundtrip(NULL_TRACER, "gauss", 4, 0)

    def run(self, tr, kind: str, index: int) -> Outcome:
        scheme, L0 = self.KINDS[kind]
        return roundtrip(tr, scheme, L0, np.random.SeedSequence([self.seed, index]))


# --------------------------------------------------------------- montecarlo

def montecarlo(tr, grid, lmax: int, n_real: int, seed: int) -> Outcome:
    """One ``monte_carlo_spectrum`` call, gated on |z| <= 5 for Gauss."""
    spec = sa.AngularPowerSpectrum.flat(S, lmax)
    with (tr.patched(sa_fieldsim, "sample_gaussian_coeffs", "fieldsim.draw"),
          tr.patched(sa_fieldsim, "synthesize", "fieldsim.synth"),
          tr.patched(sa_fieldsim, "analyze", "fieldsim.analysis"),
          tr.patched(sa_spectrum, "aliased_spectrum", "fieldsim.mc_prediction"),
          tr.span("fieldsim.monte_carlo")):
        report = sa.monte_carlo_spectrum(spec, grid, lmax, range(S, lmax + 1), n_real, seed)
    z = np.abs(np.asarray(report.z_scores))
    max_z = float(z.max()) if np.all(np.isfinite(z)) else math.inf
    gauss = grid.scheme.value == "gauss"
    return Outcome(
        work=n_real,
        passed=not gauss or max_z <= Z_LIMIT,
        values={"mc_max_z" if gauss else "eq_mc_max_z": max_z},
    )


class MonteCarlo:
    """The paper's validation loop at two configurations, both schemes.

    One grid per configuration is built, and its d-tables filled, in
    set-up; the timed loop then only reads the tables.
    """

    unit = "realizations"
    # kind: (scheme, lmax, N, Q, realizations)
    KINDS = {"gauss_l8": ("gauss", 8, 6, 1, 2000), "equi_l8": ("equiangular", 8, 6, 1, 2000),
             "gauss_l16": ("gauss", 16, 12, 4, 500), "equi_l16": ("equiangular", 16, 12, 4, 500)}
    cycle = list(KINDS)
    groups = {"gauss_l8": "lmax8", "equi_l8": "lmax8", "gauss_l16": "lmax16",
              "equi_l16": "lmax16"}

    def __init__(self, seed: int):
        self.seed = seed
        self.grids = {}

    def setup(self):
        build_s = table_s = 0.0
        table_bytes = 0
        for kind, (scheme, lmax, N, Q, _) in self.KINDS.items():
            t0 = time.perf_counter()
            grid = self.grids[kind] = build_grid(scheme, N, Q)
            build_s += time.perf_counter() - t0
            coeffs = sa.sample_gaussian_coeffs(sa.AngularPowerSpectrum.flat(S, lmax), lmax, 0)
            # the untimed call that fills the tables, then a warm repeat
            t0 = time.perf_counter()
            sa.synthesize(coeffs, grid)
            t1 = time.perf_counter()
            sa.synthesize(coeffs, grid)
            table_s += max((t1 - t0) - (time.perf_counter() - t1), 0.0)
            table_bytes += dtable_bytes((lmax + 1) ** 2 - S * S, grid)
        n = len(self.KINDS)
        # per-layer metrics of set-up: the timed loop never builds a grid or a table
        self.setup_layers = {
            "sampling.grid_build_s": build_s / n, "special.dtable_build_s": table_s / n,
            "sampling.grid_calls": n, "special.dtable_bytes": table_bytes,
        }

    def run(self, tr, kind: str, index: int) -> Outcome:
        _, lmax, _, _, n_real = self.KINDS[kind]
        seed = (self.seed * 1_000_003 + index) % 2**32
        return montecarlo(tr, self.grids[kind], lmax, n_real, seed)


# ------------------------------------------------------------------ predict

def lattice_wraps(m: int, u: int, Q: int) -> int:
    """Number of longitude wraps r with |m + 2rQ| <= u."""
    return math.floor((u - m) / (2 * Q)) - math.ceil((-u - m) / (2 * Q)) + 1


def enumerate_cells(source, Q: int, u_max: int) -> int:
    """Lattice cells ``enumerate_aliases`` walks: all (u, v) but the identity."""
    return sum(lattice_wraps(source.m, u, Q) for u in range(S, u_max + 1)) - 1


@functools.cache
def spectrum_counts(ells: tuple, Q: int, u_max: int) -> tuple:
    """(lattice cells, xi calls, distinct d-table rows) of one prediction.

    These depend on the configuration only, so each is worked out once.
    """
    cells = sum(lattice_wraps(m, u, Q)
                for ell in ells for m in range(-ell, ell + 1) for u in range(S, u_max + 1))
    xi_calls = sum(2 * ell + 1 for ell in ells) * (u_max - S + 1)
    rows = {(ell, m) for ell in ells for m in range(-ell, ell + 1)}
    for m in range(-max(ells), max(ells) + 1):
        for u in range(S, u_max + 1):
            r_lo = math.ceil((-u - m) / (2 * Q))
            rows.update((u, m + 2 * r * Q) for r in range(r_lo, r_lo + lattice_wraps(m, u, Q)))
    return cells, xi_calls, len(rows)


def tau_oracle(grid, source, entry) -> float:
    """tau from the discrete coefficient sum of a single-mode field.

    A field holding only Y_{u,v} gives aliased coefficient tau(source; u, v)
    at the source, without going through ``i_n``, ``tau`` or the alias walk.
    """
    u, v = entry.alias.ell, entry.alias.m
    coeffs = sa.SpinCoefficients.zeros(S, u)
    coeffs.set(u, v, 1.0)
    value = sa.aliased_coefficient(sa.synthesize(coeffs, grid), source)
    return abs(value - entry.tau)


def enumerate_op(tr, scheme: str, source, N: int, Q: int, u_max: int, rng) -> Outcome:
    """Alias enumeration on a fresh grid; a few taus are checked afterwards."""
    with tr.span("sampling.grid_build"):
        grid = build_grid(scheme, N, Q)
    amap, layer = _cold_then_warm(
        tr, "aliasing.enumerate", lambda: sa.enumerate_aliases(source, grid, u_max=u_max))
    walked = enumerate_cells(source, Q, u_max)
    picks = rng.choice(len(amap.entries), size=min(TAU_CHECKS_PER_OP, len(amap.entries)),
                       replace=False)
    gauss = scheme == "gauss"

    def check():
        dev = max((tau_oracle(grid, source, amap.entries[i]) for i in picks), default=0.0)
        values = {"tau_oracle_dev" if gauss else "eq_tau_oracle_dev": dev}
        if not gauss:
            values["eq_diag_tau"] = sa.tau(grid, source, source.ell, source.m)
        return (not gauss or (dev <= TAU_TOL and len(amap.entries) > 0)), values

    return Outcome(
        work=walked,
        values={"cells_walked": walked, "aliases_kept": len(amap.entries),
                "dtable_bytes": dtable_bytes(walked + 1, grid)},
        layer_s=layer,
        check=check,
    )


def spectrum_op(tr, scheme: str, spec, N: int, Q: int, ells, u_max: int) -> Outcome:
    """Aliased-spectrum prediction on a fresh grid.

    Gate: on a Gauss grid with n = N - s nodes the identity cell is exact
    and the other cells only add power for ell < n, so the prediction is
    at least the input there.  The exact alias-free check is
    :func:`alias_free_op`.
    """
    ells = list(ells)
    with tr.span("sampling.grid_build"):
        grid = build_grid(scheme, N, Q)
    pred, layer = _cold_then_warm(
        tr, "spectrum.predict", lambda: sa.aliased_spectrum(grid, spec, ells, u_max=u_max))
    pred = np.asarray(pred)
    c_in = np.array([spec.total_at(ell) for ell in ells])
    exact = np.array(ells) < N - S
    floor_ratio = float((pred[exact] / c_in[exact]).min())
    cells, xi_calls, rows = spectrum_counts(tuple(ells), Q, u_max)
    gauss = scheme == "gauss"
    return Outcome(
        work=cells,
        passed=bool(np.all(np.isfinite(pred))) and (not gauss or floor_ratio >= 1 - 1e-10),
        values={"xi_calls": xi_calls, "dtable_bytes": dtable_bytes(rows, grid)},
        layer_s=layer,
    )


def alias_free_op(tr, scheme: str, spec) -> Outcome:
    """Prediction on a grid fine enough for the band must equal the input."""
    Lb = spec.L_max
    with tr.span("sampling.grid_build"):
        grid = build_grid(scheme, S + Lb + (1 if scheme == "gauss" else 2), Lb + 1)
    ells = list(range(S, Lb + 1))
    with warnings.catch_warnings():
        # u_max = Lb is the whole band here, not a truncation
        warnings.simplefilter("ignore")
        with tr.span("spectrum.predict"):
            pred = np.asarray(sa.aliased_spectrum(grid, spec, ells, u_max=Lb))
    dev = float(np.abs(pred / spec.C_total - 1.0).max())
    gauss = scheme == "gauss"
    return Outcome(
        work=len(ells),
        passed=not gauss or dev <= ALIAS_FREE_TOL,
        values={"alias_free_dev" if gauss else "eq_alias_free_dev": dev},
    )


def random_spectrum(rng, L_max: int):
    n = L_max - S + 1
    return sa.AngularPowerSpectrum(S, L_max, rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n))


class Predict:
    """Alias enumeration and spectrum prediction, no synthesis.

    Each op builds a fresh grid, so its d-tables are cold every time.  An
    enumeration costs about four predictions, hence four predictions per
    enumeration in the cycle.
    """

    unit = "lattice cells"
    cycle = (["enum_gauss"] + ["spec_gauss"] * 4 + ["enum_equi"] + ["spec_equi"] * 4)
    groups = {"enum_gauss": "enumerate", "enum_equi": "enumerate",
              "spec_gauss": "spectrum", "spec_equi": "spectrum"}
    ENUM = {"N": 16, "Q": 4, "u_max": 200}
    SPEC = {"N": 16, "Q": 8, "ells": range(S, 17), "u_max": 48}
    ALIAS_FREE_BAND = 10

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        rng = np.random.default_rng(0)
        enumerate_op(NULL_TRACER, "gauss", sa.HarmonicIndex(2, 0, S), 6, 1, 8, rng)
        spectrum_op(NULL_TRACER, "gauss", random_spectrum(rng, 12), 6, 1, [2, 3], 12)

    def run(self, tr, kind: str, index: int) -> Outcome:
        rng = np.random.default_rng([self.seed, index])
        scheme = "gauss" if kind.endswith("gauss") else "equiangular"
        if kind.startswith("enum"):
            ell = int(rng.integers(S, 13))
            source = sa.HarmonicIndex(ell, int(rng.integers(-ell, ell + 1)), S)
            return enumerate_op(tr, scheme, source, rng=rng, **self.ENUM)
        spec = random_spectrum(rng, self.SPEC["u_max"])
        return spectrum_op(tr, scheme, spec, **self.SPEC)

    def final_check_ops(self) -> list:
        """Alias-free prediction, once per run, on both schemes."""
        spec = random_spectrum(np.random.default_rng([self.seed, 2**20]), self.ALIAS_FREE_BAND)
        return [(f"alias_free_{scheme}", lambda tr, sc=scheme: alias_free_op(tr, sc, spec))
                for scheme in ("gauss", "equiangular")]


# ---------------------------------------------------------------------- cli

def parse_csv(text: str) -> bool:
    """True if every section has a header and rows of matching width whose
    cells are numbers or one of the CLI's known words."""
    for section in text.strip("\n").split("\n\n"):
        lines = section.split("\n")
        width = len(lines[0].split(","))
        if not lines[0] or len(lines) < 2:
            return False
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != width:
                return False
            for cell in cells:
                if cell not in CSV_WORDS:
                    try:
                        float(cell)
                    except ValueError:
                        return False
    return True


def cli_process(tr, argv, env, reference: dict, kind: str) -> Outcome:
    """One child process running one CLI command.

    Gate: exit code 0, parseable CSV, and the same bytes as the first run
    of the same command in this benchmark run.
    """
    with tr.span("cli.process"):
        proc = subprocess.run([sys.executable, "-m", "spinalias.cli", *argv],
                              capture_output=True, env=env, timeout=120)
    same = reference.setdefault(kind, proc.stdout) == proc.stdout
    ok = proc.returncode == 0 and same and parse_csv(proc.stdout.decode())
    values = {"exit_code": proc.returncode}
    if proc.returncode != 0:
        values["stderr"] = proc.stderr.decode(errors="replace")[-500:]
    return Outcome(work=1, passed=ok, values=values)


# library functions the CLI module calls; everything else in cli.main is
# argument handling and serialization
CLI_LIBRARY_CALLS = ("build_grid_gauss", "build_grid_equiangular", "enumerate_aliases", "tau",
                     "aliased_spectrum", "verify_bandlimit", "monte_carlo_spectrum")


def cli_render(tr, argv, out_path) -> Outcome:
    """``cli.main`` in-process, output to a file.

    Its library calls get spans of their own, so the self time of the
    ``serialize.render`` span is argument handling and serialization.
    """
    with contextlib.ExitStack() as stack:
        for name in CLI_LIBRARY_CALLS:
            stack.enter_context(tr.patched(sa_cli, name, "cli.library"))
        with tr.span("serialize.render"):
            code = sa_cli.main([*argv, "--out", str(out_path)])
    return Outcome(work=1, passed=code == 0 and parse_csv(Path(out_path).read_text()))


class Cli:
    """The README commands, one child process at a time."""

    unit = "processes"
    rss_of_children = True

    def __init__(self, seed: int, src: Path, tmp: Path):
        rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        self.spectrum_path = tmp / "spectrum.csv"
        self.spectrum_rows = [(ell, *rng.uniform(0.1, 1.0, 2)) for ell in range(S, 11)]
        ell = int(rng.integers(S, 6))
        m = int(rng.integers(-ell, ell + 1))
        u = ell + int(rng.integers(0, 4))
        v = int(rng.choice([m + 2 * r for r in range(-u, u + 1) if abs(m + 2 * r) <= u]))
        tau = ["tau", "--l", str(ell), "--m", str(m), "--s", "2", "--N", "6", "--Q", "1",
               "--u", str(u), "--v", str(v)]
        spec = ["spectrum-alias", "--spectrum", str(self.spectrum_path), "--N", "6", "--s", "2",
                "--Q", "1"]
        sim = ["simulate", "--flat", "--lmax", "8", "--s", "2", "--N", "6", "--Q", "1",
               "--nreal", "200", "--seed", str(int(rng.integers(0, 2**31)))]
        equi = ["--scheme", "equiangular"]
        self.commands = {
            "grid_gauss": ["grid", "--scheme", "gauss", "--N", "6", "--s", "2"],
            "grid_equi": ["grid", "--scheme", "equiangular", "--N", "6", "--s", "2"],
            "alias_map": ["alias-map", "--paper-example", "--Q", "1"],
            "tau_gauss": tau,
            "tau_equi": tau + equi,
            "verify": ["verify-bandlimit", "--L0", "4", "--s", "2", "--N", "8", "--Q", "8",
                       "--seed", str(int(rng.integers(0, 2**31)))],
            "spectrum_gauss": spec,
            "spectrum_equi": spec + equi,
            "simulate_gauss": sim,
            "simulate_equi": sim + equi,
        }
        self.cycle = list(self.commands)
        # every command is one interpreter start, imports and a small job of
        # about the same cost, so the statistics pool all processes
        self.groups = dict.fromkeys(self.commands, "process")
        self.reference = {}

    def setup(self):
        lines = ["ell,C_E,C_B"] + [f"{ell},{ce:.17g},{cb:.17g}" for ell, ce, cb in self.spectrum_rows]
        self.spectrum_path.write_text("\n".join(lines) + "\n")

    def run(self, tr, kind: str, index: int) -> Outcome:
        return cli_process(tr, self.commands[kind], self.env, self.reference, kind)

    def render_ops(self):
        return [(f"render_{kind}", lambda tr, a=argv, k=kind: cli_render(tr, a, self.tmp / f"{k}.out"))
                for kind, argv in self.commands.items()]


# -------------------------------------------------------------------- probe

def probe_ops(tmp: Path):
    """Small fixed operations that reach every layer.

    A traced run takes each per-layer metric from the workload's own
    operations where they reach the layer, and from these otherwise, so
    every traced run reports every per-layer metric.
    """
    rng = np.random.default_rng(0)
    spec = random_spectrum(rng, 6)
    source = sa.HarmonicIndex(2, 0, S)
    return [
        ("roundtrip_gauss", lambda tr: roundtrip(tr, "gauss", 8, 0)),
        ("roundtrip_equi", lambda tr: roundtrip(tr, "equiangular", 8, 0)),
        ("enum_gauss", lambda tr: enumerate_op(tr, "gauss", source, 6, 1, 20, rng)),
        ("enum_equi", lambda tr: enumerate_op(tr, "equiangular", source, 6, 1, 20, rng)),
        ("spec_gauss", lambda tr: spectrum_op(tr, "gauss", random_spectrum(rng, 18), 8, 4,
                                              range(S, 7), 18)),
        ("alias_free_gauss", lambda tr: alias_free_op(tr, "gauss", spec)),
        ("alias_free_equi", lambda tr: alias_free_op(tr, "equiangular", spec)),
        ("mc_gauss", lambda tr: montecarlo(tr, build_grid("gauss", 6, 1), 4, 100, 0)),
        ("render_grid", lambda tr: cli_render(tr, ["grid", "--N", "6", "--s", "2"],
                                              tmp / "probe_grid.out")),
        ("render_tau", lambda tr: cli_render(tr, ["tau", "--l", "2", "--m", "0", "--u", "3",
                                                  "--v", "0"], tmp / "probe_tau.out")),
    ]


NULL_TRACER = NullTracer()
