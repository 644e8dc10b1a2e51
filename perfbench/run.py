#!/usr/bin/env python3
"""Run one workload of the spinalias benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload transform --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 2

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The lines above it are a readable summary.  The full
record of a run (per-group statistics, gates, residuals, environment and,
when traced, every span) is written to ``.perfbench/`` in the checkout.
The exit code is 0 when every gate passed, 1 when one failed, and 2 when
the run could not start (for example, no ``src/spinalias`` next to this
directory).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("transform", "montecarlo", "predict", "cli")
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
CHILD_REPEATS = 3  # fresh processes per cli.interp_s / cli.import_s sample
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many ops beyond it
CHILD_TIMEOUT = 150

# One BLAS thread, in this process and the children it starts (they inherit
# the environment): the benchmark is one client, and a second thread on a
# two-vCPU shared host measures the scheduler, not the program.  Set before
# anything imports numpy; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# per-layer metric -> span or derived layer name (seconds per op)
LAYER_TIMES = {
    "sampling.grid_build_s": "sampling.grid_build",
    "special.dtable_build_s": "special.dtable_build",
    "fieldsim.draw_s": "fieldsim.draw",
    "fieldsim.synth_s": "fieldsim.synth",
    "fieldsim.analysis_s": "fieldsim.analysis",
    "fieldsim.mc_prediction_s": "fieldsim.mc_prediction",
    "aliasing.enumerate_s": "aliasing.enumerate",
    "spectrum.predict_s": "spectrum.predict",
    "serialize.render_s": "serialize.render",
}
# per-layer metric -> op value summed over one cycle of the workload
LAYER_COUNTS = {
    "special.dtable_bytes": "dtable_bytes",
    "aliasing.cells_walked": "cells_walked",
    "aliasing.aliases_kept": "aliases_kept",
    "spectrum.xi_calls": "xi_calls",
}
# per-layer metric -> op value, worst over the run
LAYER_WORST = {
    "fieldsim.roundtrip_err": "roundtrip_err",
    "fieldsim.eq_roundtrip_err": "eq_roundtrip_err",
    "spectrum.alias_free_dev": "alias_free_dev",
}


@dataclass
class Record:
    kind: str
    seconds: float
    work: float = 0.0
    passed: bool = False
    values: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    error: str = ""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and warm up in this fresh process, print the set-up time")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinalias" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/spinalias or no BENCHMARK.json", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        return run_workload(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def make_workload(name: str, seed: int, tmp: Path):
    import workloads

    if name == "cli":
        return workloads.Cli(seed, SRC, tmp)
    cls = {"transform": workloads.Transform, "montecarlo": workloads.MonteCarlo,
           "predict": workloads.Predict}[name]
    return cls(seed)


def run_workload(args, tmp: Path) -> int:
    t0 = time.perf_counter()
    import spinalias  # noqa: F401  (the first import in a fresh process is set-up)

    wl = make_workload(args.workload, args.seed, tmp)
    wl.setup()
    setup_own = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    import workloads
    from tracing import Tracer

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    null = workloads.NULL_TRACER
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "speed_probe_s": {"before": speed_probe()}}
    if args.trace:
        # both halves start from op 0, so they see the same inputs and the
        # counts of the traced cycle repeat exactly for a seed
        base = measure(wl, null, args.seconds / 2)
        tracer = Tracer()
        loop = measure(wl, tracer, args.seconds / 2)
        checks = run_ops(tracer, getattr(wl, "final_check_ops", list)(), "check")
        probe = run_ops(tracer, probe_ops(wl, tmp), "probe")
        records = base + loop
        base_p75 = op_stats(base, wl.cycle, wl.groups)["op_p75_s"]
        layers, sources = layer_metrics(loop + checks, wl.cycle,
                                        getattr(wl, "setup_layers", {}), probe)
        layers["cli.interp_s"] = child_seconds(["-c", "pass"])
        layers["cli.import_s"] = child_seconds(
            ["-c", "import time; t = time.perf_counter(); import spinalias.cli; "
                   "print(time.perf_counter() - t)"], inner=True)
        layers["trace.overhead_ratio"] = op_stats(loop, wl.cycle, wl.groups)["op_p75_s"] / base_p75
        layers["trace.base_op_p75_s"] = base_p75
        values = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                  for m in bench["per_layer"]}
        record.update(layer_sources=sources, probe=[r.__dict__ for r in probe])
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        records = measure(wl, null, args.seconds)
        checks = run_ops(null, getattr(wl, "final_check_ops", list)(), "check")
        probes = [setup_probe(args) for _ in range(SETUP_REPEATS - 1)]
        stats = op_stats(records, wl.cycle, wl.groups)
        stats.update(setup_s=statistics.median([setup_own, *probes]),
                     peak_rss_mb=wl.rss_after_cycle_kb / 1024)
        values = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]}
                  for m in bench["end_to_end"]}
        record.update(stats=stats, setup_samples=[setup_own, *probes], unit=wl.unit)
        probe = []
    record["speed_probe_s"]["after"] = speed_probe()
    failed_ops = sum(not r.passed for r in records)
    failed_checks = [r for r in checks + probe if not r.passed]
    result = {"correct": failed_ops == 0 and not failed_checks, "attempted": len(records),
              "failed": failed_ops, "metrics": values}
    record.update(result=result, ops=[r.__dict__ for r in records],
                  checks=[r.__dict__ for r in checks], gates=gate_summary(records + checks + probe))
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print_summary(args, record, values, failed_checks)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(wl, tr, seconds: float) -> list:
    """Closed loop: one op at a time, at least one full cycle, until time is up.

    Sets ``wl.rss_after_cycle_kb``, the peak resident memory once the first
    cycle is done: the memory a fixed amount of work needs.  Later ops add
    to it only because the d-table cache never shrinks, and how many run
    depends on the machine's speed.  For the cli workload it is the
    largest child's.
    """
    records = []
    deadline = time.perf_counter() + seconds
    n = len(wl.cycle)
    who = resource.RUSAGE_CHILDREN if getattr(wl, "rss_of_children", False) else resource.RUSAGE_SELF
    while len(records) < n or time.perf_counter() < deadline:
        i = len(records)
        kind = wl.cycle[i % n]
        records.append(run_one(tr, kind, f"{kind}:{i}", lambda: wl.run(tr, kind, i)))
        if len(records) == n:
            wl.rss_after_cycle_kb = resource.getrusage(who).ru_maxrss
    return records


def run_one(tr, kind: str, op_id: str, call) -> Record:
    """Time one op, then run its untimed oracle; an exception fails the op."""
    tr.op = op_id
    t0 = time.perf_counter()
    try:
        out = call()
        rec = Record(kind, time.perf_counter() - t0, out.work, out.passed, dict(out.values))
        if out.check is not None:
            passed, values = out.check()
            rec.passed = rec.passed and passed
            rec.values.update(values)
        if tr.enabled:
            rec.layer = {**tr.self_times(op_id), **out.layer_s}
            rec.counts = tr.counts(op_id)
    except Exception:  # a failing op is counted, the loop goes on
        rec = Record(kind, time.perf_counter() - t0, error=traceback.format_exc())
    return rec


def run_ops(tr, ops, tag: str) -> list:
    return [run_one(tr, name, f"{tag}:{name}", lambda f=fn: f(tr)) for name, fn in ops]


def probe_ops(wl, tmp: Path) -> list:
    import workloads

    ops = workloads.probe_ops(tmp)
    if hasattr(wl, "render_ops"):  # the cli workload renders its own commands
        ops = [op for op in ops if not op[0].startswith("render")] + wl.render_ops()
    return ops


def upper_quartile(values: list) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def op_stats(records: list, cycle: list, groups: dict | None = None) -> dict:
    """Group-balanced op statistics.

    Kinds of about the same cost share a group (``groups`` maps kind to
    group; by default each kind is its own), and each group's statistic is
    weighted by the group's share of the cycle, so a run that stops part-way
    through a cycle does not shift the mix.

    op_p75_s is the weighted upper quartile of op time.  The host this was
    built on has a fast state that comes and goes within seconds, on top of
    a slower one that is always there, so the op times of one group form two
    clusters whose sizes change from run to run.  Their median jumps from
    one cluster to the other and their mean moves with the share of fast
    time; the upper quartile stays in the slow cluster and moves with the
    program.  The weighted median and mean, op_p50_s and op_mean_s, are kept
    in the record.  The tail is op_p75_s times the highest percentile, with
    TAIL_BEYOND ops beyond it, of each op's time over its group's upper
    quartile.  work_per_s is the cycle's work over its time at the same
    per-group upper quartiles.
    """
    groups = groups or {}
    group = [groups.get(k, k) for k in cycle]
    weights = {g: group.count(g) / len(group) for g in set(group)}
    by_group = defaultdict(list)
    for r in records:
        by_group[groups.get(r.kind, r.kind)].append(r)
    p75 = {g: upper_quartile([r.seconds for r in rs]) for g, rs in by_group.items()}

    def weighted(stat):
        return sum(weights[g] * stat([r.seconds for r in rs]) for g, rs in by_group.items())

    op_p75 = sum(weights[g] * p75[g] for g in by_group)
    work = sum(weights[g] * statistics.fmean(r.work for r in rs) for g, rs in by_group.items())
    ratios = sorted(r.seconds / p75[groups.get(r.kind, r.kind)] for r in records)
    idx = max(len(ratios) - TAIL_BEYOND - 1, 0)
    return {
        "op_p75_s": op_p75,
        "op_tail_s": op_p75 * ratios[idx],
        "work_per_s": work / op_p75,
        "op_p50_s": weighted(statistics.median),
        "op_mean_s": weighted(statistics.fmean),
        "ops": len(records),
        "tail_percentile": 100.0 * (idx + 1) / len(ratios),
        "tail_ops_beyond": len(ratios) - idx - 1,
        "group_p75_s": p75,
        "group_ops": {g: len(rs) for g, rs in by_group.items()},
    }


def layer_values(records: list, cycle: list, reaching: bool = False) -> dict:
    """Per-layer metrics from one set of traced ops (see LAYER_* above).

    A layer time is its kind-weighted median seconds per op of the cycle;
    with ``reaching``, per op of the kinds that reach the layer.
    """
    weights = {k: cycle.count(k) / len(cycle) for k in set(cycle)}
    by_kind = defaultdict(list)
    for r in records:
        if r.kind in weights:
            by_kind[r.kind].append(r)
    out = {}
    for metric, name in LAYER_TIMES.items():
        kinds = {k: rs for k, rs in by_kind.items() if any(name in r.layer for r in rs)}
        if kinds:
            total = sum(weights[k] * statistics.median(r.layer.get(name, 0.0) for r in rs)
                        for k, rs in kinds.items())
            out[metric] = total / sum(weights[k] for k in kinds) if reaching else total
    first = records[:len(cycle)]
    if any("sampling.grid_build" in r.counts for r in first):
        out["sampling.grid_calls"] = sum(r.counts.get("sampling.grid_build", 0) for r in first)
    for metric, key in LAYER_COUNTS.items():
        if any(key in r.values for r in first):
            out[metric] = sum(r.values.get(key, 0) for r in first)
    if "aliasing.cells_walked" in out:
        out["aliasing.kept_ratio"] = out["aliasing.aliases_kept"] / out["aliasing.cells_walked"]
    for metric, key in LAYER_WORST.items():
        found = [r.values[key] for r in records if key in r.values]
        if found:
            out[metric] = max(found)
    diag = [r.values["eq_diag_tau"] for r in records if "eq_diag_tau" in r.values]
    if diag:
        out["aliasing.eq_diag_tau"] = statistics.median(diag)
    return out


def layer_metrics(loop: list, cycle: list, setup_layers: dict, probe: list) -> tuple:
    """Each metric from the workload's own ops, else its set-up, else the probe."""
    sources = [("loop", layer_values(loop, cycle)),
               ("setup", setup_layers),
               ("probe", layer_values(probe, [r.kind for r in probe], reaching=True))]
    values, origin = {}, {}
    for tag, found in sources:
        for metric, value in found.items():
            if metric not in values:
                values[metric], origin[metric] = value, tag
    return values, origin


def child_seconds(argv: list, inner: bool = False) -> float:
    """Median over fresh interpreters: wall time, or the time they print."""
    samples = []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    for _ in range(CHILD_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=env, timeout=CHILD_TIMEOUT, check=True)
        wall = time.perf_counter() - t0
        samples.append(float(proc.stdout.strip()) if inner else wall)
    return statistics.median(samples)


def setup_probe(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def gate_summary(records: list) -> dict:
    """Worst value of each gated or reported quantity over the run."""
    out = {}
    for r in records:
        for key, value in r.values.items():
            if isinstance(value, (int, float)) and key not in LAYER_COUNTS.values():
                worst = min if key == "eq_diag_tau" else max  # tau is 1 when right
                out[key] = worst(out.get(key, value), value)
    return out


def speed_probe() -> float:
    """Best of five timings of a fixed pure-Python loop.

    The host's speed drifts by up to 2x over tens of seconds; this records
    how fast it ran around a run, to read spreads by.  No metric uses it.
    """
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def environment() -> dict:
    import platform

    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "caches": caches,
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def print_summary(args, record: dict, values: dict, failed_checks: list) -> None:
    env, probe = record["environment"], record["speed_probe_s"]
    result = record["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{result['attempted']} ops, {result['failed']} failed")
    if "stats" in record:
        st = record["stats"]
        print(f"  ops per group {st['group_ops']}; op_tail_s is p{st['tail_percentile']:.0f} "
              f"({st['tail_ops_beyond']} ops beyond); op_p50_s {st['op_p50_s']:.6g} s, "
              f"op_mean_s {st['op_mean_s']:.6g} s; "
              f"work unit: {record['unit']}")
    for name, v in values.items():
        src = record.get("layer_sources", {}).get(name, "")
        print(f"  {name:28s} {v['value']:<22.6g} {v['unit']:8s} {src}")
    gates = record["gates"]
    pairs = [("roundtrip_err", "eq_roundtrip_err"), ("tau_oracle_dev", "eq_tau_oracle_dev"),
             ("mc_max_z", "eq_mc_max_z"), ("alias_free_dev", "eq_alias_free_dev"),
             (None, "eq_diag_tau")]
    for gauss, equi in pairs:
        parts = []
        if gauss in gates:
            parts.append(f"gate (Gauss) {gauss} = {gates[gauss]:.3g}")
        if equi in gates:
            parts.append(f"reported (equiangular) {equi} = {gates[equi]:.3g}")
        if parts:
            print("  " + "   ".join(parts))
    for r in failed_checks:
        print(f"  FAILED check {r.kind}: {r.values} {r.error.strip()}")
    for r in record["ops"]:
        if not r["passed"]:
            print(f"  FAILED op {r['kind']}: {r['values']} {r['error'].strip()}")
            break
    print(f"  env: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, blas threads {env['blas_threads']}, caches {env['caches']}; "
          f"speed probe {probe['before']:.4f} s before, {probe['after']:.4f} s after")


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table at the end."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows.append((name, result))
    print("\nworkload     metric                       value                  unit")
    names = bench["per_layer" if args.trace else "end_to_end"]
    for name, result in rows:
        for m in names:
            v = result["metrics"].get(m["name"], {}).get("value", float("nan"))
            print(f"{name:12s} {m['name']:28s} {v:<22.6g} {m['unit']}")
        print(f"{name:12s} {'correct':28s} {result['correct']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
