"""Self-test of the benchmark: gates catch planted faults, computed counts
repeat exactly, and one command reports every metric and fails on a gate.

From the repository root (about two minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(BENCH_DIR), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import spinalias as sa  # noqa: E402
import spinalias.fieldsim as sa_fieldsim  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

NULL = NullTracer()
REPEATING_COUNTS = ("special.dtable_bytes", "aliasing.cells_walked", "spectrum.xi_calls",
                    "aliasing.aliases_kept", "sampling.grid_calls")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_roundtrip_gate_catches_perturbed_coefficient(monkeypatch):
    assert workloads.roundtrip(NULL, "gauss", 8, 0).passed
    analyze = sa.analyze

    def perturbed(*args, **kwargs):
        out = analyze(*args, **kwargs)
        out.values[5, out.L_max] += 1e-8
        return out

    monkeypatch.setattr(sa, "analyze", perturbed)
    assert not workloads.roundtrip(NULL, "gauss", 8, 0).passed


def test_tau_gate_catches_perturbed_tau(monkeypatch):
    source = sa.HarmonicIndex(2, 0, 2)
    rng = np.random.default_rng(0)
    assert workloads.enumerate_op(NULL, "gauss", source, 6, 1, 12, rng).check()[0]
    enumerate_aliases = sa.enumerate_aliases

    def perturbed(*args, **kwargs):
        amap = enumerate_aliases(*args, **kwargs)
        entries = tuple(dataclasses.replace(e, tau=e.tau + 1e-9) for e in amap.entries)
        return dataclasses.replace(amap, entries=entries)

    monkeypatch.setattr(sa, "enumerate_aliases", perturbed)
    assert not workloads.enumerate_op(NULL, "gauss", source, 6, 1, 12, rng).check()[0]


def test_alias_free_gate_catches_wrong_prediction(monkeypatch):
    spec = workloads.random_spectrum(np.random.default_rng(0), 6)
    assert workloads.alias_free_op(NULL, "gauss", spec).passed
    predict = sa.aliased_spectrum
    monkeypatch.setattr(sa, "aliased_spectrum",
                        lambda *a, **k: [v * (1 + 1e-8) for v in predict(*a, **k)])
    assert not workloads.alias_free_op(NULL, "gauss", spec).passed


def test_command_fails_on_planted_fault(monkeypatch, capsys):
    analyze = sa_fieldsim.analyze

    def scaled(*args, **kwargs):
        out = analyze(*args, **kwargs)
        out.values *= 1.5
        return out

    # monte_carlo_spectrum looks analyze up in spinalias.fieldsim
    monkeypatch.setattr(sa_fieldsim, "analyze", scaled)
    code = run.main(["--workload", "montecarlo", "--seed", "1", "--seconds", "0.1"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 2  # both Gauss kinds
    assert result["attempted"] >= len(workloads.MonteCarlo.cycle)


def test_tail_has_ten_ops_beyond():
    records = [run.Record("a", 1.0 + i / 100, work=1, passed=True) for i in range(30)]
    stats = run.op_stats(records, ["a"])
    assert stats["tail_ops_beyond"] == 10
    assert stats["op_tail_s"] == pytest.approx(records[19].seconds)
    assert stats["op_p50_s"] == pytest.approx((records[14].seconds + records[15].seconds) / 2)
    assert stats["op_mean_s"] == pytest.approx(sum(r.seconds for r in records) / 30)
    assert stats["op_p75_s"] == pytest.approx(1.2175)  # 3/4 of the way from 1.00 to 1.29


def test_groups_pool_kinds_and_follow_the_cycle_mix():
    records = [run.Record("a", 1.0), run.Record("b", 3.0), run.Record("c", 10.0)]
    stats = run.op_stats(records, ["a", "b", "c", "c"], {"a": "ab", "b": "ab"})
    assert stats["group_ops"] == {"ab": 2, "c": 1}
    assert stats["op_p75_s"] == pytest.approx(0.5 * 2.5 + 0.5 * 10.0)
    assert stats["op_mean_s"] == pytest.approx(0.5 * 2.0 + 0.5 * 10.0)


def test_computed_counts_repeat_exactly():
    runs = [bench("--workload", "predict", "--seed", "5", "--seconds", "0.1", "--trace", "1")
            for _ in range(2)]
    results = [last_json(p.stdout) for p in runs]
    assert all(p.returncode == 0 and r["correct"] for p, r in zip(runs, results))
    for name in REPEATING_COUNTS:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_all_prints_every_metric_per_workload():
    proc = bench("--workload", "all", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    table = proc.stdout.split("\nworkload     metric")[1]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for name in run.WORKLOADS:
        for m in metrics:
            row = rf"^{name}\s+{re.escape(m['name'])}\s+[-+0-9.e]+\s+{re.escape(m['unit'])}$"
            assert re.search(row, table, re.M), (name, m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
