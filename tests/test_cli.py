import json
import re
import subprocess
import sys

import pytest

from spinalias import (
    AngularPowerSpectrum,
    HarmonicIndex,
    aliased_spectrum,
    build_grid_gauss,
    enumerate_aliases,
    tau,
    verify_bandlimit,
)
from spinalias import cli
from spinalias.cli import main
from spinalias.sampling import table_weights
from spinalias.serialize import fmt


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "spinalias.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def parse_csv(text):
    """First CSV section -> (header list, list of row lists)."""
    section = text.split("\n\n")[0]
    lines = [ln for ln in section.splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def _must_not_run(*args, **kwargs):
    raise AssertionError("called after a parameter error")


class TestGridCommand:
    def test_matches_library_exactly(self):
        code, out, _ = run_cli("grid", "--scheme", "gauss", "--N", "6", "--s", "2", "--Q", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["axis", "index", "node", "weight"]
        grid = build_grid_gauss(6, 2, 1)
        theta_rows = [r for r in rows if r[0] == "theta"]
        assert len(theta_rows) == 4
        for i, row in enumerate(theta_rows):
            assert float(row[2]) == grid.theta_nodes[i]
            assert float(row[3]) == table_weights(grid)[i]

    def test_equiangular_rows(self):
        code, out, _ = run_cli("grid", "--scheme", "equiangular", "--N", "6", "--s", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len([r for r in rows if r[0] == "theta"]) == 8

    def test_paper_example_layout(self):
        code, out, _ = run_cli("grid", "--paper-example")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["index", "point_gauss", "weight_gauss",
                          "point_equiangular", "weight_equiangular"]
        assert len(rows) == 8
        assert rows[4][1] == "" and rows[4][2] == ""

    def test_paper_example_json_numbers(self):
        # floats and nulls in JSON; the CSV writes the same doubles and empty cells
        code, out, _ = run_cli("grid", "--paper-example", "--format", "json")
        assert code == 0
        table = json.loads(out)["nodes"]
        gauss = cli._table_grid(build_grid_gauss(6, 2, 1))
        assert table["point_gauss"] == gauss.theta_nodes.tolist() + [None] * 4
        assert table["weight_gauss"] == gauss.theta_weights.tolist() + [None] * 4
        assert all(type(v) is float for v in table["point_equiangular"] + table["weight_equiangular"])
        code, out, _ = run_cli("grid", "--paper-example")
        assert code == 0
        header, rows = parse_csv(out)
        for i, col in enumerate(header):
            assert [row[i] for row in rows] == [fmt(v) for v in table[col]]

    def test_invalid_parameters_exit_2(self):
        code, _, err = run_cli("grid", "--N", "2", "--s", "2")
        assert code == 2
        assert "N > s" in err

    def test_json_format(self):
        # the column arrays every command writes, with the CSV's values
        code, out, _ = run_cli("grid", "--N", "6", "--s", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["parameters"] == {"scheme": "gauss", "N": 6, "s": 2, "Q": 1}
        table = doc["grid"]
        assert list(table) == ["axis", "index", "node", "weight"]
        assert table["axis"] == ["theta"] * 4 + ["phi"] * 2
        assert table["index"] == [0, 1, 2, 3, 0, 1]
        grid = build_grid_gauss(6, 2, 1)
        assert table["node"][:4] == grid.theta_nodes.tolist()
        assert table["weight"][:4] == table_weights(grid).tolist()
        assert table["node"][4:] == grid.phi_nodes.tolist()
        assert table["weight"][4:] == grid.phi_weights.tolist()


class TestAliasMapCommand:
    def test_paper_example_row_count(self):
        code, out, _ = run_cli("alias-map", "--paper-example", "--Q", "1")
        assert code == 0
        sections = out.strip().split("\n\n")
        assert len(sections) == 2
        tau_lines = sections[0].splitlines()
        assert tau_lines[0] == "j,r,u,v,tau_gauss,tau_equiangular"
        assert len(tau_lines) == 13  # header + 12 rows
        loc_lines = sections[1].splitlines()
        assert loc_lines[0] == "scheme,j,r,class"

    @pytest.mark.parametrize("q", ["2", "3"])
    def test_paper_example_wide_longitude_rules(self, q):
        # cells with |v| = |2rQ| > u are no harmonic index and are skipped
        code, out, err = run_cli("alias-map", "--paper-example", "--Q", q)
        assert code == 0 and err == ""
        header, rows = parse_csv(out)
        assert header == ["j", "r", "u", "v", "tau_gauss", "tau_equiangular"]
        assert all(int(row[2]) >= abs(int(row[3])) for row in rows)
        assert len(rows) == {"2": 4, "3": 0}[q]

    def test_paper_example_umax_zero_exit_2(self):
        # 5 is the default only when --umax is absent
        code, out, err = run_cli("alias-map", "--paper-example", "--umax", "0")
        assert (code, out) == (2, "")
        assert "need u_max >= ell" in err

    def test_reproducible_bytes(self):
        a = run_cli("alias-map", "--paper-example", "--Q", "1", "--format", "csv")
        b = run_cli("alias-map", "--paper-example", "--Q", "1", "--format", "csv")
        assert a == b

    def test_map_matches_library(self):
        code, out, _ = run_cli(
            "alias-map", "--l", "2", "--m", "0", "--s", "2", "--N", "6", "--Q", "1",
            "--umax", "5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        grid = build_grid_gauss(6, 2, 1)
        amap = enumerate_aliases(HarmonicIndex(2, 0, 2), grid, u_max=5)
        assert len(rows) == len(amap.entries)
        for row, entry in zip(rows, amap.entries):
            assert float(row[header.index("tau")]) == entry.tau
            assert row[header.index("class")] == entry.klass.value

    def test_umax_truncation_subset(self):
        _, out_small, _ = run_cli("alias-map", "--l", "2", "--m", "0", "--s", "2",
                                  "--N", "6", "--Q", "1", "--umax", "4")
        _, out_big, _ = run_cli("alias-map", "--l", "2", "--m", "0", "--s", "2",
                                "--N", "6", "--Q", "1", "--umax", "5")
        _, rows_small = parse_csv(out_small)
        _, rows_big = parse_csv(out_big)
        def cells(rows):
            return {(r[3], r[4]) for r in rows}
        assert cells(rows_small) <= cells(rows_big)

    def test_out_file(self, tmp_path):
        target = tmp_path / "map.csv"
        code, out, _ = run_cli("alias-map", "--paper-example", "--Q", "1",
                               "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("j,r,u,v,")


class TestTauCommand:
    def test_default_convention_matches_library(self):
        code, out, _ = run_cli("tau", "--N", "6", "--s", "2", "--Q", "1",
                               "--l", "2", "--m", "0", "--u", "2", "--v", "2")
        assert code == 0
        header, rows = parse_csv(out)
        grid = build_grid_gauss(6, 2, 1)
        expected = tau(grid, HarmonicIndex(2, 0, 2), 2, 2)
        assert float(rows[0][header.index("tau")]) == expected

    @pytest.mark.parametrize("v", ["5", "2"])
    def test_invalid_alias_index_exit_2(self, v):
        # v = 5 is off the Q = 1 lattice of m = 0, v = 2 on it
        code, out, err = run_cli("tau", "--l", "2", "--m", "0", "--u", "1", "--v", v)
        assert (code, out) == (2, "")
        assert err == f"error: need u >= max(|v|, s): got (1, {v}, 2)\n"

    def test_table_convention(self):
        code, out, _ = run_cli("tau", "--N", "6", "--s", "2", "--Q", "1",
                               "--l", "2", "--m", "0", "--u", "2", "--v", "2",
                               "--table-convention")
        header, rows = parse_csv(out)
        assert abs(float(rows[0][header.index("tau")]) - 0.7640) < 0.02


class TestSpectrumAliasCommand:
    def _write_spectrum(self, path, s, rows):
        lines = ["ell,C_E,C_B"] + [f"{l},{e},{b}" for l, e, b in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_zero_spectrum(self, tmp_path):
        spec_file = tmp_path / "zero.csv"
        self._write_spectrum(spec_file, 2, [(l, 0.0, 0.0) for l in range(2, 7)])
        code, out, _ = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                               "--N", "6", "--s", "2", "--Q", "1")
        assert code == 0
        header, rows = parse_csv(out)
        col = header.index("C_tilde")
        assert all(float(r[col]) == 0.0 for r in rows)

    def test_zero_multipole_json_is_strict(self, tmp_path):
        # C_ell = 0 gives no ratio: null in JSON, which has no NaN token; nan in CSV
        spec_file = tmp_path / "gap.csv"
        self._write_spectrum(spec_file, 2, [(2, 0.5, 0.5), (3, 0.0, 0.0), (4, 0.5, 0.5)])
        args = ("spectrum-alias", "--spectrum", str(spec_file), "--N", "6", "--s", "2")

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        code, out, _ = run_cli(*args, "--format", "json")
        assert code == 0
        ratio = json.loads(out, parse_constant=reject)["spectrum"]["ratio"]
        assert ratio[1] is None and all(type(v) is float for v in ratio[::2])
        code, out, _ = run_cli(*args)
        assert code == 0
        assert [row[3] for row in parse_csv(out)[1]][1] == "nan"

    def test_bandlimited_ratio_one(self, tmp_path):
        spec_file = tmp_path / "band.csv"
        self._write_spectrum(spec_file, 2, [(2, 0.6, 0.4), (3, 0.9, 0.1)])
        code, out, _ = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                               "--N", "8", "--s", "2", "--Q", "5")
        assert code == 0
        header, rows = parse_csv(out)
        col = header.index("ratio")
        for row in rows:
            assert abs(float(row[col]) - 1.0) < 1e-10

    def test_matches_library_bitwise(self, tmp_path):
        spec_file = tmp_path / "flat.csv"
        self._write_spectrum(spec_file, 2, [(l, 0.5, 0.5) for l in range(2, 9)])
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                                 "--N", "6", "--s", "2", "--Q", "1")
        # the default --umax is the spectrum's L_max: no power is dropped, no note
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        grid = build_grid_gauss(6, 2, 1)
        spec = AngularPowerSpectrum.flat(2, 8)
        predicted = aliased_spectrum(grid, spec, range(2, 9), u_max=8)
        col = header.index("C_tilde")
        for row, value in zip(rows, predicted):
            assert float(row[col]) == value

    def test_truncation_warnings_on_stderr(self, tmp_path):
        spec_file = tmp_path / "flat.csv"
        self._write_spectrum(spec_file, 2, [(l, 0.5, 0.5) for l in range(2, 7)])
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                                 "--N", "6", "--s", "2", "--Q", "1", "--umax", "4")
        assert code == 0
        assert "truncate" in err
        header, rows = parse_csv(out)
        with pytest.warns(UserWarning, match="truncate"):
            predicted = aliased_spectrum(build_grid_gauss(6, 2, 1),
                                         AngularPowerSpectrum.flat(2, 6), range(2, 7), u_max=4)
        col = header.index("C_tilde")
        assert [float(row[col]) for row in rows] == predicted

    def test_warning_lines_carry_no_location(self, tmp_path):
        # one "warning: <message>" line per warning, independent of the install path
        spec_file = tmp_path / "flat.csv"
        self._write_spectrum(spec_file, 2, [(l, 0.5, 0.5) for l in range(2, 7)])
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                                 "--N", "6", "--s", "2", "--Q", "1", "--umax", "4")
        assert code == 0
        lines = err.splitlines()
        assert lines == [f"warning: u_max=4 may truncate aliases of ell={ell} "
                         "(nearest wrap-around degrees extend past it)" for ell in range(2, 7)]
        assert "cli.py" not in err
        assert re.search(r":\d+", err) is None

    @pytest.mark.parametrize("umax", ["1", "0"])
    def test_umax_below_spin_exit_2(self, tmp_path, umax):
        spec_file = tmp_path / "flat.csv"
        self._write_spectrum(spec_file, 2, [(l, 0.5, 0.5) for l in range(2, 7)])
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                                 "--N", "6", "--s", "2", "--Q", "1", "--umax", umax)
        assert code == 2
        assert out == ""
        assert err == f"error: need u_max >= s, got u_max={umax} < s=2\n"

    @pytest.mark.parametrize("lmax,reason", [
        ("1", ">= s, got --lmax=1 < s=2"),
        ("9", "<= spectrum L_max, got --lmax=9 > 8"),
        ("12", "<= spectrum L_max, got --lmax=12 > 8"),
    ], ids=["1", "9", "12"])
    def test_lmax_outside_spectrum_exit_2(self, tmp_path, lmax, reason):
        spec_file = tmp_path / "flat.csv"
        self._write_spectrum(spec_file, 2, [(l, 0.5, 0.5) for l in range(2, 9)])
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(spec_file),
                                 "--N", "6", "--s", "2", "--Q", "1", "--lmax", lmax)
        assert (code, out) == (2, "")
        assert err == f"error: need --lmax {reason}\n"

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_non_finite_exit_3(self, tmp_path, suffix):
        path = tmp_path / f"bad.{suffix}"
        rows = [(2, 0.5, 0.5), (3, "nan", 0.5), (4, 0.5, "inf")]
        if suffix == "csv":
            self._write_spectrum(path, 2, rows)
        else:
            path.write_text(json.dumps({
                "s": 2, "ell": [r[0] for r in rows],
                "C_E": [float(r[1]) for r in rows], "C_B": [float(r[2]) for r in rows],
            }))
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(path),
                                 "--N", "6", "--s", "2", "--Q", "1")
        assert code == 3
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("suffix,first", [("csv", -1), ("json", -2)])
    def test_negative_first_degree_exit_3(self, tmp_path, suffix, first):
        # a band starting below 0 is a malformed file, not a spin mismatch
        path = tmp_path / f"neg.{suffix}"
        rows = [(ell, 1.0, 0.0) for ell in range(first, 4)]
        if suffix == "csv":
            self._write_spectrum(path, 2, rows)
        else:
            path.write_text(json.dumps({key: [r[i] for r in rows]
                                        for i, key in enumerate(["ell", "C_E", "C_B"])}))
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(path),
                                 "--N", "6", "--s", "2", "--Q", "1")
        assert (code, out) == (3, "")
        assert err == f"error: {path}: need 0 <= s <= L_max, got s={first}, L_max=3\n"

    def test_malformed_file_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("ell,C_E,C_B\n2,0.5,0.5\n3,oops,0.5\n")
        code, _, err = run_cli("spectrum-alias", "--spectrum", str(bad),
                               "--N", "6", "--s", "2", "--Q", "1")
        assert code == 3
        assert "row 3" in err

    @pytest.mark.parametrize("doc", [
        "[1, 2, 3]",
        '{"ell": [2.7, 3.2], "C_E": [1, 1], "C_B": [0, 0]}',
        '{"ell": ["2", "3"], "C_E": [true, "0.5"], "C_B": [false, 0]}',
    ], ids=["not-an-object", "non-integral-ell", "non-numbers"])
    def test_malformed_json_exit_3(self, tmp_path, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, out, err = run_cli("spectrum-alias", "--spectrum", str(bad),
                                 "--N", "6", "--s", "2", "--Q", "1")
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err

    def test_missing_file_exit_3(self, tmp_path):
        code, _, err = run_cli("spectrum-alias", "--spectrum", str(tmp_path / "nope.csv"),
                               "--N", "6", "--s", "2", "--Q", "1")
        assert code == 3


class TestVerifyBandlimitCommand:
    def test_pass(self):
        code, out, _ = run_cli("verify-bandlimit", "--L0", "4", "--s", "2",
                               "--N", "8", "--Q", "8", "--seed", "1")
        assert code == 0
        header, rows = parse_csv(out)
        report = verify_bandlimit(4, 2, 8, 8, seed=1)
        assert float(rows[0][header.index("max_abs_error")]) == report.max_abs_error

    def test_fail(self):
        code, out, _ = run_cli("verify-bandlimit", "--L0", "4", "--s", "2",
                               "--N", "4", "--Q", "8", "--seed", "1")
        assert code == 1

    def test_fail_names_too_few_nodes(self):
        code, out, err = run_cli("verify-bandlimit", "--L0", "4", "--s", "2",
                                 "--N", "6", "--Q", "8", "--seed", "1")
        assert code == 1 and out.splitlines()[1].endswith(",False")
        assert err == ("verify-bandlimit: violated precondition: "
                       "N - s > L0 (N - s = 4, L0 = 4)\n")

    def test_fail_names_too_few_longitudes(self):
        code, out, err = run_cli("verify-bandlimit", "--L0", "4", "--s", "2",
                                 "--N", "7", "--Q", "3", "--seed", "1")
        assert code == 1 and out.splitlines()[1].endswith(",False")
        assert err == "verify-bandlimit: violated precondition: Q > L0 (Q = 3, L0 = 4)\n"

    def test_pass_leaves_stderr_empty(self):
        code, _, err = run_cli("verify-bandlimit", "--L0", "4", "--s", "2",
                               "--N", "7", "--Q", "5", "--seed", "1")
        assert code == 0 and err == ""

    def test_constant_mode(self):
        code, _, _ = run_cli("verify-bandlimit", "--L0", "0", "--s", "0",
                             "--N", "1", "--Q", "1", "--seed", "1")
        assert code == 0

    def test_invalid_exit_2(self):
        code, _, _ = run_cli("verify-bandlimit", "--L0", "1", "--s", "2",
                             "--N", "8", "--Q", "8", "--seed", "1")
        assert code == 2


class TestSimulateCommand:
    def test_zero_spectrum(self, tmp_path):
        spec_file = tmp_path / "zero.csv"
        lines = ["ell,C_E,C_B"] + [f"{l},0,0" for l in range(2, 5)]
        spec_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli("simulate", "--spectrum", str(spec_file),
                               "--N", "6", "--s", "2", "--Q", "1",
                               "--nreal", "100", "--seed", "0")
        assert code == 0
        header, rows = parse_csv(out)
        col = header.index("empirical_mean")
        assert all(float(r[col]) == 0.0 for r in rows)

    def test_flat_requires_lmax(self):
        code, _, err = run_cli("simulate", "--flat", "--N", "6", "--s", "2",
                               "--Q", "1", "--nreal", "100")
        assert code == 2

    @pytest.mark.parametrize("lmax,reason", [
        ("1", ">= s, got --lmax=1 < s=2"),
        ("9", "<= spectrum L_max, got --lmax=9 > 8"),
    ], ids=["1", "9"])
    def test_lmax_outside_spectrum_exit_2(self, tmp_path, lmax, reason):
        spec_file = tmp_path / "flat.csv"
        lines = ["ell,C_E,C_B"] + [f"{l},0.5,0.5" for l in range(2, 9)]
        spec_file.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli("simulate", "--spectrum", str(spec_file), "--lmax", lmax,
                                 "--N", "6", "--s", "2", "--Q", "1", "--nreal", "100")
        assert (code, out) == (2, "")
        assert err == f"error: need --lmax {reason}\n"

    @pytest.mark.parametrize("lmax", ["1", "0"])
    def test_flat_lmax_below_spin_exit_2(self, monkeypatch, capsys, lmax):
        # named as the --lmax the caller gave, before the grid is built
        monkeypatch.setattr(cli, "_build_grid", _must_not_run)
        code = main(["simulate", "--flat", "--lmax", lmax, "--s", "2", "--nreal", "100"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: need --lmax >= s, got --lmax={lmax} < s=2\n"

    @pytest.mark.parametrize("L0,reason", [
        ("1", ">= s, got --L0=1 < s=2"),
        ("9", "<= spectrum L_max, got --L0=9 > 8"),
    ], ids=["1", "9"])
    def test_L0_outside_spectrum_exit_2(self, monkeypatch, capsys, L0, reason):
        # rejected before the grid is built
        monkeypatch.setattr(cli, "_build_grid", _must_not_run)
        code = main(["simulate", "--flat", "--lmax", "8", "--L0", L0, "--s", "2",
                     "--N", "6", "--Q", "1", "--nreal", "100"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: need --L0 {reason}\n"

    @pytest.mark.parametrize("source", [[], ["--flat", "--spectrum", "spec.csv"]],
                             ids=["neither", "both"])
    def test_one_spectrum_source_required(self, source):
        code, out, err = run_cli("simulate", *source, "--lmax", "4", "--s", "2",
                                 "--nreal", "100")
        assert (code, out) == (2, "")
        assert "--spectrum" in err and "--flat" in err

    def test_json_metadata(self):
        code, out, _ = run_cli("simulate", "--flat", "--lmax", "4", "--s", "2",
                               "--N", "8", "--Q", "5", "--nreal", "100",
                               "--seed", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["command"] == "simulate"
        assert doc["metadata"]["seed"] == 3
        assert doc["metadata"]["parameters"]["generator"] == "pcg64"
        assert len(doc["simulation"]["ell"]) == 3


class TestOutPath:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, where):
        target = tmp_path / "nope" / "grid.csv" if where == "missing-dir" else tmp_path
        code, out, err = run_cli("grid", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out: ") and err.count("\n") == 1
        assert "Traceback" not in err


    def test_checked_before_the_work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "monte_carlo_spectrum", _must_not_run)
        target = tmp_path / "nodir" / "x.csv"
        code = main(["simulate", "--flat", "--lmax", "8", "--nreal", "2000",
                     "--out", str(target)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == f"error: cannot write --out: [Errno 2] No such file or directory: '{target}'\n"

    def test_not_truncated_when_the_work_fails(self, tmp_path, capsys):
        target = tmp_path / "kept.csv"
        target.write_text("kept\n")
        assert main(["grid", "--N", "2", "--s", "2", "--out", str(target)]) == 2
        assert target.read_text() == "kept\n"
        assert capsys.readouterr().err == "error: need N > s, got N=2, s=2\n"


class TestSeedOption:
    @pytest.mark.parametrize("command", ["grid", "alias-map"])
    def test_commands_without_a_draw_take_no_seed(self, command):
        code, out, err = run_cli(command, "--seed", "0")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed 0" in err

    def test_json_metadata_without_seed(self):
        code, out, _ = run_cli("grid", "--format", "json")
        assert code == 0
        assert "seed" not in json.loads(out)["metadata"]


class TestMainEntry:
    def test_in_process_exit_codes(self):
        assert main(["grid", "--N", "6", "--s", "2"]) == 0
        assert main(["grid", "--N", "2", "--s", "2"]) == 2

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
