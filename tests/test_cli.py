"""CLI tests: CSV layout, determinism, exit codes, validation report."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ringdecay import cli
from ringdecay.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip("\n").split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-300, 1e300, 0.1, 1 / 3, math.nan, math.inf, -math.inf]
EDGE_INTS = [0, -1, 7, -(2**63), 2**63 - 1, -123456789012]


def reference_lines(header, columns):
    """Per-cell formatting: ``str`` for integers, ``format(x, ".17g")`` for floats."""
    cells = [[format(x, ".17g") if col.dtype.kind == "f" else str(x) for x in col.tolist()]
             for col in columns]
    return [header, *map(",".join, zip(*cells))]


def edge_table(rows):
    """An integer column and two float columns cycling through edge values."""
    i = np.arange(rows)
    floats = np.array(EDGE_FLOATS)
    return (np.array(EDGE_INTS, dtype=np.int64)[i % len(EDGE_INTS)],
            floats[i % len(floats)], floats[(3 * i + 1) % len(floats)])


class TestWriter:
    """``_write_csv`` bytes against per-cell formatting, across a block seam."""

    @pytest.mark.parametrize("rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_stdout_matches_per_cell_reference(self, capsys, rows):
        columns = edge_table(rows)
        cli._write_csv("stdout", "n,x,y", *columns)
        out = capsys.readouterr().out
        # lists, so a failure reports the first differing row, not a text diff
        assert out.split("\n") == reference_lines("n,x,y", columns) + [""]

    @pytest.mark.parametrize("rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_file_matches_per_cell_reference(self, capsys, tmp_path, rows):
        columns = edge_table(rows)
        target = tmp_path / "table.csv"
        cli._write_csv(str(target), "n,x,y", *columns)
        assert capsys.readouterr().out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().split("\n") == reference_lines("n,x,y", columns) + [""]


class TestCoeffs:
    def test_delta_rows_at_a_zero(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--a", "0", "--n-max", "2")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "n,c"
        assert [(r[0], float(r[1])) for r in rows] == [
            ("-2", 0.0), ("-1", 0.0), ("0", 1.0), ("1", 0.0), ("2", 0.0)
        ]

    def test_exact_bytes_at_a_zero(self, capsys):
        # integers print as integers, floats at 17 significant digits
        code, out, err = run_cli(capsys, "coeffs", "--a", "0", "--n-max", "2", "--with-d")
        assert code == 0
        assert err == ""
        assert out == "n,c,d\n-2,0,0\n-1,0,0\n0,1,0.33333333333333331\n1,0,0\n2,0,0\n"

    def test_plateau_and_collapse_at_a50(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--a", "50", "--n-max", "70")
        assert code == 0
        header, rows = csv_rows(out)
        vals = {int(r[0]): float(r[1]) for r in rows}
        assert len(vals) == 141
        for n in range(-40, 41):
            assert abs(vals[n] - 0.01) / 0.01 < 0.30
        for n in range(60, 71):
            assert abs(vals[n]) < 1e-6
            assert abs(vals[-n]) < 1e-6

    def test_d_column(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--a", "50", "--n-max", "70", "--with-d")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "n,c,d"
        vals = {int(r[0]): float(r[2]) for r in rows}
        for n in range(32, 43):
            approx = (n * n - 0.25) / (2.0 * 50.0**3)
            assert abs(vals[n] - approx) / approx < 0.30
            assert vals[-n] == vals[n]

    def test_truncation_note_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--a", "50", "--n-max", "30")
        assert code == 0
        assert "sum rules will not close" in err
        assert out.startswith("n,c\n")

    def test_large_a_truncation_note_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--a", "2000", "--n-max", "2040",
                                 "--with-d")
        assert code == 0
        assert err.startswith("note: ")
        assert "sum rules will not close" in err
        assert out.startswith("n,c,d\n")

    def test_series_refusal_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--a", "50", "--n-max", "10",
                               "--method", "series")
        assert code == 2
        assert "series unstable" in err

    def test_n_max_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--a", "1", "--n-max", "100001")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("n_max", ["-1", "-200000"])
    def test_negative_n_max_is_usage_error(self, capsys, n_max):
        code, out, err = run_cli(capsys, "coeffs", "--a", "1", "--n-max", n_max)
        assert code == 2
        assert out == ""
        assert err == f"error: n_max must be a nonnegative integer, got {n_max}\n"

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "coeffs", "--a", "7.3", "--n-max", "30", "--with-d")
        _, out2, _ = run_cli(capsys, "coeffs", "--a", "7.3", "--n-max", "30", "--with-d")
        assert out1 == out2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "coeffs.csv"
        code, out, _ = run_cli(capsys, "coeffs", "--a", "1", "--n-max", "25",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().startswith("n,c\n")


class TestSpectrumCommand:
    def test_dicke_both_paths(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "10", "--a", "1e-8",
                                 "--path", "both")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "k,rate,rate_oracle,abs_diff"
        byk = {int(r[0]): r for r in rows}
        assert sorted(byk) == list(range(-5, 5))
        assert float(byk[0][1]) == pytest.approx(10.0, abs=1e-6)
        assert float(byk[0][2]) == pytest.approx(10.0, abs=1e-6)
        assert float(byk[0][3]) < 1e-6
        assert "max_abs_diff" in err

    def test_exact_bytes_two_atoms_at_a_zero(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "2", "--a", "0",
                                 "--path", "both")
        assert code == 0
        assert out == "k,rate,rate_oracle,abs_diff\n-1,0,0,0\n0,2,2,0\n"
        assert err == "max_abs_diff = 0\n"

    def test_two_atom_rows(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-atoms", "2", "--a", "1")
        assert code == 0
        _, rows = csv_rows(out)
        vals = {int(r[0]): float(r[1]) for r in rows}
        assert vals[0] == pytest.approx(1 + math.sin(2.0) / 2.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1 - math.sin(2.0) / 2.0, abs=1e-12)

    def test_vector_trace(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-atoms", "10",
                               "--d-over-lambda", "0.3", "--model", "vector",
                               "--delta", "0")
        assert code == 0
        _, rows = csv_rows(out)
        assert math.fsum(float(r[1]) for r in rows) == pytest.approx(10.0, abs=1e-9)

    def test_lambda_over_d_alias(self, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--n-atoms", "8", "--d-over-lambda", "20")
        _, out2, _ = run_cli(capsys, "spectrum", "--n-atoms", "8", "--lambda-over-d", "0.05")
        assert out1 == out2

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1e-320"])
    def test_nonpositive_lambda_over_d_is_usage_error(self, capsys, value):
        # inf has spacing 0, and 1e-320 has no finite inverse
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "10",
                                 "--lambda-over-d", value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: lambda_over_d ")

    def test_a_above_limit_fails_on_every_path(self, capsys):
        errors = set()
        for path in ("analytic", "oracle", "both"):
            code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "4", "--a", "1e6",
                                     "--path", path)
            assert code == 2
            assert out == ""
            errors.add(err)
        assert errors == {"error: a = 1000000.0 exceeds supported limit 10000.0\n"}

    def test_spacing_overflow_names_the_spacing(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "10000000",
                                 "--d-over-lambda", "1e308")
        assert (code, out, err) == (2, "", "error: d_over_lambda = 1e+308 overflows the "
                                           "size parameter a\n")
        # a finite a above the ceiling also names the spacing, not an --a nobody gave
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "2",
                                 "--d-over-lambda", "1e300")
        assert (code, out, err) == (2, "", "error: d_over_lambda = 1e+300 puts the size "
                                           "parameter a = 3.141592653589793e+300 above its "
                                           "supported limit 10000.0\n")

    @pytest.mark.parametrize("geometry", [("--d-over-lambda", "100"),
                                          ("--lambda-over-d", "0.01")])
    def test_spacing_above_size_limit_names_the_spacing(self, capsys, geometry):
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "400", *geometry)
        assert (code, out, err) == (2, "", "error: d_over_lambda = 100.0 puts the size "
                                           "parameter a = 40000.41123647621 above its "
                                           "supported limit 10000.0\n")

    def test_n_above_ceiling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", str(10**15), "--a", "1",
                                 "--path", "both")
        assert code == 2
        assert out == ""
        assert err == "error: n_atoms = 1000000000000000 exceeds supported limit 10000000\n"

    def test_tilt_angle_needs_vector_model(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n-atoms", "3", "--a", "1",
                                 "--delta", "5")
        assert (code, out, err) == (2, "", "error: scalar model takes no tilt angle\n")
        untilted = run_cli(capsys, "spectrum", "--n-atoms", "3", "--a", "1",
                           "--model", "vector")
        assert untilted == run_cli(capsys, "spectrum", "--n-atoms", "3", "--a", "1",
                                   "--model", "vector", "--delta", "0")

    def test_oracle_path(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n-atoms", "6", "--a", "2",
                               "--path", "oracle")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "k,rate"
        assert len(rows) == 6

    def test_geometry_flags_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n-atoms", "4", "--a", "1", "--d-over-lambda", "2"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_geometry_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--n-atoms", "4"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSweep:
    def test_plateaus_scalar(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--grid-min", "0.05", "--grid-max", "100",
                               "--grid-points", "5")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "lambda_over_d,k,rate"
        assert len(rows) == 20
        at_min = {int(r[1]): float(r[2]) for r in rows if float(r[0]) < 0.051}
        for k in (0, 1, 2, 4):
            assert abs(at_min[k] - 0.025) / 0.025 < 0.15
        at_max = {int(r[1]): float(r[2]) for r in rows if float(r[0]) > 99.0}
        assert at_max[0] == pytest.approx(10.0, rel=0.01)
        assert max(at_max[k] for k in (1, 2, 4)) < 0.02

    def test_plateau_vector(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--grid-min", "0.05", "--grid-max", "1",
                               "--grid-points", "2", "--model", "vector", "--delta", "0")
        assert code == 0
        _, rows = csv_rows(out)
        at_min = {int(r[1]): float(r[2]) for r in rows if float(r[0]) < 0.051}
        for k in (0, 1, 2, 4):
            assert abs(at_min[k] - 0.0375) / 0.0375 < 0.15

    def test_dark_tail_far_dicke_side(self, capsys):
        # at lambda/d = 1000 every k > 0 mode is fully dark
        code, out, _ = run_cli(capsys, "sweep", "--grid-min", "999", "--grid-max", "1000",
                               "--grid-points", "2")
        assert code == 0
        _, rows = csv_rows(out)
        for r in rows:
            if int(r[1]) != 0:
                assert float(r[2]) < 1e-3

    def test_row_order_and_determinism(self, capsys):
        code, out1, _ = run_cli(capsys, "sweep", "--grid-points", "25")
        assert code == 0
        _, out2, _ = run_cli(capsys, "sweep", "--grid-points", "25")
        assert out1 == out2
        _, rows = csv_rows(out1)
        lams = [float(r[0]) for r in rows]
        assert lams == sorted(lams)
        ks = [int(r[1]) for r in rows[:4]]
        assert ks == [0, 1, 2, 4]

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--n-atoms", "10", "--k", "0,7")
        assert code == 2
        assert "exceeds N/2" in err
        code, _, err = run_cli(capsys, "sweep", "--k", "0,x")
        assert code == 2

    @pytest.mark.parametrize("k_option", ["--k=,", "--k= "])
    def test_empty_k_list_is_usage_error(self, capsys, k_option):
        code, out, err = run_cli(capsys, "sweep", k_option)
        assert (code, out, err) == (2, "", "error: mode list is empty\n")

    def test_repeated_k_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--k", "1,1,0", "--grid-points", "2")
        assert code == 2
        assert out == ""
        assert err == "error: mode index 1 is repeated in '1,1,0'\n"

    def test_mode_index_above_order_limit_is_usage_error(self, capsys):
        # |k| <= N/2 admits it, but c_|k| lies past the coefficient order limit
        code, out, err = run_cli(capsys, "sweep", "--n-atoms", "1000000", "--k", "300000",
                                 "--grid-min", "999", "--grid-max", "1000",
                                 "--grid-points", "2")
        assert (code, out, err) == (2, "", "error: mode index |k| = 300000 exceeds "
                                           "supported limit 100000\n")

    def test_invalid_grid(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--grid-min", "2", "--grid-max", "1")
        assert code == 2
        code, _, err = run_cli(capsys, "sweep", "--grid-points", "1")
        assert code == 2
        code, out, err = run_cli(capsys, "sweep", "--grid-min", "1", "--grid-max", "inf")
        assert (code, out, err) == (2, "", "error: grid must satisfy 0 < grid-min < grid-max\n")
        code, out, err = run_cli(capsys, "sweep", "--grid-min", "1e-320", "--grid-max", "1",
                                 "--grid-points", "2")
        assert (code, out, err) == (2, "", "error: lambda_over_d and its inverse must be "
                                           "finite and > 0, got 1e-320\n")
        code, out, err = run_cli(capsys, "sweep", "--n-atoms", "10000000",
                                 "--grid-min", "1e-308", "--grid-max", "1e-307",
                                 "--grid-points", "2")
        assert (code, out, err) == (2, "", "error: d_over_lambda = 1e+308 overflows the "
                                           "size parameter a\n")
        code, out, err = run_cli(capsys, "sweep", "--n-atoms", "400", "--grid-min", "0.001")
        assert (code, out, err) == (2, "", "error: d_over_lambda = 1000.0 puts the size "
                                           "parameter a = 400004.11236476206 above its "
                                           "supported limit 10000.0\n")
        # the ceiling is refused before the grid is allocated
        for points in (10001, 10**12):
            code, out, err = run_cli(capsys, "sweep", "--grid-points", str(points))
            assert (code, out, err) == (2, "", f"error: grid-points = {points} exceeds "
                                               "supported limit 10000\n")

    def test_tilt_angle_needs_vector_model(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--delta", "0.3", "--grid-points", "2")
        assert (code, out, err) == (2, "", "error: scalar model takes no tilt angle\n")

    def test_signed_k(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k=-2,2", "--grid-points", "2",
                               "--grid-min", "1", "--grid-max", "2")
        assert code == 0
        _, rows = csv_rows(out)
        pair = {int(r[1]): float(r[2]) for r in rows[:2]}
        assert pair[-2] == pair[2]

    def test_exact_grid_and_k_columns(self, capsys):
        # the rate column is not an exact value, so only the first two are pinned
        code, out, _ = run_cli(capsys, "sweep", "--k=-2,2", "--grid-points", "2",
                               "--grid-min", "1", "--grid-max", "2")
        assert code == 0
        _, rows = csv_rows(out)
        assert [",".join(r[:2]) for r in rows] == ["1,-2", "1,2", "2,-2", "2,2"]


class TestRouteLookup:
    """The commands look their routes up on ``ringdecay.cli`` at call time.

    The benchmark tracer counts calls by replacing these module attributes;
    a route captured at import time would run untraced.
    """

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}

        def wrap(name):
            inner = getattr(cli, name)
            counts[name] = 0

            def counted(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)

        for name in ("analytic_spectrum", "oracle_spectrum", "continuous_limit_rate",
                     "coeff_table"):
            wrap(name)
        return counts

    def test_spectrum_both_runs_each_route_once(self, capsys, calls):
        assert run_cli(capsys, "spectrum", "--n-atoms", "6", "--a", "2",
                       "--path", "both")[0] == 0
        assert calls["analytic_spectrum"] == 1
        assert calls["oracle_spectrum"] == 1

    def test_coeffs_builds_one_table(self, capsys, calls):
        assert run_cli(capsys, "coeffs", "--a", "3", "--n-max", "10", "--with-d")[0] == 0
        assert calls["coeff_table"] == 1

    def test_sweep_calls_one_rate_per_row(self, capsys, calls):
        assert run_cli(capsys, "sweep", "--k", "0,1", "--grid-points", "2")[0] == 0
        assert calls["continuous_limit_rate"] == 4


class TestValidate:
    def test_report_and_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        # the subradiant-slope reference value only applies as
        # d/lambda -> 0, so that single check fails by construction
        assert code == 1
        assert "oracle-equivalence: max |Δ| < 1e-8" in out
        assert "PASS  subradiant-slope-valid-regime" in out
        assert "FAIL  subradiant-slope:" in out
        pass_lines = [l for l in out.splitlines() if l.startswith("PASS")]
        fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert len(pass_lines) == 15
        assert len(fail_lines) == 1
        assert "1 of 16 checks failed" in out

    def test_report_file_is_utf8_under_ascii_locale(self, tmp_path):
        # the report holds "Δ"; under the C locale open() would default to ASCII
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        report = tmp_path / "report.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "ringdecay", "validate", "--output", str(report)],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert "max |Δ|" in report.read_bytes().decode("utf-8")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this platform")


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [["validate"], ["spectrum", "--n-atoms", "4", "--a", "1"]],
                             ids=["validate", "spectrum"])
    @pytest.mark.parametrize("target, reason", [
        ("missing/out.txt", "No such file or directory"),
        (".", "Is a directory"),
        pytest.param("/dev/full", "No space left on device", marks=needs_dev_full),
    ], ids=["missing-directory", "directory", "full-disk"])
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv, target, reason):
        path = tmp_path / target  # an absolute target replaces tmp_path
        code, out, err = run_cli(capsys, *argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: {reason}\n"

    @needs_dev_full
    @pytest.mark.parametrize("argv", [
        ["validate"], ["spectrum", "--n-atoms", "100000", "--a", "1"],
    ], ids=["validate", "spectrum"])
    def test_full_disk_stdout_is_usage_error(self, argv):
        # the small report fails at the flush, the 100000-row table mid-write
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ringdecay", *argv], stdout=full,
                                  stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write stdout: No space left on device\n"

    def test_closed_pipe_ends_quietly(self):
        # 100000 rows are far more than a pipe holds, so the writer meets the
        # closed pipe mid-table; it exits 141 (128 + SIGPIPE) with no traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "ringdecay", "spectrum", "--n-atoms", "100000", "--a", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first == b"k,rate\n"
        assert err == b""


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "the following arguments are required: command" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ringdecay", "spectrum", "--n-atoms", "3", "--a", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,rate\n")
