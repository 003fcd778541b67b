"""CLI tests: CSV layout, determinism, exit codes, validation report."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from ringdecay import cli, specfun
from ringdecay.cli import main
from ringdecay.ring_model import ModelKind, RingConfig, lattice_conversion
from ringdecay.specfun import _miller_sweep as miller_sweep
from ringdecay.specfun import alias_cutoff, coeff_table
from ringdecay.spectrum import analytic_spectrum, continuous_limit_rate, oracle_spectrum


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
    """``_write`` of ``_csv_chunks`` bytes against per-cell formatting, across a block seam."""

    @pytest.mark.parametrize("rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_stdout_matches_per_cell_reference(self, capsys, rows):
        columns = edge_table(rows)
        cli._write("stdout", cli._csv_chunks("n,x,y", columns))
        out = capsys.readouterr().out
        # lists, so a failure reports the first differing row, not a text diff
        assert out.split("\n") == reference_lines("n,x,y", columns) + [""]

    @pytest.mark.parametrize("rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1])
    def test_file_matches_per_cell_reference(self, capsys, tmp_path, rows):
        columns = edge_table(rows)
        target = tmp_path / "table.csv"
        cli._write(str(target), cli._csv_chunks("n,x,y", columns))
        assert capsys.readouterr().out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().split("\n") == reference_lines("n,x,y", columns) + [""]


_B = cli._BLOCK_ROWS
# rates the spectrum writer skips (+0.0) or must still format (-0.0 prints "-0")
RATE_EDGES = [0.0, -0.0, 5e-324, 0.0, 0.0, 2.5, 1e-300, 0.0, 0.1, 1 / 3, math.nan, 1e300]


class TestSpectrumWriter:
    """``_spectrum_chunks`` against per-cell formatting on hand-made columns, across the
    block seams: it formats no +0.0 rate, but every cell must read as if it did."""

    @staticmethod
    def columns(rows):
        i = np.arange(rows)
        rates = np.array(RATE_EDGES)[i % len(RATE_EDGES)]
        oracle = np.array(EDGE_FLOATS)[(3 * i + 1) % len(EDGE_FLOATS)]
        return i - rows // 2, rates, oracle

    @pytest.mark.parametrize("rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1,
                                      2 * cli._BLOCK_ROWS + 5])
    def test_analytic_cells_match_per_cell_reference(self, rows):
        ks, rates, _ = self.columns(rows)
        out = "".join(cli._spectrum_chunks(ks, rates))
        assert out.split("\n") == reference_lines("k,rate", (ks, rates)) + [""]

    @pytest.mark.parametrize("rows", [1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1,
                                      2 * cli._BLOCK_ROWS + 5])
    def test_both_cells_match_per_cell_reference(self, rows):
        ks, rates, oracle = self.columns(rows)
        diff = np.abs(rates - oracle)
        out = "".join(cli._spectrum_chunks(ks, rates, oracle, diff))
        assert out.split("\n") == reference_lines("k,rate,rate_oracle,abs_diff",
                                                  (ks, rates, oracle, diff)) + [""]

    # Run layouts over three blocks (the last of 5 rows): the rows whose rate
    # is not +0.0, and their rates, as the run writer splits a block at their edges.
    RUN_LAYOUTS = {
        "band-mid-block": (slice(_B // 3, _B // 3 + 40), 2.5),
        "band-across-seam": (slice(_B - 30, _B + 30), 1 / 3),
        "block-first-and-last-rows": ([0, _B - 1, _B, 2 * _B - 1, 2 * _B, 2 * _B + 4], 0.1),
        "zero-block-then-shown-block": (slice(_B, 2 * _B), 1e-300),
        "lone-minus-zero-and-nan": ([_B // 2, _B // 2 + 7], [-0.0, math.nan]),
    }

    @classmethod
    def run_layout(cls, layout):
        """Columns of ``2 * _BLOCK_ROWS + 5`` rows whose rates are +0.0 but where
        ``layout`` sets them; shown rates get distinct texts."""
        ks, _, oracle = cls.columns(2 * _B + 5)
        rates = np.zeros(len(ks))
        rows, values = cls.RUN_LAYOUTS[layout]
        rates[rows] = values
        rates *= 1 + np.arange(len(ks)) / 7  # 0, -0 and nan keep their sign and bits
        return ks, rates, oracle

    @pytest.mark.parametrize("layout", RUN_LAYOUTS)
    def test_analytic_runs_match_per_cell_reference(self, layout):
        ks, rates, _ = self.run_layout(layout)
        out = "".join(cli._spectrum_chunks(ks, rates))
        assert out.split("\n") == reference_lines("k,rate", (ks, rates)) + [""]

    @pytest.mark.parametrize("layout", RUN_LAYOUTS)
    def test_both_runs_match_per_cell_reference(self, layout):
        ks, rates, oracle = self.run_layout(layout)
        diff = np.abs(rates - oracle)
        out = "".join(cli._spectrum_chunks(ks, rates, oracle, diff))
        assert out.split("\n") == reference_lines("k,rate,rate_oracle,abs_diff",
                                                  (ks, rates, oracle, diff)) + [""]

    def test_run_layouts_hold_their_blocks(self):
        zero_block = self.run_layout("zero-block-then-shown-block")[1]
        assert np.all(zero_block[:_B] == 0.0) and not np.any(np.signbit(zero_block[:_B]))
        assert np.all(zero_block[_B:2 * _B] != 0.0)
        lone = self.run_layout("lone-minus-zero-and-nan")[1]
        assert np.signbit(lone[_B // 2]) and lone[_B // 2] == 0.0
        assert math.isnan(lone[_B // 2 + 7])
        assert np.count_nonzero((lone != 0.0) | np.signbit(lone)) == 2

    def test_formats_no_positive_zero_rate(self, monkeypatch):
        formatted = []
        inner = cli._g17_cells
        monkeypatch.setattr(cli, "_g17_cells",
                            lambda values: formatted.extend(values.tolist()) or inner(values))
        ks, rates, _ = self.columns(cli._BLOCK_ROWS + 1)
        "".join(cli._spectrum_chunks(ks, rates))
        shown = [x for x in rates.tolist() if x != 0.0 or math.copysign(1.0, x) < 0.0]
        assert list(map(repr, formatted)) == list(map(repr, shown))  # nan != nan
        assert 0 < len(shown) < len(rates)


# Where a table stops below alias_cutoff(a) and a sum rule misses by more
# than TOL_SUM, ``coeffs`` prints this one line to stderr and still exits 0.
TRUNCATION_NOTES = [
    (("--a", "50", "--n-max", "30"),
     "note: n_max = 30 is below alias_cutoff(a) = 109; sum rules will not close at this "
     "truncation (c-sum off by -3.912e-01, d-sum by -2.589e-01; TOL_SUM = 1e-09)\n"),
    (("--a", "2000", "--n-max", "2040", "--with-d"),
     "note: n_max = 2040 is below alias_cutoff(a) = 2103; sum rules will not close at this "
     "truncation (c-sum off by -1.474e-09, d-sum by -1.471e-09; TOL_SUM = 1e-09)\n"),
    (("--a", "5", "--n-max", "10", "--method", "series"),
     "note: n_max = 10 is below alias_cutoff(a) = 54; sum rules will not close at this "
     "truncation (c-sum off by -6.973e-08, d-sum by -6.371e-08; TOL_SUM = 1e-09)\n"),
]


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

    @pytest.mark.parametrize("argv, note", TRUNCATION_NOTES,
                             ids=[" ".join(argv) for argv, _ in TRUNCATION_NOTES])
    def test_truncation_note_bytes(self, capsys, argv, note):
        code, out, err = run_cli(capsys, "coeffs", *argv)
        assert (code, err) == (0, note)
        assert out.startswith("n,c,d\n" if "--with-d" in argv else "n,c\n")

    def test_truncation_note_precedes_the_csv(self):
        argv, note = TRUNCATION_NOTES[0]
        proc = subprocess.run([sys.executable, "-m", "ringdecay", "coeffs", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith(note + "n,c\n")

    @pytest.mark.parametrize("a, n_max", [("400", "440"), ("50", "90"), ("0", "5")])
    def test_no_note_where_truncated_sums_close(self, capsys, a, n_max):
        assert int(n_max) < alias_cutoff(float(a))
        code, _, err = run_cli(capsys, "coeffs", "--a", a, "--n-max", n_max)
        assert (code, err) == (0, "")

    def test_series_refusal_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--a", "50", "--n-max", "10",
                               "--method", "series")
        assert code == 2
        assert "series unstable" in err

    def test_n_max_above_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--a", "1", "--n-max", "100001")
        assert code == 2
        assert out == ""
        assert err == "error: n_max = 100001 exceeds supported limit 100000\n"

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


def coeffs_reference(a, n_max, with_d, method="quadrature"):
    """Rows -n_max..n_max of ``coeff_table``, every cell formatted on its own."""
    table = coeff_table(a, n_max, method=method)
    ns = np.arange(-n_max, n_max + 1)
    columns = (table.c, table.d) if with_d else (table.c,)
    return reference_lines("n,c,d" if with_d else "n,c",
                           [ns, *(col[np.abs(ns)] for col in columns)])


COEFFS_SEAMS = [0, 1, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, 2 * cli._BLOCK_ROWS]
COEFFS_CASES = ([("3.5", n_max, with_d, "quadrature")
                 for n_max in COEFFS_SEAMS for with_d in (False, True)]
                + [("2", 30, True, "series")])


class TestCoeffsMirror:
    """``coeffs`` writes row -n as "-" + row n; the bytes are those of every row formatted."""

    @staticmethod
    def argv(a, n_max, with_d, method):
        return ["coeffs", "--a", a, "--n-max", str(n_max), "--method", method,
                *(["--with-d"] if with_d else [])]

    @pytest.mark.parametrize("a, n_max, with_d, method", COEFFS_CASES)
    def test_stdout_matches_per_cell_reference(self, capsys, a, n_max, with_d, method):
        code, out, _ = run_cli(capsys, *self.argv(a, n_max, with_d, method))
        assert code == 0
        assert out.split("\n") == coeffs_reference(float(a), n_max, with_d, method) + [""]

    @pytest.mark.parametrize("a, n_max, with_d, method", COEFFS_CASES)
    def test_file_matches_per_cell_reference(self, capsys, tmp_path, a, n_max, with_d,
                                             method):
        target = tmp_path / "coeffs.csv"
        code, out, _ = run_cli(capsys, *self.argv(a, n_max, with_d, method),
                               "--output", str(target))
        assert (code, out) == (0, "")
        lines = target.read_bytes().decode().split("\n")
        assert lines == coeffs_reference(float(a), n_max, with_d, method) + [""]

    @pytest.mark.parametrize("n_max", [0, 5, cli._BLOCK_ROWS + 1])
    def test_formats_rows_zero_to_n_max_once(self, capsys, monkeypatch, n_max):
        formatted = []
        inner = cli._csv_chunks

        def counted(header, columns):
            formatted.append(len(columns[0]))
            return inner(header, columns)
        monkeypatch.setattr(cli, "_csv_chunks", counted)
        code, out, _ = run_cli(capsys, "coeffs", "--a", "2", "--n-max", str(n_max),
                               "--with-d")
        assert code == 0
        assert formatted == [n_max + 1]
        assert out.count("\n") == 2 * n_max + 2


def spectrum_both_reference(n_atoms, a, model):
    """``spectrum --path both`` rows k = -N//2.., every cell formatted on its own."""
    config = RingConfig(n_atoms, a)
    analytic = analytic_spectrum(config, model)
    rates, oracles = (np.roll(spec.rates, n_atoms // 2).tolist()
                      for spec in (analytic, oracle_spectrum(config, model)))
    lines = ["k,rate,rate_oracle,abs_diff"]
    diffs = []
    for k, rate, oracle in zip(analytic.signed_indices().tolist(), rates, oracles):
        diffs.append(abs(rate - oracle))
        lines.append(",".join([str(k), format(rate, ".17g"), format(oracle, ".17g"),
                               format(diffs[-1], ".17g")]))
    return lines, f"max_abs_diff = {max(diffs):.17g}\n"


BOTH_SEAMS = [2, 3, cli._BLOCK_ROWS - 1, cli._BLOCK_ROWS, cli._BLOCK_ROWS + 1,
              2 * cli._BLOCK_ROWS + 1]
# a = 0 and 0.5 give mostly exact-zero analytic rates, a = 20 a mix; at
# N = 2, a = 1e4 no analytic rate is 0
BOTH_CASES = ([(n_atoms, a, ()) for n_atoms in BOTH_SEAMS for a in ("0", "0.5", "20")]
              + [(2, "1e4", ()),
                 (cli._BLOCK_ROWS + 1, "20", ("--model", "vector", "--delta", "1"))])


class TestSpectrumBoth:
    """``--path both`` reuses the oracle cell as abs_diff where the analytic rate is 0;
    the bytes are those of every cell formatted, across the block seams."""

    @staticmethod
    def run(capsys, n_atoms, a, model_args, *extra):
        return run_cli(capsys, "spectrum", "--n-atoms", str(n_atoms), "--a", a,
                       "--path", "both", *model_args, *extra)

    @staticmethod
    def reference(n_atoms, a, model_args):
        model = ModelKind.vectorial(1.0) if model_args else ModelKind.scalar()
        return spectrum_both_reference(n_atoms, float(a), model)

    @pytest.mark.parametrize("n_atoms, a, model_args", BOTH_CASES)
    def test_stdout_matches_per_cell_reference(self, capsys, n_atoms, a, model_args):
        code, out, err = self.run(capsys, n_atoms, a, model_args)
        lines, max_line = self.reference(n_atoms, a, model_args)
        assert code == 0
        # lists, so a failure reports the first differing row, not a text diff
        assert out.split("\n") == lines + [""]
        assert err == max_line

    @pytest.mark.parametrize("n_atoms, a, model_args", BOTH_CASES)
    def test_file_matches_per_cell_reference(self, capsys, tmp_path, n_atoms, a, model_args):
        target = tmp_path / "spectrum.csv"
        code, out, err = self.run(capsys, n_atoms, a, model_args, "--output", str(target))
        lines, max_line = self.reference(n_atoms, a, model_args)
        assert (code, out, err) == (0, "", max_line)
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().split("\n") == lines + [""]

    def test_cases_hold_zero_and_nonzero_rates(self):
        rates = {(n_atoms, a): analytic_spectrum(RingConfig(n_atoms, float(a)),
                                                 ModelKind.scalar()).rates
                 for n_atoms, a, model_args in BOTH_CASES if not model_args}
        assert np.all(rates[2, "1e4"] != 0.0)
        assert np.any(rates[2 * cli._BLOCK_ROWS + 1, "20"] == 0.0)
        assert np.any(rates[2 * cli._BLOCK_ROWS + 1, "20"] != 0.0)

    @pytest.mark.parametrize("n_atoms", BOTH_SEAMS)
    def test_chunks_hold_one_block_at_most(self, capsys, monkeypatch, n_atoms):
        rows = []
        inner = cli._write

        def counted(path, chunks):
            def each():
                for chunk in chunks:
                    rows.append(chunk.count("\n"))
                    yield chunk
            inner(path, each())
        monkeypatch.setattr(cli, "_write", counted)
        code, out, _ = self.run(capsys, n_atoms, "20", ())
        assert code == 0
        full, rest = divmod(n_atoms, cli._BLOCK_ROWS)
        assert rows == [1] + [cli._BLOCK_ROWS] * full + ([rest] if rest else [])
        assert out.count("\n") == n_atoms + 1


ONE_PATH_CASES = [(path, *case) for path in ("analytic", "oracle") for case in BOTH_CASES]


class TestSpectrumOnePath:
    """``--path analytic`` and ``--path oracle`` give the bytes of every cell formatted
    on its own, across the block seams, with exact-zero and nonzero analytic rates."""

    @staticmethod
    def run(capsys, path, n_atoms, a, model_args, *extra):
        return run_cli(capsys, "spectrum", "--n-atoms", str(n_atoms), "--a", a,
                       "--path", path, *model_args, *extra)

    @staticmethod
    def reference(path, n_atoms, a, model_args):
        """``spectrum --path PATH`` rows k = -N//2.., every cell formatted on its own."""
        model = ModelKind.vectorial(1.0) if model_args else ModelKind.scalar()
        route = analytic_spectrum if path == "analytic" else oracle_spectrum
        spec = route(RingConfig(n_atoms, float(a)), model)
        rates = np.roll(spec.rates, n_atoms // 2).tolist()
        return ["k,rate", *(f"{k},{format(rate, '.17g')}"
                            for k, rate in zip(spec.signed_indices().tolist(), rates))]

    @pytest.mark.parametrize("path, n_atoms, a, model_args", ONE_PATH_CASES)
    def test_stdout_matches_per_cell_reference(self, capsys, path, n_atoms, a, model_args):
        code, out, err = self.run(capsys, path, n_atoms, a, model_args)
        assert (code, err) == (0, "")
        # lists, so a failure reports the first differing row, not a text diff
        assert out.split("\n") == self.reference(path, n_atoms, a, model_args) + [""]

    @pytest.mark.parametrize("path, n_atoms, a, model_args", ONE_PATH_CASES)
    def test_file_matches_per_cell_reference(self, capsys, tmp_path, path, n_atoms, a,
                                             model_args):
        target = tmp_path / "spectrum.csv"
        code, out, err = self.run(capsys, path, n_atoms, a, model_args, "--output",
                                  str(target))
        assert (code, out, err) == (0, "", "")
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().split("\n") == self.reference(path, n_atoms, a, model_args) + [""]

    @pytest.mark.parametrize("n_atoms", BOTH_SEAMS)
    def test_analytic_chunks_hold_one_block_at_most(self, capsys, monkeypatch, n_atoms):
        rows = []
        inner = cli._write

        def counted(path, chunks):
            def each():
                for chunk in chunks:
                    rows.append(chunk.count("\n"))
                    yield chunk
            inner(path, each())
        monkeypatch.setattr(cli, "_write", counted)
        code, out, _ = self.run(capsys, "analytic", n_atoms, "20", ())
        assert code == 0
        full, rest = divmod(n_atoms, cli._BLOCK_ROWS)
        assert rows == [1] + [cli._BLOCK_ROWS] * full + ([rest] if rest else [])
        assert out.count("\n") == n_atoms + 1


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

    @pytest.mark.parametrize("grid", [("0.05", "100", "200"), ("0.3", "0.7", "7"),
                                      ("0.01", "1000", "11"), ("1", "2", "2")])
    def test_grid_starts_and_ends_at_its_bounds(self, capsys, grid):
        grid_min, grid_max, points = grid
        code, out, _ = run_cli(capsys, "sweep", "--k", "0", "--grid-min", grid_min,
                               "--grid-max", grid_max, "--grid-points", points)
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == int(points)
        assert rows[0][0] == format(float(grid_min), ".17g")
        assert rows[-1][0] == format(float(grid_max), ".17g")

    @pytest.mark.parametrize("lo, hi, points", [
        (0.05, 100.0, 200), (0.05, 100.0, 10000), (1e-3, 1e300, 97), (0.04001, 0.05, 200),
        (2000.0, 2000.0001, 30), (1.0, 2.0, 2), (1.0, 1.0000000000000002, 10),
        (0.05, 0.05000000000000006, 50),  # inner points round below lo and above hi
        (2000.0, 2000.000000000004, 7),  # an inner point rounds above hi
    ])
    def test_grid_never_falls_and_keeps_its_ends(self, lo, hi, points):
        # the end checks in cmd_sweep cover every point only if no point leaves [lo, hi]
        grid = cli._log_grid(lo, hi, points)
        assert grid.size == points and (grid[0], grid[-1]) == (lo, hi)
        assert np.all(grid[1:] >= grid[:-1])

    @pytest.mark.parametrize("lo, hi, points", [(0.05, 100.0, 50), (0.05, 100.0, 200),
                                                (1e-3, 1e300, 97), (0.3, 0.7, 7)])
    def test_grid_is_pow_at_evenly_spaced_exponents(self, lo, hi, points):
        # Python float arithmetic and the C library's pow, none of numpy's
        # CPU-dispatched log10 or power: the bits of np.linspace's
        # y_i = i ((y_hi - y_lo) / (n - 1)) + y_lo, then pow(10, y_i)
        y_lo, y_hi = math.log10(lo), math.log10(hi)
        step = (y_hi - y_lo) / (points - 1)
        inner = [min(max(math.pow(10.0, i * step + y_lo), lo), hi) for i in range(1, points - 1)]
        assert cli._log_grid(lo, hi, points).tolist() == [lo, *inner, hi]

    def test_narrow_grid_prints_a_column_that_never_falls(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--k", "0", "--grid-min", "0.05",
                                 "--grid-max", "0.05000000000000006", "--grid-points", "50")
        assert (code, err) == (0, "")
        lams = [float(row[0]) for row in csv_rows(out)[1]]
        assert lams == sorted(lams) and (lams[0], lams[-1]) == (0.05, 0.05000000000000006)

    @pytest.mark.parametrize("points", [2, 7, 50])
    def test_one_lane_per_grid_point(self, capsys, monkeypatch, points):
        # the four rows at a grid point share one lane, a sweep for N//2 + 1 = 6 rows
        sweeps = []

        def recorded(x, top):
            sweeps.append((x, top))
            return miller_sweep(x, top)

        monkeypatch.setattr(specfun, "_miller_sweep", recorded)
        code, out, err = run_cli(capsys, "sweep", "--n-atoms", "10", "--k", "0,1,2,4",
                                 "--grid-points", str(points))
        assert (code, err) == (0, "")
        grid = cli._log_grid(0.05, 100.0, points)
        assert sweeps == [(2.0 * cli._a_from_lambda_over_d(10, x), 13) for x in grid]

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_fifty_point_grid_is_one_lane_pass(self, capsys, monkeypatch, n):
        # over the default range every point's lane fits one block
        passes = []
        lanes = specfun._closed_form_lanes
        monkeypatch.setattr(specfun, "_closed_form_lanes",
                            lambda block, sweeps: passes.append(len(block)) or lanes(block, sweeps))
        code, _, err = run_cli(capsys, "sweep", "--n-atoms", str(n), "--grid-points", "50")
        assert (code, err, passes) == (0, "", [50])

    @pytest.mark.parametrize("argv", [
        (),
        ("--n-atoms", "2", "--k", "0,1", "--grid-points", "9"),
        ("--n-atoms", "3", "--k", "0,1", "--grid-min", "1e-3", "--grid-max", "1e300",
         "--grid-points", "97"),
        ("--n-atoms", "400", "--grid-min", "0.04001", "--grid-max", "0.05"),
        ("--n-atoms", "10000000", "--grid-min", "2000", "--grid-max", "2000.0001",
         "--grid-points", "30"),
    ], ids=["default", "N=2", "N=3-wide", "N=400-a-near-1e4", "N=1e7-narrow"])
    def test_each_point_converts_as_lattice_conversion(self, capsys, monkeypatch, argv):
        seen = []
        inner = cli.continuous_limit_rate
        monkeypatch.setattr(cli, "continuous_limit_rate",
                            lambda n, a, ks, model: seen.append(list(a)) or inner(n, a, ks,
                                                                                   model=model))
        code, _, err = run_cli(capsys, "sweep", *argv)
        assert (code, err) == (0, "")
        args = cli._PARSER.parse_args(["sweep", *argv])
        grid = cli._log_grid(args.grid_min, args.grid_max, args.grid_points)
        assert seen == [[lattice_conversion(args.n_atoms, 1.0 / x) for x in grid.tolist()]]

    def test_one_lane_per_distinct_depth(self, capsys, monkeypatch):
        # past alias_cutoff(a) < N//2 each |k| reads its own depth; k and -k share
        # one, and the a < 1e-50 points at the grid's top run no sweep at all
        tops = []
        monkeypatch.setattr(specfun, "_miller_sweep",
                            lambda x, top: tops.append(top) or miller_sweep(x, top))
        code, _, err = run_cli(capsys, "sweep", "--n-atoms", "300", "--k=-150,0,1,100,150",
                               "--grid-min", "1", "--grid-max", "1e60", "--grid-points", "40")
        assert (code, err) == (0, "")
        a_values = [cli._a_from_lambda_over_d(300, x) for x in cli._log_grid(1.0, 1e60, 40)]
        expected = []
        for a in a_values:
            if a >= specfun._A_TINY:
                shared = min(150, alias_cutoff(a))
                expected += [2 * depth + 3 for depth in sorted({max(k, shared)
                                                                for k in (0, 1, 100, 150)})]
        assert tops == expected
        assert min(a_values) < specfun._A_TINY and {2 * 100 + 3, 2 * 150 + 3} <= set(tops)

    @pytest.mark.parametrize("argv", [
        ("--n-atoms", "2", "--k", "0,1", "--grid-points", "9"),
        ("--n-atoms", "3", "--k=-1,0,1", "--grid-points", "9", "--model", "vector",
         "--delta", "0.4"),
        ("--n-atoms", "10", "--grid-points", "50"),
        ("--n-atoms", "90", "--k", "0,10,44,45", "--grid-max", "1e60", "--grid-points", "40"),
        ("--n-atoms", "300", "--k=-150,-100,0,1,77,150", "--grid-points", "60",
         "--model", "vector", "--delta", "1.1"),
        ("--n-atoms", "300", "--k", "0,150", "--grid-min", "1", "--grid-max", "1e60",
         "--grid-points", "12"),
        ("--n-atoms", "400", "--k", "0,1,200", "--grid-min", "0.0401", "--grid-max", "0.05",
         "--grid-points", "4", "--model", "vector", "--delta", "0.2"),
    ], ids=["N=2", "N=3-vector", "N=10", "N=90-past-cutoff", "N=300-vector",
            "N=300-grid-max-1e60", "N=400-a-near-1e4"])
    def test_equals_the_scalar_rate_loop(self, capsys, argv):
        # the reference is the loop the one sequence call replaced: one scalar
        # continuous_limit_rate call per row, written with per-cell formatting
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert (code, err) == (0, "")
        args = cli._PARSER.parse_args(["sweep", *argv])
        ks, model = cli._parse_k_list(args.k), cli._model_from_args(args)
        grid = cli._log_grid(args.grid_min, args.grid_max, args.grid_points)
        rates = []
        for lam_over_d in grid:
            a = cli._a_from_lambda_over_d(args.n_atoms, lam_over_d)
            rates += [continuous_limit_rate(args.n_atoms, a, k, model=model) for k in ks]
        columns = (np.repeat(grid, len(ks)), np.tile(ks, len(grid)), np.array(rates))
        assert out == "\n".join(reference_lines("lambda_over_d,k,rate", columns)) + "\n"

    def test_short_tables_are_silent_at_large_a(self, capsys):
        # the grid reaches a = 1200, far below the depth where the sum rules close
        assert cli._a_from_lambda_over_d(60, 0.05) > 1000.0
        code, out, err = run_cli(capsys, "sweep", "--n-atoms", "60", "--grid-min", "0.05",
                                 "--grid-max", "0.1", "--grid-points", "20")
        assert (code, err) == (0, "")
        assert len(csv_rows(out)[1]) == 80

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
        # only the low end's a = 10000.1028... is past the limit; the next point's is not
        code, out, err = run_cli(capsys, "sweep", "--n-atoms", "400", "--grid-min", "0.04",
                                 "--grid-max", "0.05", "--grid-points", "50")
        assert (code, out, err) == (2, "", "error: d_over_lambda = 25.0 puts the size "
                                           "parameter a = 10000.102809119053 above its "
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

    def test_sweep_calls_one_rate_per_sweep(self, capsys, calls):
        # every row of the grid comes from one sequence call
        assert run_cli(capsys, "sweep", "--k", "0,1", "--grid-points", "2")[0] == 0
        assert calls["continuous_limit_rate"] == 1


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


# The largest coeffs table: it is formatted in full before its output is opened.
LARGEST_COEFFS = ["coeffs", "--a", "1e4", "--n-max", "100000", "--with-d"]
# Both routes: a failed write must end the run before its max_abs_diff line.
LARGEST_BOTH = ["spectrum", "--n-atoms", "100000", "--a", "1", "--path", "both"]


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [["validate"], ["spectrum", "--n-atoms", "4", "--a", "1"],
                                      LARGEST_BOTH, LARGEST_COEFFS],
                             ids=["validate", "spectrum", "spectrum-both", "coeffs"])
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
        ["validate"], ["spectrum", "--n-atoms", "100000", "--a", "1"], LARGEST_BOTH,
        LARGEST_COEFFS,
    ], ids=["validate", "spectrum", "spectrum-both", "coeffs"])
    def test_full_disk_stdout_is_usage_error(self, argv):
        # the small report fails at the flush, the 100000-row table mid-write
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "ringdecay", *argv], stdout=full,
                                  stderr=subprocess.PIPE, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize("argv, header", [
        (["spectrum", "--n-atoms", "100000", "--a", "1"], b"k,rate\n"),
        (LARGEST_BOTH, b"k,rate,rate_oracle,abs_diff\n"),
        (LARGEST_COEFFS, b"n,c,d\n"),
    ], ids=["spectrum", "spectrum-both", "coeffs"])
    def test_closed_pipe_ends_quietly(self, argv, header):
        # 100000 rows are far more than a pipe holds, so the writer meets the
        # closed pipe mid-table; it exits 141 (128 + SIGPIPE) with no traceback
        proc = subprocess.Popen([sys.executable, "-m", "ringdecay", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first == header
        assert err == b""


def run_in_process(capsys, argv):
    """Exit code, stdout and stderr of ``main``, an argparse exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """``main`` parses with the one parser built at import."""

    def test_main_does_not_build_a_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")
        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out, _ = run_cli(capsys, "coeffs", "--a", "3", "--n-max", "5")
        assert code == 0
        assert out.startswith("n,c\n")

    def test_no_state_leaks_between_calls(self, capsys, tmp_path):
        # each call in one process, in this order, gives what it gives as the
        # first call of a fresh process: no flag, output or error carries over
        coeffs = ["coeffs", "--a", "3", "--n-max", "5"]
        spectrum = ["spectrum", "--n-atoms", "6", "--a", "2"]
        steps = [
            coeffs + ["--with-d"], coeffs,
            spectrum + ["--model", "vector", "--delta", "1"], spectrum,
            coeffs + ["--output", "{out}"], coeffs,
            ["spectrum", "--n-atoms", "6"], ["coeffs", "--a", "1", "--n-max", "100001"],
            spectrum,
        ]

        def argv_for(step, tag):
            return [arg.format(out=tmp_path / f"{tag}.csv") for arg in step]

        def written(tag):
            path = tmp_path / f"{tag}.csv"
            return path.read_bytes() if path.exists() else None

        fresh = [subprocess.Popen(
                     [sys.executable, "-m", "ringdecay", *argv_for(step, f"fresh{i}")],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                 for i, step in enumerate(steps)]
        in_process = [run_in_process(capsys, argv_for(step, f"seq{i}"))
                      for i, step in enumerate(steps)]
        for i, (proc, got) in enumerate(zip(fresh, in_process)):
            out, err = proc.communicate(timeout=120)
            assert got == (proc.returncode, out, err), steps[i]
            assert written(f"seq{i}") == written(f"fresh{i}"), steps[i]

        assert [out.split("\n", 1)[0] for _, out, _ in in_process[:2]] == ["n,c,d", "n,c"]
        assert in_process[3] == in_process[8]  # the scalar spectrum, after the vector one
        assert in_process[4][1] == "" and written("seq4").startswith(b"n,c\n")
        assert in_process[5][1] == written("seq4").decode()  # stdout again, same table
        assert [code for code, _, _ in in_process[6:]] == [2, 2, 0]


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
