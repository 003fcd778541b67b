"""Validation grid: the check list, the worst-case reducer, the method cross-check."""

import math

from ringdecay import coeff_c, coeff_d, coeff_table, series_admitted, validation
from ringdecay.validation import CheckResult, _check, _check_methods, format_report, run_checks

# (name, requirement, tolerance), in report order
CHECKS = [
    ("oracle-equivalence", "max |Δ| < 1e-8", 1e-8),
    ("trace-sum-rule", "max |sum_k rate_k - N| < 1e-9", 1e-9),
    ("mode-nonnegativity", "rates above -1e-10", 1e-10),
    ("reflection-symmetry", "max |rate_k - rate_{N-k}| < 1e-12", 1e-12),
    ("c-sum-rule", "|c_0 + 2 sum c_n - 1| < 1e-9", 1e-9),
    ("d-sum-rule", "|d_0 + 2 sum d_n - 1/3| < 1e-9", 1e-9),
    ("dicke-superradiant", "|rate_0 - N| < 1e-4 at a = 1e-8", 1e-4),
    ("dicke-dark", "other modes < 1e-6 at a = 1e-8", 1e-6),
    ("scalar-plateau", "single-winding rates within 15% of (lambda/d)/2", 0.15),
    ("vector-plateau", "single-winding rates within 15% of (3/4)(lambda/d)", 0.15),
    ("dark-modes", "rates for 16 <= |k| <= N/2 below 1e-6 at (N=40, a=5)", 1e-6),
    ("continuous-limit", "aliased vs single-winding < 1e-9 at (N=20, a=3)", 1e-9),
    ("magic-angle", "vectorial at cos^2(delta)=1/3 equals scalar within 1e-12", 1e-12),
    ("method-cross-check", "series vs quadrature < 1e-9 where admitted", 1e-9),
    ("subradiant-slope-valid-regime",
     "edge-mode ln-rate slope within 5% of ln(e d/lambda) = -1.3026", 0.05),
    ("subradiant-slope", "edge-mode ln-rate slope within 5% of ln(e d/lambda) = -0.2040", 0.05),
]


def test_checks_in_order():
    results = run_checks()
    assert [(r.name, r.requirement, r.tolerance) for r in results] == CHECKS
    assert [r.name for r in results if not r.passed] == ["subradiant-slope"]


def test_slope_note_only_when_slope_check_fails():
    results = [CheckResult("oracle-equivalence", "max |Δ| < 1e-8", 1.0, 1e-8),
               CheckResult("subradiant-slope", "slope within 5%", 0.01, 0.05)]
    lines = format_report(results).splitlines()
    assert "1 of 2 checks failed:" in lines
    assert not [line for line in lines if line.startswith("note:")]
    slope_failed = format_report([CheckResult("subradiant-slope", "slope within 5%", 1.0, 0.05)])
    assert "\nnote: the subradiant-slope check" in slope_failed


def test_all_passed_report_has_no_failed_line():
    results = [CheckResult("oracle-equivalence", "max |Δ| < 1e-8", 0.0, 1e-8),
               CheckResult("c-sum-rule", "|c_0 + 2 sum c_n - 1| < 1e-9", 1e-12, 1e-9)]
    report = format_report(results)
    assert report.endswith("\nall 2 checks passed")
    assert "failed" not in report


class TestWorst:
    def test_all_zeros_give_no_label(self):
        assert _check("c", "r", 1.0, [(0.0, "(a)"), (0.0, "(b)")]) == CheckResult("c", "r", 0.0, 1.0)
        assert _check("c", "r", 1.0, []) == CheckResult("c", "r", 0.0, 1.0)

    def test_first_label_wins_a_tie(self):
        pairs = [(1.0, "(a)"), (2.0, "(b)"), (2.0, "(c)"), (0.5, "(d)")]
        assert _check("c", "r", 1.0, pairs) == CheckResult("c", "r", 2.0, 1.0, "(b)")


def test_method_check_reads_one_table_per_a(monkeypatch):
    tables = []

    def recording_table(a, n_max):
        table = coeff_table(a, n_max)
        tables.append(table)
        return table

    def series_only(coeff):
        def call(n, a, method="quadrature"):
            assert method == "series"
            return coeff(n, a, method)
        return call

    monkeypatch.setattr(validation, "coeff_table", recording_table)
    monkeypatch.setattr(validation, "coeff_c", series_only(coeff_c))
    monkeypatch.setattr(validation, "coeff_d", series_only(coeff_d))
    result = _check_methods()

    assert [t.a for t in tables] == [0.0, 0.1, 1.0, 5.0, 20.0, 50.0]
    pairs = []
    for table in tables:
        assert table.n_max >= max(64, math.ceil(table.a) + 20)
        for n in range(65):
            if series_admitted(n, table.a):
                dc = abs(coeff_c(n, table.a, "series") - float(table.c[n]))
                dd = abs(coeff_d(n, table.a, "series") - float(table.d[n]))
                pairs.append((max(dc, dd), f"(n={n}, a={table.a})"))
    assert result == _check(result.name, result.requirement, result.tolerance, pairs)
    assert result.passed
