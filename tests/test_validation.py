"""Validation grid: the check list, the worst-case reducer, the method cross-check."""

import math

import numpy as np

from ringdecay import (ModelKind, RingConfig, analytic_spectrum, coeff_c, coeff_d, coeff_table,
                       oracle_spectrum, series_admitted, validation)
from ringdecay.validation import (CheckResult, _check, _check_grid, _check_methods,
                                  format_report, run_checks)

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


def per_spectrum_grid():
    """The grid checks as one loop per spectrum, each measure reduced on its own."""
    magic_model = ModelKind.vectorial(validation.MAGIC_DELTA)
    diff, trace, neg, sym, magic = [], [], [], [], []
    for n in validation.GRID_N:
        mirror = -np.arange(n) % n
        for a in validation.GRID_A:
            config = RingConfig(n, a)
            for model in validation.GRID_MODELS:
                ana = analytic_spectrum(config, model)
                orc = oracle_spectrum(config, model)
                label = f"(N={n}, a={a}, {model.label()})"
                diff.append((float(np.max(np.abs(ana.rates - orc.rates))), label))
                for spec in (ana, orc):
                    trace.append((abs(math.fsum(float(r) for r in spec.rates) - n), label))
                    neg.append((max(0.0, -float(np.min(spec.rates))), label))
                    sym.append((float(np.max(np.abs(spec.rates - spec.rates[mirror]))), label))
                if not model.is_vectorial:
                    scalar = ana.rates
            tilted = analytic_spectrum(config, magic_model).rates
            magic.append((float(np.max(np.abs(tilted - scalar))), f"(N={n}, a={a})"))
    return [_check(name, req, tol, pairs)
            for (name, req, tol), pairs in zip(CHECKS[:4], (diff, trace, neg, sym))], \
        _check(*CHECKS[12], magic)


def test_stacked_grid_equals_the_per_spectrum_loop():
    checks, magic = _check_grid()
    expect_checks, expect_magic = per_spectrum_grid()
    assert checks == expect_checks  # measured values and worst-case labels, exactly
    assert magic == expect_magic
    assert all(r.worst_case for r in [*checks, magic])


def test_method_check_equals_per_coefficient_reference():
    # each admitted (n, a): the single-coefficient series against a quadrature table at a
    pairs = []
    for a in (0.0, 0.1, 1.0, 5.0, 20.0, 50.0):
        table = coeff_table(a, max(64, math.ceil(a) + 20))
        for n in range(65):
            if series_admitted(n, a):
                dc = abs(coeff_c(n, a, "series") - table.c_at(n))
                dd = abs(coeff_d(n, a, "series") - table.d_at(n))
                pairs.append((max(dc, dd), f"(n={n}, a={a})"))
    assert len(pairs) == 4 * 65  # a <= 5 admits every order 0..64, a = 20 and 50 none
    result = _check_methods()
    assert result == _check(*CHECKS[13], pairs)
    assert result.passed
