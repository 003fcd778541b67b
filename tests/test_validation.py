"""Validation grid: the check list, the worst-case reducer, the per-check references."""

import math
from fractions import Fraction

import numpy as np

import pytest

from ringdecay import (ModelKind, RingConfig, alias_cutoff, analytic_spectrum, coeff_c, coeff_d,
                       coeff_table, continuous_limit_rate, lattice_conversion, oracle_spectrum,
                       series_admitted, specfun, spectrum, subradiant_edge, validation)
from ringdecay.validation import (CheckResult, _check, _check_coefficient_sums, _check_grid,
                                  _check_methods, _slope_check, format_report, run_checks)

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


def pairs_check(name, requirement, tolerance, pairs):
    """The reducer over (value, label) pairs that ``_check`` replaces: its reference.

    Starts from (0.0, ""), so a check that never exceeds 0 reports no
    label; only a strictly worse value moves the label, so the first pair
    wins a tie; a NaN is worse than any number, so the first NaN wins.
    """
    measured, where = max([(0.0, ""), *pairs], key=lambda pair: (math.isnan(pair[0]), pair[0]))
    return CheckResult(name, requirement, measured, tolerance, where)


def labels_of(values):
    return [f"({i})" for i in range(len(values))]


class TestWorst:
    def test_all_zeros_give_no_label(self):
        for values in ([0.0, 0.0], [-0.0], [-1.0, -0.0, -2.0], [-math.inf]):
            got = _check("c", "r", 1.0, values, labels_of(values).__getitem__)
            assert got == CheckResult("c", "r", 0.0, 1.0)
            assert repr(got.measured) == "0.0"  # a -0.0 worst value reports +0.0

    def test_first_label_wins_a_tie(self):
        values = [1.0, 2.0, 2.0, 0.5]
        got = _check("c", "r", 1.0, values, "(a) (b) (c) (d)".split().__getitem__)
        assert got == CheckResult("c", "r", 2.0, 1.0, "(b)")

    def test_nan_is_the_worst_value(self):
        alone = _check("x", "r", 1e-9, [math.nan], lambda i: "here")
        assert (repr(alone.measured), alone.worst_case, alone.passed) == ("nan", "here", False)
        values = [1.0, math.nan, 5.0, math.nan]
        first = _check("x", "r", 1e-9, values, "(a) (b) (c) (d)".split().__getitem__)
        assert (repr(first.measured), first.worst_case, first.passed) == ("nan", "(b)", False)
        assert "FAIL  x: r (measured nan, tolerance 1.0e-09 at (b))" == first.line()

    def test_values_are_read_flat_in_grid_order(self):
        values = np.array([[0.5, 3.0], [3.0, 1.0]])
        assert _check("c", "r", 1.0, values, str) == CheckResult("c", "r", 3.0, 1.0, "1")
        assert _check("c", "r", 1.0, 0.25, str) == CheckResult("c", "r", 0.25, 1.0, "0")

    def test_empty_measure_raises(self):
        # no check passes an empty measure; the pairs reducer reported 0.0 for one
        with pytest.raises(ValueError):
            _check("c", "r", 1.0, [], str)
        with pytest.raises(ValueError):
            _check("c", "r", 1.0, np.zeros((3, 0)), str)

    @pytest.mark.parametrize("values", [
        [0.0, 0.0], [-1.0, -0.0, -2.0], [1.0, 2.0, 2.0, 0.5], [3.0, 1e-300],
        [1.0, math.nan, 3.0, math.nan], [math.nan], [0.0, -math.inf, math.inf, math.nan],
        [-0.0], [-math.inf, math.inf], [-math.inf],
    ])
    def test_agrees_with_the_pairs_reducer(self, values):
        labels = labels_of(values)
        calls = []
        got = _check("c", "r", 1.0, np.array(values), lambda i: calls.append(i) or labels[i])
        want = pairs_check("c", "r", 1.0, list(zip(values, labels)))
        assert (repr(got.measured), got.worst_case) == (repr(want.measured), want.worst_case)
        assert got.passed == want.passed
        assert len(calls) == (1 if want.worst_case else 0)


def test_each_check_formats_at_most_one_label(monkeypatch):
    counts = []
    check = validation._check

    def counting(name, requirement, tolerance, values, label):
        counts.append([name, 0])

        def counted(i):
            counts[-1][1] += 1
            return label(i)
        return check(name, requirement, tolerance, values, counted)

    monkeypatch.setattr(validation, "_check", counting)
    results = run_checks()
    assert sorted(name for name, _ in counts) == sorted(r.name for r in results)  # one each
    assert all(calls <= 1 for _, calls in counts), counts


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
    return [pairs_check(name, req, tol, pairs)
            for (name, req, tol), pairs in zip(CHECKS[:4], (diff, trace, neg, sym))], \
        pairs_check(*CHECKS[12], magic)


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
    assert result == pairs_check(*CHECKS[13], pairs)
    assert result.passed


def test_nan_oracle_rate_fails_the_oracle_checks_at_its_point(monkeypatch):
    # NaNs at two grid points: every check that reads oracle rates reports the
    # first in (N, a, model, route) order and fails, and the magic-angle check,
    # which reads none, is unchanged
    oracle_rates = validation._oracle_rates

    def with_nans(n, a_values, models):
        rates = oracle_rates(n, a_values, models)
        if n == 10:
            rates[3, 2, 1] = math.nan  # a = 3.7, the third grid model, mode 1
        elif n == 25:
            rates[0, 0, 0] = math.nan
        return rates

    monkeypatch.setattr(validation, "_oracle_rates", with_nans)
    checks, magic = _check_grid()
    where = f"(N=10, a=3.7, {validation.GRID_MODELS[2].label()})"
    assert checks[0].name == "oracle-equivalence"
    for check in checks:
        assert (repr(check.measured), check.worst_case, check.passed) == ("nan", where, False)
    assert magic == per_spectrum_grid()[1]


@pytest.mark.parametrize("d_over_lambda", [0.1, 0.3])
def test_slope_ln_rates_equal_subradiant_edge_bit_for_bit(monkeypatch, d_over_lambda):
    # the check fits the logs of one spectrum._edge_terms call, which are the
    # logs of subradiant_edge(N, d/lambda).exact
    ns = range(16, 25, 2)
    lnr = [math.log(subradiant_edge(n, d_over_lambda).exact) for n in ns]
    terms = []
    edge_terms = spectrum._edge_terms
    monkeypatch.setattr(validation, "_edge_terms",
                        lambda *args: terms.append(edge_terms(*args)) or terms[-1])
    result = _slope_check(d_over_lambda, "s")
    assert len(terms) == 1 and [math.log(x) for x in terms[0]] == lnr
    # the exact least-squares slope, rounded once
    x, y = [Fraction(n) for n in ns], [Fraction(v) for v in lnr]
    x_bar, y_bar = sum(x) / len(x), sum(y) / len(y)
    slope = float(sum((p - x_bar) * (q - y_bar) for p, q in zip(x, y))
                  / sum((p - x_bar) ** 2 for p in x))
    target = 1.0 + math.log(d_over_lambda)
    assert result == CheckResult(
        "s", f"edge-mode ln-rate slope within 5% of ln(e d/lambda) = {target:.4f}",
        abs(slope / target - 1.0), 0.05, f"(d/lambda={d_over_lambda}, measured slope {slope:.4f})")


def test_run_checks_runs_no_least_squares_solver(monkeypatch):
    # the edge-mode slopes are closed-form fits, so no LAPACK routine runs
    expected = run_checks()

    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares solver was called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    assert run_checks() == expected


def test_coefficient_sums_equal_one_table_per_a():
    expected = []
    for name, req, tol in CHECKS[4:6]:
        pairs = []
        for a in (0.0, 1.0, 5.0, 20.0, 50.0):
            table = coeff_table(a, math.ceil(a) + 40)
            pairs.append((abs(table.c_sum() - 1.0) if name == "c-sum-rule"
                          else abs(table.d_sum() - 1.0 / 3.0), f"(a={a})"))
        expected.append(pairs_check(name, req, tol, pairs))
    assert _check_coefficient_sums() == expected


def test_each_table_set_is_one_lane_pass(monkeypatch):
    passes = []
    lanes = specfun._closed_form_lanes
    monkeypatch.setattr(specfun, "_closed_form_lanes",
                        lambda block, sweeps: passes.append(list(block)) or lanes(block, sweeps))
    _check_coefficient_sums()
    _slope_check(0.3, "s")
    _check_methods()
    validation._check_dicke()
    assert passes == [
        [(a, math.ceil(a) + 40) for a in (0.0, 1.0, 5.0, 20.0, 50.0)],
        [(n * 0.3, n // 2) for n in range(16, 25, 2)],
        [(a, 64) for a in (0.0, 0.1, 1.0, 5.0)],
        [(1e-8, alias_cutoff(1e-8))],
    ]


def test_method_check_is_one_series_pass(monkeypatch):
    # every admitted a, both moments, orders 0..64, in one call
    calls = []
    batch = specfun._series_batch
    monkeypatch.setattr(specfun, "_series_batch",
                        lambda *args: calls.append([list(x) for x in args]) or batch(*args))
    _check_methods()
    assert calls == [[[*range(65)] * 8,
                      [a for a in (0.0, 0.1, 1.0, 5.0) for _ in range(130)],
                      ([0] * 65 + [2] * 65) * 4]]


def plateau_args():
    """The plateau check's (N, a, ks, scalar model, vector model)."""
    return (10, lattice_conversion(10, 1.0 / 0.05), [0, 1, 2, 4], ModelKind.scalar(),
            ModelKind.vectorial(0.0))


def test_plateau_rates_equal_continuous_limit_calls_bit_for_bit(monkeypatch):
    # the check's rates of both models come from one spectrum._single_winding_rates call
    n, a, ks, scalar, vector = plateau_args()
    calls = []
    rates = spectrum._single_winding_rates
    monkeypatch.setattr(validation, "_single_winding_rates",
                        lambda *args: calls.append(rates(*args)) or calls[-1])
    validation._check_plateaus()
    assert len(calls) == 1 and calls[0].shape == (1, 2, len(ks))
    for j, model in enumerate((scalar, vector)):
        assert np.array_equal(calls[0][0, j], continuous_limit_rate(n, a, ks, model=model))


def test_plateau_checks_equal_the_two_model_calls():
    n, a, ks, scalar, vector = plateau_args()
    expected = []
    for model, target, (name, req, tol), where in (
            (scalar, 0.05 / 2.0, CHECKS[8], "(N=10, lambda/d=0.05)"),
            (vector, 0.75 * 0.05, CHECKS[9], "(N=10, lambda/d=0.05, delta=0)")):
        rates = continuous_limit_rate(n, a, ks, model=model).tolist()
        expected.append(pairs_check(name, req, tol, [(abs(r - target) / target, where)
                                                     for r in rates]))
    assert validation._check_plateaus() == expected


def test_plateaus_run_one_miller_sweep(monkeypatch):
    sweeps = []
    sweep = specfun._miller_sweep
    monkeypatch.setattr(specfun, "_miller_sweep",
                        lambda x, top: sweeps.append((x, top)) or sweep(x, top))
    validation._check_plateaus()
    assert len(sweeps) == 1


def test_mode_checks_equal_one_public_call_per_mode():
    # dicke-superradiant, dicke-dark, dark-modes and continuous-limit, each
    # from one rate(k) per mode and one continuous_limit_rate per k, exactly
    scalar = ModelKind.scalar()
    models = (scalar, ModelKind.vectorial(0.0), ModelKind.vectorial(math.pi / 3))
    dicke = [(analytic_spectrum(RingConfig(10, 1e-8), m), f"({m.label()})") for m in models]
    assert validation._check_dicke() == [
        pairs_check(*CHECKS[6], [(abs(s.rate(0) - 10.0), where) for s, where in dicke]),
        pairs_check(*CHECKS[7], [(max(s.rate(k) for k in range(1, 10)), where)
                                 for s, where in dicke]),
    ]
    dark = analytic_spectrum(RingConfig(40, 5.0), scalar)
    assert validation._check_dark_modes() == pairs_check(
        *CHECKS[10], [(dark.rate(k), "") for k in range(16, 25)])
    spec = analytic_spectrum(RingConfig(20, 3.0), scalar)
    assert validation._check_continuous_limit() == pairs_check(
        *CHECKS[11], [(abs(spec.rate(k) - continuous_limit_rate(20, 3.0, k)), "")
                      for k in range(-10, 11)])
