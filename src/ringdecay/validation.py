"""Self-validation grid: every library invariant with its tolerance.

Each check measures one quantity over a fixed parameter grid and
compares it against a fixed tolerance.  The CLI ``validate`` command
renders the results as a text report and exits nonzero if any check
fails.  A check reports its worst value and where it was measured; a NaN
counts as worse than any number, so it fails the check.

The checks share work in batches with the bits of the public calls: the
spectrum grid is folded and transformed one N at a time (``_check_grid``),
and each set of closed-form tables, those of the sum rules, of the
method cross-check and of each edge-mode slope, is one
``specfun._closed_form_tables`` pass.  The method cross-check sums the
series of every admitted coefficient in one ``specfun._series_batch``
pass, and the two plateau checks mix both models' rates from one read
of their one table.  Every check is one ``_check`` call on the array of
its measure in grid order: one ``np.argmax`` picks the worst point, and
only that point's label is formatted.

One check is expected to fail by construction: the subradiant-slope
check compares the measured suppression rate of the edge mode at
spacing d/lambda = 0.3 against the closed-form exponent ln(e d/lambda).
That exponent is only the d/lambda -> 0 limit of the true rate; at 0.3
the exact spectrum is suppressed markedly faster (measured slope around
-0.319 versus -0.204).  The companion check at d/lambda = 0.1 shows the
same machinery passing where the closed form is applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring_model import ModelKind, RingConfig, lattice_conversion
# Nothing here calls coeff_c, coeff_d or coeff_table: benchmarks/spans.py looks
# them up on this module to trace them.
from .specfun import (CoefficientTable, _closed_form_tables, _series_batch, coeff_c,  # noqa: F401
                      coeff_d, coeff_table, series_admitted)
# Nor oracle_spectrum or subradiant_edge, which benchmarks/spans.py traces here too.
from .spectrum import (_analytic_rates, _harmonic_rates, _oracle_rates,  # noqa: F401
                       _single_winding_terms, analytic_spectrum, continuous_limit_rate,
                       oracle_spectrum, subradiant_edge)

__all__ = ["CheckResult", "run_checks", "format_report", "all_passed"]

GRID_N = (2, 3, 4, 6, 10, 16, 25, 40)
GRID_A = (0.0, 0.3, 1.0, 3.7, 10.0, 50.0)
MAGIC_DELTA = math.acos(1.0 / math.sqrt(3.0))
GRID_MODELS = (
    ModelKind.scalar(),
    ModelKind.vectorial(0.0),
    ModelKind.vectorial(math.pi / 4),
    ModelKind.vectorial(math.pi / 2),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    requirement: str
    measured: float
    tolerance: float
    worst_case: str = ""

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        where = f" at {self.worst_case}" if self.worst_case else ""
        return (
            f"{status}  {self.name}: {self.requirement} "
            f"(measured {self.measured:.3e}, tolerance {self.tolerance:.1e}{where})"
        )


def _check(name: str, requirement: str, tolerance: float, values, label) -> CheckResult:
    """Reduce a measure to its worst value, labelled ``label(i)`` at its flat index i.

    ``values`` is read flat in grid order, and the first ``np.argmax``
    picks the worst point: on a tie the first wins, and a NaN is worse
    than any number, so the first NaN is reported and fails the check.  A
    worst value that is not above 0 reports 0.0 with no label.  Only the
    worst point's label is formatted.  An empty measure raises ValueError.
    """
    values = np.ravel(values)
    i = int(np.argmax(values))
    measured = float(values[i])
    if measured <= 0.0:
        return CheckResult(name, requirement, 0.0, tolerance)
    return CheckResult(name, requirement, measured, tolerance, label(i))


def _check_grid() -> tuple[list[CheckResult], CheckResult]:
    """The four spectrum checks and the magic-angle check, in one grid pass.

    The spectra are built in batches that give the bits of the public
    ``analytic_spectrum`` and ``oracle_spectrum``: ``_analytic_rates``
    forms each (a, model) row's alias weights once and folds every row of
    one N in one pass, with the magic-angle model as a fifth row, and
    ``_oracle_rates`` transforms every kernel row of one N at once.  The
    grid's N and a are constants inside ``RingConfig``'s range, and the
    batches take them unchecked.  For each N the rates of every (a, model,
    route) are stacked into one array, so each measure is one axis
    reduction per N, and each measure of the whole grid is one flat array
    in (N, a, model, route) order.  One ``np.argmax`` per measure picks
    its worst point, and only that point's label is formatted.  The trace
    is an exactly rounded ``math.fsum`` per spectrum, and mode
    nonnegativity measures -min(rates), which ``_check`` floors at 0.0.
    The scalar analytic spectrum is the magic-angle reference.
    """
    diff, trace, neg, sym, magic = [], [], [], [], []
    analytic = _analytic_rates(GRID_N, GRID_A, (*GRID_MODELS, ModelKind.vectorial(MAGIC_DELTA)))
    for n, analytic_n in zip(GRID_N, analytic):
        mirror = -np.arange(n) % n  # k -> N-k, with 0 -> 0
        rates = np.stack((analytic_n[:, :-1], _oracle_rates(n, GRID_A, GRID_MODELS)),
                         axis=2)  # (a, model, route, mode)
        diff.append(np.max(np.abs(rates[:, :, 0] - rates[:, :, 1]), axis=2))
        trace += [abs(math.fsum(row) - n) for row in rates.reshape(-1, n).tolist()]
        neg.append(-np.min(rates, axis=3))
        sym.append(np.max(np.abs(rates - rates[..., mirror]), axis=3))
        scalar = rates[:, 0, 0]  # GRID_MODELS[0] is the scalar model
        magic.append(np.max(np.abs(analytic_n[:, -1] - scalar), axis=1))

    def spectrum_label(i: int) -> str:  # i indexes the (N, a, model) grid
        n, a, m = np.unravel_index(i, (len(GRID_N), len(GRID_A), len(GRID_MODELS)))
        return f"(N={GRID_N[n]}, a={GRID_A[a]}, {GRID_MODELS[m].label()})"

    def route_label(i: int) -> str:  # i indexes the (N, a, model, route) grid
        return spectrum_label(i // 2)

    def magic_label(i: int) -> str:  # i indexes the (N, a) grid
        n, a = divmod(i, len(GRID_A))
        return f"(N={GRID_N[n]}, a={GRID_A[a]})"

    return [
        _check("oracle-equivalence", "max |Δ| < 1e-8", 1e-8, diff, spectrum_label),
        _check("trace-sum-rule", "max |sum_k rate_k - N| < 1e-9", 1e-9, trace, route_label),
        _check("mode-nonnegativity", "rates above -1e-10", 1e-10, neg, route_label),
        _check("reflection-symmetry", "max |rate_k - rate_{N-k}| < 1e-12", 1e-12, sym,
               route_label),
    ], _check("magic-angle", "vectorial at cos^2(delta)=1/3 equals scalar within 1e-12",
              1e-12, magic, magic_label)


def _check_coefficient_sums() -> list[CheckResult]:
    """The sum rules of five closed-form tables, built in one ``_closed_form_tables`` pass."""
    pairs = [(a, math.ceil(a) + 40) for a in (0.0, 1.0, 5.0, 20.0, 50.0)]
    tables = [CoefficientTable(a, n_max, c, d)
              for (a, n_max), (c, d) in zip(pairs, _closed_form_tables(pairs))]

    def label(i: int) -> str:  # i indexes the tables
        return f"(a={tables[i].a})"

    return [
        _check("c-sum-rule", "|c_0 + 2 sum c_n - 1| < 1e-9", 1e-9,
               [abs(t.c_sum() - 1.0) for t in tables], label),
        _check("d-sum-rule", "|d_0 + 2 sum d_n - 1/3| < 1e-9", 1e-9,
               [abs(t.d_sum() - 1.0 / 3.0) for t in tables], label),
    ]


def _check_dicke() -> list[CheckResult]:
    models = (ModelKind.scalar(), ModelKind.vectorial(0.0), ModelKind.vectorial(math.pi / 3))
    rates = np.array([analytic_spectrum(RingConfig(10, 1e-8), m).rates for m in models])

    def label(i: int) -> str:  # i indexes the models
        return f"({models[i].label()})"

    return [
        _check("dicke-superradiant", "|rate_0 - N| < 1e-4 at a = 1e-8", 1e-4,
               np.abs(rates[:, 0] - 10.0), label),
        _check("dicke-dark", "other modes < 1e-6 at a = 1e-8", 1e-6,
               np.max(rates[:, 1:], axis=1), label),
    ]


def _check_plateaus() -> list[CheckResult]:
    """Single-winding rates of both models, mixed from one (c, d) read of their one table.

    The rates are those of ``continuous_limit_rate(n, a, ks)`` per model.
    """
    n = 10
    lam_over_d = 0.05
    a = lattice_conversion(n, 1.0 / lam_over_d)
    ks = (0, 1, 2, 4)
    scalar, vector = lam_over_d / 2.0, 0.75 * lam_over_d
    c, d = _single_winding_terms(n, [a], ks)
    rates_s, rates_v = ((n * _harmonic_rates(c, d, model))[0]
                        for model in (ModelKind.scalar(), ModelKind.vectorial(0.0)))
    return [
        _check("scalar-plateau", "single-winding rates within 15% of (lambda/d)/2", 0.15,
               np.abs(rates_s - scalar) / scalar, lambda i: f"(N={n}, lambda/d={lam_over_d})"),
        _check("vector-plateau", "single-winding rates within 15% of (3/4)(lambda/d)", 0.15,
               np.abs(rates_v - vector) / vector,
               lambda i: f"(N={n}, lambda/d={lam_over_d}, delta=0)"),
    ]


def _check_dark_modes() -> CheckResult:
    rates = analytic_spectrum(RingConfig(40, 5.0), ModelKind.scalar()).rates
    return _check("dark-modes", "rates for 16 <= |k| <= N/2 below 1e-6 at (N=40, a=5)", 1e-6,
                  rates[16:25], lambda i: "")


def _check_continuous_limit() -> CheckResult:
    """Modes k = -10..10 of the N = 20 spectrum, a negative k read as k + N."""
    rates = analytic_spectrum(RingConfig(20, 3.0), ModelKind.scalar()).rates
    ks = np.arange(-10, 11)
    return _check("continuous-limit", "aliased vs single-winding < 1e-9 at (N=20, a=3)", 1e-9,
                  np.abs(rates[ks] - continuous_limit_rate(20, 3.0, ks)), lambda i: "")


def _check_methods() -> CheckResult:
    """Series against quadrature, one whole table of rows 0..64 per a.

    The series is admitted while a^2 < |n| + 40, so each listed a admits
    either every row 0..64 (a <= 5) or none (a = 20 and 50, which add no
    pair).  For an admitted a, ``coeff_table(a, 64, "series")`` is compared
    with the quadrature table elementwise: the same series and closed-form
    values as one ``coeff_c``/``coeff_d`` call per (n, a).  The quadrature
    tables of every admitted a come from one ``_closed_form_tables`` pass,
    and the series of every (a, moment, n) from one ``_series_batch``
    pass.  One ``np.argmax`` over the (a, n) grid picks the worst pair.
    """
    # admission widens with |n|: row 0 decides
    admitted = [a for a in (0.0, 0.1, 1.0, 5.0, 20.0, 50.0) if series_admitted(0, a)]
    quadrature = np.array(_closed_form_tables([(a, 64) for a in admitted]))  # (a, c | d, n)
    # orders 0..64 of c, then of d, per a
    series = _series_batch(np.tile(np.arange(65), 2 * len(admitted)), np.repeat(admitted, 2 * 65),
                           np.tile(np.repeat([0, 2], 65), len(admitted)))
    worst = np.max(np.abs(series.reshape(quadrature.shape) - quadrature), axis=1)

    def label(i: int) -> str:  # i indexes the (a, n) grid
        a, n = divmod(i, 65)
        return f"(n={n}, a={admitted[a]})"

    return _check("method-cross-check", "series vs quadrature < 1e-9 where admitted", 1e-9,
                  worst, label)


def _edge_ln_rates(d_over_lambda: float, ns) -> list:
    """ln(N c_{N/2}(N d/lambda)) per N in ``ns``: the log of ``subradiant_edge(N, d).exact``.

    The tables of every N come from one ``_closed_form_tables`` pass.
    """
    pairs = [(n * d_over_lambda, n // 2) for n in ns]
    return [math.log(n * float(c[n // 2])) for n, (c, _) in zip(ns, _closed_form_tables(pairs))]


def _slope_check(d_over_lambda: float, name: str) -> CheckResult:
    """The fitted slope of the edge mode's ln-rate over N = 16..24, against ln(e d/lambda).

    The ln-rates are those of ``subradiant_edge(N, d/lambda).exact``, from
    ``_edge_ln_rates``'s one table pass; the ``exact_ring`` tables that
    ``subradiant_edge`` also builds are not read, so none is built.
    """
    ns = range(16, 25, 2)
    slope = float(np.polyfit(ns, _edge_ln_rates(d_over_lambda, ns), 1)[0])
    target = 1.0 + math.log(d_over_lambda)
    return _check(name, f"edge-mode ln-rate slope within 5% of ln(e d/lambda) = {target:.4f}",
                  0.05, abs(slope / target - 1.0),
                  lambda i: f"(d/lambda={d_over_lambda}, measured slope {slope:.4f})")


def run_checks() -> list[CheckResult]:
    """Run the full invariant grid; deterministic order and content."""
    spectrum_checks, magic_angle = _check_grid()
    return [
        *spectrum_checks,
        *_check_coefficient_sums(),
        *_check_dicke(),
        *_check_plateaus(),
        _check_dark_modes(),
        _check_continuous_limit(),
        magic_angle,
        _check_methods(),
        _slope_check(0.1, "subradiant-slope-valid-regime"),
        _slope_check(0.3, "subradiant-slope"),
    ]


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)


def format_report(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = [r for r in results if not r.passed]
    lines.append("")
    if failed:
        lines.append(f"{len(failed)} of {len(results)} checks failed:")
        for r in failed:
            lines.append(f"  {r.name} {r.worst_case}: measured {r.measured:.6e} "
                         f"> tolerance {r.tolerance:.1e}")
        if any(r.name == "subradiant-slope" for r in failed):
            lines += [
                "note: the subradiant-slope check at d/lambda = 0.3 compares against the",
                "closed-form exponent ln(e d/lambda), which only holds as d/lambda -> 0;",
                "the exact edge mode is suppressed faster there.  The valid-regime check",
                "at d/lambda = 0.1 passes with the same machinery.",
            ]
    else:
        lines.append(f"all {len(results)} checks passed")
    return "\n".join(lines)
