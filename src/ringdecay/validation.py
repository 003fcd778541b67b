"""Self-validation grid: every library invariant with its tolerance.

Each check measures one quantity over a fixed parameter grid and
compares it against a fixed tolerance.  The CLI ``validate`` command
renders the results as a text report and exits nonzero if any check
fails.

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
# Nothing here calls coeff_c or coeff_d: benchmarks/spans.py looks them up
# on this module to trace them.
from .specfun import coeff_c, coeff_d, coeff_table, series_admitted  # noqa: F401
# Nothing here calls oracle_spectrum either; benchmarks/spans.py traces it here too.
from .spectrum import (_analytic_rates, _oracle_rates, analytic_spectrum, continuous_limit_rate,
                       oracle_spectrum, subradiant_edge)  # noqa: F401

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


def _check(name: str, requirement: str, tolerance: float, pairs) -> CheckResult:
    """Reduce (value, label) pairs to their largest value and its label.

    Starts from (0.0, ""), so a check that never exceeds 0 reports no
    label, and only a strictly larger value moves the label: on a tie the
    first pair in grid order wins.
    """
    measured, where = max([(0.0, ""), *pairs], key=lambda pair: pair[0])
    return CheckResult(name, requirement, measured, tolerance, where)


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
    reduction per N, and the (value, label) pairs come out in (N, a, model,
    route) grid order, as ``_check``'s tie rule reads them.  The trace is
    an exactly rounded ``math.fsum`` per spectrum.  The scalar analytic
    spectrum is the magic-angle reference.
    """
    model_labels = [model.label() for model in GRID_MODELS]
    diff, trace, neg, sym, magic = [], [], [], [], []
    analytic = _analytic_rates(GRID_N, GRID_A, (*GRID_MODELS, ModelKind.vectorial(MAGIC_DELTA)))
    for n, analytic_n in zip(GRID_N, analytic):
        mirror = -np.arange(n) % n  # k -> N-k, with 0 -> 0
        rates = np.stack((analytic_n[:, :-1], _oracle_rates(n, GRID_A, GRID_MODELS)),
                         axis=2)  # (a, model, route, mode)
        labels = [f"(N={n}, a={a}, {m})" for a in GRID_A for m in model_labels]
        twice = [label for label in labels for _ in range(2)]  # one per route
        diff += zip(np.max(np.abs(rates[:, :, 0] - rates[:, :, 1]), axis=2).ravel().tolist(),
                    labels)
        trace += zip([abs(math.fsum(row) - n) for row in rates.reshape(-1, n).tolist()], twice)
        neg += zip([max(0.0, -low) for low in np.min(rates, axis=3).ravel().tolist()], twice)
        sym += zip(np.max(np.abs(rates - rates[..., mirror]), axis=3).ravel().tolist(), twice)
        scalar = rates[:, 0, 0]  # GRID_MODELS[0] is the scalar model
        magic += zip(np.max(np.abs(analytic_n[:, -1] - scalar), axis=1).tolist(),
                     [f"(N={n}, a={a})" for a in GRID_A])
    return [
        _check("oracle-equivalence", "max |Δ| < 1e-8", 1e-8, diff),
        _check("trace-sum-rule", "max |sum_k rate_k - N| < 1e-9", 1e-9, trace),
        _check("mode-nonnegativity", "rates above -1e-10", 1e-10, neg),
        _check("reflection-symmetry", "max |rate_k - rate_{N-k}| < 1e-12", 1e-12, sym),
    ], _check("magic-angle", "vectorial at cos^2(delta)=1/3 equals scalar within 1e-12",
              1e-12, magic)


def _check_coefficient_sums() -> list[CheckResult]:
    tables = [coeff_table(a, math.ceil(a) + 40) for a in (0.0, 1.0, 5.0, 20.0, 50.0)]
    return [
        _check("c-sum-rule", "|c_0 + 2 sum c_n - 1| < 1e-9", 1e-9,
               ((abs(t.c_sum() - 1.0), f"(a={t.a})") for t in tables)),
        _check("d-sum-rule", "|d_0 + 2 sum d_n - 1/3| < 1e-9", 1e-9,
               ((abs(t.d_sum() - 1.0 / 3.0), f"(a={t.a})") for t in tables)),
    ]


def _check_dicke() -> list[CheckResult]:
    models = (ModelKind.scalar(), ModelKind.vectorial(0.0), ModelKind.vectorial(math.pi / 3))
    spectra = [(analytic_spectrum(RingConfig(10, 1e-8), m), f"({m.label()})") for m in models]
    return [
        _check("dicke-superradiant", "|rate_0 - N| < 1e-4 at a = 1e-8", 1e-4,
               ((abs(s.rate(0) - 10.0), label) for s, label in spectra)),
        _check("dicke-dark", "other modes < 1e-6 at a = 1e-8", 1e-6,
               ((float(np.max(s.rates[1:])), label) for s, label in spectra)),
    ]


def _check_plateaus() -> list[CheckResult]:
    n = 10
    lam_over_d = 0.05
    a = lattice_conversion(n, 1.0 / lam_over_d)
    vec = ModelKind.vectorial(0.0)
    ks = (0, 1, 2, 4)
    scalar, vector = lam_over_d / 2.0, 0.75 * lam_over_d
    where_s = f"(N={n}, lambda/d={lam_over_d})"
    where_v = f"(N={n}, lambda/d={lam_over_d}, delta=0)"
    rates_s = continuous_limit_rate(n, a, ks).tolist()
    rates_v = continuous_limit_rate(n, a, ks, model=vec).tolist()
    return [
        _check("scalar-plateau", "single-winding rates within 15% of (lambda/d)/2", 0.15,
               ((abs(rate - scalar) / scalar, where_s) for rate in rates_s)),
        _check("vector-plateau", "single-winding rates within 15% of (3/4)(lambda/d)", 0.15,
               ((abs(rate - vector) / vector, where_v) for rate in rates_v)),
    ]


def _check_dark_modes() -> CheckResult:
    spec = analytic_spectrum(RingConfig(40, 5.0), ModelKind.scalar())
    return _check("dark-modes", "rates for 16 <= |k| <= N/2 below 1e-6 at (N=40, a=5)", 1e-6,
                  ((spec.rate(k), "") for k in range(16, 25)))


def _check_continuous_limit() -> CheckResult:
    spec = analytic_spectrum(RingConfig(20, 3.0), ModelKind.scalar())
    ks = range(-10, 11)
    single = continuous_limit_rate(20, 3.0, ks).tolist()
    return _check("continuous-limit", "aliased vs single-winding < 1e-9 at (N=20, a=3)", 1e-9,
                  ((abs(spec.rate(k) - rate), "") for k, rate in zip(ks, single)))


def _check_methods() -> CheckResult:
    """Series against quadrature, one whole table of rows 0..64 per a.

    The series is admitted while a^2 < |n| + 40, so each listed a admits
    either every row 0..64 (a <= 5) or none (a = 20 and 50, which add no
    pair).  For an admitted a, ``coeff_table(a, 64, "series")`` is compared
    with the quadrature table elementwise: the same series and closed-form
    values as one ``coeff_c``/``coeff_d`` call per (n, a).
    """
    pairs = []
    for a in (0.0, 0.1, 1.0, 5.0, 20.0, 50.0):
        if not series_admitted(0, a):  # admission widens with |n|: row 0 decides
            continue
        series, table = coeff_table(a, 64, "series"), coeff_table(a, 64)
        worst = np.maximum(np.abs(series.c - table.c), np.abs(series.d - table.d))
        pairs += [(x, f"(n={n}, a={a})") for n, x in enumerate(worst.tolist())]
    return _check("method-cross-check", "series vs quadrature < 1e-9 where admitted", 1e-9,
                  pairs)


def _slope_check(d_over_lambda: float, name: str) -> CheckResult:
    ns = np.arange(16, 25, 2)
    lnr = np.array([math.log(subradiant_edge(int(n), d_over_lambda).exact) for n in ns])
    slope = float(np.polyfit(ns, lnr, 1)[0])
    target = 1.0 + math.log(d_over_lambda)
    return _check(name, f"edge-mode ln-rate slope within 5% of ln(e d/lambda) = {target:.4f}",
                  0.05, [(abs(slope / target - 1.0),
                          f"(d/lambda={d_over_lambda}, measured slope {slope:.4f})")])


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
