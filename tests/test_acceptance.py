"""Acceptance suite: the ten exit criteria at their stated tolerances.

Each test prints one pass/fail line (run with ``pytest -v -s`` to see
them all); the assert carries the same numbers.

Criterion 6 fails by construction and is left failing on purpose: it
pins the edge-mode suppression slope at spacing d/lambda = 0.3 to the
closed-form exponent ln(e d/lambda) = -0.2040, but that exponent is the
d/lambda -> 0 limit; the exact edge rate at 0.3 is suppressed at slope
~ -0.319 (mpmath-confirmed).  The same check at d/lambda = 0.1 passes
(see test_spectrum), which isolates the defect to the reference value,
not the implementation.
"""

import math
import time

import numpy as np
import pytest

import ringdecay
from ringdecay import (
    ModelKind,
    RingConfig,
    analytic_spectrum,
    coeff_c,
    coeff_d,
    coeff_table,
    continuous_limit_rate,
    lattice_conversion,
    oracle_spectrum,
    series_admitted,
    subradiant_edge,
)

GRID_N = (2, 3, 4, 6, 10, 16, 25, 40)
GRID_A = (0.0, 0.3, 1.0, 3.7, 10.0, 50.0)
GRID_MODELS = (
    ModelKind.scalar(),
    ModelKind.vectorial(0.0),
    ModelKind.vectorial(math.pi / 4),
    ModelKind.vectorial(math.pi / 2),
)
MAGIC_DELTA = math.acos(1.0 / math.sqrt(3.0))


def report(num, name, measured, tolerance, extra=""):
    ok = measured <= tolerance
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"measured={measured:.3e} tolerance={tolerance:.1e}{extra}")
    return ok


@pytest.fixture(scope="module")
def grid_spectra():
    out = {}
    for n in GRID_N:
        for a in GRID_A:
            config = RingConfig(n, a)
            for model in GRID_MODELS:
                out[(n, a, model.label())] = (
                    analytic_spectrum(config, model),
                    oracle_spectrum(config, model),
                )
    return out


def test_criterion_1_oracle_equivalence():
    # timed from cold caches: the whole grid must finish under 10 s
    ringdecay.spectrum._cached_table.cache_clear()
    start = time.monotonic()
    worst = 0.0
    for n in GRID_N:
        for a in GRID_A:
            config = RingConfig(n, a)
            for model in GRID_MODELS:
                ana = analytic_spectrum(config, model)
                orc = oracle_spectrum(config, model)
                worst = max(worst, float(np.max(np.abs(ana.rates - orc.rates))))
    elapsed = time.monotonic() - start
    ok = report(1, "oracle equivalence", worst, 1e-8, f" runtime={elapsed:.2f}s")
    assert ok, f"max per-mode |analytic - oracle| = {worst:.3e} > 1e-8"
    assert elapsed < 10.0, f"grid took {elapsed:.2f}s, budget 10 s"


def test_criterion_2_sum_rules(grid_spectra):
    worst_trace = 0.0
    worst_neg = 0.0
    for ana, orc in grid_spectra.values():
        for spec in (ana, orc):
            worst_trace = max(worst_trace, abs(spec.trace() - spec.n_atoms))
            worst_neg = max(worst_neg, -float(spec.rates.min()))
    worst_coeff = 0.0
    for a in (0.0, 1.0, 5.0, 20.0, 50.0):
        table = coeff_table(a, math.ceil(a) + 40)
        worst_coeff = max(worst_coeff, abs(table.c_sum() - 1.0),
                          abs(table.d_sum() - 1.0 / 3.0))
    ok = report(2, "sum rules", max(worst_trace, worst_coeff), 1e-9,
                f" min-rate-deficit={worst_neg:.1e}")
    assert ok, (worst_trace, worst_coeff)
    assert worst_neg <= 1e-10


def test_criterion_3_dicke_limit():
    worst_top = 0.0
    worst_rest = 0.0
    for model in (ModelKind.scalar(), ModelKind.vectorial(0.0),
                  ModelKind.vectorial(math.pi / 2)):
        spec = analytic_spectrum(RingConfig(10, 1e-8), model)
        worst_top = max(worst_top, abs(spec.rate(0) - 10.0))
        worst_rest = max(worst_rest, float(np.max(spec.rates[1:])))
    ok = report(3, "Dicke limit", worst_top, 1e-4, f" dark-residue={worst_rest:.1e}")
    assert ok and worst_rest < 1e-6, (worst_top, worst_rest)


def test_criterion_4_scalar_plateau():
    # 10 emitters 20 wavelengths apart: the plateau value (lambda/d)/2
    # describes the rate per winding; the full aliased spectrum there is
    # ~1 per mode (criteria 1-2 enforce that), so this criterion pins
    # the single-winding rate
    a = lattice_conversion(10, 20.0)
    target = 0.05 / 2.0
    worst = max(
        abs(continuous_limit_rate(10, a, k) - target) / target for k in (0, 1, 2, 4)
    )
    ok = report(4, "scalar plateau", worst, 0.15)
    assert ok, worst


def test_criterion_5_vector_plateau():
    a = lattice_conversion(10, 20.0)
    target = 0.75 * 0.05
    model = ModelKind.vectorial(0.0)
    worst = max(
        abs(continuous_limit_rate(10, a, k, model=model) - target) / target
        for k in (0, 1, 2, 4)
    )
    ok = report(5, "vector plateau", worst, 0.15)
    assert ok, worst


def test_criterion_6_exponential_suppression():
    # KNOWN FAILURE: ln(e d/lambda) only bounds the slope as d/lambda -> 0.
    # Measured slope at d/lambda = 0.3 is ~ -0.319 (mpmath-confirmed);
    # the identical check at d/lambda = 0.1 passes in test_spectrum.
    ns = np.arange(16, 25, 2)
    lnr = np.array([math.log(subradiant_edge(int(n), 0.3).exact) for n in ns])
    slope = float(np.polyfit(ns, lnr, 1)[0])
    target = 1.0 + math.log(0.3)
    rel = abs(slope / target - 1.0)
    ok = report(6, "exponential suppression", rel, 0.05,
                f" slope={slope:.4f} target={target:.4f}")
    assert ok, (
        f"edge-mode slope {slope:.4f} vs closed-form {target:.4f} "
        f"(rel err {rel:.2f}); the closed form holds only for d/lambda -> 0"
    )


def test_criterion_7_dark_modes():
    spec = analytic_spectrum(RingConfig(40, 5.0), ModelKind.scalar())
    worst = max(spec.rate(k) for k in range(16, 25))
    ok = report(7, "dark modes", worst, 1e-6)
    assert ok, worst


def test_criterion_8_continuous_limit():
    spec = analytic_spectrum(RingConfig(20, 3.0), ModelKind.scalar())
    worst = max(
        abs(spec.rate(k) - continuous_limit_rate(20, 3.0, k)) for k in range(-10, 11)
    )
    ok = report(8, "continuous limit", worst, 1e-9)
    assert ok, worst


def test_criterion_9_magic_angle(grid_spectra):
    worst = 0.0
    magic = ModelKind.vectorial(MAGIC_DELTA)
    for n in GRID_N:
        for a in GRID_A:
            config = RingConfig(n, a)
            vec = analytic_spectrum(config, magic)
            sca = grid_spectra[(n, a, "scalar")][0]
            worst = max(worst, float(np.max(np.abs(vec.rates - sca.rates))))
    ok = report(9, "magic angle", worst, 1e-12)
    assert ok, worst


def test_criterion_10_method_cross_check():
    worst = 0.0
    for a in (0.0, 0.1, 1.0, 5.0, 20.0, 50.0):
        for n in range(0, 65):
            if not series_admitted(n, a):
                continue
            worst = max(worst, abs(coeff_c(n, a, "series") - coeff_c(n, a)))
            worst = max(worst, abs(coeff_d(n, a, "series") - coeff_d(n, a)))
    ok = report(10, "method cross-check", worst, 1e-9)
    assert ok, worst
