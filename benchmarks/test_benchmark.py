"""Tests of the benchmark itself: generators, checkers and span accounting.

    PYTHONPATH=src python -m pytest benchmarks
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import GENERATORS, Op, check, sweep_sample  # noqa: E402

import ringdecay.cli as cli  # noqa: E402

MODULES = {name: sys.modules[name] for name in
           ("ringdecay.cli", "ringdecay.spectrum", "ringdecay.validation")}


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    gen = GENERATORS[workload]
    assert gen(7) == gen(7)
    assert [op.params for op in gen(7)] == [op.params for op in gen(7)]
    if workload != "validate":
        assert gen(7) != gen(8)


def test_generators_stay_in_their_ranges():
    ops = GENERATORS["spectrum-large-n"](3)
    ns = [op.params["n"] for op in ops]
    assert min(ns) >= 512 and max(ns) == 4096
    assert all(0.5 <= op.params["a"] <= 50.0 for op in ops)
    largest = max(ops, key=lambda op: op.params["n"])
    assert largest.params["path"] == "both"
    combos = {(op.params["model"], op.params["path"]) for op in ops}
    assert len(combos) == 4
    a_values = [op.params["a"] for op in GENERATORS["coeff-tables"](3)]
    assert min(a_values) >= 50.0 and max(a_values) == 400.0
    assert len(set(a_values)) == len(a_values)


def _run(argv, **params):
    op = Op(tuple(argv), params)
    _, code, out, err = run.run_op(cli, op)
    return op, code, out, err


def _corrupt_rate(out: str, row: int, column: int) -> str:
    lines = out.split("\n")
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + 1e-6)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _drop_row(out: str, row: int) -> str:
    lines = out.split("\n")
    del lines[row]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def spectrum_both():
    return _run(["spectrum", "--n-atoms", "12", "--a", "3.5", "--path", "both",
                 "--model", "vector", "--delta", "0.4"],
                n=12, path="both", model="vector", delta=0.4)


@pytest.fixture(scope="module")
def coeffs():
    return _run(["coeffs", "--a", "6.0", "--n-max", "46", "--with-d"], a=6.0, n_max=46)


@pytest.fixture(scope="module")
def sweep_small():
    return _run(["sweep", "--n-atoms", "8", "--model", "scalar", "--grid-points", "50"],
                n=8, model="scalar", delta=None, sample_seed=5)


def test_checker_accepts_true_outputs(spectrum_both, coeffs, sweep_small):
    for op, code, out, err in (spectrum_both, coeffs, sweep_small):
        assert check(op, code, out, err) == []


@pytest.mark.parametrize("column", [1, 2])
def test_spectrum_checker_flags_a_rate_off_by_1e_6(spectrum_both, column):
    op, code, out, err = spectrum_both
    assert check(op, code, _corrupt_rate(out, 4, column), err)


def test_spectrum_checker_flags_a_missing_row(spectrum_both):
    op, code, out, err = spectrum_both
    assert check(op, code, _drop_row(out, 5), err)


def test_coeffs_checker_flags_corruption(coeffs):
    op, code, out, err = coeffs
    mid = op.params["n_max"] + 1  # row of n = 0
    assert check(op, code, _corrupt_rate(out, mid, 1), err)
    assert check(op, code, _corrupt_rate(out, mid, 2), err)
    assert check(op, code, _drop_row(out, 3), err)


def test_sweep_checker_flags_corruption(sweep_small):
    op, code, out, err = sweep_small
    rows = [line.split(",") for line in out.split("\n")[1:-1]]
    sampled = sweep_sample(op, rows)[0][0]
    assert check(op, code, _corrupt_rate(out, sampled + 1, 2), err)
    assert check(op, code, _drop_row(out, 7), err)


def test_validate_checker_accepts_only_the_documented_failure():
    op, code, out, err = _run(["validate"])
    assert check(op, code, out, err) == []
    assert check(op, 0, out, err)
    assert check(op, code, out.replace("PASS  c-sum-rule", "FAIL  c-sum-rule"), err)
    assert check(op, code, out.replace("measured 5.634e-01", "measured 5.700e-01"), err)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n-atoms", "64", "--a", "7.0", "--path", "both"],
    ["sweep", "--n-atoms", "8", "--grid-points", "20"],
    ["coeffs", "--a", "20.0", "--n-max", "60", "--with-d"],
])
def test_span_self_times_are_nonnegative_and_within_op_time(argv):
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        elapsed, code, _, _ = run.run_op(cli, Op(tuple(argv)), tracer)
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.spans and tracer.spans[0].name == "cli"
    assert all(s.self_time >= 0.0 for s in tracer.spans)
    assert sum(s.self_time for s in tracer.spans) <= elapsed
    assert cli.main.__module__ == "ringdecay.cli" and not hasattr(cli.main, "__wrapped__")


def test_host_speed_scales_a_time_by_the_loop_samples_around_it():
    speed = run.HostSpeed()
    speed.mids = [float(t) for t in range(20)]
    speed.times = [run.LOOP_REF_S] * 10 + [2.0 * run.LOOP_REF_S] * 10
    assert speed.scaled(2.0, 1.0) == 1.0  # the host ran at the reference speed
    assert speed.scaled(15.0, 1.0) == 0.5  # the host ran at half of it
