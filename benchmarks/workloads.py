"""Seeded workload generators and the output checks for each CLI command.

A workload is a batch of ops; an op is one ``ringdecay`` command line.
The batch depends only on the seed.  Draws are stratified: the range of
each parameter is cut into as many strata as there are ops, and every op
draws from its own stratum, within the middle quarter of it.  The seed
moves every input inside its stratum, so no two seeds, and no two ops,
share an input, while the batch's total cost and the spread of its op
costs stay the same from seed to seed.  The largest value of a range is
always drawn once, so peak memory is the same for every seed.

Each checker takes the op and what the CLI returned (exit code, stdout,
stderr) and returns a list of problems; an empty list means correct.
The tolerances are the library's own (``ringdecay.validation``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ringdecay import TOL_SUM, coeff_c, coeff_d, lattice_conversion, series_admitted

SPECTRUM_OPS = 24
SPECTRUM_N = (512, 4096)
SPECTRUM_A = (0.5, 50.0)
A_SCRAMBLE = 29  # coprime to SPECTRUM_OPS
ORDER_SCRAMBLE = 19  # coprime to SPECTRUM_OPS
COEFF_OPS = 8
COEFF_A = (50.0, 400.0)
SWEEP_N = (8, 10, 12)
SWEEP_K = (0, 1, 2, 4)
SWEEP_GRID_POINTS = 50
SWEEP_SAMPLE_ROWS = 64

# Share of each stratum the draws may use, centred on its midpoint.
JITTER = 0.25

# Library tolerances, as ``ringdecay.validation`` applies them.
TOL_ORACLE = 1e-8       # oracle-equivalence, per mode
TOL_TRACE = 1e-9        # trace-sum-rule
TOL_SYMMETRY = 1e-12    # reflection-symmetry
TOL_NEGATIVE = 1e-10    # mode-nonnegativity
TOL_METHODS = 1e-9      # method-cross-check, per coefficient

EXPECTED_FAILURE = ("subradiant-slope", "5.634e-01")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)


def _strata(rng: random.Random, k: int, pin_top: bool) -> list[float]:
    """k points in [0, 1], one per stratum, ascending; the last is 1 if pinned."""
    u = [(i + 0.5 + JITTER * (rng.random() - 0.5)) / k for i in range(k)]
    if pin_top:
        u[-1] = 1.0
    return u


def _log_range(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _delta(rng: random.Random) -> float:
    return rng.uniform(0.0, math.pi / 2)


def spectrum_large_n(seed: int) -> list[Op]:
    """``spectrum`` with N log-uniform in [512, 4096] and a fresh a per op.

    Model and path cycle through their four combinations along the N
    strata, so each combination spans the whole N range and the largest
    N (4096) runs with ``--path both``: the N x N matrix that sets peak
    memory is built for every seed.
    """
    rng = random.Random(seed)
    k = SPECTRUM_OPS
    ns = [round(_log_range(*SPECTRUM_N, u)) for u in _strata(rng, k, pin_top=True)]
    a_values = [_log_range(*SPECTRUM_A, u) for u in _strata(rng, k, pin_top=False)]
    # A fixed scramble pairs N strata with a strata, so the mix of table
    # sizes and ring sizes, and with it the op-latency median, is the
    # same for every seed.
    a_values = [a_values[(i * A_SCRAMBLE) % k] for i in range(k)]
    combos = [("scalar", "analytic"), ("vector", "analytic"),
              ("scalar", "both"), ("vector", "both")]

    ops = []
    for i, (n, a) in enumerate(zip(ns, a_values)):
        model, path = combos[(i - k) % 4]  # counted from the top: N = 4096 runs both
        argv = ["spectrum", "--n-atoms", str(n), "--a", repr(a), "--path", path,
                "--model", model]
        delta = None
        if model == "vector":
            delta = _delta(rng)
            argv += ["--delta", repr(delta)]
        ops.append(Op(tuple(argv), {"n": n, "a": a, "model": model, "delta": delta,
                                     "path": path}))
    # A fixed order, too: the heap that earlier ops leave behind adds to
    # the peak memory of the largest op.
    return [ops[(i * ORDER_SCRAMBLE) % k] for i in range(k)]


def coeff_tables(seed: int) -> list[Op]:
    """``coeffs --with-d --n-max ceil(a)+40`` with a fresh a in [50, 400] per op."""
    rng = random.Random(seed)
    ops = []
    for u in _strata(rng, COEFF_OPS, pin_top=True):
        a = _log_range(*COEFF_A, u)
        n_max = math.ceil(a) + 40
        ops.append(Op(("coeffs", "--a", repr(a), "--n-max", str(n_max), "--with-d"),
                      {"a": a, "n_max": n_max}))
    rng.shuffle(ops)
    return ops


def sweep(seed: int) -> list[Op]:
    """``sweep`` over the default range and modes for N in {8, 10, 12}, both models.

    The grid has 50 points rather than the default 200, so an op takes
    about half a second and a run repeats each op several times.  Scalar
    and vector ops alternate; the seed sets the N order of each model and
    the vector tilt angles.
    """
    rng = random.Random(seed)
    scalar_ns, vector_ns = list(SWEEP_N), list(SWEEP_N)
    rng.shuffle(scalar_ns)
    rng.shuffle(vector_ns)
    grid = ("--grid-points", str(SWEEP_GRID_POINTS))
    ops = []
    for n_scalar, n_vector in zip(scalar_ns, vector_ns):
        delta = _delta(rng)
        ops.append(Op(("sweep", "--n-atoms", str(n_scalar), "--model", "scalar") + grid,
                      {"n": n_scalar, "model": "scalar", "delta": None,
                       "sample_seed": rng.getrandbits(32)}))
        ops.append(Op(("sweep", "--n-atoms", str(n_vector), "--model", "vector",
                       "--delta", repr(delta)) + grid,
                      {"n": n_vector, "model": "vector", "delta": delta,
                       "sample_seed": rng.getrandbits(32)}))
    return ops


def validate(seed: int) -> list[Op]:
    """``validate`` takes no inputs; the seed changes nothing."""
    return [Op(("validate",), {})]


GENERATORS = {
    "spectrum-large-n": spectrum_large_n,
    "coeff-tables": coeff_tables,
    "sweep": sweep,
    "validate": validate,
}


# ---------------------------------------------------------------------------
# checks


def _parse_csv(text: str, header: str) -> tuple[list[list[str]], list[str]]:
    problems = []
    if not text.endswith("\n"):
        problems.append("output does not end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        problems.append(f"header is {lines[:1]!r}, expected {header!r}")
        return [], problems
    return [line.split(",") for line in lines[1:]], problems


def _floats(column: list[str]) -> np.ndarray:
    return np.array([float(x) for x in column])


def check_spectrum(op: Op, code, out: str, err: str) -> list[str]:
    n, path = op.params["n"], op.params["path"]
    header = "k,rate,rate_oracle,abs_diff" if path == "both" else "k,rate"
    rows, problems = _parse_csv(out, header)
    if code != 0:
        problems.append(f"exit code {code}")
    if problems:
        return problems
    if [int(r[0]) for r in rows] != list(range(-(n // 2), (n + 1) // 2)):
        return [f"expected modes {-(n // 2)}..{(n + 1) // 2 - 1}, got {len(rows)} rows"]
    if any(len(r) != header.count(",") + 1 for r in rows):
        return ["ragged rows"]

    columns = {"rate": _floats([r[1] for r in rows])}
    if path == "both":
        columns["rate_oracle"] = _floats([r[2] for r in rows])
    half = n // 2
    for name, rates in columns.items():
        if not np.all(np.isfinite(rates)):
            problems.append(f"{name}: non-finite rate")
            continue
        trace = math.fsum(rates)
        if abs(trace - n) > TOL_TRACE:
            problems.append(f"{name}: trace {trace!r} differs from N = {n}")
        if float(np.min(rates)) < -TOL_NEGATIVE:
            problems.append(f"{name}: rate below -{TOL_NEGATIVE}")
        # rows run k = -(N//2) .. ceil(N/2)-1, so row half + k holds mode k
        pairs = np.arange(1, (n + 1) // 2)
        sym = float(np.max(np.abs(rates[half + pairs] - rates[half - pairs]), initial=0.0))
        if sym > TOL_SYMMETRY:
            problems.append(f"{name}: reflection asymmetry {sym:.3e}")
    if path == "both" and not problems:
        ana, orc = columns["rate"], columns["rate_oracle"]
        diff = np.abs(ana - orc)
        if float(np.max(diff)) > TOL_ORACLE:
            problems.append(f"analytic vs oracle {float(np.max(diff)):.3e}")
        if not np.array_equal(_floats([r[3] for r in rows]), diff):
            problems.append("abs_diff column is not |rate - rate_oracle|")
        expected = f"max_abs_diff = {format(float(np.max(diff)), '.17g')}"
        if expected not in err.splitlines():
            problems.append(f"stderr lacks {expected!r}")
    return problems


def check_coeffs(op: Op, code, out: str, err: str) -> list[str]:
    n_max = op.params["n_max"]
    rows, problems = _parse_csv(out, "n,c,d")
    if code != 0:
        problems.append(f"exit code {code}")
    if err:
        problems.append(f"unexpected stderr {err.strip()!r}")
    if problems:
        return problems
    if [int(r[0]) for r in rows] != list(range(-n_max, n_max + 1)):
        return [f"expected n = {-n_max}..{n_max}, got {len(rows)} rows"]
    if any(len(r) != 3 for r in rows):
        return ["ragged rows"]
    if any(rows[n_max + j][1:] != rows[n_max - j][1:] for j in range(1, n_max + 1)):
        problems.append("coefficients not even in n")
    c = _floats([r[1] for r in rows[n_max:]])
    d = _floats([r[2] for r in rows[n_max:]])
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(d))):
        return problems + ["non-finite coefficient"]
    c_res = float(c[0] + 2.0 * math.fsum(c[1:])) - 1.0
    d_res = float(d[0] + 2.0 * math.fsum(d[1:])) - 1.0 / 3.0
    if abs(c_res) > TOL_SUM:
        problems.append(f"c sum rule residual {c_res:.3e}")
    if abs(d_res) > TOL_SUM:
        problems.append(f"d sum rule residual {d_res:.3e}")
    return problems


def check_sweep(op: Op, code, out: str, err: str) -> list[str]:
    n, model, delta = op.params["n"], op.params["model"], op.params["delta"]
    rows, problems = _parse_csv(out, "lambda_over_d,k,rate")
    if code != 0:
        problems.append(f"exit code {code}")
    if problems:
        return problems
    if len(rows) != SWEEP_GRID_POINTS * len(SWEEP_K) or any(len(r) != 3 for r in rows):
        return [f"expected {SWEEP_GRID_POINTS * len(SWEEP_K)} rows of 3, got {len(rows)}"]
    if [int(r[1]) for r in rows] != list(SWEEP_K) * SWEEP_GRID_POINTS:
        return ["mode column out of order"]
    grid = _floats([r[0] for r in rows[::len(SWEEP_K)]])
    if not (np.all(np.diff(grid) > 0) and math.isclose(grid[0], 0.05, rel_tol=1e-12)
            and math.isclose(grid[-1], 100.0, rel_tol=1e-12)):
        problems.append("lambda/d grid is not increasing over [0.05, 100]")
    rates = _floats([r[2] for r in rows])
    if not np.all(np.isfinite(rates)):
        return problems + ["non-finite rate"]
    if float(np.min(rates)) < -TOL_NEGATIVE or float(np.max(rates)) > n:
        problems.append(f"rate outside [-{TOL_NEGATIVE}, {n}]")

    # Second route: the power series, on a seeded sample of admitted rows.
    if model == "vector":
        cos2 = math.cos(delta) ** 2
        w_c, w_d = 0.75 * n * (1.0 + cos2), 0.75 * n * (1.0 - 3.0 * cos2)
    else:
        w_c, w_d = float(n), 0.0
    tol = TOL_METHODS * (abs(w_c) + abs(w_d))
    for i, k, a in sweep_sample(op, rows):
        expected = w_c * coeff_c(k, a, "series")
        if w_d:
            expected += w_d * coeff_d(k, a, "series")
        if abs(rates[i] - expected) > tol:
            problems.append(f"row {i + 1}: rate {rates[i]!r} vs series {expected!r}")
    return problems


def sweep_sample(op: Op, rows: list[list[str]]) -> list[tuple[int, int, float]]:
    """(row index, k, a) of the rows checked against the series route."""
    admitted = []
    for i, r in enumerate(rows):
        k = int(r[1])
        a = lattice_conversion(op.params["n"], 1.0 / float(r[0]))
        if series_admitted(k, a):
            admitted.append((i, k, a))
    rng = random.Random(op.params["sample_seed"])
    return rng.sample(admitted, min(SWEEP_SAMPLE_ROWS, len(admitted)))


def check_validate(op: Op, code, out: str, err: str) -> list[str]:
    problems = []
    if code != 1:
        problems.append(f"exit code {code}, expected 1 (one documented failure)")
    lines = out.split("\n")
    failed = [line for line in lines if line.startswith("FAIL")]
    passed = [line for line in lines if line.startswith("PASS")]
    name, measured = EXPECTED_FAILURE
    if len(failed) != 1 or not failed[0].startswith(f"FAIL  {name}:") \
            or f"(measured {measured}," not in failed[0]:
        problems.append(f"failing checks are {failed!r}, expected only {name}")
    if not passed:
        problems.append("no passing check in the report")
    if f"1 of {len(failed) + len(passed)} checks failed:" not in lines:
        problems.append("summary line missing")
    return problems


CHECKERS = {
    "spectrum": check_spectrum,
    "coeffs": check_coeffs,
    "sweep": check_sweep,
    "validate": check_validate,
}


def check(op: Op, code, out: str, err: str) -> list[str]:
    return CHECKERS[op.argv[0]](op, code, out, err)
