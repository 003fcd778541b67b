"""Command-line front end emitting deterministic CSV and a check report.

Subcommands
-----------
coeffs    ring coefficient tables c_n(a) (and d_n(a))
spectrum  decay spectrum of a finite ring, analytic and/or brute force
sweep     single-winding mode rates over a lambda/d grid (figure data)
validate  run the invariant grid and report pass/fail per check

CSV has one header line, then one line per row: integer cells in ``%d``
and float cells in ``%.17g`` (the bytes of ``str`` and of
``format(x, ".17g")``), joined by commas, each line ending in LF.  Rows
are formatted and written in blocks of ``_BLOCK_ROWS``, so the writer's
own memory does not grow with the row count.  Identical command lines
produce byte-identical files; ``validate`` writes a text report.  Exit codes:
0 success, 1 validation failure, 2 usage error or an output that cannot be
written, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from itertools import chain

import numpy as np

from .ring_model import ModelKind, RingConfig, lattice_conversion
from .spectrum import analytic_spectrum, continuous_limit_rate, oracle_spectrum
from .specfun import coeff_table
from .validation import all_passed, format_report, run_checks

USAGE_ERROR = 2
VALIDATION_ERROR = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, the code of a shell pipeline's killed writer


# Largest sweep grid: each point builds one coefficient table, so the
# ceiling bounds the run time (see the README for measured times).
_MAX_GRID_POINTS = 10**4

# Rows per ``%`` call: bounds the writer's Python objects, whatever the row count.
_BLOCK_ROWS = 4096


def _write(path: str, chunks) -> None:
    """Write each text chunk as it comes, to stdout or to the file at ``path``."""
    if path == "stdout":
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a closed pipe or a full disk raises here, not at exit
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _csv_chunks(header: str, columns):
    """The header line, then the rows ``_BLOCK_ROWS`` at a time.

    One ``%`` per block formats every cell in C: ``%d`` for integer
    columns and ``%.17g`` for float columns, the bytes of ``str`` and
    ``format(x, ".17g")``.
    """
    row = ",".join("%.17g" if col.dtype.kind == "f" else "%d" for col in columns) + "\n"
    yield header + "\n"
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[start:start + _BLOCK_ROWS].tolist() for col in columns]
        yield (row * len(block[0])) % tuple(chain.from_iterable(zip(*block)))


def _write_csv(path: str, header: str, *columns: np.ndarray) -> None:
    """One row per index of the equal-length ``columns``, under ``header``."""
    _write(path, _csv_chunks(header, columns))


def _model_from_args(args) -> ModelKind:
    if args.model == "vector":
        return ModelKind.vectorial(0.0 if args.delta is None else args.delta)
    if args.delta is not None:
        raise ValueError("scalar model takes no tilt angle")
    return ModelKind.scalar()


def _a_from_lambda_over_d(n_atoms, lambda_over_d) -> float:
    """Size parameter at spacing d/lambda = 1/lambda_over_d."""
    lam = float(lambda_over_d)  # a numpy scalar would warn where 1/lam overflows
    if not (0.0 < lam < math.inf and math.isfinite(1.0 / lam)):
        raise ValueError(f"lambda_over_d and its inverse must be finite and > 0, got {lam!r}")
    return lattice_conversion(n_atoms, 1.0 / lam)


def _add_output(parser) -> None:
    parser.add_argument("--output", default="stdout", metavar="PATH|stdout",
                        help="write the output here (default: stdout)")


def _add_model(parser) -> None:
    parser.add_argument("--model", choices=("scalar", "vector"), default="scalar",
                        help="light model (default: scalar)")
    parser.add_argument("--delta", type=float, metavar="RAD",
                        help="dipole tilt angle, only with --model vector (default: 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringdecay",
        description="Cooperative decay spectrum of emitters equally spaced on a ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit c_n(a) (and d_n(a)) as CSV")
    p.add_argument("--a", type=float, required=True, help="size parameter a >= 0")
    p.add_argument("--n-max", type=int, required=True, help="largest |n| to emit")
    p.add_argument("--with-d", action="store_true", help="include the d_n column")
    p.add_argument("--method", choices=("quadrature", "series"), default="quadrature")
    _add_output(p)
    p.set_defaults(run=cmd_coeffs)

    p = sub.add_parser("spectrum", help="emit the decay spectrum as CSV")
    p.add_argument("--n-atoms", type=int, required=True)
    geom = p.add_mutually_exclusive_group(required=True)
    geom.add_argument("--a", type=float, help="size parameter a >= 0")
    geom.add_argument("--d-over-lambda", type=float,
                      help="nearest-neighbour spacing in wavelengths")
    geom.add_argument("--lambda-over-d", type=float,
                      help="inverse spacing (figure abscissa)")
    _add_model(p)
    p.add_argument("--path", choices=("analytic", "oracle", "both"), default="analytic",
                   help="which computation to emit (default: analytic)")
    _add_output(p)
    p.set_defaults(run=cmd_spectrum)

    p = sub.add_parser(
        "sweep",
        help="single-winding mode rates over a log-spaced lambda/d grid",
        description="Emits the single-winding (continuum-limit) rate per mode, "
                    "the quantity whose small-spacing plateau is (lambda/d)/2 for "
                    "the scalar model and (3/4)(lambda/d) for aligned dipoles.",
    )
    p.add_argument("--n-atoms", type=int, default=10)
    p.add_argument("--k", default="0,1,2,4", metavar="LIST",
                   help="comma list of signed mode indices (default: 0,1,2,4); "
                        "write a list that starts negative as --k=-2,2")
    p.add_argument("--grid-min", type=float, default=0.05, help="smallest lambda/d")
    p.add_argument("--grid-max", type=float, default=100.0, help="largest lambda/d")
    p.add_argument("--grid-points", type=int, default=200)
    _add_model(p)
    _add_output(p)
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("validate", help="run the invariant grid; exit 0 iff all pass")
    _add_output(p)
    p.set_defaults(run=cmd_validate)

    return parser


def cmd_coeffs(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = coeff_table(args.a, args.n_max, method=args.method)
    for w in caught:
        print(f"note: {w.message}", file=sys.stderr)
    ns = np.arange(-args.n_max, args.n_max + 1)
    columns = (table.c, table.d) if args.with_d else (table.c,)
    _write_csv(args.output, "n,c,d" if args.with_d else "n,c", ns,
               *(col[np.abs(ns)] for col in columns))
    return 0


def cmd_spectrum(args) -> int:
    if args.a is not None:
        a = args.a
    elif args.d_over_lambda is not None:
        a = lattice_conversion(args.n_atoms, args.d_over_lambda)
    else:
        a = _a_from_lambda_over_d(args.n_atoms, args.lambda_over_d)
    config = RingConfig(args.n_atoms, a)
    model = _model_from_args(args)

    # Built per call, so a wrapper patched onto this module sees every route call.
    routes = {"analytic": (analytic_spectrum,), "oracle": (oracle_spectrum,),
              "both": (analytic_spectrum, oracle_spectrum)}[args.path]
    spectra = [route(config, model) for route in routes]
    ks = spectra[0].signed_indices()
    columns = [np.roll(spec.rates, config.n_atoms // 2) for spec in spectra]
    if len(columns) == 1:
        _write_csv(args.output, "k,rate", ks, *columns)
        return 0
    diff = np.abs(columns[0] - columns[1])
    _write_csv(args.output, "k,rate,rate_oracle,abs_diff", ks, *columns, diff)
    print(f"max_abs_diff = {diff.max():.17g}", file=sys.stderr)
    return 0


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"invalid mode list {text!r}") from exc
    if not ks:
        raise ValueError("mode list is empty")
    ks.sort()
    for prev, k in zip(ks, ks[1:]):
        if prev == k:
            raise ValueError(f"mode index {k} is repeated in {text!r}")
    return ks


def cmd_sweep(args) -> int:
    if not (0.0 < args.grid_min < args.grid_max < math.inf):
        raise ValueError("grid must satisfy 0 < grid-min < grid-max")
    if args.grid_points < 2:
        raise ValueError("grid-points must be at least 2")
    if args.grid_points > _MAX_GRID_POINTS:
        raise ValueError(f"grid-points = {args.grid_points} exceeds supported limit "
                         f"{_MAX_GRID_POINTS}")
    ks = _parse_k_list(args.k)
    model = _model_from_args(args)
    grid = np.logspace(math.log10(args.grid_min), math.log10(args.grid_max),
                       args.grid_points)
    rates = []
    for lam_over_d in grid:
        a = _a_from_lambda_over_d(args.n_atoms, lam_over_d)
        rates += [continuous_limit_rate(args.n_atoms, a, k, model=model) for k in ks]
    _write_csv(args.output, "lambda_over_d,k,rate",
               np.repeat(grid, len(ks)), np.tile(ks, len(grid)), np.array(rates))
    return 0


def cmd_validate(args) -> int:
    results = run_checks()
    _write(args.output, [format_report(results), "\n"])
    return 0 if all_passed(results) else VALIDATION_ERROR


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        # Only the output is opened or written, so any OSError is an output failure.
        if args.output == "stdout":
            # Python signal docs recipe: the final flush of the rest goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return BROKEN_PIPE
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
