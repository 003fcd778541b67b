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
own memory does not grow with the row count, except for ``coeffs``:
c_n and d_n are even in n, so it formats rows n >= 0 once, holds their
text, and writes row -n as ``-`` + row n.  Where its table stops below
``alias_cutoff(a)`` and a sum rule misses by more than ``TOL_SUM``,
``coeffs`` prints one ``note:`` line to stderr before the CSV and still
exits 0.  ``spectrum --path analytic`` and ``--path both`` format only
the analytic rates that are not +0.0 and write the rest as ``0``, the
``%.17g`` text of +0.0: most rates are exact zeros, every mode whose
aliases all lie past ``alias_cutoff(a)``.  ``--path analytic`` writes
each block run by run: one ``%`` per run of +0.0 rows, with one argument
per row, and one per run of formatted rows.  ``--path both`` also formats
each block's ``rate_oracle`` cells once: where the analytic rate is 0,
abs_diff is |rate_oracle| bit for bit, so its cell is the oracle cell's
text without a leading ``-``, and only the other rows format abs_diff.
Both hold one block of cells at a time.  Identical command lines produce
byte-identical files on one host; across CPUs ``validate``'s
oracle-derived values can differ in the last bits.  ``validate`` writes a
text report.  The parser is built once, at import, and every ``main``
call reuses it.  Exit codes: 0 success, 1 validation failure, 2 usage
error or an output that cannot be written, 141 stdout closed by its
reader.
"""

import argparse
import math
import os
import sys
from itertools import chain

import numpy as np

from .ring_model import ModelKind, RingConfig, lattice_conversion
from .spectrum import analytic_spectrum, continuous_limit_rate, oracle_spectrum
from .specfun import TOL_SUM, _alias_cutoff, coeff_table
from .validation import all_passed, format_report, run_checks

USAGE_ERROR = 2
VALIDATION_ERROR = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, the code of a shell pipeline's killed writer


# Largest sweep grid.  The ceiling bounds the number of grid points, not
# the run time.  Each point runs one Miller sweep for a table of N//2 + 1
# rows (alias_cutoff(a) + 1 once N//2 reaches the cutoff), which every mode
# at that point reads.  Each |k| past min(N//2, alias_cutoff(a)) adds one
# more sweep, of depth |k|, per point, and no limit caps those yet.  The
# memory is bounded by the lane blocks: each sweep runs as its lane is
# packed, and a block's padded array and the sweeps it holds stay within
# 512 KiB unless one lane alone is wider, so neither sweeps nor tables are
# held for the whole grid (see the README for measured times and peak RSS).
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


def _g17_cells(values) -> list[str]:
    """The ``%.17g`` text of each value, formatted by one ``%`` in C."""
    return ("%.17g\n" * len(values) % tuple(values.tolist())).split()


def _analytic_block(ks: list, shown, cells: list[str]) -> str:
    """One block of ``--path analytic`` rows, ``k,rate``, written run by run.

    ``shown`` holds the ascending rows whose rate is formatted and ``cells``
    their text; the rate of every other row is +0.0, written ``0``.  The
    rows split at the edges of ``shown`` into maximal runs: each run of
    +0.0 rows is one ``"%d,0\\n"`` ``%`` with one argument per row, and each
    run of shown rows one ``"%d,%s\\n"`` ``%``.
    """
    # Where each maximal run of consecutive shown rows starts, as an index
    # into ``shown``; the two sentinels make 0 and len(shown) cuts too.
    cuts = np.flatnonzero(np.diff(shown, prepend=-2, append=len(ks) + 1) != 1).tolist()
    rows = shown.tolist()
    pieces = []
    row = 0
    for first, stop in zip(cuts, cuts[1:]):
        lo, hi = rows[first], rows[stop - 1] + 1
        if lo > row:
            pieces.append(("%d,0\n" * (lo - row)) % tuple(ks[row:lo]))
        pieces.append(("%d,%s\n" * (hi - lo))
                      % tuple(chain.from_iterable(zip(ks[lo:hi], cells[first:stop]))))
        row = hi
    if row < len(ks):
        pieces.append(("%d,0\n" * (len(ks) - row)) % tuple(ks[row:]))
    return "".join(pieces)


def _spectrum_chunks(ks, rate, oracle=None, diff=None):
    """The ``--path analytic`` CSV, or with ``oracle`` and ``diff`` the ``--path both``
    CSV: its header, then the rows ``_BLOCK_ROWS`` at a time.

    Most analytic rates are exactly +0.0, every mode whose aliases all lie
    past ``alias_cutoff(a)``, and the ``%.17g`` text of +0.0 is ``0``.  So
    each block formats only the rate cells that are not +0.0 (-0.0, whose
    text is ``-0``, included) and writes ``0`` for the rest; ``--path
    analytic`` writes them one ``%`` per run (``_analytic_block``).

    Where the analytic rate is +-0.0, abs_diff = |rate - rate_oracle| is
    |rate_oracle| bit for bit, so its ``%.17g`` text is the oracle cell's
    text without its sign.  Each block formats its oracle cells once and
    formats abs_diff only on the rows whose rate cell it formats.
    """
    yield "k,rate\n" if oracle is None else "k,rate,rate_oracle,abs_diff\n"
    for start in range(0, len(ks), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rates = rate[block]
        shown = np.flatnonzero((rates != 0.0) | np.signbit(rates))
        cells = _g17_cells(rates[shown])
        if oracle is None:
            yield _analytic_block(ks[block].tolist(), shown, cells)
            continue
        rate_cells = ["0"] * len(rates)
        for i, cell in zip(shown.tolist(), cells):
            rate_cells[i] = cell
        oracle_cells = _g17_cells(oracle[block])
        diff_cells = [cell.lstrip("-") for cell in oracle_cells]
        for i, cell in zip(shown.tolist(), _g17_cells(diff[block][shown])):
            diff_cells[i] = cell
        rows = zip(map(str, ks[block].tolist()), rate_cells, oracle_cells, diff_cells)
        yield "\n".join(map(",".join, rows)) + "\n"


def _model_from_args(args) -> ModelKind:
    if args.model == "vector":
        return ModelKind.vectorial(0.0 if args.delta is None else args.delta)
    if args.delta is not None:
        raise ValueError("scalar model takes no tilt angle")
    return ModelKind.scalar()


def _log_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """``points`` log-spaced values from ``lo`` to ``hi``, both ends exact.

    Each inner point is ``math.pow(10.0, y)``, the C library's ``pow``, at
    an evenly spaced y from ``np.linspace``'s multiplies and adds, so no
    value goes through numpy's ``log10`` or ``power``, whose kernels
    differ in the last bit from one CPU to another.  An inner point that
    rounds past an end is clipped to it, so every point lies in [lo, hi].
    """
    y = np.linspace(math.log10(lo), math.log10(hi), points).tolist()
    grid = np.clip([math.pow(10.0, x) for x in y], lo, hi)
    grid[0], grid[-1] = lo, hi
    return grid


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
    table = coeff_table(args.a, args.n_max, method=args.method)
    cutoff = _alias_cutoff(table.a)
    if table.n_max < cutoff:
        miss_c, miss_d = table.c_sum() - 1.0, table.d_sum() - 1.0 / 3.0
        if max(abs(miss_c), abs(miss_d)) > TOL_SUM:
            print(f"note: n_max = {table.n_max} is below alias_cutoff(a) = {cutoff}; sum "
                  f"rules will not close at this truncation (c-sum off by {miss_c:.3e}, "
                  f"d-sum by {miss_d:.3e}; TOL_SUM = {TOL_SUM:.0e})", file=sys.stderr)
    columns = (table.c, table.d) if args.with_d else (table.c,)
    # c and d are even in n: format rows 0..n_max once; row -n is "-" + row n.
    header, *blocks = _csv_chunks("n,c,d" if args.with_d else "n,c",
                                  (np.arange(args.n_max + 1), *columns))
    _write(args.output, chain([header], _negated_rows(blocks), blocks))
    return 0


def _negated_rows(blocks):
    """Rows -n_max..-1 from the text of rows 0..n_max, held in ``blocks``."""
    for i in reversed(range(len(blocks))):
        rows = blocks[i].splitlines(keepends=True)[::-1]
        if i == 0:
            rows.pop()  # row 0 has no negative twin
        if rows:
            yield "-" + "-".join(rows)


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
    if args.path == "oracle":
        _write(args.output, _csv_chunks("k,rate", [ks, *columns]))
        return 0
    if args.path == "analytic":
        _write(args.output, _spectrum_chunks(ks, *columns))
        return 0
    diff = np.abs(columns[0] - columns[1])
    _write(args.output, _spectrum_chunks(ks, *columns, diff))
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
    grid = _log_grid(args.grid_min, args.grid_max, args.grid_points)
    # every point lies between the grid's ends, a falls as lambda/d rises and
    # each rounding step below is monotone, so the checks that pass at the
    # two ends pass at every point.
    for end in (grid[0], grid[-1]):
        _a_from_lambda_over_d(args.n_atoms, end)
    # lattice_conversion's arithmetic, each point rounded as it rounds it
    a = math.pi * (1.0 / grid) / math.sin(math.pi / args.n_atoms)
    rates = continuous_limit_rate(args.n_atoms, a, ks, model=model)
    columns = (np.repeat(grid, len(ks)), np.tile(ks, len(grid)), rates.ravel())
    _write(args.output, _csv_chunks("lambda_over_d,k,rate", columns))
    return 0


def cmd_validate(args) -> int:
    results = run_checks()
    _write(args.output, [format_report(results), "\n"])
    return 0 if all_passed(results) else VALIDATION_ERROR


_PARSER = build_parser()  # below the cmd_* functions, which its ``run`` defaults bind


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
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
