"""The ring coefficient integrals, from one downward Bessel (Miller) sweep.

The two coefficient families computed here,

    c_n(a) = integral_0^1 J_{2n}(2 a t) dt
    d_n(a) = integral_0^1 t^2 J_{2n}(2 a t) dt,

are the circular-harmonic weights that the ring decay kernels decompose
into.  Both are even in n, bounded (|c_n| <= 1, |d_n| <= 1/3), and obey
the sum rules

    c_0 + 2 sum_{n>=1} c_n = 1,        d_0 + 2 sum_{n>=1} d_n = 1/3,

which follow from J_0(x) + 2 sum_m J_{2m}(x) = 1.  A table cut below
``alias_cutoff(a)`` misses weight; ``coeff_table`` returns it as it is,
and the table's ``c_sum()`` and ``d_sum()`` show the miss.

Every coefficient is computable by two independent routes:

* ``quadrature`` (the default; the name denotes the integral route): the
  integrals in closed form.  With Z = 2a and nu = 2n,

      a c_n   = sum_{k>=0} J_{nu+2k+1}(Z)                   (DLMF 10.22.6)
      Z^3 d_n = (nu-1) [2(nu+1) sum_{k>=1} J_{nu+2k+1}(Z) + Z J_{nu+2}(Z)]
                + Z^2 J_{nu+1}(Z),

  the second from integrating the Bessel equation.  Every term keeps its
  sign as a -> 0, so neither form cancels there.  One downward
  recurrence at the single point Z yields a whole table, accurate to
  ~1e-16 absolute for a <= 1e4;
* ``series``: direct summation of the alternating power series in log
  space with compensated accumulation.  The series is only admitted
  while its largest term cannot swamp double precision (a^2 < |n| + 40);
  outside that range it refuses instead of returning noise.  A single
  coefficient is one scalar loop (``_coeff_series``); many at once are one
  numpy pass (``_series_batch``) with the scalar loop's bits: the first
  terms from the scalar's ``math`` functions mapped over whole lists, the
  rest in chunks of steps whose ratios are one bounded table, with the
  stopped coefficients compacted out once per chunk.  ``_series_tables``
  lays out the tables of many a as one pass; ``coeff_table`` is its one-a case.

The closed forms run in lanes, one (a, depth) pair each: every lane runs
its own recurrence, and one numpy pass forms c_n and d_n of a whole
block of lanes, each with the bits of the table built alone.  Whole
tables, one per (a, n_max), come from ``_closed_form_tables``: one pass
over their lanes, each row cut to its n_max.  ``coeff_table``'s closed
form is its one-pair case, so one path builds every closed-form table.
Many reads at once, c and d of order n at a from the table of a given
depth, go through ``_closed_form_reads``, which owns the lane protocol:
it numbers one lane per distinct (a, depth), packs the lanes into blocks
of at most 512 KiB, and gathers each read from its lane.

Rates and lengths are dimensionless throughout (units of the linewidth
and of the inverse wavenumber), so no physical constants appear here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TOL_SUM",
    "CoefficientTable",
    "alias_cutoff",
    "coeff_c",
    "coeff_d",
    "coeff_table",
    "series_admitted",
]

# Sum-rule tolerance; the test suite and the ``coeffs`` note depend on its exact value.
TOL_SUM = 1e-9

_MAX_COEFF_ORDER = 10**5
_MAX_A = 1e4

# Downward-recurrence start order: max(order, x) + _MILLER_PAD +
# sqrt(_MILLER_ACC * max(order, x)) gives the seed contamination more
# than 1e17 of damping before it reaches any requested order.
_MILLER_ACC = 160.0
_MILLER_PAD = 8
_RESCALE_LIMIT = 1e250
_RESCALE = 2.0**-1000

# Below this c_n and d_n equal their a = 0 values to within a^2/3 <
# 1e-100.  Above it the recurrence factor 2m/Z stays below ~1e56 for every
# supported order, so one step cannot overflow past _RESCALE_LIMIT.
_A_TINY = 1e-50


def _check_size_parameter(a) -> float:
    """a as a float, or ValueError outside the supported 0 <= a <= _MAX_A."""
    a = _check_real(a, "size parameter a")
    if not math.isfinite(a) or a < 0.0:
        raise ValueError(f"size parameter a must be finite and >= 0, got {a!r}")
    if a > _MAX_A:
        raise ValueError(f"a = {a} exceeds supported limit {_MAX_A}")
    return a


def _check_integer(value, name: str) -> int:
    """value as an int, or ValueError unless it is an int or np.integer (not bool)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_real(value, name: str) -> float:
    """value as a float, or ValueError for a bool, complex number, str, bytes, non-number,
    or a number past the float range.
    """
    if not isinstance(value, (bool, np.bool_, complex, np.complexfloating, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):  # None, a list, an array of one or more dimensions
            pass
        except OverflowError:  # an int or a Fraction past the float range
            raise ValueError(f"{name} is outside the float range") from None
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _miller_start(x: float, top: int) -> int:
    """The even order where ``_miller_sweep(x, top)`` seeds its recurrence."""
    nu = max(top, math.ceil(x))
    start = nu + _MILLER_PAD + math.ceil(math.sqrt(_MILLER_ACC * (nu + 1)))
    return start + start % 2


def _miller_sweep(x: float, top: int) -> np.ndarray:
    """J_0(x) .. J_start(x) at one point x > 0, with start > top.

    Runs j_{m-1} = (2m/x) j_m - j_{m+1} down from a start order high
    enough that the unwanted solution is damped below double precision
    before it reaches any order <= max(top, x), and normalizes with the
    identity J_0 + 2 sum J_{2m} = 1.  Whenever the running pair approaches
    overflow it is rescaled by 2^-1000, and the values stored before are
    rescaled after the loop.  Only the last two rescales are applied there:
    a value at most 1e250 rescaled twice is already 0.0.
    """
    start = _miller_start(x, top)
    jp, jc = 0.0, 1e-30  # j_{m+1}, j_m, seeded at m = start
    vals = [jc]  # j_start, j_{start-1}, ..., reversed after the loop
    rescaled = []  # orders m whose stored values j[m:] missed a rescale
    high, low = _RESCALE_LIMIT, -_RESCALE_LIMIT
    # 2m/x for m = start..1, each rounded as the double m * (2.0 / x)
    for factor in (np.arange(start, 0, -1) * (2.0 / x)).tolist():
        jp, jc = jc, factor * jc - jp
        if jc > high or jc < low:
            jc *= _RESCALE
            jp *= _RESCALE
            rescaled.append(start + 1 - len(vals))  # m, the order of factor
        vals.append(jc)
    vals.reverse()
    j = np.array(vals)
    for m in rescaled[-2:]:
        j[m:] *= _RESCALE
    return j / (j[0] + 2.0 * math.fsum(j[2::2].tolist()))


def series_admitted(n: int, a: float) -> bool:
    """Whether the alternating series for c_n/d_n keeps full precision.

    Admission bound: a^2 < |n| + 40.  Beyond it the largest series term
    outgrows the result by more than ~1e15 and the sum is cancellation
    noise.
    """
    return a * a < abs(n) + 40


# Terms that one coefficient's series may take before it is refused as unconverged.
_SERIES_MAX_TERMS = 5000

# Steps of one ``_series_batch`` chunk, and the most term ratios (512 KiB of
# float64) one chunk's table holds; a chunk of many coefficients takes fewer steps.
_SERIES_CHUNK_STEPS = 16
_SERIES_TABLE_ELEMENTS = 2**16


def _coeff_series(n: int, a: float, moment: int) -> float:
    """Alternating series for integral_0^1 t^moment J_{2n}(2at) dt.

    Term m is (-1)^m a^(2n+2m) / (m! (2n+m)! (2n+2m+w)) with
    w = moment + 1.  The leading term is built in log space (it may
    underflow harmlessly for huge n); the rest follow by ratio
    recurrence with compensated summation.

    ``_series_batch`` sums many coefficients with these bits in one numpy
    pass, but one coefficient is cheaper here: a one-element numpy loop
    costs tens of times this scalar loop, so single coefficients
    (``coeff_c``/``coeff_d``) stay scalar.
    """
    w = moment + 1
    # term 0, a^(2n) / ((2n)! (2n + w))
    if n == 0:
        term = 1.0 / w
    else:
        term = math.exp(2 * n * math.log(a) - math.lgamma(2 * n + 1) - math.log(2 * n + w))
    total = term
    comp = 0.0
    a2 = a * a
    m = 0
    while True:
        m += 1
        term *= -a2 * (2 * n + 2 * m + w - 2) / (m * (2 * n + m) * (2 * n + 2 * m + w))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if m > 4 and abs(term) <= 1e-20 * (abs(total) + 1e-300):
            return total
        if m > _SERIES_MAX_TERMS:
            raise RuntimeError("coefficient series failed to converge")


def _distinct_map(f, x: np.ndarray) -> np.ndarray:
    """f(x[i]) for every i, one call of the ``math`` function f per distinct value."""
    values, at = np.unique(x, return_inverse=True)
    return np.array(list(map(f, values.tolist())), dtype=float)[at]


def _series_batch(ns, a_values, moments) -> np.ndarray:
    """``_coeff_series(ns[i], a_values[i], moments[i])`` for every i, in one numpy pass.

    The first terms are the scalar's: ``math.log`` and ``math.lgamma``
    mapped over the distinct values of whole lists, combined in numpy in
    the scalar's order, ``math.exp`` mapped over the list of exponents,
    and 1/w at n = 0.  The terms then run in chunks of at
    most _SERIES_CHUNK_STEPS steps, fewer once a chunk's table of ratios
    would pass _SERIES_TABLE_ELEMENTS, and never past the step where
    _SERIES_MAX_TERMS raises.  One table holds every live coefficient's
    ratio per step of the chunk, each formed in the scalar's operation
    order from integers held exactly as floats; each step is then the
    scalar's product and compensated sum, elementwise, so every
    coefficient has the scalar's bits.  After a chunk each coefficient is
    read at its first stop in the chunk, the step where the scalar loop
    returns; the steps computed past it are discarded, and the stopped
    coefficients leave the live arrays together.  Below _A_TINY a
    coefficient is its a = 0 value, as in the closed form.  Each (n, a)
    must be admitted.  Underflow is ignored, as Python float arithmetic
    ignores it.
    """
    twice_n = 2.0 * np.asarray(ns, dtype=float)
    w = np.asarray(moments, dtype=float) + 1.0
    out = np.where(twice_n == 0.0, 1.0 / w, 0.0)  # the a = 0 values
    a = np.asarray(a_values, dtype=float)
    slot = np.flatnonzero(a >= _A_TINY)  # each summed coefficient's place in out
    twice_n, w, a = twice_n[slot], w[slot], a[slot]
    # term 0, exp((2n) log a - lgamma(2n + 1) - log(2n + w)) as the scalar forms it
    exponent = (twice_n * _distinct_map(math.log, a) - _distinct_map(math.lgamma, twice_n + 1.0)
                - _distinct_map(math.log, twice_n + w))
    total = np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)
    total = np.where(twice_n == 0.0, out[slot], total)
    neg_a2, base = -(a * a), twice_n + w - 2.0  # -a^2 and 2n + w - 2
    del a, w, exponent  # only the steps' arrays stay live
    term, comp = total, np.zeros_like(total)  # neither is ever written in place
    m = 0
    with np.errstate(under="ignore"):
        while slot.size:
            steps = min(_SERIES_CHUNK_STEPS, max(1, _SERIES_TABLE_ELEMENTS // slot.size),
                        _SERIES_MAX_TERMS + 1 - m)
            ms = np.arange(m + 1.0, m + steps + 1.0)[:, None]  # the chunk's m, one row each
            # num = 2n + 2m + w - 2 and den = m (2n + m) (2n + 2m + w), exact integers
            terms = (neg_a2 * (base + 2.0 * ms)) / (ms * (twice_n + ms) * (base + (2.0 * ms + 2.0)))
            totals = np.empty_like(terms)
            for ratio, row in zip(terms, totals):  # ratio becomes the term of its step
                term = np.multiply(term, ratio, out=ratio)
                y = term - comp
                np.add(total, y, out=row)
                comp = (row - total) - y
                total = row
            stop = np.abs(terms) <= 1e-20 * (np.abs(totals) + 1e-300)
            stop[:max(0, 4 - m)] = False  # no stop before m = 5
            m += steps
            done = stop.any(axis=0)
            if done.any():
                out[slot[done]] = totals[np.argmax(stop[:, done], axis=0), np.flatnonzero(done)]
                keep = ~done
                slot, twice_n, base, neg_a2 = (x[keep] for x in (slot, twice_n, base, neg_a2))
                term, comp, total = term[keep], comp[keep], total[keep]
            if slot.size and m > _SERIES_MAX_TERMS:
                raise RuntimeError("coefficient series failed to converge")
    return out


def _series_tables(a_values, n_max: int) -> np.ndarray:
    """Series c_n and d_n, n = 0..n_max, of each admitted a in one pass: an (a, c | d, n) array."""
    orders = np.arange(n_max + 1)  # per a, c's orders and then d's
    return _series_batch(np.tile(orders, 2 * len(a_values)), np.repeat(a_values, 2 * orders.size),
                         np.tile(np.repeat([0, 2], orders.size), len(a_values))
                         ).reshape(len(a_values), 2, -1)


# Largest padded lane array, in elements (512 KiB of float64), that one block
# of ``_closed_form_reads`` holds; a lane wider than that is a block alone.
_LANE_BLOCK_ELEMENTS = 2**16


def _lane_width(a: float, depth: int) -> int:
    """A lane's width in orders: its sweep's 0..start, or the 2 depth + 4 read at a = 0."""
    return 2 * depth + 4 if a < _A_TINY else _miller_start(2.0 * a, 2 * depth + 3) + 1


def _closed_form_lanes(lanes, width: int):
    """c_n(a) and d_n(a), n = 0..max depth, of each lane (a, depth) in one pass.

    Each lane with a >= _A_TINY runs its own ``_miller_sweep(2a, 2 depth + 3)``,
    the sweep of a one-lane table, into a row of one zero-padded array
    ``width`` orders wide.  The tail sums run from the top order down, so
    the padded orders add 0.0 before the first real term, and every lane
    keeps the bits of its one-lane table.  Row i holds lane i's c_n and d_n
    in columns 0..depth; later columns are not its coefficients.
    """
    n_max = max(depth for _, depth in lanes)
    j = np.zeros((len(lanes), width))
    tiny = []
    for i, (a, depth) in enumerate(lanes):
        if a < _A_TINY:
            tiny.append(i)
        else:
            sweep = _miller_sweep(2.0 * a, 2 * depth + 3)
            j[i, :len(sweep)] = sweep
    # a and z^3 per lane, z^3 by Python's pow as a scalar z**3 has it; 1.0 keeps a = 0 finite
    a, z3 = np.array([(x, (2.0 * x)**3) if x >= _A_TINY else (1.0, 8.0)
                      for x, _ in lanes]).T[:, :, None]
    z = 2.0 * a
    # tail[i] = sum_{k>=0} J_{2i+2k+1}(Z), summed from the smallest terms up
    tail = np.cumsum(j[:, 1::2][:, ::-1], axis=1)[:, ::-1]
    c = tail[:, :n_max + 1] / a
    # nu - 1 and 2 (nu + 1) for nu = 2n, n = 0..n_max: small integers, exact as formed
    nu_minus, twice_nu_plus = np.arange(-1.0, 2 * n_max, 2.0), np.arange(2.0, 4 * n_max + 3, 4.0)
    d = (nu_minus * (twice_nu_plus * tail[:, 1:n_max + 2] + z * j[:, 2:2 * n_max + 3:2])
         + z * z * j[:, 1:2 * n_max + 2:2]) / z3
    for i in tiny:  # the a = 0 values
        c[i], d[i] = 0.0, 0.0
        c[i, 0], d[i, 0] = 1.0, 1.0 / 3.0
    return c, d


def _closed_form_reads(a_values, depth: np.ndarray, orders: np.ndarray):
    """c and d at (a_values[i], orders[j]), each read from its table of depth depth[i, j].

    ``depth`` has one row per a and one column per order; ``orders`` rise,
    each row of ``depth`` rises too, and no depth is below its order.  A
    depth that differs from its left neighbour starts a new lane, so there
    is one lane per distinct (a, depth) and the lane numbers never fall in
    read order.  The lanes' a and depth are kept as two arrays, beside one
    width per lane.  Lanes are taken in order into blocks while a block's
    padded array, as wide as its widest lane, stays within
    ``_LANE_BLOCK_ELEMENTS``; only when a block runs are its (a, depth)
    pairs formed for ``_closed_form_lanes``, which forms the block in one
    numpy pass, and its reads are gathered from it.
    """
    new = np.ones(depth.shape, dtype=bool)
    new[:, 1:] = depth[:, 1:] != depth[:, :-1]
    lane = np.cumsum(new, axis=None) - 1  # the lane of each read
    lane_a = np.asarray(a_values, dtype=float)[np.nonzero(new)[0]]
    lane_depth = depth[new]
    # the closing inf fits in no block, so it ends the last one
    widths = [*map(_lane_width, lane_a.tolist(), lane_depth.tolist()), math.inf]
    c, d = np.empty(lane.size), np.empty(lane.size)
    start = width = 0
    for i, lane_width in enumerate(widths):
        if i > start and (i + 1 - start) * max(width, lane_width) > _LANE_BLOCK_ELEMENTS:
            block = list(zip(lane_a[start:i].tolist(), lane_depth[start:i].tolist()))
            block_c, block_d = _closed_form_lanes(block, width)
            reads = slice(*np.searchsorted(lane, [start, i]).tolist())
            # (row in the block, order) per read; a row of depth holds one read per order
            at = (lane[reads] - start, orders[np.arange(reads.start, reads.stop) % orders.size])
            c[reads], d[reads] = block_c[at], block_d[at]
            start, width = i, 0
        width = max(width, lane_width)
    return c.reshape(depth.shape), d.reshape(depth.shape)


def _closed_form_tables(pairs) -> list:
    """The closed-form table (c, d), n = 0..n_max, of each pair (a, n_max), from one pass.

    Every pair is a lane of one ``_closed_form_lanes`` pass as wide as its
    widest lane, and row i is cut to n_max_i + 1 orders, so each table has
    the bits of the table built alone.  The a must be validated.  The pass
    holds every lane at once, so its callers keep to a few lanes: one in
    ``coeff_table``, ``coeff_c`` and ``coeff_d``, two in ``subradiant_edge``,
    one per a in ``spectrum._analytic_rates`` (``validate``'s grid is 6
    lanes of at most 419 orders), and at most five in each validation check.
    """
    c, d = _closed_form_lanes(pairs, max([_lane_width(*pair) for pair in pairs]))
    return [(c[i, :n_max + 1], d[i, :n_max + 1]) for i, (_, n_max) in enumerate(pairs)]


def _check_a_and_method(a, method) -> float:
    a = _check_size_parameter(a)
    if method not in ("quadrature", "series"):
        raise ValueError(f"method must be 'quadrature' or 'series', got {method!r}")
    return a


def _coeff(n, a, method, moment):
    n = abs(_check_integer(n, "order"))
    if n > _MAX_COEFF_ORDER:
        raise ValueError(f"|order| = {n} exceeds supported limit {_MAX_COEFF_ORDER}")
    a = _check_a_and_method(a, method)
    if method == "quadrature" or a < _A_TINY:
        c, d = _closed_form_tables([(a, n)])[0]
        return float(c[n] if moment == 0 else d[n])
    if not series_admitted(n, a):
        raise ValueError("series unstable, use quadrature")
    return _coeff_series(n, a, moment)


def coeff_c(n: int, a: float, method: str = "quadrature") -> float:
    """c_n(a) = integral_0^1 J_{2n}(2at) dt.  Even in n."""
    return _coeff(n, a, method, 0)


def coeff_d(n: int, a: float, method: str = "quadrature") -> float:
    """d_n(a) = integral_0^1 t^2 J_{2n}(2at) dt.  Even in n."""
    return _coeff(n, a, method, 2)


@dataclass(frozen=True)
class CoefficientTable:
    """c_n(a) and d_n(a) for n = 0..n_max.

    Only n >= 0 is stored; both families are even in n, so negative
    lookups reflect to |n|.  A lookup order must be an integer with
    |n| <= n_max; past the table's end it raises ``IndexError``.
    """

    a: float
    n_max: int
    c: np.ndarray
    d: np.ndarray

    def _row(self, n) -> int:
        n = abs(_check_integer(n, "order"))
        if n > self.n_max:
            raise IndexError(f"|order| = {n} is past this table's n_max = {self.n_max}")
        return n

    def c_at(self, n: int) -> float:
        return float(self.c[self._row(n)])

    def d_at(self, n: int) -> float:
        return float(self.d[self._row(n)])

    def c_sum(self) -> float:
        """c_0 + 2 sum_{n>=1} c_n; closes on 1 once n_max clears the cutoff."""
        return float(self.c[0] + 2.0 * math.fsum(self.c[1:].tolist()))

    def d_sum(self) -> float:
        """d_0 + 2 sum_{n>=1} d_n; closes on 1/3."""
        return float(self.d[0] + 2.0 * math.fsum(self.d[1:].tolist()))


def alias_cutoff(a: float) -> int:
    """Largest coefficient index kept in the aliased sums, for 0 <= a <= 1e4.

    ceil(a + 5 a^(1/3)) + 40: past |n| ~ a the coefficient families fall
    off super-exponentially over a transition band whose width grows like
    a^(1/3) (DLMF 10.20), so every discarded c_n and d_n stays below 1e-17
    for 0 <= a <= 1e4.
    """
    return _alias_cutoff(_check_size_parameter(a))


def _alias_cutoff(a: float) -> int:
    """``alias_cutoff`` of an a that its caller has already validated."""
    return int(math.ceil(a + 5.0 * a ** (1.0 / 3.0))) + 40


def coeff_table(a: float, n_max: int, method: str = "quadrature") -> CoefficientTable:
    """Batch-evaluate c_n(a) and d_n(a) for n = 0..n_max <= 1e5.

    The default ``quadrature`` route evaluates the closed forms from one
    downward-recurrence sweep at Z = 2a, so a full table costs about as
    much as its largest coefficient.  The ``series`` route sums every
    coefficient's own power series, c and d together in one numpy pass,
    and refuses where it is not admitted.  A table cut below
    ``alias_cutoff(a)`` may miss weight; it is returned all the same, and
    ``c_sum()`` and ``d_sum()`` show the miss.
    """
    n_max = _check_integer(n_max, "n_max")
    if n_max < 0:  # the sign first, however far below zero n_max is
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    if n_max > _MAX_COEFF_ORDER:
        raise ValueError(f"n_max = {n_max} exceeds supported limit {_MAX_COEFF_ORDER}")
    a = _check_a_and_method(a, method)
    if method == "series":
        if not series_admitted(0, a):  # admission widens with |n|: row 0 decides the table
            raise ValueError("series unstable, use quadrature")
        c, d = _series_tables([a], n_max)[0]
    else:
        c, d = _closed_form_tables([(a, n_max)])[0]
    return CoefficientTable(a=a, n_max=n_max, c=c, d=d)
