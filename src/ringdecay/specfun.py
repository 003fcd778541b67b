"""The ring coefficient integrals, from one downward Bessel (Miller) sweep.

The two coefficient families computed here,

    c_n(a) = integral_0^1 J_{2n}(2 a t) dt
    d_n(a) = integral_0^1 t^2 J_{2n}(2 a t) dt,

are the circular-harmonic weights that the ring decay kernels decompose
into.  Both are even in n, bounded (|c_n| <= 1, |d_n| <= 1/3), and obey
the sum rules

    c_0 + 2 sum_{n>=1} c_n = 1,        d_0 + 2 sum_{n>=1} d_n = 1/3,

which follow from J_0(x) + 2 sum_m J_{2m}(x) = 1.

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
  outside that range it refuses instead of returning noise.

Rates and lengths are dimensionless throughout (units of the linewidth
and of the inverse wavenumber), so no physical constants appear here.
"""

from __future__ import annotations

import math
import warnings
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

# Fixed library tolerance TOL_SUM; the test suite depends on its exact value.
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
    """value as a float, or ValueError for a bool, np.bool_, str or bytes."""
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


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
    nu = max(top, math.ceil(x))
    start = nu + _MILLER_PAD + math.ceil(math.sqrt(_MILLER_ACC * (nu + 1)))
    start += start % 2
    vals = [0.0] * (start + 1)
    jp, jc = 0.0, 1e-30  # j_{m+1}, j_m, seeded at m = start
    vals[start] = jc
    rescaled = []  # orders m whose stored values vals[m:] missed a rescale
    two_over_x = 2.0 / x
    for m in range(start, 0, -1):
        jp, jc = jc, m * two_over_x * jc - jp
        if abs(jc) > _RESCALE_LIMIT:
            jc *= _RESCALE
            jp *= _RESCALE
            rescaled.append(m)
        vals[m - 1] = jc
    j = np.array(vals)
    for m in rescaled[-2:]:
        j[m:] *= _RESCALE
    return j / (j[0] + 2.0 * math.fsum(j[2::2]))


def series_admitted(n: int, a: float) -> bool:
    """Whether the alternating series for c_n/d_n keeps full precision.

    Admission bound: a^2 < |n| + 40.  Beyond it the largest series term
    outgrows the result by more than ~1e15 and the sum is cancellation
    noise.
    """
    return a * a < abs(n) + 40


def _coeff_series(n: int, a: float, moment: int) -> float:
    """Alternating series for integral_0^1 t^moment J_{2n}(2at) dt.

    Term m is (-1)^m a^(2n+2m) / (m! (2n+m)! (2n+2m+w)) with
    w = moment + 1.  The leading term is built in log space (it may
    underflow harmlessly for huge n); the rest follow by ratio
    recurrence with compensated summation.
    """
    w = moment + 1
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
        if m > 5000:
            raise RuntimeError("coefficient series failed to converge")


def _coeff_closed_form(a: float, n_max: int):
    """c_n(a) and d_n(a) for n = 0..n_max from one Miller sweep at Z = 2a."""
    if a < _A_TINY:  # the a = 0 values
        c = np.zeros(n_max + 1)
        c[0] = 1.0
        d = np.zeros(n_max + 1)
        d[0] = 1.0 / 3.0
        return c, d
    z = 2.0 * a
    j = _miller_sweep(z, 2 * n_max + 3)
    # tail[i] = sum_{k>=0} J_{2i+2k+1}(Z), summed from the smallest terms up
    tail = np.cumsum(j[1::2][::-1])[::-1]
    c = tail[:n_max + 1] / a
    nu = np.arange(0.0, 2 * n_max + 1, 2.0)
    d = ((nu - 1.0) * (2.0 * (nu + 1.0) * tail[1:n_max + 2] + z * j[2:2 * n_max + 3:2])
         + z * z * j[1:2 * n_max + 2:2]) / z**3
    return c, d


def _validate_coeff_args(n, a, method):
    n = _check_integer(n, "order")
    if abs(n) > _MAX_COEFF_ORDER:
        raise ValueError(f"|order| = {abs(n)} exceeds supported limit {_MAX_COEFF_ORDER}")
    a = _check_size_parameter(a)
    if method not in ("quadrature", "series"):
        raise ValueError(f"method must be 'quadrature' or 'series', got {method!r}")
    return n, a


def _coeff(n, a, method, moment):
    n, a = _validate_coeff_args(n, a, method)
    n = abs(n)
    if method == "quadrature" or a < _A_TINY:
        c, d = _coeff_closed_form(a, n)
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
    lookups reflect to |n|.  A lookup order must be an integer.
    """

    a: float
    n_max: int
    c: np.ndarray
    d: np.ndarray

    def c_at(self, n: int) -> float:
        return float(self.c[abs(_check_integer(n, "order"))])

    def d_at(self, n: int) -> float:
        return float(self.d[abs(_check_integer(n, "order"))])

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
    a = _check_size_parameter(a)
    return int(math.ceil(a + 5.0 * a ** (1.0 / 3.0))) + 40


def coeff_table(a: float, n_max: int, method: str = "quadrature") -> CoefficientTable:
    """Batch-evaluate c_n(a) and d_n(a) for n = 0..n_max <= 1e5.

    The default ``quadrature`` route evaluates the closed forms from one
    downward-recurrence sweep at Z = 2a, so a full table costs about as
    much as its largest coefficient.  The ``series`` route sums each
    coefficient's power series separately and refuses where it is not
    admitted.  A table cut below ``alias_cutoff(a)`` may miss weight; when
    either sum rule then misses by more than ``TOL_SUM`` it warns but still
    evaluates.
    """
    if _check_integer(n_max, "order") < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max}")
    n_max, a = _validate_coeff_args(n_max, a, method)
    if method == "series" and a >= _A_TINY:  # row 0 refuses first: admission widens with |n|
        c = np.array([_coeff(n, a, method, 0) for n in range(n_max + 1)])
        d = np.array([_coeff(n, a, method, 2) for n in range(n_max + 1)])
    else:
        c, d = _coeff_closed_form(a, n_max)
    table = CoefficientTable(a=a, n_max=n_max, c=c, d=d)
    cutoff = alias_cutoff(a)
    if n_max < cutoff:
        miss_c = table.c_sum() - 1.0
        miss_d = table.d_sum() - 1.0 / 3.0
        if max(abs(miss_c), abs(miss_d)) > TOL_SUM:
            warnings.warn(
                f"n_max = {n_max} is below alias_cutoff(a) = {cutoff}; sum rules will not "
                f"close at this truncation (c-sum off by {miss_c:.3e}, d-sum by {miss_d:.3e}; "
                f"TOL_SUM = {TOL_SUM:.0e})",
                stacklevel=2,
            )
    return table
