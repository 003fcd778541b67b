"""The argument boundary: every public entry rejects the same bad inputs.

The supported range is 2 <= N <= 1e7, 0 <= a <= 1e4 and 0 <= delta <= pi/2.
``RingConfig`` and ``ModelKind`` hold those checks; every function that
takes an atom count, a size parameter or a tilt angle must fail with
``ValueError`` outside the range instead of returning a number.  Integer
arguments (orders, table sizes, mode indices) refuse ``bool``, so
``True`` is never read as 1; real-valued arguments (a, delta, d/lambda)
refuse ``bool``, complex numbers, strings and anything ``float`` refuses
(``None``, a list, a 1-D array) or cannot hold (an int past the float
range), so none is read as a real number.
"""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ringdecay import (
    ModelKind,
    RingConfig,
    alias_cutoff,
    analytic_spectrum,
    coeff_c,
    coeff_d,
    coeff_table,
    continuous_limit_rate,
    large_a_vector_estimate,
    lattice_conversion,
    subradiant_edge,
    vector_gamma_kernel,
)

BAD_N = [1, 10**7 + 1]
BAD_A = [-1.0, math.nan, math.inf, 2e4, True, "3", np.complex128(3 + 4j)]
BAD_DELTA = [-0.1, math.nan, True, "0.5", np.complex128(0.5 + 0.2j)]

# (entry, call taking the one bad argument)
TAKES_N = [
    ("RingConfig", lambda n: RingConfig(n, 1.0)),
    ("lattice_conversion", lambda n: lattice_conversion(n, 0.1)),
    ("subradiant_edge", lambda n: subradiant_edge(n, 0.1)),
    ("large_a_vector_estimate", lambda n: large_a_vector_estimate(n, 5.0, 0, 0.3)),
    ("continuous_limit_rate", lambda n: continuous_limit_rate(n, 1.0, 0)),
]
TAKES_A = [
    ("RingConfig", lambda a: RingConfig(4, a)),
    ("large_a_vector_estimate", lambda a: large_a_vector_estimate(10, a, 0, 0.3)),
    ("continuous_limit_rate", lambda a: continuous_limit_rate(10, a, 0)),
    ("alias_cutoff", alias_cutoff),
]
TAKES_DELTA = [
    ("ModelKind", ModelKind.vectorial),
    ("large_a_vector_estimate", lambda d: large_a_vector_estimate(10, 5.0, 0, d)),
    ("vector_gamma_kernel", lambda d: vector_gamma_kernel(1.0, d)),
]

# (entry, call taking the one bad spacing d/lambda)
BAD_SPACING = [0.0, -1.0, math.nan, math.inf]
TAKES_SPACING = [
    ("lattice_conversion", lambda d: lattice_conversion(10, d)),
    ("subradiant_edge", lambda d: subradiant_edge(10, d)),
]

# (entry, call taking the one non-integer where an integer belongs, the
# argument name its refusal gives)
TAKES_INT = [
    ("coeff_c", lambda b: coeff_c(b, 1.0), "order"),
    ("coeff_d", lambda b: coeff_d(b, 1.0), "order"),
    ("coeff_table", lambda b: coeff_table(1.0, b), "n_max"),
    ("continuous_limit_rate", lambda b: continuous_limit_rate(10, 1.0, b), "mode index k"),
    ("large_a_vector_estimate", lambda b: large_a_vector_estimate(10, 5.0, b, 0.3),
     "mode index k"),
    ("RingConfig", lambda b: RingConfig(b, 1.0), "n_atoms"),
    ("DecaySpectrum.rate",
     lambda b: analytic_spectrum(RingConfig(6, 2.0), ModelKind.scalar()).rate(b),
     "mode index k"),
    ("CoefficientTable.c_at", lambda b: coeff_table(1.0, 50).c_at(b), "order"),
    ("CoefficientTable.d_at", lambda b: coeff_table(1.0, 50).d_at(b), "order"),
]

# (entry, call taking the one bad mode index k); N = 10 admits |k| <= 5,
# and a = 50 keeps the estimate's own |k| < a check from catching k = 6
BAD_K = [math.nan, 2.5, 6]
TAKES_K = [
    ("continuous_limit_rate", lambda k: continuous_limit_rate(10, 1.0, k)),
    ("large_a_vector_estimate", lambda k: large_a_vector_estimate(10, 50.0, k, 0.3)),
]

CASES = (
    [pytest.param(call, n, id=f"{name}-n={n}") for name, call in TAKES_N for n in BAD_N]
    + [pytest.param(call, a, id=f"{name}-a={a}") for name, call in TAKES_A for a in BAD_A]
    + [pytest.param(call, d, id=f"{name}-delta={d}")
       for name, call in TAKES_DELTA for d in BAD_DELTA]
    + [pytest.param(call, b, id=f"{name}-int={b}")
       for name, call, _ in TAKES_INT for b in (True, False)]
    + [pytest.param(call, k, id=f"{name}-k={k}") for name, call in TAKES_K for k in BAD_K]
)


@pytest.mark.parametrize("call, bad", CASES)
def test_rejects_out_of_range(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call, bad", [
    pytest.param(call, d, id=f"{name}-d_over_lambda={d}")
    for name, call in TAKES_SPACING for d in BAD_SPACING
])
def test_spacing_refusal_names_the_condition(call, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"d_over_lambda must be finite and > 0, got {bad!r}"


def test_spacing_overflow_names_the_spacing():
    # pi d / sin(pi / N) overflows to inf; a finite d/lambda is still the input at fault
    with pytest.raises(ValueError) as exc:
        lattice_conversion(10**7, 1e308)
    assert str(exc.value) == "d_over_lambda = 1e+308 overflows the size parameter a"


@pytest.mark.parametrize("call", [call for _, call in TAKES_SPACING],
                         ids=[name for name, _ in TAKES_SPACING])
def test_spacing_above_size_limit_names_the_spacing(call):
    # a finite a above 1e4 is still the spacing's fault, not an --a nobody gave
    a = math.pi * 1e4 / math.sin(math.pi / 10)
    with pytest.raises(ValueError) as exc:
        call(1e4)
    assert str(exc.value) == (f"d_over_lambda = 10000.0 puts the size parameter a = {a!r} "
                              f"above its supported limit 10000.0")


@pytest.mark.parametrize("call", [
    lambda k: continuous_limit_rate(10**6, 1.0, k),
    lambda k: large_a_vector_estimate(10**6, 50.0, k, 0.3),
], ids=["continuous_limit_rate", "large_a_vector_estimate"])
@pytest.mark.parametrize("k", [300000, -100001])
def test_mode_index_above_order_limit_names_k(call, k):
    # admitted by |k| <= N/2, but c_|k| is past the coefficient order limit 1e5
    with pytest.raises(ValueError) as exc:
        call(k)
    assert str(exc.value) == f"mode index |k| = {abs(k)} exceeds supported limit 100000"


@pytest.mark.parametrize("n", [200002, 10**6])
def test_edge_order_above_limit_names_n_atoms(n):
    # the edge mode evaluates c_{N/2}; N/2 past 1e5 is N's fault, not an order's
    with pytest.raises(ValueError) as exc:
        subradiant_edge(n, 0.001)
    assert str(exc.value) == (f"n_atoms = {n} puts the edge mode N/2 = {n // 2} above the "
                              f"coefficient order limit 100000")


@pytest.mark.parametrize("call, name", [(call, arg) for _, call, arg in TAKES_INT],
                         ids=[entry for entry, _, _ in TAKES_INT])
def test_non_integer_refusal_names_the_argument(call, name):
    with pytest.raises(ValueError) as exc:
        call(2.5)
    assert str(exc.value) == f"{name} must be an integer, got 2.5"


# (entry, call taking the one real-valued argument, the name its refusal gives)
TAKES_REAL = ([(entry, call, "size parameter a") for entry, call in TAKES_A]
              + [(entry, call, "delta") for entry, call in TAKES_DELTA]
              + [(entry, call, "d_over_lambda") for entry, call in TAKES_SPACING])


@pytest.mark.parametrize("bad", [True, np.True_, 0.5 + 0j, np.complex128(0.5 + 0.2j), "0.5",
                                 b"0.5"], ids=repr)
@pytest.mark.parametrize("call, name", [(call, arg) for _, call, arg in TAKES_REAL],
                         ids=[f"{entry}-{arg}" for entry, _, arg in TAKES_REAL])
def test_non_real_refusal_names_the_argument(call, name, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be a real number, got {bad!r}"


@pytest.mark.parametrize("call, bad, name", [
    (lambda a: RingConfig(4, a), None, "size parameter a"),
    (lambda a: RingConfig(4, a), np.array([1.0]), "size parameter a"),
    (lambda a: coeff_c(1, a), None, "size parameter a"),
    (lambda d: lattice_conversion(10, d), None, "d_over_lambda"),
    (ModelKind, [0.1], "delta"),
], ids=["RingConfig-None", "RingConfig-array", "coeff_c-None", "lattice_conversion-None",
        "ModelKind-list"])
def test_non_number_refusal_names_the_argument(call, bad, name):
    # float() refuses these with a TypeError; the entry turns it into its own refusal
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} must be a real number, got {bad!r}"


# TAKES_REAL, plus ModelKind's and coeff_c's own argument checks
TAKES_FLOAT = TAKES_REAL + [("ModelKind", ModelKind, "delta"),
                            ("coeff_c", lambda a: coeff_c(1, a), "size parameter a")]


@pytest.mark.parametrize("bad", [10**400, -(10**400), Fraction(10**400, 3)],
                         ids=["int", "negative-int", "Fraction"])
@pytest.mark.parametrize("call, name", [(call, arg) for _, call, arg in TAKES_FLOAT],
                         ids=[f"{entry}-{arg}" for entry, _, arg in TAKES_FLOAT])
def test_number_past_the_float_range_names_the_argument(call, name, bad):
    # float() raises OverflowError for these; the entry turns it into its own refusal
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value) == f"{name} is outside the float range"


def test_numpy_reals_are_admitted():
    assert RingConfig(4, np.float32(0.5)).size_parameter == 0.5
    assert ModelKind(np.float64(0.5)).delta == 0.5
    assert lattice_conversion(4, np.int64(1)) == lattice_conversion(4, 1.0)


def test_decimal_and_fraction_are_admitted():
    assert RingConfig(4, Decimal("0.5")).size_parameter == 0.5
    assert ModelKind(Fraction(1, 2)).delta == 0.5
    assert lattice_conversion(4, Fraction(1, 4)) == lattice_conversion(4, 0.25)
    assert coeff_c(1, Decimal("2.5")) == coeff_c(1, 2.5)


@pytest.mark.parametrize("call", [call for _, call in TAKES_N],
                         ids=[name for name, _ in TAKES_N])
def test_n_above_ceiling_is_refused_before_any_allocation(call):
    # an N-sized array would be 80 MB at the ceiling and 8 PB at 1e15
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds supported limit 10000000"):
            call(10**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ceiling_is_admitted():
    assert RingConfig(10**7, 1.0).n_atoms == 10**7


# (case, continuous_limit_rate's sequence call, the refusal of the scalar call
# on the offending element, as it reads)
SEQUENCE_REFUSALS = [
    ("bool-k-element", lambda: continuous_limit_rate(10, [1.0, 2.0], [0, True]),
     "mode index k must be an integer, got True"),
    ("k-past-N/2", lambda: continuous_limit_rate(10, [1.0, 2.0], [0, -6]),
     "|k| = 6 exceeds N/2 = 5.0"),
    ("k-past-order-limit", lambda: continuous_limit_rate(10**6, [1.0], [0, 300000]),
     "mode index |k| = 300000 exceeds supported limit 100000"),
    ("a-above-limit", lambda: continuous_limit_rate(10, [1.0, 2e4], [0]),
     "a = 20000.0 exceeds supported limit 10000.0"),
    ("a-nan", lambda: continuous_limit_rate(10, np.array([1.0, math.nan]), 0),
     "size parameter a must be finite and >= 0, got nan"),
    ("bool-a-element", lambda: continuous_limit_rate(10, [1.0, True], [0]),
     "size parameter a must be a real number, got True"),
    ("n-before-a", lambda: continuous_limit_rate(1, [2e4], [True]),
     "n_atoms must be >= 2, got 1"),
    ("a-before-k", lambda: continuous_limit_rate(10, [1.0, -1.0], [6]),
     "size parameter a must be finite and >= 0, got -1.0"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in SEQUENCE_REFUSALS],
                         ids=[case[0] for case in SEQUENCE_REFUSALS])
def test_sequence_refusal_is_the_scalar_refusal(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("a, k", [([[1.0, 2.0]], 0), (1.0, [[0, 1]])], ids=["a", "k"])
def test_sequences_of_sequences_are_refused(a, k):
    with pytest.raises(ValueError, match="1-D sequence, got 2 dimensions"):
        continuous_limit_rate(10, a, k)
