"""The argument boundary: every public entry rejects the same bad inputs.

The supported range is 2 <= N <= 1e7, 0 <= a <= 1e4 and 0 <= delta <= pi/2.
``RingConfig`` and ``ModelKind`` hold those checks; every function that
takes an atom count, a size parameter or a tilt angle must fail with
``ValueError`` outside the range instead of returning a number.  Integer
arguments (orders, table sizes, mode indices) refuse ``bool``, so
``True`` is never read as 1.
"""

import math
import tracemalloc

import pytest

from ringdecay import (
    ModelKind,
    RingConfig,
    alias_cutoff,
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
BAD_A = [-1.0, math.nan, math.inf, 2e4]
BAD_DELTA = [-0.1, math.nan]

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
    ("coeff_table", lambda b: coeff_table(1.0, b), "order"),
    ("continuous_limit_rate", lambda b: continuous_limit_rate(10, 1.0, b), "mode index k"),
    ("large_a_vector_estimate", lambda b: large_a_vector_estimate(10, 5.0, b, 0.3),
     "mode index k"),
    ("RingConfig", lambda b: RingConfig(b, 1.0), "n_atoms"),
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


@pytest.mark.parametrize("call, name", [(call, arg) for _, call, arg in TAKES_INT],
                         ids=[entry for entry, _, _ in TAKES_INT])
def test_non_integer_refusal_names_the_argument(call, name):
    with pytest.raises(ValueError) as exc:
        call(2.5)
    assert str(exc.value) == f"{name} must be an integer, got 2.5"


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
