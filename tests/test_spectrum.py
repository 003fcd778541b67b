"""Spectrum tests: closed-form oracles, path equivalence, asymptotics.

Hand oracles: the two-atom ring (rates 1 +- sin(2a)/2a), the equilateral
triangle, and the all-ones Dicke matrix.  Frozen values are
mpmath-checked (mp.quad of besselj at dps=30).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringdecay import (
    TOL_SUM,
    ModelKind,
    RingConfig,
    alias_cutoff,
    analytic_spectrum,
    coeff_c,
    coeff_table,
    continuous_limit_rate,
    large_a_vector_estimate,
    oracle_spectrum,
    subradiant_edge,
)

MAGIC_DELTA = math.acos(1.0 / math.sqrt(3.0))

ALL_MODELS = [
    ModelKind.scalar(),
    ModelKind.vectorial(0.0),
    ModelKind.vectorial(math.pi / 4),
    ModelKind.vectorial(math.pi / 2),
]


class TestTwoAtomClosedForm:
    @pytest.mark.parametrize("a", [0.25, 1.0, 3.7, 18.0])
    @pytest.mark.parametrize("path", [analytic_spectrum, oracle_spectrum])
    def test_rates(self, a, path):
        spec = path(RingConfig(2, a), ModelKind.scalar())
        bright = 1.0 + math.sin(2 * a) / (2 * a)
        dark = 1.0 - math.sin(2 * a) / (2 * a)
        assert spec.rate(0) == pytest.approx(bright, abs=1e-12)
        assert spec.rate(1) == pytest.approx(dark, abs=1e-12)
        assert spec.rate(-1) == spec.rate(1)


class TestSmallRingOracles:
    def test_equilateral_triangle(self):
        s = math.sin(math.sqrt(3.0)) / math.sqrt(3.0)
        for path in (analytic_spectrum, oracle_spectrum):
            spec = path(RingConfig(3, 1.0), ModelKind.scalar())
            assert spec.rate(0) == pytest.approx(1.0 + 2.0 * s, abs=1e-12)
            assert spec.rate(1) == pytest.approx(1.0 - s, abs=1e-12)
            assert spec.rate(2) == pytest.approx(1.0 - s, abs=1e-12)

    def test_all_ones_limit(self):
        for model in ALL_MODELS:
            spec = oracle_spectrum(RingConfig(4, 0.0), model)
            assert np.allclose(spec.rates, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
            spec = analytic_spectrum(RingConfig(4, 0.0), model)
            assert np.allclose(spec.rates, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


class TestPathEquivalence:
    @pytest.mark.parametrize("n", [2, 5, 10, 25])
    @pytest.mark.parametrize("a", [0.3, 3.7, 50.0])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label())
    def test_modewise_agreement(self, n, a, model):
        config = RingConfig(n, a)
        ana = analytic_spectrum(config, model)
        orc = oracle_spectrum(config, model)
        assert np.max(np.abs(ana.rates - orc.rates)) < 1e-8


class TestAliasCutoff:
    def test_never_below_plateau_edge(self):
        for a in (0.0, 1e-8, 1.0, 50.0, 500.0, 1e4):
            assert alias_cutoff(a) >= math.ceil(a) + 40

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_a(self, bad):
        with pytest.raises(ValueError):
            alias_cutoff(bad)


class TestLargeA:
    # the top of the advertised range, a <= 1e4: the alias cutoff must keep
    # every coefficient that the sum rules and the fold can see
    @pytest.mark.parametrize("a", [500.0, 2000.0, 1e4])
    def test_sum_rules_at_alias_cutoff(self, a):
        table = coeff_table(a, alias_cutoff(a))
        assert abs(table.c_sum() - 1.0) < TOL_SUM
        assert abs(table.d_sum() - 1.0 / 3.0) < TOL_SUM

    @pytest.mark.parametrize("a", [500.0, 2000.0, 1e4])
    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label())
    def test_oracle_and_trace(self, a, n, model):
        config = RingConfig(n, a)
        ana = analytic_spectrum(config, model)
        orc = oracle_spectrum(config, model)
        assert np.max(np.abs(ana.rates - orc.rates)) < 1e-8
        assert abs(ana.trace() - n) < 1e-9
        assert abs(orc.trace() - n) < 1e-9


class TestLargeN:
    # Past the N <= 40 grid the absolute rules (trace within 1e-9, rates above
    # -1e-10) sit below the rounding floor: ulp(1e7) is 1.86e-9.  The bounds
    # that hold are in its units.  Measured at N in {2^20, 2^22, 1e7} and
    # a in {1e-3, 0.5, 1e4}, scalar and vector (delta = 1): traces within 3 ulp(N),
    # oracle rates above -0.25 eps N, analytic rates never below 0 (see the README).
    @staticmethod
    def check_both_routes(n, a, model):
        config = RingConfig(n, a)
        ana = analytic_spectrum(config, model)
        orc = oracle_spectrum(config, model)
        assert np.max(np.abs(ana.rates - orc.rates)) < 1e-8
        for spec in (ana, orc):
            assert abs(spec.trace() - n) <= 4 * math.ulp(n)
            assert spec.rates.min() >= -0.5 * np.finfo(float).eps * n

    def test_both_routes_at_five_million(self):
        self.check_both_routes(5_000_000, 0.5, ModelKind.scalar())

    def test_both_routes_at_the_ceiling(self):
        # N = 1e7, the largest admitted ring; measured: agreement 4.7e-10,
        # both traces exact, smallest oracle rate -0.21 eps N
        self.check_both_routes(10**7, 0.5, ModelKind.scalar())

    def test_vector_both_routes_at_two_to_the_twenty(self):
        # measured: trace within 1 ulp(N), smallest oracle rate -0.0026 eps N,
        # route agreement 6.4e-13
        self.check_both_routes(2**20, 1e4, ModelKind.vectorial(1.0))

    def test_vector_both_routes_at_two_to_the_twenty_two(self):
        # the aligned-dipole kernel on 2^21 + 1 separations; measured: trace
        # within 1 ulp(N), smallest oracle rate -0.0024 eps N, agreement 2.4e-12
        self.check_both_routes(2**22, 1e4, ModelKind.vectorial(1.0))


def _looped_rates(n, a, model):
    # per-mode reference fold: exact fsum over the aliases k - m N
    n_cut = alias_cutoff(a)
    table = coeff_table(a, n_cut)
    cos2 = math.cos(model.delta) ** 2 if model.is_vectorial else 0.0
    rates = []
    for k in range(n):
        idx = [abs(k - m * n) for m in range(-(n_cut // n) - 2, n_cut // n + 3)
               if abs(k - m * n) <= n_cut]
        if model.is_vectorial:
            terms = [0.75 * ((1 + cos2) * table.c[i] + (1 - 3 * cos2) * table.d[i])
                     for i in idx]
        else:
            terms = [table.c[i] for i in idx]
        rates.append(n * math.fsum(terms))
    return np.array(rates)


class TestFold:
    @pytest.mark.parametrize("n", [2, 3, 7, 64, 500])
    @pytest.mark.parametrize("a", [0.3, 3.7, 50.0])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label())
    def test_matches_looped_fsum(self, n, a, model):
        # the vectorised fold sums in index order rather than exactly; a
        # double-precision sum of at most 2 n_cut + 1 terms, each below
        # 1, stays within a few hundred ulp of the exact sum
        spec = analytic_spectrum(RingConfig(n, a), model)
        assert np.max(np.abs(spec.rates - _looped_rates(n, a, model))) <= n * 1e-15


class TestSpectrumInvariants:
    @pytest.mark.parametrize("n", [2, 3, 10, 16, 40])
    @pytest.mark.parametrize("a", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label())
    def test_reflection_trace_positivity(self, n, a, model):
        for path in (analytic_spectrum, oracle_spectrum):
            spec = path(RingConfig(n, a), model)
            assert abs(spec.trace() - n) < 1e-9
            assert spec.rates.min() >= -1e-10
            for k in range(n):
                assert spec.rate(k) == pytest.approx(spec.rate(n - k), abs=1e-12)

    def test_signed_view(self):
        spec = analytic_spectrum(RingConfig(10, 2.0), ModelKind.scalar())
        assert spec.signed_indices().tolist() == list(range(-5, 5))
        assert spec.rate(-3) == spec.rates[7]
        spec5 = analytic_spectrum(RingConfig(5, 2.0), ModelKind.scalar())
        assert spec5.signed_indices().tolist() == [-2, -1, 0, 1, 2]

    def test_dicke_limit(self):
        for model in (ModelKind.scalar(), ModelKind.vectorial(0.0), ModelKind.vectorial(0.6)):
            spec = analytic_spectrum(RingConfig(10, 1e-8), model)
            assert abs(spec.rate(0) - 10.0) < 1e-6
            assert np.max(spec.rates[1:]) < 1e-6

    @pytest.mark.parametrize("a", [0.3, 3.7, 5.0])
    def test_dark_modes(self, a):
        spec = analytic_spectrum(RingConfig(40, a), ModelKind.scalar())
        first_dark = math.floor(a + 10.0) + 1
        for k in range(first_dark, 21):
            assert spec.rate(k) < 1e-6

    def test_magic_angle_equals_scalar(self):
        for n, a in [(6, 1.0), (10, 3.7), (25, 50.0)]:
            config = RingConfig(n, a)
            vec = analytic_spectrum(config, ModelKind.vectorial(MAGIC_DELTA))
            sca = analytic_spectrum(config, ModelKind.scalar())
            assert np.max(np.abs(vec.rates - sca.rates)) < 1e-12


class TestContinuousLimit:
    def test_dicke_delta(self):
        for k in range(-10, 11):
            expect = 20.0 if k == 0 else 0.0
            assert continuous_limit_rate(20, 0.0, k) == expect

    def test_large_ring_plumbing(self):
        assert continuous_limit_rate(1000, 5.0, 0) == pytest.approx(
            1000.0 * coeff_c(0, 5.0), abs=1e-12
        )

    def test_single_alias_regime(self):
        spec = analytic_spectrum(RingConfig(20, 3.0), ModelKind.scalar())
        for k in range(-10, 11):
            assert abs(spec.rate(k) - continuous_limit_rate(20, 3.0, k)) < 1e-9

    def test_vectorial_variant(self):
        # aligned-dipole single-winding rate at the magic angle is scalar
        v = continuous_limit_rate(12, 4.0, 3, model=ModelKind.vectorial(MAGIC_DELTA))
        assert v == pytest.approx(continuous_limit_rate(12, 4.0, 3), rel=1e-12)

    def test_k_range_validation(self):
        with pytest.raises(ValueError):
            continuous_limit_rate(10, 1.0, 6)
        with pytest.raises(ValueError):
            continuous_limit_rate(3, 1.0, -2)

    @pytest.mark.parametrize("model", [None, ModelKind.vectorial(0.0)],
                             ids=["scalar", "vectorial"])
    @pytest.mark.parametrize("a, k", [(-1.0, 0), (2e4, 0), (1.0, 2.5)])
    def test_argument_validation_both_models(self, model, a, k):
        with pytest.raises(ValueError):
            continuous_limit_rate(10, a, k, model=model)


class TestSubradiantEdge:
    def test_frozen_values(self):
        # N=10, d/lambda = 0.3; exact = 10 c_5(3), mpmath 0.0072901145829881615
        edge = subradiant_edge(10, 0.3)
        assert edge.exact == pytest.approx(0.0072901145829882, abs=1e-12)
        assert edge.asymptotic == pytest.approx(
            (math.e * 0.3) ** 10 / math.sqrt(20.0 * math.pi), abs=1e-15
        )
        assert edge.exact_ring == pytest.approx(0.0083917803331881, abs=1e-12)

    def test_exact_is_coefficient_rate(self):
        edge = subradiant_edge(12, 0.25)
        assert edge.exact == pytest.approx(12.0 * coeff_c(6, 3.0), abs=1e-15)

    def test_vanishes_with_spacing(self):
        edge = subradiant_edge(10, 1e-3)
        assert 0.0 <= edge.exact < 1e-20
        assert 0.0 < edge.asymptotic < 1e-20

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even atom count"):
            subradiant_edge(9, 0.3)

    @pytest.mark.parametrize("n, d", [(20000, 0.4), (1000, 9.0), (200, 49.0),
                                      pytest.param(np.int64(200), 49.0, id="int64-200-49.0")])
    def test_estimate_past_float_range_is_infinite(self, n, d):
        # (e d/lambda)^N overflows; the estimate is inf, with no exception or warning
        edge = subradiant_edge(n, d)
        assert edge.asymptotic == math.inf
        assert math.isfinite(edge.exact) and math.isfinite(edge.exact_ring)

    def test_numpy_atom_count_gives_floats(self):
        edge = subradiant_edge(np.int64(16), 0.1)
        assert all(type(x) is float for x in edge)
        assert edge == subradiant_edge(16, 0.1)

    def test_spacing_validation(self):
        with pytest.raises(ValueError):
            subradiant_edge(10, 0.0)

    def test_suppression_slope_where_exponent_applies(self):
        # at d/lambda = 0.1 the closed-form exponent ln(e d/lambda) holds:
        # the fitted slope comes out within 5%
        ns = np.arange(16, 25, 2)
        lnr = np.array([math.log(subradiant_edge(int(n), 0.1).exact) for n in ns])
        slope = float(np.polyfit(ns, lnr, 1)[0])
        target = 1.0 + math.log(0.1)
        assert abs(slope / target - 1.0) < 0.05

    def test_exponent_overestimates_at_wider_spacing(self):
        # at d/lambda = 0.3 the exact edge mode decays markedly faster
        # than the closed form: at N=20 the estimate is ~5.3x too large,
        # and the fitted slope is near -0.319, not ln(0.3 e) = -0.204
        edge = subradiant_edge(20, 0.3)
        assert 5.0 < edge.asymptotic / edge.exact < 5.6
        ns = np.arange(16, 25, 2)
        lnr = np.array([math.log(subradiant_edge(int(n), 0.3).exact) for n in ns])
        slope = float(np.polyfit(ns, lnr, 1)[0])
        assert slope == pytest.approx(-0.318889, abs=5e-4)


class TestLargeAVectorEstimate:
    def test_printed_arithmetic(self):
        # (3N/8a) [1 + cos^2 d + (1 - 3 cos^2 d)(k^2 - 1/4)/a^2]
        val = large_a_vector_estimate(10, 100.0, 0, 0.0)
        assert val == pytest.approx(0.0375 * (2.0 + 2.0 * 0.25 / 1e4), abs=1e-15)
        val = large_a_vector_estimate(10, 100.0, 4, math.pi / 2)
        assert val == pytest.approx(0.0375 * (1.0 + 15.75 / 1e4), abs=1e-15)

    def test_numpy_mode_index_gives_float(self):
        val = large_a_vector_estimate(10, 50.0, np.int64(-3), 0.3)
        assert type(val) is float
        assert val == large_a_vector_estimate(10, 50.0, 3, 0.3)

    def test_magic_angle_plateau(self):
        # second term cancels, leaving the scalar plateau N/(2a)
        val = large_a_vector_estimate(10, 40.0, 3, MAGIC_DELTA)
        assert val == pytest.approx(10.0 / 80.0, rel=1e-12)

    @pytest.mark.parametrize("n", [6, 10])
    def test_tracks_single_winding_rate(self, n):
        a = 5.0 * n
        for delta in (0.0, math.pi / 4, math.pi / 2):
            model = ModelKind.vectorial(delta)
            for k in range(0, n // 2 + 1):
                est = large_a_vector_estimate(n, a, k, delta)
                ref = continuous_limit_rate(n, a, k, model=model)
                assert abs(est - ref) / abs(ref) <= 0.20

    def test_validation(self):
        with pytest.raises(ValueError):
            large_a_vector_estimate(10, 0.5, 0, 0.0)
        with pytest.raises(ValueError):
            large_a_vector_estimate(10, 3.0, 3, 0.0)
        with pytest.raises(ValueError):
            large_a_vector_estimate(10, 100.0, 0, -0.3)


def test_oracle_memory_is_linear_in_n():
    # the circulant is held as its first row: at N = 4096 a dense matrix
    # alone would take 128 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        oracle_spectrum(RingConfig(4096, 50.0), ModelKind.scalar())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_signed_indices_memory_is_one_int_array():
    # N int64 labels are 7.6 MiB at N = 1e6; a list of N Python ints peaks at 38 MiB
    import tracemalloc

    spec = analytic_spectrum(RingConfig(10**6, 0.0), ModelKind.scalar())
    tracemalloc.start()
    try:
        ks = spec.signed_indices()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert ks[0] == -(10**6 // 2) and ks[-1] == 10**6 // 2 - 1 and len(ks) == 10**6


def test_concurrent_evaluation_matches_serial():
    # pure functions + cached tables must be safe under threads
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(n, a, m) for n in (4, 10, 25) for a in (0.7, 12.0) for m in ALL_MODELS]

    def rates(job):
        n, a, model = job
        return analytic_spectrum(RingConfig(n, a), model).rates

    serial = [rates(j) for j in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(rates, jobs))
    for s, t in zip(serial, threaded):
        assert np.array_equal(s, t)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    a=st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
    delta=st.one_of(st.none(), st.floats(min_value=0.0, max_value=math.pi / 2)),
)
def test_oracle_invariants_random(n, a, delta):
    model = ModelKind.scalar() if delta is None else ModelKind.vectorial(delta)
    spec = oracle_spectrum(RingConfig(n, a), model)
    assert abs(spec.trace() - n) < 1e-9
    assert spec.rates.min() >= -1e-10
    worst = max(abs(spec.rate(k) - spec.rate(n - k)) for k in range(n))
    assert worst < 1e-12
