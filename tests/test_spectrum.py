"""Spectrum tests: closed-form oracles, path equivalence, asymptotics.

Hand oracles: the two-atom ring (rates 1 +- sin(2a)/2a), the equilateral
triangle, and the all-ones Dicke matrix.  Frozen values are
mpmath-checked (mp.quad of besselj at dps=30).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_specfun import closed_form_reference

from ringdecay import ring_model, specfun, spectrum
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
    lattice_conversion,
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


@functools.cache
def reference_table(a, depth):
    """c_n(a), d_n(a) for n = 0..depth from the 1-D closed forms of the specfun tests."""
    return closed_form_reference(a, depth)


def reference_mix(c, d, k, model):
    """Rate per atom at row k: c_k, or the aligned-dipole mix of c_k and d_k."""
    if model is None or not model.is_vectorial:
        return c[k]
    cos2 = math.cos(model.delta) ** 2
    return 0.75 * ((1.0 + cos2) * c[k] + (1.0 - 3.0 * cos2) * d[k])


@pytest.fixture
def lane_passes(monkeypatch):
    """The lanes of each ``specfun._closed_form_lanes`` pass, one list per pass.

    Each pass holds one lane alone, or lanes whose padded array and sweeps
    stay within ``specfun._BLOCK_ELEMENTS``.
    """
    passes = []
    lanes = specfun._closed_form_lanes

    def recorded(block, sweeps):
        sizes = [sweep.size for sweep in sweeps]
        assert len(block) == 1 or len(block) * max(sizes) + sum(sizes) <= specfun._BLOCK_ELEMENTS
        passes.append(list(block))
        return lanes(block, sweeps)

    monkeypatch.setattr(specfun, "_closed_form_lanes", recorded)
    return passes


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


class TestDarkTail:
    """Past alias_cutoff(a) the spectrum prints 0; the single-winding rate resolves the mode.

    At N = 200, d/lambda = 0.1 (a = 20.0008..., cutoff 74) both aliases of
    k = 90, the orders 90 and -110, lie past the cutoff.
    """

    # N c_90(a) by mpmath at dps = 60, from the 1F2 form of c_n = int_0^1 J_2n(2at) dt:
    #   mp.mp.dps = 60; b, nu = 2 * mp.mpf(a), 180
    #   200 * (b / 2)**nu / (mp.gamma(nu + 1) * (nu + 1)) \
    #       * mp.hyp1f2((nu + 1) / mp.mpf(2), nu + 1, (nu + 3) / mp.mpf(2), -b**2 / 4)
    RATE_90 = 9.4182989152463069381142495296e-97

    def test_k90_is_zero_in_the_spectrum_and_resolved_single_winding(self):
        a = lattice_conversion(200, 0.1)
        assert 90 > alias_cutoff(a)
        assert analytic_spectrum(RingConfig(200, a), ModelKind.scalar()).rate(90) == 0.0
        rate = continuous_limit_rate(200, a, 90)
        assert abs(rate / self.RATE_90 - 1.0) <= 1e-13


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
    # Reflection symmetry |rate_k - rate_{N-k}| is exact on the analytic route and
    # measured at most 0.28 eps N on the oracle route at the points pinned here.
    @staticmethod
    def check_both_routes(n, a, model):
        config = RingConfig(n, a)
        ana = analytic_spectrum(config, model)
        orc = oracle_spectrum(config, model)
        assert np.max(np.abs(ana.rates - orc.rates)) < 1e-8
        for spec in (ana, orc):
            assert abs(spec.trace() - n) <= 4 * math.ulp(n)
            assert spec.rates.min() >= -0.5 * np.finfo(float).eps * n
            assert np.max(np.abs(spec.rates[1:] - spec.rates[:0:-1])) <= np.finfo(float).eps * n

    def test_both_routes_at_five_million(self):
        self.check_both_routes(5_000_000, 0.5, ModelKind.scalar())

    def test_both_routes_at_the_ceiling(self):
        # N = 1e7, the largest admitted ring; measured: agreement 4.7e-10,
        # both traces exact, smallest oracle rate -0.21 eps N
        self.check_both_routes(10**7, 0.5, ModelKind.scalar())

    def test_both_routes_at_a_prime_n(self):
        # N = 999983 is prime, so the oracle's FFT has no small factors;
        # measured: agreement 7.1e-11, both traces exact, smallest oracle
        # rate -0.32 eps N
        self.check_both_routes(999983, 0.5, ModelKind.scalar())

    def test_vector_both_routes_at_a_prime_n(self):
        # measured: agreement 6.4e-13, traces within 1 ulp(N), smallest
        # oracle rate -0.0026 eps N
        self.check_both_routes(999983, 1e4, ModelKind.vectorial(1.0))

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


def one_row_fold(n, a, model):
    """One spectrum's aliased sum as a fold of its row alone: the batched fold's reference."""
    table = coeff_table(a, alias_cutoff(a))
    orders = np.arange(-table.n_max, table.n_max + 1)
    weights = np.array([reference_mix(table.c, table.d, abs(m), model) for m in orders.tolist()])
    return n * np.bincount(orders % n, weights=weights, minlength=n)


BATCH_N = (2, 3, 7, 64, 4095, 4096)
BATCH_A = (0.0, 1e-8, 0.3, 50.0, 2000.0, 1e4)
BATCH_MODELS = (*ALL_MODELS[:3], ModelKind.vectorial(MAGIC_DELTA), ALL_MODELS[3])


class TestBatchedRates:
    """Every (a, model) row of the batched routes has the bits of its public call."""

    @pytest.mark.parametrize("n", BATCH_N)
    def test_rows_equal_public_calls_bit_for_bit(self, n):
        # the analytic weights are formed once for all of BATCH_N
        analytic = spectrum._analytic_rates(BATCH_N, BATCH_A, BATCH_MODELS)[BATCH_N.index(n)]
        oracle = spectrum._oracle_rates(n, BATCH_A, BATCH_MODELS)
        assert analytic.shape == oracle.shape == (len(BATCH_A), len(BATCH_MODELS), n)
        for i, a in enumerate(BATCH_A):
            config = RingConfig(n, a)
            for j, model in enumerate(BATCH_MODELS):
                ana = analytic_spectrum(config, model).rates
                assert np.array_equal(analytic[i, j], ana), (a, model)
                assert np.array_equal(ana, one_row_fold(n, a, model)), (a, model)
                assert np.array_equal(oracle[i, j], oracle_spectrum(config, model).rates), \
                    (a, model)

    def test_every_table_is_one_lane_of_bounded_blocks(self, lane_passes):
        # one lane per a, in order, in blocks within the bound: a = 1e4 is a block alone
        spectrum._analytic_rates(BATCH_N, BATCH_A, BATCH_MODELS)
        assert [lane for block in lane_passes for lane in block] == [(a, alias_cutoff(a))
                                                                     for a in BATCH_A]
        assert lane_passes[-1] == [(1e4, alias_cutoff(1e4))]

    @pytest.mark.parametrize("model", [ALL_MODELS[0], ALL_MODELS[1]], ids=lambda m: m.label())
    def test_one_row_paths_hold_no_extra_n_sized_array(self, model):
        # Peaks in units of one N-sized float64 array at N = 2**20, a = 50, whose
        # table is 109 rows: the fold's bincount is scaled in place (1.0);
        # the kernel takes its chords, sin(x)/x and, for the dipoles, j1(x)/x at
        # N/2 each, and the mirrored row adds N (2.5 scalar, 3.06 dipole); the
        # oracle holds no mirrored row, only the half kernel, hfft's conjugated
        # and complex copies of it, and the N rates (3.0 scalar, 3.06 dipole).
        import tracemalloc

        config = RingConfig(2**20, 50.0)
        analytic_spectrum(config, model)
        for path, bound in ((analytic_spectrum, 1.25), (ring_model.coupling_matrix, 3.25),
                            (oracle_spectrum, 3.25)):
            tracemalloc.start()
            try:
                path(config, model)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound * 8 * 2**20, path.__name__


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

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label())
    def test_trace_is_the_exact_sum_of_the_rates(self, model):
        for n, a in [(2, 0.0), (10, 1.0), (101, 3.7), (4096, 50.0)]:
            for path in (analytic_spectrum, oracle_spectrum):
                spec = path(RingConfig(n, a), model)
                trace = spec.trace()
                assert type(trace) is float
                assert trace == math.fsum([float(rate) for rate in spec.rates])

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

    @pytest.mark.parametrize("n", [2, 3, 8, 10, 12, 20, 64, 199])
    def test_short_table_matches_cutoff_table(self, n):
        # Where N//2 < alias_cutoff(a) the rate reads a table of only N//2 + 1
        # rows, whose c_k and d_k match the cutoff-depth table's to 4 eps.  The
        # grid ends at a = 1e4, where such a short table misses most of the
        # sum rules' weight.  One sequence call per (a, model) reads every k;
        # test_sequence_forms_equal_scalar_calls pins it to the scalar calls.
        eps = np.finfo(float).eps
        for a in np.geomspace(1e-3, 1e4).tolist():
            ref = coeff_table(a, max(alias_cutoff(a), n // 2))
            for delta in (None, 0.0, math.pi / 4, math.pi / 2):
                model = ModelKind.scalar() if delta is None else ModelKind.vectorial(delta)
                got = continuous_limit_rate(n, a, range(n // 2 + 1), model=model)
                for k, rate in enumerate(got.tolist()):
                    c, d = ref.c_at(k), ref.d_at(k)
                    if delta is None:
                        expect = n * c
                    else:
                        cos2 = math.cos(delta) ** 2
                        expect = n * 0.75 * ((1.0 + cos2) * c + (1.0 - 3.0 * cos2) * d)
                    assert abs(rate - expect) <= 4.0 * eps * n, (a, delta, k)

    @pytest.mark.parametrize("model", [None, ModelKind.vectorial(0.9)], ids=["scalar", "vector"])
    def test_sequence_forms_equal_scalar_calls(self, model):
        # N = 300 puts |k| = 100 and 150 past alias_cutoff(a) at the small a
        a_values, ks = [0.0, 1e-60, 0.7, 3.0, 61.0], [-150, 0, 2, 100, 150, -2]
        rates = continuous_limit_rate(300, a_values, ks, model=model)
        assert rates.shape == (5, 6)
        assert rates.tolist() == [[continuous_limit_rate(300, a, k, model=model) for k in ks]
                                  for a in a_values]
        assert np.array_equal(continuous_limit_rate(300, 3.0, ks, model=model), rates[3])
        assert np.array_equal(continuous_limit_rate(300, a_values, 2, model=model), rates[:, 2])
        assert np.array_equal(continuous_limit_rate(300, np.array(a_values), np.array(ks),
                                                    model=model), rates)

    @pytest.mark.parametrize("cap", [None, 1, 700, 5000])
    @pytest.mark.parametrize("n", [300, 2001])
    @pytest.mark.parametrize("model", [None, ModelKind.vectorial(0.9)], ids=["scalar", "vector"])
    def test_sequence_form_equals_one_table_per_read(self, monkeypatch, model, n, cap):
        # Each rate is N times the c/d mix at row |k| of its own table of depth
        # max(|k|, min(N//2, alias_cutoff(a))), built alone by the test's 1-D
        # closed forms.  The small a put |k| = 100 and N//2 past the cutoff;
        # the patched caps move the seams between the library's lane blocks.
        if cap is not None:
            monkeypatch.setattr(specfun, "_BLOCK_ELEMENTS", cap)
        rng = np.random.default_rng(20250117)
        half = n // 2
        a_values = [0.0, 1e-60, 3e-50, 0.7, 3.0, 61.0, 1e4,
                    *(10.0 ** rng.uniform(-3.0, 4.0, 6)).tolist()]
        ks = [-half, -100, -2, 0, 1, 2, 100, half, *rng.integers(-half, half, 3).tolist()]
        expected = []
        for a in a_values:
            depths = [max(abs(k), min(half, alias_cutoff(a))) for k in ks]
            expected.append([n * reference_mix(*reference_table(a, depth), abs(k), model)
                             for k, depth in zip(ks, depths)])
        assert np.array_equal(continuous_limit_rate(n, a_values, ks, model=model), expected)

    def test_models_share_one_single_winding_read(self, lane_passes):
        # one call mixes every model from one read; row j is the model-j public call
        a_values, ks = [0.0, 0.7, 61.0], [0, 2, 100, 150]
        rates = spectrum._single_winding_rates(300, a_values, ks, ALL_MODELS)
        assert rates.shape == (3, 4, 4) and len(lane_passes) == 1
        for j, model in enumerate(ALL_MODELS):
            assert np.array_equal(rates[:, j],
                                  continuous_limit_rate(300, a_values, ks, model=model))

    def test_sequence_shapes(self):
        assert type(continuous_limit_rate(10, 3.0, 2)) is float
        assert continuous_limit_rate(10, [3.0], 2).shape == (1,)
        assert continuous_limit_rate(10, 3.0, (2,)).shape == (1,)
        assert continuous_limit_rate(10, [], [0, 1]).shape == (0, 2)
        assert continuous_limit_rate(10, [1.0, 2.0], []).shape == (2, 0)

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


class TestValidatedOnce:
    """Each size parameter is checked once, at the public boundary it enters by."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = specfun._check_size_parameter

        def counted(a):
            calls.append(a)
            return check(a)

        for module in (specfun, ring_model, spectrum):
            monkeypatch.setattr(module, "_check_size_parameter", counted)
        return calls

    def test_analytic_spectrum_checks_no_a_of_its_own(self, checks):
        config = RingConfig(12, 7.3)  # RingConfig is the boundary
        assert checks == [7.3]
        for model in ALL_MODELS:
            analytic_spectrum(config, model)
            assert checks == [7.3]

    def test_subradiant_edge_checks_no_a_of_its_own(self, checks):
        # lattice_conversion has checked N and d/lambda, and both a lie in range
        subradiant_edge(12, 0.25)
        assert checks == []

    def test_coeff_table_checks_a_once(self, checks):
        coeff_table(7.3, 80)
        assert checks == [7.3]

    def test_continuous_limit_rate_checks_each_a_once(self, checks):
        continuous_limit_rate(300, [0.5, 7.3, 61.0], [0, 1, 100, 150])
        assert checks == [0.5, 7.3, 61.0]


class TestSubradiantEdge:
    def test_frozen_values(self):
        # N=10, d/lambda = 0.3; exact = 10 c_5(3), mpmath 0.0072901145829881615
        edge = subradiant_edge(10, 0.3)
        assert edge.exact == pytest.approx(0.0072901145829882, abs=1e-12)
        assert edge.asymptotic == pytest.approx(
            (math.e * 0.3) ** 10 / math.sqrt(20.0 * math.pi), abs=1e-15
        )
        assert edge.exact_ring == pytest.approx(0.0083917803331881, abs=1e-12)

    @pytest.mark.parametrize("n, d", [(10, 0.3), (12, 0.25), (2, 0.45), (100, 0.1)])
    def test_exact_is_coefficient_rate(self, n, d):
        edge = subradiant_edge(n, d)
        assert edge.exact == n * coeff_c(n // 2, n * d)
        assert edge.exact_ring == n * coeff_c(n // 2, lattice_conversion(n, d))

    def test_both_tables_are_one_lane_pass(self, lane_passes):
        n, d = 12, 0.25
        subradiant_edge(n, d)
        assert lane_passes == [[(n * d, n // 2), (lattice_conversion(n, d), n // 2)]]

    @pytest.mark.parametrize("n, d", [(2, 0.45), (16, 0.3), (100, 0.1), (200000, 0.01)])
    def test_exact_fields_are_edge_terms(self, n, d):
        edge = subradiant_edge(n, d)
        assert [edge.exact, edge.exact_ring] == spectrum._edge_terms(
            (n, n), (n * d, lattice_conversion(n, d)))
        assert [edge.exact] == spectrum._edge_terms((n,), (n * d,))

    @pytest.mark.parametrize("n, d", [(16, 0.3), (24, 0.3), (100, 0.1)])
    def test_fields_are_half_the_spectrum_edge_rate(self, n, d):
        # the edge mode has the two aliases +-N/2; each field is one of them
        edge = subradiant_edge(n, d)
        for a, field in ((n * d, edge.exact), (lattice_conversion(n, d), edge.exact_ring)):
            rate = analytic_spectrum(RingConfig(n, a), ModelKind.scalar()).rate(n // 2)
            assert rate / field == pytest.approx(2.0, rel=1e-14, abs=0.0)

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
    # functions that hold no module state must be safe under threads
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
