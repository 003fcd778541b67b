"""Miller-sweep and coefficient-integral tests.

Oracles: an independent in-test power series (+ bisection) for the J0
zero, the Jacobi-Anger identities, scipy for wide-grid Bessel
cross-checks of the sweep, scipy quadrature of scipy's J_2n for
coefficients across the supported range, and mpmath quadrature for
coefficient spot values.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ringdecay import (
    TOL_SUM,
    alias_cutoff,
    coeff_c,
    coeff_d,
    coeff_table,
    series_admitted,
    specfun,
)
from ringdecay.specfun import _miller_sweep

# mpmath (mp.quad of besselj, dps=30) reference values, frozen:
#   c_n(a) = int_0^1 J_{2n}(2at) dt,  d_n(a) = int_0^1 t^2 J_{2n}(2at) dt
MP_COEFF_SPOTS = [
    # (n, a, c_ref, d_ref)
    (0, 1.0, 0.7128851465985133, 0.1661138120141173),
    (3, 5.0, 0.13314301093822276, 0.06899408770112238),
    (7, 12.5, 0.03924414336222932, 0.012514826131044682),
    (25, 50.0, 0.010888067460859638, 0.0033770731398016993),
]


def j0_power_series(x):
    # independent of the library: plain ascending series, fine for x < 4
    term = 1.0
    total = 1.0
    q = -(x * x) / 4.0
    for m in range(1, 60):
        term *= q / (m * m)
        total += term
    return total


def miller_sweep_scalar_loop(x, top):
    """``_miller_sweep`` as one scalar product and one abs() per step: the reference."""
    nu = max(top, math.ceil(x))
    start = nu + specfun._MILLER_PAD + math.ceil(math.sqrt(specfun._MILLER_ACC * (nu + 1)))
    start += start % 2
    vals = [0.0] * (start + 1)
    jp, jc = 0.0, 1e-30
    vals[start] = jc
    rescaled = []
    two_over_x = 2.0 / x
    for m in range(start, 0, -1):
        jp, jc = jc, m * two_over_x * jc - jp
        if abs(jc) > specfun._RESCALE_LIMIT:
            jc *= specfun._RESCALE
            jp *= specfun._RESCALE
            rescaled.append(m)
        vals[m - 1] = jc
    j = np.array(vals)
    for m in rescaled[-2:]:
        j[m:] *= specfun._RESCALE
    return j / (j[0] + 2.0 * math.fsum(j[2::2]))


class TestMillerSweep:
    # _miller_sweep(x, top) is the one Bessel evaluator behind every
    # coefficient; the closed-form lanes call it only at Z = 2a with
    # 2e-50 <= Z <= 2e4 and top = 2 depth + 3
    def test_first_j0_zero(self):
        # bracket the first sign change of the independent series near 2.4
        lo, hi = 2.0, 3.0
        assert j0_power_series(lo) > 0 > j0_power_series(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if j0_power_series(mid) > 0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        assert abs(x_star - 2.404825557695773) < 1e-12  # sanity on the oracle
        assert abs(_miller_sweep(x_star, 0)[0]) < 1e-10

    @pytest.mark.parametrize("x", [0.5, 7.3, 40.0, 2e4])
    def test_even_order_normalization(self, x):
        # J_0(x) + 2 sum_m J_{2m}(x) = 1 is how the sweep normalizes, so the
        # Jacobi-Anger identities are the independent checks here:
        #   cos x = J_0 + 2 sum_k (-1)^k J_{2k},  sin x = 2 sum_k (-1)^k J_{2k+1}
        j = _miller_sweep(x, 0)
        sign = np.where(np.arange(len(j)) // 2 % 2 == 0, 1.0, -1.0)
        assert abs(j[0] + 2.0 * math.fsum(j[2::2]) - 1.0) < 1e-10
        assert abs(2.0 * math.fsum(sign[::2] * j[::2]) - j[0] - math.cos(x)) < 1e-10
        assert abs(2.0 * math.fsum(sign[1::2] * j[1::2]) - math.sin(x)) < 1e-10

    def test_against_scipy_grid(self):
        # x = 2e-50 and 2e4 are the ends of the Z = 2a range, and top is
        # the sweep height of a full table at a = 1e4
        top = 2 * alias_cutoff(1e4) + 3
        orders = [0, 1, 2, 3, 5, 10, 21, 50, 64, 128, 180, 360, 5000,
                  *range(19990, 20101), top]
        xs = [2e-50, 1e-8, 1e-3, 0.3, 1.0, 2.405, 5.0, 7.9, 8.1, 12.0, 31.4,
              64.0, 100.0, 129.5, 400.0, 1000.0, 10000.0, 2e4]
        worst = 0.0
        for x in xs:
            j = _miller_sweep(x, top)
            worst = max(worst, max(abs(j[n] - float(special.jv(n, x))) for n in orders))
        assert worst <= 1e-12

    def test_deep_tail_underflow_is_zero(self):
        # far below double range the correct double answer is 0
        assert _miller_sweep(50.0, 1000)[1000] == 0.0

    # the ends of the Z = 2a range, a dense log grid between them, and the
    # full-table top at a = 1e4 that test_against_scipy_grid sweeps to
    @pytest.mark.parametrize("x", [2e-50, *np.geomspace(2e-50, 2e4, 37).tolist()[1:-1],
                                   2.405, 7.9, 8.1, 129.5, 2e4])
    def test_matches_scalar_loop_bit_for_bit(self, x):
        tops = {0, 1, 2 * alias_cutoff(x / 2) + 3, 2 * alias_cutoff(1e4) + 3}
        for top in sorted(tops):
            assert np.array_equal(_miller_sweep(x, top), miller_sweep_scalar_loop(x, top))


def closed_form_reference(a, n_max):
    """One table's closed forms as a single 1-D pass: the reference for the lanes."""
    if a < specfun._A_TINY:  # the a = 0 values
        c = np.zeros(n_max + 1)
        c[0] = 1.0
        d = np.zeros(n_max + 1)
        d[0] = 1.0 / 3.0
        return c, d
    z = 2.0 * a
    j = _miller_sweep(z, 2 * n_max + 3)
    tail = np.cumsum(j[1::2][::-1])[::-1]
    c = tail[:n_max + 1] / a
    nu = np.arange(0.0, 2 * n_max + 1, 2.0)
    d = ((nu - 1.0) * (2.0 * (nu + 1.0) * tail[1:n_max + 2] + z * j[2:2 * n_max + 3:2])
         + z * z * j[1:2 * n_max + 2:2]) / z**3
    return c, d


# (a, depth) lanes: a = 0 and a < 1e-50 (no sweep), a = 1e-3 at top 403
# (its sweep rescales), the a = 1e4 end with shallow and cutoff-deep
# tables, mixed depths at one a, and two a where z*z*z and z**3 round
# apart (z = 2a).  Three lanes at a = 1e4 outgrow one block, so the lanes
# cross block seams.
LANES = [(0.0, 3), (1e-60, 40), (1e-3, 200), (1e-3, 0), (0.37, 0), (5.0, 2), (5.0, 60),
         (5.0, 5), (240.0, 6), (1e4, 5), (1e4, alias_cutoff(1e4)), (2000.0, 1), (1e4, 0),
         (3e-50, 7), (1e4, 3), (7.9, 150), (0.0, 0), (1e4, 5), (3.0589983033553536, 9),
         (43.27670679050534, 44)]


class TestClosedFormLanes:
    @pytest.mark.parametrize("a, depth", LANES)
    def test_one_lane_equals_reference_bit_for_bit(self, a, depth):
        c, d = specfun._closed_form_tables([(a, depth)])[0]
        c_ref, d_ref = closed_form_reference(a, depth)
        assert np.array_equal(c, c_ref) and np.array_equal(d, d_ref)

    def test_rescaling_lane_rescales(self):
        # the lane at a = 1e-3, depth 200 sweeps from above order 403 at x = 2e-3,
        # and its running pair passes 1e250 more than twice on the way down
        x, rescales = 2e-3, 0
        jp, jc = 0.0, 1e-30
        for m in range(specfun._miller_start(x, 403), 0, -1):
            jp, jc = jc, m * (2.0 / x) * jc - jp
            if abs(jc) > specfun._RESCALE_LIMIT:
                jc, jp, rescales = jc * specfun._RESCALE, jp * specfun._RESCALE, rescales + 1
        assert rescales > 2

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Each ``_closed_form_lanes`` call as (lanes, sweep sizes, c, d), in call order."""
        calls = []
        lanes = specfun._closed_form_lanes

        def recorded(block, sweeps):
            c, d = lanes(block, sweeps)
            calls.append((block, [sweep.size for sweep in sweeps], c, d))
            return c, d

        monkeypatch.setattr(specfun, "_closed_form_lanes", recorded)
        return calls

    @staticmethod
    def assert_blocks_cover(blocks, lanes):
        """The blocks hold the lanes in order, each one lane alone or within the bound."""
        assert [lane for block, _, _, _ in blocks for lane in block] == list(lanes)
        for block, sizes, _, _ in blocks:
            # the padded array, as wide as the widest sweep, and the sweeps it holds
            padded = len(block) * max(sizes)
            assert len(block) == 1 or padded + sum(sizes) <= specfun._BLOCK_ELEMENTS

    @staticmethod
    def read_lanes():
        """Every lane of LANES through ``_closed_form_reads``, as one row read at order 0."""
        a_values, depths = zip(*LANES)
        return specfun._closed_form_reads(list(a_values), np.array(depths)[:, None], np.array([0]))

    @pytest.mark.parametrize("cap", [None, 1, 700, 5000])
    def test_lanes_equal_one_lane_builds_bit_for_bit(self, monkeypatch, blocks, cap):
        if cap is not None:
            monkeypatch.setattr(specfun, "_BLOCK_ELEMENTS", cap)
        c, d = self.read_lanes()
        assert len(blocks) > 1  # at least one block seam
        self.assert_blocks_cover(blocks, LANES)
        rows = [(c_row, d_row) for _, _, c, d in blocks for c_row, d_row in zip(c, d)]
        for (a, depth), (c_row, d_row), read in zip(LANES, rows, zip(c[:, 0], d[:, 0])):
            c_ref, d_ref = closed_form_reference(a, depth)
            assert np.array_equal(c_row[:depth + 1], c_ref), (a, depth)
            assert np.array_equal(d_row[:depth + 1], d_ref), (a, depth)
            assert read == (c_ref[0], d_ref[0]), (a, depth)

    def test_tables_equal_coeff_table_bit_for_bit(self, blocks):
        # every (a, n_max) of the grid, in a shuffled order, in bounded blocks
        pairs = [(a, n_max) for a in (0.0, 1e-8, 0.3, 5.0, 50.0, 2000.0, 1e4)
                 for n_max in (0, 1, 64, alias_cutoff(a))]
        random.Random(7).shuffle(pairs)
        tables = specfun._closed_form_tables(pairs)
        assert len(blocks) > 1
        self.assert_blocks_cover(blocks, pairs)
        assert len(tables) == len(pairs)
        for (a, n_max), (c, d) in zip(pairs, tables):
            table = coeff_table(a, n_max)
            assert np.array_equal(c, table.c) and np.array_equal(d, table.d), (a, n_max)

    def test_blocks_stay_within_the_cap(self, blocks):
        self.read_lanes()
        self.assert_blocks_cover(blocks, LANES)
        # the bound still lets small lanes share a block
        assert any(len(block) > 1 for block, _, _, _ in blocks)

    def test_one_miller_start_per_swept_lane(self, monkeypatch):
        # a lane below _A_TINY runs no sweep; every other lane computes its start once
        starts = []
        start = specfun._miller_start
        monkeypatch.setattr(specfun, "_miller_start",
                            lambda x, top: starts.append((x, top)) or start(x, top))
        swept = [(2.0 * a, 2 * depth + 3) for a, depth in LANES if a >= specfun._A_TINY]
        specfun._closed_form_tables(LANES)
        assert starts == swept
        starts.clear()
        self.read_lanes()
        assert starts == swept

    def test_mixed_table_set_memory_is_bounded(self):
        # 100 shallow lanes and one cutoff-deep lane at a = 1e4: padded to the
        # deep lane's width in one pass, the set would peak near 50 MiB
        import tracemalloc

        pairs = [(5.0, 64)] * 100 + [(1e4, alias_cutoff(1e4))]
        specfun._closed_form_tables(pairs)
        tracemalloc.start()
        try:
            specfun._closed_form_tables(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_no_reads_run_no_pass(self, blocks):
        for shape in ((0, 3), (2, 0)):
            c, d = specfun._closed_form_reads([1.0] * shape[0], np.zeros(shape, dtype=int),
                                              np.arange(shape[1]))
            assert c.shape == d.shape == shape
        assert specfun._closed_form_tables([]) == [] and blocks == []


class TestCoeffC:
    def test_a_zero(self):
        assert coeff_c(0, 0.0) == 1.0
        assert coeff_c(3, 0.0) == 0.0

    def test_small_a_taylor(self):
        # int_0^1 J_0(0.2 t) dt = 1 - a^2/3 + a^4/20 - O(a^6/252)
        val = coeff_c(0, 0.1)
        assert abs(val - (1.0 - 0.01 / 3.0 + 1e-4 / 20.0)) < 1e-8
        # the two-term truncation differs by the full a^4/20 = 5e-6 term
        assert abs(val - (1.0 - 0.01 / 3.0)) < 5.1e-6

    def test_symmetry_exact(self):
        assert coeff_c(5, 2.0) == coeff_c(-5, 2.0)
        assert coeff_c(5, 2.0, "series") == coeff_c(-5, 2.0, "series")
        assert coeff_d(4, 2.0) == coeff_d(-4, 2.0)

    def test_plateau_at_a50(self):
        # flat region: every |n| <= 40 sits within 30% of 1/(2a)
        plateau = 1.0 / 100.0
        vals = [coeff_c(n, 50.0) for n in range(0, 41)]
        rel = [abs(v - plateau) / plateau for v in vals]
        assert max(rel) < 0.30

    def test_mpmath_spots(self):
        for n, a, c_ref, d_ref in MP_COEFF_SPOTS:
            assert abs(coeff_c(n, a) - c_ref) < 1e-12
            assert abs(coeff_d(n, a) - d_ref) < 1e-12

    def test_series_refusal(self):
        with pytest.raises(ValueError, match="series unstable, use quadrature"):
            coeff_c(0, 20.0, "series")
        with pytest.raises(ValueError, match="series unstable, use quadrature"):
            coeff_d(10, 50.0, "series")
        with pytest.raises(ValueError, match="series unstable, use quadrature"):
            coeff_table(7.0, 60, method="series")  # row 0 refuses: a^2 = 49 >= 0 + 40

    def test_bad_method(self):
        with pytest.raises(ValueError):
            coeff_c(0, 1.0, "quad")

    def test_argument_limits(self):
        with pytest.raises(ValueError):
            coeff_c(10**5 + 1, 1.0)
        with pytest.raises(ValueError):
            coeff_c(0, -0.5)
        with pytest.raises(ValueError):
            coeff_c(0, 2e4)


class TestCoeffD:
    def test_a_zero(self):
        assert coeff_d(0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert coeff_d(2, 0.0) == 0.0

    def test_sum_rule_a5(self):
        # sum_n J_{2n} telescopes to 1, so the d family sums to int t^2 = 1/3
        total = coeff_d(0, 5.0) + 2.0 * math.fsum(coeff_d(n, 5.0) for n in range(1, 41))
        assert abs(total - 1.0 / 3.0) < 1e-9

    def test_smooth_approx_in_window(self):
        # (n^2 - 1/4)/(2 a^3) tracks d_n(50) once n is well inside the
        # plateau edge; closer to n = 0 an endpoint-oscillation term of
        # about 7.7e-4 dominates and the smooth form fails pointwise.
        approx = lambda n: (n * n - 0.25) / (2.0 * 50.0**3)
        rel = [
            abs(coeff_d(n, 50.0) - approx(n)) / abs(approx(n))
            for n in range(32, 43)
        ]
        assert max(rel) < 0.30

    def test_oscillation_dominates_near_origin(self):
        # the smooth form predicts ~ -1e-6 at n = 0; the actual integral
        # carries the endpoint oscillation, two orders of magnitude larger
        val = coeff_d(0, 50.0)
        assert abs(val) > 5e-4
        assert abs(val + 7.7037759766766e-4) < 1e-12  # frozen, mpmath-checked


class TestQuadratureOracle:
    # the library evaluates the integrals in closed form; scipy's adaptive
    # quadrature of scipy's own J_2n is an independent route to the same
    # numbers, from the plateau to past the alias cutoff
    @pytest.mark.parametrize("a", [0.01, 5.0, 200.0, 1e4])
    def test_against_scipy_quad(self, a):
        limit = max(200, int(4 * a))
        worst = 0.0
        for n in {0, int(a // 2), int(a), alias_cutoff(a)}:
            for moment, coeff in ((0, coeff_c), (2, coeff_d)):
                ref, _ = integrate.quad(
                    lambda t: t**moment * special.jv(2 * n, 2.0 * a * t), 0.0, 1.0,
                    limit=limit,
                )
                worst = max(worst, abs(coeff(n, a) - ref))
        assert worst <= 1e-12


class TestSmallA:
    @pytest.mark.parametrize("a", [1e-49, 1e-30, 1e-3])
    def test_closed_form_keeps_digits(self, a):
        # every term of the closed forms keeps its sign as a -> 0, so the
        # default route matches the series to two ulp of 1, d_n included
        for n in range(0, 6):
            assert coeff_c(n, a) == pytest.approx(coeff_c(n, a, "series"), abs=3e-16)
            assert coeff_d(n, a) == pytest.approx(coeff_d(n, a, "series"), abs=3e-16)

    def test_below_threshold_is_a_zero_limit(self):
        # below a = 1e-50 the a = 0 values are exact to far past double
        for a in (1e-51, 1e-200, 5e-324):
            assert coeff_c(0, a) == 1.0
            assert coeff_d(0, a) == 1.0 / 3.0
            assert coeff_c(4, a) == 0.0
            table = coeff_table(a, 40)
            assert table.c_sum() == 1.0
            assert table.d_sum() == 1.0 / 3.0


class TestMethodsAgree:
    @pytest.mark.parametrize("a", [0.0, 0.1, 1.0, 5.0, 20.0, 50.0])
    def test_series_vs_quadrature(self, a):
        worst = 0.0
        for n in range(0, 65):
            if not series_admitted(n, a):
                continue
            worst = max(worst, abs(coeff_c(n, a, "series") - coeff_c(n, a)))
            worst = max(worst, abs(coeff_d(n, a, "series") - coeff_d(n, a)))
        assert worst < 1e-9

    def test_admission_boundary(self):
        # a^2 < 0.5 (2n + 20) + 30
        assert series_admitted(0, 6.3)
        assert not series_admitted(0, 6.4)
        assert series_admitted(64, 10.1)
        assert not series_admitted(64, 10.2)


def series_grid(seed, count):
    """A shuffled grid of admitted (n, a, moment): n in [0, 1e5], a from 1e-49 up to the bound.

    Half the a are log-uniform below sqrt(n + 40), half are the largest
    admitted a there, where the series' terms outgrow the sum the most.
    """
    rng = random.Random(seed)
    grid = []
    while len(grid) < count:
        n = rng.choice((rng.randrange(0, 200), rng.randrange(0, 10**5 + 1)))
        top = math.nextafter(math.sqrt(n + 40), 0.0)
        a = rng.choice((math.exp(rng.uniform(math.log(1e-49), math.log(top))), top))
        if series_admitted(n, a):
            grid.append((n, a, rng.choice((0, 2))))
    top = math.nextafter(math.sqrt(10**5 + 40), 0.0)
    grid += [(0, 1e-49, 0), (10**5, 1e-49, 2), (10**5, top, 0)]
    rng.shuffle(grid)
    return grid


def scalar_stop(n, a, moment):
    """The step m where ``_coeff_series(n, a, moment)`` returns: one past the lowest term
    limit at which it converges, since it raises at m = _SERIES_MAX_TERMS + 1.
    """
    with pytest.MonkeyPatch.context() as mp:
        for limit in range(4, 200):
            mp.setattr(specfun, "_SERIES_MAX_TERMS", limit)
            try:
                specfun._coeff_series(n, a, moment)
            except RuntimeError:
                continue
            return limit + 1


def seam_points():
    """Admitted (n, a, moment) whose scalar series stop at the batch's chunk seams.

    They stop at m = 5, the first step that may stop; at 16 and 17, the
    last step of the first chunk and the first of the second; and at 32 and
    33, n = 0 at the largest admitted a, the seam of the second and third.
    """
    top = math.nextafter(math.sqrt(40), 0.0)
    points = [(0, 0.01, 0), (2, 2.0, 0), (1, 2.0, 0), (0, top, 0), (0, top, 2)]
    assert specfun._SERIES_CHUNK_STEPS == 16, "the seams below are those of 16-step chunks"
    assert [scalar_stop(*p) for p in points] == [5, 16, 17, 32, 33]
    return points


def assert_scalar_bits(batch, points):
    """``batch`` holds ``_coeff_series`` of each point, bit for bit."""
    scalar = {p: specfun._coeff_series(*p) for p in set(points)}
    expect = np.array([scalar[p] for p in points])
    assert np.array_equal(batch.view(np.int64), expect.view(np.int64))


class TestSeriesBatch:
    def test_equals_scalar_series_bit_for_bit(self):
        grid = series_grid(11, 4000)
        batch = specfun._series_batch(*zip(*grid))
        scalar = np.array([specfun._coeff_series(n, a, moment) for n, a, moment in grid])
        assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))

    def test_empty_input(self):
        out = specfun._series_batch([], [], [])
        assert out.shape == (0,) and out.dtype == np.float64

    def test_below_a_tiny_is_the_a_zero_value(self):
        # as coeff_c/coeff_d give it there, from the closed form
        grid = [(n, a, moment) for n in (0, 1, 3, 10**5) for a in (0.0, 1e-300, 9.9e-51)
                for moment in (0, 2)]
        expect = [(coeff_c if moment == 0 else coeff_d)(n, a, "series") for n, a, moment in grid]
        assert specfun._series_batch(*zip(*grid)).tolist() == expect
        assert expect[:2] == [1.0, 1.0 / 3.0] and not any(expect[6:])

    def test_no_floating_point_warning(self):
        # every coefficient stops where its scalar loop returns, so nothing overflows
        grid = series_grid(12, 500)
        with np.errstate(all="raise"):
            specfun._series_batch(*zip(*grid))

    def test_stops_at_chunk_seams_bit_for_bit(self):
        # each coefficient is read at its own stop, whichever step of a chunk that is
        points = seam_points()
        with np.errstate(all="raise"):
            batch = specfun._series_batch(*zip(*points))
        assert_scalar_bits(batch, points)

    def test_batch_past_the_table_bound_bit_for_bit(self):
        # the first chunks take one step each, and widen as coefficients stop
        points = seam_points() + series_grid(13, 300)
        many = points * (specfun._BLOCK_ELEMENTS // len(points) + 1)
        assert len(many) > specfun._BLOCK_ELEMENTS
        with np.errstate(all="raise"):
            batch = specfun._series_batch(*zip(*many))
        assert_scalar_bits(batch, many)

    def test_large_series_table_holds_a_few_batch_sized_arrays(self):
        # Peak in units of one float64 array of the batch's 2 (n_max + 1)
        # coefficients: the three inputs, the output, the live arrays and the
        # first terms' lists come to about 16.  A chunk of 16 steps over every
        # live coefficient would hold 32 in its two tables alone.
        import tracemalloc

        n_max = 10**5
        coeff_table(2.0, n_max, "series")
        tracemalloc.start()
        try:
            coeff_table(2.0, n_max, "series")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 8 * 2 * (n_max + 1)

    def test_series_table_is_one_batch(self, monkeypatch):
        calls = []
        batch = specfun._series_batch
        monkeypatch.setattr(specfun, "_series_batch",
                            lambda *args: calls.append([list(x) for x in args]) or batch(*args))
        table = coeff_table(2.0, 25, method="series")
        assert calls == [[[*range(26)] * 2, [2.0] * 52, [0] * 26 + [2] * 26]]
        assert table.c.tolist() == [coeff_c(n, 2.0, "series") for n in range(26)]
        assert table.d.tolist() == [coeff_d(n, 2.0, "series") for n in range(26)]

    @pytest.mark.parametrize("a", [0.0, 1e-60, 0.1, 2.0, 6.3])
    @pytest.mark.parametrize("n_max", [0, 7, 64])
    def test_series_table_is_its_row_of_series_tables(self, a, n_max):
        table = coeff_table(a, n_max, "series")
        c, d = specfun._series_tables([a], n_max)[0]
        assert np.array_equal(table.c.view(np.int64), c.view(np.int64))
        assert np.array_equal(table.d.view(np.int64), d.view(np.int64))

    def test_shared_term_limit(self, monkeypatch):
        # the lowest limit at which the scalar series of (n=0, a=5, c) converges: there the
        # batch converges to the same bits, and one below it both paths raise
        def converges(limit):
            monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", limit)
            try:
                return specfun._coeff_series(0, 5.0, 0)
            except RuntimeError:
                return None

        expect = specfun._coeff_series(0, 5.0, 0)
        lowest = next(limit for limit in range(100) if converges(limit) is not None)
        assert lowest > 5 and converges(lowest) == expect
        assert specfun._series_batch([0], [5.0], [0]).tolist() == [expect]
        monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", lowest - 1)
        for call in (lambda: specfun._coeff_series(0, 5.0, 0),
                     lambda: specfun._series_batch([3, 0], [5.0, 5.0], [0, 0]),
                     lambda: coeff_c(0, 5.0, "series"),
                     lambda: coeff_table(5.0, 3, "series")):
            with pytest.raises(RuntimeError, match="^coefficient series failed to converge$"):
                call()


class TestCoefficientTable:
    def test_a_zero_exact(self):
        table = coeff_table(0.0, 5)
        assert np.array_equal(table.c, [1, 0, 0, 0, 0, 0])
        assert np.array_equal(table.d, [1.0 / 3.0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("a", [0.0, 0.1, 1.0, 5.0, 20.0, 50.0])
    def test_sum_rules(self, a):
        table = coeff_table(a, math.ceil(a) + 40)
        assert abs(table.c_sum() - 1.0) < 1e-9
        assert abs(table.d_sum() - 1.0 / 3.0) < 1e-9

    @pytest.mark.parametrize("a", [0.0, 0.1, 1.0, 5.0, 20.0, 50.0])
    def test_coefficient_cutoff(self, a):
        # empirical super-exponential cutoff past n ~ a + 15 + 5 a^(1/3)
        start = math.ceil(a + 15.0 + 5.0 * a ** (1.0 / 3.0))
        table = coeff_table(a, start + 20)
        tail_c = np.abs(table.c[start:])
        tail_d = np.abs(table.d[start:])
        assert tail_c.max() <= 1e-10
        assert tail_d.max() <= 1e-10

    def test_tail_at_a50(self):
        # the collapse past the plateau edge is fast but not instant:
        # at n = 61 the coefficient is still ~4e-8, and 1e-12 is only
        # reached around n = 69
        table = coeff_table(50.0, 90)
        assert 1e-9 < table.c_at(61) < 1e-7
        assert max(abs(table.c_at(n)) for n in range(69, 91)) < 1e-12
        assert max(abs(table.d_at(n)) for n in range(69, 91)) < 1e-12

    def test_matches_scalar_path(self):
        table = coeff_table(12.5, 40)
        for n in (0, 7, 23, 40):
            assert table.c_at(n) == pytest.approx(coeff_c(n, 12.5), abs=5e-16)
            assert table.d_at(n) == pytest.approx(coeff_d(n, 12.5), abs=5e-16)

    def test_negative_lookup(self):
        table = coeff_table(2.0, 25)
        assert table.c_at(-7) == table.c_at(7)
        assert table.d_at(-7) == table.d_at(7)

    @pytest.mark.parametrize("n", [6, -6, np.int64(6), 10**6], ids=repr)
    def test_lookup_past_the_end_names_n_max(self, n):
        table = coeff_table(1.0, 5)
        for lookup in (table.c_at, table.d_at):
            with pytest.raises(IndexError) as exc:
                lookup(n)
            assert str(exc.value) == f"|order| = {abs(int(n))} is past this table's n_max = 5"
        assert table.c_at(-5) == table.c[5]  # the last row is still inside

    def test_series_method_table(self):
        table = coeff_table(2.0, 25, method="series")
        ref = coeff_table(2.0, 25)
        assert np.max(np.abs(table.c - ref.c)) < 1e-9
        assert np.max(np.abs(table.d - ref.d)) < 1e-9

    @pytest.mark.parametrize("a", [0.0, 1e-3, 2.0, 6.3])
    def test_series_table_is_the_single_coefficients(self, a):
        # checked once for the whole table, each row is still the same series sum
        table = coeff_table(a, 60, method="series")
        assert table.c.tolist() == [coeff_c(n, a, "series") for n in range(61)]
        assert table.d.tolist() == [coeff_d(n, a, "series") for n in range(61)]

    def test_sums_miss_when_truncated(self):
        # returned without a warning (pytest makes one an error); the sums show the miss
        table = coeff_table(5.0, 10)
        assert abs(table.c_sum() - 1.0) > TOL_SUM
        assert abs(table.d_sum() - 1.0 / 3.0) > TOL_SUM

    def test_large_a_sums_miss(self):
        # ceil(a) + 40 rows leave both sums short by ~1.5e-9 at a = 2000
        table = coeff_table(2000.0, 2040)
        assert abs(table.c_sum() - 1.0) > TOL_SUM
        assert abs(table.d_sum() - 1.0 / 3.0) > TOL_SUM

    @pytest.mark.parametrize("a, n_max", [(400.0, 440), (50.0, 90), (0.0, 5)])
    def test_silent_when_truncated_sums_close(self, a, n_max):
        # below alias_cutoff(a), but both sum rules still close within TOL_SUM
        assert n_max < alias_cutoff(a)
        table = coeff_table(a, n_max)
        assert abs(table.c_sum() - 1.0) <= TOL_SUM
        assert abs(table.d_sum() - 1.0 / 3.0) <= TOL_SUM

    def test_invalid_n_max(self):
        # the sign is refused first, however far below zero n_max is
        for n_max in (-1, -200000, np.int64(-1)):
            with pytest.raises(ValueError) as exc:
                coeff_table(1.0, n_max)
            assert str(exc.value) == f"n_max must be a nonnegative integer, got {int(n_max)}"

    def test_n_max_limit_matches_coeff_c(self):
        # the table admits exactly the orders a single coefficient does
        with pytest.raises(ValueError, match="exceeds supported limit 100000"):
            coeff_table(1.0, 10**5 + 1)

    @pytest.mark.parametrize("n_max, message", [
        (True, "n_max must be an integer, got True"),
        (1.5, "n_max must be an integer, got 1.5"),
        (10**5 + 1, "n_max = 100001 exceeds supported limit 100000"),
        (np.int64(10**6), "n_max = 1000000 exceeds supported limit 100000"),
    ], ids=["bool", "non-integer", "above-limit", "numpy-above-limit"])
    def test_n_max_refusal_names_n_max(self, n_max, message):
        # a table size, not a coefficient order: the refusal names the argument given
        with pytest.raises(ValueError) as exc:
            coeff_table(1.0, n_max)
        assert str(exc.value) == message

    def test_deterministic(self):
        t1 = coeff_table(7.3, 50)
        t2 = coeff_table(7.3, 50)
        assert np.array_equal(t1.c, t2.c)
        assert np.array_equal(t1.d, t2.d)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=-80, max_value=80),
    a=st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
)
def test_coefficient_bounds(n, a):
    # |c_n| <= 1 and |d_n| <= 1/3 for every argument
    assert abs(coeff_c(n, a)) <= 1.0 + 1e-12
    assert abs(coeff_d(n, a)) <= 1.0 / 3.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(min_value=0, max_value=300),
    x=st.floats(min_value=2e-50, max_value=500.0, allow_nan=False),
)
def test_bessel_magnitude_bound(order, x):
    # the sweep only ever runs at Z = 2a >= 2e-50
    assert abs(_miller_sweep(x, order)[order]) <= 1.0 + 1e-12
