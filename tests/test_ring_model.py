"""Kernel, coupling-matrix and lattice-conversion tests.

Kernel oracles: closed trig forms at special arguments and scipy's
spherical Bessel functions for the aligned-dipole kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ringdecay import (
    ModelKind,
    RingConfig,
    coupling_matrix,
    lattice_conversion,
    scalar_gamma_kernel,
    vector_gamma_kernel,
)

MAGIC_DELTA = math.acos(1.0 / math.sqrt(3.0))


class TestRingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RingConfig(1, 1.0)
        with pytest.raises(ValueError):
            RingConfig(4, -0.1)
        with pytest.raises(ValueError):
            RingConfig(4, float("nan"))
        with pytest.raises(ValueError):
            RingConfig(4.0, 1.0)


class TestModelKind:
    def test_constructors(self):
        assert not ModelKind.scalar().is_vectorial
        assert ModelKind.vectorial(0.3).delta == 0.3
        assert ModelKind() == ModelKind.scalar()
        assert ModelKind(0.0).is_vectorial  # delta = 0 is the in-plane dipole model

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelKind.vectorial(None)
        with pytest.raises(ValueError):
            ModelKind.vectorial(-0.1)
        with pytest.raises(ValueError):
            ModelKind.vectorial(math.pi / 2 + 0.01)


class TestScalarKernels:
    def test_gamma_values(self):
        assert scalar_gamma_kernel(0.0) == 1.0
        assert scalar_gamma_kernel(math.pi) == pytest.approx(0.0, abs=1e-16)
        assert scalar_gamma_kernel(math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_gamma_is_bounded(self):
        x = np.linspace(0.0, 300.0, 4001)
        assert np.all(np.abs(scalar_gamma_kernel(x)) <= 1.0)

    @pytest.mark.parametrize("kernel", [scalar_gamma_kernel,
                                        lambda x: vector_gamma_kernel(x, 0.3)],
                             ids=["scalar", "vector"])
    @pytest.mark.parametrize("x", [math.nan, [1.0, math.inf]], ids=["nan", "inf"])
    def test_refuses_non_finite_separation(self, kernel, x):
        with pytest.raises(ValueError, match="^separation must be finite$"):
            kernel(x)


class TestVectorKernel:
    def test_unit_at_origin_any_delta(self):
        # x * x is 0 or subnormal below x ~ 1.5e-162: the series must answer
        # there, bit for bit as at 0, and the discarded direct branch not warn
        tiny = [1e-300, 1e-170, 1e-160]
        for delta in (0.0, 0.3, MAGIC_DELTA, math.pi / 2):
            origin = vector_gamma_kernel(0.0, delta)
            assert origin == pytest.approx(1.0, abs=1e-15)
            for x in tiny:
                assert vector_gamma_kernel(x, delta) == origin
            assert np.array_equal(vector_gamma_kernel(np.array(tiny), delta),
                                  np.full(len(tiny), origin))

    def test_in_plane_at_pi(self):
        # delta = 0 leaves 3 j1(x)/x; j1(pi) = 1/pi, so the value is 3/pi^2
        assert vector_gamma_kernel(math.pi, 0.0) == pytest.approx(
            3.0 / math.pi**2, abs=1e-14
        )

    def test_magic_angle_reduces_to_scalar(self):
        x = np.linspace(0.0, 40.0, 801)
        vec = vector_gamma_kernel(x, MAGIC_DELTA)
        assert np.max(np.abs(vec - scalar_gamma_kernel(x))) < 1e-12

    def test_against_scipy_spherical(self):
        x = np.concatenate([np.linspace(1e-3, 0.0999, 41), np.linspace(0.11, 60.0, 600)])
        for delta in (0.0, 0.4, math.pi / 2):
            j0 = special.spherical_jn(0, x)
            j1x = special.spherical_jn(1, x) / x
            ref = 1.5 * (math.sin(delta) ** 2 * j0 + (3 * math.cos(delta) ** 2 - 1) * j1x)
            mine = vector_gamma_kernel(x, delta)
            assert np.max(np.abs(mine - ref)) < 1e-13

    def test_small_argument_branch_is_smooth(self):
        # series-direct handover at x = 0.1 must be seamless
        left = vector_gamma_kernel(0.1 - 1e-12, 0.7)
        right = vector_gamma_kernel(0.1 + 1e-12, 0.7)
        assert abs(left - right) < 1e-11

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            vector_gamma_kernel(1.0, -0.2)
        with pytest.raises(ValueError):
            vector_gamma_kernel(1.0, 2.0)


def dense(row):
    """The circulant matrix generated by ``row``: entry (j, m) is row[(m - j) mod N]."""
    n = len(row)
    return row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]


# the model grid of the acceptance suite
GRID_MODELS = (
    ModelKind.scalar(),
    ModelKind.vectorial(0.0),
    ModelKind.vectorial(math.pi / 4),
    ModelKind.vectorial(math.pi / 2),
)


def one_pass_row(config, model):
    """The generating row from one 1-D kernel pass, every kernel step written out here.

    The reference that ``coupling_matrix``, the one-row case of the batched
    ``_kernel_halves``, must match bit for bit.
    """
    n = config.n_atoms
    seps = 2.0 * config.size_parameter * np.sin(np.pi * np.arange(n // 2 + 1) / n)
    sinc = np.sinc(seps / np.pi)
    if model.is_vectorial:
        x2 = seps * seps
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = (sinc - np.cos(seps)) / x2
        series = 1.0 / 3991680.0
        for c in (-1.0 / 45360.0, 1.0 / 840.0, -1.0 / 30.0, 1.0 / 3.0):
            series = series * x2 + c
        j1x = np.where(seps < 0.1, series, direct)
        sin2, cos2 = math.sin(model.delta) ** 2, math.cos(model.delta) ** 2
        half = 1.5 * (sin2 * sinc + (3.0 * cos2 - 1.0) * j1x)
    else:
        half = sinc
    half[0] = 1.0
    return np.concatenate((half, half[(n - 1) // 2:0:-1]))


class TestCouplingMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4096, 4097])
    @pytest.mark.parametrize("model", [*GRID_MODELS, ModelKind.vectorial(MAGIC_DELTA)],
                             ids=lambda m: m.label())
    def test_row_equals_one_kernel_pass_bit_for_bit(self, n, model):
        for a in (0.0, 1e-8, 1e-3, 0.3, 50.0, 2000.0, 1e4):
            row = coupling_matrix(RingConfig(n, a), model)
            assert np.array_equal(row, one_pass_row(RingConfig(n, a), model)), a
            assert np.array_equal(row[1:], row[:0:-1])  # symmetric to the bit

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    @pytest.mark.parametrize("model", GRID_MODELS, ids=lambda m: m.label())
    def test_returns_the_generating_row(self, n, model):
        for a in (0.0, 0.4, 3.7, 50.0):
            config = RingConfig(n, a)
            row = coupling_matrix(config, model)
            assert isinstance(row, np.ndarray)
            assert (row.ndim, row.dtype, len(row)) == (1, np.float64, n)
            assert row[0] == 1.0
            assert np.array_equal(row[1:], row[:0:-1])  # palindrome: symmetric matrix
            for m in range(1, n):
                x = 2.0 * a * abs(math.sin(math.pi * m / n))  # chord of atoms 1 and m + 1
                if model.is_vectorial:
                    expect = vector_gamma_kernel(x, model.delta)
                else:
                    expect = scalar_gamma_kernel(x)
                assert row[m] == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 101])
    @pytest.mark.parametrize("model", [*GRID_MODELS, ModelKind.vectorial(MAGIC_DELTA)],
                             ids=lambda m: m.label())
    def test_row_is_the_public_kernels_bit_for_bit(self, n, model):
        # the matrix runs the kernels unchecked on its chords; a = 1e-3 keeps
        # every chord in the aligned kernel's x < 0.1 series branch
        for a in (1e-3, 0.4, 3.7, 50.0):
            chords = 2.0 * a * np.sin(np.pi * np.arange(n // 2 + 1) / n)
            if model.is_vectorial:
                half = vector_gamma_kernel(chords, model.delta)
            else:
                half = scalar_gamma_kernel(chords)
            half[0] = 1.0  # the diagonal
            expect = np.concatenate((half, half[(n - 1) // 2:0:-1]))  # N - s mirrors s
            assert np.array_equal(coupling_matrix(RingConfig(n, a), model), expect)

    def test_antipodal_pair_is_a_diameter_apart(self):
        row = coupling_matrix(RingConfig(2, 3.0), ModelKind.scalar())
        assert row[1] == scalar_gamma_kernel(6.0)

    def test_quarter_circle_is_root_two_apart(self):
        row = coupling_matrix(RingConfig(4, 1.0), ModelKind.scalar())
        assert row[1] == pytest.approx(scalar_gamma_kernel(math.sqrt(2.0)), abs=1e-15)

    def test_two_atoms_dicke(self):
        mat = dense(coupling_matrix(RingConfig(2, 1e-12), ModelKind.scalar()))
        assert np.allclose(mat, np.ones((2, 2)), atol=1e-12)

    def test_equilateral_offdiagonals(self):
        mat = dense(coupling_matrix(RingConfig(3, 1.0), ModelKind.scalar()))
        expect = math.sin(math.sqrt(3.0)) / math.sqrt(3.0)
        off = mat[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off - expect)) < 1e-15

    def test_vector_entries_recomputed(self):
        # entrywise oracle: direct kernel evaluation at every chord
        config = RingConfig(4, 2.0)
        model = ModelKind.vectorial(0.0)
        mat = dense(coupling_matrix(config, model))
        for j in range(1, 5):
            for m in range(1, 5):
                x = 2.0 * config.size_parameter * abs(math.sin(math.pi * (j - m) / 4))
                expect = 1.0 if j == m else vector_gamma_kernel(x, 0.0)
                assert mat[j - 1, m - 1] == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("n,a", [(2, 0.5), (5, 1.0), (8, 3.7), (16, 20.0), (33, 50.0)])
    @pytest.mark.parametrize("model", [ModelKind.scalar(), ModelKind.vectorial(0.6)])
    def test_circulant_and_symmetric(self, n, a, model):
        row = coupling_matrix(RingConfig(n, a), model)
        mat = dense(row)
        assert np.array_equal(mat, mat.T)
        rolled = np.roll(np.roll(mat, 1, axis=0), 1, axis=1)
        assert np.array_equal(mat, rolled)
        assert np.array_equal(mat[0], row)

    @pytest.mark.parametrize("a", [0.0, 0.4, 7.0, 100.0])
    def test_diagonal_exact(self, a):
        for model in (ModelKind.scalar(), ModelKind.vectorial(1.1)):
            mat = dense(coupling_matrix(RingConfig(9, a), model))
            assert np.all(np.diag(mat) == 1.0)

    def test_magic_angle_matrix(self):
        config = RingConfig(12, 8.5)
        vec = dense(coupling_matrix(config, ModelKind.vectorial(MAGIC_DELTA)))
        sca = dense(coupling_matrix(config, ModelKind.scalar()))
        assert np.max(np.abs(vec - sca)) < 1e-12

    @pytest.mark.parametrize("n", [2, 7, 16, 64])
    @pytest.mark.parametrize("a", [0.5, 10.0, 100.0])
    def test_positive_semidefinite(self, n, a):
        models = [ModelKind.scalar()] + [
            ModelKind.vectorial(d) for d in (0.0, math.pi / 4, math.pi / 2)
        ]
        for model in models:
            row = coupling_matrix(RingConfig(n, a), model)
            eigs = np.fft.fft(row).real
            assert eigs.min() >= -1e-10


class TestLatticeConversion:
    def test_two_atoms(self):
        assert lattice_conversion(2, 1.0) == pytest.approx(math.pi, abs=1e-15)

    def test_hexagon(self):
        assert lattice_conversion(6, 0.5) == pytest.approx(math.pi, abs=1e-15)

    def test_decagon(self):
        val = lattice_conversion(10, 0.3)
        assert val == pytest.approx(3.049922215389156, abs=1e-12)
        # close to the large-N shortcut a ~ N d/lambda
        assert abs(val / 3.0 - 1.0) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            lattice_conversion(1, 0.5)
        with pytest.raises(ValueError):
            lattice_conversion(4, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        d=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    )
    def test_round_trip(self, n, d):
        a = lattice_conversion(n, d)
        spacing = (a / math.pi) * math.sin(math.pi / n)  # d/lambda = (a/pi) sin(pi/N)
        assert abs(spacing - d) < 1e-14 * max(1.0, d)
