"""Geometry, kernel, and coupling-matrix tests.

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
    chord,
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

    def test_angles(self):
        config = RingConfig(4, 1.0)
        assert config.angle(1) == 0.0
        assert config.angle(2) == pytest.approx(math.pi / 2, abs=1e-15)
        with pytest.raises(IndexError):
            config.angle(0)
        with pytest.raises(IndexError):
            config.angle(5)

    def test_spacing(self):
        config = RingConfig(6, math.pi)
        assert config.spacing_in_wavelengths() == pytest.approx(0.5, abs=1e-15)


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


class TestChord:
    def test_antipodal(self):
        assert chord(RingConfig(2, 3.0), 1, 2) == pytest.approx(6.0, abs=1e-14)

    def test_quarter_circle(self):
        assert chord(RingConfig(4, 1.0), 1, 2) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_coincident(self):
        assert chord(RingConfig(17, 2.5), 9, 9) == 0.0

    def test_index_errors(self):
        config = RingConfig(5, 1.0)
        with pytest.raises(IndexError):
            chord(config, 0, 1)
        with pytest.raises(IndexError):
            chord(config, 1, 6)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        a=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        data=st.data(),
    )
    def test_symmetry_and_zero(self, n, a, data):
        j = data.draw(st.integers(min_value=1, max_value=n))
        m = data.draw(st.integers(min_value=1, max_value=n))
        config = RingConfig(n, a)
        assert chord(config, j, m) == pytest.approx(chord(config, m, j), abs=1e-13)
        if j != m:
            assert chord(config, j, m) > 0.0
            assert chord(config, j, m) <= 2.0 * a + 1e-12


class TestScalarKernels:
    def test_gamma_values(self):
        assert scalar_gamma_kernel(0.0) == 1.0
        assert scalar_gamma_kernel(math.pi) == pytest.approx(0.0, abs=1e-16)
        assert scalar_gamma_kernel(math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_gamma_is_bounded(self):
        x = np.linspace(0.0, 300.0, 4001)
        assert np.all(np.abs(scalar_gamma_kernel(x)) <= 1.0)


class TestVectorKernel:
    def test_unit_at_origin_any_delta(self):
        for delta in (0.0, 0.3, MAGIC_DELTA, math.pi / 2):
            assert vector_gamma_kernel(0.0, delta) == pytest.approx(1.0, abs=1e-15)

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


class TestCouplingMatrix:
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
                x = chord(config, 1, m + 1)
                if model.is_vectorial:
                    expect = vector_gamma_kernel(x, model.delta)
                else:
                    expect = scalar_gamma_kernel(x)
                assert row[m] == pytest.approx(expect, abs=1e-14)

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
                x = chord(config, j, m)
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
        config = RingConfig(n, lattice_conversion(n, d))
        assert abs(config.spacing_in_wavelengths() - d) < 1e-14 * max(1.0, d)
