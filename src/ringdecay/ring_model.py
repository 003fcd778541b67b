"""Ring geometry, decay kernels, and the circulant coupling matrix.

N emitters sit at angles phi_j = 2 pi (j-1)/N on a ring whose radius is
expressed through the dimensionless size parameter a (radius times the
transition wavenumber).  Pair separations are chords,

    x_jm = 2 a sin(|phi_j - phi_m| / 2),

and the pair decay rates, in units of the single-emitter linewidth, are
pure functions of that chord:

    scalar model:      x -> sin(x)/x
    aligned dipoles:   x -> (3/2) [sin^2(delta) j0(x)
                                   + (3 cos^2(delta) - 1) j1(x)/x]

with delta the common tilt of the dipoles out of the ring plane.  A
``ModelKind`` is that angle, or None for scalar light.  Both kernels
equal 1 at zero separation, which fixes the matrix diagonal exactly.
At cos^2(delta) = 1/3 the j1 term cancels and the aligned kernel
reduces to the scalar one.

Because the rates depend only on (j - m) mod N, the full matrix is
circulant: ``coupling_matrix`` returns its generating first row, O(N)
memory, with entry (j, m) equal to row[(m - j) mod N].

``RingConfig`` and ``ModelKind`` are the argument boundary: every public
function that takes an atom count, a size parameter or a tilt angle
validates it through them (or through ``lattice_conversion``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _check_integer, _check_size_parameter

__all__ = [
    "RingConfig",
    "ModelKind",
    "chord",
    "scalar_gamma_kernel",
    "vector_gamma_kernel",
    "coupling_matrix",
    "lattice_conversion",
]

# Largest atom count admitted.  Every spectrum array grows with N: at the
# limit ``ringdecay spectrum --a 1e4 --path both`` took 39 s and peaked at
# 0.8 GiB RSS on a 2-core Xeon VM, Python 3.11.
_MAX_N_ATOMS = 10**7


def _check_n_atoms(n_atoms) -> int:
    n_atoms = _check_integer(n_atoms, "n_atoms")
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be >= 2, got {n_atoms}")
    if n_atoms > _MAX_N_ATOMS:
        raise ValueError(f"n_atoms = {n_atoms} exceeds supported limit {_MAX_N_ATOMS}")
    return n_atoms


@dataclass(frozen=True)
class RingConfig:
    """Ring of n_atoms emitters with size parameter a (radius x wavenumber).

    Admits integer 2 <= n_atoms <= 1e7 and finite 0 <= a <= 1e4, the range
    the coefficient engine supports, so both spectrum routes see one domain.
    """

    n_atoms: int
    size_parameter: float

    def __post_init__(self):
        object.__setattr__(self, "n_atoms", _check_n_atoms(self.n_atoms))
        object.__setattr__(self, "size_parameter", _check_size_parameter(self.size_parameter))

    def angle(self, j: int) -> float:
        """Angular position of atom j (1-based)."""
        if not 1 <= j <= self.n_atoms:
            raise IndexError(f"atom index {j} outside 1..{self.n_atoms}")
        return 2.0 * math.pi * (j - 1) / self.n_atoms

    def spacing_in_wavelengths(self) -> float:
        """Nearest-neighbour distance over the transition wavelength."""
        return (self.size_parameter / math.pi) * math.sin(math.pi / self.n_atoms)


@dataclass(frozen=True)
class ModelKind:
    """Light model as its tilt angle: None for scalar light, else aligned dipoles."""

    delta: float | None = None

    def __post_init__(self):
        if self.delta is not None:
            d = float(self.delta)
            if not 0.0 <= d <= math.pi / 2:
                raise ValueError(f"delta must lie in [0, pi/2], got {d}")
            object.__setattr__(self, "delta", d)

    @classmethod
    def scalar(cls) -> "ModelKind":
        return cls()

    @classmethod
    def vectorial(cls, delta: float) -> "ModelKind":
        if delta is None:
            raise ValueError("vectorial model requires a tilt angle delta")
        return cls(delta)

    @property
    def is_vectorial(self) -> bool:
        return self.delta is not None

    def label(self) -> str:
        if self.is_vectorial:
            return f"vectorial(delta={self.delta:.6g})"
        return "scalar"


def chord(config: RingConfig, j: int, m: int) -> float:
    """Dimensionless chord separation between atoms j and m (1-based).

    Zero iff j == m; maximal (2a) at antipodal positions.
    """
    n = config.n_atoms
    if not 1 <= j <= n:
        raise IndexError(f"atom index {j} outside 1..{n}")
    if not 1 <= m <= n:
        raise IndexError(f"atom index {m} outside 1..{n}")
    if j == m:
        return 0.0
    half = abs(config.angle(j) - config.angle(m)) / 2.0
    return 2.0 * config.size_parameter * math.sin(half)


def scalar_gamma_kernel(x):
    """Scalar pair decay rate sin(x)/x, continued to 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("separation must be finite")
    out = np.sinc(x / np.pi)
    return float(out) if out.ndim == 0 else out


# j1(x)/x = sum_m (-x^2/2)^m / (m! (2m+3)!!); five terms keep the error
# below 1e-19 for x < 0.1, where the direct form loses ~half its digits.
_J1X_COEFFS = (1.0 / 3.0, -1.0 / 30.0, 1.0 / 840.0, -1.0 / 45360.0, 1.0 / 3991680.0)


def _j1_over_x(x: np.ndarray) -> np.ndarray:
    small = x < 0.1
    xs = np.where(small, x, 1.0)  # placeholder keeps the large branch finite
    x2 = xs * xs
    series = _J1X_COEFFS[4]
    for c in reversed(_J1X_COEFFS[:4]):
        series = series * x2 + c
    xl = np.where(small, 1.0, x)
    direct = (np.sinc(xl / np.pi) - np.cos(xl)) / (xl * xl)
    return np.where(small, series, direct)


def vector_gamma_kernel(x, delta: float):
    """Aligned-dipole pair decay rate at tilt angle delta, 1 at x = 0."""
    delta = ModelKind.vectorial(delta).delta
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("separation must be finite")
    sin2 = math.sin(delta) ** 2
    cos2 = math.cos(delta) ** 2
    out = 1.5 * (sin2 * np.sinc(x / np.pi) + (3.0 * cos2 - 1.0) * _j1_over_x(x))
    return float(out) if out.ndim == 0 else out


def coupling_matrix(config: RingConfig, model: ModelKind) -> np.ndarray:
    """The N x N decay matrix as its generating first row.

    Entry (j, m) of the circulant matrix is row[(m - j) mod N].
    """
    n = config.n_atoms
    s = np.arange(n)
    # fold to min(s, N-s): keeps the row exactly palindromic, so the
    # assembled matrix is symmetric to the bit
    seps = 2.0 * config.size_parameter * np.sin(np.pi * np.minimum(s, n - s) / n)
    if model.is_vectorial:
        row = vector_gamma_kernel(seps, model.delta)
    else:
        row = scalar_gamma_kernel(seps)
    row[0] = 1.0  # diagonal is exactly the single-emitter rate
    return row


def lattice_conversion(n_atoms: int, d_over_lambda: float) -> float:
    """Size parameter a for a given nearest-neighbour spacing d/lambda.

    Exact inverse of RingConfig.spacing_in_wavelengths.
    """
    n_atoms = _check_n_atoms(n_atoms)
    d = float(d_over_lambda)
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError(f"d_over_lambda must be finite and > 0, got {d!r}")
    a = math.pi * d / math.sin(math.pi / n_atoms)
    if not math.isfinite(a):
        raise ValueError(f"d_over_lambda = {d!r} overflows the size parameter a")
    return a
