"""Decay kernels and the circulant coupling matrix of a ring.

N emitters sit equally spaced on a ring whose radius is expressed
through the dimensionless size parameter a (radius times the transition
wavenumber).  Atoms s places apart around the ring are a chord apart,

    x_s = 2 a sin(pi s / N),

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

Because the rates depend only on s = (m - j) mod N, the full matrix is
circulant: ``coupling_matrix`` returns its generating first row, O(N)
memory, with entry (j, m) equal to row[(m - j) mod N].  The private
``_kernel_halves`` owns the kernel of a ring: it evaluates the N//2 + 1
distinct separations of many a and models in one pass, and
``coupling_matrix`` mirrors its one-row case.

``RingConfig`` and ``ModelKind`` are the argument boundary: every public
function that takes an atom count, a size parameter or a tilt angle
validates it through them (or through ``lattice_conversion``).  The
public kernels check their separation and tilt; ``_kernel_halves``
runs the same private kernels on chords built from validated sizes and
``ModelKind``s, without checking them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _MAX_A, _check_integer, _check_real, _check_size_parameter

__all__ = [
    "RingConfig",
    "ModelKind",
    "scalar_gamma_kernel",
    "vector_gamma_kernel",
    "coupling_matrix",
    "lattice_conversion",
]

# Largest atom count admitted.  Every spectrum array grows with N, and a
# prime N costs the oracle more; the README's paragraph on the ceiling
# gives measured times and peak RSS at this limit.
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


@dataclass(frozen=True)
class ModelKind:
    """Light model as its tilt angle: None for scalar light, else aligned dipoles."""

    delta: float | None = None

    def __post_init__(self):
        if self.delta is not None:
            d = _check_real(self.delta, "delta")
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


def _check_separation(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("separation must be finite")
    return x


def _scalar_kernel(x: np.ndarray):
    """sin(x)/x at finite x, 1 at x = 0."""
    return np.sinc(x / np.pi)


def scalar_gamma_kernel(x):
    """Scalar pair decay rate sin(x)/x, continued to 1 at x = 0."""
    out = _scalar_kernel(_check_separation(x))
    return float(out) if out.ndim == 0 else out


# j1(x)/x = sum_m (-x^2/2)^m / (m! (2m+3)!!), each coefficient correctly rounded.
# The direct form (sinc - cos x)/x^2 cancels, to about 3 eps/x^2, so below
# |x| = 1.2 ten series terms take over; on [0, 3] the result is then within
# 4.6e-16 of mpmath, relative, the worst in the direct form at x ~ 1.65.
_J1X_COEFFS = tuple((-1) ** m / (2 ** m * math.factorial(m) * math.prod(range(3, 2 * m + 4, 2)))
                    for m in range(10))


def _j1_over_x(x: np.ndarray, sinc: np.ndarray) -> np.ndarray:
    """j1(x)/x, given sinc = sin(x)/x at the same x; even in x, as both forms are."""
    x2 = x * x
    with np.errstate(divide="ignore", invalid="ignore"):  # x2 == 0 only where |x| < 1.2
        direct = (sinc - np.cos(x)) / x2
    series = _J1X_COEFFS[-1]
    for c in reversed(_J1X_COEFFS[:-1]):
        series = series * x2 + c
    return np.where(np.abs(x) < 1.2, series, direct)


def _dipole_mix(sinc: np.ndarray, j1x: np.ndarray, delta: float):
    """The aligned-dipole kernel at a tilt delta in [0, pi/2], from sin(x)/x and j1(x)/x."""
    sin2 = math.sin(delta) ** 2
    cos2 = math.cos(delta) ** 2
    return 1.5 * (sin2 * sinc + (3.0 * cos2 - 1.0) * j1x)


def vector_gamma_kernel(x, delta: float):
    """Aligned-dipole pair decay rate at tilt angle delta, 1 at x = 0."""
    delta = ModelKind.vectorial(delta).delta
    x = _check_separation(x)
    sinc = _scalar_kernel(x)
    out = _dipole_mix(sinc, _j1_over_x(x, sinc), delta)
    return float(out) if out.ndim == 0 else out


def _kernel_halves(n: int, a_values, models) -> np.ndarray:
    """The kernel at separations s = 0..N//2 of every (a, model): an (a, model, N//2 + 1) array.

    The chords of every a form one array, and sin(x)/x and, for the aligned
    dipoles, j1(x)/x are evaluated once over all of them; each model is a
    mix of those two arrays.  The a and the models must already be
    validated, as ``RingConfig`` and ``ModelKind`` do, so the chords are
    finite and every tilt in range.  For one model the array is a view of
    that model's kernel, with no copy.
    """
    chords = 2.0 * np.asarray(a_values, dtype=float)[:, None] * np.sin(
        np.pi * np.arange(n // 2 + 1) / n)
    sinc = _scalar_kernel(chords)
    j1x = _j1_over_x(chords, sinc) if any(model.is_vectorial for model in models) else None
    rows = [_dipole_mix(sinc, j1x, model.delta) if model.is_vectorial else sinc
            for model in models]
    halves = rows[0][:, None] if len(rows) == 1 else np.stack(rows, axis=1)
    halves[..., 0] = 1.0  # diagonal is exactly the single-emitter rate
    return halves


def coupling_matrix(config: RingConfig, model: ModelKind) -> np.ndarray:
    """The N x N decay matrix as its generating first row.

    Entry (j, m) of the circulant matrix is row[(m - j) mod N].  The
    kernel is evaluated once per distinct separation s = 0..N//2, as the
    one-row case of ``_kernel_halves``.  ``config`` and ``model`` validated
    a and delta, so the kernels run without the public functions' re-checks.
    """
    n = config.n_atoms
    half = _kernel_halves(n, (config.size_parameter,), (model,))[0, 0]
    # N - s is the chord of s: the mirror makes the row, so the matrix, symmetric to the bit
    return np.concatenate((half, half[(n - 1) // 2:0:-1]))


def lattice_conversion(n_atoms: int, d_over_lambda: float) -> float:
    """Size parameter a for a given nearest-neighbour spacing d/lambda.

    Inverts d/lambda = (a/pi) sin(pi/N): a = pi (d/lambda) / sin(pi/N).
    """
    n_atoms = _check_n_atoms(n_atoms)
    d = _check_real(d_over_lambda, "d_over_lambda")
    if not math.isfinite(d) or d <= 0.0:
        raise ValueError(f"d_over_lambda must be finite and > 0, got {d!r}")
    a = math.pi * d / math.sin(math.pi / n_atoms)
    if not math.isfinite(a):
        raise ValueError(f"d_over_lambda = {d!r} overflows the size parameter a")
    if a > _MAX_A:
        raise ValueError(f"d_over_lambda = {d!r} puts the size parameter a = {a!r} above "
                         f"its supported limit {_MAX_A}")
    return a
