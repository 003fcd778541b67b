"""Decay-rate spectra of the ring: analytic, brute-force, and asymptotic.

The circulant coupling matrix is diagonalized by the discrete Fourier
basis, so each mode k = 0..N-1 carries one collective decay rate.  Two
independent routes compute the same spectrum:

* ``analytic_spectrum`` sums the ring coefficients over all aliases of
  the mode index,

      scalar:   rate_k = N sum_m c_{k - m N}(a)
      aligned:  rate_k = (3N/4) sum_m [(1 + cos^2 delta) c_{k - m N}(a)
                                    + (1 - 3 cos^2 delta) d_{k - m N}(a)],

  truncated at ``alias_cutoff(a)``, past which every coefficient is
  below 1e-17;

* ``oracle_spectrum`` transforms the generating row of the coupling
  matrix directly, as the real transform of its N//2 + 1 distinct
  separations, and serves as the definitional cross-check.

The aliased sum and the transform agree to 1e-8 per mode; their
equivalence over a parameter grid is the package's central invariant.

The coefficients come from ``coeff_table``'s default route, the closed
forms evaluated by one Bessel recurrence at Z = 2a; the power series in
``specfun`` is their independent second route.  One table per (a,
cutoff) serves every spectrum and single-winding rate at that a, held in
the module's one cache.

Asymptotic companions: the single-winding (continuum-limit) rate
N c_k(a), the even-N subradiant edge rate with its exponential estimate,
and the closed-form large-a aligned-dipole estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ring_model import ModelKind, RingConfig, coupling_matrix, lattice_conversion
from .specfun import (_MAX_COEFF_ORDER, CoefficientTable, _check_integer, alias_cutoff,
                      coeff_c, coeff_table)

__all__ = [
    "DecaySpectrum",
    "SubradiantEdge",
    "analytic_spectrum",
    "oracle_spectrum",
    "continuous_limit_rate",
    "subradiant_edge",
    "large_a_vector_estimate",
]


@dataclass(frozen=True)
class DecaySpectrum:
    """Mode-resolved decay rates, units of the single-emitter linewidth.

    Rates sit at canonical mode indices k = 0..N-1; mode k and mode N-k
    are the same standing-wave pair, so the spectrum is symmetric under
    k -> N-k.  ``rate`` accepts any signed integer index and folds it
    modulo N.
    """

    n_atoms: int
    size_parameter: float
    model: ModelKind
    rates: np.ndarray

    def rate(self, k: int) -> float:
        return float(self.rates[_check_integer(k, "mode index k") % self.n_atoms])

    def signed_indices(self) -> np.ndarray:
        """Signed mode labels -floor(N/2) .. ceil(N/2)-1, one per mode."""
        n = self.n_atoms
        return np.arange(-(n // 2), (n + 1) // 2)

    def trace(self) -> float:
        return float(math.fsum(self.rates))


@lru_cache(maxsize=128)
def _cached_table(a: float, n_max: int) -> CoefficientTable:
    return coeff_table(a, n_max)


def _harmonic_rates(table: CoefficientTable, orders, model: ModelKind):
    """Rate per atom carried by harmonic ``orders`` >= 0 (index or array).

    c_n for the scalar model, the aligned-dipole mix of c_n and d_n else.
    """
    c = table.c[orders]
    if not model.is_vectorial:
        return c
    cos2 = math.cos(model.delta) ** 2
    return 0.75 * ((1.0 + cos2) * c + (1.0 - 3.0 * cos2) * table.d[orders])


def analytic_spectrum(config: RingConfig, model: ModelKind) -> DecaySpectrum:
    """Spectrum from the aliased coefficient sums."""
    n = config.n_atoms
    a = config.size_parameter
    n_cut = alias_cutoff(a)
    orders = np.arange(-n_cut, n_cut + 1)
    weights = _harmonic_rates(_cached_table(a, n_cut), np.abs(orders), model)
    rates = n * np.bincount(orders % n, weights=weights, minlength=n)
    return DecaySpectrum(n_atoms=n, size_parameter=a, model=model, rates=rates)


def oracle_spectrum(config: RingConfig, model: ModelKind) -> DecaySpectrum:
    """Spectrum from the discrete Fourier transform of the kernel row.

    This is the definitional double sum reduced by circulant structure,
    in O(N) memory since ``coupling_matrix`` returns the matrix as its
    first row.  That row is real and even, so its transform is the real
    transform of the N//2 + 1 distinct separations (``np.fft.hfft``).
    The row is cropped first: ``hfft`` conjugates and casts all it is
    given, so the whole row would add 12 bytes per atom.  It never
    touches the coefficient machinery, which is what makes it an
    independent check of ``analytic_spectrum``.
    """
    n = config.n_atoms
    rates = np.fft.hfft(coupling_matrix(config, model)[: n // 2 + 1], n)
    return DecaySpectrum(n_atoms=n, size_parameter=config.size_parameter, model=model, rates=rates)


def _check_mode_index(k, n_atoms: int) -> int:
    """|k| for an integer (not bool) mode index, |k| <= N/2 and <= 1e5, else ValueError."""
    k = abs(_check_integer(k, "mode index k"))
    if k > n_atoms / 2:
        raise ValueError(f"|k| = {k} exceeds N/2 = {n_atoms / 2}")
    if k > _MAX_COEFF_ORDER:
        raise ValueError(f"mode index |k| = {k} exceeds supported limit {_MAX_COEFF_ORDER}")
    return k


def continuous_limit_rate(n_atoms: int, a: float, k: int,
                          model: ModelKind | None = None) -> float:
    """Single-winding mode rate N c_k(a) (continuum / dense-ring limit).

    Keeps only the principal term of the aliased sum, which is the whole
    sum whenever the alias cutoff stays below N - |k|.  Passing an
    aligned-dipole ``model`` selects the matching c/d combination.
    """
    config = RingConfig(n_atoms, a)
    k = _check_mode_index(k, config.n_atoms)
    a = config.size_parameter
    table = _cached_table(a, max(k, alias_cutoff(a)))
    if model is None:
        model = ModelKind.scalar()
    return config.n_atoms * float(_harmonic_rates(table, k, model))


class SubradiantEdge(NamedTuple):
    """Edge-mode (k = N/2) decay rate and its exponential estimate.

    ``exact`` evaluates N c_{N/2} at the large-N spacing a = N d/lambda;
    ``exact_ring`` uses the exact ring conversion of the same spacing,
    exposing the error of that large-N shortcut.
    """

    exact: float
    asymptotic: float
    exact_ring: float


def subradiant_edge(n_atoms: int, d_over_lambda: float) -> SubradiantEdge:
    """Most-subradiant mode rate for an even ring at fixed spacing.

    The estimate (2 pi N)^(-1/2) (e d/lambda)^N holds only as d/lambda -> 0;
    at moderate spacing it decays slower than the exact rate (see the
    validation report), and it is inf once (e d/lambda)^N overflows.  The
    edge order N/2 is a coefficient order, so N is at most 2e5.
    """
    a_ring = lattice_conversion(n_atoms, d_over_lambda)  # checks N and d/lambda
    if n_atoms % 2:
        raise ValueError("edge mode is defined for an even atom count only")
    n_atoms, d = int(n_atoms), float(d_over_lambda)
    half = n_atoms // 2
    if half > _MAX_COEFF_ORDER:
        raise ValueError(f"n_atoms = {n_atoms} puts the edge mode N/2 = {half} above the "
                         f"coefficient order limit {_MAX_COEFF_ORDER}")
    exact = n_atoms * coeff_c(half, n_atoms * d)
    try:
        asymptotic = (math.e * d) ** n_atoms / math.sqrt(2.0 * math.pi * n_atoms)
    except OverflowError:  # (e d/lambda)^N past the float range
        asymptotic = math.inf
    exact_ring = n_atoms * coeff_c(half, a_ring)
    return SubradiantEdge(exact=exact, asymptotic=asymptotic, exact_ring=exact_ring)


def large_a_vector_estimate(n_atoms: int, a: float, k: int, delta: float) -> float:
    """Closed-form aligned-dipole rate for a >> 1 and integer |k| < a, |k| <= N/2.

    (3N / 8a) [1 + cos^2 delta + (1 - 3 cos^2 delta)(k^2 - 1/4) / a^2].
    Tracks the single-winding rate (within ~20% once a >= 5N); the full
    aliased spectrum departs from it as soon as a exceeds N/2.
    """
    config = RingConfig(n_atoms, a)
    delta = ModelKind.vectorial(delta).delta
    n_atoms, a = config.n_atoms, config.size_parameter
    k = _check_mode_index(k, n_atoms)
    if a < 1.0:
        raise ValueError(f"estimate requires a >= 1, got {a}")
    if k >= a:
        raise ValueError(f"estimate requires |k| < a, got |k| = {k}, a = {a}")
    cos2 = math.cos(delta) ** 2
    return (3.0 * n_atoms / (8.0 * a)) * (
        1.0 + cos2 + (1.0 - 3.0 * cos2) * (k * k - 0.25) / (a * a)
    )
