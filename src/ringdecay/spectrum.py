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
Each route is one batched private function that builds many (a, model)
rows, and each public spectrum is its one-row case, so a grid of spectra
has the bits of the public calls.  ``_analytic_rates`` forms each row's
alias weights once for every N of a grid and folds every row of one N in
one ``np.bincount``.  ``_oracle_rates`` is one ``hfft`` over the kernel
rows of ``ring_model._kernel_halves``, which owns the kernel.

The coefficients are the closed forms evaluated by one Bessel
recurrence at Z = 2a; the power series in ``specfun`` is their
independent second route.  Every spectrum at a reads the table of depth
``alias_cutoff(a)``, built by ``coeff_table`` and held in the module's
one cache.  A single-winding rate at (a, k) reads row |k| of the table
of depth max(|k|, min(N//2, alias_cutoff(a))), uncached; ``specfun``
builds those tables.

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

# Nothing here calls coupling_matrix: benchmarks/spans.py looks it up on
# this module to trace it.
from .ring_model import (ModelKind, RingConfig, _check_n_atoms, _kernel_halves,  # noqa: F401
                         coupling_matrix, lattice_conversion)
from .specfun import (_MAX_COEFF_ORDER, CoefficientTable, _alias_cutoff, _check_integer,
                      _check_size_parameter, _closed_form_reads, coeff_c, coeff_table)

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
        return math.fsum(self.rates.tolist())


@lru_cache(maxsize=128)
def _cached_table(a: float) -> CoefficientTable:
    """Rows 0..alias_cutoff(a) at a validated a: the spectrum's tables, the one cache."""
    return coeff_table(a, _alias_cutoff(a))


def _harmonic_rates(c: np.ndarray, d: np.ndarray, model: ModelKind):
    """Rate per atom carried by c_n and d_n, elementwise.

    c_n for the scalar model, the aligned-dipole mix of c_n and d_n else.
    """
    if not model.is_vectorial:
        return c
    cos2 = math.cos(model.delta) ** 2
    return 0.75 * ((1.0 + cos2) * c + (1.0 - 3.0 * cos2) * d)


def _analytic_rates(ns, a_values, models) -> list:
    """The aliased sums of every (a, model) row: one (a, model, N) array per N in ``ns``.

    Row r = i len(models) + j holds the orders -n_max..n_max of the table
    at a_values[i] and the rate per atom that each carries under
    models[j], formed once for every N.  Each N folds every row in one
    ``np.bincount``: term t adds its weight to mode order mod N of its row,
    whose bins are offset by r N and never overlap another row's, so each
    rate sums its aliases in term order, as a fold of its row alone does.
    The a and the models must already be validated.
    """
    orders, weights = [], []
    for a in a_values:
        table = _cached_table(a)
        order = np.arange(-table.n_max, table.n_max + 1)
        index = np.abs(order)
        for model in models:
            orders.append(order)
            weights.append(_harmonic_rates(table.c, table.d, model)[index])
    count = len(weights)
    rows = np.repeat(np.arange(count), [weight.size for weight in weights])
    orders, weights = np.concatenate(orders), np.concatenate(weights)
    # n times the fresh bincount is done in place
    return [(n * np.bincount(orders % n + rows * n, weights=weights, minlength=count * n))
            .reshape(len(a_values), len(models), n) for n in ns]


def _oracle_rates(n: int, a_values, models) -> np.ndarray:
    """The transform of every (a, model) kernel row: an (a, model, N) array, one ``hfft``."""
    return np.fft.hfft(_kernel_halves(n, a_values, models), n, axis=-1)


def analytic_spectrum(config: RingConfig, model: ModelKind) -> DecaySpectrum:
    """Spectrum from the aliased coefficient sums, as the one-row case of ``_analytic_rates``."""
    n = config.n_atoms
    rates = _analytic_rates((n,), (config.size_parameter,), (model,))[0][0, 0]
    return DecaySpectrum(n_atoms=n, size_parameter=config.size_parameter, model=model, rates=rates)


def oracle_spectrum(config: RingConfig, model: ModelKind) -> DecaySpectrum:
    """Spectrum from the discrete Fourier transform of the kernel row.

    This is the definitional double sum reduced by circulant structure,
    as the one-row case of ``_oracle_rates``.  The row is real and even,
    so its transform is the real transform of its N//2 + 1 distinct
    separations (``np.fft.hfft``), the only ones the kernel is evaluated
    at: O(N) memory, and no whole row.  It never touches the coefficient
    machinery, which is what makes it an independent check of
    ``analytic_spectrum``.
    """
    n = config.n_atoms
    rates = _oracle_rates(n, (config.size_parameter,), (model,))[0, 0]
    return DecaySpectrum(n_atoms=n, size_parameter=config.size_parameter, model=model, rates=rates)


def _check_mode_index(k, n_atoms: int) -> int:
    """|k| for an integer (not bool) mode index, |k| <= N/2 and <= 1e5, else ValueError."""
    k = abs(_check_integer(k, "mode index k"))
    if k > n_atoms / 2:
        raise ValueError(f"|k| = {k} exceeds N/2 = {n_atoms / 2}")
    if k > _MAX_COEFF_ORDER:
        raise ValueError(f"mode index |k| = {k} exceeds supported limit {_MAX_COEFF_ORDER}")
    return k


def continuous_limit_rate(n_atoms: int, a, k, model: ModelKind | None = None):
    """Single-winding mode rate N c_k(a) (continuum / dense-ring limit).

    Keeps only the principal term of the aliased sum, which is the whole
    sum whenever the alias cutoff stays below N - |k|.  Passing an
    aligned-dipole ``model`` selects the matching c/d combination.

    ``a`` is a size parameter or a 1-D sequence of them, ``k`` a mode index
    or a sequence of them; every one is validated once.  Scalar a and k
    give a float; otherwise the rates form an array of shape
    (len(a), len(k)), with the axis of a scalar argument left out.

    The rate at (a, k) reads row |k| of the table of depth
    max(|k|, min(N//2, alias_cutoff(a))), which every mode
    |k| <= alias_cutoff(a) of the ring at this a shares.
    """
    n_atoms = _check_n_atoms(n_atoms)
    a_values, a_axis = _checked_items(a, _check_size_parameter)
    ks, k_axis = _checked_items(k, lambda x: _check_mode_index(x, n_atoms))
    if model is None:
        model = ModelKind.scalar()
    c, d = _single_winding_terms(n_atoms, a_values, ks)
    rates = n_atoms * _harmonic_rates(c, d, model)
    shape = [len(values) for values, axis in ((a_values, a_axis), (ks, k_axis)) if axis]
    return rates.reshape(shape) if shape else float(rates[0, 0])


def _single_winding_terms(n_atoms: int, a_values: list, ks: list):
    """c_|k|(a) and d_|k|(a) of ``continuous_limit_rate``, each of shape (len(a), len(k)).

    The arguments must already be validated, each k as |k|.  Every model's
    rates mix these same (c, d), so one read serves them all.
    """
    orders = np.array(sorted(set(ks)), dtype=int)
    shared = np.array([min(n_atoms // 2, _alias_cutoff(x)) for x in a_values], dtype=int)
    c, d = _closed_form_reads(a_values, np.maximum(orders, shared[:, None]), orders)
    at = np.searchsorted(orders, ks)
    return c[:, at], d[:, at]


def _checked_items(values, check) -> tuple[list, bool]:
    """(checked items, whether ``values`` is a sequence) for a scalar or a 1-D sequence."""
    ndim = np.ndim(values)
    if ndim > 1:
        raise ValueError(f"expected a number or a 1-D sequence, got {ndim} dimensions")
    return ([check(x) for x in values], True) if ndim else ([check(values)], False)


class SubradiantEdge(NamedTuple):
    """Single-winding edge-mode (k = N/2) rate and its exponential estimate.

    ``exact`` and ``exact_ring`` are the single-winding term N c_{N/2}, not
    the spectrum's edge rate: the edge mode has the two aliases +-N/2, so
    ``analytic_spectrum(...).rate(N // 2)`` at the same a is 2 N c_{N/2},
    twice the field.  ``exact`` evaluates the term at the large-N spacing
    a = N d/lambda; ``exact_ring`` uses the exact ring conversion of the
    same spacing, exposing the error of that large-N shortcut.
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
