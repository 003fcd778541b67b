"""Cooperative spontaneous-decay spectrum of emitters on a ring.

Computes the mode-resolved collective decay rates of N identical
two-level emitters equally spaced on a ring, in the single-excitation
regime, for scalar light and for aligned dipoles at a common tilt
angle.  The analytic route (aliased ring-coefficient sums) and a
brute-force route (transform of the circulant coupling matrix) agree to
1e-8 per mode.  ``ringdecay validate`` checks that over a grid of
2 <= N <= 40 and 0 <= a <= 50; the test suite repeats the check at
a = 500, 2000 and 1e4 (``tests/test_spectrum.py::TestLargeA``).
"""

from .ring_model import (
    CouplingMatrix,
    ModelKind,
    RingConfig,
    chord,
    coupling_matrix,
    lattice_conversion,
    scalar_gamma_kernel,
    vector_gamma_kernel,
)
from .specfun import (
    TOL_SUM,
    CoefficientTable,
    alias_cutoff,
    coeff_c,
    coeff_d,
    coeff_table,
    series_admitted,
)
from .spectrum import (
    DecaySpectrum,
    SubradiantEdge,
    analytic_spectrum,
    continuous_limit_rate,
    large_a_vector_estimate,
    oracle_spectrum,
    subradiant_edge,
)
from .validation import CheckResult, all_passed, format_report, run_checks

__version__ = "0.1.0"

__all__ = [
    "TOL_SUM",
    "CheckResult",
    "CoefficientTable",
    "CouplingMatrix",
    "DecaySpectrum",
    "ModelKind",
    "RingConfig",
    "SubradiantEdge",
    "alias_cutoff",
    "all_passed",
    "analytic_spectrum",
    "chord",
    "coeff_c",
    "coeff_d",
    "coeff_table",
    "continuous_limit_rate",
    "coupling_matrix",
    "format_report",
    "large_a_vector_estimate",
    "lattice_conversion",
    "oracle_spectrum",
    "run_checks",
    "scalar_gamma_kernel",
    "series_admitted",
    "subradiant_edge",
    "vector_gamma_kernel",
    "__version__",
]
