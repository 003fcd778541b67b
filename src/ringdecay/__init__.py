"""Cooperative spontaneous-decay spectrum of emitters on a ring.

Computes the mode-resolved collective decay rates of N identical
two-level emitters equally spaced on a ring, in the single-excitation
regime, for scalar light and for aligned dipoles at a common tilt
angle.  The analytic route (aliased ring-coefficient sums) and a
brute-force route (the real transform of the N//2 + 1 distinct
separations of the circulant coupling matrix's kernel row) agree to
1e-8 per mode.  ``ringdecay validate`` checks that over a grid of
2 <= N <= 40 and 0 <= a <= 50; the test suite repeats the check at
a = 500, 2000 and 1e4 (``tests/test_spectrum.py::TestLargeA``).
"""

from . import ring_model, specfun, spectrum, validation
from .ring_model import *
from .specfun import *
from .spectrum import *
from .validation import *

__version__ = "0.1.0"

__all__ = [*ring_model.__all__, *specfun.__all__, *spectrum.__all__, *validation.__all__,
           "__version__"]
