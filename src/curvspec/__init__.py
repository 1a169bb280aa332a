"""curvspec: Hodge-Laplace spectra of constant-curvature space forms.

Spherical and flat quotients get exact spectra and isospectrality decisions
computed from representation data; hyperbolic quotients get the exact
eigenvalue <-> representation-parameter dictionary.
"""

from . import flat, hyperbolic, liealg, ratlinalg, spectra, spherical
from .errors import CurvspecError, IntegralityError, InvariantViolation

__version__ = "0.1.0"
