"""curvspec: Hodge-Laplace spectra of constant-curvature space forms.

Spherical and flat quotients get exact spectra and isospectrality decisions
computed from representation data; hyperbolic quotients get the exact
eigenvalue <-> representation-parameter dictionary.
"""

from . import flat, hyperbolic, liealg, ratlinalg, spectra, spherical
from .errors import CurvspecError, IntegralityError, InvariantViolation
from .liealg import (
    IrrepLabelO,
    RootSystem,
    RotationElement,
    branch_taup,
    casimir_eigenvalue,
    character_o,
    character_so,
    exterior_trace,
    weight_multiplicities,
    weyl_dimension,
)
from .spherical import (
    SphericalGroup,
    casimir_collision_scan,
    eigenvalue_family,
    k_from_lambda,
    lens_space,
    n_gamma,
    p_spectrum,
    trivial_group,
)
from .flat import (
    BieberbachGroup,
    Lattice,
    betti,
    d_lambda,
    e_mu_gamma,
    fixtures,
    is_orientable,
    n_sigma_multiplicity,
    shells,
    spectrum,
)
from .hyperbolic import (
    HyperbolicTerm,
    NuValue,
    casimir,
    hat_G_taup,
    multiplicity_decomposition,
    nu_from_lambda,
    rho_p,
)

__version__ = "0.1.0"
