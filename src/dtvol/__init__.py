"""dtvol: hyperbolic cone-manifold volumes of double twist knots J(k,2n).

Builds the Riley polynomial of the knot group <a,b | w^n a = b w^n>, tracks
its geometric root across cone angles, and integrates the Schlafli formula;
also evaluates the equivalent Riley / Le / Mednykh polynomials for general
one-relator groups <a,b | Wa = bW>.
"""

from .chebyshev import ChebPair, coeffs_S, eval_pair, eval_S
from .riley import (
    ConditioningWarning,
    RileyCoefficients,
    prop_w_matrix,
    riley_closed,
    riley_coefficients,
    riley_even,
    riley_odd,
    riley_recursive,
    riley_zpoly,
)
from .slrep import (
    InadmissibleWordError,
    Mat2C,
    RepPoint,
    conjugating_matrix,
    le_poly_value,
    mednykh_poly_value,
    relator_residual,
    rho_generators,
    rho_word,
    riley_poly_value,
)
from .solver import (
    Branch,
    BranchPoint,
    ContinuationAmbiguousError,
    NonHyperbolicError,
    SeedCandidate,
    find_alpha_K,
    geometric_branch,
    imcond_value,
    riley_roots,
)
from .volume import (
    DegenerateLongitudeError,
    NegativeIntegrandError,
    QuadratureNotConvergedError,
    VolumeResult,
    branch_csv_rows,
    cone_volume,
    integrand,
    longitude_L,
    volume_curve,
)
from .words import (
    FreeWord,
    KnotParam,
    TwoBridgeParams,
    jk_word,
    tilde,
    twobridge_word,
)
from .zpoly import ZPoly

__version__ = "0.1.0"

__all__ = [
    "ChebPair",
    "eval_S",
    "eval_pair",
    "coeffs_S",
    "ZPoly",
    "FreeWord",
    "KnotParam",
    "TwoBridgeParams",
    "jk_word",
    "tilde",
    "twobridge_word",
    "Mat2C",
    "RepPoint",
    "InadmissibleWordError",
    "conjugating_matrix",
    "rho_generators",
    "rho_word",
    "riley_poly_value",
    "le_poly_value",
    "mednykh_poly_value",
    "relator_residual",
    "RileyCoefficients",
    "ConditioningWarning",
    "riley_coefficients",
    "riley_odd",
    "riley_even",
    "riley_closed",
    "riley_recursive",
    "riley_zpoly",
    "prop_w_matrix",
    "Branch",
    "BranchPoint",
    "SeedCandidate",
    "NonHyperbolicError",
    "ContinuationAmbiguousError",
    "riley_roots",
    "imcond_value",
    "geometric_branch",
    "find_alpha_K",
    "VolumeResult",
    "DegenerateLongitudeError",
    "NegativeIntegrandError",
    "QuadratureNotConvergedError",
    "longitude_L",
    "integrand",
    "cone_volume",
    "volume_curve",
    "branch_csv_rows",
    "__version__",
]
