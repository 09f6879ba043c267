"""qsk: a numerical kernel for basic hypergeometric orthogonal polynomials.

Evaluates q-Pochhammer symbols and r_phi_s series, the Askey-Wilson,
continuous q-ultraspherical, little q-Laguerre and q-Laguerre families,
their one-free-parameter connection coefficients, and numerically
verifies a catalog of generating-function identities together with the
definite integrals, infinite series, bilateral series, and q-integrals
that follow from orthogonality.
"""

from .bhs import SeriesResult, SeriesSpec, eval_phi
from .connect import (
    ConnectionExpansion,
    aw_connection,
    expansion_residual,
    lql_connection,
    qlag_connection,
    ultra_connection,
)
from .context import EvalContext, ParamPoint
from .genfun import (
    IdentityId,
    IdentityReport,
    list_identities,
    sample_point,
    verify_identity,
    verify_source,
)
from .polyfam import (
    AWParams,
    FamilyId,
    LqLParams,
    QLagParams,
    UltraParams,
    askey_wilson,
    aw_norm,
    aw_weight,
    cont_q_ultra,
    little_q_laguerre,
    lql_norm,
    q_laguerre,
    qlag_bilateral_norm,
    qlag_continuous_norm,
    ultra_norm,
    ultra_weight,
)
from .qpoch import QBase, poch_finite, poch_infinite

__version__ = "1.0.0"

__all__ = [
    "AWParams",
    "ConnectionExpansion",
    "EvalContext",
    "FamilyId",
    "IdentityId",
    "IdentityReport",
    "LqLParams",
    "ParamPoint",
    "QBase",
    "QLagParams",
    "SeriesResult",
    "SeriesSpec",
    "UltraParams",
    "askey_wilson",
    "aw_connection",
    "aw_norm",
    "aw_weight",
    "cont_q_ultra",
    "eval_phi",
    "expansion_residual",
    "list_identities",
    "little_q_laguerre",
    "lql_connection",
    "lql_norm",
    "poch_finite",
    "poch_infinite",
    "q_laguerre",
    "qlag_bilateral_norm",
    "qlag_connection",
    "qlag_continuous_norm",
    "sample_point",
    "ultra_connection",
    "ultra_norm",
    "ultra_weight",
    "verify_identity",
    "verify_source",
]
