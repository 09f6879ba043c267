"""Checks kept only to cross-check the package: no command, report or
benchmark workload calls them."""

from qsk.context import ParamPoint
from qsk.errors import PreconditionViolation
from qsk.genfun import IdentityReport
from qsk.orthofunc import FunctionalSpec, inner_product, norm_constant
from qsk.polyfam import FAMILIES, FamilyId


def verify_orthogonality(
    family: FamilyId, spec: FunctionalSpec, m: int, n: int
) -> IdentityReport:
    """Compare <p_m, p_n> under the functional with norm * delta_mn."""
    if spec.family is not family:
        raise PreconditionViolation("family does not match the functional's parameters")
    if m < 0 or n < 0:
        raise PreconditionViolation("m, n must be >= 0")
    evaluate = FAMILIES[family].evaluate
    lhs, count = inner_product(spec, lambda x: evaluate(m, x, spec.params),
                               lambda x: evaluate(n, x, spec.params))
    rhs = complex(norm_constant(spec, n)) if m == n else complex(0.0)
    return IdentityReport.of(f"ORTHO_{family.name}_{spec.kind.name}",
                             spec.params.base.q, ParamPoint.of(m=m, n=n),
                             lhs, rhs, count, 0, True)
