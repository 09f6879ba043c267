"""Shared plumbing: the caps of a verification run and named parameter points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .bhs import DEFAULT_MAX_TERMS
from .errors import PreconditionViolation
from .qpoch import QBase


@dataclass(frozen=True)
class EvalContext:
    """The settings of one verification run.

    q              base, real in (0, 1)
    max_terms      cap on the terms of each r_phi_s series
    outer_cap      cap on the outer truncation order of a series side

    ``base`` is the validated QBase of q, built once.  The tolerances are
    fixed: outer truncations agree to 1e-9 (``genfun``), functionals to
    1e-10 (``orthofunc``), series and infinite products stop at 1e-15
    (``bhs`` and ``qpoch``).
    """

    q: float
    max_terms: int = DEFAULT_MAX_TERMS
    outer_cap: int = 2048

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", QBase(self.q))
        for name in ("max_terms", "outer_cap"):
            cap = getattr(self, name)
            if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
                raise PreconditionViolation(f"{name} must be an integer >= 1, got {cap!r}")


@dataclass(frozen=True)
class ParamPoint:
    """A named set of (complex or real) parameters for one identity or
    family: entries like a, b, c, d, alpha, beta, gamma, t, x, n.

    The base q is not part of a point; it lives in the EvalContext.
    """

    values: tuple[tuple[str, complex], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        norm = tuple(sorted((str(k), complex(v)) for k, v in self.values))
        names = [k for k, _ in norm]
        if len(set(names)) != len(names):
            raise PreconditionViolation("duplicate parameter name")
        object.__setattr__(self, "values", norm)

    @classmethod
    def of(cls, **kwargs: complex) -> "ParamPoint":
        return cls(tuple(kwargs.items()))

    def get(self, name: str) -> complex:
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(name)

    def real(self, name: str) -> float:
        return self.get(name).real

    def intval(self, name: str) -> int:
        return int(round(self.get(name).real))

    def as_dict(self) -> dict[str, complex]:
        return dict(self.values)

    def replace(self, **kwargs: complex) -> "ParamPoint":
        d = self.as_dict()
        d.update({k: complex(v) for k, v in kwargs.items()})
        return ParamPoint.of(**d)

    def canonical(self) -> str:
        """Stable text form used for hashing and report ordering."""
        parts = [f"{k}={v.real:.17g}{v.imag:+.17g}j" for k, v in self.values]
        return ";".join(parts)

    def __iter__(self) -> Iterator[tuple[str, complex]]:
        return iter(self.values)

