"""Shared plumbing: the base of a verification run and named parameter points."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import PreconditionViolation
from .qpoch import QBase


@dataclass(frozen=True)
class EvalContext:
    """The base q of one verification run, real in (0, 1), and ``base``,
    its validated QBase, built once.

    Everything else is fixed.  Outer truncations agree to 1e-9 and stop at
    order ``genfun.OUTER_CAP`` (2048); functionals agree to 1e-10
    (``orthofunc``); series and infinite products stop at 1e-15 (``bhs``
    and ``qpoch``), a series after at most ``bhs.MAX_TERMS`` (10000)
    terms; a record passes at relative residual ``cli.SuiteConfig.tolerance``
    (1e-7).
    """

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", QBase(self.q))


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
        v = self.get(name)
        if v.imag != 0.0 or not v.real.is_integer():
            raise PreconditionViolation(f"{name} must be an integer, got {v!r}")
        return int(v.real)

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

