"""Named parameter points: the values one identity, corollary or family
record is evaluated at."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import PreconditionViolation


@dataclass(frozen=True)
class ParamPoint:
    """A named set of (complex or real) parameters for one identity or
    family: entries like a, b, c, d, alpha, beta, gamma, t, x, n.

    The base q is not part of a point: a verification run takes it as a
    ``QBase`` next to the point.
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

