"""C-divisors: finite formal sums of named components with Q(i) coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .exact import ExactComplex, ZERO, _at_line, _lines, parse_exact


class DivisorError(ValueError):
    pass


@dataclass(frozen=True)
class CDivisor:
    """Ordered formal sum sum_i a_i . W_i with unique component names."""

    components: Tuple[str, ...]
    coefficients: Tuple[ExactComplex, ...]

    def __post_init__(self):
        comps = tuple(str(c) for c in self.components)
        coeffs = tuple(ExactComplex.coerce(a) for a in self.coefficients)
        if len(comps) != len(coeffs):
            raise DivisorError("component/coefficient count mismatch")
        if len(set(comps)) != len(comps):
            raise DivisorError("duplicate component names")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "coefficients", coeffs)

    @staticmethod
    def from_pairs(pairs: Sequence[Tuple[str, object]]) -> "CDivisor":
        return CDivisor(
            tuple(name for name, _ in pairs),
            tuple(ExactComplex.coerce(a) for _, a in pairs),
        )

    def as_dict(self) -> Dict[str, ExactComplex]:
        return dict(zip(self.components, self.coefficients))

    def coefficient_sum(self) -> ExactComplex:
        total = ZERO
        for a in self.coefficients:
            total = total + a
        return total

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.coefficients)

    def __len__(self) -> int:
        return len(self.components)

    def scale(self, a) -> "CDivisor":
        a = ExactComplex.coerce(a)
        return CDivisor(self.components, tuple(a * c for c in self.coefficients))

    def __add__(self, other: "CDivisor") -> "CDivisor":
        order: List[str] = list(self.components)
        for name in other.components:
            if name not in order:
                order.append(name)
        mine, theirs = self.as_dict(), other.as_dict()
        return CDivisor(
            tuple(order),
            tuple(mine.get(n, ZERO) + theirs.get(n, ZERO) for n in order),
        )

    def __sub__(self, other: "CDivisor") -> "CDivisor":
        return self + other.scale(-1)


def parse_divisor_text(text: str) -> CDivisor:
    """Lines `name : coefficient` with exact or decimal coefficient literals."""
    pairs: List[Tuple[str, ExactComplex]] = []
    for lineno, body in _lines(text):
        with _at_line(lineno, DivisorError):
            if ":" not in body:
                raise DivisorError("expected `name : coefficient`")
            name, val = body.split(":", 1)
            name = name.strip()
            if not name:
                raise DivisorError("empty component name")
            pairs.append((name, parse_exact(val)))
    return CDivisor.from_pairs(pairs)
