"""The Riemann sphere model: exact rational 1-forms f(z) dz on P^1.

Residues, including at the point at infinity, come out of exact Laurent
arithmetic, so the classical residue-sum theorem holds with zero tolerance
here.  The constructions (simple-pole pair forms, single higher-order
poles, residue prescription, kind decomposition) all return reduced
rational forms whose contracts are re-checkable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .divisor import CDivisor
from .exact import ExactComplex, ONE, ZERO, _lines, format_exact, parse_exact
from .rational import Polynomial, RationalFunction, laurent_coefficient


# bounds the work of gcd, Yun and certified root location on a form file
MAX_DEGREE = 64


class SphereError(ValueError):
    pass


class _Infinity:
    """Tag object for the point at infinity on P^1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class SpherePoint:
    """Either a finite Q(i) value or the infinity tag."""

    value: Optional[ExactComplex]

    @staticmethod
    def finite(z) -> "SpherePoint":
        return SpherePoint(ExactComplex.coerce(z))

    @staticmethod
    def infinity() -> "SpherePoint":
        return SpherePoint(None)

    @staticmethod
    def coerce(p) -> "SpherePoint":
        if isinstance(p, SpherePoint):
            return p
        if p is INFINITY:
            return SpherePoint.infinity()
        if isinstance(p, str):
            return parse_sphere_point(p)
        return SpherePoint.finite(p)

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def to_complex(self) -> complex:
        if self.is_infinity:
            raise SphereError("infinity has no complex value")
        return self.value.to_complex()

    def __str__(self):
        return "inf" if self.is_infinity else format_exact(self.value)


def parse_sphere_point(text: str) -> SpherePoint:
    t = text.strip()
    if t.lower() in ("inf", "infinity", "oo"):
        return SpherePoint.infinity()
    return SpherePoint.finite(parse_exact(t))


class RationalForm:
    """The 1-form f(z) dz with f an exact rational function."""

    __slots__ = ("fn",)

    def __init__(self, fn: RationalFunction):
        self.fn = fn

    @staticmethod
    def from_coeffs(num: Sequence, den: Sequence) -> "RationalForm":
        return RationalForm(RationalFunction(Polynomial(num), Polynomial(den)))

    @staticmethod
    def zero() -> "RationalForm":
        return RationalForm(RationalFunction(Polynomial()))

    def is_zero(self) -> bool:
        return self.fn.is_zero()

    def __eq__(self, other):
        return isinstance(other, RationalForm) and self.fn == other.fn

    def __add__(self, other: "RationalForm") -> "RationalForm":
        return RationalForm(self.fn + other.fn)

    def __sub__(self, other: "RationalForm") -> "RationalForm":
        return RationalForm(self.fn - other.fn)

    def scale(self, a) -> "RationalForm":
        return RationalForm(self.fn.scale(a))

    def eval_complex(self, z):
        """Coefficient function value f(z) at float complex / arrays."""
        return self.fn.eval_complex(z)

    def at_infinity_chart(self) -> "RationalForm":
        """Pullback under z = 1/w:  f(z) dz -> -f(1/w) / w^2 dw, exact."""
        if self.is_zero():
            return RationalForm.zero()
        num, den = self.fn.num, self.fn.den
        rev_num = Polynomial(list(reversed(num.coeffs)))
        rev_den = Polynomial(list(reversed(den.coeffs)))
        # f(1/w) = rev_num(w) * w^(deg den - deg num) / rev_den(w)
        shift = den.degree - num.degree - 2
        w = Polynomial([ZERO, ONE])
        if shift >= 0:
            new_num = rev_num * w.power(shift)
            new_den = rev_den
        else:
            new_num = rev_num
            new_den = rev_den * w.power(-shift)
        return RationalForm(RationalFunction(new_num.scale(-ONE), new_den))

    def pole_order_at(self, point) -> int:
        point = SpherePoint.coerce(point)
        if point.is_infinity:
            return self.at_infinity_chart().fn.pole_multiplicity(ZERO)
        return self.fn.pole_multiplicity(point.value)

    def __repr__(self):
        return f"RationalForm({self.fn!r})"


def residue_at(form: RationalForm, point) -> ExactComplex:
    """Exact Laurent coefficient c_{-1} of the form at the point.

    Regular points give 0; the point at infinity is handled through the
    w = 1/z chart.
    """
    point = SpherePoint.coerce(point)
    if point.is_infinity:
        return laurent_coefficient(form.at_infinity_chart().fn, ZERO, -1)
    return laurent_coefficient(form.fn, point.value, -1)


def finite_poles(form: RationalForm) -> List[Tuple[SpherePoint, int]]:
    return [(SpherePoint.finite(p), m) for p, m in form.fn.poles()]


def all_poles(form: RationalForm) -> List[Tuple[SpherePoint, int]]:
    poles = finite_poles(form)
    inf_order = form.pole_order_at(INFINITY)
    if inf_order > 0:
        poles.append((SpherePoint.infinity(), inf_order))
    return poles


def residue_divisor(form: RationalForm) -> CDivisor:
    """Distinct poles with their residues; zero residues are dropped."""
    pairs = []
    for point, _ in all_poles(form):
        r = residue_at(form, point)
        if not r.is_zero():
            pairs.append((str(point), r))
    return CDivisor.from_pairs(pairs)


def check_residue_theorem(form: RationalForm) -> ExactComplex:
    """Sum of all residues including infinity (always exactly zero)."""
    total = ZERO
    for point, _ in all_poles(form):
        total = total + residue_at(form, point)
    return total


def simple_pole_form(p, coeff=ONE) -> RationalForm:
    """coeff * dz/(z - p); for p = infinity this is -coeff * dz i.e. zero
    contribution at finite points is impossible, so infinity is rejected."""
    p = SpherePoint.coerce(p)
    if p.is_infinity:
        raise SphereError("a simple pole at infinity has no single-term chart form")
    return RationalForm.from_coeffs([ExactComplex.coerce(coeff)], [-p.value, ONE])


def third_kind(p, q) -> RationalForm:
    """Form with simple poles only at p, q and residues +1, -1."""
    p, q = SpherePoint.coerce(p), SpherePoint.coerce(q)
    if p == q:
        raise SphereError("third-kind form needs distinct poles")
    if q.is_infinity:
        return simple_pole_form(p)
    if p.is_infinity:
        return simple_pole_form(q, -ONE)
    return simple_pole_form(p) - simple_pole_form(q)


def second_kind(p, order: int) -> RationalForm:
    """Single pole of the given order >= 2 at p, residue exactly zero."""
    if order < 2:
        raise SphereError("second-kind pole order must be >= 2 (order 1 forces a residue)")
    p = SpherePoint.coerce(p)
    if p.is_infinity:
        # z^(order-2) dz has a single pole at infinity of the given order
        return RationalForm.from_coeffs([ZERO] * (order - 2) + [ONE], [ONE])
    return RationalForm.from_coeffs([ONE], Polynomial([-p.value, ONE]).power(order).coeffs)


def prescribe_residues(divisor: CDivisor) -> RationalForm:
    """Form with exactly the prescribed residues (coefficients must sum to 0).

    Component names parse as sphere points; at most one may be `inf`, which
    is absorbed exactly by the residue theorem.
    """
    total = divisor.coefficient_sum()
    if not total.is_zero():
        raise SphereError(
            f"residue coefficients sum to {format_exact(total)}, not 0; "
            "no closed meromorphic 1-form can carry this divisor"
        )
    points = [parse_sphere_point(name) for name in divisor.components]
    if sum(1 for pt in points if pt.is_infinity) > 1:
        raise SphereError("duplicate infinity component")
    form = RationalForm.zero()
    for point, coeff in zip(points, divisor.coefficients):
        if point.is_infinity or coeff.is_zero():
            continue
        form = form + simple_pole_form(point, coeff)
    return form


def decompose_kinds(form: RationalForm) -> Tuple[RationalForm, RationalForm]:
    """Split into (logarithmic part, second-kind part), exactly.

    The logarithmic part collects every finite pole's residue as a simple
    pole; the remainder has all residues zero, and the two add back to the
    input with no rounding anywhere.
    """
    log_part = RationalForm.zero()
    for point, _ in finite_poles(form):
        r = residue_at(form, point)
        if not r.is_zero():
            log_part = log_part + simple_pole_form(point, r)
    return log_part, form - log_part


def pole_order_bound_check(form: RationalForm, k: int) -> bool:
    """True iff every pole (infinity included) has order <= k + 1."""
    return all(order <= k + 1 for _, order in all_poles(form))


def has_rational_antiderivative(form: RationalForm) -> bool:
    """Exactness on the sphere: a rational antiderivative exists iff every
    residue vanishes."""
    return len(residue_divisor(form)) == 0


# -- text format -------------------------------------------------------------


def parse_form_text(text: str) -> RationalForm:
    """`P(z) / Q(z)` with comma-separated exact coefficients, constant first.

    The numerator/denominator separator is a standalone `/` surrounded by
    whitespace; rational coefficients like `1/2` carry no spaces.  The
    `/ Q(z)` part may be omitted for polynomial forms.
    """
    import re as _re

    body = " ".join(body for _, body in _lines(text))
    if not body:
        raise SphereError("empty form file")
    parts = _re.split(r"\s/\s", body)
    if len(parts) > 2:
        raise SphereError("expected `P(z) / Q(z)` with a single standalone slash")

    def coeffs(chunk: str) -> List[ExactComplex]:
        chunk = chunk.strip()
        if not chunk:
            raise SphereError("empty coefficient list")
        return [parse_exact(p) for p in chunk.split(",")]

    num = Polynomial(coeffs(parts[0]))
    den = Polynomial(coeffs(parts[1]) if len(parts) == 2 else [ONE])
    if den.is_zero():
        raise SphereError("zero denominator")
    for name, poly in (("numerator", num), ("denominator", den)):
        if poly.degree > MAX_DEGREE:
            raise SphereError(f"{name} degree {poly.degree} exceeds {MAX_DEGREE}")
    return RationalForm(RationalFunction(num, den))


def format_form_text(form: RationalForm) -> str:
    num = ", ".join(format_exact(c) for c in form.fn.num.coeffs) or "0"
    den = ", ".join(format_exact(c) for c in form.fn.den.coeffs) or "1"
    return f"{num} / {den}\n"
