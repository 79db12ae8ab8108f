"""The Riemann sphere model: exact rational 1-forms f(z) dz on P^1.

A form is a polynomial part plus, at each finite pole, its principal part
over Q(i), so poles and residues (infinity included) are exact lookups and
the residue-sum theorem holds with zero tolerance.  Constructions and
arithmetic build the parts directly; a form given as P/Q is split once,
when it is read, and the reduced P/Q is derived for printing and floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .divisor import CDivisor
from .exact import ExactComplex, ONE, ZERO, _lines, format_exact, parse_exact
from .rational import Polynomial, RationalFunction, linear_roots


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


def _linear(p: ExactComplex) -> Polynomial:
    return Polynomial([-p, ONE])


def _taylor(poly: Polynomial, p: ExactComplex, count: int) -> List[ExactComplex]:
    """The first `count` Taylor coefficients of poly at p."""
    out, factorial = [], 1
    for j in range(1, count + 1):
        out.append(poly.eval(p) / factorial)
        poly, factorial = poly.derivative(), factorial * j
    return out


def _principal_part(num: Polynomial, den: Polynomial, p: ExactComplex, m: int) -> Tuple[ExactComplex, ...]:
    """(c_1, ..., c_m) of num/den at a pole p of order m: the first m Taylor
    coefficients of num / (den / (z - p)^m) at p, in reverse.  For m = 1
    that is num(p) / den'(p)."""
    top = _taylor(num, p, m)
    inv = Polynomial(_taylor(den.divmod(_linear(p).power(m))[0], p, m)).series_inverse(m)
    return tuple(sum((top[i] * inv[j - i] for i in range(j + 1)), ZERO) for j in reversed(range(m)))


class RationalForm:
    """The 1-form f(z) dz with f = poly(z) + sum over finite poles p of
    c_1/(z - p) + ... + c_m/(z - p)^m, stored as `poly` and
    `parts = {p: (c_1, ..., c_m)}` with c_m != 0."""

    __slots__ = ("poly", "parts", "_fraction")

    def __init__(self, poly: Polynomial, parts: Mapping[ExactComplex, Sequence[ExactComplex]]):
        self.poly = poly
        # parts with a nonzero coefficient, trailing zeros trimmed by Polynomial
        self.parts = {p: Polynomial(cs).coeffs for p, cs in parts.items() if any(cs)}
        self._fraction: Optional[Tuple[Polynomial, Polynomial]] = None

    @staticmethod
    def from_coeffs(num: Sequence, den: Sequence) -> "RationalForm":
        """The form num/den (exact coefficients, constant first).  The
        fraction is reduced and its denominator split over Q(i) here, once;
        a factor with no roots there raises IrrationalPoleError."""
        fn = RationalFunction(Polynomial(num), Polynomial(den))
        parts = {p: _principal_part(fn.num, fn.den, p, m) for p, m in linear_roots(fn.den)}
        form = RationalForm(fn.num.divmod(fn.den)[0], parts)
        form._fraction = (fn.num, fn.den)
        return form

    @staticmethod
    def zero() -> "RationalForm":
        return RationalForm(Polynomial(), {})

    def is_zero(self) -> bool:
        return self.poly.is_zero() and not self.parts

    def __eq__(self, other):
        return isinstance(other, RationalForm) and self.poly == other.poly and self.parts == other.parts

    def __add__(self, other: "RationalForm") -> "RationalForm":
        # principal parts add like coefficient lists of polynomials in 1/(z - p)
        parts = dict(self.parts)
        for p, cs in other.parts.items():
            parts[p] = (Polynomial(parts.get(p, ())) + Polynomial(cs)).coeffs
        return RationalForm(self.poly + other.poly, parts)

    def __sub__(self, other: "RationalForm") -> "RationalForm":
        return self + other.scale(-ONE)

    def scale(self, a) -> "RationalForm":
        a = ExactComplex.coerce(a)
        return RationalForm(self.poly.scale(a), {p: tuple(a * c for c in cs) for p, cs in self.parts.items()})

    def fraction(self) -> Tuple[Polynomial, Polynomial]:
        """The reduced P/Q with monic Q: Q = prod (z - p)^m_p and
        P = poly Q + sum c_k Q/(z - p)^k, coprime because every c_m != 0."""
        if self._fraction is None:
            den = Polynomial([ONE])
            for p, cs in self.parts.items():
                den = den * _linear(p).power(len(cs))
            num = self.poly * den
            for p, cs in self.parts.items():
                quot = den
                for c in cs:
                    quot = quot.divmod(_linear(p))[0]
                    num = num + quot.scale(c)
            self._fraction = (num, den)
        return self._fraction

    def eval_complex(self, z):
        """Coefficient function value f(z) at float complex / arrays."""
        num, den = self.fraction()
        return num.eval_complex(z) / den.eval_complex(z)

    def pole_order_at(self, point) -> int:
        """m at a finite pole; at infinity deg(poly) + 2, or 1 when only
        the residues leave a pole there."""
        point = SpherePoint.coerce(point)
        if not point.is_infinity:
            return len(self.parts.get(point.value, ()))
        if not self.poly.is_zero():
            return self.poly.degree + 2
        return 0 if residue_at(self, point).is_zero() else 1

    def __repr__(self):
        return f"RationalForm({self.poly!r}, {self.parts!r})"


def residue_at(form: RationalForm, point) -> ExactComplex:
    """Exact Laurent coefficient c_{-1} of the form at the point: c_1 of
    the principal part (0 at a regular point); at infinity, minus the sum
    of the finite ones."""
    point = SpherePoint.coerce(point)
    if point.is_infinity:
        return -sum((cs[0] for cs in form.parts.values()), ZERO)
    return form.parts.get(point.value, (ZERO,))[0]


def all_poles(form: RationalForm) -> List[Tuple[SpherePoint, int]]:
    """Finite poles in (re, im) order with their orders, then infinity."""
    poles = [(SpherePoint.finite(p), len(form.parts[p])) for p in sorted(form.parts, key=lambda p: (p.re, p.im))]
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
    return sum((residue_at(form, point) for point, _ in all_poles(form)), ZERO)


def simple_pole_form(p, coeff=ONE) -> RationalForm:
    """coeff * dz/(z - p); for p = infinity this is -coeff * dz i.e. zero
    contribution at finite points is impossible, so infinity is rejected."""
    p = SpherePoint.coerce(p)
    if p.is_infinity:
        raise SphereError("a simple pole at infinity has no single-term chart form")
    return RationalForm(Polynomial(), {p.value: (ExactComplex.coerce(coeff),)})


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
        return RationalForm(Polynomial([ZERO] * (order - 2) + [ONE]), {})
    return RationalForm(Polynomial(), {p.value: (ZERO,) * (order - 1) + (ONE,)})


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
    parts: Dict[ExactComplex, Tuple[ExactComplex]] = {}
    for point, coeff in zip(points, divisor.coefficients):
        if not point.is_infinity:
            parts[point.value] = (parts.get(point.value, (ZERO,))[0] + coeff,)
    return RationalForm(Polynomial(), parts)


def decompose_kinds(form: RationalForm) -> Tuple[RationalForm, RationalForm]:
    """Split into (logarithmic part, second-kind part), exactly.

    The logarithmic part collects every finite pole's residue as a simple
    pole; the remainder has all residues zero, and the two add back to the
    input with no rounding anywhere.
    """
    log_part = {p: (residue_at(form, p),) for p in form.parts}
    second_part = {p: (ZERO,) + cs[1:] for p, cs in form.parts.items()}
    return RationalForm(Polynomial(), log_part), RationalForm(form.poly, second_part)


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
    return RationalForm.from_coeffs(num.coeffs, den.coeffs)


def format_form_text(form: RationalForm) -> str:
    num, den = form.fraction()
    num = ", ".join(format_exact(c) for c in num.coeffs) or "0"
    den = ", ".join(format_exact(c) for c in den.coeffs) or "1"
    return f"{num} / {den}\n"
