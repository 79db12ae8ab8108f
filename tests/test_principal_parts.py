"""Sphere forms held as principal parts, checked against the reduced
fraction P/Q: RationalFunction arithmetic (gcd-normalised) for sums and
views, laurent_coefficient for parts and residues, and the w = 1/z chart
for the point at infinity."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import random_split_form
from residuum.exact import ExactComplex, ONE, ZERO, format_exact
from residuum.rational import Polynomial, RationalFunction, laurent_coefficient, linear_roots
from residuum.sphere import (
    INFINITY,
    RationalForm,
    all_poles,
    decompose_kinds,
    format_form_text,
    residue_at,
    second_kind,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def lin(p) -> Polynomial:
    return Polynomial([-p, ONE])


def reference(form: RationalForm) -> RationalFunction:
    """poly + sum c_k / (z - p)^k summed as reduced fractions."""
    fn = RationalFunction(form.poly)
    for p, cs in form.parts.items():
        for k, c in enumerate(cs, start=1):
            fn = fn + RationalFunction(Polynomial([c]), lin(p).power(k))
    return fn


def chart_at_infinity(fn: RationalFunction) -> RationalFunction:
    """-f(1/w) / w^2, the form in the w = 1/z chart."""
    rev_num = Polynomial(reversed(fn.num.coeffs)).scale(-ONE)
    rev_den = Polynomial(reversed(fn.den.coeffs))
    shift = fn.den.degree - fn.num.degree - 2
    w = Polynomial([ZERO, ONE])
    if shift >= 0:
        return RationalFunction(rev_num * w.power(shift), rev_den)
    return RationalFunction(rev_num, rev_den * w.power(-shift))


def order_at(fn: RationalFunction, p) -> int:
    """Multiplicity of z - p in the reduced denominator."""
    m, den = 0, fn.den
    while True:
        quot, rem = den.divmod(lin(p))
        if not rem.is_zero():
            return m
        m, den = m + 1, quot


def text(fn: RationalFunction) -> str:
    num = ", ".join(format_exact(c) for c in fn.num.coeffs) or "0"
    den = ", ".join(format_exact(c) for c in fn.den.coeffs)
    return f"{num} / {den}\n"


def assert_matches_reference(form: RationalForm) -> None:
    fn = reference(form)
    assert form.fraction() == (fn.num, fn.den)
    roots = linear_roots(fn.den)
    assert [(pt.value, m) for pt, m in all_poles(form) if not pt.is_infinity] == roots
    for p, m in roots:
        assert form.pole_order_at(p) == m == order_at(fn, p)
        assert form.parts[p] == tuple(laurent_coefficient(fn, p, -k) for k in range(1, m + 1))
        assert residue_at(form, p) == laurent_coefficient(fn, p, -1)
    chart = chart_at_infinity(fn)
    assert residue_at(form, INFINITY) == laurent_coefficient(chart, ZERO, -1)
    assert form.pole_order_at(INFINITY) == order_at(chart, ZERO)

    log_ref = RationalFunction(Polynomial())
    for p, _ in roots:
        log_ref = log_ref + RationalFunction(Polynomial([laurent_coefficient(fn, p, -1)]), lin(p))
    log_part, second_part = decompose_kinds(form)
    assert format_form_text(log_part) == text(log_ref)
    assert format_form_text(second_part) == text(fn - log_ref)


def test_random_split_forms_match_reference():
    rng = random.Random(13)
    forms = [random_split_form(rng) for _ in range(12)]
    forms += [RationalForm.zero(), second_kind(INFINITY, 4), second_kind("1/2 - i", 3)]
    for form in forms:
        assert_matches_reference(form)
    for a, b in zip(forms, forms[1:] + forms[:1]):
        assert format_form_text(a + b) == text(reference(a) + reference(b))
        assert format_form_text(a - b) == text(reference(a) - reference(b))
        assert (a - a).is_zero() and (a - a) == RationalForm.zero()


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
exacts = st.builds(ExactComplex, rationals, rationals)


@SETTINGS
@given(st.dictionaries(exacts, st.lists(exacts, min_size=1, max_size=3), max_size=3),
       st.lists(exacts, max_size=3))
def test_principal_parts_match_reference(parts, poly):
    form = RationalForm(Polynomial(poly), parts)
    kept = {p: tuple(cs) for p, cs in parts.items() if any(cs)}
    for p, cs in kept.items():
        assert form.parts[p] == cs[: max(k for k, c in enumerate(cs, start=1) if c)]
    assert set(form.parts) == set(kept)
    assert_matches_reference(form)
    # the parse path splits the reduced fraction back into the same parts
    fn = reference(form)
    assert RationalForm.from_coeffs(fn.num.coeffs, fn.den.coeffs) == form
