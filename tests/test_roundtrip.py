"""Property tests: parse(format(x)) reproduces x for the text formats that
share the line reader and the lossless float formatter (garden files,
torus-form files, sphere-form files).

Torus points are compared exactly: the reduction to the fundamental cell
is idempotent, so a point written by residuum reads back to the same
name.  Zeta coefficients range up to 1e6 in size: the zero-sum check is
relative to their size, so re-summing them in text order passes.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from residuum.exact import ExactComplex
from residuum.models import SphereModel, TorusModel
from residuum.periods import GardenError, format_garden_text, make_garden, parse_garden_text
from residuum.sphere import RationalForm, SpherePoint
from residuum.torus import EllipticForm, Torus

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)
TORI = {tau: Torus(tau) for tau in (0.3 + 1.1j, 0.1 + 0.6j, -0.4 + 0.9j)}

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
exacts = st.builds(ExactComplex, rationals, rationals)
floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, floats, floats)
cell_points = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@st.composite
def sphere_forms(draw):
    num = draw(st.lists(exacts, min_size=1, max_size=4))
    den = draw(st.lists(exacts, min_size=1, max_size=3))
    assume(not all(c.is_zero() for c in den))
    return RationalForm.from_coeffs(num, den)


@st.composite
def torus_forms(draw):
    torus = TORI[draw(st.sampled_from(sorted(TORI, key=lambda t: (t.real, t.imag))))]
    coeffs = draw(st.lists(complexes, max_size=3))
    logs = [(draw(cell_points), r) for r in coeffs + [-sum(coeffs, 0j)] if coeffs]
    seconds = draw(st.lists(st.tuples(cell_points, st.integers(2, 5), complexes), max_size=2))
    return EllipticForm(torus, draw(complexes), tuple(logs), tuple(seconds))


@SETTINGS
@given(sphere_forms())
def test_sphere_form_text_roundtrip(form):
    model = SphereModel()
    text = model.format_form(form)
    assert model.parse_form(text) == form
    assert model.format_form(model.parse_form(text)) == text


@SETTINGS
@given(torus_forms())
def test_torus_form_text_roundtrip(form):
    model = TorusModel(form.torus)
    back = model.parse_form(model.format_form(form))
    assert back.c0 == form.c0
    assert Counter(back.log_terms) == Counter(form.log_terms)
    assert Counter(back.second_terms) == Counter(form.second_terms)


def garden_roundtrip(garden):
    text = format_garden_text(garden)
    back = parse_garden_text(text)
    assert back.model.header_lines() == garden.model.header_lines()
    assert len(back.components) == len(garden.components)
    assert back.component_names == garden.component_names
    assert back.basepoint == garden.basepoint
    return text, back


@SETTINGS
@given(st.lists(exacts, max_size=4, unique=True), st.booleans())
def test_sphere_garden_text_roundtrip(values, with_infinity):
    points = [SpherePoint.finite(v) for v in values]
    points += [SpherePoint.infinity()] if with_infinity else []
    text, back = garden_roundtrip(make_garden(SphereModel(), points))
    assert format_garden_text(back) == text


@SETTINGS
@given(st.sampled_from(sorted(TORI, key=lambda t: (t.real, t.imag))), st.lists(cell_points, max_size=4))
def test_torus_garden_text_roundtrip(tau, points):
    try:
        garden = make_garden(TorusModel(TORI[tau]), points)
    except GardenError:
        assume(False)
    garden_roundtrip(garden)


def test_large_zeta_coefficients_reload():
    torus = TORI[-0.4 + 0.9j]
    logs = ((0j, 1j), (0.4 + 0.1j, 131071.45023355215j), (0.3 + 0.2j, -131072.45023355214j))
    form = EllipticForm(torus, 0j, logs)
    model = TorusModel(torus)
    back = model.parse_form(model.format_form(form))
    assert Counter(back.log_terms) == Counter(form.log_terms)
