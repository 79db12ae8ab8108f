"""Stacked quadrature: the forms of a `FormStack` integrated in one pass give
each form's one-form integral to the bit, each row converging on its own,
and a failing row raises what a call on that form alone raises."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from residuum.exact import ExactComplex
from residuum.models import SphereModel, TorusModel
from residuum.periods import (
    FormStack,
    Path,
    QuadratureError,
    circle,
    contour_integral,
    line,
    parse_garden_text,
    period_vectors,
    stacked_period_vectors,
)
from residuum.pluriharmonic import AntiMeromorphicForm, Pair, spanning_forms
from residuum.sphere import INFINITY, second_kind, third_kind
from residuum.torus import EllipticForm, Torus

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
SPHERE = SphereModel()
# Im tau 1.1 sums 8 lattice rows per zeta point, Im tau 0.6 and 0.35 sum 12
# and 19, whose row blocks have an odd number of points
TORI = [TorusModel(Torus(tau)) for tau in (0.3 + 1.1j, 0.1 + 0.6j, 0.5 + 0.35j)]
CELL = (0.2, 0.5, 0.8)  # lattice coordinates s, t of the candidate poles
SPHERE_POLES = [ExactComplex(a, b) for a, b in ((0, 0), (1, 0), (0, 1), (-1, 1), (2, -1))]

coefficient = st.complex_numbers(min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False)
exact_coefficient = st.builds(
    lambda a, b, d: ExactComplex(a, b) / d,
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4),
).filter(lambda c: c != 0)


def torus_pole(model, s, t):
    return CELL[s] + CELL[t] * model.torus.tau


@st.composite
def torus_form(draw, model):
    index = st.integers(0, len(CELL) - 1)
    logs = draw(st.lists(st.tuples(index, index, coefficient), max_size=3))
    seconds = draw(st.lists(st.tuples(index, index, st.integers(2, 4), coefficient), max_size=2))
    return EllipticForm(
        model.torus,
        draw(coefficient),
        tuple((torus_pole(model, s, t), r) for s, t, r in logs),
        tuple((torus_pole(model, s, t), order, c) for s, t, order, c in seconds),
        validate=False,
    )


@st.composite
def sphere_form(draw):
    pole = st.sampled_from(SPHERE_POLES)
    form = second_kind(draw(pole), 2).scale(draw(exact_coefficient))
    for _ in range(draw(st.integers(0, 2))):
        p, q = draw(pole), draw(st.sampled_from(SPHERE_POLES + [INFINITY]))
        assume(p != q)
        form = form + third_kind(p, q).scale(draw(exact_coefficient))
    if draw(st.booleans()):
        form = form + second_kind(draw(pole), draw(st.integers(2, 4))).scale(draw(exact_coefficient))
    return form


@st.composite
def path_clear_of(draw, poles, box):
    """A circle or a polyline of one to three segments in the box, 0.05 or
    more from every pole."""
    x0, x1, y0, y1 = box
    point = st.builds(complex, st.floats(x0, x1), st.floats(y0, y1))
    if draw(st.booleans()):
        path = circle(draw(point), draw(st.floats(0.1, 0.8)))
    else:
        pts = draw(st.lists(point, min_size=2, max_size=4))
        assume(all(abs(a - b) > 0.05 for a, b in zip(pts, pts[1:])))
        path = Path([line(a, b) for a, b in zip(pts, pts[1:])])
    assume(all(path.min_distance(p) > 0.05 for p in poles))
    return path


def one_form_calls(forms, path):
    return [contour_integral(f, path) for f in forms]


@SETTINGS
@given(data=st.data(), model=st.sampled_from(TORI))
def test_torus_stack_integrals_equal_one_form_integrals(data, model):
    forms = data.draw(st.lists(torus_form(model), min_size=1, max_size=3))
    poles = [p + m + n * model.torus.tau for f in forms for p, _ in f.poles()
             for m in (-1, 0, 1) for n in (-1, 0, 1)]
    tau = model.torus.tau
    path = data.draw(path_clear_of(poles, (-0.2, 1.2 + tau.real, -0.2, tau.imag + 0.2)))
    assert contour_integral(FormStack(model, tuple(forms)), path) == one_form_calls(forms, path)


@SETTINGS
@given(data=st.data())
def test_sphere_stack_integrals_equal_one_form_integrals(data):
    forms = data.draw(st.lists(sphere_form(), min_size=1, max_size=3))
    poles = [p.to_complex() for p in SPHERE_POLES]
    path = data.draw(path_clear_of(poles, (-2.0, 3.0, -2.0, 2.0)))
    assert contour_integral(FormStack(SPHERE, tuple(forms)), path) == one_form_calls(forms, path)


@SETTINGS
@given(forms=st.lists(sphere_form(), min_size=1, max_size=3), radius=st.floats(0.05, 0.4))
def test_sphere_stack_on_the_circle_at_infinity(forms, radius):
    # in the w = 1/z chart; every finite pole has |1/p| >= 1/sqrt(5) > 0.4
    stack = FormStack(SPHERE, tuple(forms))
    loop = circle(0j, radius)
    stacked = contour_integral(lambda w: -stack.eval_complex(1.0 / w) / w**2, loop)
    assert stacked == [contour_integral(lambda w: -f.eval_complex(1.0 / w) / w**2, loop) for f in forms]


def counted_points(form, path):
    points = []

    def integrand(z):
        points.append(np.size(z))
        return form.eval_complex(z)

    value = contour_integral(integrand, path)
    return value, sum(points)


def test_rows_converge_at_different_panel_counts():
    model = TORI[0]
    near = EllipticForm(model.torus, 0j, ((0.5 + 0.5j, 1.0), (0.2 + 0.2j, -1.0)))
    flat = EllipticForm(model.torus, 2.0 - 1j, ((0.25 + 0.95j, 2.0), (0.75 + 1.05j, -2.0)))
    path = Path([line(0.3 + 0.6j, 0.9 + 0.51j)])  # passes 0.015 from the pole 0.5 + 0.5i
    (v_near, n_near), (v_flat, n_flat) = counted_points(near, path), counted_points(flat, path)
    assert n_near > 4 * n_flat  # the pole row needs several more refinements
    assert contour_integral(FormStack(model, (flat, near)), path) == [v_flat, v_near]
    assert contour_integral(FormStack(model, (near, flat)), path) == [v_near, v_flat]


def test_only_the_second_row_fails_with_its_one_form_message():
    model = TORI[0]
    good = EllipticForm(model.torus, 1.0, ((0.2 + 0.2j, 1.0), (0.7 + 0.6j, -1.0)))
    bad = EllipticForm(model.torus, 0j, (), ((0.5 + 0.5j, 40, 1.0),))
    path = Path([line(0.3 + 0.45j, 0.9 + 0.45j), line(0.9 + 0.45j, 0.9 + 0.9j)])
    with pytest.raises(QuadratureError) as alone:
        contour_integral(bad, path)
    with pytest.raises(QuadratureError) as stacked:
        contour_integral(FormStack(model, (good, bad)), path)
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.rows[0] == contour_integral(good, path)
    assert stacked.value.rows[1] is stacked.value


HIGH_ORDER_GARDEN = (
    "model torus\ntau = 0.3 + 1.1 i\ncutoff = 30\n"
    "component 1/5 + 3/10 i\ncomponent 1/2 + 1/2 i\n"
)


def test_stacked_periods_raise_in_one_form_order():
    # order 20 passes its loops and fails the residue check on the first
    # small circle; order 40 fails quadrature on the first loop
    garden = parse_garden_text(HIGH_ORDER_GARDEN)
    f20, f40 = (garden.model.parse_form(f"torus-form\npp 1/2 + 1/2 i : {k} : 1\n") for k in (20, 40))
    messages = []
    for form in (f20, f40):
        with pytest.raises(QuadratureError) as alone:
            period_vectors(form, garden)
        messages.append(str(alone.value))
    assert "disagrees" in messages[0] and "did not converge" in messages[1]
    for first, message in ((f20, messages[0]), (f40, messages[1])):
        other = f40 if first is f20 else f20
        with pytest.raises(QuadratureError, match=f"^{re.escape(message)}$"):
            stacked_period_vectors([first, other], garden)


GARDENS = [
    "model torus\ntau = 0.1 + 0.6 i\ncutoff = 30\n"
    "component 1/5 + 1/4 i\ncomponent 11/20 + 3/4 i\ncomponent 4/5 + 3/10 i\n",
    "model sphere\ncomponent 0\ncomponent 1\ncomponent 2 + i\ncomponent inf\n",
]


@pytest.mark.parametrize("text", GARDENS, ids=["torus", "sphere"])
def test_spanning_and_pair_periods_equal_one_form_periods(text):
    garden = parse_garden_text(text)
    forms = spanning_forms(garden)
    assert stacked_period_vectors(forms, garden) == [period_vectors(f, garden) for f in forms]
    pair = Pair.build(forms[0], garden)
    psi = pair.phi_hat.conjugate_of
    long_psi, short_psi = period_vectors(psi, garden)
    assert (list(pair.long_phi), list(pair.short_phi)) == period_vectors(pair.phi, garden)
    assert list(pair.long_hat) == [v.conjugate() for v in long_psi]
    assert list(pair.short_hat) == [v.conjugate() for v in short_psi]
    path = Path([line(garden.basepoint, 0.45 + 0.4j)])
    assert pair.integral(path) == contour_integral(pair.phi, path) + AntiMeromorphicForm(psi).integrate(path)
