import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from residuum.divisor import CDivisor
from residuum.exact import ExactComplex
from residuum.models import SphereModel, TorusModel, prescribe_residues, third_kind, second_kind
from residuum.periods import (
    GardenError,
    _auto_basepoint,
    _clearance_of_loops,
    _default_loops,
    Path,
    PathError,
    PrescriptionError,
    QuadratureError,
    circle,
    contour_integral,
    detoured_segment,
    fixed_contour_integral,
    is_exact,
    line,
    long_period_vector,
    make_garden,
    normalize_pure_imaginary,
    period_tolerance,
    period_vectors,
    prescribe_full,
    segment_loop,
    short_period_vector,
    small_circle_radius,
    well_defined_residue_check,
)
from residuum.sphere import INFINITY, RationalForm
from residuum.torus import Torus, holomorphic_torus, second_kind_torus, third_kind_torus

TWO_PI_I = 2j * math.pi
SPHERE = SphereModel()
TAU = 0.3 + 1.1j
TORUS = Torus(TAU)
TMODEL = TorusModel(TORUS)

DZ_OVER_Z = RationalForm.from_coeffs([1], [0, 1])


# -- paths and raw quadrature -------------------------------------------------


def test_contour_dz_over_z_unit_circle():
    val = contour_integral(DZ_OVER_Z, circle(0j, 1.0))
    assert abs(val - TWO_PI_I) < 1e-12


def test_contour_second_kind_vanishes():
    form = RationalForm.from_coeffs([1], [0, 0, 1])
    assert abs(contour_integral(form, circle(0j, 1.0))) < 1e-12


def test_contour_torus_primitive():
    loop = segment_loop(0.5 + 0.2j, 1.0 + 0j)
    val = contour_integral(holomorphic_torus(TORUS, 1.0), loop)
    assert abs(val - 1.0) < 1e-12


def test_fixed_contour_matches_adaptive():
    a = contour_integral(DZ_OVER_Z, circle(0.1 + 0.1j, 0.7))
    b = fixed_contour_integral(DZ_OVER_Z, circle(0.1 + 0.1j, 0.7), nodes_per_piece=256)
    assert abs(a - b) < 1e-10


def test_quadrature_error_when_pole_hugs_path():
    # pole 1e-7 inside the unit circle: panel doubling cannot resolve it
    near = RationalForm.from_coeffs([1], [ExactComplex.coerce("-9999999/10000000"), 1])
    with pytest.raises(QuadratureError):
        contour_integral(near, circle(0j, 1.0))


def test_path_chaining_validation():
    with pytest.raises(PathError):
        Path([line(0, 1), line(2, 3)])
    with pytest.raises(PathError):
        Path([line(0, 1)], offset=0j)  # does not close


def test_path_reversal_negates_integral():
    loop = circle(0j, 1.0)
    v = contour_integral(DZ_OVER_Z, loop)
    w = contour_integral(DZ_OVER_Z, loop.reversed())
    assert abs(v + w) < 1e-12


def test_detoured_segment_avoids_pole():
    path = detoured_segment(-1.0 + 0j, 1.0 + 0j, [0j], margin=0.2)
    assert path.min_distance(0j) >= 0.2 - 1e-9
    assert abs(path.start + 1.0) < 1e-12 and abs(path.end - 1.0) < 1e-12


def test_detoured_segment_rejects_endpoint_at_pole():
    with pytest.raises(PathError):
        detoured_segment(0j, 1.0 + 0j, [0.05j], margin=0.2)


# -- gardens -------------------------------------------------------------------


def sphere_garden(points):
    return make_garden(SPHERE, points)


def torus_garden(points):
    return make_garden(TMODEL, points)


def test_make_garden_sphere():
    g = sphere_garden([0, 1])
    assert g.loop_basis == ()
    assert len(g.components) == 2
    assert min(abs(g.basepoint - p) for p in (0, 1)) > 0.5


def test_make_garden_torus_clearance():
    g = torus_garden([0.2 + 0.3j, 0.6 + 0.7j])
    assert len(g.loop_basis) == 2
    for loop in g.loop_basis:
        for p in g.pole_sites():
            assert loop.min_distance(p) > 1e-3


def test_long_period_sphere_empty():
    g = sphere_garden([0, 1])
    assert long_period_vector(third_kind(SPHERE, 0, 1), g) == []


def test_long_period_torus_dz():
    g = torus_garden([0.2 + 0.3j])
    b = long_period_vector(holomorphic_torus(TORUS, 1.0), g)
    assert abs(b[0] - 1.0) < 1e-12
    assert abs(b[1] - TAU) < 1e-12


def test_long_period_torus_wp():
    p = 0.2 + 0.3j
    g = torus_garden([p])
    form = second_kind_torus(TORUS, p, 2)
    b = long_period_vector(form, g)
    assert abs(b[0] + TORUS.eta1) < 1e-8
    assert abs(b[1] + TORUS.eta2) < 1e-8


def test_form_membership_enforced():
    g = torus_garden([0.2 + 0.3j])
    stray = third_kind_torus(TORUS, 0.5 + 0.5j, 0.1 + 0.8j)
    with pytest.raises(GardenError):
        long_period_vector(stray, g)


def test_short_period_sphere():
    g = sphere_garden([0, 1])
    form = third_kind(SPHERE, 0, 1)
    d = short_period_vector(form, g)
    assert abs(d[0] - TWO_PI_I) < 1e-12
    assert abs(d[1] + TWO_PI_I) < 1e-12


def test_short_period_includes_infinity_component():
    g = sphere_garden([0, INFINITY])
    form = third_kind(SPHERE, 0, INFINITY)
    d = short_period_vector(form, g)
    assert abs(d[0] - TWO_PI_I) < 1e-9
    assert abs(d[1] + TWO_PI_I) < 1e-9


def test_short_period_second_kind_zero():
    g = sphere_garden([0])
    assert abs(short_period_vector(second_kind(SPHERE, 0, 3), g)[0]) < 1e-12


def test_short_period_torus_third_kind():
    p, q = 0.2 + 0.3j, 0.6 + 0.7j
    g = torus_garden([p, q])
    d = short_period_vector(third_kind(TMODEL, p, q), g)
    assert abs(d[0] - TWO_PI_I) < 1e-9
    assert abs(d[1] + TWO_PI_I) < 1e-9


def test_short_period_random_sphere_agreement():
    # quadrature vs exact residues on random simple-pole forms (the
    # cross-check inside short_period_vector raises on any disagreement)
    rng = random.Random(4)
    for _ in range(100):
        pts = rng.sample(range(-3, 4), 3)
        coeffs = [complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in pts[:-1]]
        coeffs.append(-sum(coeffs))
        div = CDivisor.from_pairs(
            [(str(ExactComplex(p)), ExactComplex.from_complex(c)) for p, c in zip(pts, coeffs)]
        )
        form = prescribe_residues(SPHERE, div)
        g = sphere_garden(pts)
        d = short_period_vector(form, g)
        for dj, c in zip(d, coeffs):
            assert abs(dj - TWO_PI_I * c) < 1e-9


def test_well_defined_residue_check():
    g = sphere_garden([0, 1])
    assert well_defined_residue_check(DZ_OVER_Z, g, 0, circle(0j, 0.1), circle(0j, 0.4))


def test_well_defined_residue_check_torus():
    p, q = 0.2 + 0.3j, 0.62 + 0.71j
    g = torus_garden([p, q])
    form = third_kind(TMODEL, p, q)
    assert well_defined_residue_check(form, g, 0, circle(p, 0.05), circle(p, 0.15))


def test_well_defined_residue_check_rejects_two_poles():
    g = sphere_garden([0, 1])
    with pytest.raises(GardenError):
        well_defined_residue_check(DZ_OVER_Z, g, 0, circle(0j, 0.1), circle(0.5, 0.8))


def test_well_defined_residue_check_random_circles():
    # circle-invariance for random radii and slightly offset centers
    rng = random.Random(11)
    g = sphere_garden([0, 1])
    form = third_kind(SPHERE, 0, 1)
    for _ in range(20):
        r1, r2 = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
        off = complex(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
        assert well_defined_residue_check(
            form, g, 0, circle(off, r1), circle(-off, r2)
        )


def test_torus_prescribe_residue_divisor_roundtrip():
    from residuum.models import residue_divisor as model_residue_divisor

    p, q = 0.2 + 0.3j, 0.6 + 0.7j
    g = torus_garden([p, q])
    div = g.divisor([ExactComplex(2, 1), ExactComplex(-2, -1)])
    form = prescribe_residues(TMODEL, div)
    back = model_residue_divisor(TMODEL, form)
    assert back.as_dict() == div.as_dict()


def test_is_exact_sphere():
    assert is_exact(second_kind(SPHERE, 0, 2), sphere_garden([0]))
    # dz/z carries poles at 0 and infinity, so the garden declares both
    assert not is_exact(DZ_OVER_Z, sphere_garden([0, INFINITY]))


def test_is_exact_torus_wp_fails():
    p = 0.2 + 0.3j
    g = torus_garden([p])
    assert not is_exact(second_kind_torus(TORUS, p, 2), g)


def test_prescribe_full_sphere():
    g = sphere_garden([0, INFINITY])
    div = g.divisor([1, -1])
    form = prescribe_full([], div, g)
    assert form == DZ_OVER_Z


def test_prescribe_full_torus_roundtrip():
    p, q = 0.2 + 0.3j, 0.6 + 0.7j
    g = torus_garden([p, q])
    div = g.divisor([1, -1])
    target = [0j, 0j]
    form = prescribe_full(target, div, g)
    longs, shorts = period_vectors(form, g)
    assert all(abs(b) < 1e-8 for b in longs)
    assert abs(shorts[0] - TWO_PI_I) < 1e-9
    assert abs(shorts[1] + TWO_PI_I) < 1e-9


def test_prescribe_full_torus_nonzero_targets():
    p, q = 0.2 + 0.3j, 0.6 + 0.7j
    g = torus_garden([p, q])
    div = g.divisor([ExactComplex(0, 1), ExactComplex(0, -1)])
    target = [1.5 - 0.25j, -2.0 + 1.0j]
    form = prescribe_full(target, div, g)
    longs = long_period_vector(form, g)
    assert abs(longs[0] - target[0]) < 1e-8
    assert abs(longs[1] - target[1]) < 1e-8


def test_prescribe_full_rejects_nonzero_sum():
    g = sphere_garden([0])
    with pytest.raises(PrescriptionError):
        prescribe_full([], g.divisor([1]), g)


def test_prescribe_full_empty_divisor_torus():
    g = torus_garden([])
    form = prescribe_full([2.0 + 0j, 2.0 * TAU], CDivisor((), ()), g)
    longs = long_period_vector(form, g)
    assert abs(longs[0] - 2.0) < 1e-10
    with pytest.raises(PrescriptionError):
        prescribe_full([1.0 + 0j, 0j], CDivisor((), ()), g)


def test_normalize_pure_imaginary_torus():
    p, q = 0.2 + 0.3j, 0.6 + 0.7j
    g = torus_garden([p, q])
    form = third_kind(TMODEL, p, q)
    normed = normalize_pure_imaginary(form, g)
    longs = long_period_vector(normed, g)
    assert abs(longs[0].real) < 1e-9
    assert abs(longs[1].real) < 1e-9


def test_normalize_pure_imaginary_dz():
    g = torus_garden([0.2 + 0.3j])
    normed = normalize_pure_imaginary(holomorphic_torus(TORUS, 1.0), g)
    longs = long_period_vector(normed, g)
    assert abs(longs[0].real) < 1e-12
    assert abs(longs[1].real) < 1e-12


def test_normalize_sphere_unchanged():
    g = sphere_garden([0, 1])
    form = third_kind(SPHERE, 0, 1)
    assert normalize_pure_imaginary(form, g) is form


def test_period_map_linearity():
    p, q = 0.2 + 0.3j, 0.6 + 0.7j
    g = torus_garden([p, q])
    f1 = third_kind(TMODEL, p, q)
    f2 = holomorphic_torus(TORUS, 1.0)
    a, b = 2.0 - 1.0j, 0.5j
    combo = f1.scale(a) + f2.scale(b)
    l_combo, s_combo = period_vectors(combo, g)
    l1, s1 = period_vectors(f1, g)
    l2, s2 = period_vectors(f2, g)
    for i in range(2):
        assert abs(l_combo[i] - a * l1[i] - b * l2[i]) < 1e-9
    for j in range(2):
        assert abs(s_combo[j] - a * s1[j] - b * s2[j]) < 1e-9


def test_small_circle_radius_respects_neighbors():
    g = sphere_garden([0, ExactComplex(1, 0)])
    assert small_circle_radius(g, 0) == pytest.approx(0.5)


def test_period_tolerance_env(monkeypatch):
    monkeypatch.setenv("RESIDUUM_TOL", "1e-5")
    assert period_tolerance() == 1e-5
    monkeypatch.delenv("RESIDUUM_TOL")
    assert period_tolerance() == 1e-8


def test_garden_text_roundtrip_and_loop_overrides():
    from residuum.periods import format_garden_text, parse_garden_text

    g = torus_garden([0.2 + 0.3j, 0.6 + 0.7j])
    text = format_garden_text(g)
    again = parse_garden_text(text)
    assert again.component_names == g.component_names
    assert abs(again.basepoint - g.basepoint) < 1e-15

    # custom loop overrides: one circle plus a polyline closing up to the
    # lattice vector 1 (keeps the required count of two)
    override = text + "loop circle 0.31 + 0.52 i ; 0.07\nloop polyline 0.05 + 0.05 i ; 1.05 + 0.05 i\n"
    custom = parse_garden_text(override)
    assert len(custom.loop_basis) == 2
    assert custom.loop_basis[0].offset == 0j
    assert abs(custom.loop_basis[1].offset - 1.0) < 1e-12


def test_garden_sphere_loop_override_must_close():
    from residuum.periods import parse_garden_text

    bad = "model sphere\ncomponent 0\nloop polyline 1 ; 2\n"
    with pytest.raises(GardenError):
        parse_garden_text(bad)


def reference_basepoint(model, sites):
    """The scalar candidate search that `_auto_basepoint` vectorizes."""

    def score(z):
        loops = _default_loops(model, z)
        if loops:
            return _clearance_of_loops(loops, sites)
        return min((abs(z - p) for p in sites), default=math.inf)

    candidates = model.basepoint_grid()
    best_val, best = -math.inf, candidates[0]
    for z in candidates:
        v = score(z)
        if v > best_val + 1e-15:
            best_val, best = v, z
    return best


# exact fractions put poles on symmetric layouts, so candidates tie exactly
coordinate = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.2, 0.8, 1.0, -0.5, -1.0]), st.floats(-2, 2))
torus_models = st.sampled_from([TMODEL, TorusModel(Torus(1j)), TorusModel(Torus(0.5 + 0.9j))])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.just(SPHERE), torus_models), st.lists(st.tuples(coordinate, coordinate), max_size=5))
def test_auto_basepoint_matches_scalar_search(model, coords):
    if model is SPHERE:
        points = [complex(x, y) for x, y in coords]
    else:  # lattice coordinates s + t tau
        points = [s + t * model.torus.tau for s, t in coords]
    sites = model.pole_sites([model.coerce_point(p) for p in points])
    assert _auto_basepoint(model, sites) == reference_basepoint(model, sites)


@pytest.mark.parametrize("model, points", [
    (SPHERE, [-1, 1]),
    (SPHERE, [1, 1j, -1, -1j]),
    (TorusModel(Torus(1j)), [0.5 + 0.5j]),
    (TorusModel(Torus(1j)), [0.25 + 0.25j, 0.75 + 0.75j]),
    (TMODEL, [0.25 + 0.3 * TAU, 0.75 + 0.7 * TAU]),
    # a later candidate beats an earlier one by less than 1e-15 here
    (TMODEL, [2 / 3 + 0.75 * TAU]),
    (TorusModel(Torus(0.5 + 0.9j)), [0.75 + 0.75 * (0.5 + 0.9j), 2 / 3 * (0.5 + 0.9j)]),
])
def test_auto_basepoint_ties_pick_the_first_candidate(model, points):
    sites = model.pole_sites([model.coerce_point(p) for p in points])
    assert _auto_basepoint(model, sites) == reference_basepoint(model, sites)
