import math
import random

import numpy as np
import pytest

from helpers import reference_contour_integral
from residuum.exact import ExactComplex
from residuum.models import SphereModel, TorusModel, prescribe_residues, third_kind
from residuum.periods import (
    GL_NODES,
    GardenError,
    Path,
    circle,
    line,
    make_garden,
    period_vectors,
)
from residuum.pluriharmonic import (
    AntiMeromorphicForm,
    Pair,
    PairError,
    PluriharmonicField,
    conjugate,
    integrate_pair,
    laplacian_check,
    log_field,
    pairs_equivalent,
    period_matrix_rank,
    pluriharmonic_space_dim,
    spanning_forms,
    well_definedness_audit,
)
from residuum.sphere import RationalForm, second_kind
from residuum.torus import Torus

SPHERE = SphereModel()
TAU = 0.3 + 1.1j
TORUS = Torus(TAU)
TMODEL = TorusModel(TORUS)

P01_GARDEN = make_garden(SPHERE, [0, 1], basepoint=0.5 + 1.2j)
TP, TQ = 0.2 + 0.3j, 0.6 + 0.7j
T_GARDEN = make_garden(TMODEL, [TP, TQ])


def test_conjugate_sphere_real_residues():
    form = third_kind(SPHERE, 0, 1)
    hat = conjugate(form, P01_GARDEN)
    # real residues, no long periods: the auxiliary form is the form itself
    assert hat.conjugate_of == form


def test_conjugate_integrals_conjugate():
    form = third_kind(SPHERE, 0, 1)
    hat = AntiMeromorphicForm(form)
    from residuum.periods import contour_integral

    loop = circle(0j, 0.25)
    assert abs(hat.integrate(loop) - contour_integral(form, loop).conjugate()) < 1e-12


def test_pair_invariants_sphere():
    pair = Pair.build(third_kind(SPHERE, 0, 1), P01_GARDEN)
    assert max(pair.invariant_defects()) < 1e-8


def test_pair_invariants_torus():
    pair = Pair.build(third_kind(TMODEL, TP, TQ), T_GARDEN)
    assert max(pair.invariant_defects()) < 1e-8


def test_pair_invariants_torus_complex_residues():
    div = T_GARDEN.divisor([ExactComplex(1, 2), ExactComplex(-1, -2)])
    form = prescribe_residues(TMODEL, div)
    pair = Pair.build(form, T_GARDEN)
    assert max(pair.invariant_defects()) < 1e-8


def test_conjugate_rejects_unbalanced_residues():
    from residuum.torus import EllipticForm

    rogue = EllipticForm(TORUS, 0j, ((TP, 1.0 + 0j),), validate=False)
    with pytest.raises(PairError):
        conjugate(rogue, make_garden(TMODEL, [TP]))


def test_integrate_pair_log4_example():
    pair = Pair.build(third_kind(SPHERE, 0, 1), P01_GARDEN)
    value = integrate_pair(pair, 2.0 + 0j)
    assert abs(value - math.log(4.0)) < 1e-8


def test_integrate_pair_symmetry_line_vanishes():
    pair = Pair.build(third_kind(SPHERE, 0, 1), P01_GARDEN)
    for y in (-0.8, 0.4, 1.9):
        assert abs(integrate_pair(pair, 0.5 + y * 1j)) < 1e-8


def test_integrate_pair_path_independence_torus():
    form = third_kind(TMODEL, TP, TQ)
    pair = Pair.build(form, T_GARDEN)
    z = T_GARDEN.basepoint + 0.25 + 0.1j
    direct = Path([line(T_GARDEN.basepoint, z)])
    around = Path(
        [line(T_GARDEN.basepoint, T_GARDEN.basepoint + 1.0), line(T_GARDEN.basepoint + 1.0, z)]
    )
    v1 = pair.integral(direct)
    v2 = pair.integral(around)
    assert abs(v1 - v2) < 1e-8


def test_field_value_matches_closed_form():
    field = log_field(P01_GARDEN, [1.0, -1.0])
    rng = random.Random(5)
    base = P01_GARDEN.basepoint

    def h(z):
        return math.log(abs(z) ** 2) - math.log(abs(z - 1) ** 2)

    checked = 0
    while checked < 50:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if min(abs(z), abs(z - 1)) < 0.1:
            continue
        assert abs(field.real_value(z) - (h(z) - h(base))) < 1e-8
        checked += 1


def test_field_rejects_pole_adjacent_evaluation():
    field = log_field(P01_GARDEN, [1.0, -1.0])
    with pytest.raises(GardenError):
        field.value(1e-4 + 0j)


def test_real_value_guards_imaginary_part():
    # complex residues make h genuinely complex-valued
    div = P01_GARDEN.divisor([ExactComplex(0, 1), ExactComplex(0, -1)])
    pair = Pair.build(prescribe_residues(SPHERE, div), P01_GARDEN)
    field = PluriharmonicField(pair)
    with pytest.raises(PairError):
        field.real_value(2.0 + 0.2j)
    # but the complex value is still single-valued
    w1 = field.value(2.0 + 0.2j)
    assert w1 == w1  # finite


def test_well_definedness_audit_valid_pairs():
    pair = Pair.build(third_kind(SPHERE, 0, 1), P01_GARDEN)
    assert well_definedness_audit(pair, n_random_loops=10, seed=0) < 1e-8
    tpair = Pair.build(third_kind(TMODEL, TP, TQ), T_GARDEN)
    assert well_definedness_audit(tpair, n_random_loops=10, seed=0) < 1e-8


def test_well_definedness_audit_detects_broken_pair():
    form = third_kind(SPHERE, 0, 1)
    hat = conjugate(form, P01_GARDEN)
    broken = AntiMeromorphicForm(hat.conjugate_of.scale(2))
    pair = Pair.assemble(form, broken, P01_GARDEN)
    worst = well_definedness_audit(pair, n_random_loops=10, seed=0)
    assert abs(worst - 2 * math.pi) < 1e-6


def test_well_definedness_audit_zero_pair():
    pair = Pair.build(RationalForm.zero(), make_garden(SPHERE, [0, 1]))
    assert well_definedness_audit(pair, n_random_loops=5, seed=1) == 0.0


def test_laplacian_decay_sphere():
    field = log_field(P01_GARDEN, [1.0, -1.0])
    rng = random.Random(7)
    samples = []
    while len(samples) < 20:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(z), abs(z - 1)) > 0.6:
            samples.append(z)
    h = 0.05
    r1 = laplacian_check(field, samples, h)
    r2 = laplacian_check(field, samples, h / 2)
    assert 3.5 < r1 / r2 < 4.5


def test_laplacian_constant_field_zero():
    pair = Pair.build(RationalForm.zero(), make_garden(SPHERE, [0, 1]))
    field = PluriharmonicField(pair)
    assert laplacian_check(field, [2.0 + 2.0j], 0.05) < 1e-12


def test_laplacian_rejects_close_samples():
    field = log_field(P01_GARDEN, [1.0, -1.0])
    with pytest.raises(GardenError):
        laplacian_check(field, [0.1 + 0j], 0.05)


def test_pairs_equivalent_reflexive_and_exact_stability():
    form = third_kind(SPHERE, 0, 1)
    pair1 = Pair.build(form, P01_GARDEN)
    assert pairs_equivalent(pair1, pair1)
    # adding an exact differential (zero periods) keeps equivalence
    exact_part = second_kind(0, 2)  # d(-1/z)
    pair2 = Pair.build(form + exact_part, P01_GARDEN)
    assert pairs_equivalent(pair1, pair2)


def test_pairs_equivalent_distinguishes_divisors():
    pair1 = Pair.build(third_kind(SPHERE, 0, 1), P01_GARDEN)
    pair2 = Pair.build(third_kind(SPHERE, 1, 0), P01_GARDEN)
    assert not pairs_equivalent(pair1, pair2)


def test_pairs_equivalent_garden_mismatch():
    pair1 = Pair.build(third_kind(SPHERE, 0, 1), P01_GARDEN)
    other = make_garden(SPHERE, [0, ExactComplex(2)])
    pair3 = Pair.build(third_kind(SPHERE, 0, 2), other)
    with pytest.raises(PairError):
        pairs_equivalent(pair1, pair3)


@pytest.mark.parametrize("l,expected", [(1, 0), (2, 1), (3, 2), (4, 3)])
def test_space_dim_sphere(l, expected):
    pts = [ExactComplex(k) for k in range(l)]
    g = make_garden(SPHERE, pts)
    assert pluriharmonic_space_dim(g) == expected
    rank, gap = period_matrix_rank(g)
    assert rank == expected
    assert gap > 1e-4


@pytest.mark.parametrize("l,expected", [(1, 2), (2, 3), (3, 4), (4, 5)])
def test_space_dim_torus(l, expected):
    pts = [complex(0.15 + 0.2 * k, 0.25 + 0.12 * ((k * 7) % 3)) for k in range(l)]
    g = make_garden(TMODEL, pts)
    assert pluriharmonic_space_dim(g) == expected
    rank, gap = period_matrix_rank(g)
    assert rank == expected
    assert gap > 1e-4


def test_kappa_extracts_exact_form_from_log_field():
    field = log_field(P01_GARDEN, [1.0, -1.0])
    assert field.pair.phi == third_kind(SPHERE, 0, 1)


def test_kappa_constant_field_zero_form():
    g = make_garden(SPHERE, [0, 1])
    field = log_field(g, [0.0, 0.0])
    assert field.pair.phi.is_zero()


def test_kappa_roundtrip_preserves_periods():
    form = third_kind(TMODEL, TP, TQ)
    field = PluriharmonicField(Pair.build(form, T_GARDEN))
    back = field.pair.phi
    l1, s1 = period_vectors(form, T_GARDEN)
    l2, s2 = period_vectors(back, T_GARDEN)
    assert all(abs(a - b) < 1e-8 for a, b in zip(l1, l2))
    assert all(abs(a - b) < 1e-8 for a, b in zip(s1, s2))


def test_kappa_surjective_on_feasible_forms():
    rng = random.Random(9)
    for _ in range(5):
        a = complex(rng.randint(-3, 3), rng.randint(-3, 3))
        div = T_GARDEN.divisor(
            [ExactComplex.from_complex(a), ExactComplex.from_complex(-a)]
        )
        form = prescribe_residues(TMODEL, div)
        field = PluriharmonicField(Pair.build(form, T_GARDEN))
        back = field.pair.phi
        l1, s1 = period_vectors(form, T_GARDEN)
        l2, s2 = period_vectors(back, T_GARDEN)
        assert all(abs(x - y) < 1e-8 for x, y in zip(s1, s2))


def test_numeric_one_zero_part_extraction():
    # finite-difference (1,0)-part of dh matches the stored form: the field
    # h = integral of (phi + phi-hat) has dh/dz = phi's coefficient
    field = log_field(P01_GARDEN, [1.0, -1.0])
    phi = field.pair.phi
    rng = random.Random(3)
    h = 1e-5
    for _ in range(5):
        z = complex(rng.uniform(-1.5, 2.5), rng.uniform(-1.5, 1.5))
        if min(abs(z), abs(z - 1)) < 0.4:
            continue
        hx = (field.value(z + h) - field.value(z - h)) / (2 * h)
        hy = (field.value(z + 1j * h) - field.value(z - 1j * h)) / (2 * h)
        dz_part = (hx - 1j * hy) / 2.0
        assert abs(dz_part - phi.eval_complex(z)) < 1e-5


def test_spanning_forms_counts():
    assert len(spanning_forms(P01_GARDEN)) == 1
    assert len(spanning_forms(T_GARDEN)) == 3


def test_conjugate_is_prescribe_full_with_one_pass_per_loop(monkeypatch):
    from residuum import periods

    div = T_GARDEN.divisor([ExactComplex(1, 2), ExactComplex(-1, -2)])
    form = prescribe_residues(TMODEL, div)
    targets = [-v.conjugate() for v in periods.long_period_vector(form, T_GARDEN)]
    conj = T_GARDEN.divisor([ExactComplex(1, -2), ExactComplex(-1, 2)])
    assert conjugate(form, T_GARDEN).conjugate_of == periods.prescribe_full(targets, conj, T_GARDEN)

    passes = []  # per lockstep batch: integrand, paths, and the size of each integrand call
    batch = periods.contour_integrals

    def counted(integrand, paths):
        sizes = []
        passes.append((integrand, list(paths), sizes))
        return batch(lambda z: sizes.append(np.size(z)) or integrand.eval_complex(z), paths)

    monkeypatch.setattr(periods, "contour_integrals", counted)
    Pair.build(form, T_GARDEN)
    # phi with the residue-only base on the two loops, then phi with psi on
    # the two loops and the two small circles
    calls = [path for _, paths, _ in passes for path in paths]
    assert len(calls) == 6 and [len(paths) for _, paths, _ in passes] == [2, 4]
    for integrand, paths, sizes in passes:
        # one integrand call per refinement level, on the nodes that one call
        # per path visits: call k holds whole pieces at 2^(k+1) panels, and
        # there are as many calls as the slowest path has levels
        alone = []
        for path in paths:
            points = []
            reference_contour_integral(lambda z: points.append(np.size(z)) or integrand.eval_complex(z), path)
            alone.append(points)
        assert len(sizes) == max(len(points) for points in alone) < sum(len(points) for points in alone)
        assert all(n % (GL_NODES * 2 ** (k + 1)) == 0 for k, n in enumerate(sizes))
        assert sizes[0] == GL_NODES * 2 * len(paths) and sum(sizes) == sum(map(sum, alone))
