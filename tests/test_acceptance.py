"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Every tolerance is pinned here, not computed: exact zero where the
arithmetic is exact, 1e-9 for quadrature-vs-residue agreement, 1e-8 for
period cancellation, 1e-4 singular-value gaps, wall-clock caps where
stated.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from residuum.cech import cohomology_dims, standard_good_nerves
from residuum.chern import (
    HodgeRecord,
    TransitionData,
    Verdict,
    has_property_h,
    kernel_dimension,
    residue_feasible,
    sphere_divisor_transitions,
)
from residuum.exact import ExactComplex, ONE, ZERO
from residuum.models import SphereModel, TorusModel, prescribe_residues, third_kind
from residuum.periods import (
    long_period_vector,
    make_garden,
    normalize_pure_imaginary,
    short_period_vector,
)
from residuum.pluriharmonic import (
    Pair,
    PluriharmonicField,
    laplacian_check,
    pairs_equivalent,
    period_matrix_rank,
    pluriharmonic_space_dim,
    well_definedness_audit,
)
from residuum.sphere import (
    INFINITY,
    all_poles,
    check_residue_theorem,
    decompose_kinds,
    residue_at,
    residue_divisor,
    third_kind as sphere_third_kind,
)
from residuum.torus import Torus, second_kind_torus, third_kind_torus

TWO_PI_I = 2j * math.pi
SPHERE = SphereModel()
TAU = 0.3 + 1.1j
TORUS = Torus(TAU)
TMODEL = TorusModel(TORUS)
SPHERE_HODGE = HodgeRecord(0, 0, 0, 1)


@contextmanager
def criterion(num, name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.monotonic() - t0:.2f}s)")


from helpers import random_cover_divisor, random_split_form


def test_01_cech_betti_agreement():
    with criterion(1, "cech-betti"):
        t0 = time.monotonic()
        assert cohomology_dims(standard_good_nerves("sphere"), 2) == [1, 0, 1]
        assert cohomology_dims(standard_good_nerves("torus"), 2) == [1, 2, 1]
        assert time.monotonic() - t0 < 1.0


def test_02_residue_theorem_exact():
    with criterion(2, "residue-theorem"):
        t0 = time.monotonic()
        rng = random.Random(0)
        for _ in range(100):
            form = random_split_form(rng)
            assert check_residue_theorem(form) == ZERO
        assert time.monotonic() - t0 < 5.0


def test_03_third_kind_contract():
    with criterion(3, "third-kind"):
        # sphere, exact, including the infinity cases
        for p, q in ((ZERO, ONE), (ZERO, INFINITY), (INFINITY, ExactComplex(2))):
            form = sphere_third_kind(p, q)
            assert residue_at(form, p) == ONE
            assert residue_at(form, q) == -ONE
            assert all(order == 1 for _, order in all_poles(form))
        # torus: quadrature residues within 1e-9 of +-1
        p, q = 0.2 + 0.3j, 0.6 + 0.7j
        garden = make_garden(TMODEL, [p, q])
        form = third_kind_torus(TORUS, p, q)
        shorts = short_period_vector(form, garden)
        assert abs(shorts[0] / TWO_PI_I - 1.0) < 1e-9
        assert abs(shorts[1] / TWO_PI_I + 1.0) < 1e-9
        # pure-imaginary normalization drives the real parts below 1e-9
        normed = normalize_pure_imaginary(form, garden)
        longs = long_period_vector(normed, garden)
        assert all(abs(b.real) < 1e-9 for b in longs)


def test_04_feasibility_criterion():
    with criterion(4, "feasibility"):
        rng = random.Random(1)
        for k in range(50):
            divisor = random_cover_divisor(rng, force_zero_sum=(k % 2 == 0))
            transitions = sphere_divisor_transitions(divisor)
            result = residue_feasible(divisor, transitions, SPHERE_HODGE)
            total = divisor.coefficient_sum()
            # class coordinate equals the exact coefficient sum
            assert result.obstruction.coordinates == (total,)
            if total.is_zero():
                assert result.verdict is Verdict.FEASIBLE
            else:
                assert result.verdict is Verdict.INFEASIBLE
        # kernel-dimension dichotomy on synthetic cocycles
        nerve = standard_good_nerves("sphere")
        tri = nerve.k_simplices(2)[0]
        nonzero = lambda name: TransitionData(nerve, name, abstract_values={tri: 1})
        flat = lambda name: TransitionData(nerve, name, abstract_values={})
        for l in (1, 2, 3, 4):
            assert kernel_dimension([nonzero(f"W{i}") for i in range(l)]) == l - 1
            assert kernel_dimension([flat(f"W{i}") for i in range(l)]) == l


def test_05_second_kind_dimension():
    with criterion(5, "second-kind-dimension"):
        p = 0.2 + 0.3j
        garden = make_garden(TMODEL, [p])
        from residuum.torus import holomorphic_torus

        row_dz = long_period_vector(holomorphic_torus(TORUS, 1.0), garden)
        row_wp = long_period_vector(second_kind_torus(TORUS, p, 2), garden)
        det = row_dz[0] * row_wp[1] - row_dz[1] * row_wp[0]
        assert abs(det - TWO_PI_I) < 1e-9


def _random_torus_points(rng, n):
    points = []
    while len(points) < n:
        z = complex(rng.uniform(0.1, 0.9), 0) + complex(0, rng.uniform(0.1, 0.9)) * TAU
        z = complex(z.real, z.imag)
        if all(TORUS.translate_distance(z, q) > 0.2 for q in points):
            if TORUS.lattice_distance(z) > 0.15:
                points.append(z)
    return points


def test_06_pair_invariant_and_single_valuedness():
    with criterion(6, "pairs-single-valued"):
        t0 = time.monotonic()
        rng = random.Random(2)
        for k in range(20):
            # sphere configuration
            divisor = random_cover_divisor(rng, force_zero_sum=True)
            form = prescribe_residues(SPHERE, divisor)
            points = [name for name in divisor.components]
            garden = make_garden(SPHERE, points)
            pair = Pair.build(form, garden)
            assert max(pair.invariant_defects(), default=0.0) < 1e-8
            n_random = max(0, 30 - len(garden.loop_basis) - len(garden.components))
            assert well_definedness_audit(pair, n_random, seed=k) < 1e-8
        for k in range(20):
            # torus configuration
            pts = _random_torus_points(rng, rng.randint(2, 3))
            coeffs = [
                complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in pts[:-1]
            ]
            coeffs.append(-sum(coeffs))
            garden = make_garden(TMODEL, pts)
            divisor = garden.divisor([ExactComplex.from_complex(c) for c in coeffs])
            form = prescribe_residues(TMODEL, divisor)
            pair = Pair.build(form, garden)
            assert max(pair.invariant_defects(), default=0.0) < 1e-8
            n_random = max(0, 30 - len(garden.loop_basis) - len(garden.components))
            assert well_definedness_audit(pair, n_random, seed=100 + k) < 1e-8
        assert time.monotonic() - t0 < 60.0


def _pole_clear_samples(rng, sites, box, clearance, n):
    out = []
    while len(out) < n:
        z = complex(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        if all(abs(z - p) > clearance for p in sites):
            out.append(z)
    return out


def test_07_harmonicity():
    with criterion(7, "harmonicity"):
        rng = random.Random(3)
        # sphere field
        garden = make_garden(SPHERE, [0, 1], basepoint=0.5 + 1.2j)
        pair = Pair.build(sphere_third_kind(0, 1), garden)
        field = PluriharmonicField(pair)
        h = 0.05
        samples = _pole_clear_samples(rng, [0j, 1 + 0j], (-3, 3, -3, 3), 10 * h + h, 50)
        r1 = laplacian_check(field, samples, h)
        r2 = laplacian_check(field, samples, h / 2)
        assert 3.5 < r1 / r2 < 4.5
        # torus field
        pts = [0.2 + 0.3j, 0.6 + 0.7j]
        tgarden = make_garden(TMODEL, pts)
        tfield = PluriharmonicField(Pair.build(third_kind_torus(TORUS, *pts), tgarden))
        h = 0.02
        sites = tgarden.pole_sites()
        box = (0.05, 1.0, 0.05, TAU.imag - 0.05)
        tsamples = _pole_clear_samples(rng, sites, box, 10 * h + h, 50)
        t1 = laplacian_check(tfield, tsamples, h)
        t2 = laplacian_check(tfield, tsamples, h / 2)
        assert 3.5 < t1 / t2 < 4.5


def test_08_uniqueness_and_dimension():
    with criterion(8, "uniqueness-dimension"):
        # equivalence matches period-vector equality on a constructed family
        pts = [0.2 + 0.3j, 0.6 + 0.7j]
        garden = make_garden(TMODEL, pts)
        base = third_kind_torus(TORUS, *pts)
        exact_diff = second_kind_torus(TORUS, pts[0], 3)  # d(wp) has zero periods
        pair1 = Pair.build(base, garden)
        pair2 = Pair.build(base + exact_diff, garden)
        pair3 = Pair.build(third_kind_torus(TORUS, pts[1], pts[0]), garden)
        assert pairs_equivalent(pair1, pair2)
        assert not pairs_equivalent(pair1, pair3)
        for pa, pb in ((pair1, pair2), (pair1, pair3)):
            same_periods = all(
                abs(a - b) < 1e-8 for a, b in zip(pa.long_phi, pb.long_phi)
            ) and all(abs(a - b) < 1e-8 for a, b in zip(pa.short_phi, pb.short_phi))
            assert pairs_equivalent(pa, pb) == same_periods
        # dimension counts with rank cross-check
        for l in (1, 2, 3, 4):
            spts = [ExactComplex(k) for k in range(l)]
            sg = make_garden(SPHERE, spts)
            assert pluriharmonic_space_dim(sg) == l - 1
            rank, gap = period_matrix_rank(sg)
            assert rank == l - 1 and gap > 1e-4
            tpts = _random_torus_points(random.Random(40 + l), l)
            tg = make_garden(TMODEL, tpts)
            assert pluriharmonic_space_dim(tg) == l + 1
            rank, gap = period_matrix_rank(tg)
            assert rank == l + 1 and gap > 1e-4


def test_09_decomposition():
    with criterion(9, "decomposition"):
        rng = random.Random(4)
        for _ in range(100):
            form = random_split_form(rng)
            log_part, second_part = decompose_kinds(form)
            assert log_part + second_part == form
            assert len(residue_divisor(second_part)) == 0
            for point, order in all_poles(log_part):
                if not point.is_infinity:
                    assert order == 1


def test_10_property_h_bookkeeping():
    with criterion(10, "property-h"):
        t0 = time.monotonic()
        assert has_property_h(HodgeRecord(4, 2, 2, 4)) is True
        assert has_property_h(HodgeRecord(3, 1, 1, 1)) is False
        assert has_property_h(HodgeRecord(2, 1, 1, 1)) is True
        assert time.monotonic() - t0 < 0.1
