import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residuum import linalg
from residuum.cech import (
    Cochain,
    CochainError,
    CohomologySpace,
    NerveError,
    coboundary,
    coboundary_matrix,
    cohomology_dims,
    fundamental_two_cycle,
    pair_with_cycle,
    parse_nerve_text,
    standard_good_nerves,
    validate_nerve,
)
from residuum.exact import ExactComplex, ONE, ZERO

TRIANGLE = validate_nerve([(0, 1), (1, 2), (0, 2)], maximal=True)
TETRA = standard_good_nerves("sphere")
TORUS9 = standard_good_nerves("torus")


def test_validate_triangle_boundary():
    assert TRIANGLE.vertex_count == 3
    assert len(TRIANGLE.k_simplices(1)) == 3
    assert len(TRIANGLE.k_simplices(2)) == 0


def test_validate_tetrahedron_closure():
    assert TETRA.vertex_count == 4
    assert len(TETRA.k_simplices(1)) == 6
    assert len(TETRA.k_simplices(2)) == 4
    assert len(TETRA.k_simplices(3)) == 0


def test_validate_rejects_non_ascending():
    with pytest.raises(NerveError):
        validate_nerve([(2, 1)])


def test_validate_rejects_missing_face_without_flag():
    with pytest.raises(NerveError):
        validate_nerve([(0, 1, 2)])
    validate_nerve([(0, 1, 2)], maximal=True)  # auto-closure allowed


def test_validate_rejects_out_of_range_vertex():
    with pytest.raises(NerveError):
        validate_nerve([(0, 5)], vertex_count=3, maximal=True)


def test_validate_rejects_high_dimension():
    with pytest.raises(NerveError):
        validate_nerve([(0, 1, 2, 3, 4)], maximal=True)


def test_coboundary_constant_cochain_vanishes():
    sigma = Cochain(0, {(v,): ONE for v in range(4)})
    assert coboundary(TETRA, sigma).is_zero()


def test_coboundary_triangle_example():
    sigma = Cochain(0, {(0,): ONE})
    d = coboundary(TRIANGLE, sigma)
    assert d[(0, 1)] == -1
    assert d[(0, 2)] == -1
    assert d[(1, 2)] == ZERO


def _random_cochain(rng, nerve, degree):
    vals = {}
    for s in nerve.k_simplices(degree):
        vals[s] = ExactComplex(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-5, 5)
        )
    return Cochain(degree, vals)


@pytest.mark.parametrize("nerve", [TRIANGLE, TETRA, TORUS9])
def test_dd_zero(nerve):
    rng = random.Random(1)
    for degree in (0, 1):
        for _ in range(5):
            sigma = _random_cochain(rng, nerve, degree)
            assert coboundary(nerve, coboundary(nerve, sigma)).is_zero()


def test_dd_zero_exhaustive_small():
    # every 0/1-basis cochain on every nerve with <= 6 vertices built from a
    # random maximal simplex family
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(3, 6)
        tops = set()
        for _ in range(rng.randint(2, 5)):
            size = rng.randint(2, min(4, n))
            tops.add(tuple(sorted(rng.sample(range(n), size))))
        nerve = validate_nerve(sorted(tops), vertex_count=n, maximal=True)
        for degree in (0, 1):
            for s in nerve.k_simplices(degree):
                basis = Cochain(degree, {s: ONE})
                assert coboundary(nerve, coboundary(nerve, basis)).is_zero()


def test_degree_cap_error():
    sigma = Cochain(3, {})
    with pytest.raises(CochainError):
        coboundary(TETRA, sigma)


def test_cochain_key_must_exist():
    sigma = Cochain(1, {(0, 3): ONE})
    with pytest.raises(CochainError):
        coboundary(TRIANGLE, sigma)


def _numpy_betti(nerve, max_degree):
    """Independent float-rank oracle for the exact dimensions."""
    dims = []
    prev_rank = 0
    for k in range(max_degree + 1):
        mat = coboundary_matrix(nerve, k)
        if mat and nerve.k_simplices(k):
            arr = np.array([[x.to_complex() for x in row] for row in mat])
            r = np.linalg.matrix_rank(arr)
        else:
            r = 0
        dims.append(len(nerve.k_simplices(k)) - r - prev_rank)
        prev_rank = r
    return dims


def test_cohomology_contractible():
    nerve = validate_nerve([(0, 1, 2)], maximal=True)
    assert cohomology_dims(nerve, 2) == [1, 0, 0]


def test_cohomology_circle():
    assert cohomology_dims(TRIANGLE, 1) == [1, 1]
    assert _numpy_betti(TRIANGLE, 1) == [1, 1]


def test_cohomology_sphere():
    assert cohomology_dims(TETRA, 2) == [1, 0, 1]
    assert _numpy_betti(TETRA, 2) == [1, 0, 1]


def test_cohomology_torus():
    assert cohomology_dims(TORUS9, 2) == [1, 2, 1]
    assert _numpy_betti(TORUS9, 2) == [1, 2, 1]


def test_h0_counts_components():
    two_triangles = validate_nerve([(0, 1, 2), (3, 4, 5)], maximal=True)
    assert cohomology_dims(two_triangles, 1)[0] == 2


def test_standard_nerve_unknown_tag():
    with pytest.raises(NerveError):
        standard_good_nerves("klein")


def test_fundamental_cycle_tetra():
    cycle = fundamental_two_cycle(TETRA)
    # boundary orientation of the solid tetrahedron up to global sign
    signs = {s: v for s, v in cycle.items()}
    assert signs[(0, 1, 2)] == ONE
    assert signs[(0, 1, 3)] == -ONE
    assert signs[(0, 2, 3)] == ONE
    assert signs[(1, 2, 3)] == -ONE


def test_cohomology_space_sphere_h2():
    space = CohomologySpace(TETRA, 2)
    assert space.dim == 1
    cocycle = Cochain(2, {(0, 1, 2): ONE})
    coords = space.coordinates(cocycle)
    cycle = fundamental_two_cycle(TETRA)
    assert coords[0] == pair_with_cycle(cocycle, cycle)


def test_cohomology_space_h1_triangle():
    space = CohomologySpace(TRIANGLE, 1)
    assert space.dim == 1
    # an exact cochain reduces to zero coordinates with a witness
    exact = coboundary(TRIANGLE, Cochain(0, {(0,): ExactComplex(2), (1,): ONE}))
    assert all(c.is_zero() for c in space.coordinates(exact))
    witness = space.coboundary_witness(exact)
    assert witness is not None
    assert coboundary(TRIANGLE, witness).values == exact.values


def test_nerve_text_roundtrip():
    text = "0\n1\n2\n3\n0,1\n0,2\n0,3\n1,2\n1,3\n2,3\n0,1,2\n0,1,3\n0,2,3\n1,2,3\n"
    assert parse_nerve_text(text).simplices == TETRA.simplices


def test_nerve_text_maximal_and_comments():
    nerve = parse_nerve_text("# cover\nmaximal\n0,1,2\n")
    assert len(nerve.k_simplices(1)) == 3


def test_nerve_text_error_reports_line():
    with pytest.raises(NerveError, match="line 2"):
        parse_nerve_text("0,1\n0,x\n")


# -- basis choice against the greedy-rank reference -------------------------------


def greedy_rank_basis(nerve, degree):
    """(image basis, H^k basis) grown one column at a time, keeping a
    column only when it raises the rank of those kept before it."""
    n = len(nerve.k_simplices(degree))
    d_k = coboundary_matrix(nerve, degree)
    kernel = linalg.nullspace(d_k, n_cols=n) if d_k else \
        [[ONE if j == i else ZERO for j in range(n)] for i in range(n)]
    d_prev = coboundary_matrix(nerve, degree - 1) if degree > 0 else []
    image_cols = linalg.transpose(d_prev) if d_prev else []
    chosen, basis = [], []
    for k, col in enumerate(image_cols + kernel):
        if linalg.rank(chosen + [col]) > len(chosen):
            chosen.append(col)
            if k >= len(image_cols):
                basis.append(col)
    return chosen[: len(chosen) - len(basis)], basis


def assert_matches_greedy(nerve, degree):
    space = CohomologySpace(nerve, degree)
    image, basis = greedy_rank_basis(nerve, degree)
    assert space._image_basis == image
    assert len(space.basis) == len(basis)
    for got, want in zip(space.basis, basis):
        # H^2 of a closed surface is rescaled to pair to 1 with its cycle
        lead = next(i for i, w in enumerate(want) if not w.is_zero())
        scale = got[lead] / want[lead]
        assert got == [w * scale for w in want]
        assert degree == 2 or scale == ONE


@pytest.mark.parametrize("tag", ["sphere", "torus"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_cohomology_basis_matches_greedy_rank_standard(tag, degree):
    assert_matches_greedy(standard_good_nerves(tag), degree)


@st.composite
def random_nerves(draw):
    n = draw(st.integers(3, 6))
    triangles = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=3, max_size=3), max_size=6))
    edges = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=2), max_size=6))
    simplices = [tuple(sorted(s)) for s in triangles + edges]
    return validate_nerve(simplices, vertex_count=n, maximal=True)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_nerves(), st.integers(1, 2))
def test_cohomology_basis_matches_greedy_rank_random(nerve, degree):
    assert_matches_greedy(nerve, degree)
