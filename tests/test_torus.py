import math
import random

import numpy as np
import pytest
import mpmath
from hypothesis import assume, example, given, settings, strategies as st

from residuum.torus import (
    LATTICE_MARGIN,
    ROW_BLOCK,
    EllipticForm,
    Torus,
    TorusError,
    holomorphic_torus,
    second_kind_torus,
    third_kind_torus,
)

TAU = 0.3 + 1.1j
T = Torus(TAU)


def test_legendre_relation_at_construction():
    assert abs(T.eta1 * TAU - T.eta2 - 2j * math.pi) < 1e-10


@pytest.mark.parametrize("tau", [1j, 0.5 + 0.9j, -0.4 + 2.0j, 0.1 + 0.35j])
def test_legendre_various_lattices(tau):
    t = Torus(tau)
    assert abs(t.eta1 * tau - t.eta2 - 2j * math.pi) < 1e-10


def test_rejects_bad_tau():
    with pytest.raises(TorusError):
        Torus(1.0 + 0j)
    with pytest.raises(TorusError):
        Torus(0.3 - 1.1j)


@pytest.mark.parametrize("tau", [1e-20j, 1e-300j])
def test_rejects_tau_with_nan_quasi_periods(tau):
    # the quasi-periods come out NaN here, and a NaN defect must not pass
    with pytest.raises(TorusError, match="Legendre self-check failed"):
        Torus(tau)


def test_zeta_is_odd():
    rng = random.Random(1)
    for _ in range(10):
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        if T.lattice_distance(z) < 1e-3:
            continue
        assert abs(T.zeta(-z) + T.zeta(z)) < 1e-10


def test_zeta_quasi_periodicity():
    z = 0.17 + 0.23j
    assert abs(T.zeta(z + 1) - T.zeta(z) - T.eta1) < 1e-10
    assert abs(T.zeta(z + TAU) - T.zeta(z) - T.eta2) < 1e-10
    assert abs(T.zeta(z - 3 + 2 * TAU) - T.zeta(z) + 3 * T.eta1 - 2 * T.eta2) < 1e-9


def test_quasi_periods_consistent_at_independent_points():
    # eta1, eta2 recomputed as quasi-period drops at two unrelated points
    for z in (0.11 + 0.37j, 0.63 - 0.12j):
        assert abs((T.zeta(z + 1) - T.zeta(z)) - T.eta1) < 1e-10
        assert abs((T.zeta(z + TAU) - T.zeta(z)) - T.eta2) < 1e-10


def test_wp_periodicity():
    z = 0.31 - 0.08j
    assert abs(T.wp_deriv(z + 1) - T.wp_deriv(z)) < 1e-10
    assert abs(T.wp_deriv(z + TAU) - T.wp_deriv(z)) < 1e-10
    assert abs(T.wp_deriv(z + 5 - 2 * TAU, 1) - T.wp_deriv(z, 1)) < 1e-9


def test_wp_is_even_and_wp_prime_odd():
    z = 0.21 + 0.4j
    assert abs(T.wp_deriv(-z) - T.wp_deriv(z)) < 1e-10
    assert abs(T.wp_deriv(-z, 1) + T.wp_deriv(z, 1)) < 1e-10


def test_wp_equals_minus_zeta_derivative():
    # central difference of zeta vs -wp
    z = 0.27 + 0.33j
    h = 1e-5
    dz = (T.zeta(z + h) - T.zeta(z - h)) / (2 * h)
    assert abs(dz + T.wp_deriv(z)) < 1e-6


def test_wp_derivative_consistency():
    z = 0.41 + 0.12j
    h = 1e-5
    approx = (T.wp_deriv(z + h) - T.wp_deriv(z - h)) / (2 * h)
    assert abs(approx - T.wp_deriv(z, 1)) < 1e-5
    approx2 = (T.wp_deriv(z + h, 1) - T.wp_deriv(z - h, 1)) / (2 * h)
    assert abs(approx2 - T.wp_deriv(z, 2)) < 1e-4


def test_laurent_leading_behavior():
    # zeta ~ 1/z and wp ~ 1/z^2 near the origin
    z = 1e-3 + 2e-3j
    assert abs(T.zeta(z) - 1.0 / z) < 1e-2
    assert abs(T.wp_deriv(z) - 1.0 / z**2) < 1e-2


def test_lattice_point_rejected():
    with pytest.raises(TorusError):
        T.zeta(0)
    with pytest.raises(TorusError):
        T.wp_deriv(1 + TAU)


def test_vectorized_evaluation_matches_scalar():
    zs = np.array([0.1 + 0.2j, 0.4 - 0.1j, -0.3 + 0.5j])
    vz = T.zeta(zs)
    vw = T.wp_deriv(zs)
    for i, z in enumerate(zs):
        assert abs(vz[i] - T.zeta(complex(z))) < 1e-12
        assert abs(vw[i] - T.wp_deriv(complex(z))) < 1e-12


def test_elliptic_form_residue_bookkeeping():
    form = third_kind_torus(T, 0.2 + 0.3j, 0.6 + 0.7j)
    assert form.residue_at(0.2 + 0.3j) == 1.0
    assert form.residue_at(0.6 + 0.7j) == -1.0
    assert form.residue_at(0.5) == 0.0
    assert len(form.poles()) == 2


def test_elliptic_form_rejects_unbalanced_residues():
    with pytest.raises(TorusError):
        EllipticForm(T, 0j, ((0.2 + 0.2j, 1.0 + 0j),))


def test_elliptic_form_double_periodicity_of_values():
    form = third_kind_torus(T, 0.2 + 0.3j, 0.6 + 0.7j)
    rng = random.Random(3)
    for _ in range(5):
        z = complex(rng.uniform(0, 1), 0) + complex(0, rng.uniform(0, 1)) * 1.0
        z = z.real + z.imag * TAU
        if min(T.translate_distance(z, p) for p, _ in form.poles()) < 1e-2:
            continue
        v = form.eval_complex(z)
        assert abs(form.eval_complex(z + 1) - v) < 1e-9
        assert abs(form.eval_complex(z + TAU) - v) < 1e-9


def test_second_kind_rejects_low_order():
    with pytest.raises(TorusError):
        second_kind_torus(T, 0.3 + 0.3j, 1)


def test_third_kind_rejects_equal_points_mod_lattice():
    with pytest.raises(TorusError):
        third_kind_torus(T, 0.2 + 0.2j, 0.2 + 0.2j + 1 + TAU)


def test_form_arithmetic():
    a = third_kind_torus(T, 0.2 + 0.3j, 0.6 + 0.7j)
    b = holomorphic_torus(T, 2.0)
    s = a + b
    z = 0.15 + 0.55j
    assert abs(s.eval_complex(z) - a.eval_complex(z) - 2.0) < 1e-12
    assert (a - a.scale(1.0)).is_zero() or abs((a - a).eval_complex(z)) < 1e-12


edge = st.sampled_from([0.0, -0.0, 5.37e-33, -5.37e-33, 1e-17, -1e-17, 1.0, 1 - 2**-53, -1.0])
offsets = st.one_of(edge, st.floats(-3, 3))


def test_reduce_point_keeps_cell_edge_points():
    torus = Torus(0.1 + 0.6j)
    for z in (5.37e-33j, 1 + 5.37e-33j):
        z0 = torus.reduce_point(z)[0]
        assert torus.reduce_point(z0) == (z0, 0, 0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([0.1 + 0.6j, 0.3 + 1.1j, -0.4 + 0.9j]), offsets, offsets, st.integers(-2, 2), st.integers(-2, 2))
def test_reduce_point_is_idempotent(tau, s, t, m, n):
    torus = Torus(tau)
    z = complex(s + m, 0) + (t + n) * tau
    z0, m0, n0 = torus.reduce_point(z)
    assert torus.reduce_point(z0) == (z0, 0, 0)
    assert abs(z0 + m0 + n0 * tau - z) < 1e-14 * (1 + abs(z))


# -- lattice rows against a theta-function oracle --------------------------

ORACLE_DIGITS = 30
# largest |value - reference| / scale allowed for zeta (k = -1) and wp^(k),
# where scale = 1 + |reference| + (k+1)! / gap^(k+2) adds the size of the
# nearest pole's term at lattice distance gap
TOLS = {-1: 1e-14, 0: 1e-14, 1: 1e-14, 2: 1e-14, 3: 1e-14}


def oracle_scale(ref: complex, k: int, gap: float) -> float:
    return 1 + abs(ref) + math.factorial(k + 1) / gap ** (k + 2)


def zeta_reference(tau: complex, z):
    """zeta(z) = eta1 z + pi theta1'(pi z) / theta1(pi z) with nome e^{i pi tau}
    and eta1 = -(pi^2 / 3) theta1'''(0) / theta1'(0) (DLMF 23.6)."""
    q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
    eta1 = -(mpmath.pi ** 2 / 3) * mpmath.jtheta(1, 0, q, 3) / mpmath.jtheta(1, 0, q, 1)
    w = mpmath.pi * z
    return eta1 * z + mpmath.pi * mpmath.jtheta(1, w, q, 1) / mpmath.jtheta(1, w, q)


taus = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.35, 2.0))
cell = st.floats(-1.0, 2.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@example(0.1 + 0.35j, 0.37, 0.81)
@example(0.3 + 1.1j, 0.5, 0.5)
@example(0.1 + 0.6j, 1.93, -0.4)
@given(taus, cell, cell)
def test_zeta_and_wp_derivatives_match_theta_reference(tau, s, t):
    torus = Torus(tau)
    z = s + t * tau
    gap = torus.lattice_distance(z)
    assume(gap > 0.05)
    with mpmath.workdps(ORACLE_DIGITS):
        zm = mpmath.mpc(z)
        ref = complex(zeta_reference(tau, zm))
        assert abs(torus.zeta(z) - ref) <= TOLS[-1] * oracle_scale(ref, -1, gap)
        for k in range(4):  # wp^(k) = -zeta^(k+1)
            ref = complex(-mpmath.diff(lambda w: zeta_reference(tau, w), zm, k + 1))
            assert abs(torus.wp_deriv(z, k) - ref) <= TOLS[k] * oracle_scale(ref, k, gap), k


def test_row_count_from_tau_capped_by_cutoff():
    assert Torus(0.3 + 1.1j).row_count(-1) == 8
    assert Torus(0.1 + 0.6j).row_count(-1) == 12
    assert [Torus(0.1 + 0.6j).row_count(k) for k in range(4)] == [13, 13, 14, 15]
    assert Torus(0.1 + 0.6j, cutoff=10).row_count(-1) == 10
    assert Torus(0.1 + 0.6j, cutoff=10).row_count(3) == 10


@pytest.mark.parametrize("im", [0.1, 0.35, 0.6, 1.1, 2.0, 5.0])
@pytest.mark.parametrize("k", [-1, 0, 1, 2, 3])
def test_row_count_certifies_the_tail(im, k):
    # the rows after N add at most K r^N, K = 2 pi (k+1)! (2 pi)^(k+1) (1 + r^2) / (1 - r)^(k+3)
    n = Torus(complex(0.25, im), cutoff=200).row_count(k)
    r = math.exp(-2 * math.pi * im)
    tail = 2 * math.pi * math.factorial(k + 1) * (2 * math.pi) ** (k + 1) * (1 + r * r) / (1 - r) ** (k + 3)
    assert tail * r ** n <= 1e-16 < tail * r ** (n - 3)


def test_form_eval_stacks_zeta_terms_bit_identically():
    form = EllipticForm(
        T, 0.5 - 1j, ((0.2 + 0.3j, 1.5), (0.6 + 0.7j, -1.0 + 2j), (0.9 + 0.1j, 0j), (0.1 + 0.9j, -0.5 - 2j)),
        ((0.4 + 0.1j, 3, 2.0),),
    )
    rng = np.random.default_rng(7)
    z = rng.uniform(-1, 2, 1000) + 1j * rng.uniform(-1, 2, 1000)  # more points than one row block
    expected = np.full(z.shape, form.c0)
    for p, r in form.log_terms:
        if r != 0:
            expected = expected + r * T.zeta(z - p)
    for p, order, c in form.second_terms:
        expected = expected + c * T.wp_deriv(z - p, order - 2)
    assert np.array_equal(form.eval_complex(z), expected)
    assert form.eval_complex(complex(z[0])) == expected[0]


def test_non_finite_value_raises_one_line():
    # the quasi-period drops overflow this far out
    with pytest.raises(TorusError, match=r"^value at \(1e\+308\+0.3j\) is not finite$"):
        T.zeta(np.array([0.5, 1e308 + 0.3j]))
    with pytest.raises(TorusError, match=r"^value at \(0.5\+0.5j\) is not finite$"):
        EllipticForm(T, 0j, ((0.2 + 0.3j, 1e308), (0.6 + 0.7j, -1e308))).eval_complex(0.5 + 0.5j)


@pytest.mark.parametrize("k", [-1, 0, 2])
def test_value_at_a_point_does_not_depend_on_its_batch(k):
    # Im tau 0.6: zeta sums 12 rows (blocks of 341 points), wp^(k) 2 N + 1;
    # a batch one point longer than whole blocks used to sum its last
    # point's rows pairwise, and the rest one by one
    torus = Torus(0.1 + 0.6j)
    rows = torus.row_count(k) if k < 0 else 2 * torus.row_count(k) + 1
    step = ROW_BLOCK // rows
    rng = np.random.default_rng(3)
    z = rng.uniform(0.1, 0.9, 2 * step + 2) + 1j * rng.uniform(0.05, 0.55, 2 * step + 2)
    value = torus.zeta if k < 0 else (lambda w: torus.wp_deriv(w, k))
    full = value(z)
    for size in (2, step, step + 1, step + 2, 2 * step + 1):
        assert np.array_equal(value(z[:size]), full[:size]), size
        assert np.array_equal(value(z[-size:]), full[-size:]), size


def test_off_lattice_guard_matches_the_nine_point_gap():
    # lattice points, edge midpoints and interior points, each moved by
    # 0 to 1e-7 in eight directions: the guard checks only points near the
    # cell's bottom or top edge, and must reject exactly the points whose
    # nine-point gap is under the margin
    bases = [m + n * TAU for m in (-1, 0, 1, 2) for n in (-1, 0, 1, 2)]
    bases += [0.5, 0.5 + TAU, TAU / 2, 1 + TAU / 2, 0.37 + 0.61 * TAU]
    steps = [0.0, 5e-9, 9.999999e-9, 1e-8, 1.0000001e-8, 2e-8, 1e-7]
    directions = [np.exp(0.25j * math.pi * d) for d in range(8)]
    points = np.array([b + s * d for b in bases for s in steps for d in directions])
    reduced, _, _ = T._reduce(points)
    near = T._lattice_gap(reduced) < LATTICE_MARGIN
    assert 0 < near.sum() < near.size
    for z, expected in zip(points.tolist(), near.tolist()):
        if expected:
            with pytest.raises(TorusError, match="of a lattice point$"):
                T._reduce_off_lattice(z)
        else:
            T._reduce_off_lattice(z)
    with pytest.raises(TorusError) as batch:
        T._reduce_off_lattice(points)
    assert str(batch.value) == f"point {points[near][0]} is within {LATTICE_MARGIN} of a lattice point"
    far = points[~near]
    assert all(np.array_equal(a, b) for a, b in zip(T._reduce_off_lattice(far), T._reduce(far)))
