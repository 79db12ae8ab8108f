import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residuum.torus import (
    EllipticForm,
    Torus,
    TorusError,
    holomorphic_torus,
    parse_torus_text,
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


def test_weierstrass_fns_tuple():
    z = 0.27 + 0.33j
    wp, wp_prime, zeta = T.weierstrass_fns(z)
    assert wp == T.wp(z)
    assert wp_prime == T.wp_prime(z)
    assert zeta == T.zeta(z)


def test_wp_periodicity():
    z = 0.31 - 0.08j
    assert abs(T.wp(z + 1) - T.wp(z)) < 1e-10
    assert abs(T.wp(z + TAU) - T.wp(z)) < 1e-10
    assert abs(T.wp_prime(z + 5 - 2 * TAU) - T.wp_prime(z)) < 1e-9


def test_wp_is_even_and_wp_prime_odd():
    z = 0.21 + 0.4j
    assert abs(T.wp(-z) - T.wp(z)) < 1e-10
    assert abs(T.wp_prime(-z) + T.wp_prime(z)) < 1e-10


def test_wp_equals_minus_zeta_derivative():
    # central difference of zeta vs -wp
    z = 0.27 + 0.33j
    h = 1e-5
    dz = (T.zeta(z + h) - T.zeta(z - h)) / (2 * h)
    assert abs(dz + T.wp(z)) < 1e-6


def test_wp_derivative_consistency():
    z = 0.41 + 0.12j
    h = 1e-5
    approx = (T.wp(z + h) - T.wp(z - h)) / (2 * h)
    assert abs(approx - T.wp_prime(z)) < 1e-5
    approx2 = (T.wp_prime(z + h) - T.wp_prime(z - h)) / (2 * h)
    assert abs(approx2 - T.wp_deriv(z, 2)) < 1e-4


def test_laurent_leading_behavior():
    # zeta ~ 1/z and wp ~ 1/z^2 near the origin
    z = 1e-3 + 2e-3j
    assert abs(T.zeta(z) - 1.0 / z) < 1e-2
    assert abs(T.wp(z) - 1.0 / z**2) < 1e-2


def test_lattice_point_rejected():
    with pytest.raises(TorusError):
        T.zeta(0)
    with pytest.raises(TorusError):
        T.wp(1 + TAU)


def test_vectorized_evaluation_matches_scalar():
    zs = np.array([0.1 + 0.2j, 0.4 - 0.1j, -0.3 + 0.5j])
    vz = T.zeta(zs)
    vw = T.wp(zs)
    for i, z in enumerate(zs):
        assert abs(vz[i] - T.zeta(complex(z))) < 1e-12
        assert abs(vw[i] - T.wp(complex(z))) < 1e-12


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


def test_parse_torus_text():
    t = parse_torus_text("tau = 0.3 + 1.1i\ncutoff = 12\n")
    assert abs(t.tau - TAU) < 1e-15 and t.cutoff == 12
    with pytest.raises(TorusError):
        parse_torus_text("cutoff = 10\n")


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
