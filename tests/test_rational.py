import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from residuum import rational
from residuum.cli import main
from residuum.exact import ExactComplex, I, ONE, ZERO
from residuum.rational import (
    IrrationalPoleError,
    Polynomial,
    RationalFunction,
    laurent_coefficient,
    linear_roots,
    poly_gcd,
    squarefree_decomposition,
)


def P(*coeffs):
    return Polynomial([ExactComplex.coerce(c) for c in coeffs])


def test_polynomial_normalization():
    assert P(1, 2, 0, 0).degree == 1
    assert P().is_zero()
    assert P(0, 0).is_zero()


def test_arithmetic_and_divmod():
    a = P(1, 0, 1)  # 1 + z^2
    b = P(1, 1)  # 1 + z
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree
    rng = random.Random(2)
    for _ in range(50):
        f = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        g = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f


def test_gcd():
    f = P(-1, 0, 1)  # (z-1)(z+1)
    g = P(-1, 1)  # z - 1
    assert poly_gcd(f, g) == P(-1, 1)
    assert poly_gcd(f, P(1, 1)) == P(1, 1)
    assert poly_gcd(P(2), f).degree == 0  # coprime


def test_shift_and_eval():
    f = P(1, 2, 3)
    p = ExactComplex(Fraction(1, 2), Fraction(-1, 3))
    shifted = f.shift(p)
    for w in [ZERO, ONE, I, ExactComplex(2, 1)]:
        assert shifted.eval(w) == f.eval(p + w)


def test_series_inverse():
    f = P(1, 1)  # 1 + z -> 1 - z + z^2 - ...
    inv = f.series_inverse(5)
    assert inv == [ONE, -ONE, ONE, -ONE, ONE]
    with pytest.raises(ZeroDivisionError):
        P(0, 1).series_inverse(3)


def test_eval_complex_matches_exact():
    f = P("1/2", "-1/3 i", 2)
    z = 0.7 - 0.2j
    exact = f.eval(ExactComplex.from_complex(z)).to_complex()
    assert abs(f.eval_complex(z) - exact) < 1e-14
    arr = np.array([0.1 + 0.2j, -1.0j])
    out = f.eval_complex(arr)
    assert abs(out[1] - f.eval(ExactComplex.from_complex(-1.0j)).to_complex()) < 1e-14


def test_squarefree_decomposition():
    f = P(-1, 1).power(3) * P(1, 1)  # (z-1)^3 (z+1)
    parts = squarefree_decomposition(f)
    assert (P(1, 1), 1) in parts
    assert (P(-1, 1), 3) in parts


def test_linear_roots_gaussian():
    f = P(1, 0, 1)  # z^2 + 1 = (z-i)(z+i)
    roots = dict(linear_roots(f))
    assert roots[I] == 1 and roots[-I] == 1
    g = P(-1, 1).power(2) * P("i", 1)
    roots = dict(linear_roots(g))
    assert roots[ONE] == 2 and roots[-I] == 1


def test_linear_roots_rejects_irrational():
    with pytest.raises(IrrationalPoleError):
        linear_roots(P(-2, 0, 1))  # z^2 - 2


def test_rational_function_reduction():
    f = RationalFunction(P(-1, 0, 1), P(-1, 1))  # (z^2-1)/(z-1) = z+1
    assert f.num == P(1, 1)
    assert f.den == P(1)
    g = RationalFunction(P(2), P(0, 2))  # 2/(2z) = 1/z, monic denominator
    assert g.den == P(0, 1)
    assert g.num == P(1)


def test_rational_arithmetic_closure():
    rng = random.Random(8)
    for _ in range(30):
        a = RationalFunction(P(*[rng.randint(-3, 3) for _ in range(3)]),
                             P(rng.randint(1, 3), 1))
        b = RationalFunction(P(*[rng.randint(-3, 3) for _ in range(2)]),
                             P(rng.randint(-3, -1), 1))
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a


def test_pole_multiplicity():
    f = RationalFunction(P(1), P(-1, 1).power(3))
    assert f.pole_multiplicity(ONE) == 3
    assert f.pole_multiplicity(ZERO) == 0


def test_laurent_coefficient():
    # 1/z at 0: c_{-1} = 1
    f = RationalFunction(P(1), P(0, 1))
    assert laurent_coefficient(f, ZERO, -1) == ONE
    assert laurent_coefficient(f, ZERO, 0) == ZERO
    # (z+1)/z^2 at 0: c_{-2} = 1, c_{-1} = 1
    g = RationalFunction(P(1, 1), P(0, 0, 1))
    assert laurent_coefficient(g, ZERO, -2) == ONE
    assert laurent_coefficient(g, ZERO, -1) == ONE
    # Taylor coefficient at a regular point equals derivative data
    h = RationalFunction(P(0, 0, 1), P(1))  # z^2
    assert laurent_coefficient(h, ONE, 0) == ONE
    assert laurent_coefficient(h, ONE, 1) == ExactComplex(2)
    assert laurent_coefficient(h, ONE, 2) == ONE


# -- certified root location ---------------------------------------------------

denominators = st.integers(1, 10**7)
gaussian_rationals = st.builds(
    lambda a, b, c, d: ExactComplex(Fraction(a, b), Fraction(c, d)),
    st.integers(-10**7, 10**7), denominators, st.integers(-10**7, 10**7), denominators,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.dictionaries(gaussian_rationals, st.integers(1, 3), min_size=1, max_size=4))
def test_linear_roots_recovers_products_of_gaussian_rational_factors(roots):
    p = P(1)
    for r, m in roots.items():
        p = p * P(-r, 1).power(m)
    assert linear_roots(p) == sorted(roots.items(), key=lambda rm: (rm[0].re, rm[0].im))


def test_clustered_sevenths_take_the_certified_path(monkeypatch):
    # a_n = 7^12 ~ 1.4e10: double-precision roots cannot round onto the grid
    calls = []
    certified = rational._certified_grid
    monkeypatch.setattr(
        rational, "_certified_grid", lambda *args: calls.append(args) or certified(*args)
    )
    p = P(1)
    for k in range(1, 13):
        p = p * P(ExactComplex(Fraction(-k, 7)), 1)
    assert linear_roots(p) == [(ExactComplex(Fraction(k, 7)), 1) for k in range(1, 13)]
    assert calls


def test_linear_roots_large_prime_denominator():
    # beyond the reach of a 10^6 continued-fraction snap
    r = ExactComplex(Fraction(1, 1000003))
    assert linear_roots(P(-2, 1) * P(-r, 1)) == [(r, 1), (ExactComplex(2), 1)]


@pytest.mark.parametrize(
    "poly, rest",
    [
        (P(-2, 0, 1), "-2, 0, 1"),
        (P(-I, 0, 1), "-i, 0, 1"),
        (P("-1/3", 1) * P(-2, 0, 1), "-2, 0, 1"),
    ],
    ids=["z2-2", "z2-i", "third-times-z2-2"],
)
def test_irrational_factor_names_the_unsplit_rest(poly, rest):
    with pytest.raises(IrrationalPoleError, match=f"degree 2 has no roots in Q\\(i\\): {rest} "):
        linear_roots(poly)


def write_form(tmp_path, text):
    path = tmp_path / "f.form"
    path.write_text(text)
    return str(path)


def test_decompose_irrational_denominator_exit2(tmp_path, capsys):
    assert main(["decompose", "--form", write_form(tmp_path, "1 / -2, 0, 1\n")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: factor of degree 2 has no roots in Q(i): -2, 0, 1 (constant first)\n"


def test_decompose_coefficients_beyond_double_range(tmp_path, capsys):
    # z^2 + 10^400: located after scaling z by a power of two
    assert main(["decompose", "--form", write_form(tmp_path, "1 / 1e400, 0, 1\n")]) == 0
    assert capsys.readouterr().out.startswith("log: ")


def test_decompose_without_convergence_exit2(tmp_path, capsys, monkeypatch):
    def never_converges(ctx, *args, **kwargs):
        raise ctx.NoConvergence("no convergence")

    monkeypatch.setattr(mpmath.MPContext, "polyroots", never_converges)
    den = P(1)
    for k in range(1, 13):
        den = den * P(ExactComplex(Fraction(-k, 7)), 1)
    text = "1 / " + ", ".join(str(c) for c in den.coeffs) + "\n"
    assert main(["decompose", "--form", write_form(tmp_path, text)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: cannot isolate the roots of a degree-\d+ factor within \d+ bits of precision\n", err)


def test_linear_roots_below_double_resolution():
    # 1/scale = 1e-400 is far below double spacing: only the certified path splits this
    r = ExactComplex(Fraction(1, 10**200))
    assert linear_roots(P(-r, 1) * P(r, 1)) == [(-r, 1), (r, 1)]
