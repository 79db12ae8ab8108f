import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from residuum.exact import ExactComplex, I, ONE, ZERO, format_exact, parse_exact


def test_basic_arithmetic():
    a = ExactComplex(Fraction(1, 2), Fraction(3, 4))
    b = ExactComplex(2, -1)
    assert a + b == ExactComplex(Fraction(5, 2), Fraction(-1, 4))
    assert a - b == ExactComplex(Fraction(-3, 2), Fraction(7, 4))
    assert ExactComplex(0, 1) * ExactComplex(0, 1) == -1
    assert (a * b) / b == a


def test_division_and_power():
    z = ExactComplex(3, 4)
    assert z / z == ONE
    assert (ONE / z) * z == ONE
    assert I ** 4 == ONE
    assert I ** 3 == -I
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate_and_predicates():
    z = ExactComplex(Fraction(2, 3), Fraction(-5, 7))
    assert z.conjugate() == ExactComplex(Fraction(2, 3), Fraction(5, 7))
    assert (z * z.conjugate()).is_real()
    assert not z.is_zero()
    assert ZERO.is_zero()


def test_random_field_axioms():
    rng = random.Random(7)

    def rand():
        return ExactComplex(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if not b.is_zero():
            assert (a / b) * b == a


def test_to_complex_roundtrip():
    z = ExactComplex(Fraction(1, 8), Fraction(-3, 16))
    assert ExactComplex.from_complex(z.to_complex()) == z


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", ZERO),
        ("3", ExactComplex(3)),
        ("-1/2", ExactComplex(Fraction(-1, 2))),
        ("i", I),
        ("-i", -I),
        ("2i", ExactComplex(0, 2)),
        ("3/4 i", ExactComplex(0, Fraction(3, 4))),
        ("1 + 2 i", ExactComplex(1, 2)),
        ("1/2 - 1/3 i", ExactComplex(Fraction(1, 2), Fraction(-1, 3))),
        ("2.5", ExactComplex(Fraction(5, 2))),
        ("0.1 + 0.25i", ExactComplex(Fraction(1, 10), Fraction(1, 4))),
    ],
)
def test_parse(text, value):
    assert parse_exact(text) == value


@pytest.mark.parametrize("bad", ["", "1 + 2", "i i", "1 + 2 + 3 i", "z", "1//2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_exact(bad)


def test_format_parse_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        z = ExactComplex(
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 12)),
        )
        assert parse_exact(format_exact(z)) == z


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex("-inf"), complex(1, float("nan")),
                               complex(1, float("inf"))])
def test_equality_with_non_finite_complex_is_false(z):
    for x in (ExactComplex(1), ZERO, ExactComplex(Fraction(1, 3), 2)):
        assert not x == z and x != z
        assert not z == x and z != x


# -- property test against a Fraction-pair reference ----------------------------

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

RATIONALS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25)),
)
PAIRS = st.tuples(RATIONALS, RATIONALS)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    if n == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_format(x):
    def rat(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    re, im = x
    if im == 0:
        return rat(re)
    imtxt = "i" if abs(im) == 1 else f"{rat(abs(im))} i"
    if re == 0:
        return imtxt if im > 0 else f"-{imtxt}"
    return f"{rat(re)} {'-' if im < 0 else '+'} {imtxt}"


def check(z, x):
    """z is canonical and has the value of the reference pair x."""
    assert type(z.a) is int and type(z.b) is int and type(z.d) is int
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == x
    assert z.is_zero() == (x == (0, 0)) == ((z.a, z.b, z.d) == (0, 0, 1))
    assert hash(z) == hash(x)
    assert format_exact(z) == ref_format(x)
    assert parse_exact(format_exact(z)) == z


@SETTINGS
@given(PAIRS, PAIRS, st.integers(0, 6))
def test_arithmetic_matches_fraction_reference(x, y, n):
    z, w = ExactComplex(*x), ExactComplex(*y)
    check(z, x)
    check(z + w, (x[0] + y[0], x[1] + y[1]))
    check(z - w, (x[0] - y[0], x[1] - y[1]))
    check(z * w, ref_mul(x, y))
    check(-z, (-x[0], -x[1]))
    check(z.conjugate(), (x[0], -x[1]))
    power = (Fraction(1), Fraction(0))
    for _ in range(n):
        power = ref_mul(power, x)
    check(z ** n, power)
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            z / w
    else:
        check(z / w, ref_div(x, y))
    # equal values built along different routes are equal and hash alike
    assert (z + w) - w == z and hash((z + w) - w) == hash(z)


@SETTINGS
@given(PAIRS, RATIONALS)
def test_mixed_operands_and_equality_match_fraction_reference(x, q):
    z = ExactComplex(*x)
    check(z + q, (x[0] + q, x[1]))
    check(q + z, (q + x[0], x[1]))
    check(q - z, (q - x[0], -x[1]))
    check(z * q, (x[0] * q, x[1] * q))
    if z.is_zero():
        with pytest.raises(ZeroDivisionError):
            q / z
    else:
        check(q / z, ref_div((q, Fraction(0)), x))
    assert (z == q) == (q == z) == (x == (q, 0))
    k = q.numerator
    assert (z == k) == (k == z) == (x == (k, 0))
    assert ExactComplex(q) == q and ExactComplex(k) == k


@SETTINGS
@given(PAIRS)
def test_to_complex_matches_fraction_reference(x):
    try:
        expected = complex(float(x[0])) + 1j * complex(float(x[1]))
    except OverflowError:
        with pytest.raises(OverflowError):
            ExactComplex(*x).to_complex()
        return
    assert repr(ExactComplex(*x).to_complex()) == repr(expected)
