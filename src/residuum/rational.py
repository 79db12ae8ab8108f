"""Exact univariate polynomials and rational functions over Q(i).

Coefficients are ExactComplex, constant term first.  Arithmetic, gcd and
Taylor manipulation are implemented directly (the field makes monic Euclid
trivial).  Roots are located numerically and kept only when exact
evaluation confirms them (`linear_roots`); poles that do not lie in Q(i)
cannot be represented exactly and raise `IrrationalPoleError`.

Sphere forms use gcd and root splitting only when a `P / Q` is read;
`laurent_coefficient` is the reference their principal parts are tested against.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, List, Tuple

import numpy as np

from .exact import ExactComplex, ONE, ZERO, format_exact


class IrrationalPoleError(ValueError):
    """A denominator factor has no roots in Q(i)."""


class RootPrecisionError(ValueError):
    """A factor's roots could not be isolated within the precision cap."""


class Polynomial:
    """Dense polynomial over Q(i), normalized (no trailing zero coefficients)."""

    __slots__ = ("coeffs", "_np")

    def __init__(self, coeffs: Iterable = ()):  # constant term first
        cs = [ExactComplex.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self._np = None

    # -- basics ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> ExactComplex:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-ONE)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    def scale(self, a) -> "Polynomial":
        a = ExactComplex.coerce(a)
        return Polynomial([a * c for c in self.coeffs])

    def divmod(self, other: "Polynomial") -> Tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [ZERO] * (dq + 1)
        inv_lead = ONE / other.leading()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Polynomial(quot), Polynomial(rem[: other.degree])

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scale(ONE / self.leading())

    def derivative(self) -> "Polynomial":
        return Polynomial([c * (i + 1) for i, c in enumerate(self.coeffs[1:])])

    def power(self, n: int) -> "Polynomial":
        out = Polynomial([ONE])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation --------------------------------------------------------

    def eval(self, z: ExactComplex) -> ExactComplex:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def eval_complex(self, z):
        """Horner evaluation at a float complex or numpy array."""
        if self._np is None:
            self._np = np.array([c.to_complex() for c in self.coeffs], dtype=complex)
        cs = self._np
        if len(cs) == 0:
            return np.zeros_like(z) if isinstance(z, np.ndarray) else 0j
        acc = np.full_like(z, cs[-1]) if isinstance(z, np.ndarray) else cs[-1]
        for c in cs[-2::-1]:
            acc = acc * z + c
        return acc

    def shift(self, p: ExactComplex) -> "Polynomial":
        """Taylor shift: returns q with q(w) = self(p + w), exact."""
        out = Polynomial([ZERO])
        for c in reversed(self.coeffs):
            out = out * Polynomial([p, ONE]) + Polynomial([c])
        return out

    def series_inverse(self, order: int) -> List[ExactComplex]:
        """First `order` coefficients of 1/self as a power series (needs
        nonzero constant term)."""
        if self.is_zero() or self.coeffs[0].is_zero():
            raise ZeroDivisionError("series inverse needs a unit constant term")
        inv0 = ONE / self.coeffs[0]
        out = [inv0]
        for n in range(1, order):
            acc = ZERO
            for k in range(1, min(n, self.degree) + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(-inv0 * acc)
        return out


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        a, b = b, (a % b).monic()
    return a.monic()


def squarefree_decomposition(p: Polynomial) -> List[Tuple[Polynomial, int]]:
    """Yun's algorithm: [(factor_i, multiplicity_i)] with factors squarefree,
    pairwise coprime, product of factor^mult = monic(p)."""
    p = p.monic()
    if p.degree < 1:
        return []
    out: List[Tuple[Polynomial, int]] = []
    g = poly_gcd(p, p.derivative())
    w = p.divmod(g)[0]
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, g)
        f = w.divmod(y)[0]
        if f.degree >= 1:
            out.append((f.monic(), i))
        w = y
        g = g.divmod(y)[0]
        i += 1
    return out


def _numeric_roots(p: Polynomial) -> List[complex]:
    """Double-precision roots of a monic p: 2^e times those of p(2^e w) / 2^(e n),
    with 2^e near the nonzero roots' geometric mean so that the coefficients
    stay in double range; none where they cannot."""
    j, low = next((j, c) for j, c in enumerate(p.coeffs) if c)
    size = abs(low.re) + abs(low.im)  # about the product of the nonzero roots
    e = (size.numerator.bit_length() - size.denominator.bit_length()) // max(p.degree - j, 1)
    try:
        coeffs = [(c * Fraction(2) ** (e * (k - p.degree))).to_complex() for k, c in enumerate(p.coeffs)]
        found = [complex(w) * 2.0 ** e for w in np.roots(coeffs[::-1])]
    except OverflowError:
        return []
    return [x for x in found if cmath.isfinite(x)]


def _double_grid(work: Polynomial, scale: int) -> List[Tuple[int, int]]:
    """Gaussian integers nearest to scale * x for double-precision roots x of `work`."""
    return [(round(scale * Fraction(x.real)), round(scale * Fraction(x.imag)))
            for x in _numeric_roots(work)]


def _certified_grid(work: Polynomial, scale: int) -> List[Tuple[int, int]]:
    """`_double_grid` with every root of `work` in (1/scale) Z[i] among the
    results: Durand-Kerner precision doubles until (n + 1) err scale < 1/4,
    putting each root within 1/(4 scale) of one approximation (Smith's bound),
    up to a cap that grows with degree and height as separation bounds do."""
    import mpmath  # only input that double precision cannot split gets here

    ctx = mpmath.MPContext()
    n = work.degree
    ints = [(int(c.re * scale), int(c.im * scale)) for c in reversed(work.coeffs)]
    height = max(max(abs(a), abs(b)) for a, b in ints).bit_length()
    cap = 2 * n * (height + n.bit_length()) + 128
    prec = height + 64  # holds every coefficient exactly
    guess = _numeric_roots(work) or None
    while True:
        ctx.prec = prec
        try:
            guess, err = ctx.polyroots([ctx.mpc(a, b) for a, b in ints], maxsteps=50 + 10 * n,
                                       extraprec=prec, error=True, roots_init=guess)
        except ctx.NoConvergence:
            pass  # retry from the same start at the next precision
        else:
            if (n + 1) * err * scale < 0.25:
                return [(int(ctx.nint(scale * x.real)), int(ctx.nint(scale * x.imag)))
                        for x in map(ctx.mpc, guess)]
        if prec >= cap:
            raise RootPrecisionError(
                f"cannot isolate the roots of a degree-{n} factor within {cap} bits of precision"
            )
        prec = min(2 * prec, cap)


def linear_roots(p: Polynomial) -> List[Tuple[ExactComplex, int]]:
    """All roots with multiplicity; raises IrrationalPoleError unless the
    polynomial splits into linear factors over Q(i).

    A monic squarefree factor times the lcm L of its coefficient denominators
    lies in Z[i][z] with leading coefficient L, so its roots in Q(i) lie in
    (1/L) Z[i]: numeric roots rounded to that grid and confirmed exactly split
    it, in double and then in certified precision, or nothing can.
    """
    if p.degree < 1:
        return []
    if p.degree == 1:
        return [(-p.coeffs[0] / p.coeffs[1], 1)]
    roots: List[Tuple[ExactComplex, int]] = []
    for factor, mult in squarefree_decomposition(p):
        rest = factor
        for locate in (_double_grid, _certified_grid):
            if rest.degree < 1:
                break
            scale = math.lcm(*(q.denominator for c in rest.coeffs for q in (c.re, c.im)))
            for a, b in locate(rest, scale):
                r = ExactComplex(Fraction(a, scale), Fraction(b, scale))
                if rest.degree >= 1 and rest.eval(r).is_zero():
                    roots.append((r, mult))
                    rest = rest.divmod(Polynomial([-r, ONE]))[0]
        if rest.degree >= 1:
            raise IrrationalPoleError(
                f"factor of degree {rest.degree} has no roots in Q(i): "
                f"{', '.join(format_exact(c) for c in rest.coeffs)} (constant first)"
            )
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    return roots


class RationalFunction:
    """Reduced fraction num/den of Polynomials, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial = Polynomial([ONE])):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree >= 1:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        else:
            den = Polynomial([ONE])
        lead = den.leading()
        if lead != ONE:
            inv = ONE / lead
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(Polynomial([ExactComplex.coerce(c)]))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def eval_complex(self, z):
        return self.num.eval_complex(z) / self.den.eval_complex(z)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"


def laurent_coefficient(fn: RationalFunction, p: ExactComplex, index: int) -> ExactComplex:
    """Exact Laurent coefficient of w^index in fn(p + w); index may be negative."""
    if fn.is_zero():
        return ZERO
    num = fn.num.shift(p)
    den = fn.den.shift(p)
    # strip the w-power from the denominator (pole order m) and numerator
    m = 0
    while den.coeffs[0].is_zero():
        den = Polynomial(den.coeffs[1:])
        m += 1
    k = 0
    while not num.is_zero() and num.coeffs[0].is_zero():
        num = Polynomial(num.coeffs[1:])
        k += 1
    # fn(p+w) = w^(k-m) * num/den with den(0) != 0
    want = index - (k - m)
    if want < 0:
        return ZERO
    inv = den.series_inverse(want + 1)
    acc = ZERO
    for j in range(want + 1):
        if j <= num.degree:
            acc = acc + num.coeffs[j] * inv[want - j]
    return acc
