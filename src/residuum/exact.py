"""Exact complex-rational arithmetic (the field Q(i)) and its text grammar.

Every rank computation, residue and coefficient in the exact half of the
package runs over this field; floats only appear after an explicit
``to_complex()`` call at a numeric boundary.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from math import gcd
from typing import Iterator, Tuple, Type, Union

Rat = Union[int, Fraction]


class ExactComplex:
    """A complex rational (a + b i) / d held as Python ints, d > 0 and
    gcd(a, b, d) = 1, so that zero is (0, 0, 1).

    Immutable and hashable.  Supports field arithmetic, conjugation and
    lossless parsing/printing via `parse_exact` / `format_exact`; `re` and
    `im` read the parts as Fractions.
    """

    __slots__ = ("a", "b", "d", "_hash")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            p, q = re.denominator, im.denominator
            d = p // gcd(p, q) * q  # lcm(p, q): no prime divides a, b and d
            a, b = re.numerator * (d // p), im.numerator * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_complex(z: complex) -> "ExactComplex":
        """Exact binary conversion of a float complex (no rounding)."""
        return ExactComplex(Fraction(z.real), Fraction(z.imag))

    @staticmethod
    def coerce(value) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactComplex(value)
        if isinstance(value, complex):
            return ExactComplex.from_complex(value)
        if isinstance(value, str):
            return parse_exact(value)
        raise TypeError(f"cannot coerce {value!r} to ExactComplex")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        d, f = self.d, other.d
        if d == f:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * f + other.a * d, self.b * f + other.b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        d, f = self.d, other.d
        if d == f:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * f - other.a * d, self.b * f - other.b * d, d * f)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ExactComplex:
            other = ExactComplex.coerce(other)
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        # (a + b i) / d * f / (c + e i) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __neg__(self):
        return _canonical(-self.a, -self.b, self.d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ExactComplex":
        return _canonical(self.a, -self.b, self.d)

    # -- predicates / conversions --------------------------------------

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_real(self) -> bool:
        return self.b == 0

    def to_complex(self) -> complex:
        # int / int rounds the exact quotient once, as float(Fraction) does
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    __complex__ = to_complex

    def __eq__(self, other):
        if type(other) is not ExactComplex:
            if not isinstance(other, (int, Fraction, complex, ExactComplex)):
                return NotImplemented
            if isinstance(other, complex) and not cmath.isfinite(other):
                return False  # no rational equals a NaN or an infinity
            other = ExactComplex.coerce(other)
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.re, self.im))
            _set_hash(self, h)
            return h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


# slot setters that get past the immutability guard in __setattr__
_set_a = ExactComplex.a.__set__
_set_b = ExactComplex.b.__set__
_set_d = ExactComplex.d.__set__
_set_hash = ExactComplex._hash.__set__
_blank = object.__new__


def _canonical(a: int, b: int, d: int) -> ExactComplex:
    """(a + b i) / d from ints already in canonical form."""
    z = _blank(ExactComplex)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> ExactComplex:
    """(a + b i) / d for d > 0, divided by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            return _canonical(a // g, b // g, d // g)
    return _canonical(a, b, d)


ZERO = ExactComplex(0)
ONE = ExactComplex(1)
I = ExactComplex(0, 1)


def _format_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_exact(z: ExactComplex) -> str:
    """Canonical text form: `re`, `im i`, or `re + im i` (sign-folded)."""
    if z.im == 0:
        return _format_rat(z.re)
    if z.re == 0:
        if z.im == 1:
            return "i"
        if z.im == -1:
            return "-i"
        return f"{_format_rat(z.im)} i"
    sign = "-" if z.im < 0 else "+"
    mag = abs(z.im)
    imtxt = "i" if mag == 1 else f"{_format_rat(mag)} i"
    return f"{_format_rat(z.re)} {sign} {imtxt}"


def format_complex(z: complex) -> str:
    """Lossless text of a float complex, `re + im i` with repr digits and
    the sign folded; `parse_exact` reads it back to the same float."""
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r} {sign} {abs(z.imag)!r} i"


def _lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, body) of each line of a text file format, with its
    `#` comment cut off and blank lines skipped.  Numbers count every line
    of the text from 1, so a reader handed a section of a larger file with
    the other lines left blank numbers its lines as in the file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


class _at_line:
    """`with _at_line(lineno, error):` around the reading of one line: a
    ValueError or IndexError raised inside leaves as `error`, its message
    headed `line N: `.  This is the one place a text reader names a file
    line; errors of no single line are raised outside it, unheaded."""

    __slots__ = ("lineno", "error")

    def __init__(self, lineno: int, error: Type[ValueError]):
        self.lineno, self.error = lineno, error

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, e, tb) -> None:
        if isinstance(e, (IndexError, ValueError)):
            lineno = self.lineno
            raise self.error(f"line {lineno}: {e}") from None


_TERM = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?)\s*(?P<iflag>[iI])?
          | (?P<ibare>[iI])
        )\s*""",
    re.VERBOSE,
)


def parse_exact(text: str) -> ExactComplex:
    """Parse `p/q + r/s i` style literals; decimals convert exactly.

    Accepted term forms: `3`, `-1/2`, `2.5`, `i`, `-i`, `3/4 i`, `2i`,
    joined by `+`/`-`.  Raises ValueError on anything else.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty complex literal")
    re_part = im_part = None
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad complex literal {s!r} at offset {pos}")
        if not first and not m.group("sign"):
            raise ValueError(f"missing +/- between terms in {s!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("ibare"):
            coeff, imaginary = Fraction(1), True
        else:
            try:
                coeff = Fraction(m.group("coeff"))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {s!r}") from None
            imaginary = bool(m.group("iflag"))
        if imaginary:
            if im_part is not None:
                raise ValueError(f"repeated imaginary term in {s!r}")
            im_part = sign * coeff
        else:
            if re_part is not None:
                raise ValueError(f"repeated real term in {s!r}")
            re_part = sign * coeff
        pos = m.end()
        first = False
    return ExactComplex(re_part or 0, im_part or 0)
