"""Exact complex-rational arithmetic (the field Q(i)) and its text grammar.

Every rank computation, residue and coefficient in the exact half of the
package runs over this field; floats only appear after an explicit
``to_complex()`` call at a numeric boundary.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Tuple, Union

Rat = Union[int, Fraction]


class ExactComplex:
    """A complex number with Fraction real and imaginary parts.

    Immutable and hashable.  Supports field arithmetic, conjugation and
    lossless parsing/printing via `parse_exact` / `format_exact`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

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
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __mul__(self, other):
        other = ExactComplex.coerce(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ExactComplex.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

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
        return ExactComplex(self.re, -self.im)

    # -- predicates / conversions --------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    __complex__ = to_complex

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, complex, ExactComplex)):
            other = ExactComplex.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_exact(self)


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
    `#` comment cut off and blank lines skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


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
            raise ValueError(f"bad complex literal {text!r} at offset {pos}")
        if not first and not m.group("sign"):
            raise ValueError(f"missing +/- between terms in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("ibare"):
            coeff, imaginary = Fraction(1), True
        else:
            coeff, imaginary = Fraction(m.group("coeff")), bool(m.group("iflag"))
        if imaginary:
            if im_part is not None:
                raise ValueError(f"repeated imaginary term in {text!r}")
            im_part = sign * coeff
        else:
            if re_part is not None:
                raise ValueError(f"repeated real term in {text!r}")
            re_part = sign * coeff
        pos = m.end()
        first = False
    return ExactComplex(re_part or 0, im_part or 0)
