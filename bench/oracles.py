"""Output oracles that share no code with residuum.

Gaussian rationals are pairs of Fractions and polynomials are lists of them,
constant term first.  Each check returns None when the CLI output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

QI = Tuple[Fraction, Fraction]
Poly = List[QI]

ZERO: QI = (Fraction(0), Fraction(0))
ONE: QI = (Fraction(1), Fraction(0))
TWO_PI_I = 2j * math.pi

EVAL_TOL = 1e-8
PERIOD_TOL = 1e-9
AUDIT_TOL = 1e-8


# -- Q(i) and polynomial arithmetic ------------------------------------------


def qadd(a: QI, b: QI) -> QI:
    return (a[0] + b[0], a[1] + b[1])


def qmul(a: QI, b: QI) -> QI:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def qneg(a: QI) -> QI:
    return (-a[0], -a[1])


def qsum(values: Sequence[QI]) -> QI:
    total = ZERO
    for v in values:
        total = qadd(total, v)
    return total


def qcomplex(a: QI) -> complex:
    return complex(float(a[0]), float(a[1]))


def trim(p: Poly) -> Poly:
    p = list(p)
    while p and p[-1] == ZERO:
        p.pop()
    return p


def padd(p: Poly, q: Poly) -> Poly:
    out = [ZERO] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] = qadd(out[i], c)
    for i, c in enumerate(q):
        out[i] = qadd(out[i], c)
    return trim(out)


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = qadd(out[i + j], qmul(a, b))
    return trim(out)


def ppow(p: Poly, n: int) -> Poly:
    out: Poly = [ONE]
    for _ in range(n):
        out = pmul(out, p)
    return out


def linear(root: QI) -> Poly:
    """z - root."""
    return [qneg(root), ONE]


def partial_fractions(
    terms: Sequence[Tuple[QI, Sequence[QI]]], poly: Poly = ()
) -> Tuple[Poly, Poly]:
    """(num, den) of sum_p sum_k c_pk / (z - p)^k + poly, over the common
    denominator prod_p (z - p)^(m_p); `terms` lists (p, [c_p1, ..., c_pm])."""
    factors = [ppow(linear(p), len(cs)) for p, cs in terms]
    den: Poly = [ONE]
    for f in factors:
        den = pmul(den, f)
    num = pmul(list(poly), den)
    for idx, (p, cs) in enumerate(terms):
        others: Poly = [ONE]
        for jdx, f in enumerate(factors):
            if jdx != idx:
                others = pmul(others, f)
        m = len(cs)
        for k, c in enumerate(cs, start=1):
            num = padd(num, pmul([c], pmul(ppow(linear(p), m - k), others)))
    return trim(num), den


def same_function(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> bool:
    return pmul(n1, d2) == pmul(n2, d1)


# -- text ----------------------------------------------------------------------


def fmt_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_qi(a: QI) -> str:
    """Input literal `re + im i` for the CLI's exact grammar."""
    sign = "-" if a[1] < 0 else "+"
    return f"{fmt_rat(a[0])} {sign} {fmt_rat(abs(a[1]))} i"


def fmt_poly(p: Poly) -> str:
    return ", ".join(fmt_qi(c) for c in p) if p else "0"


_RAT = r"\d+(?:/\d+)?"
_MIXED = re.compile(rf"(-?{_RAT}) ([+-]) (?:({_RAT}) )?i")
_IMAG = re.compile(rf"(-?)(?:({_RAT}) )?i")
_REAL = re.compile(rf"-?{_RAT}")


def parse_qi(text: str) -> QI:
    """Parse the CLI's canonical exact output: `p/q`, `p/q i`, `i`, `-i`,
    `re + im i`, `re - i`."""
    t = text.strip()
    m = _MIXED.fullmatch(t)
    if m:
        im = Fraction(m.group(3) or 1)
        return (Fraction(m.group(1)), -im if m.group(2) == "-" else im)
    m = _IMAG.fullmatch(t)
    if m:
        im = Fraction(m.group(2) or 1)
        return (Fraction(0), -im if m.group(1) else im)
    if _REAL.fullmatch(t):
        return (Fraction(t), Fraction(0))
    raise ValueError(f"bad exact literal {text!r}")


def parse_form_line(text: str) -> Tuple[Poly, Poly]:
    """`n0, n1, ... / d0, d1, ...` as printed by the CLI."""
    num_txt, den_txt = text.split(" / ")
    return (
        trim([parse_qi(c) for c in num_txt.split(",")]),
        trim([parse_qi(c) for c in den_txt.split(",")]),
    )


_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_FLOAT})({_FLOAT})i$")


def parse_complex(text: str) -> complex:
    """`{re:.15g}{im:+.15g}i` as printed by the CLI."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad complex value {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


# -- checks ---------------------------------------------------------------------


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_periods(out: str, residues: Sequence[float], torus: bool) -> Optional[str]:
    """Short periods equal 2 pi i r_j; long periods exist only on the torus,
    where the pre-normalised form makes them purely imaginary."""
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("long: ") or not lines[1].startswith("short: "):
        return f"periods: unexpected layout {out!r}"
    long_txt = lines[0][len("long: "):]
    shorts = [parse_complex(v) for v in lines[1][len("short: "):].split()]
    if len(shorts) != len(residues):
        return f"periods: {len(shorts)} short entries for {len(residues)} components"
    for s, r in zip(shorts, residues):
        if abs(s - TWO_PI_I * r) > PERIOD_TOL:
            return f"periods: short {s} differs from 2 pi i x {r}"
    if not torus:
        return None if long_txt == "-" else f"periods: sphere long vector {long_txt!r}"
    longs = [parse_complex(v) for v in long_txt.split()]
    if len(longs) != 2 or any(abs(v.real) > EVAL_TOL for v in longs):
        return f"periods: long vector {long_txt!r} is not two imaginary numbers"
    return None


def check_dimcount(out: str, expected: int) -> Optional[str]:
    return None if out == f"{expected}\n" else f"dimcount: {out!r}, expected {expected}"


def check_audit(out: str) -> Optional[str]:
    value = float(out)
    return None if value < AUDIT_TOL else f"audit: worst loop integral {value:.3e}"


def log_field(z: complex, base: complex, points: Sequence[complex], residues: Sequence[float]) -> float:
    """sum r_j log|z - p_j|^2 minus its basepoint value: the sphere field."""
    return sum(
        r * (math.log(abs(z - p) ** 2) - math.log(abs(base - p) ** 2))
        for p, r in zip(points, residues)
    )


def grid_points(window: Sequence[float], res: int) -> List[complex]:
    """Row-major grid in the CLI's order: y outer, x inner, endpoints kept."""
    x0, x1, y0, y1 = window
    step = lambda a, b, k: a + (b - a) * k / (res - 1)
    return [complex(step(x0, x1, i), step(y0, y1, j)) for j in range(res) for i in range(res)]


def check_grid(out: str, window: Sequence[float], res: int, expected) -> Optional[str]:
    """Header, one row per grid point at the right coordinates, and each h
    within tolerance of `expected(z)` where that is not None."""
    lines = out.splitlines()
    points = grid_points(window, res)
    if not lines or lines[0] != "x,y,h" or len(lines) != len(points) + 1:
        return f"grid: {len(lines)} lines for {len(points)} points"
    for row, z in zip(lines[1:], points):
        x, y, h = (float(v) for v in row.split(","))
        if abs(x - z.real) > 1e-12 or abs(y - z.imag) > 1e-12:
            return f"grid: row {row!r} is not at {z}"
        want = expected(z)
        if want is not None and not close(h, want, EVAL_TOL):
            return f"grid: h({z}) = {h!r}, expected {want!r}"
    return None


def read_basepoint(pair_text: str) -> complex:
    """Basepoint line of the pair file's garden section."""
    for line in pair_text.splitlines():
        if line.startswith("basepoint "):
            m = re.match(rf"^basepoint ({_FLOAT}) ([+-]) ({_FLOAT}) i$", line)
            if m:
                im = float(m.group(3))
                return complex(float(m.group(1)), -im if m.group(2) == "-" else im)
    raise ValueError("pair file has no basepoint line")


def pair_sections(pair_text: str) -> dict:
    sections: dict = {}
    current = None
    for line in pair_text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return sections


_TORUS_LOG = re.compile(rf"^log ({_FLOAT}) ([+-]) ({_FLOAT}) i : ({_FLOAT}) ([+-]) ({_FLOAT}) i$")


def torus_log_terms(lines: Sequence[str]) -> List[Tuple[complex, complex]]:
    """(pole, coefficient) of every `log` line of a torus form."""
    out = []
    for line in lines:
        if line.startswith("log "):
            m = _TORUS_LOG.match(line)
            if not m:
                raise ValueError(f"bad torus log line {line!r}")
            g = m.groups()
            pole = complex(float(g[0]), float(g[2]) * (-1 if g[1] == "-" else 1))
            coeff = complex(float(g[3]), float(g[5]) * (-1 if g[4] == "-" else 1))
            out.append((pole, coeff))
    return out


def torus_residues_match(
    terms: Sequence[Tuple[complex, complex]],
    points: Sequence[complex],
    residues: Sequence[complex],
    tau: complex,
) -> Optional[str]:
    """Each prescribed point carries its residue: a log term at a lattice
    translate of the point, with that coefficient, and nothing else."""
    def same_site(a: complex, b: complex) -> bool:
        d = a - b
        n = round(d.imag / tau.imag)
        m = round((d - n * tau).real)
        return abs(d - m - n * tau) < 1e-9

    if len(terms) != sum(1 for r in residues if r != 0):
        return f"{len(terms)} log terms for {len(residues)} residues"
    for p, r in zip(points, residues):
        if r == 0:
            continue
        hits = [c for q, c in terms if same_site(p, q)]
        if len(hits) != 1 or abs(hits[0] - r) > 1e-12:
            return f"residue at {p} is {hits}, expected {r}"
    return None


def fundamental_pairing(entries: dict) -> int:
    """Pairing of a 2-cocycle on the tetrahedron boundary with the oriented
    cycle [0,1,2] - [0,1,3] + [0,2,3] - [1,2,3], the orientation in which a
    point divisor on the built-in sphere cover has class +1."""
    orient = {(0, 1, 2): 1, (0, 1, 3): -1, (0, 2, 3): 1, (1, 2, 3): -1}
    return sum(orient[s] * v for s, v in entries.items())


def check_chern(out: str, names: Sequence[str]) -> Optional[str]:
    blocks: List[Tuple[str, dict]] = []
    for line in out.splitlines():
        if line.startswith("component "):
            blocks.append((line[len("component "):], {}))
        elif blocks:
            key, val = line.split(" : ")
            blocks[-1][1][tuple(int(v) for v in key.split(","))] = int(val)
        else:
            return f"chern: entry before any component: {line!r}"
    if [b[0] for b in blocks] != list(names):
        return f"chern: components {[b[0] for b in blocks]}, expected {list(names)}"
    for name, entries in blocks:
        if fundamental_pairing(entries) != 1:
            return f"chern: component {name} pairs to {fundamental_pairing(entries)}, expected 1"
    return None


def check_feasible(out: str, coefficients: Sequence[QI]) -> Optional[str]:
    """Verdict and class coordinate both follow from the exact coefficient
    sum: each point on the sphere cover has class +1."""
    total = qsum(coefficients)
    verdict, _, coord = out.strip().partition(" class: ")
    want = "feasible" if total == ZERO else "infeasible"
    if verdict != want:
        return f"feasible: verdict {verdict!r}, expected {want!r}"
    if parse_qi(coord) != total:
        return f"feasible: class {coord!r}, expected {fmt_qi(total)}"
    return None


def check_decompose(out: str, num: Poly, den: Poly, log_num: Poly, log_den: Poly) -> Optional[str]:
    """log + second recombine to the input exactly, and the log part is the
    sum of the generated simple-pole terms, so the second part has no
    residues."""
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("log: ") or not lines[1].startswith("second: "):
        return f"decompose: unexpected layout {out!r}"
    n1, d1 = parse_form_line(lines[0][len("log: "):])
    n2, d2 = parse_form_line(lines[1][len("second: "):])
    if not same_function(padd(pmul(n1, d2), pmul(n2, d1)), pmul(d1, d2), num, den):
        return "decompose: log + second differs from the input form"
    if not same_function(n1, d1, log_num, log_den):
        return "decompose: log part differs from the simple-pole terms"
    return None


def check_sphere_form(out: str, num: Poly, den: Poly) -> Optional[str]:
    n, d = parse_form_line(out.strip())
    return None if same_function(n, d, num, den) else "prescribe: form differs from sum a_j/(z - p_j)"

