"""Seeded input generators for the three benchmark workloads.

A workload is a pool of rounds; a round is a list of sessions; a session is
a list of CLI ops that share input files and oracle state.  Each round
holds one session per stratum (tau x component count on the torus,
component count on the sphere, pole count and divisor size on the exact
side), so every whole round carries the same traffic mix and a seed only
moves points, residues and coefficients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from residuum import normalize_pure_imaginary, prescribe_residues
from residuum.divisor import parse_divisor_text
from residuum.models import format_form_for_model
from residuum.periods import parse_garden_text

import oracles as orc
from oracles import QI

Check = Callable[[str, dict], Optional[str]]
Round = List[List["Op"]]

TORUS_TAUS: Tuple[Tuple[QI, str], ...] = (
    ((Fraction(3, 10), Fraction(11, 10)), "0.3 + 1.1 i"),
    ((Fraction(1, 10), Fraction(6, 10)), "0.1 + 0.6 i"),
)
COMPONENT_COUNTS = (2, 3, 4)
POLE_COUNTS = (1, 2, 3, 4, 5, 6)
POLE_ORDERS = (3, 2, 1, 3, 2, 1)  # the first n orders for a form with n poles
DIVISOR_SIZES = (2, 3, 4)
# Rounds per second of one pass on the 2-vCPU host the benchmark was tuned
# on; they only size the pool, so that a run of several passes takes about
# --seconds there.  MIN_POOL_ROUNDS keeps at least 100 ops in a pass.
NOMINAL_ROUNDS_PER_S = {"torus_cli": 0.18, "sphere_cli": 1.7, "exact_cli": 1.4}
MIN_POOL_ROUNDS = {"torus_cli": 2, "sphere_cli": 4, "exact_cli": 6}
# Pole layouts (lattice coordinates s, t of s + t tau on the torus, points
# of the plane on the sphere) that every session jitters: pole clearance
# sets the quadrature cost, so a fixed layout per component count keeps
# the cost of a round from swinging with the seed.
TORUS_LAYOUTS = {
    2: (("1/4", "3/10"), ("3/4", "7/10")),
    3: (("1/5", "1/4"), ("11/20", "3/4"), ("4/5", "3/10")),
    4: (("1/4", "1/4"), ("3/4", "1/4"), ("1/4", "3/4"), ("3/4", "3/4")),
}
SPHERE_LAYOUTS = {
    2: (("-1", "0"), ("1", "0")),
    3: (("-1", "-3/4"), ("1", "-3/4"), ("0", "1")),
    4: (("-1", "-1"), ("1", "-1"), ("-1", "1"), ("1", "1")),
}
TORUS_DENOMINATORS = (1, 2, 3)
# Sphere pluriharm build round-trips residues through floats and then needs
# their exact sum to be zero, which fails for thirds; see design.json.
SPHERE_DENOMINATORS = (1, 2, 4)
AUDIT_LOOPS = "2"
GRID_RES = 3
SPHERE_HODGE = "b1 = 0\nd_omega0 = 0\nh01 = 0\nh2 = 1\n"


@dataclass
class Op:
    kind: str
    cls: str  # "build" or "query"
    argv: List[str]
    expect: int
    check: Check


def _zero_sum_residues(rng: random.Random, n: int, denominators: Sequence[int]) -> List[Fraction]:
    """n nonzero real residues summing to zero."""
    while True:
        rs = [Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice(denominators))
              for _ in range(n - 1)]
        last = -sum(rs)
        if last != 0:
            return rs + [last]


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


# -- shared field session ------------------------------------------------------


def _field_ops(
    d: Path,
    model: str,
    garden: str,
    form_for_pair: str,
    points: Sequence[complex],
    residues: Sequence[Fraction],
    evals: Sequence[complex],
    window: Tuple[float, float, float, float],
    audit_seed: int,
    prescribe_args: List[str],
    check_prescribed: Check,
    check_pair: Callable[[str], Check],
    eval_checks: Sequence[Check],
    grid_expected: Callable[[complex, dict], Optional[float]],
) -> List[Op]:
    """The op mix of both field workloads on one garden: prescribe; build a
    pair from the prescribed form and one from `form_for_pair`; three evals
    and a grid on the second pair; an audit of each pair; periods and
    dimcount.  Two builds to one prescribe and two audits in eleven ops put
    build_p50 inside the build cluster and op_p90 inside the audit cluster,
    rather than in the gap between two op kinds."""
    prescribed, raw_pair, pair = (str(d / n) for n in ("prescribed.txt", "raw_pair.txt", "pair.txt"))
    torus = model == "torus"
    rs = [float(r) for r in residues]
    dim = len(points) + 1 if torus else len(points) - 1

    def grid_check(out: str, ctx: dict) -> Optional[str]:
        return orc.check_grid(out, window, GRID_RES, lambda z: grid_expected(z, ctx))

    ops = [Op("prescribe", "build", ["prescribe", *prescribe_args, "--out", prescribed], 0, check_prescribed)]
    for form, out in ((prescribed, raw_pair), (form_for_pair, pair)):
        ops.append(Op("pluriharm build", "build",
                      ["pluriharm", "build", "--garden", garden, "--form", form, "--out", out],
                      0, check_pair(out)))
    for z, check in zip(evals, eval_checks):
        ops.append(Op("pluriharm eval", "query",
                      ["pluriharm", "eval", "--pair", pair, "--at", _complex_literal(z)], 0, check))
    # `--window=` because argparse reads a leading minus as an option
    ops.append(Op("pluriharm grid", "query",
                  ["pluriharm", "grid", "--pair", pair, "--window=" + ",".join(repr(v) for v in window),
                   "--res", str(GRID_RES)], 0, grid_check))
    for k, audited in enumerate((pair, raw_pair)):
        ops.append(Op("pluriharm audit", "query",
                      ["pluriharm", "audit", "--pair", audited, "--loops", AUDIT_LOOPS,
                       "--seed", str(audit_seed + k)], 0, lambda out, ctx: orc.check_audit(out)))
    ops += [
        Op("periods", "query", ["periods", "--garden", garden, "--form", form_for_pair], 0,
           lambda out, ctx: orc.check_periods(out, rs, torus)),
        Op("dimcount", "query", ["dimcount", "--garden", garden], 0,
           lambda out, ctx: orc.check_dimcount(out, dim)),
    ]
    return ops


def _clear_of_basepoint(evals: Sequence[complex], window, base: complex) -> bool:
    """Eval and grid points keep 0.05 from the garden basepoint: eval at the
    basepoint itself exits 2 ("empty segment"), see design.json."""
    points = list(evals) + (orc.grid_points(window, GRID_RES) if window else [])
    return all(abs(w - base) >= 0.05 for w in points)


def _complex_literal(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r} {sign} {abs(z.imag)!r} i"


def _divisor_text(names: Sequence[str], coeffs: Sequence[str]) -> str:
    return "".join(f"{n} : {c}\n" for n, c in zip(names, coeffs))


# -- torus_cli -------------------------------------------------------------------


def _torus_distance(a: complex, b: complex, tau: complex) -> float:
    d = a - b
    return min(abs(d - m - n * tau) for m in (-1, 0, 1) for n in (-1, 0, 1))


def _torus_session(rng: random.Random, d: Path, tau_idx: int, n_points: int) -> List[Op]:
    (tre, tim), tau_txt = TORUS_TAUS[tau_idx]
    tau = complex(float(tre), float(tim))

    def lattice(s: Fraction, t: Fraction) -> Tuple[QI, complex]:
        exact = (s + t * tre, t * tim)
        return exact, orc.qcomplex(exact)

    layout = list(TORUS_LAYOUTS[n_points])
    rng.shuffle(layout)
    exact_pts: List[QI] = []
    pts: List[complex] = []
    for s0, t0 in layout:
        e, z = lattice(Fraction(s0) + Fraction(rng.randint(-2, 2), 40),
                       Fraction(t0) + Fraction(rng.randint(-2, 2), 40))
        exact_pts.append(e)
        pts.append(z)
    residues = _zero_sum_residues(rng, n_points, TORUS_DENOMINATORS)
    names = [orc.fmt_qi(e) for e in exact_pts]
    garden_text = f"model torus\ntau = {tau_txt}\n" + "".join(f"component {n}\n" for n in names)
    garden = _write(d / "garden.txt", garden_text)
    g = parse_garden_text(garden_text)
    while True:
        _, z = lattice(Fraction(rng.randint(3, 17), 20), Fraction(rng.randint(3, 17), 20))
        window = (z.real, z.real + 0.06, z.imag, z.imag + 0.06)
        if (all(_torus_distance(z, q, tau) >= 0.2 for q in pts)
                and _clear_of_basepoint([z, z + 1, z + tau], window, g.basepoint)):
            break
    divisor = _write(d / "divisor.txt", _divisor_text(names, [orc.fmt_rat(r) for r in residues]))
    # The CLI cannot make long periods purely imaginary, which torus eval
    # needs, so the form the pair is built from is normalised here, before
    # any timing, through the public API.
    raw = prescribe_residues(g.model, parse_divisor_text(Path(divisor).read_text()))
    form = _write(d / "form.txt", format_form_for_model(normalize_pure_imaginary(raw, g), g.model))
    rs = [complex(float(r)) for r in residues]

    def check_prescribed(out: str, ctx: dict) -> Optional[str]:
        terms = orc.torus_log_terms((d / "prescribed.txt").read_text().splitlines())
        return orc.torus_residues_match(terms, pts, rs, tau)

    def check_pair(path: str) -> Check:
        def check(out: str, ctx: dict) -> Optional[str]:
            sections = orc.pair_sections(Path(path).read_text())
            for key, want in (("phi", rs), ("psi", [r.conjugate() for r in rs])):
                bad = orc.torus_residues_match(orc.torus_log_terms(sections.get(key, [])), pts, want, tau)
                if bad:
                    return f"pair [{key}]: {bad}"
            return None
        return check

    evals = [z, z + 1, z + tau]

    def eval_check(i: int) -> Check:
        def check(out: str, ctx: dict) -> Optional[str]:
            ctx.setdefault("h", {})[i] = float(out)
            if i < 2:
                return None
            hs = [ctx["h"].get(k) for k in range(3)]
            if None in hs:
                return "eval: an earlier translate failed"
            if not (orc.close(hs[0], hs[1], orc.EVAL_TOL) and orc.close(hs[0], hs[2], orc.EVAL_TOL)):
                return f"eval: h(z), h(z+1), h(z+tau) = {hs} disagree"
            return None
        return check

    def grid_expected(w: complex, ctx: dict) -> Optional[float]:
        return ctx.get("h", {}).get(0, math.nan) if w == z else None

    return _field_ops(
        d, "torus", garden, form, pts, residues, evals, window, rng.randint(0, 999),
        ["--model", "torus", "--divisor", divisor, "--tau", tau_txt],
        check_prescribed, check_pair, [eval_check(i) for i in range(3)], grid_expected,
    )


# -- sphere_cli ------------------------------------------------------------------


def _sphere_session(rng: random.Random, d: Path, n_points: int) -> List[Op]:
    layout = list(SPHERE_LAYOUTS[n_points])
    rng.shuffle(layout)
    flip = (rng.choice((-1, 1)), rng.choice((-1, 1)))
    exact_pts: List[QI] = []
    for x0, y0 in layout:
        x = Fraction(x0) * flip[0] + Fraction(rng.randint(-1, 1), 4)
        y = Fraction(y0) * flip[1] + Fraction(rng.randint(-1, 1), 4)
        exact_pts.append((x, y))
    pts = [orc.qcomplex(e) for e in exact_pts]
    residues = _zero_sum_residues(rng, n_points, SPHERE_DENOMINATORS)
    names = [orc.fmt_qi(e) for e in exact_pts]
    garden_text = "model sphere\n" + "".join(f"component {n}\n" for n in names)
    garden = _write(d / "garden.txt", garden_text)
    base = parse_garden_text(garden_text).basepoint
    evals: List[complex] = []
    while len(evals) < 3:
        z = complex(rng.randint(-12, 12) / 5, rng.randint(-12, 12) / 5)
        window = (z.real, z.real + 0.2, z.imag, z.imag + 0.2)
        if (all(abs(z - q) >= 0.4 for q in pts) and z not in evals
                and _clear_of_basepoint([z], window if not evals else None, base)):
            evals.append(z)
    divisor = _write(d / "divisor.txt", _divisor_text(names, [orc.fmt_rat(r) for r in residues]))
    num, den = orc.partial_fractions([(e, [(r, Fraction(0))]) for e, r in zip(exact_pts, residues)])
    form = _write(d / "form.txt", f"{orc.fmt_poly(num)} / {orc.fmt_poly(den)}\n")
    rs = [float(r) for r in residues]

    def check_prescribed(out: str, ctx: dict) -> Optional[str]:
        return orc.check_sphere_form((d / "prescribed.txt").read_text(), num, den)

    def check_pair(path: str) -> Check:
        def check(out: str, ctx: dict) -> Optional[str]:
            text = Path(path).read_text()
            sections = orc.pair_sections(text)
            for key in ("phi", "psi"):
                bad = orc.check_sphere_form("".join(sections.get(key, [])), num, den)
                if bad:
                    return f"pair [{key}]: {bad}"
            ctx["base"] = orc.read_basepoint(text)
            return None
        return check

    def expected(w: complex, ctx: dict) -> Optional[float]:
        return orc.log_field(w, ctx["base"], pts, rs)

    def eval_check(z: complex) -> Check:
        def check(out: str, ctx: dict) -> Optional[str]:
            if "base" not in ctx:
                return "eval: pair build failed"
            h, want = float(out), expected(z, ctx)
            return None if orc.close(h, want, orc.EVAL_TOL) else f"eval: h({z}) = {h!r}, closed form {want!r}"
        return check

    z = evals[0]
    window = (z.real, z.real + 0.2, z.imag, z.imag + 0.2)
    return _field_ops(
        d, "sphere", garden, form, pts, residues, evals, window, rng.randint(0, 999),
        ["--model", "sphere", "--divisor", divisor],
        check_prescribed, check_pair, [eval_check(w) for w in evals],
        lambda w, ctx: expected(w, ctx) if "base" in ctx else math.nan,
    )


# -- exact_cli ---------------------------------------------------------------------


def _gauss(rng: random.Random, lo: int, hi: int) -> QI:
    return (Fraction(rng.randint(lo, hi)), Fraction(rng.randint(lo, hi)))


def _decompose_op(rng: random.Random, d: Path, n_poles: int, with_poly: bool) -> Op:
    grid = [(Fraction(a, 2), Fraction(b, 2)) for a in range(-4, 5) for b in range(-4, 5)]
    poles = rng.sample(grid, n_poles)
    orders = list(POLE_ORDERS[:n_poles])
    rng.shuffle(orders)
    terms = []
    for p, m in zip(poles, orders):
        cs = [
            (Fraction(rng.randint(-5, 5), rng.randint(1, 3)), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(m)
        ]
        while cs[-1] == orc.ZERO:
            cs[-1] = _gauss(rng, -3, 3)
        terms.append((p, cs))
    poly = [_gauss(rng, -3, 3), _gauss(rng, -3, 3)] if with_poly else []
    num, den = orc.partial_fractions(terms, poly)
    log_num, log_den = orc.partial_fractions([(p, cs[:1]) for p, cs in terms])
    path = _write(d / f"form{n_poles}.txt", f"{orc.fmt_poly(num)} / {orc.fmt_poly(den)}\n")
    return Op("decompose", "build", ["decompose", "--form", path], 0,
              lambda out, ctx: orc.check_decompose(out, num, den, log_num, log_den))


def _cover_point(rng: random.Random) -> QI:
    """A point of the cover's centre disk, clear of the three band spokes."""
    while True:
        angle = rng.choice((15, 25, 40, 100, 135, 160, 220, 250, 280, 330)) + rng.randint(-10, 10)
        if min(abs(((angle - s) + 180) % 360 - 180) for s in (60, 180, 300)) >= 12:
            break
    radius = rng.randint(8, 28) / 100
    rad = math.radians(angle)
    return (Fraction(round(radius * math.cos(rad) * 1000), 1000),
            Fraction(round(radius * math.sin(rad) * 1000), 1000))


def _divisor_ops(rng: random.Random, d: Path, size: int, zero_sum: bool, hodge: str) -> List[Op]:
    points: List[QI] = []
    while len(points) < size:
        p = _cover_point(rng)
        if p != orc.ZERO and p not in points:
            points.append(p)
    coeffs = [_gauss(rng, -4, 4) for _ in range(size - 1)]
    partial = orc.qsum(coeffs)
    if zero_sum:
        coeffs.append(orc.qneg(partial))
    else:
        last = _gauss(rng, -4, 4)
        while orc.qadd(partial, last) == orc.ZERO:
            last = _gauss(rng, -4, 4)
        coeffs.append(last)
    names = [orc.fmt_qi(p) for p in points]
    tag = f"{size}{'z' if zero_sum else 'n'}"
    divisor = _write(d / f"divisor{tag}.txt", _divisor_text(names, [orc.fmt_qi(c) for c in coeffs]))
    trans = _write(d / f"trans{tag}.txt",
                   "mode sphere-point\n" + "".join(f"component {n} : {n}\n" for n in names))
    ops = [
        Op("feasible", "query",
           ["feasible", "--divisor", divisor, "--transitions", trans, "--hodge", hodge],
           0 if zero_sum else 1, lambda out, ctx: orc.check_feasible(out, coeffs)),
        Op("chern", "query", ["chern", "--transitions", trans], 0,
           lambda out, ctx: orc.check_chern(out, names)),
    ]
    if zero_sum:
        num, den = orc.partial_fractions([(p, [c]) for p, c in zip(points, coeffs) if c != orc.ZERO])
        ops.append(Op("prescribe", "build", ["prescribe", "--model", "sphere", "--divisor", divisor], 0,
                      lambda out, ctx: orc.check_sphere_form(out, num, den)))
    return ops


def _exact_round(rng: random.Random, d: Path) -> List[List[Op]]:
    hodge = _write(d / "hodge.txt", SPHERE_HODGE)
    forms = [_decompose_op(rng, d, n, n % 2 == 0) for n in POLE_COUNTS]
    sessions = [[op] for op in forms]
    for size in DIVISOR_SIZES:
        for zero_sum in (True, False):
            sessions.append(_divisor_ops(rng, d, size, zero_sum, hodge))
    return sessions


# -- entry point -----------------------------------------------------------------


def pool_rounds(name: str, pass_seconds: float) -> int:
    return max(MIN_POOL_ROUNDS[name], round(pass_seconds * NOMINAL_ROUNDS_PER_S[name]))


def build(name: str, seed: int, workdir: Path, rounds: int) -> List[Round]:
    """Generate the workload's pool of `rounds` rounds under `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    pool: List[Round] = []
    for r in range(rounds):
        sessions: List[List[Op]] = []
        if name == "exact_cli":
            d = workdir / f"r{r}"
            d.mkdir(parents=True)
            sessions = _exact_round(rng, d)
        else:
            strata = (
                [(t, n) for n in COMPONENT_COUNTS for t in range(len(TORUS_TAUS))]
                if name == "torus_cli" else [(None, n) for n in COMPONENT_COUNTS]
            )
            for k, (t, n) in enumerate(strata):
                d = workdir / f"r{r}s{k}"
                d.mkdir(parents=True)
                sessions.append(
                    _torus_session(rng, d, t, n) if name == "torus_cli" else _sphere_session(rng, d, n)
                )
        pool.append(sessions)
    return pool


def setup_code(name: str) -> str:
    """Model construction timed by setup_s, after `import residuum`."""
    if name == "torus_cli":
        return "\n".join(
            f"residuum.TorusModel(residuum.Torus(complex({float(re)!r}, {float(im)!r})))"
            for (re, im), _ in TORUS_TAUS
        )
    if name == "sphere_cli":
        return "residuum.SphereModel()"
    return "residuum.standard_good_nerves('sphere')"

