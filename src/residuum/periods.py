"""Gardens, contour quadrature, and long/short period vectors.

A garden fixes everything period vectors depend on: the model geometry,
the ordered component list, a basis of loops avoiding the components, and
a basepoint.  Contour integrals run composite Gauss-Legendre panels with
panel doubling until two successive refinements agree to the quadrature
tolerance; short periods are cross-checked against exact residues, which
is what makes the rest of the numeric tower trustworthy.

An integrand call costs about as much as a few hundred points, so paths
and forms that can share calls do.  `contour_integrals` refines a list of
paths in lockstep: every piece starts at 2 panels, all pieces double
together, and each level puts the nodes of every piece that still has a
live row into one integrand call (split at MAX_BATCH_POINTS points).  A
`FormStack` evaluates several forms as one integrand with a row per form
(on the torus, from one shared zeta table).  Each piece and row keeps the
one-path convergence test and stops at the panel count where a call on
that path and form alone would stop, so every value is the same to the
bit; `contour_integral` is the case of one path.  A pair's phi and psi,
and the spanning forms of a garden, go through `stacked_period_vectors`
this way, one batch for the loops and finite circles; the one-form period
functions are its case of one form.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .divisor import CDivisor
from .exact import ExactComplex, _at_line, _directive, _lines, format_complex, parse_exact
from .models import Form, Model, ModelError, make_model, prescribe_residues
from .sphere import SpherePoint
from .torus import DEFAULT_CUTOFF

QUAD_TOL = 1e-12
MAX_PANELS = 1024
GL_NODES = 16
# points per integrand call in `contour_integrals`: a torus call this size
# spends a tenth or less of its time on fixed cost, and its arrays are those
# of a one-path call on a piece at 64 panels, whatever the batch size
MAX_BATCH_POINTS = 1024
HARD_POLE_MARGIN = 1e-3
RESIDUE_AGREE_TOL = 1e-9
TWO_PI_I = 2j * math.pi


def short_period_from_residue(residue: complex) -> complex:
    """The one conversion between classical residues and raw small-circle
    integrals: d_j = 2 pi i r_j.  Every other module goes through this."""
    return TWO_PI_I * complex(residue)


def period_tolerance() -> float:
    """Numerical-zero threshold for period vectors (RESIDUUM_TOL override,
    which must be a finite positive number)."""
    raw = os.environ.get("RESIDUUM_TOL", "1e-8")
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ValueError(f"RESIDUUM_TOL must be a finite positive number, got {raw!r}")
    return tol


class PathError(ValueError):
    pass


class QuadratureError(RuntimeError):
    """An adaptive integral that did not converge.  Raised for a stacked
    integrand, it carries each row's integral or error as `rows`."""

    rows: Optional[list] = None


class GardenError(ValueError):
    pass


class PrescriptionError(ValueError):
    pass


# -- paths -------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """One smooth parametrized piece: a line segment or a circular arc."""

    kind: str  # "line" | "arc"
    a: complex = 0j  # line: start;  arc: center
    b: complex = 0j  # line: end
    radius: float = 0.0
    angle0: float = 0.0
    angle1: float = 0.0

    def start(self) -> complex:
        if self.kind == "line":
            return self.a
        return self.a + self.radius * cmath.exp(1j * self.angle0)

    def end(self) -> complex:
        if self.kind == "line":
            return self.b
        return self.a + self.radius * cmath.exp(1j * self.angle1)

    def point(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "line":
            return self.a + (self.b - self.a) * t
        ang = self.angle0 + (self.angle1 - self.angle0) * t
        return self.a + self.radius * np.exp(1j * ang)

    def velocity(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "line":
            return np.full_like(t, self.b - self.a, dtype=complex)
        ang = self.angle0 + (self.angle1 - self.angle0) * t
        return self.radius * 1j * (self.angle1 - self.angle0) * np.exp(1j * ang)


def line(a: complex, b: complex) -> Piece:
    return Piece("line", complex(a), complex(b))


def arc(center: complex, radius: float, angle0: float, angle1: float) -> Piece:
    return Piece("arc", complex(center), 0j, float(radius), float(angle0), float(angle1))


class Path:
    """Piecewise smooth path; `offset` declares loop closure.

    offset None  -> open path,
    offset 0     -> planar loop (endpoint equals start),
    offset w     -> loop on a torus closing up to the lattice vector w.
    """

    def __init__(self, pieces: Sequence[Piece], offset: Optional[complex] = None):
        if not pieces:
            raise PathError("path needs at least one piece")
        self.pieces = tuple(pieces)
        for prev, nxt in zip(self.pieces, self.pieces[1:]):
            if abs(prev.end() - nxt.start()) > 1e-12:
                raise PathError("path pieces do not chain continuously")
        self.offset = None if offset is None else complex(offset)
        if self.offset is not None:
            gap = self.end - self.start - self.offset
            if abs(gap) > 1e-12:
                raise PathError(f"loop fails to close: endpoint gap {gap}")

    @property
    def start(self) -> complex:
        return self.pieces[0].start()

    @property
    def end(self) -> complex:
        return self.pieces[-1].end()

    def reversed(self) -> "Path":
        rev = []
        for p in reversed(self.pieces):
            if p.kind == "line":
                rev.append(line(p.b, p.a))
            else:
                rev.append(arc(p.a, p.radius, p.angle1, p.angle0))
        off = None if self.offset is None else -self.offset
        return Path(rev, off)

    def min_distance(self, point: complex) -> float:
        """Distance from the path to a point (256 samples per arc; exact for lines)."""
        best = math.inf
        for p in self.pieces:
            if p.kind == "line":
                best = min(best, _segment_distance(p.a, p.b, point))
            else:
                t = np.linspace(0.0, 1.0, 256)
                best = min(best, float(np.min(np.abs(p.point(t) - point))))
        return best


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a)
    t = max(0.0, min(1.0, ((p - a) * ab.conjugate()).real / denom))
    return abs(a + t * ab - p)


def _segment_distances(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """`_segment_distance` elementwise over broadcast arrays with b != a,
    in the same floating-point operations."""
    ab, ap = b - a, p - a
    # Python's float ** (libm pow), which differs from x * x in the last bit now and then
    denom = np.array([abs(v) ** 2 for v in ab.ravel().tolist()]).reshape(ab.shape)
    t = np.minimum(1.0, np.maximum(0.0, (ap.real * ab.real + ap.imag * ab.imag) / denom))
    return np.hypot(a.real + t * ab.real - p.real, a.imag + t * ab.imag - p.imag)


def circle(center: complex, radius: float) -> Path:
    """Counterclockwise circle as a closed loop."""
    if radius <= 0:
        raise PathError("circle radius must be positive")
    return Path([arc(center, radius, 0.0, 2.0 * math.pi)], offset=0j)


def segment_loop(basepoint: complex, offset: complex) -> Path:
    """Straight loop generator on a torus: t -> basepoint + t*offset."""
    return Path([line(basepoint, basepoint + offset)], offset=offset)


def detoured_segment(a: complex, b: complex, poles: Sequence[complex], margin: float) -> Path:
    """Segment a -> b with counterclockwise circular detours of radius
    `margin` around any listed pole closer than `margin` to the segment.

    Deterministic; requires the endpoints themselves to clear every pole by
    the margin and detour disks not to overlap along the segment.
    """
    ab = b - a
    length = abs(ab)
    if length == 0:
        raise PathError("empty segment")
    hits = []
    for p in poles:
        if abs(p - a) < margin or abs(p - b) < margin:
            raise PathError(f"segment endpoint within margin of pole {p}")
        if _segment_distance(a, b, p) < margin:
            t_foot = ((p - a) * ab.conjugate()).real / (length * length)
            hits.append((t_foot, p))
    if not hits:
        return Path([line(a, b)])
    hits.sort()
    pieces: List[Piece] = []
    cursor = a
    prev_exit_t = 0.0
    for t_foot, p in hits:
        d = _segment_distance(a, b, p)
        half = math.sqrt(max(margin * margin - d * d, 0.0)) / length
        t1, t2 = t_foot - half, t_foot + half
        if t1 <= prev_exit_t:
            raise PathError("detour disks overlap along the segment")
        z1, z2 = a + t1 * ab, a + t2 * ab
        pieces.append(line(cursor, z1))
        ang1 = cmath.phase(z1 - p)
        ang2 = cmath.phase(z2 - p)
        while ang2 <= ang1:
            ang2 += 2.0 * math.pi
        pieces.append(arc(p, abs(z1 - p), ang1, ang2))
        # snap the arc landing back onto the segment to keep pieces chained
        cursor = z2
        # replace the analytic endpoint with the arc's numeric endpoint
        end_pt = pieces[-1].end()
        if abs(end_pt - z2) > 1e-12:
            pieces.append(line(end_pt, z2))
        prev_exit_t = t2
    pieces.append(line(cursor, b))
    return Path(pieces)


# -- quadrature ----------------------------------------------------------------


_GL_CACHE: dict = {}


def _gl_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    rule = _GL_CACHE.get(n)
    if rule is None:
        x, w = np.polynomial.legendre.leggauss(n)
        rule = ((x + 1.0) / 2.0, w / 2.0)  # on [0, 1]
        _GL_CACHE[n] = rule
    return rule


_PANEL_CACHE: dict = {}


def _panel_rule(panels: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the composite rule with `panels`
    equal panels of GL_NODES points each, stored read-only."""
    rule = _PANEL_CACHE.get(panels)
    if rule is None:
        x, w = _gl_rule(GL_NODES)
        edges = np.linspace(0.0, 1.0, panels + 1)
        starts, widths = edges[:-1], np.diff(edges)
        t = (starts[:, None] + widths[:, None] * x[None, :]).ravel()
        weights = (widths[:, None] * w[None, :]).ravel()
        t.flags.writeable = weights.flags.writeable = False
        rule = _PANEL_CACHE[panels] = (t, weights)
    return rule


ROUNDOFF_REL = 5e-14


def contour_integral(form_or_func: Union[Form, FormStack, Callable], path: Path) -> Union[complex, List[complex]]:
    """Adaptive composite Gauss-Legendre integral of f(z) dz along the path.

    Panel count doubles until two refinements agree within QUAD_TOL plus the
    double-precision roundoff floor of the absolute-value integral; raises
    QuadratureError at the panel cap (a pole too close to the path).

    An integrand that returns shape (k, N) on N points gives a list of k
    integrals.  Each row keeps its own test and is frozen at the panel
    count where it converges, which is where a call on that row alone
    stops; a row that fails leaves the rest running, and the first failed
    row's error is raised with every row's outcome as `rows`.
    """
    [outcome] = contour_integrals(form_or_func, [path])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@dataclass(slots=True)
class _PieceRun:
    """One piece's refinement in a lockstep batch: per row None while live,
    then the frozen integral or its QuadratureError; `error` is what the
    integrand raised on the piece's nodes, which ends its refinement."""

    piece: Piece
    rows: Optional[list] = None
    live: Sequence[int] = ()
    prev: Optional[list] = None
    error: Optional[Exception] = None


def contour_integrals(
    form_or_func: Union[Form, FormStack, Callable], paths: Sequence[Path]
) -> List[Union[complex, List[complex], Exception]]:
    """`contour_integral` of one integrand along each path, refined in lockstep.

    Every piece of every path starts at 2 panels and all of them double
    together: at each level, the nodes of the pieces that still have a live
    row go to the integrand together, in calls of at most MAX_BATCH_POINTS
    points, and the values are split back per piece.  Each piece and row
    keeps the one-path convergence test, freeze rule and panel cap, so the
    nodes and each piece's sums are the same, and each path's outcome is
    what `contour_integral` on that path alone returns or raises, to the
    bit: its value, or the exception, for a failed row the QuadratureError
    carrying `rows`, and for an integrand that raises, its exception on the
    piece where the one-path call meets it.  The integrand must give a
    point the same value whatever other points share its call, as the
    models' integrands do on these calls.
    """
    func = form_or_func.eval_complex if hasattr(form_or_func, "eval_complex") else form_or_func
    runs = [_PieceRun(piece) for path in paths for piece in path.pieces]
    pending, panels, vector = runs, 2, False
    while pending:
        for run, sums in zip(pending, _rule_sums(func, [run.piece for run in pending], panels)):
            if isinstance(sums, Exception):
                run.error = sums
                continue
            vector, cur, rough = sums
            if run.prev is None:
                run.rows, run.live = [None] * len(cur), range(len(cur))
            else:
                still = []
                for i in run.live:
                    if abs(cur[i] - run.prev[i]) < QUAD_TOL + ROUNDOFF_REL * rough[i]:
                        run.rows[i] = cur[i]
                    elif panels >= MAX_PANELS:
                        run.rows[i] = QuadratureError(
                            f"quadrature did not converge at {panels} panels "
                            f"(last delta {abs(cur[i] - run.prev[i]):.3e}); pole too close to path?"
                        )
                    else:
                        still.append(i)
                run.live = still
            run.prev = cur
        pending = [run for run in pending if run.error is None and run.live]
        panels *= 2
    in_order = iter(runs)
    return [_path_outcome([next(in_order) for _ in path.pieces], vector) for path in paths]


def _rule_sums(func, pieces: Sequence[Piece], panels: int) -> list:
    """Per piece, (vector, integrals, absolute-value integrals) of the rule
    with `panels` panels, row by row, or the exception the integrand raises
    on that piece's nodes alone.  Runs of pieces share one integrand call
    of at most MAX_BATCH_POINTS points; a piece with more nodes takes
    several."""
    t, weights = _panel_rule(panels)
    step = max(1, MAX_BATCH_POINTS // t.size)
    out: list = []
    for k in range(0, len(pieces), step):
        chunk = pieces[k:k + step]
        z = np.concatenate([p.point(t) for p in chunk])
        try:
            values = _evaluate(func, z)
        except Exception as e:  # the integrand's own error: kept for the path whose piece raises it
            out.extend([e] if len(chunk) == 1 else [_rule_sums(func, [p], panels)[0] for p in chunk])
            continue
        terms = values * np.concatenate([p.velocity(t) for p in chunk]) * np.tile(weights, len(chunk))
        terms = terms.reshape(terms.shape[:-1] + (len(chunk), t.size))
        sums, rough = np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)
        vector = sums.ndim == 2
        for j in range(len(chunk)):
            out.append((vector, np.atleast_1d(sums[..., j]).tolist(), np.atleast_1d(rough[..., j]).tolist()))
    return out


def _evaluate(func, z: np.ndarray):
    """func(z), in calls of at most MAX_BATCH_POINTS points."""
    if z.size <= MAX_BATCH_POINTS:
        return func(z)
    return np.concatenate([func(z[i:i + MAX_BATCH_POINTS]) for i in range(0, z.size, MAX_BATCH_POINTS)], axis=-1)


def _path_outcome(runs: Sequence[_PieceRun], vector: bool):
    """A path's outcome from its pieces' runs, read as the one-path call
    meets them: piece by piece, each row stopped at its first failure and
    the path once every row has failed; an integrand error counts where a
    row the one-path call still refines needed it."""
    outcome = None
    for run in runs:
        if run.rows is None:
            return run.error
        if outcome is None:
            outcome = [0j] * len(run.rows)
        need = [i for i, v in enumerate(outcome) if not isinstance(v, QuadratureError)]
        if any(run.rows[i] is None for i in need):
            return run.error
        for i in need:
            v = run.rows[i]
            outcome[i] = v if isinstance(v, QuadratureError) else outcome[i] + v
        if all(isinstance(v, QuadratureError) for v in outcome):
            break
    failed = [v for v in outcome if isinstance(v, QuadratureError)]
    if failed:
        failed[0].rows = outcome
        return failed[0]
    return outcome if vector else outcome[0]


def fixed_contour_integral(form_or_func, path: Path, nodes_per_piece: int = 64) -> complex:
    """Non-adaptive composite rule (nodes_per_piece = panels x 16 nodes),
    the panel rule of `contour_integrals` at one fixed level."""
    func = form_or_func.eval_complex if hasattr(form_or_func, "eval_complex") else form_or_func
    total = 0j
    for sums in _rule_sums(func, path.pieces, max(1, nodes_per_piece // GL_NODES)):
        if isinstance(sums, Exception):
            raise sums
        total += sums[1][0]
    return total


@dataclass(frozen=True)
class FormStack:
    """Forms on one model as one integrand: row i of `eval_complex(z)` is
    form i's value at the points, so `contour_integral` integrates them all
    in one pass.  On the torus the rows share one zeta table over the union
    of the forms' log poles."""

    model: Model
    forms: Tuple[Form, ...]

    def eval_complex(self, z) -> np.ndarray:
        return self.model.eval_forms(self.forms, np.atleast_1d(np.asarray(z, dtype=complex)))


# -- gardens --------------------------------------------------------------------


Point = Union[SpherePoint, complex]


@dataclass(frozen=True)
class Garden:
    """(model, ordered components, loop basis, basepoint)."""

    model: Model
    components: Tuple[Point, ...]
    loop_basis: Tuple[Path, ...]
    basepoint: complex

    @property
    def component_names(self) -> Tuple[str, ...]:
        return tuple(self.model.point_name(p) for p in self.components)

    def divisor(self, coefficients: Sequence) -> CDivisor:
        return CDivisor(self.component_names, tuple(ExactComplex.coerce(a) for a in coefficients))

    def pole_sites(self) -> List[complex]:
        """Pole locations relevant for clearance checks (lattice translates
        within one cell on the torus)."""
        return self.model.pole_sites(self.components)


def _clearance_of_loops(loops: Sequence[Path], sites: Sequence[complex]) -> float:
    if not sites:
        return math.inf
    best = math.inf
    for loop in loops:
        for p in sites:
            best = min(best, loop.min_distance(p))
    return best


def make_garden(
    model: Model,
    components: Sequence,
    basepoint: Optional[complex] = None,
    loops: Optional[Sequence[Path]] = None,
) -> Garden:
    """Build a garden with deterministic auto-chosen basepoint and loops.

    Sphere: no loops (first Betti number 0); basepoint maximizes clearance
    to the finite components over a fixed grid.  Torus: the two straight
    generators through a basepoint chosen to maximize the loops' clearance
    to all pole translates.  Components must be distinct (modulo the
    lattice on the torus).
    """
    comps = tuple(model.coerce_point(p) for p in components)
    for j, p in enumerate(comps):
        if any(model.same_point(p, q) for q in comps[:j]):
            raise GardenError(f"duplicate component {model.point_name(p)}")
    sites = model.pole_sites(comps)
    if basepoint is None:
        basepoint = _auto_basepoint(model, sites)
    basepoint = complex(basepoint)
    loop_basis = tuple(loops) if loops else _default_loops(model, basepoint)
    garden = Garden(model, comps, loop_basis, basepoint)

    clearance = _clearance_of_loops(garden.loop_basis, sites)
    if clearance < HARD_POLE_MARGIN:
        raise GardenError(
            f"loop basis clears the components by only {clearance:.2e} "
            f"(margin {HARD_POLE_MARGIN})"
        )
    if any(abs(garden.basepoint - p) < HARD_POLE_MARGIN for p in sites):
        raise GardenError("basepoint sits within the pole margin of a component")
    if len(garden.loop_basis) != model.b1:
        raise GardenError(
            f"loop basis has {len(garden.loop_basis)} loops, first Betti number is {model.b1}"
        )
    return garden


def _default_loops(model: Model, basepoint: complex) -> Tuple[Path, ...]:
    return tuple(segment_loop(basepoint, offset) for offset in model.loop_offsets)


def _auto_basepoint(model: Model, sites: Sequence[complex]) -> complex:
    """The grid candidate whose default loops, or with none the point
    itself, clear the pole sites best; the first wins ties."""
    candidates = model.basepoint_grid()
    z = np.array(candidates)[:, None]
    p = np.array(sites, dtype=complex)[None, :]
    if model.loop_offsets:
        dists = [_segment_distances(z, z + offset, p) for offset in model.loop_offsets]
    else:
        dists = [np.hypot((z - p).real, (z - p).imag)]
    scores = np.min(dists, axis=(0, 2), initial=math.inf)
    best_val, best = -math.inf, candidates[0]
    for z, v in zip(candidates, scores.tolist()):
        if v > best_val + 1e-15:
            best_val, best = v, z
    return best


# -- period vectors ------------------------------------------------------------


def _check_form_in_garden(form: Form, garden: Garden) -> None:
    model = garden.model
    for p, _ in model.poles(form):
        if not any(model.same_point(p, q) for q in garden.components):
            raise GardenError(
                f"form has a pole at {model.point_name(p)}, "
                "not among the garden components"
            )


def long_period_vector(form: Form, garden: Garden) -> List[complex]:
    """Integrals of the form over the garden's loop basis (empty on the sphere)."""
    return stacked_period_vectors([form], garden, shorts=False)[0][0]


def small_circle_radius(garden: Garden, index: int) -> float:
    """Half the distance from a component to every other pole site (and, on
    the torus, to its own nearest lattice translate)."""
    return garden.model.circle_radius(garden.components, index)


def _component_circle(garden: Garden, index: int) -> Tuple[Path, bool]:
    """Small counterclockwise circle around a component; the flag marks the
    infinity component (whose circle lives in the w = 1/z chart)."""
    center = garden.model.point_value(garden.components[index])
    r = small_circle_radius(garden, index)
    if center is None:
        return circle(0j, r), True
    return circle(center, r), False


def short_period_vector(form: Form, garden: Garden) -> List[complex]:
    """d_j = integral over a small circle around each component.

    Computed by quadrature and cross-checked against 2 pi i times the exact
    residue; disagreement beyond 1e-9 raises QuadratureError.
    """
    return period_vectors(form, garden)[1]


def period_vectors(form: Form, garden: Garden) -> Tuple[List[complex], List[complex]]:
    return stacked_period_vectors([form], garden)[0]


def stacked_period_vectors(
    forms: Sequence[Form], garden: Garden, shorts: bool = True
) -> List[Tuple[List[complex], List[complex]]]:
    """(long, short) period vectors of each form, from one lockstep batch
    (`contour_integrals`) for all the forms on the loops and finite small
    circles, and one in the w = 1/z chart for the circle around infinity.

    Every form is checked to have its poles in the garden first.  Then the
    values are read in the order of one-form calls, so errors come in that
    order too: form by form, long periods before short, and for each
    component the quadrature before the 2 pi i x residue cross-check.
    """
    if not forms:
        return []
    model = garden.model
    stack = FormStack(model, tuple(forms))
    for form in stack.forms:
        _check_form_in_garden(form, garden)

    def chart(w):  # the circle around infinity lies in the w = 1/z chart: f(z) dz = -f(1/w) / w^2 dw
        return -stack.eval_complex(1.0 / w) / w**2

    jobs = [(stack, loop) for loop in garden.loop_basis]
    n_long = len(jobs)
    if shorts:
        for j in range(len(garden.components)):
            loop, at_infinity = _component_circle(garden, j)
            jobs.append((chart if at_infinity else stack, loop))
    done: list = [None] * len(jobs)  # per job: its rows, or the error its integrand raised
    for integrand in (stack, chart):
        batch = [k for k, job in enumerate(jobs) if job[0] is integrand]
        if batch:
            for k, outcome in zip(batch, contour_integrals(integrand, [jobs[k][1] for k in batch])):
                done[k] = outcome.rows if isinstance(outcome, QuadratureError) else outcome

    def value(job: int, row: int) -> complex:
        if isinstance(done[job], Exception):
            raise done[job]
        outcome = done[job][row]
        if isinstance(outcome, QuadratureError):
            raise outcome
        return outcome

    out = []
    for i, form in enumerate(stack.forms):
        long_i = [value(j, i) for j in range(n_long)]
        short_i = []
        for j, comp in enumerate(garden.components if shorts else ()):
            expected = short_period_from_residue(model.residue(form, comp))
            quad = value(n_long + j, i)
            if abs(quad - expected) > RESIDUE_AGREE_TOL:
                raise QuadratureError(
                    f"small-circle integral {quad} disagrees with 2 pi i x residue "
                    f"{expected} at component {model.point_name(comp)}"
                )
            short_i.append(expected if model.exact_residues else quad)
        out.append((long_i, short_i))
    return out


def well_defined_residue_check(form: Form, garden: Garden, component_index: int, circle1: Path, circle2: Path) -> bool:
    """Two admissible circles around one component give equal integrals.

    Each circle must enclose that pole and no other; violating the
    precondition raises GardenError.
    """
    center = garden.model.point_value(garden.components[component_index])
    for c in (circle1, circle2):
        piece = c.pieces[0]
        if piece.kind != "arc":
            raise GardenError("residue-check paths must be circles")
        inside = []
        for p in garden.pole_sites():
            if abs(p - piece.a) < piece.radius - 1e-12:
                inside.append(p)
        if len(inside) != 1 or not garden.model.same_point(inside[0], center):
            raise GardenError(
                f"circle around {piece.a} encloses {len(inside)} pole site(s); "
                "need exactly the checked component"
            )
    v1 = contour_integral(form, circle1)
    v2 = contour_integral(form, circle2)
    return abs(v1 - v2) < RESIDUE_AGREE_TOL


def is_exact(form: Form, garden: Garden) -> bool:
    """True iff all long and short periods vanish numerically; on the sphere
    additionally verified against the symbolic criterion (all residues zero)."""
    tol = period_tolerance()
    longs, shorts = period_vectors(form, garden)
    numeric = all(abs(v) < tol for v in longs) and all(abs(v) < tol for v in shorts)
    symbolic = garden.model.symbolic_exactness(form)
    if symbolic is not None and symbolic != numeric:
        raise QuadratureError(
            "symbolic and numeric exactness criteria disagree "
            f"(symbolic={symbolic}, numeric={numeric})"
        )
    return numeric


def prescribe_full(
    target_long: Sequence[complex],
    target_residues: CDivisor,
    garden: Garden,
) -> Form:
    """Form with the given long period vector and residue divisor.

    Sphere: the long targets are vacuous (m = 0).  Torus: a zeta-combination
    carries the residues, then alpha dz + beta wp(z - p1) dz matches the two
    long periods; the system's determinant is the Legendre constant 2 pi i,
    so it never degenerates.
    """
    if len(target_long) != garden.model.b1:
        raise PrescriptionError(
            f"expected {garden.model.b1} long-period targets, got {len(target_long)}"
        )
    try:
        base = prescribe_residues(garden.model, target_residues)
    except (ValueError, ModelError) as e:
        raise PrescriptionError(str(e)) from None
    tol = period_tolerance()
    try:
        return garden.model.fit_long_periods(
            base, target_long, garden.components, long_period_vector(base, garden), tol
        )
    except ModelError as e:
        raise PrescriptionError(str(e)) from None


# -- garden text format ---------------------------------------------------------


_GARDEN_LINES = {
    "model": "model sphere|torus",
    "tau": "tau = <complex>",
    "cutoff": "cutoff = <N>",
    "component": "component <point>",
    "basepoint": "basepoint <complex>",
    "loop": "loop circle|polyline <spec>",
}


def parse_garden_text(text: str) -> Garden:
    """Garden file:

        model sphere | model torus
        tau = a + b i            (torus)
        cutoff = N               (torus, optional)
        component <point>        (one line per component, ordered)
        basepoint <complex>      (optional; auto-chosen when absent)
        loop circle <center> ; <radius>          (optional overrides)
        loop polyline <z0> ; <z1> ; ... ; <zn>

    Loops are auto-generated when no override is given; a polyline loop may
    close up to a lattice vector on the torus.
    """
    model_tag = None
    tau = None
    cutoff = DEFAULT_CUTOFF
    components: List[Tuple[int, str]] = []
    basepoint = None
    loop_specs: List[Tuple[int, str, str]] = []
    for lineno, body in _lines(text):
        with _at_line(lineno, GardenError):
            word, [arg] = _directive(body, _GARDEN_LINES)
            if word == "model":
                model_tag = arg
            elif word == "tau":
                tau = parse_exact(arg).to_complex()
            elif word == "cutoff":
                cutoff = int(arg)
            elif word == "component":
                components.append((lineno, arg))
            elif word == "basepoint":
                basepoint = parse_exact(arg).to_complex()
            else:
                kind, *rest = arg.split(None, 1)
                loop_specs.append((lineno, kind, rest[0] if rest else ""))
    if model_tag is None:
        raise GardenError("garden file needs a `model sphere|torus` line")
    try:
        model = make_model(model_tag, tau, cutoff)
    except ModelError as e:
        raise GardenError(str(e)) from None
    points, loops = [], []
    for lineno, c in components:
        with _at_line(lineno, GardenError):
            points.append(model.parse_point(c))
    for lineno, kind, rest in loop_specs:
        with _at_line(lineno, GardenError):
            loops.append(_parse_loop_spec(kind, rest, model))
    return make_garden(model, points, basepoint=basepoint, loops=loops or None)


def _parse_loop_spec(kind: str, rest: str, model: Model) -> Path:
    parts = [p.strip() for p in rest.split(";") if p.strip()]
    if kind == "circle":
        if len(parts) != 2:
            raise GardenError("loop circle needs `center ; radius`")
        return circle(parse_exact(parts[0]).to_complex(), float(parts[1]))
    if kind == "polyline":
        if len(parts) < 2:
            raise GardenError("loop polyline needs at least two points")
        pts = [parse_exact(p).to_complex() for p in parts]
        offset = pts[-1] - pts[0]
        if abs(offset) < 1e-12:
            offset = 0j
        elif not model.loop_offsets:
            raise GardenError(f"{model.tag} loops must close exactly")
        return Path([line(a, b) for a, b in zip(pts, pts[1:])], offset=offset)
    raise GardenError(f"unknown loop kind {kind!r}")


def format_garden_text(garden: Garden) -> str:
    lines = garden.model.header_lines()
    lines += [f"component {name}" for name in garden.component_names]
    lines.append(f"basepoint {format_complex(garden.basepoint)}")
    return "\n".join(lines) + "\n"


def normalize_pure_imaginary(form: Form, garden: Garden) -> Form:
    """Add mu dz so both long periods become purely imaginary (torus only;
    on the sphere there are no long periods and the form returns unchanged)."""
    return garden.model.normalize_pure_imaginary(form, long_period_vector(form, garden))
