"""Transition data, integer Chern 2-cocycles, and residue feasibility.

Two ways to feed the machinery:

* concrete mode: a divisor component on the built-in 4-set cover of the
  sphere, with transition functions g_ij = f_i/f_j formed from local
  defining functions, each stored as the exponents of its linear factors.
  The integer cocycle entries come from branch-fixed logarithms: principal
  log at each edge base point, continued along a declared path to the
  triangle's common point by integrating g'/g = sum m/(z - a).
* abstract mode: explicit integers per 2-simplex on any nerve (checked to
  be a cocycle), for synthetic geometries.

Summing component cocycles against divisor coefficients and reducing in
H^2 of the nerve gives the obstruction class; its vanishing plus the
Hodge-data equality test decides feasible / infeasible / inconclusive.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .cech import (
    Cochain,
    CohomologySpace,
    Nerve,
    coboundary,
    standard_good_nerves,
)
from .divisor import CDivisor
from .exact import ExactComplex, ZERO, _at_line, _lines
from .periods import Path, arc, fixed_contour_integral, line
from .sphere import SpherePoint, parse_sphere_point

TWO_PI = 2.0 * math.pi
WINDING_RESIDUAL_TOL = 0.25
DEFAULT_WINDING_NODES = 64
PATH_CLEARANCE = 0.02


class TransitionError(ValueError):
    pass


Edge = Tuple[int, int]
Tri = Tuple[int, int, int]
# a product of linear factors prod (z - a)^m as {a: m}, every m nonzero;
# {} is the constant 1
Factored = Mapping[ExactComplex, int]


@dataclass(frozen=True)
class ConcreteTransitions:
    """Edge transition functions with branch-continuation data.

    For every edge (i, j): the transition function g_ij as the exponents of
    its linear factors, and a base point a_ij in the double overlap.  For
    every triangle containing the edge: a path from a_ij to the triangle's
    common evaluation point, staying inside the double overlap.
    """

    g: Mapping[Edge, Factored]
    base_points: Mapping[Edge, complex]
    paths: Mapping[Tuple[Edge, Tri], Path]


@dataclass(frozen=True)
class TransitionData:
    nerve: Nerve
    component: str
    abstract_values: Optional[Mapping[Tri, int]] = None
    concrete: Optional[ConcreteTransitions] = None

    def __post_init__(self):
        if (self.abstract_values is None) == (self.concrete is None):
            raise TransitionError("exactly one of abstract/concrete data required")

    @property
    def mode(self) -> str:
        return "abstract" if self.abstract_values is not None else "concrete"


def _validate_abstract(data: TransitionData) -> Cochain:
    values = {
        tuple(tri): ExactComplex(int(n)) for tri, n in data.abstract_values.items()
    }
    cochain = Cochain(2, values)
    cochain.attach_check(data.nerve)
    d = coboundary(data.nerve, cochain)
    if not d.is_zero():
        raise TransitionError(
            "abstract winding integers fail the cocycle condition on "
            f"{sorted(d.values)[0]}"
        )
    return cochain


def _quotient(f: Factored, g: Factored) -> Dict[ExactComplex, int]:
    """f / g: exponents subtract, and factors whose exponent cancels drop."""
    out = dict(f)
    for a, m in g.items():
        out[a] = out.get(a, 0) - m
    return {a: m for a, m in out.items() if m}


def _continued_log(g: Factored, base: complex, path: Optional[Path], nodes: int) -> complex:
    """log g at the path's endpoint, principal branch at the base point and
    analytic continuation along the path."""
    factors = [(a.to_complex(), m) for a, m in g.items()]
    start = cmath.log(math.prod((base - a) ** m for a, m in factors))
    if path is None:
        return start
    return start + fixed_contour_integral(
        lambda z: sum(m / (z - a) for a, m in factors), path, nodes
    )


def _concrete_cocycle(data: TransitionData, nodes: int) -> Cochain:
    conc = data.concrete
    values: Dict[Tri, ExactComplex] = {}
    for tri in data.nerve.k_simplices(2):
        i, j, k = tri
        total = 0j
        for edge, sign in (((i, j), 1), ((i, k), -1), ((j, k), 1)):
            g = conc.g[edge]
            base = conc.base_points[edge]
            path = conc.paths.get((edge, tri))
            total += sign * _continued_log(g, base, path, nodes)
        n = total / (2j * math.pi)
        rounded = round(n.real)
        residual = max(abs(n.real - rounded), abs(n.imag))
        if residual > WINDING_RESIDUAL_TOL:
            raise TransitionError(
                f"winding residual {residual:.3f} on triangle {tri} exceeds "
                f"{WINDING_RESIDUAL_TOL}; quadrature or path data inadequate"
            )
        if rounded:
            values[tri] = ExactComplex(rounded)
    cochain = Cochain(2, values)
    d = coboundary(data.nerve, cochain)
    if not d.is_zero():
        raise TransitionError("concrete winding integers fail the cocycle condition")
    return cochain


def chern_cocycle(data: TransitionData, nodes: int = DEFAULT_WINDING_NODES) -> Cochain:
    """Integer 2-cocycle of the component's line bundle on the nerve."""
    if data.mode == "abstract":
        return _validate_abstract(data)
    return _concrete_cocycle(data, nodes)


@dataclass(frozen=True)
class ObstructionClass:
    """A 2-cocycle with its exact coordinates in a basis of H^2(nerve)."""

    cocycle: Cochain
    coordinates: Tuple[ExactComplex, ...]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coordinates)


def _h2_space(nerve: Nerve) -> CohomologySpace:
    space = getattr(nerve, "_h2_space", None)
    if space is None:
        space = CohomologySpace(nerve, 2)
        object.__setattr__(nerve, "_h2_space", space)
    return space


def double_delta(
    divisor: CDivisor,
    transitions: Sequence[TransitionData],
    nodes: int = DEFAULT_WINDING_NODES,
) -> ObstructionClass:
    """Obstruction class of the divisor: sum a_i [chern cocycle of W_i]."""
    if len(transitions) != len(divisor):
        raise TransitionError("one transition datum per divisor component required")
    nerve = transitions[0].nerve if transitions else None
    by_name = {t.component: t for t in transitions}
    if len(by_name) != len(transitions):
        raise TransitionError("duplicate component in transition data")
    total: Optional[Cochain] = None
    for name, coeff in zip(divisor.components, divisor.coefficients):
        data = by_name.get(name)
        if data is None:
            raise TransitionError(f"no transition data for component {name!r}")
        if data.nerve.simplices != nerve.simplices:
            raise TransitionError("transition data live on different nerves")
        piece = chern_cocycle(data, nodes).scale(coeff)
        total = piece if total is None else total + piece
    if total is None:
        total = Cochain(2, {})
        if nerve is None:
            return ObstructionClass(total, ())
    coords = _h2_space(nerve).coordinates(total)
    return ObstructionClass(total, tuple(coords))


class Verdict(enum.Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HodgeRecord:
    """Cohomology dimension bookkeeping: (b1, dim H^0(d O), dim H^1(O), b2).

    Records violating b1 <= d_omega0 + h01 cannot arise from a compact
    complex manifold, but they are representable so the equality test can
    report False on them.
    """

    b1: int
    d_omega0: int
    h01: int
    h2_betti: int = 0

    def __post_init__(self):
        for name in ("b1", "d_omega0", "h01", "h2_betti"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")


def has_property_h(record: HodgeRecord) -> bool:
    """Equality of b1 with dim H^0(d O) + dim H^1(O)."""
    return record.b1 == record.d_omega0 + record.h01


@dataclass(frozen=True)
class FeasibilityResult:
    verdict: Verdict
    obstruction: ObstructionClass

    @property
    def exit_code(self) -> int:
        return {Verdict.FEASIBLE: 0, Verdict.INFEASIBLE: 1, Verdict.INCONCLUSIVE: 3}[
            self.verdict
        ]


def residue_feasible(
    divisor: CDivisor,
    transitions: Sequence[TransitionData],
    hodge: HodgeRecord,
    nodes: int = DEFAULT_WINDING_NODES,
) -> FeasibilityResult:
    """Decide whether the divisor can be the residue divisor of a closed
    logarithmic 1-form.

    Nonzero obstruction class: infeasible on any manifold.  Zero class with
    the Hodge equality: feasible.  Zero class without it: inconclusive (the
    holomorphic invariant that decides is not computable from nerve data).
    """
    cls = double_delta(divisor, transitions, nodes)
    if not cls.is_zero():
        return FeasibilityResult(Verdict.INFEASIBLE, cls)
    if has_property_h(hodge):
        return FeasibilityResult(Verdict.FEASIBLE, cls)
    return FeasibilityResult(Verdict.INCONCLUSIVE, cls)


def kernel_dimension(
    transitions: Sequence[TransitionData], nodes: int = DEFAULT_WINDING_NODES
) -> int:
    """dim { a : sum a_i [c_1(W_i)] = 0 in H^2 }, by exact rank."""
    if not transitions:
        return 0
    nerve = transitions[0].nerve
    space = _h2_space(nerve)
    columns = []
    for data in transitions:
        if data.nerve.simplices != nerve.simplices:
            raise TransitionError("transition data live on different nerves")
        columns.append(space.coordinates(chern_cocycle(data, nodes)))
    if not columns[0]:
        return len(transitions)
    rows = linalg.transpose(columns)
    return len(transitions) - linalg.rank(rows)


# -- the built-in concrete cover of the sphere -------------------------------
#
# U0 is the annulus cap {|z| > 1} plus infinity; U1, U2, U3 are keyhole
# sectors (radius < 1.2, 160 degrees wide, centers at 0, 120, 240 degrees)
# joined to the disk {|z| < 0.3}.  All pairwise and triple intersections are
# nonempty and contractible, the quadruple one is empty, so the nerve is the
# tetrahedron boundary.  The sector labels wind clockwise in the plane; with
# the paper's g_ij = f_i/f_j convention this makes a point divisor pair to +1
# against the canonical fundamental 2-cycle.

_SECTOR_ANGLE = {1: 0.0, 2: -TWO_PI / 3.0, 3: -2.0 * TWO_PI / 3.0}
_SECTOR_HALF_WIDTH = math.radians(80.0)
_BAND_ANGLE = {
    (1, 2): -TWO_PI / 6.0,
    (2, 3): -math.pi,
    (1, 3): TWO_PI / 6.0,
}
_CAP_RADIUS = 1.0
_SECTOR_RADIUS = 1.2
_CENTER_DISK = 0.3
_EDGE_BASE_RADIUS_BAND = 0.6
_EDGE_BASE_RADIUS_CAP = 1.1
_ARC_RADIUS = 1.075
_TRIPLE_RADIUS_CAP = 1.05


def _polar(r: float, theta: float) -> complex:
    return complex(r * math.cos(theta), r * math.sin(theta))


def _angle_dist(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _short_arc(radius: float, from_angle: float, to_angle: float) -> Path:
    delta = (to_angle - from_angle + math.pi) % TWO_PI - math.pi
    return Path([arc(0j, radius, from_angle, from_angle + delta)])


def sphere_cover_membership(point: SpherePoint, index: int) -> bool:
    """Whether a point of P^1 lies in cover set U_index."""
    if point.is_infinity:
        return index == 0
    z = point.to_complex()
    if index == 0:
        return abs(z) > _CAP_RADIUS
    if abs(z) < _CENTER_DISK:
        return True
    return (
        abs(z) < _SECTOR_RADIUS
        and _angle_dist(cmath.phase(z), _SECTOR_ANGLE[index]) < _SECTOR_HALF_WIDTH
    )


def _defining_functions(point: SpherePoint) -> Dict[int, Factored]:
    """Local defining functions f_i of the point divisor on each U_i."""
    fs: Dict[int, Factored] = {}
    for i in range(4):
        if not sphere_cover_membership(point, i):
            fs[i] = {}
        elif point.is_infinity:
            fs[i] = {ZERO: -1}  # 1/z, i == 0
        elif i == 0:
            # (z - p)/z: holomorphic and nonvanishing at infinity, pole at
            # 0 which lies outside U0
            fs[i] = {point.value: 1, ZERO: -1}
        else:
            fs[i] = {point.value: 1}
    return fs


def _cover_paths() -> Tuple[Dict[Edge, complex], Dict[Tuple[Edge, Tri], Path]]:
    base: Dict[Edge, complex] = {}
    paths: Dict[Tuple[Edge, Tri], Path] = {}
    for k, theta in _SECTOR_ANGLE.items():
        base[(0, k)] = _polar(_EDGE_BASE_RADIUS_CAP, theta)
    for (j, k), beta in _BAND_ANGLE.items():
        base[(j, k)] = _polar(_EDGE_BASE_RADIUS_BAND, beta)
    # sector-sector edges: radial spokes to the center and out to the cap
    for (j, k), beta in _BAND_ANGLE.items():
        a = base[(j, k)]
        paths[((j, k), (1, 2, 3))] = Path([line(a, 0j)])
        paths[((j, k), tuple(sorted((0, j, k))))] = Path(
            [line(a, _polar(_TRIPLE_RADIUS_CAP, beta))]
        )
    # cap-sector edges: radial nudge, arc inside the annulus, radial landing
    for k, theta in _SECTOR_ANGLE.items():
        a = base[(0, k)]
        for (j1, j2), beta in _BAND_ANGLE.items():
            if k not in (j1, j2):
                continue
            tri = tuple(sorted((0, j1, j2)))
            mid = _polar(_ARC_RADIUS, theta)
            swing = _short_arc(_ARC_RADIUS, theta, beta)
            land = _polar(_ARC_RADIUS, beta)
            pieces = [line(a, mid)] + list(swing.pieces) + [
                line(land, _polar(_TRIPLE_RADIUS_CAP, beta))
            ]
            paths[((0, k), tri)] = Path(pieces)
    return base, paths


def sphere_point_transitions(point, component: Optional[str] = None) -> TransitionData:
    """Concrete transition data for a point divisor on the built-in cover.

    The point must keep clearance 0.02 from the continuation paths that its
    transition functions actually live on (generic points do; points on the
    three band spokes or within 0.02 of the origin are rejected).
    """
    point = SpherePoint.coerce(point)
    nerve = standard_good_nerves("sphere")
    fs = _defining_functions(point)
    base, paths = _cover_paths()
    g = {(i, j): _quotient(fs[i], fs[j]) for (i, j) in nerve.k_simplices(1)}
    # cocycle condition g_ij g_jk / g_ik = 1, checked exactly
    for tri in nerve.k_simplices(2):
        i, j, k = tri
        if _quotient(g[(i, j)], _quotient(g[(i, k)], g[(j, k)])):
            raise TransitionError(f"transition cocycle fails on triangle {tri}")
    for (edge, tri), path in paths.items():
        for a in g[edge]:
            s = a.to_complex()
            if path.min_distance(s) < PATH_CLEARANCE or abs(base[edge] - s) < PATH_CLEARANCE:
                raise TransitionError(
                    f"divisor point too close to the continuation path of edge {edge}; "
                    "move it off the band spokes"
                )
    name = component if component is not None else str(point)
    return TransitionData(
        nerve,
        name,
        concrete=ConcreteTransitions(g, base, paths),
    )


def sphere_divisor_transitions(divisor: CDivisor) -> List[TransitionData]:
    """One concrete transition datum per divisor component (names parse as
    sphere points)."""
    return [
        sphere_point_transitions(parse_sphere_point(name), component=name)
        for name in divisor.components
    ]


# -- text formats --------------------------------------------------------------


def parse_hodge_text(text: str) -> HodgeRecord:
    """Lines `b1 = n`, `d_omega0 = n`, `h01 = n`, optional `h2 = n`."""
    fields = {"h2": 0}
    for lineno, body in _lines(text):
        with _at_line(lineno, ValueError):
            if "=" not in body:
                raise ValueError("expected `key = value`")
            key, val = (p.strip() for p in body.split("=", 1))
            if key not in ("b1", "d_omega0", "h01", "h2"):
                raise ValueError(f"unknown key {key!r}")
            fields[key] = int(val)
    for key in ("b1", "d_omega0", "h01"):
        if key not in fields:
            raise ValueError(f"missing `{key} = n` line")
    return HodgeRecord(fields["b1"], fields["d_omega0"], fields["h01"], fields["h2"])


_MODE_ALIASES = {"abstract": "abstract", "sphere-point": "sphere-point", "concrete": "sphere-point"}


def parse_transition_text(
    text: str, nerve: Optional[Nerve] = None, mode: Optional[str] = None
) -> List[TransitionData]:
    """Transition file.

    `mode abstract` (requires a nerve): `component NAME` headers followed by
    `i,j,k : n` integer lines.  `mode sphere-point` (alias `concrete`):
    `component NAME : point` lines expanded on the built-in sphere cover.
    A mode passed as an argument must agree with any in-file header.
    """
    forced = None
    if mode is not None:
        forced = _MODE_ALIASES.get(mode)
        if forced is None:
            raise TransitionError(f"unknown mode {mode!r}")
    mode = forced
    out: List[TransitionData] = []
    current_name: Optional[str] = None
    current_values: Dict[Tri, int] = {}

    def flush():
        nonlocal current_name, current_values
        if current_name is not None:
            out.append(
                TransitionData(nerve, current_name, abstract_values=dict(current_values))
            )
        current_name, current_values = None, {}

    for lineno, body in _lines(text):
        with _at_line(lineno, TransitionError):
            lowered = body.lower()
            if lowered.startswith("mode"):
                header = lowered.split(None, 1)[1].strip() if len(lowered.split()) > 1 else ""
                header = _MODE_ALIASES.get(header)
                if header is None:
                    raise TransitionError("unknown mode")
                if forced is not None and header != forced:
                    raise TransitionError(f"file mode {header!r} contradicts requested mode")
                mode = header
                continue
            if mode is None:
                raise TransitionError("`mode ...` header required first")
            if mode == "sphere-point":
                if not body.startswith("component") or ":" not in body:
                    raise TransitionError("expected `component NAME : point`")
                head, val = body.split(":", 1)
                name = head[len("component"):].strip()
                point = parse_sphere_point(val)
                out.append(sphere_point_transitions(point, component=name or str(point)))
                continue
            # abstract
            if body.startswith("component"):
                flush()
                current_name = body[len("component"):].strip()
                if not current_name:
                    raise TransitionError("component needs a name")
                continue
            if current_name is None:
                raise TransitionError("`component NAME` header required")
            if ":" not in body:
                raise TransitionError("expected `i,j,k : n`")
            key, val = body.split(":", 1)
            try:
                tri = tuple(int(p.strip()) for p in key.split(","))
                current_values[tri] = int(val.strip())
            except ValueError:
                raise TransitionError(f"cannot parse {body!r}") from None
    if mode == "abstract":
        if nerve is None:
            raise TransitionError("abstract transition data needs a nerve")
        flush()
    return out
