"""Finite good-cover nerves and their Cech complexes with Q(i) coefficients.

A nerve records the combinatorics of a finite good cover: one vertex per
cover set, one k-simplex per nonempty (k+1)-fold intersection.  Simplices
are stored as strictly ascending vertex tuples up to dimension 3, which is
enough to compute H^0..H^2 exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import linalg
from .exact import ExactComplex, ONE, ZERO, _at_line, _lines

Simplex = Tuple[int, ...]

MAX_SIMPLEX_DIM = 3


class NerveError(ValueError):
    pass


class CochainError(ValueError):
    pass


@dataclass(frozen=True)
class Nerve:
    """Abstract simplicial complex of a finite cover, dimension <= 3.

    `simplices[k]` is the lexicographically sorted tuple of all k-simplices;
    downward closure and ascending vertex order are guaranteed by
    `validate_nerve`.
    """

    vertex_count: int
    simplices: Tuple[Tuple[Simplex, ...], ...]

    def k_simplices(self, k: int) -> Tuple[Simplex, ...]:
        if 0 <= k < len(self.simplices):
            return self.simplices[k]
        return ()

    @property
    def dimension(self) -> int:
        for k in range(len(self.simplices) - 1, -1, -1):
            if self.simplices[k]:
                return k
        return -1

    def has_simplex(self, simplex: Simplex) -> bool:
        k = len(simplex) - 1
        return 0 <= k < len(self.simplices) and simplex in _index_tables(self)[k]


def _index_tables(nerve: Nerve) -> List[Dict[Simplex, int]]:
    tables = getattr(nerve, "_tables", None)
    if tables is None:
        tables = [{s: i for i, s in enumerate(level)} for level in nerve.simplices]
        object.__setattr__(nerve, "_tables", tables)
    return tables


def _faces(simplex: Simplex) -> Iterable[Simplex]:
    for i in range(len(simplex)):
        yield simplex[:i] + simplex[i + 1:]


def validate_nerve(
    raw_simplices: Iterable[Sequence[int]],
    vertex_count: Optional[int] = None,
    maximal: bool = False,
) -> Nerve:
    """Build a Nerve from raw simplex lists.

    With `maximal=True` the downward closure is completed automatically;
    otherwise a missing face is an error.  Tuples must be strictly
    ascending and within the vertex range.
    """
    seen: set[Simplex] = set()
    for raw in raw_simplices:
        t = tuple(int(v) for v in raw)
        if len(t) == 0:
            raise NerveError("empty simplex")
        if len(t) > MAX_SIMPLEX_DIM + 1:
            raise NerveError(f"simplex {t} exceeds maximum dimension {MAX_SIMPLEX_DIM}")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise NerveError(f"simplex {t} is not strictly ascending")
        if any(v < 0 for v in t):
            raise NerveError(f"negative vertex index in {t}")
        seen.add(t)
    if not seen and vertex_count is None:
        raise NerveError("no simplices given and no vertex count")

    max_vertex = max((t[-1] for t in seen), default=-1)
    if vertex_count is None:
        vertex_count = max_vertex + 1
    elif max_vertex >= vertex_count:
        raise NerveError(f"vertex index {max_vertex} out of range (count {vertex_count})")

    if maximal:
        closed = set(seen)
        for t in seen:
            for k in range(1, len(t)):
                closed.update(itertools.combinations(t, k))
        seen = closed
    else:
        # vertices are always implied, so only faces of dimension >= 1 count
        for t in seen:
            for f in _faces(t):
                if len(f) >= 2 and f not in seen:
                    raise NerveError(
                        f"missing face {f} of {t}; pass maximal=True to auto-close"
                    )

    for v in range(vertex_count):
        seen.add((v,))

    levels: List[List[Simplex]] = [[] for _ in range(MAX_SIMPLEX_DIM + 1)]
    for t in seen:
        levels[len(t) - 1].append(t)
    for level in levels:
        level.sort()

    return Nerve(vertex_count, tuple(tuple(level) for level in levels))


@dataclass(frozen=True)
class Cochain:
    """k-cochain: map from k-simplices to Q(i), missing entries are zero."""

    degree: int
    values: Dict[Simplex, ExactComplex] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for s, v in self.values.items():
            v = ExactComplex.coerce(v)
            if len(s) != self.degree + 1:
                raise CochainError(f"key {s} has wrong length for degree {self.degree}")
            if not v.is_zero():
                clean[tuple(s)] = v
        object.__setattr__(self, "values", clean)

    def __getitem__(self, simplex: Simplex) -> ExactComplex:
        return self.values.get(tuple(simplex), ZERO)

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise CochainError("degree mismatch in cochain sum")
        vals = dict(self.values)
        for s, v in other.values.items():
            vals[s] = vals.get(s, ZERO) + v
        return Cochain(self.degree, vals)

    def scale(self, a) -> "Cochain":
        a = ExactComplex.coerce(a)
        return Cochain(self.degree, {s: a * v for s, v in self.values.items()})

    def attach_check(self, nerve: Nerve) -> None:
        for s in self.values:
            if not nerve.has_simplex(s):
                raise CochainError(f"cochain keyed on {s}, absent from nerve")


def coboundary(nerve: Nerve, cochain: Cochain) -> Cochain:
    """Alternating-sum coboundary: (d sigma)_{i1..ik+2} = sum_s (-1)^(s-1) sigma_{..drop s..}."""
    k = cochain.degree
    if k > MAX_SIMPLEX_DIM - 1:
        raise CochainError(f"coboundary undefined at degree {k}")
    cochain.attach_check(nerve)
    out: Dict[Simplex, ExactComplex] = {}
    for simplex in nerve.k_simplices(k + 1):
        total = ZERO
        for s, face in enumerate(_faces(simplex), start=1):
            val = cochain[face]
            if val.is_zero():
                continue
            total = total + val if s % 2 == 1 else total - val
        if not total.is_zero():
            out[simplex] = total
    return Cochain(k + 1, out)


def coboundary_matrix(nerve: Nerve, k: int) -> List[List[ExactComplex]]:
    """Matrix of d^k : C^k -> C^(k+1) in the sorted simplex bases."""
    rows = []
    lower = {s: i for i, s in enumerate(nerve.k_simplices(k))}
    for simplex in nerve.k_simplices(k + 1):
        row = [ZERO] * len(lower)
        for s, face in enumerate(_faces(simplex), start=1):
            row[lower[face]] = ONE if s % 2 == 1 else -ONE
        rows.append(row)
    return rows


def cohomology_dims(nerve: Nerve, max_degree: int) -> List[int]:
    """Exact Betti numbers h^0..h^max of the nerve over Q(i) <= C."""
    if max_degree > 2:
        raise NerveError("cohomology supported up to degree 2")
    dims = []
    prev_rank = 0
    for k in range(max_degree + 1):
        n_k = len(nerve.k_simplices(k))
        mat = coboundary_matrix(nerve, k)
        rank_k = linalg.rank(mat) if mat and nerve.k_simplices(k + 1) else 0
        dims.append(n_k - rank_k - prev_rank)
        prev_rank = rank_k
    return dims


def standard_good_nerves(model_tag: str) -> Nerve:
    """Built-in good-cover nerves: `sphere` (tetrahedron boundary) or `torus`
    (3x3 toroidal grid, 9 vertices / 27 edges / 18 triangles)."""
    if model_tag == "sphere":
        return validate_nerve([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], maximal=True)
    if model_tag == "torus":
        tris = []
        for r in range(3):
            for c in range(3):
                a = 3 * r + c
                right = 3 * r + (c + 1) % 3
                down = 3 * ((r + 1) % 3) + c
                diag = 3 * ((r + 1) % 3) + (c + 1) % 3
                tris.append(tuple(sorted((a, right, down))))
                tris.append(tuple(sorted((right, down, diag))))
        return validate_nerve(tris, maximal=True)
    raise NerveError(f"unknown model tag {model_tag!r}")


def fundamental_two_cycle(nerve: Nerve) -> Dict[Simplex, ExactComplex]:
    """Generator of the 1-dimensional kernel of the boundary map on 2-chains.

    Normalized so its first (lexicographic) nonzero entry is +1.  Raises if
    the kernel dimension is not exactly 1.
    """
    tris = nerve.k_simplices(2)
    if not tris:
        raise NerveError("nerve has no 2-simplices")
    boundary = linalg.transpose(coboundary_matrix(nerve, 1))
    kernel = linalg.nullspace(boundary, n_cols=len(tris))
    if len(kernel) != 1:
        raise NerveError(f"H_2 kernel has dimension {len(kernel)}, expected 1")
    vec = kernel[0]
    lead = next(v for v in vec if not v.is_zero())
    scale = ONE / lead
    return {t: v * scale for t, v in zip(tris, vec) if not v.is_zero()}


def pair_with_cycle(cochain: Cochain, cycle: Dict[Simplex, ExactComplex]) -> ExactComplex:
    total = ZERO
    for s, c in cycle.items():
        total = total + c * cochain[s]
    return total


class CohomologySpace:
    """H^k of a nerve with an explicit basis and exact coordinate reduction.

    The basis is a complement of im d^(k-1) inside ker d^k, chosen
    deterministically by column pivoting.  When k = 2, dim H^2 = 1 and the
    nerve carries a fundamental 2-cycle with nonzero pairing, the basis
    vector is rescaled so that pairing with that cycle equals 1; class
    coordinates are then orientation pairings.
    """

    def __init__(self, nerve: Nerve, degree: int):
        self.nerve = nerve
        self.degree = degree
        self.simplices = nerve.k_simplices(degree)
        kernel = linalg.nullspace(coboundary_matrix(nerve, degree), n_cols=len(self.simplices))
        image_cols = linalg.transpose(coboundary_matrix(nerve, degree - 1)) if degree > 0 else []
        # one echelon over image columns then kernel vectors: a column raises
        # the rank of those before it exactly when it is a pivot column, and
        # the kernel pivots represent H^k
        cols = image_cols + kernel
        _, pivots = linalg.row_echelon(linalg.transpose(cols))
        self._image_basis = [cols[c] for c in pivots if c < len(image_cols)]
        self.basis = [cols[c] for c in pivots if c >= len(image_cols)]
        if degree == 2 and self.dim == 1:
            try:
                cycle = fundamental_two_cycle(nerve)
            except NerveError:
                cycle = {}
            pairing = sum((c * self.basis[0][self.simplices.index(s)] for s, c in cycle.items()), ZERO)
            if not pairing.is_zero():
                self.basis = [[x / pairing for x in self.basis[0]]]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _vector(self, cochain: Cochain) -> List[ExactComplex]:
        return [cochain[s] for s in self.simplices]

    def coordinates(self, cochain: Cochain) -> List[ExactComplex]:
        """Exact coordinates of [cochain] in the chosen basis of H^k."""
        if cochain.degree != self.degree:
            raise CochainError("cochain degree does not match cohomology space")
        d = coboundary(self.nerve, cochain)
        if not d.is_zero():
            raise CochainError("cochain is not a cocycle")
        if not self.basis:
            return []
        vec = self._vector(cochain)
        cols = self.basis + self._image_basis
        rows = linalg.transpose(cols)
        x = linalg.solve(rows, vec)
        if x is None:
            raise CochainError("cocycle not expressible in basis + image (internal)")
        return x[: len(self.basis)]

    def coboundary_witness(self, cochain: Cochain) -> Optional[Cochain]:
        """If [cochain] = 0, an exact y with d y = cochain; else None."""
        if cochain.degree != self.degree or self.degree == 0:
            return None
        coords = self.coordinates(cochain)
        if any(not c.is_zero() for c in coords):
            return None
        d_prev = coboundary_matrix(self.nerve, self.degree - 1)
        if not d_prev:
            return None
        y = linalg.solve(d_prev, self._vector(cochain))
        if y is None:
            return None
        lower = self.nerve.k_simplices(self.degree - 1)
        return Cochain(self.degree - 1, {s: v for s, v in zip(lower, y)})


# -- text formats -----------------------------------------------------------


def parse_nerve_text(text: str) -> Nerve:
    """One simplex per line as comma-separated vertex indices, `#` comments,
    optional `maximal` header line."""
    maximal = False
    raw: List[Tuple[int, ...]] = []
    for lineno, body in _lines(text):
        if body.lower() == "maximal":
            maximal = True
            continue
        with _at_line(lineno, NerveError):
            try:
                raw.append(tuple(int(p.strip()) for p in body.split(",")))
            except ValueError:
                raise NerveError(f"cannot parse simplex {body!r}") from None
    return validate_nerve(raw, maximal=maximal)
