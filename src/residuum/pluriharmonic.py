"""Conjugate pairs and single-valued pluriharmonic fields.

A meromorphic 1-form whose residue coefficients sum to zero gets an
anti-meromorphic conjugate: build an auxiliary meromorphic form with
conjugated residues and negated-conjugate long periods, then conjugate it
pointwise.  The sum of the pair has every loop integral cancelling, so its
path integral from the garden basepoint is a single-valued function with
logarithmic singularities, and it solves the pluriharmonic equation away
from them.

Equivalence and dimension questions about these fields reduce to finite
period data; both reductions are implemented and cross-checked
numerically (stacked period matrix rank with an explicit singular-value
gap).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .divisor import CDivisor
from .exact import ExactComplex, _at_line, _lines
from .models import (
    Form,
    ModelError,
    format_form_for_model,
    parse_form_for_model,
    prescribe_residues,
    third_kind,
)
from .periods import (
    FormStack,
    Garden,
    GardenError,
    Path,
    PrescriptionError,
    _component_circle,
    circle,
    contour_integral,
    contour_integrals,
    detoured_segment,
    format_garden_text,
    line,
    long_period_vector,
    parse_garden_text,
    period_tolerance,
    stacked_period_vectors,
)


# each grid point is an adaptive path integral, each audit loop one more;
# `contour_integrals` refines them together in bounded integrand calls
MAX_GRID_RES = 100
MAX_AUDIT_LOOPS = 1000


class PairError(ValueError):
    pass


@dataclass(frozen=True)
class AntiMeromorphicForm:
    """The pointwise conjugate of a meromorphic form.

    If the underlying form is psi(z) dz, this object stands for
    conj(psi(z)) dz-bar; its integral along any path equals the conjugate
    of the underlying form's integral along the same path.
    """

    conjugate_of: Form

    def integrate(self, path: Path, tol: float = 1e-12) -> complex:
        return contour_integral(self.conjugate_of, path, tol).conjugate()


def conjugate(form: Form, garden: Garden) -> AntiMeromorphicForm:
    """Anti-meromorphic conjugate: the pair (form, result) has negating
    long and short period vectors.

    The auxiliary form gets residue targets conj(r_j) and long-period
    targets -conj(b_i); conjugating it pointwise then flips both, which is
    the unique choice cancelling every small-circle and loop period of the
    sum under the classical residue normalization.  Residues stay in the
    model's own type, so sphere residues are conjugated exactly.
    """
    model = garden.model
    residues = [model.residue(form, comp) for comp in garden.components]
    total = complex(sum(residues, 0j))
    if abs(total) > 1e-9:
        raise PairError(
            f"residue coefficients sum to {total:.3e}; no conjugate exists"
        )
    divisor = CDivisor(
        garden.component_names,
        tuple(ExactComplex.coerce(r.conjugate()) for r in residues),
    )
    # `prescribe_full`, with the residue-only base integrated in phi's pass
    try:
        base = prescribe_residues(model, divisor)
    except ValueError as e:  # a model error included
        long_period_vector(form, garden)  # phi's quadrature errors come first
        raise PrescriptionError(str(e)) from None
    (b, _), (u, _) = stacked_period_vectors((form, base), garden, shorts=False)
    try:
        psi = model.fit_long_periods(
            base, [-v.conjugate() for v in b], garden.components, lambda f: u, period_tolerance()
        )
    except ModelError as e:
        raise PrescriptionError(str(e)) from None
    return AntiMeromorphicForm(psi)


@dataclass(frozen=True)
class Pair:
    """(Phi, Phi-hat) with componentwise negating period vectors; Phi-hat's
    periods are the conjugates of its underlying psi's."""

    phi: Form
    phi_hat: AntiMeromorphicForm
    garden: Garden
    long_phi: Tuple[complex, ...]
    short_phi: Tuple[complex, ...]
    long_hat: Tuple[complex, ...]
    short_hat: Tuple[complex, ...]

    @staticmethod
    def build(form: Form, garden: Garden, tol: Optional[float] = None) -> "Pair":
        tol = period_tolerance() if tol is None else tol
        hat = conjugate(form, garden)
        pair = Pair.assemble(form, hat, garden)
        defects = pair.invariant_defects()
        if defects and max(defects) > tol:
            raise PairError(
                f"period negation fails by {max(defects):.3e} (tolerance {tol})"
            )
        return pair

    @staticmethod
    def assemble(form: Form, hat: AntiMeromorphicForm, garden: Garden) -> "Pair":
        """The pair with phi's and psi's periods, from one pass per loop."""
        (longs, shorts), (longs_psi, shorts_psi) = stacked_period_vectors(
            (form, hat.conjugate_of), garden
        )
        return Pair(
            form, hat, garden, tuple(longs), tuple(shorts),
            tuple(v.conjugate() for v in longs_psi), tuple(v.conjugate() for v in shorts_psi),
        )

    def invariant_defects(self) -> List[float]:
        """|long(phi)+long(hat)| and |short(phi)+short(hat)| componentwise."""
        out = [abs(a + b) for a, b in zip(self.long_phi, self.long_hat)]
        out += [abs(a + b) for a, b in zip(self.short_phi, self.short_hat)]
        return out

    def integral(self, path: Path, tol: float = 1e-12) -> complex:
        stack = FormStack(self.garden.model, (self.phi, self.phi_hat.conjugate_of))
        phi, psi = contour_integral(stack, path, tol)
        return phi + psi.conjugate()

    def integrals(self, paths: Sequence[Path], tol: float = 1e-12) -> List[Union[complex, Exception]]:
        """`integral` along each path, from one lockstep batch: per path the
        value, or the exception that `integral` on it alone raises."""
        stack = FormStack(self.garden.model, (self.phi, self.phi_hat.conjugate_of))
        out = contour_integrals(stack, paths, tol)
        return [v if isinstance(v, Exception) else v[0] + v[1].conjugate() for v in out]


def _same_garden(g1: Garden, g2: Garden) -> bool:
    if g1 is g2:
        return True
    if type(g1.model) is not type(g2.model) or not g1.model.same_surface(g2.model):
        return False
    return (
        g1.component_names == g2.component_names
        and g1.basepoint == g2.basepoint
        and len(g1.loop_basis) == len(g2.loop_basis)
    )


def pairs_equivalent(pair1: Pair, pair2: Pair, tol: Optional[float] = None) -> bool:
    """Fields agree modulo meromorphic + anti-meromorphic functions iff the
    underlying forms share long and short period vectors."""
    if not _same_garden(pair1.garden, pair2.garden):
        raise PairError("pairs live on different gardens")
    tol = period_tolerance() if tol is None else tol
    longs = zip(pair1.long_phi, pair2.long_phi)
    shorts = zip(pair1.short_phi, pair2.short_phi)
    return all(abs(a - b) < tol for a, b in longs) and all(
        abs(a - b) < tol for a, b in shorts
    )


# -- field evaluation ------------------------------------------------------------


def evaluation_path(garden: Garden, z: complex, margin: Optional[float] = None) -> Path:
    """Deterministic basepoint-to-z path: straight segment with circular
    detours around any pole site closer than the detour margin.

    On the torus the pole sites cover the 3 x 3 cells around the
    fundamental one, so a z outside them is first moved by a lattice
    vector into the basepoint's cell; a pair's long periods cancel, so its
    field takes the same value there."""
    sites = garden.pole_sites()
    if margin is None:
        margin = 0.05
        for i, p in enumerate(sites):
            for q in sites[i + 1:]:
                d = abs(p - q)
                if d > 1e-12:
                    margin = min(margin, 0.45 * d)
        margin = max(margin, garden.pole_margin)
    end = garden.model.evaluation_point(z, garden.basepoint)
    if any(abs(end - p) < margin for p in sites):
        raise GardenError(f"evaluation point {z} is within {margin} of a pole")
    return detoured_segment(garden.basepoint, end, sites, margin)


@dataclass(frozen=True)
class PluriharmonicField:
    """Single-valued integral of a pair from the garden basepoint."""

    pair: Pair

    @property
    def garden(self) -> Garden:
        return self.pair.garden

    def value(self, z: complex, path: Optional[Path] = None) -> complex:
        """h(z), complex in general (real when the data is self-conjugate);
        h is 0 at the garden basepoint by definition."""
        if path is None:
            path = self._path_to(complex(z))
            if path is None:
                return 0j
        else:
            if abs(path.start - self.garden.basepoint) > 1e-12:
                raise PairError("evaluation path must start at the garden basepoint")
            if abs(path.end - complex(z)) > 1e-12:
                raise PairError("evaluation path must end at the evaluation point")
        return self.pair.integral(path)

    def real_value(self, z: complex, path: Optional[Path] = None,
                   tol: Optional[float] = None) -> float:
        """h(z) checked to be real within tolerance; the mathematical field
        is real exactly when residues are real and long periods imaginary."""
        tol = period_tolerance() if tol is None else tol
        return _real(self.value(z, path), tol)

    def _path_to(self, z: complex) -> Optional[Path]:
        """The evaluation path to z, or None at the basepoint, where h is 0."""
        return None if z == self.garden.basepoint else evaluation_path(self.garden, z)

    def grid(self, window: Tuple[float, float, float, float], res: int) -> List[Tuple[float, float, float]]:
        """CSV-ready rows (x, y, h) over an res x res grid; pole-adjacent
        points are skipped, and a pair that is not self-conjugate raises.
        The evaluation paths are integrated in one lockstep batch, and the
        first point in row order that fails raises its error."""
        if not 1 <= res <= MAX_GRID_RES:
            raise PairError(f"grid resolution {res} is outside [1, {MAX_GRID_RES}]")
        x0, x1, y0, y1 = window
        tol = period_tolerance()
        points, paths, deferred = [], [], None
        for y, x in itertools.product(np.linspace(y0, y1, res), np.linspace(x0, x1, res)):
            try:
                path = self._path_to(complex(x, y))
            except GardenError:
                continue
            except ValueError as e:  # raised after the points before it, as point by point
                deferred = e
                break
            points.append((float(x), float(y), path is not None))
            if path is not None:
                paths.append(path)
        values = iter(self.pair.integrals(paths))
        rows = []
        for x, y, on_path in points:
            w = next(values) if on_path else 0j
            if isinstance(w, Exception):
                raise w
            rows.append((x, y, _real(w, tol)))
        if deferred is not None:
            raise deferred
        return rows


def _real(w: complex, tol: float) -> float:
    """w.real, once its imaginary part is checked to be below tol."""
    if abs(w.imag) > tol:
        raise PairError(
            f"imaginary residue {w.imag:.3e} exceeds {tol}; "
            "the pair is not self-conjugate"
        )
    return w.real


def integrate_pair(pair: Pair, z: complex, path: Optional[Path] = None) -> float:
    """Path integral of the pair from basepoint to z, returned as a real
    value after checking the imaginary residue."""
    return PluriharmonicField(pair).real_value(z, path)


def log_field(garden: Garden, coefficients: Sequence[complex]) -> PluriharmonicField:
    """The sphere field sum r_i log|z - p_i|^2 (+const), built exactly.

    Requires real coefficients summing to zero.  The form is its own
    conjugate partner, which cancels every period only without long ones.
    """
    if garden.model.b1:
        raise PairError("closed-form log fields are a sphere construction")
    coeffs = [complex(c) for c in coefficients]
    if any(abs(c.imag) > 0 for c in coeffs):
        raise PairError("log fields need real coefficients")
    if abs(sum(c.real for c in coeffs)) > 1e-15:
        raise PairError("log-field coefficients must sum to zero")
    divisor = CDivisor(
        garden.component_names,
        tuple(ExactComplex.from_complex(c) for c in coeffs),
    )
    phi = prescribe_residues(garden.model, divisor)
    pair = Pair.assemble(phi, AntiMeromorphicForm(phi), garden)
    return PluriharmonicField(pair)


# -- audits -------------------------------------------------------------------


def _random_audit_loops(garden: Garden, n: int, seed: int) -> List[Path]:
    rng = random.Random(seed)
    sites = garden.pole_sites()
    box = garden.model.audit_box(garden.components)
    loops: List[Path] = []
    attempts = 0
    margin = max(garden.pole_margin, 0.04)
    while len(loops) < n and attempts < 100 * n:
        attempts += 1
        center = complex(rng.uniform(box[0], box[1]), rng.uniform(box[2], box[3]))
        radius = rng.uniform(0.05, 0.6)
        if all(abs(abs(center - p) - radius) > margin for p in sites):
            loop = circle(center, radius)
            loops.append(loop if rng.random() < 0.5 else loop.reversed())
    if len(loops) < n:
        raise GardenError("could not place the requested number of audit loops")
    return loops


def audit_loops(garden: Garden, n_random: int, seed: int = 0) -> List[Path]:
    """Garden basis + one small circle per component + random circles."""
    loops = list(garden.loop_basis)
    for j, comp in enumerate(garden.components):
        loop, at_infinity = _component_circle(garden, j)
        if not at_infinity:
            loops.append(loop)
    loops.extend(_random_audit_loops(garden, n_random, seed))
    return loops


def well_definedness_audit(pair: Pair, n_random_loops: int = 20, seed: int = 0) -> float:
    """Maximum |loop integral of the pair| over the audit loop family;
    single-valuedness means this stays below the period tolerance."""
    if not 0 <= n_random_loops <= MAX_AUDIT_LOOPS:
        raise PairError(f"random audit loop count {n_random_loops} is outside [0, {MAX_AUDIT_LOOPS}]")
    worst = 0.0
    for v in pair.integrals(audit_loops(pair.garden, n_random_loops, seed)):
        if isinstance(v, Exception):
            raise v
        worst = max(worst, abs(v))
    return worst


def laplacian_check(
    field: PluriharmonicField,
    samples: Sequence[complex],
    step: float,
) -> float:
    """Max |five-point Laplacian| of h over the samples (units of h / len^2).

    Each stencil difference h(s + d) - h(s) is one short segment integral
    of the pair, so the basepoint value cancels exactly.  Samples must
    keep distance > 10 * step from every pole.
    """
    sites = field.garden.pole_sites()
    segments, too_close = [], None
    for s in samples:
        s = complex(s)
        if any(abs(s - p) <= 10 * step for p in sites):
            too_close = GardenError(f"sample {s} closer than 10 steps to a pole")
            break
        segments += [Path([line(s, s + d)]) for d in (step, -step, 1j * step, -1j * step)]
    values = field.pair.integrals(segments)
    worst = 0.0
    for k in range(0, len(values), 4):
        acc = 0j
        for v in values[k:k + 4]:
            if isinstance(v, Exception):
                raise v
            acc += v
        worst = max(worst, abs(acc) / (step * step))
    if too_close is not None:
        raise too_close
    return worst


# -- dimension counts -----------------------------------------------------------


def spanning_forms(garden: Garden) -> List[Form]:
    """Canonical forms whose pairs span the pluriharmonic space mod T_G:
    simple-pole differences against the first component, plus (torus) the
    two second-kind generators."""
    comps = garden.components
    out: List[Form] = []
    for j in range(1, len(comps)):
        out.append(third_kind(garden.model, comps[0], comps[j]))
    return out + garden.model.extra_spanning_forms(comps)


def pluriharmonic_space_dim(garden: Garden) -> int:
    """k + b1: kernel dimension of the model Chern map plus the first Betti
    number (all points on either model share one nonzero class, so k is
    l - 1 for l >= 1)."""
    l = len(garden.components)
    k = l - 1 if l >= 1 else 0
    return k + garden.model.b1


# -- pair descriptor files --------------------------------------------------------


def format_pair_text(pair: Pair) -> str:
    """Pair descriptor: garden section, then the two underlying forms.

    The anti-meromorphic side is stored through its meromorphic underlier;
    periods are re-measured (and the invariants re-checked) at load time.
    """
    chunks = [
        "[garden]\n",
        format_garden_text(pair.garden),
        "[phi]\n",
        format_form_for_model(pair.phi, pair.garden.model),
        "[psi]\n",
        format_form_for_model(pair.phi_hat.conjugate_of, pair.garden.model),
    ]
    return "".join(chunks)


_PAIR_SECTIONS = ("garden", "phi", "psi")


def parse_pair_text(text: str) -> Pair:
    """Read a pair descriptor.  Each section goes to its reader with the
    other lines blanked, so that reader's errors name lines of the file."""
    sections: Dict[str, List[str]] = {}
    current = None
    for lineno, body in _lines(text):
        with _at_line(lineno, PairError):
            if body.startswith("[") and body.endswith("]"):
                current = body[1:-1]
                if current not in _PAIR_SECTIONS:
                    raise PairError(f"unknown section {body}")
                if current in sections:
                    raise PairError(f"repeated section {body}")
                sections[current] = []
            elif current is None:
                raise PairError("expected a [garden], [phi] or [psi] section header")
            else:
                lines = sections[current]
                lines += [""] * (lineno - 1 - len(lines)) + [body]
    for needed in _PAIR_SECTIONS:
        if needed not in sections:
            raise PairError(f"pair file missing [{needed}] section")
    garden = parse_garden_text("\n".join(sections["garden"]))
    phi = parse_form_for_model("\n".join(sections["phi"]), garden.model)
    psi = parse_form_for_model("\n".join(sections["psi"]), garden.model)
    pair = Pair.assemble(phi, AntiMeromorphicForm(psi), garden)
    defects = pair.invariant_defects()
    if defects and max(defects) > period_tolerance():
        raise PairError(
            f"loaded pair violates period negation by {max(defects):.3e}"
        )
    return pair


SV_GAP = 1e-4


def period_matrix_rank(garden: Garden) -> Tuple[int, float]:
    """Independent check of the dimension count: numerical rank of the
    stacked (long, short) period rows of the canonical spanning pairs,
    with the singular-value gap certifying the threshold."""
    rows = [[*longs, *shorts] for longs, shorts in stacked_period_vectors(spanning_forms(garden), garden)]
    if not rows or not rows[0]:
        return 0, math.inf
    sigma = np.linalg.svd(np.array(rows, dtype=complex), compute_uv=False)
    kept = [s for s in sigma if s > SV_GAP]
    discarded = [s for s in sigma if s <= SV_GAP]
    gap = (min(kept) if kept else math.inf) - (max(discarded) if discarded else 0.0)
    if gap <= SV_GAP:
        raise PairError(f"singular-value gap {gap:.3e} too small to certify rank")
    return len(kept), gap
