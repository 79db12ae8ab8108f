"""Model handles: the one place where the two geometries differ.

A model handle pins down the surface a garden lives on: the sphere (exact
rational forms) or a torus (Weierstrass numerics).  It names, compares and
places points, builds, parses and prints forms, and supplies the loops
spanning H_1.  The period engine and the pair layer only call these
methods, so a new geometry, or a new representation of forms on one of
these two, is one more class or a few more methods here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .divisor import CDivisor
from .exact import ExactComplex, format_complex, parse_exact
from . import sphere as sph
from . import torus as tor
from .sphere import RationalForm, SpherePoint
from .torus import EllipticForm, Torus


class ModelError(ValueError):
    pass


# identity of two torus points modulo the lattice
SAME_POINT_TOL = 1e-9
# moving a point this far out into a cell rounds it by up to about 1e-9
# (a few units in the last place of |z|)
MAX_TRANSLATE = 1e6


def _grid(lo: float, hi: float, n: int) -> List[complex]:
    axis = np.linspace(lo, hi, n)
    return [complex(x, y) for x in axis for y in axis]


@dataclass(frozen=True)
class SphereModel:
    """P^1: points are SpherePoints (infinity included), forms are exact
    rational forms, residues are exact, and there are no loops (b1 = 0)."""

    tag = "sphere"
    b1 = 0
    exact_residues = True
    loop_offsets = ()

    def parse_point(self, text: str) -> SpherePoint:
        return sph.parse_sphere_point(text)

    def coerce_point(self, point) -> SpherePoint:
        return SpherePoint.coerce(point)

    def point_name(self, point) -> str:
        return str(SpherePoint.coerce(point))

    def point_value(self, point) -> Optional[complex]:
        """Plane coordinate of a point; None for infinity."""
        point = SpherePoint.coerce(point)
        return None if point.is_infinity else point.to_complex()

    def same_point(self, p, q) -> bool:
        return SpherePoint.coerce(p) == SpherePoint.coerce(q)

    def pole_sites(self, points: Sequence) -> List[complex]:
        """The finite points' coordinates."""
        return [v for v in map(self.point_value, points) if v is not None]

    def circle_radius(self, points: Sequence, index: int) -> float:
        """Half the distance to the nearest other finite point; around
        infinity, measured in the w = 1/z chart."""
        finite = self.pole_sites(points)
        center = self.point_value(points[index])
        if center is None:
            return min((abs(1.0 / p) for p in finite if p != 0), default=1.0) / 2.0
        dists = [abs(center - p) for p in finite if abs(center - p) > 1e-15]
        return min(dists, default=2.0) / 2.0

    def basepoint_grid(self) -> List[complex]:
        return _grid(-2.0, 2.0, 17)

    def evaluation_point(self, z: complex, anchor: complex) -> complex:
        """Where a path from the anchor to evaluate at z ends: z itself."""
        return z

    def audit_box(self, points: Sequence) -> Tuple[float, float, float, float]:
        finite = self.pole_sites(points) or [0j]
        xs = [p.real for p in finite]
        ys = [p.imag for p in finite]
        return (min(xs) - 1.5, max(xs) + 1.5, min(ys) - 1.5, max(ys) + 1.5)

    def header_lines(self) -> List[str]:
        return [f"model {self.tag}"]

    def same_surface(self, other: "SphereModel") -> bool:
        return True

    def parse_form(self, text: str) -> RationalForm:
        return sph.parse_form_text(text)

    def format_form(self, form: RationalForm) -> str:
        return sph.format_form_text(form)

    def poles(self, form: RationalForm) -> List[Tuple[SpherePoint, int]]:
        return sph.all_poles(form)

    def residue(self, form: RationalForm, point) -> ExactComplex:
        return sph.residue_at(form, point)

    def symbolic_exactness(self, form: RationalForm) -> Optional[bool]:
        """Exact on the sphere iff every residue vanishes."""
        return sph.has_rational_antiderivative(form)

    def eval_forms(self, forms: Sequence[RationalForm], z: np.ndarray) -> np.ndarray:
        """Each form's values at the points, one row per form."""
        return np.array([f.eval_complex(z) for f in forms])

    def third_kind(self, p, q) -> RationalForm:
        return sph.third_kind(p, q)

    def second_kind(self, p, order: int) -> RationalForm:
        return sph.second_kind(p, order)

    def prescribe(self, divisor: CDivisor) -> RationalForm:
        return sph.prescribe_residues(divisor)

    def extra_spanning_forms(self, points: Sequence) -> List[RationalForm]:
        return []

    def fit_long_periods(self, base, targets, points, base_longs, tol) -> RationalForm:
        return base  # no long periods

    def normalize_pure_imaginary(self, form, b) -> RationalForm:
        return form


@dataclass(frozen=True)
class TorusModel:
    """C / (Z + tau Z): points are complex numbers reduced to the
    fundamental cell, forms are zeta/wp combinations, residues are
    bookkept floats, and H_1 is spanned by loops closing up to 1 and tau."""

    torus: Torus
    tag = "torus"
    b1 = 2
    exact_residues = False

    def parse_point(self, text: str) -> complex:
        return self.coerce_point(parse_exact(text).to_complex())

    def coerce_point(self, point) -> complex:
        return self.torus.reduce_point(complex(point))[0]

    def point_name(self, point) -> str:
        return format_complex(self.coerce_point(point))

    def point_value(self, point) -> complex:
        return complex(point)

    def same_point(self, p, q) -> bool:
        return self.torus.translate_distance(complex(p), complex(q)) < SAME_POINT_TOL

    def pole_sites(self, points: Sequence) -> List[complex]:
        """Each point with its lattice translates around the cell."""
        tau = self.torus.tau
        return [complex(p) + m + n * tau for p in points for m in (-1, 0, 1) for n in (-1, 0, 1)]

    def circle_radius(self, points: Sequence, index: int) -> float:
        """Half the distance to every other point and to the point's own
        nearest lattice translate."""
        center = complex(points[index])
        tau = self.torus.tau
        best = min(abs(m + n * tau) for m in (-1, 0, 1) for n in (-1, 0, 1) if (m, n) != (0, 0))
        for q in points:
            d = self.torus.translate_distance(center, complex(q))
            if d > 1e-15:
                best = min(best, d)
        return best / 2.0

    @property
    def loop_offsets(self) -> Tuple[complex, complex]:
        return (1.0 + 0j, self.torus.tau)

    def basepoint_grid(self) -> List[complex]:
        tau = self.torus.tau
        return [st.real + st.imag * tau for st in _grid(0.02, 0.98, 13)]

    def evaluation_point(self, z: complex, anchor: complex) -> complex:
        """Where a path from the anchor to evaluate at z ends: z inside the
        3 x 3 cells that `pole_sites` covers, else its translate in the
        anchor's cell (only a single-valued integrand may use this)."""
        z0, m, n = self.torus.reduce_point(z)
        if max(abs(m), abs(n)) <= 1:
            return z
        if not abs(z) <= MAX_TRANSLATE:
            raise ModelError(f"evaluation point {z} is farther than {MAX_TRANSLATE:g} from the cell")
        _, m, n = self.torus.reduce_point(anchor)
        return z0 + m + n * self.torus.tau

    def audit_box(self, points: Sequence) -> Tuple[float, float, float, float]:
        tau = self.torus.tau
        return (0.0, 1.0 + tau.real, 0.0, tau.imag)

    def header_lines(self) -> List[str]:
        return [
            f"model {self.tag}",
            f"tau = {format_complex(self.torus.tau)}",
            f"cutoff = {self.torus.cutoff}",
        ]

    def same_surface(self, other: "TorusModel") -> bool:
        # Torus has no __eq__; two handles are one surface when tau agrees
        return self.torus.tau == other.torus.tau

    def parse_form(self, text: str) -> EllipticForm:
        return tor.parse_elliptic_form_text(text, self.torus)

    def format_form(self, form: EllipticForm) -> str:
        return tor.format_elliptic_form_text(form)

    def poles(self, form: EllipticForm) -> List[Tuple[complex, int]]:
        return form.poles()

    def residue(self, form: EllipticForm, point) -> complex:
        return form.residue_at(complex(point))

    def symbolic_exactness(self, form: EllipticForm) -> Optional[bool]:
        return None  # no symbolic criterion on the torus

    def eval_forms(self, forms: Sequence[EllipticForm], z: np.ndarray) -> np.ndarray:
        """Each form's values at the points, one row per form, from one zeta
        table over the union of their log poles."""
        table = self.torus.zeta_table(z, [p for f in forms for p in f.zeta_poles()])
        return np.array([f.eval_complex(z, table) for f in forms])

    def third_kind(self, p, q) -> EllipticForm:
        return tor.third_kind_torus(self.torus, complex(p), complex(q))

    def second_kind(self, p, order: int) -> EllipticForm:
        return tor.second_kind_torus(self.torus, complex(p), order)

    def prescribe(self, divisor: CDivisor) -> EllipticForm:
        """zeta-combination carrying the divisor, whose coefficients must
        sum to zero within 1e-12 relative to their size."""
        coeffs = [a.to_complex() for a in divisor.coefficients]
        if not tor.sums_to_zero(coeffs):
            raise ModelError(
                f"residue coefficients sum to {sum(coeffs, 0j):.3e}; no closed meromorphic "
                "1-form on the torus can carry this divisor"
            )
        points = [self.parse_point(name) for name in divisor.components]
        log_terms = tuple((p, c) for p, c in zip(points, coeffs) if c != 0)
        return EllipticForm(self.torus, 0j, log_terms)

    def extra_spanning_forms(self, points: Sequence) -> List[EllipticForm]:
        """dz, and wp(z - p) dz at the first point."""
        out = [tor.holomorphic_torus(self.torus, 1.0)]
        if points:
            out.append(self.second_kind(points[0], 2))
        return out

    def fit_long_periods(
        self, base: EllipticForm, targets: Sequence[complex], points: Sequence,
        base_longs: Sequence[complex], tol: float,
    ) -> EllipticForm:
        """base + alpha dz + beta wp(z - p1) dz with the target long periods,
        given the long periods of base.

        The system's determinant is the Legendre constant 2 pi i, so it
        never degenerates; with no point to host wp only alpha dz is left.
        """
        torus = self.torus
        u = base_longs if not base.is_zero() else [0j, 0j]
        rhs1 = complex(targets[0]) - u[0]
        rhs2 = complex(targets[1]) - u[1]
        if not points:
            alpha = rhs1
            if abs(rhs2 - alpha * torus.tau) > tol:
                raise ModelError(
                    "long-period target needs a second-kind pole, but the garden "
                    "has no components to host one"
                )
            return base + tor.holomorphic_torus(torus, alpha)
        eta1, eta2, tau = torus.eta1, torus.eta2, torus.tau
        det = -eta2 + tau * eta1  # Legendre: equals 2 pi i
        alpha = (rhs1 * (-eta2) - (-eta1) * rhs2) / det
        beta = (rhs2 - tau * rhs1) / det
        out = base + tor.holomorphic_torus(torus, alpha)
        if beta != 0:
            out = out + self.second_kind(points[0], 2).scale(beta)
        return out

    def normalize_pure_imaginary(self, form: EllipticForm, b: Sequence[complex]) -> EllipticForm:
        """form + mu dz with both long periods purely imaginary, given the
        form's long periods b."""
        tau = self.torus.tau
        x = -b[0].real
        y = (b[1].real + x * tau.real) / tau.imag
        return form + tor.holomorphic_torus(self.torus, complex(x, y))


Model = Union[SphereModel, TorusModel]
Form = Union[RationalForm, EllipticForm]


def make_model(tag: str, tau: Optional[complex] = None, cutoff: int = tor.DEFAULT_CUTOFF) -> Model:
    """The model handle named by a garden file's or the CLI's model tag."""
    if tag == SphereModel.tag:
        return SphereModel()
    if tag == TorusModel.tag:
        if tau is None:
            raise ModelError("torus model needs tau (`--tau`, or a `tau = a + b i` garden line)")
        return TorusModel(Torus(tau, cutoff))
    raise ModelError(f"unknown model {tag!r}; expected sphere or torus")


def third_kind(model: Model, p, q) -> Form:
    """Simple poles at p, q with residues +1, -1 on either model."""
    return model.third_kind(p, q)


def second_kind(model: Model, p, order: int) -> Form:
    """A single residue-free pole of the given order >= 2."""
    return model.second_kind(p, order)


def prescribe_residues(model: Model, divisor: CDivisor) -> Form:
    """Form with the prescribed residue divisor (coefficients sum to zero:
    exactly on the sphere, within 1e-12 relative to their size on the torus)."""
    return model.prescribe(divisor)


def residue_divisor(model: Model, form: Form) -> CDivisor:
    """Distinct poles with their nonzero residues, named by the model."""
    pairs = [(model.point_name(p), model.residue(form, p)) for p, _ in model.poles(form)]
    return CDivisor.from_pairs([(name, r) for name, r in pairs if r != 0])


def parse_form_for_model(text: str, model: Model) -> Form:
    return model.parse_form(text)


def format_form_for_model(form: Form, model: Model) -> str:
    return model.format_form(form)
