"""Shared generators for randomized suites (seeded by callers)."""

import math
from fractions import Fraction

import numpy as np

from residuum.divisor import CDivisor
from residuum.exact import ExactComplex, ONE, ZERO
from residuum.periods import MAX_PANELS, QUAD_TOL, ROUNDOFF_REL, QuadratureError, _panel_rule
from residuum.rational import Polynomial
from residuum.sphere import RationalForm


def random_split_form(rng):
    """Random rational form, denominator degree <= 8 with poles in Q(i)."""
    n_poles = rng.randint(1, 4)
    poles = rng.sample(
        [ExactComplex(a, b) for a in range(-2, 3) for b in range(-2, 3)], n_poles
    )
    form = RationalForm.zero()
    budget = 8
    for p in poles:
        max_order = min(3, budget)
        if max_order == 0:
            break
        order = rng.randint(1, max_order)
        budget -= order
        for j in range(1, order + 1):
            c = ExactComplex(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            )
            if not c.is_zero():
                den = Polynomial([-p, ONE]).power(j).coeffs
                form = form + RationalForm.from_coeffs([c], den)
    if rng.random() < 0.5:
        form = form + RationalForm.from_coeffs(
            [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))], [1]
        )
    return form


def random_cover_divisor(rng, force_zero_sum):
    """Random divisor on points inside the built-in sphere cover's center
    disk, keeping clear of the three band spokes."""
    n = rng.randint(2, 4)
    points = []
    while len(points) < n:
        angle = rng.choice([15, 25, 40, 100, 135, 160, 220, 250, 280, 330])
        angle += rng.randint(-10, 10)
        if min(abs(((angle - s) + 180) % 360 - 180) for s in (60, 180, 300)) < 12:
            continue
        radius = Fraction(rng.randint(8, 28), 100)
        rad = math.radians(angle)
        p = ExactComplex(
            Fraction(round(float(radius) * math.cos(rad) * 1000), 1000),
            Fraction(round(float(radius) * math.sin(rad) * 1000), 1000),
        )
        if all(p != q for q in points) and not p.is_zero():
            points.append(p)
    coeffs = [ExactComplex(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in points[:-1]]
    if force_zero_sum:
        coeffs.append(-sum(coeffs, ZERO))
    else:
        coeffs.append(ExactComplex(rng.randint(-4, 4), rng.randint(-4, 4)))
    return CDivisor.from_pairs([(str(p), c) for p, c in zip(points, coeffs)])


def _integrate_piece_fixed(func, piece, panels):
    """The panel rule's integral and absolute-value integral of the
    integrand on one piece, or of each row of a stacked one (shape (k, N)
    on N points)."""
    t, weights = _panel_rule(panels)
    terms = func(piece.point(t)) * piece.velocity(t) * weights
    return np.sum(terms, axis=-1), np.sum(np.abs(terms), axis=-1)


def reference_contour_integral(form_or_func, path, tol=QUAD_TOL):
    """The one-path adaptive loop that `periods.contour_integrals` refines in
    lockstep: each piece on its own, starting at 2 panels and doubling
    until every live row has converged or failed at MAX_PANELS."""
    func = form_or_func.eval_complex if hasattr(form_or_func, "eval_complex") else form_or_func
    outcome: list = []  # per row: the running total, or the error that stopped it
    for piece in path.pieces:
        panels = 2
        first, _ = _integrate_piece_fixed(func, piece, panels)
        if not outcome:
            vector = np.ndim(first) == 1
            outcome = [0j] * np.size(first)
        prev = np.atleast_1d(first).tolist()
        live = [i for i, v in enumerate(outcome) if not isinstance(v, QuadratureError)]
        while live:
            panels *= 2
            cur, rough = (np.atleast_1d(v).tolist() for v in _integrate_piece_fixed(func, piece, panels))
            still = []
            for i in live:
                if abs(cur[i] - prev[i]) < tol + ROUNDOFF_REL * rough[i]:
                    outcome[i] += cur[i]
                elif panels >= MAX_PANELS:
                    outcome[i] = QuadratureError(
                        f"quadrature did not converge at {panels} panels "
                        f"(last delta {abs(cur[i] - prev[i]):.3e}); pole too close to path?"
                    )
                else:
                    still.append(i)
            live, prev = still, cur
        failed = [v for v in outcome if isinstance(v, QuadratureError)]
        if len(failed) == len(outcome):
            break
    if failed:
        failed[0].rows = outcome
        raise failed[0]
    return outcome if vector else outcome[0]
