"""Complex torus C/(Z + tau Z) with Weierstrass-function numerics.

zeta, wp and its derivatives are sums over lattice rows in closed
cotangent form.  On a point z reduced into the cell (0 <= Im z < Im tau)
row n needs only a = e^{2 pi i z} q^n and b = e^{2 pi i (tau - z)} q^{n-1},
q = e^{2 pi i tau}, both of modulus at most 1: two exponentials per point,
with the powers of q computed once per torus.  A row decays like |q|^n, so
the number of rows summed comes from an explicit geometric tail bound (see
`Torus.row_count`), and `cutoff` caps it.  The quasi-period constants
eta1, eta2 are cached at construction and certified by the Legendre
relation eta1*tau - eta2 = 2 pi i to 1e-10; failing that check aborts
construction.  The torus layer runs with numpy floating-point warnings
off and reports a non-finite value as a one-line TorusError instead.

Closed meromorphic 1-forms on the torus are combinations
    c0 dz + sum r_j zeta(z - p_j) dz + sum c_k wp^{(l_k - 2)}(z - p_k) dz,
elliptic exactly when sum r_j = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exact import _at_line, _directive, _lines, format_complex, parse_exact

TWO_PI_I = 2j * math.pi
LATTICE_MARGIN = 1e-8
LEGENDRE_TOL = 1e-10
DEFAULT_CUTOFF = 30
# cutoff caps the lattice rows summed per point; fewer are summed where tau
# allows (Torus.row_count).  A user-set cutoff still needs a bound, as a
# torus precomputes cutoff + 1 powers of q; at 200 rows the tail bound
# certifies zeta to 1e-16 for every Im tau >= 0.035.
MAX_CUTOFF = 200
# a pole of order m needs R_{m-2} of `_csc2_factor_poly`, an integer
# polynomial of degree m - 2 built by recursion; 64 is also the largest
# pole order a sphere form can have (`sphere.MAX_DEGREE`)
MAX_POLE_ORDER = 64
# lattice rows x points per numpy block, so that temporaries stay near
# 64 KiB whatever the row count, the number of terms or of points
ROW_BLOCK = 4096
_LN_1E16 = math.log(1e16)


class TorusError(ValueError):
    pass


@lru_cache(maxsize=None)
def _csc2_factor_poly(k: int) -> Tuple[int, ...]:
    """Integer coefficients (constant first) of R_k(u) with
    d^k/dw^k csc^2(pi w) = pi^k csc^2(pi w) R_k(cot(pi w));  R_0 = 1,
    R_{k+1} = -(2u R_k + (1+u^2) R_k')."""
    if k == 0:
        return (1,)
    prev = _csc2_factor_poly(k - 1)
    out = [0] * (len(prev) + 1)
    for i, c in enumerate(prev):
        out[i + 1] -= 2 * c  # 2u R
        if i:
            out[i - 1] -= i * c  # R'
            out[i + 1] -= i * c  # u^2 R'
    return tuple(out)


def _poly_eval(coeffs: Sequence[int], u: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _finite(z, out: np.ndarray):
    """out in the shape of z, or a one-line TorusError where it is not finite."""
    bad = ~np.isfinite(out)
    if bad.any():
        point = np.atleast_1d(np.asarray(z, dtype=complex))[bad][0]
        raise TorusError(f"value at {point} is not finite")
    return complex(out.ravel()[0]) if np.isscalar(z) or isinstance(z, complex) else out


def _blockwise(row_sum, z: np.ndarray, rows: int) -> np.ndarray:
    """row_sum over the flattened points in blocks of ROW_BLOCK // rows.

    A lone last point joins the block before it: numpy sums the rows of a
    one-column block pairwise and those of a wider block one by one, so
    this keeps a point's value independent of the batch it came in (a
    single point is still summed pairwise)."""
    flat = z.ravel()
    out = np.empty_like(flat)
    step = max(1, ROW_BLOCK // rows)
    starts = list(range(0, flat.size, step))
    if len(starts) > 1 and flat.size - starts[-1] == 1:
        starts.pop()
    for i, j in zip(starts, starts[1:] + [flat.size]):
        out[i:j] = row_sum(flat[i:j])
    return out.reshape(z.shape)


class Torus:
    """The lattice Z + tau Z (Im tau > 0) with cached quasi-periods."""

    @np.errstate(all="ignore")
    def __init__(self, tau: complex, cutoff: int = DEFAULT_CUTOFF):
        tau = complex(tau)
        if not tau.imag > 0:
            raise TorusError(f"tau must have positive imaginary part, got {tau}")
        if cutoff < 4:
            raise TorusError("lattice-row cutoff must be at least 4")
        if cutoff > MAX_CUTOFF:
            raise TorusError(f"lattice-row cutoff must be at most {MAX_CUTOFF}, got {cutoff}")
        self.tau = tau
        self.cutoff = int(cutoff)
        self._q_pows = np.exp(TWO_PI_I * (np.arange(self.cutoff + 1) * tau))  # q^n, n = 0..cutoff
        # sum of 1/sin^2(pi n tau), n >= 1, reused by zeta/wp
        q = self._q_pows[1:]
        self._csc2_sum = complex((-4.0 * q / (q - 1.0) ** 2).sum())
        # the nine lattice points m + n tau, |m|, |n| <= 1, around a cell
        cell = [(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)]
        self._cell_m = np.array([m for m, _ in cell], dtype=float)
        self._cell_ntau = np.array([n * tau for _, n in cell])
        self.eta1 = 2.0 * complex(self._zeta_raw(np.array([0.5 + 0j]))[0])
        self.eta2 = 2.0 * complex(self._zeta_raw(np.array([tau / 2.0]))[0])
        defect = abs(self.eta1 * tau - self.eta2 - TWO_PI_I)
        if not defect <= LEGENDRE_TOL:  # NaN eta fails too
            raise TorusError(
                f"Legendre self-check failed: |eta1 tau - eta2 - 2 pi i| = {defect:.3e}; "
                "raise the cutoff or move tau away from the real axis"
            )

    def row_count(self, k: int) -> int:
        """Lattice rows summed for zeta (k = -1) or wp^(k) (k >= 0):
        min(cutoff, N(tau, k)).

        With r = |q| = exp(-2 pi Im tau) and F_k = (k+1)! (2 pi)^(k+1), row n
        (the points z + n tau and z - n tau) adds at most
        2 pi F_k r^(n-1) (1 + r^2) / (1 - r)^(k+2) on a reduced z, so the rows
        after N sum to at most K_k r^N, K_k = 2 pi F_k (1 + r^2) / (1 - r)^(k+3).
        N(tau, k) = ceil(ln(1e16 F_k) / (2 pi Im tau) + s) with at least s = 2
        spare rows, and more where K_k / F_k exceeds r^-2, makes K_k r^N <= 1e-16.
        """
        width = 2.0 * math.pi * self.tau.imag  # -ln r
        r = math.exp(-width)
        log_f = math.lgamma(k + 2) + (k + 1) * math.log(2.0 * math.pi)
        log_shape = math.log(2.0 * math.pi * (1.0 + r * r)) - (k + 3) * math.log(-math.expm1(-width))
        rows = (_LN_1E16 + log_f) / width + max(2.0, log_shape / width)
        return math.ceil(min(rows, self.cutoff))

    # -- lattice geometry -------------------------------------------------

    def _cell_coords(self, z):
        """(s, t) with z = s + t tau."""
        t = z.imag / self.tau.imag
        return z.real - t * self.tau.real, t

    @np.errstate(all="ignore")
    def _reduce(self, z: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """z = z0 + m + n tau elementwise, with z0 = s + t tau and s, t in
        [0, 1) as computed, so z0 reduces to itself: a translate rounded past
        the cell edge moves onto it by its rounding error (s or t set to 0)."""
        s, t = self._cell_coords(z)
        m, n = np.floor(s), np.floor(t)
        z0 = z - m - n * self.tau
        s0, t0 = self._cell_coords(z0)
        if np.floor(s0).any() or np.floor(t0).any():
            off_s, off_t = np.floor(s0) != 0, np.floor(t0) != 0
            m, n = m + np.where(off_s, np.round(s0), 0.0), n + np.where(off_t, np.round(t0), 0.0)
            s0, t0, y0 = (np.where(off, 0.0, v) for off, v in ((off_s, s0), (off_t, t0), (off_t, z0.imag)))
            z0 = np.where(off_s | off_t, s0 + t0 * self.tau.real + 0.0 + 1j * y0, z0)
        return z0, m, n

    def _lattice_gap(self, z0: np.ndarray) -> np.ndarray:
        """Distance from reduced points to the nearest lattice point."""
        d = z0[..., None] - self._cell_m - self._cell_ntau
        return np.hypot(d.real, d.imag).min(axis=-1)

    def _reduce_off_lattice(self, z) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`_reduce` of points that must keep LATTICE_MARGIN from the lattice.

        A lattice point m + n tau lies at least |Im z0 - n Im tau| from a
        reduced z0, so only points within the margin of the cell's bottom
        or top edge need the nine-point `_lattice_gap`."""
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        reduced, m, n = self._reduce(arr)
        y = reduced.imag
        edge = (y < LATTICE_MARGIN) | (np.abs(y - self.tau.imag) < LATTICE_MARGIN)
        if edge.any():
            near = np.zeros(arr.shape, dtype=bool)
            near[edge] = self._lattice_gap(reduced[edge]) < LATTICE_MARGIN
            if near.any():
                raise TorusError(f"point {arr[near][0]} is within {LATTICE_MARGIN} of a lattice point")
        return reduced, m, n

    def reduce_point(self, z: complex) -> Tuple[complex, int, int]:
        """z = z0 + m + n tau with z0 = s + t tau, s, t in [0, 1)."""
        z0, m, n = self._reduce(np.array([complex(z)]))
        return complex(z0[0]), int(m[0]), int(n[0])

    def lattice_distance(self, z: complex) -> float:
        """Distance from z to the nearest lattice point."""
        z0, _, _ = self._reduce(np.array([complex(z)]))
        return float(self._lattice_gap(z0)[0])

    def translate_distance(self, z: complex, w: complex) -> float:
        """Distance from z to the orbit w + lattice."""
        return self.lattice_distance(z - w)

    # -- Weierstrass values -----------------------------------------------

    def _zeta_raw(self, z: np.ndarray) -> np.ndarray:
        """Row-summed zeta on reduced points (0 <= Im z < Im tau)."""
        pi = math.pi
        n = self.row_count(-1)
        q = self._q_pows[:n + 1, None]

        def row_sum(w):
            # cot(pi(w + n tau)) + cot(pi(w - n tau)) for n = 1..N
            a = np.exp(TWO_PI_I * w) * q[1:]
            b = np.exp(TWO_PI_I * (self.tau - w)) * q[:-1]
            return (2j * (b - a) / ((a - 1.0) * (b - 1.0))).sum(axis=0)

        x = np.exp(TWO_PI_I * z)
        return (
            pi * (1j * (x + 1.0) / (x - 1.0))
            + (pi * pi / 3.0) * z
            + pi * _blockwise(row_sum, z, n)
            + 2.0 * (pi * pi) * self._csc2_sum * z
        )

    @np.errstate(all="ignore")
    def zeta(self, z):
        """Weierstrass zeta; quasi-periodic with drops eta1, eta2."""
        reduced, m, n = self._reduce_off_lattice(z)
        return _finite(z, self._zeta_raw(reduced) + m * self.eta1 + n * self.eta2)

    def zeta_table(self, z: np.ndarray, poles: Sequence[complex]) -> dict:
        """{p: zeta(z - p)} for each distinct pole, from one `zeta` call."""
        poles = list(dict.fromkeys(poles))
        if not poles:
            return {}
        return dict(zip(poles, self.zeta(z - np.array(poles).reshape((-1,) + (1,) * z.ndim))))

    @np.errstate(all="ignore")
    def wp_deriv(self, z, k: int = 0):
        """k-th derivative of wp (k = 0 gives wp itself), elliptic."""
        reduced, _, _ = self._reduce_off_lattice(z)
        pi = math.pi
        n = self.row_count(k)
        q = self._q_pows[:n + 1, None]
        coeffs = _csc2_factor_poly(k)

        def row_sum(w):
            # e^{2 pi i v} for v = w + n tau (n = 0..N) and v = n tau - w
            # (n = 1..N); csc^2 is even and R_k has the parity of k
            e = np.concatenate((np.exp(TWO_PI_I * w) * q, np.exp(TWO_PI_I * (self.tau - w)) * q[:-1]))
            d = e - 1.0
            rows = -4.0 * e / (d * d)  # csc^2
            if k:
                rows = rows * _poly_eval(coeffs, 1j * (e + 1.0) / d)
            return rows[:n + 1].sum(axis=0) + (-1) ** k * rows[n + 1:].sum(axis=0)

        total = (pi ** (k + 2)) * _blockwise(row_sum, reduced, 2 * n + 1)
        if k == 0:
            total = total - (pi * pi / 3.0) - 2.0 * (pi * pi) * self._csc2_sum
        return _finite(z, total)

    def __repr__(self):
        return f"Torus(tau={self.tau!r}, cutoff={self.cutoff})"


RESIDUE_SUM_TOL = 1e-12


def sums_to_zero(coeffs: Sequence[complex]) -> bool:
    """Relative zero-sum test, which large coefficients pass in any summation order."""
    return abs(sum(coeffs, 0j)) <= RESIDUE_SUM_TOL * max(1.0, sum(map(abs, coeffs)))


@dataclass(frozen=True)
class EllipticForm:
    """Closed meromorphic 1-form on a torus:
    (c0 + sum r zeta(z-p) + sum c wp^{(l-2)}(z-p)) dz."""

    torus: Torus
    c0: complex = 0j
    log_terms: Tuple[Tuple[complex, complex], ...] = ()
    second_terms: Tuple[Tuple[complex, int, complex], ...] = ()
    validate: bool = True

    def __post_init__(self):
        logs = tuple(
            (self.torus.reduce_point(p)[0], complex(r)) for p, r in self.log_terms
        )
        seconds = []
        for p, order, c in self.second_terms:
            if order < 2:
                raise TorusError("second-kind term needs pole order >= 2")
            if order > MAX_POLE_ORDER:
                raise TorusError(f"second-kind pole order {order} exceeds {MAX_POLE_ORDER}")
            seconds.append((self.torus.reduce_point(p)[0], int(order), complex(c)))
        object.__setattr__(self, "c0", complex(self.c0))
        object.__setattr__(self, "log_terms", logs)
        object.__setattr__(self, "second_terms", tuple(seconds))
        coeffs = [r for _, r in logs]
        if self.validate and not sums_to_zero(coeffs):
            raise TorusError(
                f"zeta-term coefficients sum to {sum(coeffs, 0j):.3e}; the combination "
                "is not doubly periodic"
            )

    # -- structure ---------------------------------------------------------

    def poles(self) -> List[Tuple[complex, int]]:
        orders: dict = {}
        for p, r in self.log_terms:
            if r != 0:
                orders[p] = max(orders.get(p, 0), 1)
        for p, order, c in self.second_terms:
            if c != 0:
                orders[p] = max(orders.get(p, 0), order)
        return sorted(orders.items(), key=lambda kv: (kv[0].real, kv[0].imag))

    def residue_at(self, p: complex) -> complex:
        """Classical residue, exact from the stored structure."""
        p = self.torus.reduce_point(p)[0]
        return sum((r for q, r in self.log_terms if abs(q - p) < 1e-12), 0j)

    def is_zero(self) -> bool:
        return (
            self.c0 == 0
            and all(r == 0 for _, r in self.log_terms)
            and all(c == 0 for _, _, c in self.second_terms)
        )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "EllipticForm") -> "EllipticForm":
        if other.torus is not self.torus:
            raise TorusError("forms live on different tori")
        return EllipticForm(
            self.torus,
            self.c0 + other.c0,
            self.log_terms + other.log_terms,
            self.second_terms + other.second_terms,
            validate=False,
        )

    def scale(self, a: complex) -> "EllipticForm":
        a = complex(a)
        return EllipticForm(
            self.torus,
            a * self.c0,
            tuple((p, a * r) for p, r in self.log_terms),
            tuple((p, o, a * c) for p, o, c in self.second_terms),
            validate=False,
        )

    def __sub__(self, other: "EllipticForm") -> "EllipticForm":
        return self + other.scale(-1.0)

    # -- evaluation -----------------------------------------------------------

    def zeta_poles(self) -> List[complex]:
        """The poles of the zeta terms with a nonzero coefficient."""
        return [p for p, r in self.log_terms if r != 0]

    @np.errstate(all="ignore")
    def eval_complex(self, z, zeta_table: Optional[dict] = None):
        """Coefficient function value at complex scalar / array arguments.

        `zeta_table` maps each of `zeta_poles()` to zeta(z - p) on the
        points (`Torus.zeta_table`, shared by the forms of a stack); without
        it the form builds one for its own poles.  Terms add in order."""
        arr = np.atleast_1d(np.asarray(z, dtype=complex))
        if zeta_table is None:
            zeta_table = self.torus.zeta_table(arr, self.zeta_poles())
        out = np.full(arr.shape, self.c0, dtype=complex)
        for p, r in self.log_terms:
            if r != 0:
                out = out + r * zeta_table[p]
        for p, order, c in self.second_terms:
            if c != 0:
                out = out + c * self.torus.wp_deriv(arr - p, order - 2)
        return _finite(z, out)


def third_kind_torus(torus: Torus, p: complex, q: complex) -> EllipticForm:
    """(zeta(z-p) - zeta(z-q)) dz: simple poles at p, q, residues +1, -1."""
    p0 = torus.reduce_point(p)[0]
    q0 = torus.reduce_point(q)[0]
    if abs(p0 - q0) < 1e-12:
        raise TorusError("third-kind form needs distinct poles modulo the lattice")
    return EllipticForm(torus, 0j, ((p0, 1.0 + 0j), (q0, -1.0 + 0j)))


def second_kind_torus(torus: Torus, p: complex, order: int) -> EllipticForm:
    """wp^{(order-2)}(z-p) dz: one pole of the given order, residue zero."""
    if order < 2:
        raise TorusError("second-kind pole order must be >= 2")
    return EllipticForm(torus, 0j, (), ((p, order, 1.0 + 0j),))


def holomorphic_torus(torus: Torus, c: complex = 1.0) -> EllipticForm:
    return EllipticForm(torus, complex(c))


def format_elliptic_form_text(form: EllipticForm) -> str:
    """Torus form file: `c0 = ...`, `log pole : coeff`, `pp pole : order : coeff`."""
    lines = ["torus-form", f"c0 = {format_complex(form.c0)}"]
    for p, r in sorted(form.log_terms, key=lambda t: (t[0].real, t[0].imag)):
        lines.append(f"log {format_complex(p)} : {format_complex(r)}")
    for p, order, c in sorted(form.second_terms, key=lambda t: (t[0].real, t[0].imag, t[1])):
        lines.append(f"pp {format_complex(p)} : {order} : {format_complex(c)}")
    return "\n".join(lines) + "\n"


_FORM_LINES = {"c0": "c0 = <complex>", "log": "log <pole> : <coeff>", "pp": "pp <pole> : <order> : <coeff>"}


def parse_elliptic_form_text(text: str, torus: Torus) -> EllipticForm:
    c0 = 0j
    logs = []
    seconds = []
    saw_header = False
    for lineno, body in _lines(text):
        if body == "torus-form":
            saw_header = True
            continue
        with _at_line(lineno, TorusError):
            word, fields = _directive(body, _FORM_LINES)
            if word == "c0":
                c0 = parse_exact(fields[0]).to_complex()
            elif word == "log":
                pole, coeff = fields
                logs.append((parse_exact(pole).to_complex(), parse_exact(coeff).to_complex()))
            else:
                pole, order, coeff = fields
                seconds.append((parse_exact(pole).to_complex(), int(order.strip()), parse_exact(coeff).to_complex()))
    if not saw_header:
        raise TorusError("missing `torus-form` header")
    return EllipticForm(torus, c0, tuple(logs), tuple(seconds))
