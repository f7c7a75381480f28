"""Polynomials over the zeon algebra and their complex shadows.

Every zeon polynomial induces a complex polynomial by taking scalar
parts of its coefficients (constant term included). When an induced
zero is simple it lifts to a unique zeon zero, built grade by grade;
when every induced zero is simple the polynomial splits into linear
factors. Multiple induced zeros never lift uniquely, which is reported
instead of guessed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from ._numpy import np
from .algebra import ZeonElement, _json_int, _signed_sum
from .errors import (DimensionMismatch, DoesNotSplitError, NonConvergenceError,
                     ParseError, PolyDivisionError, SpectralSimplicityError,
                     ZeonError)
from .tolerances import DEFAULT, Tolerances

_EPS = 2.0 ** -52
_MAX_ITER = 200
_STEP_TOL = 1e-14
_CLUSTER_REL = 1e-6       # merge radius for two Aberth iterates of one root
_WIDE_CLUSTER_REL = 1e-3  # for pairs where f' fails the simplicity floor at both iterates
_SIMPLE_REL = 1e-8        # |f'(root)| above this (scaled) counts as simple
# A lift forms its residual on the Taylor table (_TaylorTable) when the monic
# polynomial's table, (degree + 1) x |S| cells for S the union of its stored
# blades, has at least _TABLE_MIN_CELLS cells, and by element Horner otherwise.
# A table residual costs about 0.1 ms of fixed numpy overhead; Horner costs
# degree element products, each visiting every stored pair. The rule is the
# crossover of lifting every zero both ways (table build included) on planted
# polynomials of degree 2..8 over n = 2..16, generator-class roots and roots
# with 2 or 4 random blades: Horner was faster on every one below 85 cells,
# the two within 10% from 85 to 155, and the table faster on every one from
# 175 cells on (1.2-1.7x up to 250, 2-5x at 340-900, 4-10x at 4599), timed
# in-process on one pinned vCPU of a 2-vCPU Xeon VM. Element Horner also
# stays as the numpy-free path: `zeon polyzero` on a small polynomial must not
# load numpy (tests/test_cold_start.py, test_command_leaves_numpy_unloaded),
# and it decides a lift that stops on the table (_Lifter.lift). Both
# split_sparse classes lie above the crossover; no benchmark workload lifts
# below it.
_TABLE_MIN_CELLS = 160
# Largest |S| x |T| block of blade pairs a table residual forms at once.
_PAIR_BLOCK = 1 << 16


def _fmt_c(value: complex) -> str:
    if value.imag == 0:
        return f"{value.real:.6g}"
    return f"{value.real:.6g}{value.imag:+.6g}j"


class ZeonPolynomial:
    """Polynomial with zeon coefficients, stored ascending by degree.

    Canonical form strips trailing structurally-zero coefficients, so the
    leading coefficient of a nonzero polynomial is a stored nonzero element.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ZeonElement]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        n = getattr(coeffs[0], "n", None)  # a non-element fails the type check below
        for c in coeffs:
            if not isinstance(c, ZeonElement):
                raise TypeError("coefficients must be ZeonElement")
            if c.n != n:
                raise DimensionMismatch("coefficients live in different algebras")
        last = len(coeffs) - 1
        while last > 0 and not coeffs[last].terms:
            last -= 1
        self.coeffs = coeffs[:last + 1]

    @classmethod
    def from_scalars(cls, n: int, values: Iterable[complex],
                     tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        return cls([ZeonElement.scalar(n, v, tol) for v in values])

    @classmethod
    def from_roots(cls, roots: Sequence[ZeonElement],
                   tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        """Monic product of the linear factors (u - root)."""
        if not roots:
            raise ValueError("need at least one root")
        n = roots[0].n
        poly = cls([ZeonElement.one(n)])
        for w in roots:
            poly = poly.mul(cls([w.scale(-1, tol), ZeonElement.one(n)]), tol)
        return poly

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> ZeonElement:
        return self.coeffs[-1]

    def is_zero(self, tol: Tolerances = DEFAULT) -> bool:
        return all(c.is_zero(tol) for c in self.coeffs)

    def evaluate(self, point, tol: Tolerances = DEFAULT) -> ZeonElement:
        """Horner evaluation at a zeon element or complex scalar."""
        if isinstance(point, (int, float, complex)):
            point = ZeonElement.scalar(self.n, point, tol)
        if point.n != self.n:
            raise DimensionMismatch("evaluation point lives in a different algebra")
        acc = ZeonElement.zero(self.n)
        for c in reversed(self.coeffs):
            acc = acc.mul(point, tol).add(c, tol)
        return acc

    __call__ = evaluate

    def add(self, other: "ZeonPolynomial", tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        self._require_same_n(other)
        return ZeonPolynomial([a.add(b, tol) for a, b in self._by_degree(other)])

    def sub(self, other: "ZeonPolynomial", tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        return self.add(other.scale(-1, tol), tol)

    def mul(self, other: "ZeonPolynomial", tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        self._require_same_n(other)
        out = [ZeonElement.zero(self.n) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            if not a.terms:
                continue
            for j, b in enumerate(other.coeffs):
                if not b.terms:
                    continue
                out[i + j] = out[i + j].add(a.mul(b, tol), tol)
        return ZeonPolynomial(out)

    def scale(self, value, tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        if isinstance(value, ZeonElement):
            return ZeonPolynomial([c.mul(value, tol) for c in self.coeffs])
        return ZeonPolynomial([c.scale(value, tol) for c in self.coeffs])

    def monic(self, tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        lead = self.leading
        if not lead.is_invertible(tol):
            raise PolyDivisionError("leading coefficient is not invertible")
        if not lead.sub(ZeonElement.one(self.n), tol).terms:
            return self
        return self.scale(lead.inverse(tol), tol)

    def _require_same_n(self, other: "ZeonPolynomial") -> None:
        if self.n != other.n:
            raise DimensionMismatch("polynomials live in different algebras")

    def _by_degree(self, other: "ZeonPolynomial"):
        """Coefficient pairs of equal degree, the shorter polynomial padded with zeros."""
        zero = ZeonElement.zero(self.n)
        return itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=zero)

    def allclose(self, other: "ZeonPolynomial", tol: Tolerances = DEFAULT) -> bool:
        if not isinstance(other, ZeonPolynomial) or self.n != other.n:
            return False
        return all(a.allclose(b, tol) for a, b in self._by_degree(other))

    def __eq__(self, other):
        if not isinstance(other, ZeonPolynomial):
            return NotImplemented
        return self.allclose(other)

    def __add__(self, other):
        return self.add(other) if isinstance(other, ZeonPolynomial) else NotImplemented

    def __sub__(self, other):
        return self.sub(other) if isinstance(other, ZeonPolynomial) else NotImplemented

    def __mul__(self, other):
        if isinstance(other, ZeonPolynomial):
            return self.mul(other)
        if isinstance(other, (int, float, complex, ZeonElement)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data, tol: Tolerances = DEFAULT) -> "ZeonPolynomial":
        if not isinstance(data, Mapping):
            raise ParseError("polynomial must be a JSON object")
        try:
            n = _json_int(data["n"])
            raw = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"polynomial needs 'n' and 'coeffs': {exc}") from exc
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ParseError("'coeffs' must be a non-empty list")
        coeffs = []
        for cell in raw:
            elem = ZeonElement.from_json(cell, tol)
            if elem.n != n:
                raise ParseError(f"coefficient algebra n={elem.n} disagrees with n={n}")
            coeffs.append(elem)
        return cls(coeffs)

    def pretty(self, sig: int = 12) -> str:
        if all(not c.terms for c in self.coeffs):
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c.terms:
                continue
            var = "" if k == 0 else ("u" if k == 1 else f"u^{k}")
            s = c.pretty(sig)
            neg = False
            if " " in s:
                body = f"({s})"
            else:
                if s.startswith("-"):
                    neg = True
                    s = s[1:]
                body = s
            if var:
                body = var if body == "1" else f"{body}*{var}"
            parts.append((neg, body))
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"<ZeonPolynomial degree={self.degree} n={self.n}: {self.pretty(6)}>"


class ComplexPolynomial:
    """Plain complex polynomial, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex], strip: float = 0.0):
        coeffs = [complex(c) for c in coeffs]
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        last = len(coeffs) - 1
        while last > 0 and abs(coeffs[last]) <= strip:
            last -= 1
        self.coeffs = tuple(coeffs[:last + 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial([0j])
        return ComplexPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "ComplexPolynomial":
        lead = self.coeffs[-1]
        return ComplexPolynomial([c / lead for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"<ComplexPolynomial {[_fmt_c(c) for c in self.coeffs]}>"


def induce_complex(phi: ZeonPolynomial, tol: Tolerances = DEFAULT) -> ComplexPolynomial:
    """Complex shadow: scalar parts of all coefficients, constant included."""
    return ComplexPolynomial([c.scalar_part() for c in phi.coeffs], strip=tol.prune)


@dataclass(frozen=True)
class PolyRoot:
    value: complex
    multiplicity: int
    simple: bool

    def to_json(self) -> dict:
        return {"re": self.value.real, "im": self.value.imag,
                "multiplicity": self.multiplicity, "simple": self.simple}


@dataclass(frozen=True)
class RootReport:
    """Zeros of a complex polynomial with multiplicities.

    residual is the largest |f(root)| over the reported roots of the
    monic-normalized polynomial.
    """

    roots: tuple[PolyRoot, ...]
    residual: float
    iterations: int

    def to_json(self) -> dict:
        return {"roots": [r.to_json() for r in self.roots],
                "residual": self.residual, "iterations": self.iterations}


def _abs_horner(abs_coeffs: Sequence[float], r: float) -> float:
    acc = 0.0
    for c in reversed(abs_coeffs):
        acc = acc * r + c
    return acc


def _shadow_zero(f: ComplexPolynomial, df: ComplexPolynomial, z: complex) -> tuple[bool, bool]:
    """The shadow-zero test: is z a zero of f, and does f' clear the simplicity floor at z.

    z is a zero when |f(z)| <= 1e-6 (1 + max |f_k|), and a simple zero when
    moreover |f'(z)| > _SIMPLE_REL (1 + max |f_k|). df is f.derivative(),
    built once per polynomial by the caller.
    """
    scale = 1.0 + max(map(abs, f.coeffs))
    return abs(f(z)) <= 1e-6 * scale, abs(df(z)) > _SIMPLE_REL * scale


def _cluster_report(points: list[complex], monic: ComplexPolynomial,
                    dmonic: ComplexPolynomial, iterations: int) -> RootReport:
    """Merge converged iterates into roots with multiplicities, in one pass over pairs.

    Two iterates join one root when they lie within _CLUSTER_REL of each
    other (relative), or within _WIDE_CLUSTER_REL when f' fails the
    simplicity floor at both: a multiple zero cannot be located more
    tightly than the float noise allows (its iterates scatter like
    eps^(1/multiplicity)). Roots close transitively; each is the mean of
    its iterates, and it is simple when it holds one iterate at which f'
    clears the floor.
    """
    d = len(points)
    degenerate = [not _shadow_zero(monic, dmonic, z)[1] for z in points]
    label = list(range(d))
    for a in range(d):
        for b in range(a + 1, d):
            za, zb = points[a], points[b]
            rel = _WIDE_CLUSTER_REL if degenerate[a] and degenerate[b] else _CLUSTER_REL
            if label[a] != label[b] and abs(za - zb) <= rel * (1.0 + (abs(za) + abs(zb)) / 2):
                gone, kept = label[b], label[a]
                label = [kept if lab == gone else lab for lab in label]
    clusters: dict[int, list[int]] = {}
    for idx, lab in enumerate(label):
        clusters.setdefault(lab, []).append(idx)
    roots = []
    residual = 0.0
    for members in clusters.values():
        value = sum(points[i] for i in members) / len(members)
        simple = len(members) == 1 and not degenerate[members[0]]
        residual = max(residual, abs(monic(value)))
        roots.append(PolyRoot(value, len(members), simple))
    roots.sort(key=lambda r: (-r.value.real, -r.value.imag))
    return RootReport(tuple(roots), residual, iterations)


def _finite(report: RootReport) -> RootReport:
    """The report, unless a root or its residual overflowed: then NonConvergenceError carries it."""
    if all(cmath.isfinite(r.value) for r in report.roots) and math.isfinite(report.residual):
        return report
    raise NonConvergenceError("root iteration overflowed: a root or the residual is not finite",
                              report=report)


def complex_roots(poly, tol: Tolerances = DEFAULT) -> RootReport:
    """All zeros of a complex polynomial by simultaneous Aberth iteration.

    Accepts a ComplexPolynomial or a ZeonPolynomial (which is shadowed
    first). Points start on a perturbed circle; a point freezes once its
    residual drops below the Horner evaluation-error bound, which is the
    only honest stopping point for multiple zeros.
    """
    f = poly if isinstance(poly, ComplexPolynomial) else induce_complex(poly, tol)
    d = f.degree
    if d < 1 or abs(f.coeffs[-1]) == 0.0:
        raise ZeonError("root finding needs degree at least 1 with nonzero lead")
    monic = f.monic()
    a = monic.coeffs
    if d == 1:
        root = -a[0]
        return _finite(RootReport((PolyRoot(root, 1, True),), abs(monic(root)), 0))
    dmonic = monic.derivative()
    abs_coeffs = [abs(c) for c in a]
    bound_factor = 4.0 * (2 * d + 1) * _EPS
    centroid = -a[d - 1] / d
    radius = 1.0 + max(abs_coeffs[:-1])
    points = [centroid + radius * cmath.exp(1j * (2 * math.pi * k / d + 0.4))
              for k in range(d)]
    frozen = [False] * d
    for it in range(1, _MAX_ITER + 1):
        done = True
        for j in range(d):
            if frozen[j]:
                continue
            z = points[j]
            p = monic(z)
            if abs(p) <= bound_factor * _abs_horner(abs_coeffs, abs(z)):
                frozen[j] = True
                continue
            dp = dmonic(z)
            if dp == 0:
                # sitting exactly on a critical point; nudge off it
                points[j] = z + (0.05 + 0.1j) * (1.0 + abs(z))
                done = False
                continue
            newton = p / dp
            s = 0j
            for k in range(d):
                if k == j:
                    continue
                dz = z - points[k]
                if dz == 0:
                    dz = complex(_EPS, _EPS)
                s += 1 / dz
            denom = 1 - newton * s
            step = newton if denom == 0 else newton / denom
            points[j] = z - step
            if abs(step) > _STEP_TOL * (1.0 + abs(points[j])):
                done = False
        if done:
            return _finite(_cluster_report(points, monic, dmonic, it))
    raise NonConvergenceError(
        f"root iteration did not converge within {_MAX_ITER} passes",
        report=_cluster_report(points, monic, dmonic, _MAX_ITER))


def poly_divide(phi: ZeonPolynomial, psi: ZeonPolynomial,
                tol: Tolerances = DEFAULT) -> tuple[ZeonPolynomial, ZeonPolynomial]:
    """Long division phi = q * psi + r with deg r < deg psi.

    The divisor's leading coefficient must be invertible; quotient and
    remainder are then unique.
    """
    if phi.n != psi.n:
        raise DimensionMismatch("polynomials live in different algebras")
    if psi.is_zero(tol):
        raise PolyDivisionError("division by the zero polynomial")
    lead = psi.leading
    if not lead.is_invertible(tol):
        raise PolyDivisionError("divisor leading coefficient is not invertible")
    n = phi.n
    dpsi = psi.degree
    if phi.degree < dpsi:
        return ZeonPolynomial([ZeonElement.zero(n)]), phi
    lead_inv = lead.inverse(tol)
    rem = list(phi.coeffs)
    dq = phi.degree - dpsi
    quot = [ZeonElement.zero(n)] * (dq + 1)
    for k in range(dq, -1, -1):
        top = rem[k + dpsi]
        if top.terms:
            c = top.mul(lead_inv, tol)
            quot[k] = c
            for i in range(dpsi):
                rem[k + i] = rem[k + i].sub(c.mul(psi.coeffs[i], tol), tol)
        rem[k + dpsi] = ZeonElement.zero(n)  # cancelled by construction
    remainder = rem[:dpsi] if dpsi > 0 else [ZeonElement.zero(n)]
    return ZeonPolynomial(quot), ZeonPolynomial(remainder)


class _Residual:
    """Nilpotent part of a table residual, held as blade arrays.

    Answers min_grade, grade_part and norm_inf as the dual part of an
    element would, so the lift loop reads either form.
    """

    __slots__ = ("n", "masks", "grades", "values")

    def __init__(self, n: int, masks: np.ndarray, grades: np.ndarray, values: np.ndarray):
        self.n, self.masks, self.grades, self.values = n, masks, grades, values

    def min_grade(self) -> int:
        return int(self.grades.min()) if len(self.grades) else self.n + 1

    def grade_part(self, k: int) -> ZeonElement:
        keep = self.grades == k
        return ZeonElement._wrap(self.n, dict(zip(self.masks[keep].tolist(),
                                                  self.values[keep].tolist())))

    def norm_inf(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))


def _blade_table(elements: Sequence[ZeonElement],
                 support: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elements as the rows of one complex array over their blade union.

    support is that union, ascending; returns it as int64 masks, their
    grades, and the len(elements) x len(support) array.
    """
    masks = np.array(support, np.int64)
    table = np.zeros((len(elements), len(support)), complex)
    for row, e in zip(table, elements):
        count = len(e.terms)
        row[np.searchsorted(masks, np.fromiter(e.terms, np.int64, count))] = \
            np.fromiter(e.terms.values(), complex, count)
    return masks, np.array([m.bit_count() for m in support], np.int64), table


def _support(elements: Iterable[ZeonElement]) -> list[int]:
    """Ascending union of the blades the elements store."""
    return sorted(set().union(*(e.terms for e in elements)))


def _sum_by_mask(masks: np.ndarray, grades: np.ndarray,
                 values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One entry per distinct mask, its values summed; masks must be non-empty."""
    order = np.argsort(masks, kind="stable")
    masks = masks[order]
    starts = np.flatnonzero(np.concatenate(([True], masks[1:] != masks[:-1])))
    return masks[starts], grades[order[starts]], np.add.reduceat(values[order], starts)


class _TaylorTable:
    """A monic polynomial as one (degree + 1) x |S| coefficient array.

    S is the union of the blades its coefficients store, held as ascending
    int64 masks with their grades; row k holds coefficient k on S.
    """

    def __init__(self, monic: ZeonPolynomial, support: list[int]):
        self.masks, self.grades, self.coeffs = _blade_table(monic.coeffs, support)

    def taylor_rows(self, base: complex) -> np.ndarray:
        """Rows T_j = phi^(j)(base) / j!, by repeated synthetic division by (u - base)."""
        rows = self.coeffs.copy()
        d = len(rows) - 1
        for j in range(d):
            for k in range(d - 1, j - 1, -1):
                rows[k] += base * rows[k + 1]
        return rows

    def residual(self, rows: np.ndarray, delta: ZeonElement, tol: Tolerances) -> _Residual:
        """Nilpotent part of phi(base + delta) = sum_j T_j delta^j, rows from taylor_rows.

        The powers delta^j, up to the last nonzero one, are small elements;
        with T their blade union the residual is one (|S| x J)(J x |T|)
        product, scattered onto s | t for disjoint pairs (s, t) with the
        duplicates summed. Column blocks of the powers keep the pair block
        under _PAIR_BLOCK cells. Pruned by the element rule, |c| >= tol.prune.
        """
        powers = [ZeonElement.one(delta.n)]
        power = delta
        while power.terms and len(powers) < len(rows):
            powers.append(power)
            power = power.mul(delta, tol)
        masks, grades, table = _blade_table(powers, _support(powers))
        left = rows[:len(powers)].T
        width = max(1, _PAIR_BLOCK // len(self.masks))
        # every column pairs with the scalar blade of S (coefficient d is 1),
        # so no block is empty
        blocks = []
        for start in range(0, len(masks), width):
            cols = slice(start, start + width)
            disjoint = (self.masks[:, None] & masks[None, cols]) == 0
            blocks.append(_sum_by_mask((self.masks[:, None] | masks[None, cols])[disjoint],
                                       (self.grades[:, None] + grades[None, cols])[disjoint],
                                       (left @ table[:, cols])[disjoint]))
        out_masks, out_grades, values = blocks[0] if len(blocks) == 1 else _sum_by_mask(
            *(np.concatenate(parts) for parts in zip(*blocks)))
        keep = (out_masks != 0) & (np.abs(values) >= tol.prune)
        return _Residual(delta.n, out_masks[keep], out_grades[keep], values[keep])


class _Lifter:
    """What lifting the zeros of one polynomial shares.

    The monic polynomial, its shadow f and f', the coefficient scale and,
    for a large polynomial, its Taylor table; built once, then lift runs
    per shadow zero. Nothing is cached on the polynomial itself.
    """

    def __init__(self, phi: ZeonPolynomial, tol: Tolerances):
        if not phi.leading.is_invertible(tol):
            raise PolyDivisionError("leading coefficient must be invertible to lift zeros")
        self.monic = monic = phi.monic(tol)
        self.f = induce_complex(monic, tol)
        if self.f.degree < 1:
            raise ZeonError("cannot lift zeros of a constant polynomial")
        self.df = self.f.derivative()
        self.coeff_scale = max(c.norm_inf() for c in monic.coeffs)
        self.tol = tol
        support = _support(monic.coeffs)
        self.table = (_TaylorTable(monic, support)
                      if len(monic.coeffs) * len(support) >= _TABLE_MIN_CELLS else None)

    def _horner(self, lam: ZeonElement) -> ZeonElement:
        """Nilpotent part of monic(lam) by element Horner."""
        return self.monic.evaluate(lam, self.tol).dual_part()

    def lift(self, lam0: complex) -> ZeonElement:
        """The zeon zero above the simple shadow zero lam0; see lift_simple_zero.

        A lift that stops on the table is run again by element Horner, whose
        outcome stands: the stop rule can see rounding residue that Horner's
        prune after every product removes, so a table-only lift would refuse
        zeros that Horner lifts.
        """
        lam0 = complex(lam0)
        zero, simple = _shadow_zero(self.f, self.df, lam0)
        if not zero:
            raise ZeonError(f"{_fmt_c(lam0)} is not a zero of the complex shadow")
        if not simple:
            raise SpectralSimplicityError(
                f"shadow zero {_fmt_c(lam0)} is not simple; it does not lift uniquely")
        start = ZeonElement.scalar(self.monic.n, lam0, self.tol)
        if self.table is not None:
            rows = self.table.taylor_rows(start.scalar_part())
            try:
                return self._lift(lam0, start, lambda lam: self.table.residual(
                    rows, lam.dual_part(), self.tol))
            except NonConvergenceError:
                pass
        return self._lift(lam0, start, self._horner)

    def _lift(self, lam0: complex, lam: ZeonElement, residual) -> ZeonElement:
        """The pass loop and final gate, starting at lam = lam0.

        residual(lam) returns the nilpotent part of monic(lam).
        """
        tol = self.tol
        slope = self.df(lam0)
        n = self.monic.n
        dual = residual(lam)
        prev_grade = 0
        # dual is always the nilpotent part of the residual of the current lam.
        for _ in range(n + 1):
            grade = dual.min_grade()
            if not prev_grade < grade <= n:
                break
            lam = lam.sub(dual.grade_part(grade).scale(1 / slope, tol), tol)
            dual = residual(lam)
            prev_grade = grade
        if dual.norm_inf() > tol.compare * self.f.degree * self.coeff_scale:
            raise NonConvergenceError(
                f"lift of shadow zero {_fmt_c(lam0)} stopped with residual "
                f"{dual.norm_inf():.3g} against coefficient scale {self.coeff_scale:.3g}",
                report=lam)
        return lam


def lift_simple_zero(phi: ZeonPolynomial, lam0: complex,
                     tol: Tolerances = DEFAULT) -> ZeonElement:
    """Lift a simple zero of the complex shadow to a zeon zero.

    With f the shadow of the monic polynomial, the minimal-grade
    component of phi(lam) determines the next correction:

        lam <- lam - <phi(lam)>_k / f'(lam0)

    In exact arithmetic each pass clears grade k, so at most n passes
    land on the exact zero. In floating point, rounding residue can
    reappear at a grade already cleared; the loop stops as soon as the
    minimal grade fails to rise, and the lift is accepted only when the
    dual part of phi(lam) is within tol.compare * degree of the largest
    coefficient magnitude of the monic polynomial. Otherwise
    NonConvergenceError is raised, with the unfinished lift as its
    report. (The scalar part of phi(lam) is f(lam0), which the shadow-zero
    test, _shadow_zero, bounds on entry.) The correction divisor f'(lam0)
    is nonzero exactly because the zero is simple.

    With lam = lam0 + delta, the residual is phi(lam0 + delta) =
    sum_j T_j delta^j for the Taylor rows T_j = phi^(j)(lam0) / j!. When the
    monic polynomial's coefficient table, (degree + 1) x |S| for S the union
    of its stored blades, has at least _TABLE_MIN_CELLS cells, the rows come
    from that table once per zero and each pass is one array product;
    smaller polynomials take element Horner, monic.evaluate(lam), without
    numpy. A lift that stops on the table runs again by element Horner,
    so the outcome is Horner's whenever the table's is a refusal. This
    builds the monic polynomial, shadow and table for its one zero; split
    and spectral.eigenvalues build them once for all zeros.
    """
    return _Lifter(phi, tol).lift(lam0)


def split(phi: ZeonPolynomial, tol: Tolerances = DEFAULT) -> list[ZeonElement]:
    """All zeon zeros of phi, when the complex shadow has only simple zeros.

    Raises DoesNotSplitError naming the offending zeros otherwise, before
    anything is lifted. The zeros are lifted as lift_simple_zero does, from
    one shared monic polynomial, shadow and Taylor table.
    """
    report = complex_roots(phi, tol)
    bad = [(r.value, r.multiplicity) for r in report.roots if not r.simple]
    if bad:
        desc = ", ".join(f"{_fmt_c(v)} (multiplicity {m})" for v, m in bad)
        raise DoesNotSplitError(
            f"shadow polynomial has non-simple zeros: {desc}", bad)
    lifter = _Lifter(phi, tol)
    return [lifter.lift(r.value) for r in report.roots]


def multiple_zero_family(phi: ZeonPolynomial, zero: ZeonElement, shift: complex,
                         tol: Tolerances = DEFAULT) -> ZeonElement:
    """Translate a zero along the top blade: zero + shift * z_{1..n}.

    Valid when the scalar part of ``zero`` is a multiple zero of the
    shadow: the top blade kills every term of the expansion except
    shift * f'(scalar part) * z_{1..n}, and that derivative vanishes.
    """
    if phi.n != zero.n:
        raise DimensionMismatch("zero lives in a different algebra")
    scale = max(c.norm_inf() for c in phi.coeffs)
    value = phi.evaluate(zero, tol)
    if value.norm_inf() > tol.compare * (1.0 + scale):
        raise ZeonError("the given element is not a zero of the polynomial")
    f = induce_complex(phi, tol)
    shadow_zero, simple = _shadow_zero(f, f.derivative(), zero.scalar_part())
    if not shadow_zero:
        raise ZeonError("scalar part is not a zero of the complex shadow")
    if simple:
        raise ZeonError(
            "scalar part is a simple shadow zero; the top-blade family needs a multiple zero")
    return zero.add(ZeonElement.top_blade(phi.n, shift), tol)
