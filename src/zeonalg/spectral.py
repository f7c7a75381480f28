"""Characteristic polynomials, zeon eigenvalues, and the spectral theorem.

A square zeon matrix has a monic characteristic polynomial over the
algebra. When the shadow eigenvalues (of the complex scalar-part
matrix) are all simple, each lifts to a unique zeon eigenvalue, and a
self-adjoint matrix then decomposes as a sum of rank-one projections
onto its normalized eigenvectors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import ZeonElement
from .errors import (DimensionMismatch, NotSelfAdjointError,
                     SpectralSimplicityError, ZeonError)
from .linalg import ZeonMatrix, ZeonVector, eliminate, normalize, outer
from .poly import ZeonPolynomial, complex_roots, induce_complex, lift_simple_zero
from .tolerances import DEFAULT, Tolerances


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(t I - A) over the algebra."""

    poly: ZeonPolynomial

    def shadow(self, tol: Tolerances = DEFAULT):
        return induce_complex(self.poly, tol)

    def to_json(self) -> dict:
        return self.poly.to_json()


def char_poly(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> CharPoly:
    """Characteristic polynomial by the trace recursion.

    Faddeev-LeVerrier over the commutative algebra:

        M_1 = A,                      c_{m-1} = -tr(M_1)
        M_k = A (M_{k-1} + c_{m-k+1} I),  c_{m-k} = -tr(M_k) / k

    which only ever divides by integers, so it stays exact up to float
    rounding.
    """
    matrix._require_square("characteristic polynomial")
    m, n = matrix.rows, matrix.n
    coeffs = [ZeonElement.zero(n) for _ in range(m + 1)]
    coeffs[m] = ZeonElement.one(n)
    mk = matrix
    c = mk.trace(tol).scale(-1, tol)
    coeffs[m - 1] = c
    for k in range(2, m + 1):
        mk = matrix.mul(mk.add(ZeonMatrix.diagonal([c] * m), tol), tol)
        c = mk.trace(tol).scale(-1.0 / k, tol)
        coeffs[m - k] = c
    return CharPoly(ZeonPolynomial(coeffs, tol))


def _char_residual(matrix: ZeonMatrix, chi: ZeonPolynomial, tol: Tolerances) -> float:
    m = matrix.rows
    acc = ZeonMatrix.diagonal([chi.coeffs[-1]] * m)
    for k in range(chi.degree - 1, -1, -1):
        acc = acc.mul(matrix, tol).add(ZeonMatrix.diagonal([chi.coeffs[k]] * m), tol)
    return acc.norm_inf()


def cayley_hamilton_residual(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> float:
    """Largest coefficient magnitude of chi_A(A); zero in exact arithmetic."""
    chi = char_poly(matrix, tol).poly
    return _char_residual(matrix, chi, tol)


def _lifted_spectrum(matrix: ZeonMatrix, tol: Tolerances):
    """chi_A, its shadow roots, and the zeon lifts of the simple ones, in root order."""
    chi = char_poly(matrix, tol).poly
    roots = complex_roots(chi, tol).roots
    return chi, roots, [lift_simple_zero(chi, root.value, tol)
                        for root in roots if root.simple]


def eigenvalues(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> list[ZeonElement]:
    """Zeon eigenvalues lifted from the simple shadow eigenvalues.

    Ordered by descending real part of the scalar part (ties broken by
    descending imaginary part). Shadow eigenvalues with multiplicity
    above one do not lift; the list is then shorter than the dimension.
    """
    return _lifted_spectrum(matrix, tol)[2]


def eigenvector(matrix: ZeonMatrix, value, tol: Tolerances = DEFAULT) -> ZeonVector:
    """Kernel vector of (value I - A) for a spectrally simple eigenvalue.

    The free coordinate is the one where the null vector of the shadow
    value_0 I - A_0 is largest. Moving that column last before
    elimination leaves the pivots to the other m - 1 columns, so no
    pivot is small merely because an eigenvector component is. Elimination
    must find exactly m - 1 invertible pivots; the free coordinate is
    set to 1 and the rest back-substituted, so the result always has an
    invertible component.
    """
    matrix._require_square("eigenvector extraction")
    m, n = matrix.rows, matrix.n
    if isinstance(value, (int, float, complex)):
        value = ZeonElement.scalar(n, value, tol)
    if value.n != n:
        raise DimensionMismatch("eigenvalue lives in a different algebra")
    shifted = ZeonMatrix.diagonal([value] * m).sub(matrix, tol)
    null = np.linalg.svd(shifted.scalar_matrix())[2][-1]
    free = int(np.argmax(np.abs(null)))
    order = [c for c in range(m) if c != free] + [free]
    report = eliminate(ZeonMatrix([[row[c] for c in order] for row in shifted.entries]), tol)
    if report.pivot_count != m - 1:
        raise SpectralSimplicityError(
            f"(value I - A) reduced to {report.pivot_count} invertible pivots, "
            f"expected {m - 1}; the eigenvalue is not spectrally simple")
    pivot_cols = {col for _, col in report.pivots}
    free_col = next(c for c in range(m) if c not in pivot_cols)
    upper = report.upper.entries
    x: list[ZeonElement | None] = [None] * m
    x[free_col] = ZeonElement.one(n)
    for idx in range(report.pivot_count - 1, -1, -1):
        prow, pcol = report.pivots[idx]
        acc = ZeonElement.zero(n)
        # the free column may sit left of this pivot when a column was skipped
        for c in range(m):
            if c == pcol:
                continue
            entry = upper[prow][c]
            if not entry.terms or x[c] is None:
                continue
            acc = acc.add(entry.mul(x[c], tol), tol)
        x[pcol] = acc.scale(-1).mul(upper[prow][pcol].inverse(tol), tol)
    vec = ZeonVector([x[order.index(c)] for c in range(m)])
    residual = shifted.mul(vec, tol).norm_inf()
    if residual > tol.compare * max(1.0, shifted.norm_inf()) * m:
        raise ZeonError(
            f"back-substitution left residual {residual:.3g}; "
            "the value is not an exact eigenvalue of the matrix")
    return vec


def _frame(vectors: Sequence[ZeonVector]) -> ZeonMatrix:
    """Matrix V whose columns are the vectors."""
    if not vectors:
        raise ValueError("need at least one vector")
    m, n = len(vectors[0]), vectors[0].n
    if any(len(v) != m or v.n != n for v in vectors):
        raise DimensionMismatch("vectors have mismatched lengths or algebras")
    return ZeonMatrix(zip(*(v.entries for v in vectors)))


def _gram_defect(frame: ZeonMatrix, tol: Tolerances) -> ZeonMatrix:
    """V-adjoint V - I, whose (j, k) entry is <v_k, v_j> - delta_jk."""
    return frame.adjoint().mul(frame, tol).sub(ZeonMatrix.identity(frame.cols, frame.n), tol)


def projection(vector: ZeonVector, tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Rank-one projection v v-adjoint onto a normalized vector."""
    return resolution_of_identity([vector], tol)


def resolution_of_identity(vectors: Sequence[ZeonVector],
                           tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Sum V V-adjoint of the rank-one projections of an orthonormal family.

    Equals the identity when the family is a full orthonormal basis.
    """
    frame = _frame(vectors)
    worst, j, k = max(((e.norm_inf(), j, k)
                       for j, row in enumerate(_gram_defect(frame, tol).entries)
                       for k, e in enumerate(row)), key=lambda t: t[0])
    if worst > tol.compare:
        raise ZeonError(
            f"vectors {j} and {k} are not orthonormal (inner-product error {worst:.3g})")
    return frame.mul(frame.adjoint(), tol)


@dataclass(frozen=True)
class Eigenpair:
    """One lifted eigenvalue with its raw and normalized eigenvectors."""

    value: ZeonElement
    vector: ZeonVector
    normalized: ZeonVector
    spectrally_simple: bool = True

    def to_json(self) -> dict:
        return {"value": self.value.to_json(),
                "vector": self.vector.to_json(),
                "normalized": self.normalized.to_json(),
                "spectrally_simple": self.spectrally_simple}


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigendata of a self-adjoint matrix plus verification residuals.

    checks holds max residuals: projection idempotence, pairwise
    orthogonality, resolution of the identity, reconstruction of A
    (relative to its largest entry magnitude), Cayley-Hamilton, and
    "orthonormal", the largest coefficient of V-adjoint V - I.
    """

    eigenpairs: tuple[Eigenpair, ...]
    projections: tuple[ZeonMatrix, ...]
    checks: dict

    def to_json(self) -> dict:
        return {"eigenvalues": [p.value.to_json() for p in self.eigenpairs],
                "eigenvectors": [p.normalized.to_json() for p in self.eigenpairs],
                "projections": [p.to_json() for p in self.projections],
                "checks": dict(self.checks)}


def spectral_decompose(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> SpectralDecomposition:
    """Spectral theorem for a self-adjoint matrix with simple shadow spectrum.

    Lifts every shadow eigenvalue, extracts and normalizes eigenvectors,
    builds the rank-one projections, and verifies the defining identities,
    reporting the residuals instead of trusting them silently.
    """
    matrix._require_square("spectral decomposition")
    if not matrix.is_self_adjoint(tol):
        raise NotSelfAdjointError("matrix is not self-adjoint within tolerance")
    m, n = matrix.rows, matrix.n
    chi, roots, values = _lifted_spectrum(matrix, tol)
    bad = [r for r in roots if not r.simple]
    if bad:
        desc = ", ".join(f"{r.value:.6} x{r.multiplicity}" for r in bad)
        raise SpectralSimplicityError(
            f"shadow spectrum is not simple ({desc}); no unique decomposition")
    pairs = []
    projections = []
    for lam in values:
        xi = eigenvector(matrix, lam, tol)
        nv = normalize(xi, tol)
        pairs.append(Eigenpair(lam, xi, nv, True))
        projections.append(outer(nv, nv, tol))
    # pi_j pi_k - delta_jk pi_j = v_j E_jk v_k-adjoint with E = V-adjoint V - I
    normalized = [pair.normalized for pair in pairs]
    defect = _gram_defect(_frame(normalized), tol)
    residual = {(j, k): outer(normalized[j].scale(e, tol), normalized[k], tol).norm_inf()
                for j, row in enumerate(defect.entries) for k, e in enumerate(row) if e.terms}
    total = ZeonMatrix.zero(m, m, n)
    recon = ZeonMatrix.zero(m, m, n)
    for pair, pj in zip(pairs, projections):
        total = total.add(pj, tol)
        recon = recon.add(pj.scale(pair.value, tol), tol)
    checks = {
        "idempotent": max((r for (j, k), r in residual.items() if j == k), default=0.0),
        "orthogonal": max((r for (j, k), r in residual.items() if j != k), default=0.0),
        "identity": total.sub(ZeonMatrix.identity(m, n), tol).norm_inf(),
        "reconstruction": recon.sub(matrix, tol).norm_inf() / (matrix.norm_inf() or 1.0),
        "cayley_hamilton": _char_residual(matrix, chi, tol),
        "orthonormal": defect.norm_inf(),
    }
    return SpectralDecomposition(tuple(pairs), tuple(projections), checks)


def eigen_independence_check(pairs: Sequence, tol: Tolerances = DEFAULT) -> bool:
    """Shadow-rank test for eigenvector independence.

    The complex matrix whose columns are the scalar parts of the
    eigenvectors must have full column rank; over this algebra that is
    exactly linear independence of the eigenvectors themselves.
    """
    vectors = [p.vector if isinstance(p, Eigenpair) else p for p in pairs]
    shadow = _frame(vectors).scalar_matrix()
    if shadow.shape[1] > shadow.shape[0]:
        return False
    singular_values = np.linalg.svd(shadow, compute_uv=False)
    return bool(singular_values[-1] > tol.scalar_zero * max(1.0, float(singular_values[0])))
