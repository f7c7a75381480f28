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
from .linalg import ZeonMatrix, ZeonVector, eliminate, inner_product, normalize, outer
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
    identity = ZeonMatrix.identity(m, n)
    coeffs = [ZeonElement.zero(n) for _ in range(m + 1)]
    coeffs[m] = ZeonElement.one(n)
    mk = matrix
    c = mk.trace(tol).scale(-1, tol)
    coeffs[m - 1] = c
    for k in range(2, m + 1):
        mk = matrix.mul(mk.add(identity.scale(c, tol), tol), tol)
        c = mk.trace(tol).scale(-1.0 / k, tol)
        coeffs[m - k] = c
    return CharPoly(ZeonPolynomial(coeffs, tol))


def _char_residual(matrix: ZeonMatrix, chi: ZeonPolynomial, tol: Tolerances) -> float:
    m, n = matrix.rows, matrix.n
    identity = ZeonMatrix.identity(m, n)
    acc = identity.scale(chi.coeffs[-1], tol)
    for k in range(chi.degree - 1, -1, -1):
        acc = acc.mul(matrix, tol).add(identity.scale(chi.coeffs[k], tol), tol)
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
    shifted = ZeonMatrix.identity(m, n).scale(value, tol).sub(matrix, tol)
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


def projection(vector: ZeonVector, tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Rank-one projection v v-adjoint onto a normalized vector."""
    ip = inner_product(vector, vector, tol)
    if not ip.allclose(ZeonElement.one(vector.n), tol):
        raise ZeonError("projection needs a normalized vector with <v, v> = 1")
    return outer(vector, vector, tol)


def resolution_of_identity(vectors: Sequence[ZeonVector],
                           tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Sum of the rank-one projections of an orthonormal family.

    Equals the identity when the family is a full orthonormal basis.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    m = len(vectors[0])
    n = vectors[0].n
    worst = 0.0
    worst_pair = (0, 0)
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            ip = inner_product(vi, vj, tol)
            target = ZeonElement.one(n) if i == j else ZeonElement.zero(n)
            err = ip.max_diff(target)
            if err > worst:
                worst, worst_pair = err, (i, j)
    if worst > tol.compare:
        raise ZeonError(
            f"vectors {worst_pair[0]} and {worst_pair[1]} are not orthonormal "
            f"(inner-product error {worst:.3g})")
    acc = ZeonMatrix.zero(m, m, n)
    for v in vectors:
        acc = acc.add(outer(v, v, tol), tol)
    return acc


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
    (relative to its largest entry magnitude), and Cayley-Hamilton.
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
    identity = ZeonMatrix.identity(m, n)
    idem = 0.0
    ortho = 0.0
    for j, pj in enumerate(projections):
        idem = max(idem, pj.mul(pj, tol).sub(pj, tol).norm_inf())
        for k, pk in enumerate(projections):
            if j != k:
                ortho = max(ortho, pj.mul(pk, tol).norm_inf())
    total = ZeonMatrix.zero(m, m, n)
    recon = ZeonMatrix.zero(m, m, n)
    for pair, pj in zip(pairs, projections):
        total = total.add(pj, tol)
        recon = recon.add(pj.scale(pair.value, tol), tol)
    checks = {
        "idempotent": idem,
        "orthogonal": ortho,
        "identity": total.sub(identity, tol).norm_inf(),
        "reconstruction": recon.sub(matrix, tol).norm_inf() / (matrix.norm_inf() or 1.0),
        "cayley_hamilton": _char_residual(matrix, chi, tol),
    }
    return SpectralDecomposition(tuple(pairs), tuple(projections), checks)


def eigen_independence_check(pairs: Sequence, tol: Tolerances = DEFAULT) -> bool:
    """Shadow-rank test for eigenvector independence.

    The complex matrix whose columns are the scalar parts of the
    eigenvectors must have full column rank; over this algebra that is
    exactly linear independence of the eigenvectors themselves.
    """
    if not pairs:
        raise ValueError("need at least one eigenpair or vector")
    vectors = [p.vector if isinstance(p, Eigenpair) else p for p in pairs]
    m = len(vectors[0])
    if len(vectors) > m:
        return False
    for v in vectors:
        if len(v) != m:
            raise DimensionMismatch("eigenvectors have mismatched lengths")
    shadow = np.array([[v[i].scalar_part() for v in vectors] for i in range(m)],
                      dtype=complex)
    singular_values = np.linalg.svd(shadow, compute_uv=False)
    return bool(singular_values[-1] > tol.scalar_zero * max(1.0, float(singular_values[0])))
