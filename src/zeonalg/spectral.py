"""Characteristic polynomials, zeon eigenvalues, and the spectral theorem.

A square zeon matrix has a monic characteristic polynomial over the
algebra. When the shadow eigenvalues (of the complex scalar-part
matrix) are all simple, each lifts to a unique zeon eigenvalue, and a
self-adjoint matrix then decomposes as a sum of rank-one projections
onto its normalized eigenvectors, which refinement of the shadow
eigenbasis finds all at once.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from typing import NamedTuple

from . import poly
from ._numpy import np
from .algebra import ZeonElement
from .errors import (DimensionMismatch, NonConvergenceError, NotSelfAdjointError,
                     SpectralSimplicityError, ZeonError)
from .linalg import ZeonMatrix, ZeonVector, _hstack, _shadow_inverse, outer
from .tolerances import DEFAULT, Tolerances


def char_poly(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> poly.ZeonPolynomial:
    """Monic characteristic polynomial det(t I - A), by the trace recursion.

    Faddeev-LeVerrier over the commutative algebra:

        M_1 = A,                      c_{m-1} = -tr(M_1)
        M_k = A (M_{k-1} + c_{m-k+1} I),  c_{m-k} = -tr(M_k) / k

    which only ever divides by integers, so it stays exact up to float
    rounding. Its last matrix gives chi_A(A) = M_m + c_0 I, built from
    the nested products of Horner's rule.
    """
    return _char_poly(matrix, tol)[0]


def _char_poly(matrix: ZeonMatrix, tol: Tolerances) -> tuple[poly.ZeonPolynomial, float]:
    """char_poly and the largest coefficient of chi_A(A) = M_m + c_0 I."""
    matrix._require_square("characteristic polynomial")
    m, n = matrix.rows, matrix.n
    coeffs = [None] * m + [ZeonElement.one(n)]
    mk = matrix
    c = coeffs[m - 1] = mk.trace(tol).scale(-1, tol)
    for k in range(2, m + 1):
        mk = matrix.mul(mk.add(ZeonMatrix.diagonal([c] * m), tol), tol)
        c = coeffs[m - k] = mk.trace(tol).scale(-1.0 / k, tol)
    return poly.ZeonPolynomial(coeffs), mk.add(ZeonMatrix.diagonal([c] * m), tol).norm_inf()


def cayley_hamilton_residual(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> float:
    """Largest coefficient of chi_A(A), from char_poly's last matrix; 0 in exact arithmetic."""
    return _char_poly(matrix, tol)[1]


def eigenvalues(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> list[ZeonElement]:
    """Zeon eigenvalues lifted from the simple shadow eigenvalues.

    Ordered by descending real part of the scalar part (ties broken by
    descending imaginary part). Shadow eigenvalues with multiplicity
    above one do not lift; the list is then shorter than the dimension.
    Each zero of chi_A lifts as lift_simple_zero does, from one monic
    polynomial, shadow and Taylor table; below 1/2, A is scaled up by a
    power of two first, so that the prune keeps chi_A's low coefficients.
    A lift that eigenvector refuses is no eigenvalue: NonConvergenceError
    names its shadow, with the lift, at A's scale, as its report.
    """
    return [value for value, _ in _eigenpairs(matrix, tol)]


def _eigenpairs(matrix: ZeonMatrix, tol: Tolerances) -> list[tuple[ZeonElement, ZeonVector]]:
    """eigenvalues() with the eigenvector that admits each one, solved on 2^k A, an exact
    scaling, k >= 0 the least that brings A's largest coefficient to 1/2 or more, so that
    the absolute prune keeps chi_A's low coefficients; the values are scaled back."""
    matrix._require_square("eigenvalue extraction")
    exponent = min(0, max(-1023, math.frexp(matrix.norm_inf())[1]))    # -k; 2^1023 is a float
    scaled = matrix.scale(2.0 ** -exponent, tol) if exponent else matrix
    chi = char_poly(scaled, tol)
    lifter = poly._Lifter(chi, tol)
    pairs = []
    roots = poly.complex_roots(chi, tol).roots
    for lift in (lifter.lift(root.value) for root in roots if root.simple):
        lam = lift.scale(2.0 ** exponent, tol) if exponent else lift
        try:
            pairs.append((lam, eigenvector(scaled, lift, tol)))
        except ZeonError as err:        # eigenvector's rank or residual test
            raise NonConvergenceError(
                f"the zero of chi_A lifted above {poly._fmt_c(lam.scalar_part())} is not an "
                f"eigenvalue: {err}", report=lam) from err
    return pairs


def eigenvector(matrix: ZeonMatrix, value, tol: Tolerances = DEFAULT) -> ZeonVector:
    """Kernel vector of S = value I - A for a spectrally simple eigenvalue.

    S_0 must have rank m - 1 (_shadow_inverse); its right null vector w gives f = argmax
    |w_f| and x_0 = w / w_f. The pseudo-inverse K, then y -> y - y_f x_0, has K S_0 x =
    x - x_0 when x_f = 1, so the kernel vector is x = sum_j (-K N)^j x_0 with N = dual(S),
    within n + 1 terms as K N is nilpotent; s K against N / s outlives the prune at any
    uniform scale of A (ROADMAP item 4). S x is then a multiple of the left null vector,
    which the residual test checks is 0: exactly when the value is an eigenvalue of A.
    """
    matrix._require_square("eigenvector extraction")
    m, n = matrix.rows, matrix.n
    if not isinstance(value, ZeonElement):
        value = ZeonElement.scalar(n, value, tol)
    if value.n != n:
        raise DimensionMismatch("eigenvalue lives in a different algebra")
    shifted = ZeonMatrix.diagonal([value] * m).sub(matrix, tol)
    rank, size, pinv, right = _shadow_inverse(shifted.scalar_matrix(), tol)
    if rank != m - 1:
        raise SpectralSimplicityError(
            f"shadow of (value I - A) has rank {rank}, expected {m - 1}; "
            "the value is not a spectrally simple eigenvalue")
    free = int(np.argmax(np.abs(right[-1])))
    start = (right[-1] / right[-1, free]).conj()
    kernel = ZeonMatrix.from_scalar_matrix(np.outer(start, pinv[free]) - pinv, n, tol)  # -s K
    step = kernel.mul(shifted.dual().scale(1 / size, tol), tol)                           # -K N
    vec = term = ZeonVector._of(ZeonMatrix.from_scalar_matrix(start[:, None], n, tol))
    for _ in range(n):
        term = step.mul(term, tol)
        if not term.norm_inf():
            break
        vec = vec.add(term, tol)
    residual = shifted.mul(vec, tol).norm_inf()
    if residual > tol.compare * max(1.0, shifted.norm_inf()) * m:
        raise ZeonError(
            f"the kernel series left residual {residual:.3g}; "
            "the value is not an exact eigenvalue of the matrix")
    return vec


def _frame(vectors: Sequence[ZeonVector]) -> ZeonMatrix:
    """Matrix V whose columns are the vectors."""
    if not vectors:
        raise ValueError("need at least one vector")
    m, n = len(vectors[0]), vectors[0].n
    if any(len(v) != m or v.n != n for v in vectors):
        raise DimensionMismatch("vectors have mismatched lengths or algebras")
    return _hstack([v.matrix for v in vectors])


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


class Eigenpair(NamedTuple):
    """One eigenvalue with its raw and normalized eigenvectors."""

    value: ZeonElement
    vector: ZeonVector
    normalized: ZeonVector


class SpectralDecomposition(NamedTuple):
    """Full eigendata of a self-adjoint matrix plus verification residuals.

    checks holds max residuals on V, the returned frame of normalized eigenvectors:
    projection idempotence and pairwise orthogonality (read off V-adjoint V - I), resolution
    of the identity (V V-adjoint - I), reconstruction of A (V Lambda V-adjoint - A over A's
    largest entry magnitude) and "orthonormal" (the largest coefficient of V-adjoint V - I).
    Arithmetic prunes, so a check reads exactly 0.0 whenever every residual coefficient is
    below tol.prune.
    """

    eigenpairs: tuple[Eigenpair, ...]
    projections: tuple[ZeonMatrix, ...]
    checks: dict

    def to_json(self) -> dict:
        return {"eigenvalues": [p.value.to_json() for p in self.eigenpairs],
                "eigenvectors": [p.normalized.to_json() for p in self.eigenpairs],
                "projections": [p.to_json() for p in self.projections],
                "checks": dict(self.checks)}


# A Jacobi rotation is due where |a_pq| > _JACOBI_REL sqrt(|a_pp a_qq|).
_JACOBI_REL = 2.0 ** -52
# Cyclic Jacobi converges quadratically: at most 8 sweeps, the last one
# quiet, on random Hermitian matrices with m <= 16; the cap only keeps a
# fault from looping forever.
_JACOBI_MAX_SWEEPS = 64


def _hermitian_eigen(shadow: Sequence[Sequence[complex]]
                     ) -> tuple[list[float], list[list[complex]]]:
    """Eigenvalues, descending, and orthonormal eigenvectors (the columns) of a Hermitian matrix.

    Cyclic Jacobi (Jacobi 1846), in pure Python, on the matrix its lower
    triangle defines. Each rotation in the (p, q) plane, a phase on q times
    a real rotation, sets a_pq to 0; a sweep visits every p < q and rotates
    where |a_pq| > _JACOBI_REL sqrt(|a_pp a_qq|), the stopping test relative
    to the diagonal of Demmel and Veselic (SIAM J. Matrix Anal. Appl. 13,
    1992). The first sweep that rotates nowhere ends it.
    """
    m = len(shadow)
    if not all(cmath.isfinite(c) for row in shadow for c in row):
        raise ZeonError("the shadow matrix holds a non-finite entry; it has no eigenbasis")
    a = [[complex(shadow[i][j].real) if i == j else
          complex(shadow[i][j]) if i > j else complex(shadow[j][i]).conjugate()
          for j in range(m)] for i in range(m)]
    v = [[1.0 + 0j if i == j else 0j for j in range(m)] for i in range(m)]
    for _ in range(_JACOBI_MAX_SWEEPS):
        rotated = False
        for p in range(m - 1):
            for q in range(p + 1, m):
                r = abs(a[p][q])
                app, aqq = a[p][p].real, a[q][q].real
                if not r > _JACOBI_REL * math.sqrt(abs(app)) * math.sqrt(abs(aqq)):
                    continue
                rotated = True
                phase = (a[p][q] / r).conjugate()      # makes a_pq real and positive
                tau = (aqq - app) / (2 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1 / math.hypot(1.0, t)
                s = t * c
                sp, cp = s * phase, c * phase
                for k in range(m):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = c * akp - sp * akq
                        a[k][q] = s * akp + cp * akq
                        a[p][k] = a[k][p].conjugate()
                        a[q][k] = a[k][q].conjugate()
                a[p][p] = complex(app - t * r)
                a[q][q] = complex(aqq + t * r)
                a[p][q] = a[q][p] = 0j
                for row in v:
                    vp, vq = row[p], row[q]
                    row[p] = c * vp - sp * vq
                    row[q] = s * vp + cp * vq
        if not rotated:
            break
    else:
        raise NonConvergenceError(f"Jacobi did not converge in {_JACOBI_MAX_SWEEPS} sweeps")
    values = [a[i][i].real for i in range(m)]
    order = sorted(range(m), key=values.__getitem__, reverse=True)
    return [values[j] for j in order], [[row[j] for j in order] for row in v]


def _refine(matrix: ZeonMatrix, tol: Tolerances):
    """Eigenvalue row and eigenvector frame X of a self-adjoint matrix.

    Refinement of the shadow eigenbasis (Ogita and Aishima, 2018) with no
    series in it. X starts at the shadow's eigenvectors, columns by descending
    eigenvalue; SpectralSimplicityError names each cluster of eigenvalues
    closer than tol.scalar_zero times the largest magnitude. Each pass forms
    G = X-adjoint X = I - R and S = X-adjoint A X, then lambda_i = S_ii (2 - G_ii),
    E_ii = R_ii / 2 and E_ij = (S_ij - lambda_j G_ij) W_ij for i != j, and
    sets X <- X + X E. W, 0 on the diagonal, starts at the inverse shadow gaps
    and takes one Newton step W <- W o (2 - U o W) per pass toward the inverse
    of the gaps U_ij = lambda_j - lambda_i. The lowest grade of X's error
    doubles each pass, and the errors of lambda (O(R^2)) and W (squared by
    each step) stay at or above it, so n.bit_length() passes reach the exact
    frame; one more is run as a margin. Returns the 1 x m row of eigenvalues and X.

    The shadow eigenbasis comes from _hermitian_eigen, and the scalar
    matrices from nested lists, so on element grids nothing loads numpy.
    """
    m, n = matrix.rows, matrix.n
    values, vectors = _hermitian_eigen(matrix._scalars())
    bound = tol.scalar_zero * max(map(abs, values))
    clusters = [[values[0]]]
    for above, value in zip(values, values[1:]):
        if above - value <= bound:
            clusters[-1].append(value)
        else:
            clusters.append([value])
    if len(clusters) < m:
        desc = ", ".join(f"{sum(c) / len(c):.6g} x{len(c)}" for c in clusters if len(c) > 1)
        raise SpectralSimplicityError(
            f"shadow spectrum is not simple ({desc}); no unique decomposition")

    x = ZeonMatrix.from_scalar_matrix(vectors, n, tol)
    two = ZeonMatrix.from_scalar_matrix([[2.0] * m] * m, n, tol)
    w = ZeonMatrix.from_scalar_matrix([[0.0 if i == j else 1 / (vj - vi)
                                        for j, vj in enumerate(values)]
                                       for i, vi in enumerate(values)], n, tol)
    half = [[0.5 if i == j else 0.0 for j in range(m)] for i in range(m)]
    eye = ZeonMatrix.identity(m, n)
    diagonal, lower = list(range(m)), list(range(m, 2 * m))
    # A X rides along as the lower half of Z = [X; A X], so one product
    # per pass updates both: Z <- Z + Z E
    z = _hstack([x.transpose(), matrix.mul(x, tol).transpose()]).transpose()
    for _ in range(n.bit_length() + 1):
        x = z._block(diagonal, diagonal)
        gram_and_s = x.adjoint().mul(_hstack([x, z._block(lower, diagonal)]), tol)
        gram = gram_and_s._block(diagonal, diagonal)                     # G = I - R
        s = gram_and_s._block(diagonal, lower)
        lam = s._gather(diagonal, diagonal)._entrywise(
            two.sub(gram, tol)._gather(diagonal, diagonal), tol)           # S_ii (2 - G_ii)
        lam_cols = lam._block([0] * m, diagonal)                         # (i, j) -> lambda_j
        gaps = lam_cols.sub(lam_cols.transpose(), tol)                   # U, 0 on the diagonal
        w = w._entrywise(two.sub(gaps._entrywise(w, tol), tol), tol)
        correction = s.sub(gram._entrywise(lam_cols, tol), tol)._entrywise(w, tol).add(
            eye.sub(gram, tol)._entrywise(half, tol), tol)
        z = z.add(z.mul(correction, tol), tol)
    return lam, z._block(diagonal, diagonal)


def spectral_decompose(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> SpectralDecomposition:
    """Spectral theorem for a self-adjoint matrix with simple shadow spectrum.

    All m eigenpairs come from one refinement of the shadow eigenbasis
    (_refine), which also decides simplicity, in a fixed n.bit_length() + 1
    passes. X-adjoint X = I, so with f where column j's shadow is largest,
    one -1/2 power p_j = (X_fj conj(X_fj))^(-1/2) = |X_fj|^-1 gives the normalized
    v_j = X_j conj(X_fj) p_j, its coordinate f real with a positive shadow, and
    the raw v_j p_j = X_j X_fj^-1. _verified checks the frame it returns on
    the two products that prove it; chi_A is never built.
    """
    matrix._require_square("spectral decomposition")
    if not matrix.is_self_adjoint(tol):
        raise NotSelfAdjointError("matrix is not self-adjoint within tolerance")
    lam, x = _refine(matrix, tol)
    diagonal, first = list(range(matrix.rows)), [0] * matrix.rows
    shadow = x._scalars()
    free = [max(diagonal, key=lambda i: abs(shadow[i][j])) for j in diagonal]
    pivots = x._gather(free, diagonal).conjugate()                       # conj(X_fj) in column j
    scales = pivots._entrywise(pivots.conjugate(), tol)._entrywise_power(-0.5, tol)   # p_j
    frame = x._entrywise(pivots._entrywise(scales, tol)._block(first, diagonal), tol)
    raw = frame._entrywise(scales._block(first, diagonal), tol)
    return _verified(matrix, lam, raw, frame, tol)


def _verified(matrix: ZeonMatrix, lam: ZeonMatrix, raw: ZeonMatrix, frame: ZeonMatrix,
              tol: Tolerances) -> SpectralDecomposition:
    """Decomposition with values lam, raw vectors and normalized frame V, checked on V.

    Raises NonConvergenceError, with the decomposition as its report, when
    either check it gates on, "orthonormal" or "reconstruction", exceeds tol.compare * m.
    """
    m, n = matrix.rows, matrix.n
    diagonal = list(range(m))
    normalized = [ZeonVector._of(frame._block(diagonal, [j])) for j in diagonal]
    pairs = tuple(Eigenpair(value, ZeonVector._of(raw._block(diagonal, [j])), normalized[j])
                  for j, value in enumerate(lam.entries[0]))
    # pi_j pi_k - delta_jk pi_j = v_j E_jk v_k-adjoint with E = V-adjoint V - I
    gram_defect = _gram_defect(frame, tol)
    residual = {(j, k): outer(normalized[j].scale(e, tol), normalized[k], tol).norm_inf()
                for j, row in enumerate(gram_defect.entries) for k, e in enumerate(row) if e.terms}
    # V [V-adjoint | Lambda V-adjoint] holds V V-adjoint and V Lambda V-adjoint
    frame_h = frame.adjoint()
    lam_rows = lam._block([0] * m, diagonal).transpose()                 # (i, j) -> lambda_i
    both = frame.mul(_hstack([frame_h, lam_rows._entrywise(frame_h, tol)]), tol)
    misfit = both._block(diagonal, range(m, 2 * m)).sub(matrix, tol).norm_inf()
    checks = {
        "idempotent": max((r for (j, k), r in residual.items() if j == k), default=0.0),
        "orthogonal": max((r for (j, k), r in residual.items() if j != k), default=0.0),
        "identity": both._block(diagonal, diagonal).sub(ZeonMatrix.identity(m, n), tol).norm_inf(),
        "reconstruction": misfit / (matrix.norm_inf() or 1.0),
        "orthonormal": gram_defect.norm_inf(),
    }
    result = SpectralDecomposition(pairs, tuple(outer(v, v, tol) for v in normalized), checks)
    defect = max(checks["orthonormal"], checks["reconstruction"])
    if defect > tol.compare * m:
        raise NonConvergenceError(
            f"the refined eigenvector frame is off by {defect:.3g}; no decomposition returned",
            report=result)
    return result


def eigen_independence_check(pairs: Sequence, tol: Tolerances = DEFAULT) -> bool:
    """Shadow-rank test for eigenvector independence.

    The complex matrix whose columns are the scalar parts of the
    eigenvectors must have full column rank by _shadow_inverse; over this
    algebra that is exactly linear independence of the eigenvectors themselves.
    """
    shadow = _frame([p.vector if isinstance(p, Eigenpair) else p for p in pairs]).scalar_matrix()
    return _shadow_inverse(shadow, tol)[0] == shadow.shape[1]     # rank <= rows: wide fails
