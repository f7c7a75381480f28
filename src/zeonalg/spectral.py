"""Characteristic polynomials, zeon eigenvalues, and the spectral theorem.

A square zeon matrix has a monic characteristic polynomial over the
algebra. When the shadow eigenvalues (of the complex scalar-part
matrix) are all simple, each lifts to a unique zeon eigenvalue, and a
self-adjoint matrix then decomposes as a sum of rank-one projections
onto its normalized eigenvectors, which refinement of the shadow
eigenbasis finds all at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import ZeonElement
from .errors import (DimensionMismatch, NonConvergenceError, NotSelfAdjointError,
                     SpectralSimplicityError, ZeonError)
from .linalg import (ZeonMatrix, ZeonVector, _hstack, _shadow_rank, mat_inverse, normalize,
                     outer)
from .poly import ZeonPolynomial, complex_roots, lift_simple_zero
from .tolerances import DEFAULT, Tolerances


def char_poly(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> ZeonPolynomial:
    """Monic characteristic polynomial det(t I - A), by the trace recursion.

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
    return ZeonPolynomial(coeffs, tol)


def _char_residual(matrix: ZeonMatrix, chi: ZeonPolynomial, tol: Tolerances) -> float:
    m = matrix.rows
    acc = ZeonMatrix.diagonal([chi.coeffs[-1]] * m)
    for k in range(chi.degree - 1, -1, -1):
        acc = acc.mul(matrix, tol).add(ZeonMatrix.diagonal([chi.coeffs[k]] * m), tol)
    return acc.norm_inf()


def _char_zero(chi: ZeonPolynomial, lam: ZeonMatrix, tol: Tolerances) -> float:
    """Largest coefficient of chi(lambda_j) over a one-row matrix of values, by row Horner."""
    m = lam.cols
    acc = ZeonMatrix([[chi.coeffs[-1]] * m])
    for k in range(chi.degree - 1, -1, -1):
        acc = acc._entrywise(lam, tol).add(ZeonMatrix([[chi.coeffs[k]] * m]), tol)
    return acc.norm_inf()


def cayley_hamilton_residual(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> float:
    """Largest coefficient magnitude of chi_A(A); zero in exact arithmetic."""
    chi = char_poly(matrix, tol)
    return _char_residual(matrix, chi, tol)


def eigenvalues(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> list[ZeonElement]:
    """Zeon eigenvalues lifted from the simple shadow eigenvalues.

    Ordered by descending real part of the scalar part (ties broken by
    descending imaginary part). Shadow eigenvalues with multiplicity
    above one do not lift; the list is then shorter than the dimension.
    """
    chi = char_poly(matrix, tol)
    return [lift_simple_zero(chi, root.value, tol)
            for root in complex_roots(chi, tol).roots if root.simple]


def eigenvector(matrix: ZeonMatrix, value, tol: Tolerances = DEFAULT) -> ZeonVector:
    """Kernel vector of S = value I - A for a spectrally simple eigenvalue.

    The shadow S_0 must have rank m - 1; its null vectors w (right) and
    u (left) then choose the free coordinate f = argmax |w_f| and the
    dropped equation r = argmax |u_r| (r = f when A is self-adjoint).
    The block B of S without row r and column f has |det B_0| proportional
    to |u_r| |w_f|, so it is invertible, and one solve gives the kernel
    vector with x_f = 1:

        x_rest = -B^-1 S[rows != r, f]

    Row r then holds exactly when the value is an eigenvalue of A, which
    the residual test checks.
    """
    matrix._require_square("eigenvector extraction")
    m, n = matrix.rows, matrix.n
    if not isinstance(value, ZeonElement):
        value = ZeonElement.scalar(n, value, tol)
    if value.n != n:
        raise DimensionMismatch("eigenvalue lives in a different algebra")
    shifted = ZeonMatrix.diagonal([value] * m).sub(matrix, tol)
    left, singular_values, right = np.linalg.svd(shifted.scalar_matrix())
    rank = _shadow_rank(singular_values, tol)
    if rank != m - 1:
        raise SpectralSimplicityError(
            f"shadow of (value I - A) has rank {rank}, expected {m - 1}; "
            "the value is not a spectrally simple eigenvalue")
    free = int(np.argmax(np.abs(right[-1])))
    dropped = int(np.argmax(np.abs(left[:, -1])))
    rows = [i for i in range(m) if i != dropped]
    cols = [j for j in range(m) if j != free]
    x = []
    if rows:  # at m = 1 the free coordinate is the whole vector
        rest = mat_inverse(shifted._block(rows, cols), tol).mul(-shifted._block(rows, [free]), tol)
        x = [e for (e,) in rest.entries]
    x.insert(free, ZeonElement.one(n))
    vec = ZeonVector(x)
    residual = shifted.mul(vec, tol).norm_inf()
    if residual > tol.compare * max(1.0, shifted.norm_inf()) * m:
        raise ZeonError(
            f"the block solve left residual {residual:.3g}; "
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


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its raw and normalized eigenvectors."""

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

    checks holds max residuals, all computed from V, the matrix of
    normalized eigenvectors: projection idempotence and pairwise
    orthogonality (read off V-adjoint V - I), resolution of the identity
    (V V-adjoint - I), reconstruction of A (V Lambda V-adjoint - A,
    relative to A's largest entry magnitude), Cayley-Hamilton,
    "orthonormal", the largest coefficient of V-adjoint V - I, and
    "char_zero", the largest coefficient of chi_A(lambda_j) over j.
    """

    eigenpairs: tuple[Eigenpair, ...]
    projections: tuple[ZeonMatrix, ...]
    checks: dict

    def to_json(self) -> dict:
        return {"eigenvalues": [p.value.to_json() for p in self.eigenpairs],
                "eigenvectors": [p.normalized.to_json() for p in self.eigenpairs],
                "projections": [p.to_json() for p in self.projections],
                "checks": dict(self.checks)}


def _refine(matrix: ZeonMatrix, tol: Tolerances):
    """Eigenvalue row and eigenvector frame X of a self-adjoint matrix.

    Refinement of the shadow eigenbasis (Ogita and Aishima, 2018): each
    pass forms R = I - X-adjoint X and S = X-adjoint A X, then
    lambda_i = S_ii (1 - R_ii)^-1, E_ii = R_ii / 2 and, for i != j,
    E_ij = (S_ij + lambda_j R_ij) (lambda_j - lambda_i)^-1, and sets
    X <- X + X E. The lowest grade of the error doubles each pass, so
    n.bit_length() passes reach the exact frame; one more is run as a
    margin. Columns are in descending order of the shadow eigenvalues.
    Returns the 1 x m row of eigenvalues and X.
    """
    m, n = matrix.rows, matrix.n
    shadow = np.linalg.eigh(matrix.scalar_matrix())[1][:, ::-1]
    if matrix._on_stack():  # keep X where A is, so every product runs on the stacks
        stack = np.zeros((1 << n, m, m), complex)
        stack[0] = shadow
        x = ZeonMatrix._from_stack(stack, n, tol)
    else:
        x = ZeonMatrix.from_scalar_matrix(shadow, n, tol)
    eye = ZeonMatrix.identity(m, n)
    diagonal, lower = list(range(m)), list(range(m, 2 * m))
    off_diagonal = 1 - np.eye(m)
    # A X rides along as the lower half of Z = [X; A X], so one product
    # per pass updates both: Z <- Z + Z E
    z = _hstack([x.transpose(), matrix.mul(x, tol).transpose()]).transpose()
    for _ in range(n.bit_length() + 1):
        x = z._block(diagonal, diagonal)
        gram_and_s = x.adjoint().mul(_hstack([x, z._block(lower, diagonal)]), tol)
        gram = gram_and_s._block(diagonal, diagonal)                     # I - R
        s = gram_and_s._block(diagonal, lower)
        lam = s._gather(diagonal, diagonal)._entrywise(
            gram._gather(diagonal, diagonal)._entrywise_inverse(tol), tol)
        lam_cols = lam._block([0] * m, diagonal)                         # (i, j) -> lambda_j
        # the gaps lambda_j - lambda_i with 1 on the diagonal, inverted and masked
        weights = lam_cols.sub(lam_cols.transpose(), tol).add(eye, tol)._entrywise_inverse(
            tol)._entrywise(off_diagonal, tol)
        # off the diagonal S - G lambda_j is S + lambda_j R
        correction = s.sub(gram._entrywise(lam_cols, tol), tol)._entrywise(weights, tol).add(
            eye.sub(gram, tol)._entrywise(np.eye(m) / 2, tol), tol)
        z = z.add(z.mul(correction, tol), tol)
    return lam, z._block(diagonal, diagonal)


def spectral_decompose(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> SpectralDecomposition:
    """Spectral theorem for a self-adjoint matrix with simple shadow spectrum.

    chi_A's shadow roots decide simplicity. All m eigenpairs then come
    from one refinement of the shadow eigenbasis (_refine), which runs a
    fixed n.bit_length() + 1 passes; NonConvergenceError is raised when
    the refined frame X leaves I - X-adjoint X, or X Lambda X-adjoint - A
    relative to max(1, |A|), above tol.compare * m. Eigenvector j is
    X[:, j] X[f, j]^-1 with f where column j's shadow is largest, so its
    coordinate f is 1; it is normalized, and the rank-one projections and
    the residuals in SpectralDecomposition.checks are built from the
    normalized vectors, reported instead of trusted silently.
    """
    matrix._require_square("spectral decomposition")
    m, n = matrix.rows, matrix.n
    # char_poly's products put A on its stack where the dispatch picks one,
    # so the self-adjointness test and the refinement run there too
    chi = char_poly(matrix, tol)
    if not matrix.is_self_adjoint(tol):
        raise NotSelfAdjointError("matrix is not self-adjoint within tolerance")
    bad = [r for r in complex_roots(chi, tol).roots if not r.simple]
    if bad:
        desc = ", ".join(f"{r.value:.6} x{r.multiplicity}" for r in bad)
        raise SpectralSimplicityError(
            f"shadow spectrum is not simple ({desc}); no unique decomposition")
    lam, x = _refine(matrix, tol)
    diagonal = list(range(m))
    lam_cols = lam._block([0] * m, diagonal)                             # (i, j) -> lambda_j
    defect = max(ZeonMatrix.identity(m, n).sub(x.adjoint().mul(x, tol), tol).norm_inf(),
                 x._entrywise(lam_cols, tol).mul(x.adjoint(), tol).sub(matrix, tol).norm_inf()
                 / max(1.0, matrix.norm_inf()))
    if defect > tol.compare * m:
        raise NonConvergenceError(
            f"the refined eigenvector frame is off by {defect:.3g}; no decomposition returned")
    free = np.argmax(np.abs(x.scalar_matrix()), axis=0).tolist()
    pivots = x._gather(free, diagonal)._entrywise_inverse(tol)           # X_fj^-1 in column j
    raw = x._entrywise(pivots._block([0] * m, diagonal), tol)
    pairs = []
    projections = []
    for j, value in enumerate(lam.entries[0]):
        vector = ZeonVector._of(raw._block(diagonal, [j]))
        nv = normalize(vector, tol)
        pairs.append(Eigenpair(value, vector, nv, True))
        projections.append(outer(nv, nv, tol))
    # pi_j pi_k - delta_jk pi_j = v_j E_jk v_k-adjoint with E = V-adjoint V - I
    normalized = [pair.normalized for pair in pairs]
    frame = _frame(normalized)
    gram_defect = _gram_defect(frame, tol)
    residual = {(j, k): outer(normalized[j].scale(e, tol), normalized[k], tol).norm_inf()
                for j, row in enumerate(gram_defect.entries) for k, e in enumerate(row) if e.terms}
    # V [V-adjoint | Lambda V-adjoint] holds V V-adjoint and V Lambda V-adjoint
    frame_h = frame.adjoint()
    both = frame.mul(_hstack([frame_h, lam_cols.transpose()._entrywise(frame_h, tol)]), tol)
    checks = {
        "idempotent": max((r for (j, k), r in residual.items() if j == k), default=0.0),
        "orthogonal": max((r for (j, k), r in residual.items() if j != k), default=0.0),
        "identity": both._block(diagonal, diagonal).sub(
            ZeonMatrix.identity(m, n), tol).norm_inf(),
        "reconstruction": both._block(diagonal, range(m, 2 * m)).sub(matrix, tol).norm_inf()
        / (matrix.norm_inf() or 1.0),
        "cayley_hamilton": _char_residual(matrix, chi, tol),
        "orthonormal": gram_defect.norm_inf(),
        "char_zero": _char_zero(chi, lam, tol),
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
    return _shadow_rank(np.linalg.svd(shadow, compute_uv=False), tol) == shadow.shape[1]
