"""Independent reference implementations used to check the library.

Everything here works on dense coefficient arrays indexed by blade
bitmask (length 2^n), built with nothing but loops, so the sparse
production code is checked against a structurally different
implementation.
"""

from __future__ import annotations

import cmath
import itertools
import math

from zeonalg import (DEFAULT, DimensionMismatch, SpectralSimplicityError, Tolerances, ZeonElement,
                     ZeonError, ZeonMatrix, ZeonVector, inner_product, mat_inverse,
                     orthonormalize, outer)
from zeonalg.linalg import _shadow_rank
from zeonalg.poly import (_CLUSTER_REL, _WIDE_CLUSTER_REL, ComplexPolynomial, PolyRoot,
                          RootReport, _shadow_zero)


def to_dense(elem: ZeonElement) -> list[complex]:
    out = [0j] * (1 << elem.n)
    for mask, coeff in elem.terms.items():
        out[mask] = coeff
    return out


def from_dense(dense: list[complex], n: int) -> ZeonElement:
    return ZeonElement(n, {m: c for m, c in enumerate(dense) if c != 0})


def dense_mul(a: list[complex], b: list[complex]) -> list[complex]:
    """Subset-disjoint convolution, the defining product rule."""
    size = len(a)
    out = [0j] * size
    for i in range(size):
        if a[i] == 0:
            continue
        for j in range(size):
            if b[j] == 0 or i & j:
                continue
            out[i | j] += a[i] * b[j]
    return out


def dense_add(a: list[complex], b: list[complex]) -> list[complex]:
    return [x + y for x, y in zip(a, b)]


def dense_scale(a: list[complex], c: complex) -> list[complex]:
    return [x * c for x in a]


def dense_one(n: int) -> list[complex]:
    out = [0j] * (1 << n)
    out[0] = 1
    return out


def max_dense_diff(a: list[complex], b: list[complex]) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def exactly(got, want) -> bool:
    """Same bool, or the same value of the same type, coefficient for coefficient."""
    if isinstance(want, bool):
        return got is want
    return type(got) is type(want) and got.to_json() == want.to_json()


def perm_parity(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
                     if perm[a] > perm[b])
    return -1 if inversions & 1 else 1


def dense_perm_det(matrix: ZeonMatrix) -> list[complex]:
    """Signed permutation sum computed entirely in dense arithmetic."""
    m = matrix.rows
    n = matrix.n
    dense = [[to_dense(matrix.entries[i][j]) for j in range(m)] for i in range(m)]
    acc = [0j] * (1 << n)
    for perm in itertools.permutations(range(m)):
        term = dense_one(n)
        for i in range(m):
            term = dense_mul(term, dense[i][perm[i]])
        acc = dense_add(acc, dense_scale(term, perm_parity(perm)))
    return acc


def dense_matmul(a: list[list[list[complex]]],
                 b: list[list[list[complex]]]) -> list[list[list[complex]]]:
    """Matrix product of grids of dense entries, one dense_mul per term."""
    size = len(a[0][0])
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = [0j] * size
            for x, b_row in zip(row, b):
                acc = dense_add(acc, dense_mul(x, b_row[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def dense_charpoly(matrix: ZeonMatrix) -> list[list[complex]]:
    """Coefficients (ascending) of det(t I - A) for m <= 3.

    Entries of t I - A are degree-one polynomials whose coefficients are
    dense arrays; the permutation sum multiplies those polynomials out.
    """
    m = matrix.rows
    n = matrix.n
    size = 1 << n

    def poly_entry(i, j):
        const = dense_scale(to_dense(matrix.entries[i][j]), -1)
        lin = dense_one(n) if i == j else [0j] * size
        return [const, lin]

    def poly_mul(p, q):
        out = [[0j] * size for _ in range(len(p) + len(q) - 1)]
        for a, pa in enumerate(p):
            for b, qb in enumerate(q):
                out[a + b] = dense_add(out[a + b], dense_mul(pa, qb))
        return out

    acc = [[0j] * size for _ in range(m + 1)]
    for perm in itertools.permutations(range(m)):
        term = [dense_one(n)]
        for i in range(m):
            term = poly_mul(term, poly_entry(i, perm[i]))
        sign = perm_parity(perm)
        for k in range(len(term)):
            acc[k] = dense_add(acc[k], dense_scale(term[k], sign))
    return acc


def sequential_lift(phi, lam0: complex) -> ZeonElement:
    """Closed-form lift sweeping every grade 1..n in order, unconditionally.

    Independent of the library's minimal-grade-driven loop; used to pin
    down that the iteration order cannot change the fixed point. Assumes
    a monic polynomial whose shadow has the simple zero lam0.
    """
    shadow = [c.scalar_part() for c in phi.coeffs]
    d = len(shadow) - 1
    deflated = [0j] * d
    deflated[d - 1] = shadow[d]
    for i in range(d - 2, -1, -1):
        deflated[i] = shadow[i + 1] + lam0 * deflated[i + 1]
    g0 = 0j
    for c in reversed(deflated):
        g0 = g0 * lam0 + c
    lam = ZeonElement.scalar(phi.n, lam0)
    for grade in range(1, phi.n + 1):
        component = phi.evaluate(lam).grade_part(grade)
        lam = lam.sub(component.scale(1 / g0))
    return lam


def geometric_inverse(u: ZeonElement) -> ZeonElement:
    """Inverse by the geometric series (1/c) sum_j (-d/c)^j, d the dual part.

    The series is summed until its next power vanishes, which it does
    once j exceeds n.
    """
    c = u.scalar_part()
    step = u.dual_part().scale(-1 / c)
    acc = ZeonElement.one(u.n)
    power = step
    while power.terms:
        acc = acc.add(power)
        power = power.mul(step)
    return acc.scale(1 / c)


def recursive_kth_root(u: ZeonElement, k: int) -> ZeonElement:
    """Principal kth root by recursion on the highest generator present.

    Writing u = phi + z_h psi, where z_h is the highest generator in u
    and neither phi nor psi involves it,

        u^{1/k} = phi^{1/k} + z_h * (1/k) * phi^{-1} * phi^{1/k} * psi

    with the principal complex root exp(log(c) / k) at the scalar base case.
    """
    present = 0
    for m in u.terms:
        present |= m
    if present == 0:
        return ZeonElement.scalar(u.n, cmath.exp(cmath.log(u.scalar_part()) / k))
    bit = 1 << (present.bit_length() - 1)
    phi = ZeonElement(u.n, {m: c for m, c in u.terms.items() if not m & bit})
    psi = ZeonElement(u.n, {m ^ bit: c for m, c in u.terms.items() if m & bit})
    root = recursive_kth_root(phi, k)
    z_h = ZeonElement(u.n, {bit: 1})
    correction = geometric_inverse(phi).mul(root).mul(psi).scale(1 / k)
    return root.add(z_h.mul(correction))


# ----------------------------------------------------------------------
# random generators (all take a random.Random for reproducibility)

def rand_element(rng, n: int, terms: int = 4, kind: str = "any") -> ZeonElement:
    """kind: "any", "invertible" (unit scalar magnitude), or "nilpotent"."""
    out = {}
    if kind == "invertible":
        out[0] = complex(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0),
                         rng.uniform(-1.0, 1.0))
    for _ in range(terms):
        mask = rng.randrange(1, 1 << n) if kind == "nilpotent" else rng.randrange(1 << n)
        if kind == "invertible" and mask == 0:
            continue
        out[mask] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if kind == "nilpotent":
        out.pop(0, None)
    return ZeonElement(n, out)


def rand_vector(rng, m: int, n: int, kind: str = "any") -> ZeonVector:
    return ZeonVector([rand_element(rng, n, 3, kind) for _ in range(m)])


def rand_matrix(rng, m: int, n: int, kind: str = "any") -> ZeonMatrix:
    return ZeonMatrix([[rand_element(rng, n, 3, kind) for _ in range(m)]
                       for _ in range(m)])


def rand_unitary_frame(rng, m: int, n: int, dust: float = 0.3) -> list[ZeonVector]:
    """Vectors whose scalar parts form a unitary matrix, plus nilpotent dust."""
    import numpy as np

    seed = rng.randrange(2 ** 31)
    np_rng = np.random.default_rng(seed)
    gaussian = np_rng.normal(size=(m, m)) + 1j * np_rng.normal(size=(m, m))
    q, _ = np.linalg.qr(gaussian)
    frame = []
    for j in range(m):
        entries = []
        for i in range(m):
            terms = {0: complex(q[i, j])}
            for _ in range(2):
                mask = rng.randrange(1, 1 << n)
                terms[mask] = terms.get(mask, 0j) + complex(
                    rng.uniform(-dust, dust), rng.uniform(-dust, dust))
            entries.append(ZeonElement(n, terms))
        frame.append(ZeonVector(entries))
    return frame


def rand_real_eigenvalues(rng, m: int, n: int, separation: float = 0.5) -> list[ZeonElement]:
    """Real-coefficient zeon values with well-separated scalar parts.

    Scalar part k sits at a uniform offset in the k-th of m even slots across
    [-3, 3], widened to m * separation when that is shorter; each slot leaves
    the last `separation` of its width empty, so neighbours stay that far apart.
    """
    width = max(6.0, m * separation) / m
    scalars = [-width * m / 2 + k * width + rng.uniform(0.0, width - separation)
               for k in range(m)]
    values = []
    for s in scalars:
        terms = {0: complex(s)}
        for _ in range(2):
            mask = rng.randrange(1, 1 << n)
            terms[mask] = terms.get(mask, 0j) + complex(rng.uniform(-0.5, 0.5))
        values.append(ZeonElement(n, terms))
    return values


def rand_self_adjoint(rng, m: int, n: int):
    """Planted decomposition: sum of lambda_j v_j v_j* over an orthonormal frame.

    Returns (matrix, eigenvalues, normalized eigenvectors); the matrix is
    self-adjoint by construction and its shadow spectrum is simple.
    """
    frame = orthonormalize(rand_unitary_frame(rng, m, n))
    values = rand_real_eigenvalues(rng, m, n)
    acc = None
    for value, vec in zip(values, frame):
        proj = outer(vec, vec).scale(value)
        acc = proj if acc is None else acc.add(proj)
    return acc, values, frame


def projection_product_residuals(projections) -> tuple[float, float]:
    """Idempotence and orthogonality residuals from every product pi_j pi_k.

    Returns max_j |pi_j pi_j - pi_j| and max_{j != k} |pi_j pi_k|, forming
    all m^2 matrix products; the reference for spectral_decompose's checks,
    which derive both from the Gram matrix instead.
    """
    idem = ortho = 0.0
    for j, pj in enumerate(projections):
        idem = max(idem, pj.mul(pj).sub(pj).norm_inf())
        for k, pk in enumerate(projections):
            if j != k:
                ortho = max(ortho, pj.mul(pk).norm_inf())
    return idem, ortho


def orthonormality_residual(vectors) -> float:
    """max_jk |<v_k, v_j> - delta_jk|, one inner product at a time."""
    n = vectors[0].n
    return max(inner_product(vk, vj).max_diff(ZeonElement.scalar(n, float(j == k)))
               for j, vj in enumerate(vectors) for k, vk in enumerate(vectors))


def generator_roots(n: int, degree: int, gens: list[int], shared: int) -> list[ZeonElement]:
    """Planted zeros r_k = c_k + a_k z_{gens[k]} + b_k z_shared, k = 0..degree-1.

    Generator-class roots: each on its own generator plus one shared by all,
    with shadows c_k spaced 1 apart and descending in real part, so every
    shadow zero is simple and split returns the roots in this order.
    """
    return [ZeonElement(n, {0: complex(degree / 2 - 0.5 - k, 0.25 * (-1) ** k),
                            1 << (gens[k] - 1): complex(0.5 + 0.1 * k, -0.2),
                            1 << (shared - 1): complex(0.05 * k - 0.3, 0.1)})
            for k in range(degree)]


def split_n16_roots() -> list[ZeonElement]:
    """The planted zeros of fixtures/poly_split_n16.json, in split's order."""
    return generator_roots(16, 8, [1, 3, 5, 7, 9, 11, 13, 15], 16)


class UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def union_find_cluster_report(points: list[complex], monic: ComplexPolynomial,
                              iterations: int) -> RootReport:
    """Merge converged iterates into roots with multiplicities, in two passes.

    The reference for poly._cluster_report's one pass over pairs. First
    pass merges at the standard relative radius. A multiple zero cannot be
    located more tightly than the float noise allows (its iterates scatter
    like eps^(1/multiplicity)), so a second pass merges clusters whose
    derivative already fails the simplicity test, using a wider radius.
    """
    d = len(points)
    dmonic = monic.derivative()
    uf = UnionFind(d)
    for a in range(d):
        for b in range(a + 1, d):
            gap = abs(points[a] - points[b])
            if gap <= _CLUSTER_REL * (1.0 + (abs(points[a]) + abs(points[b])) / 2):
                uf.union(a, b)

    def components() -> dict[int, list[int]]:
        comps: dict[int, list[int]] = {}
        for idx in range(d):
            comps.setdefault(uf.find(idx), []).append(idx)
        return comps

    comps = components()
    means = {root: sum(points[i] for i in members) / len(members)
             for root, members in comps.items()}
    degenerate = [root for root, mean in means.items()
                  if not _shadow_zero(monic, dmonic, mean)[1]]
    for a_i in range(len(degenerate)):
        for b_i in range(a_i + 1, len(degenerate)):
            za, zb = means[degenerate[a_i]], means[degenerate[b_i]]
            if abs(za - zb) <= _WIDE_CLUSTER_REL * (1.0 + (abs(za) + abs(zb)) / 2):
                uf.union(degenerate[a_i], degenerate[b_i])
    comps = components()

    roots = []
    residual = 0.0
    for members in comps.values():
        value = sum(points[i] for i in members) / len(members)
        mult = len(members)
        simple = mult == 1 and _shadow_zero(monic, dmonic, value)[1]
        residual = max(residual, abs(monic(value)))
        roots.append(PolyRoot(value, mult, simple))
    roots.sort(key=lambda r: (-r.value.real, -r.value.imag))
    return RootReport(tuple(roots), residual, iterations)


def bordered_eigenvector(matrix: ZeonMatrix, value, tol: Tolerances = DEFAULT) -> ZeonVector:
    """Kernel vector of S = value I - A for a spectrally simple eigenvalue.

    The reference for spectral.eigenvector's kernel series: column r of one
    bordered inverse. The shadow S_0 must have rank m - 1; its null vectors
    w (right) and u (left) then choose the free coordinate f = argmax |w_f|
    and the dropped equation r = argmax |u_r| (r = f when A is self-adjoint).
    The bordered matrix M, S / s with row r replaced by e_f-transpose, has
    |det M_0| proportional to |u_r| |w_f|, so it is invertible, and M x = e_r
    means S x = 0 off row r and x_f = 1: x is column r of M^-1. The power
    of two s >= max(1, largest singular value of S_0) keeps mat_inverse's
    relative rank test blind to A's scale. M = S o K + e_r e_f-transpose is
    built in S's form, K holding 1/s off row r and 0 on it. Row r holds
    exactly when the value is an eigenvalue of A, which the residual test checks.
    """
    import numpy as np

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
    size = 2.0 ** max(0, math.frexp(float(singular_values[0]))[1])
    border = outer(ZeonVector.unit(m, n, dropped), ZeonVector.unit(m, n, free), tol)
    scales = [[0.0 if i == dropped else 1 / size] * m for i in range(m)]
    inverse = mat_inverse(shifted._entrywise(scales, tol).add(border, tol), tol)
    vec = ZeonVector._of(inverse._block(range(m), [dropped]))
    residual = shifted.mul(vec, tol).norm_inf()
    if residual > tol.compare * max(1.0, shifted.norm_inf()) * m:
        raise ZeonError(
            f"the bordered solve left residual {residual:.3g}; "
            "the value is not an exact eigenvalue of the matrix")
    return vec
