"""Independent reference implementations used to check the library.

Everything here works on dense coefficient arrays indexed by blade
bitmask (length 2^n), built with nothing but loops, so the sparse
production code is checked against a structurally different
implementation.
"""

from __future__ import annotations

import cmath
import itertools

from zeonalg import ZeonElement, ZeonMatrix, ZeonVector, inner_product, orthonormalize, outer


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
    """Real-coefficient zeon values with well-separated scalar parts."""
    scalars = []
    while len(scalars) < m:
        candidate = rng.uniform(-3.0, 3.0)
        if all(abs(candidate - s) >= separation for s in scalars):
            scalars.append(candidate)
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
