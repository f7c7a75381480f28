"""Planted inputs for each workload, built with zdense and a seeded RNG.

Every case carries the JSON payload handed to zeonalg and the planted
answer the output is checked against. Nothing here imports zeonalg.
The same workload and seed always give the same cases.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import zdense as zd

# Sizes of every workload; README.md explains the choices.
SPECTRAL_M, SPECTRAL_N, SPECTRAL_CASES = 3, 5, 12
SPECTRAL_DUST = 0.15          # std. dev. of each nilpotent coefficient
SPECTRAL_MIN_LAST = 0.2       # smallest |last component| of an eigenvector shadow
SPLIT_DEGREE, SPLIT_N = 8, 16
SPLIT_CASES_PER_CLASS = 6
SPLIT_BLADES_PER_ROOT = 10
SPLIT_BLADE_SEED = 20220123   # the random-blade class does not depend on --seed
DET_N, DET_DUST = 5, 0.3
DET_GENERAL_SIZES = (5, 5, 5, 6, 6, 6, 6, 7, 7)   # the median op is an m = 6 one
DET_NO_PIVOT_SIZES = (5, 5, 6)   # column m // 2 is nilpotent
CLI_M, CLI_N, CLI_CASES = 3, 3, 4   # CLI_CASES of each command


def _complex(rng, size=None, scale=1.0):
    return scale * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))


def _separated(rng, count: int, low: float, high: float, gap: float) -> np.ndarray:
    while True:
        values = np.sort(rng.uniform(low, high, count))
        if count < 2 or np.min(np.diff(values)) >= gap:
            return values


def planted_self_adjoint(rng, m: int, n: int) -> dict:
    """A = V diag(lam) V-adjoint with V unitary over the algebra.

    V = Q * C: Q is a complex unitary (QR of a Gaussian matrix) and C the
    Cayley transform (I - K)(I + K)^-1 of a skew-Hermitian K whose entries
    are dense nilpotent elements, so V-adjoint V = I exactly. The values
    lam_j have real coefficients and well separated scalar parts.

    Frames whose eigenvector shadows have a last component below
    SPECTRAL_MIN_LAST are drawn again: on those, eliminate() takes a tiny
    pivot and spectral_decompose() raises, on a seed-dependent share of
    inputs (see the FOUND line in CHANGES.md).
    """
    size = 1 << n
    while True:
        q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        if np.min(np.abs(q[m - 1, :])) >= SPECTRAL_MIN_LAST:
            break
    frame = zd.zeros((m, m), n)
    frame[..., 0] = q
    x = SPECTRAL_DUST * (rng.normal(size=(m, m, size)) + 1j * rng.normal(size=(m, m, size)))
    x[..., 0] = 0
    k = x - zd.adjoint(x)
    cayley = zd.matmul(zd.identity(m, n) - k, zd.nilpotent_matrix_inverse_series(k, n))
    v = zd.matmul(frame, cayley)
    lam = SPECTRAL_DUST * rng.normal(size=(m, size)).astype(complex)
    lam[:, 0] = _separated(rng, m, -3.0, 3.0, 0.5)
    a = zd.matmul(zd.mul(v, lam[None, :, :]), zd.adjoint(v))
    a = 0.5 * (a + zd.adjoint(a))
    return {"kind": "spectral", "payload": zd.matrix_to_json(a), "matrix": a,
            "values": lam}


def planted_lu(rng, m: int, n: int, no_pivot_col: int | None) -> dict:
    """A = L U with unit lower L, so det A is the product of U's diagonal.

    Every entry of L and U below/above the diagonal is dense: a scalar
    plus all 2^n - 1 nilpotent blades, so the cost of an operation depends
    on m and not on the seed.

    With no_pivot_col set, column no_pivot_col of U is nilpotent, so the
    same column of A holds only nilpotent entries and has no pivot.
    """
    def part(shape):
        out = _complex(rng, shape + (1 << n,), scale=DET_DUST)
        out[..., 0] = _complex(rng, shape)
        return out

    lower, upper = part((m, m)), part((m, m))
    for i in range(m):
        lower[i, i + 1:] = 0
        lower[i, i] = zd.scalar(1.0, n)
        upper[i, :i] = 0
    diag = rng.uniform(1.0, 2.0, m) * np.exp(2j * np.pi * rng.uniform(0, 1, m))
    upper[np.arange(m), np.arange(m), 0] = diag
    if no_pivot_col is not None:
        upper[:, no_pivot_col, 0] = 0
    det = zd.scalar(1.0, n)
    for i in range(m):
        det = zd.mul(det, upper[i, i])
    a = zd.matmul(lower, upper)
    return {"kind": "det", "payload": zd.matrix_to_json(a), "det": det}


def planted_polynomial(rng, degree: int, n: int, random_blades: bool) -> dict:
    """phi = prod (u - r_k) for planted roots with separated scalar parts.

    Generator class: r_k = c_k + a_k z_{p_k} + b_k z_s, with p_k distinct
    per root and s shared by all roots. Random-blade class: r_k = c_k plus
    SPLIT_BLADES_PER_ROOT terms on uniformly random blades.
    """
    size = 1 << n
    scalars = np.linspace(-3.5, 3.5, degree) + rng.uniform(-0.2, 0.2, degree) \
        + 1j * rng.uniform(-0.5, 0.5, degree)
    gens = rng.permutation(n)
    roots = []
    for k in range(degree):
        r = zd.scalar(scalars[k], n)
        if random_blades:
            for mask in rng.integers(1, size, SPLIT_BLADES_PER_ROOT):
                r[int(mask)] += _complex(rng)
        else:
            r[1 << int(gens[k])] += _complex(rng)
            r[1 << int(gens[degree])] += _complex(rng)
        roots.append(r)
    coeffs = zd.poly_from_roots(roots)
    return {"kind": "split", "payload": {"n": n, "coeffs": [zd.to_json(c) for c in coeffs]},
            "coeffs": coeffs, "roots": roots, "random_blades": random_blades}


def make_cases(workload: str, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    if workload == "spectral_dense":
        return [planted_self_adjoint(rng, SPECTRAL_M, SPECTRAL_N)
                for _ in range(SPECTRAL_CASES)]
    if workload == "split_sparse":
        fixed = np.random.default_rng(SPLIT_BLADE_SEED)
        cases = []
        for _ in range(SPLIT_CASES_PER_CLASS):
            cases.append(planted_polynomial(rng, SPLIT_DEGREE, SPLIT_N, False))
            cases.append(planted_polynomial(fixed, SPLIT_DEGREE, SPLIT_N, True))
        return cases
    if workload == "det_elim":
        # A fixed order, every fourth input a no-pivot one: the worker's
        # warm-up runs input 0, so a seed that put a cofactor-fallback input
        # first would add ~0.13 s to setup_s on that seed alone.
        general = iter([planted_lu(rng, m, DET_N, None) for m in DET_GENERAL_SIZES])
        no_pivot = iter([planted_lu(rng, m, DET_N, m // 2) for m in DET_NO_PIVOT_SIZES])
        return [next(no_pivot) if i % 4 == 3 else next(general)
                for i in range(len(DET_GENERAL_SIZES) + len(DET_NO_PIVOT_SIZES))]
    if workload == "cli_cold":
        cases = []
        for _ in range(CLI_CASES):
            cases.append(planted_self_adjoint(rng, CLI_M, CLI_N))
            cases.append(planted_lu(rng, CLI_M, CLI_N, None))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    # inputs.py WORKLOAD SEED OUT: write the payloads as zeonalg JSON
    with open(sys.argv[3], "w", encoding="utf-8") as out:
        json.dump([{"kind": case["kind"], "payload": case["payload"]}
                   for case in make_cases(sys.argv[1], int(sys.argv[2]))], out)
