"""Dense zeon arithmetic on numpy arrays, written apart from zeonalg.

An element on n generators is a complex array of length 2^n indexed by
blade bitmask. Arrays may carry leading axes (vectors, matrices); every
operation broadcasts over them. The product is subset convolution,
computed by walking the support of one factor and scattering it against
the blades of the other that are disjoint from it. This module never
imports zeonalg: it builds the planted inputs and checks the library's
answers.
"""

from __future__ import annotations

import numpy as np

_DISJOINT: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _disjoint(size: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Blades j with j & mask == 0, and the blades j | mask they move to."""
    key = (size, mask)
    hit = _DISJOINT.get(key)
    if hit is None:
        blades = np.arange(size)
        src = blades[(blades & mask) == 0]
        hit = (src, src | mask)
        if len(_DISJOINT) < 4096:
            _DISJOINT[key] = hit
    return hit


def zeros(shape, n: int) -> np.ndarray:
    return np.zeros(tuple(shape) + (1 << n,), dtype=complex)


def scalar(value, n: int) -> np.ndarray:
    out = zeros((), n)
    out[0] = value
    return out


def identity(m: int, n: int) -> np.ndarray:
    out = zeros((m, m), n)
    out[np.arange(m), np.arange(m), 0] = 1.0
    return out


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise zeon product, broadcasting over leading axes."""
    size = a.shape[-1]
    if np.count_nonzero(a.reshape(-1, size).any(axis=0)) > \
            np.count_nonzero(b.reshape(-1, size).any(axis=0)):
        a, b = b, a
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros(shape, dtype=complex)
    support = np.flatnonzero(a.reshape(-1, size).any(axis=0))
    for mask in support:
        src, dst = _disjoint(size, int(mask))
        out[..., dst] += a[..., mask, None] * b[..., src]
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, k, N) times (k, p, N) or a vector (k, N)."""
    if b.ndim == 2:
        return mul(a, b[None, :, :]).sum(axis=1)
    return mul(a[:, :, None, :], b[None, :, :, :]).sum(axis=1)


def adjoint(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, 0, 1))


def inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = sum_k conj(y_k) x_k for vectors of shape (m, N)."""
    return mul(np.conj(y), x).sum(axis=0)


def nilpotent_matrix_inverse_series(k: np.ndarray, n: int) -> np.ndarray:
    """(I + K)^-1 for K with nilpotent entries: the series ends at K^n."""
    m = k.shape[0]
    acc = identity(m, n)
    power = identity(m, n)
    for _ in range(n):
        power = -matmul(power, k)
        acc = acc + power
    return acc


def poly_from_roots(roots: list[np.ndarray]) -> list[np.ndarray]:
    """Ascending coefficients of the monic product of (u - r)."""
    coeffs = [scalar(1.0, roots[0].shape[-1].bit_length() - 1)]
    for r in roots:
        shifted = [np.zeros_like(coeffs[0])] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = shifted[i] - mul(r, c)
        coeffs = shifted
    return coeffs


def horner(coeffs: list[np.ndarray], point: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(coeffs[0])
    for c in reversed(coeffs):
        acc = mul(acc, point) + c
    return acc


def norm_inf(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def to_json(a: np.ndarray) -> dict:
    """One element in zeonalg's JSON shape; exact zeros are left out."""
    n = int(a.shape[-1]).bit_length() - 1
    terms = []
    for mask in sorted(np.flatnonzero(a), key=lambda m: (bin(m).count("1"), m)):
        c = complex(a[mask])
        terms.append({"I": [i + 1 for i in range(n) if mask >> i & 1],
                      "re": c.real, "im": c.imag})
    return {"n": n, "terms": terms}


def from_json(data: dict) -> np.ndarray:
    n = int(data["n"])
    out = zeros((), n)
    for term in data["terms"]:
        mask = 0
        for i in term["I"]:
            mask |= 1 << (int(i) - 1)
        out[mask] += complex(float(term["re"]), float(term["im"]))
    return out


def matrix_to_json(a: np.ndarray) -> dict:
    rows, cols, size = a.shape
    return {"rows": rows, "cols": cols, "n": size.bit_length() - 1,
            "entries": [[to_json(a[i, j]) for j in range(cols)] for i in range(rows)]}


def matrix_from_json(data: dict) -> np.ndarray:
    return np.array([[from_json(cell) for cell in row] for row in data["entries"]])
