"""Check zeonalg's answers against the planted values, in zdense arithmetic.

Each check returns None when the output is right and a short reason
otherwise. Tolerances are relative: RTOL times the size of the operands
the answer was computed from.
"""

from __future__ import annotations

import numpy as np

import zdense as zd

RTOL = 1e-8


def _by_scalar(values: list[np.ndarray]) -> list[np.ndarray]:
    """Descending real, then imaginary, scalar part: zeonalg's root order."""
    return sorted(values, key=lambda z: (-z[..., 0].real.item(), -z[..., 0].imag.item()))


def check_spectral(case: dict, out: dict) -> str | None:
    a, planted = case["matrix"], list(case["values"])
    m, n = a.shape[0], a.shape[-1].bit_length() - 1
    values = [zd.from_json(e) for e in out["eigenvalues"]]
    vectors = [zd.matrix_from_json(v)[:, 0, :] for v in out["eigenvectors"]]
    if len(values) != m or len(vectors) != m:
        return f"{len(values)} eigenpairs for a {m}x{m} matrix"
    scale = max(1.0, zd.norm_inf(a))
    for got, want in zip(_by_scalar(values), _by_scalar(planted)):
        err = zd.norm_inf(got - want)
        if err > RTOL * m * scale:
            return f"eigenvalue off the planted one by {err:.3g}"
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            err = zd.norm_inf(zd.inner(vi, vj) - zd.scalar(float(i == j), n))
            if err > RTOL * m:
                return f"<v{i}, v{j}> off delta by {err:.3g}"
    recon = sum(zd.mul(zd.mul(vj[:, None, :], np.conj(vj)[None, :, :]), lam)
                for lam, vj in zip(values, vectors))
    err = zd.norm_inf(recon - a)
    if err > RTOL * m * scale:
        return f"sum of lambda_j v_j v_j^+ off A by {err:.3g}"
    return None


def check_det(case: dict, out: dict) -> str | None:
    det = case["det"]
    got = zd.from_json(out)
    m = len(case["payload"]["entries"])
    err = zd.norm_inf(got - det)
    if err > RTOL * m * max(1.0, zd.norm_inf(det)):
        return f"determinant off the planted diagonal product by {err:.3g}"
    return None


def check_split(case: dict, out: dict) -> str | None:
    coeffs, roots = case["coeffs"], case["roots"]
    zeros = [zd.from_json(z) for z in out["zeros"]]
    degree = len(roots)
    if len(zeros) != degree:
        return f"{len(zeros)} zeros for degree {degree}"
    coeff_scale = max(1.0, max(zd.norm_inf(c) for c in coeffs))
    for got, want in zip(_by_scalar(zeros), _by_scalar(roots)):
        err = zd.norm_inf(got - want) / max(1.0, zd.norm_inf(want))
        if err > RTOL * degree:
            return f"zero off its planted root by {err:.3g} (relative)"
        value = zd.norm_inf(zd.horner(coeffs, got)) / coeff_scale
        if value > RTOL * degree:
            return f"|phi(z)| is {value:.3g} (relative to the coefficients)"
    return None


CHECKS = {"spectral": check_spectral, "det": check_det, "split": check_split}
