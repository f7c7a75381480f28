"""Acceptance gate: the nine release criteria, one summary line each.

Every test here pins the exact values and tolerances the package must
meet. Each reports PASS/FAIL through the `acceptance` fixture, and the
collected lines are echoed at the end of the pytest run.
"""

import json
import math
import pathlib
import random
import subprocess
import sys
import time

import pytest

from zeonalg import (
    DEFAULT,
    DoesNotSplitError,
    SpectralSimplicityError,
    ZeonElement,
    ZeonMatrix,
    ZeonPolynomial,
    ZeonVector,
    cayley_hamilton_residual,
    complex_roots,
    determinant,
    induce_complex,
    inner_product,
    lift_simple_zero,
    normalize,
    spectral_decompose,
    split,
)
from zeonalg.linalg import _det_elimination, _det_permutation

from oracles import (
    dense_mul,
    max_dense_diff,
    rand_element,
    rand_matrix,
    rand_self_adjoint,
    to_dense,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name):
    return json.loads((FIXTURES / name).read_text())


def Z(n, terms):
    return ZeonElement(n, terms)


def test_criterion_1_inner_product_example(acceptance):
    v1 = ZeonVector.from_json(load("vec_v1.json"))
    v2 = ZeonVector.from_json(load("vec_v2.json"))

    g11 = inner_product(v1, v1)
    g12 = inner_product(v1, v2)
    g22 = inner_product(v2, v2)
    inv_sqrt = g11.inverse().kth_root(2)

    s5 = math.sqrt(5)
    errs = [
        g11.max_diff(Z(3, {0: 5, 0b111: -4})),
        g12.norm_inf(),
        g22.norm_inf(),
        inv_sqrt.max_diff(Z(3, {0: 1 / s5, 0b111: 2 / (5 * s5)})),
    ]

    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        inner_product(v1, v1)
        inner_product(v1, v2)
        inner_product(v2, v2)
        best = min(best, time.perf_counter() - t0)

    ok = max(errs) <= 1e-9 and best < 1e-3
    acceptance(ok, f"max coefficient error {max(errs):.2e}, runtime {best * 1e3:.3f} ms")


def test_criterion_2_normalization_example(acceptance):
    v1 = ZeonVector.from_json(load("vec_v1.json"))
    w = normalize(v1)
    s5 = math.sqrt(5)
    expected = ZeonVector([
        Z(3, {0: 1j / s5, 0b001: 1 / s5, 0b111: 2j / (5 * s5)}),
        Z(3, {0b010: 1 / s5, 0b110: -1 / s5}),
        Z(3, {0: 2 / s5, 0b111: -1 / (5 * s5)}),
    ])
    entry_err = max(g.max_diff(e) for g, e in zip(w.entries, expected.entries))
    unit_err = inner_product(w, w).max_diff(ZeonElement.one(3))
    ok = entry_err <= 1e-9 and unit_err <= 1e-9
    acceptance(ok, f"entry error {entry_err:.2e}, unit pairing error {unit_err:.2e}")


def test_criterion_3_determinant_example(acceptance):
    a = ZeonMatrix.from_json(load("mat_det_example.json"))
    det = determinant(a)
    expected = Z(3, {0: 4, 0b001: 6, 0b010: -2, 0b011: -3, 0b111: -4})

    rows = [list(r) for r in a.entries]
    rows[0], rows[1] = rows[1], rows[0]
    swapped = determinant(ZeonMatrix(rows))

    factor = Z(3, {0: 2, 0b011: 3})
    rows = [list(r) for r in a.entries]
    rows[2] = [e.mul(factor) for e in rows[2]]
    scaled = determinant(ZeonMatrix(rows))

    errs = [
        det.max_diff(expected),
        swapped.max_diff(det.scale(-1)),
        scaled.max_diff(factor.mul(det)),
    ]
    ok = max(errs) <= 1e-9
    acceptance(ok, f"worked determinant and row-operation errors {max(errs):.2e}")


def test_criterion_4_polynomial_zero_example(acceptance):
    phi = ZeonPolynomial.from_json(load("poly_quartic.json"))
    lam = lift_simple_zero(phi, 3)
    expected = Z(4, {0: 3, 0b0011: 0.5, 0b0101: 0.5, 0b1001: 0.5})
    lift_err = lam.max_diff(expected)
    value_err = phi.evaluate(lam).norm_inf()

    report = complex_roots(induce_complex(phi))
    mults = {}
    for r in report.roots:
        mults[round(r.value.real)] = (r.multiplicity, r.simple)
    report_ok = (
        mults.get(3) == (1, True)
        and mults.get(1, (0, True))[0] == 3
        and not mults.get(1, (0, True))[1]
        and abs(next(r.value for r in report.roots if r.multiplicity == 1) - 3) <= 1e-6
        and abs(next(r.value for r in report.roots if r.multiplicity == 3) - 1) <= 1e-4
    )

    ok = lift_err <= 1e-9 and value_err <= 1e-9 and report_ok
    acceptance(ok, f"lift error {lift_err:.2e}, residual {value_err:.2e}, "
                   f"shadow report {{3: simple, 1: x3}} = {report_ok}")


def test_criterion_5_negative_control(acceptance):
    phi = ZeonPolynomial.from_json(load("poly_nonsplit.json"))
    with pytest.raises(DoesNotSplitError):
        split(phi)
    with pytest.raises(SpectralSimplicityError):
        lift_simple_zero(phi, 1.0)
    acceptance(True, "non-splitting quadratic rejected by split and by lifting")


def test_criterion_6_spectral_example(acceptance):
    a = ZeonMatrix.from_json(load("mat_spectral.json"))
    t0 = time.perf_counter()
    decomp = spectral_decompose(a)
    elapsed = time.perf_counter() - t0

    printed = [
        Z(3, {0: 5.0, 0b010: 1.0, 0b101: -0.363636, 0b111: 0.264463}),
        Z(3, {0: 3.23607, 0b011: 0.947214, 0b101: 0.507064, 0b111: -0.287463}),
        Z(3, {0: -1.23607, 0b011: 0.0527864, 0b101: -0.143428, 0b111: 0.0229998}),
    ]
    value_err = max(p.value.max_diff(w) for p, w in zip(decomp.eigenpairs, printed))
    residuals = [decomp.checks[k] for k in
                 ("idempotent", "orthogonal", "identity", "reconstruction")]

    ok = value_err <= 1e-4 and max(residuals) < 1e-8 and elapsed < 1.0
    acceptance(ok, f"eigenvalue error {value_err:.2e}, worst residual "
                   f"{max(residuals):.2e}, runtime {elapsed * 1e3:.0f} ms")


def test_criterion_7_random_self_adjoint_suite(acceptance):
    rng = random.Random(20260816)
    worst_recon = worst_ch = worst_conj = 0.0
    t0 = time.perf_counter()
    for i in range(200):
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        a, _, _ = rand_self_adjoint(rng, m, n)
        decomp = spectral_decompose(a)
        worst_recon = max(worst_recon, decomp.checks["reconstruction"])
        worst_ch = max(worst_ch, cayley_hamilton_residual(a))
        for pair in decomp.eigenpairs:
            worst_conj = max(worst_conj, pair.value.max_diff(pair.value.conjugate()))
    elapsed = time.perf_counter() - t0

    ok = (worst_recon < 1e-7 and worst_ch < 1e-7 and worst_conj <= 1e-9
          and elapsed < 30.0)
    acceptance(ok, f"200 matrices: reconstruction {worst_recon:.2e}, "
                   f"cayley-hamilton {worst_ch:.2e}, conjugation {worst_conj:.2e}, "
                   f"{elapsed:.1f} s")


def test_criterion_8_oracle_equivalence(acceptance):
    rng = random.Random(8088)

    mul_err = 0.0
    for _ in range(1000):
        n = rng.randint(1, 6)
        a = rand_element(rng, n, terms=5)
        b = rand_element(rng, n, terms=5)
        got = to_dense(a.mul(b))
        want = dense_mul(to_dense(a), to_dense(b))
        mul_err = max(mul_err, max_dense_diff(got, want))

    det_err = 0.0
    for _ in range(200):
        a = rand_matrix(rng, 3, 3)
        d1 = _det_permutation(a, DEFAULT)
        d2 = _det_elimination(a, DEFAULT)
        det_err = max(det_err, d1.max_diff(d2))

    split_err = 0.0
    for _ in range(25):
        n = rng.randint(2, 4)
        count = rng.randint(2, 4)
        scalars = []
        while len(scalars) < count:
            c = rng.uniform(-3, 3)
            if all(abs(c - s) > 0.8 for s in scalars):
                scalars.append(c)
        roots = [ZeonElement.scalar(n, s).add(rand_element(rng, n, 2, "nilpotent"))
                 for s in scalars]
        phi = ZeonPolynomial.from_roots(roots)
        zeros = split(phi)
        got = sorted(zeros, key=lambda z: z.scalar_part().real)
        want = sorted(roots, key=lambda z: z.scalar_part().real)
        split_err = max(split_err, max(g.max_diff(w) for g, w in zip(got, want)))

    ok = mul_err <= 1e-12 and det_err <= 1e-9 and split_err <= 1e-7
    acceptance(ok, f"mul vs dense {mul_err:.2e}, permutation vs elimination "
                   f"{det_err:.2e}, planted-root round trip {split_err:.2e}")


def test_criterion_9_cli_round_trip(acceptance):
    names = sorted(p.name for p in FIXTURES.glob("*.json"))
    for name in names:
        blob = load(name)
        if "dividend" in blob:
            for key in ("dividend", "divisor"):
                poly = ZeonPolynomial.from_json(blob[key])
                assert ZeonPolynomial.from_json(poly.to_json()).allclose(poly), name
        elif "coeffs" in blob:
            poly = ZeonPolynomial.from_json(blob)
            assert ZeonPolynomial.from_json(poly.to_json()).allclose(poly), name
        elif "entries" in blob:
            mat = ZeonMatrix.from_json(blob)
            assert ZeonMatrix.from_json(mat.to_json()).allclose(mat), name
        else:
            elem = ZeonElement.from_json(blob)
            assert ZeonElement.from_json(elem.to_json()) == elem, name

    proc = subprocess.run(
        [sys.executable, "-m", "zeonalg", "spectral", str(FIXTURES / "mat_spectral.json")],
        capture_output=True, text=True, timeout=120,
    )
    cli_ok = proc.returncode == 0
    worst = math.inf
    if cli_ok:
        worst = max(json.loads(proc.stdout)["checks"].values())
        cli_ok = worst < 1e-8

    ok = cli_ok
    acceptance(ok, f"{len(names)} fixtures round-trip; spectral CLI exit "
                   f"{proc.returncode}, worst check {worst:.2e}")
