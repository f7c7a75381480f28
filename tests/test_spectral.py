"""Characteristic polynomials, eigen problems, and the spectral decomposition."""

import json
import pathlib
import random

import numpy as np
import pytest

import zeonalg.spectral as spectral
from zeonalg import (
    DEFAULT,
    DimensionMismatch,
    NonConvergenceError,
    NotSelfAdjointError,
    SpectralSimplicityError,
    ZeonElement,
    ZeonError,
    ZeonMatrix,
    ZeonVector,
    cayley_hamilton_residual,
    char_poly,
    eigen_independence_check,
    eigenvalues,
    eigenvector,
    induce_complex,
    inner_product,
    normalize,
    orthonormalize,
    outer,
    projection,
    resolution_of_identity,
    spectral_decompose,
)

from oracles import (
    dense_charpoly,
    from_dense,
    orthonormality_residual,
    projection_product_residuals,
    rand_matrix,
    rand_self_adjoint,
    rand_vector,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def Z(n, terms):
    return ZeonElement(n, terms)


@pytest.fixture
def spectral_matrix():
    return ZeonMatrix.from_json(json.loads((FIXTURES / "mat_spectral.json").read_text()))


def printed_eigenvalues():
    """Frozen expected eigenvalues of the worked 3x3 self-adjoint matrix."""
    return [
        Z(3, {0: 5.0, 0b010: 1.0, 0b101: -0.363636, 0b111: 0.264463}),
        Z(3, {0: 3.23607, 0b011: 0.947214, 0b101: 0.507064, 0b111: -0.287463}),
        Z(3, {0: -1.23607, 0b011: 0.0527864, 0b101: -0.143428, 0b111: 0.0229998}),
    ]


class TestCharPoly:
    def test_diagonal(self):
        a = Z(2, {0: 1, 1: 1})
        b = Z(2, {0: 2, 2: 1})
        chi = char_poly(ZeonMatrix.diagonal([a, b]))
        # (t - a)(t - b)
        assert chi.coeffs[2] == ZeonElement.one(2)
        assert chi.coeffs[1].allclose(a.add(b).scale(-1))
        assert chi.coeffs[0].allclose(a.mul(b))

    def test_monic_of_degree_m(self, spectral_matrix):
        chi = char_poly(spectral_matrix)
        assert chi.degree == 3
        assert chi.leading == ZeonElement.one(3)

    def test_matches_dense_permanent_oracle(self):
        rng = random.Random(311)
        for _ in range(12):
            m = rng.randint(2, 3)
            n = rng.randint(1, 3)
            a = rand_matrix(rng, m, n)
            chi = char_poly(a)
            want = dense_charpoly(a)
            assert chi.degree == m
            for k in range(m + 1):
                got = chi.coeffs[k] if k <= chi.degree else ZeonElement.zero(n)
                assert got.allclose(from_dense(want[k], n))

    def test_shadow_matches_numpy(self):
        rng = random.Random(313)
        for _ in range(10):
            a = rand_matrix(rng, 3, 3)
            shadow = induce_complex(char_poly(a))
            want = np.poly(a.scalar_matrix())  # descending coefficients
            got = list(reversed(shadow.coeffs))
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-9

    def test_cayley_hamilton(self):
        rng = random.Random(317)
        for _ in range(10):
            m = rng.randint(2, 4)
            n = rng.randint(1, 4)
            a = rand_matrix(rng, m, n)
            scale = max(1.0, a.norm_inf()) ** m
            assert cayley_hamilton_residual(a) <= 1e-8 * scale

    def test_char_poly_json(self, spectral_matrix):
        blob = char_poly(spectral_matrix).to_json()
        assert "coeffs" in blob and blob["n"] == 3


class TestEigenvalues:
    def test_worked_example(self, spectral_matrix):
        values = eigenvalues(spectral_matrix)
        assert len(values) == 3
        for got, want in zip(values, printed_eigenvalues()):
            assert got.max_diff(want) <= 1e-4

    def test_descending_order(self):
        d = ZeonMatrix.diagonal([Z(2, {0: -3}), Z(2, {0: 7, 1: 1}), Z(2, {0: 1})])
        values = eigenvalues(d)
        scalars = [v.scalar_part().real for v in values]
        assert scalars == sorted(scalars, reverse=True)

    def test_triangular_matrix_eigenvalues_are_diagonal(self):
        rng = random.Random(331)
        n = 3
        diag = [Z(n, {0: 1, 0b001: 0.5}), Z(n, {0: 2.5, 0b010: -1}), Z(n, {0: 4})]
        rows = [[diag[i] if i == j else (rand_matrix(rng, 1, n).entries[0][0]
                 if j > i else ZeonElement.zero(n)) for j in range(3)] for i in range(3)]
        a = ZeonMatrix(rows)
        values = eigenvalues(a)
        got = sorted(values, key=lambda v: v.scalar_part().real)
        want = sorted(diag, key=lambda v: v.scalar_part().real)
        for g, w in zip(got, want):
            assert g.allclose(w)

    def test_repeated_shadow_value_returns_partial(self):
        d = ZeonMatrix.diagonal([Z(2, {0: 1}), Z(2, {0: 1, 1: 1}), Z(2, {0: 2})])
        values = eigenvalues(d)
        assert len(values) == 1
        assert abs(values[0].scalar_part() - 2) <= 1e-9

    def test_self_adjoint_spectrum_is_self_conjugate(self):
        rng = random.Random(337)
        for _ in range(8):
            a, _, _ = rand_self_adjoint(rng, 3, 3)
            for value in eigenvalues(a):
                assert value.max_diff(value.conjugate()) <= 1e-9


class TestEigenvectors:
    def test_worked_example_eigen_equation(self, spectral_matrix):
        for value in eigenvalues(spectral_matrix):
            vec = eigenvector(spectral_matrix, value)
            lhs = spectral_matrix.mul(vec)
            rhs = vec.scale(value)
            assert lhs.sub(rhs).norm_inf() <= 1e-9

    def test_accepts_plain_numbers(self):
        d = ZeonMatrix.diagonal([ZeonElement.scalar(2, 2), ZeonElement.scalar(2, 5)])
        vec = eigenvector(d, 5)
        assert d.mul(vec).sub(vec.scale(5)).norm_inf() <= 1e-12

    def test_has_an_invertible_coordinate(self, spectral_matrix):
        value = eigenvalues(spectral_matrix)[0]
        vec = eigenvector(spectral_matrix, value)
        assert any(e.is_invertible() for e in vec.entries)

    def test_polynomial_functional_calculus(self, spectral_matrix):
        # f(A) v = f(lambda) v for any polynomial f
        value = eigenvalues(spectral_matrix)[1]
        vec = eigenvector(spectral_matrix, value)
        a = spectral_matrix
        n = a.n
        # f(t) = t^2 - 3t + 2
        f_of_a = a.mul(a).sub(a.scale(3)).add(ZeonMatrix.identity(3, n).scale(2))
        f_of_lam = value.mul(value).sub(value.scale(3)).add(ZeonElement.scalar(n, 2))
        assert f_of_a.mul(vec).sub(vec.scale(f_of_lam)).norm_inf() <= 1e-8

    def test_degenerate_value_rejected(self):
        d = ZeonMatrix.diagonal([ZeonElement.one(2), ZeonElement.one(2)])
        with pytest.raises(SpectralSimplicityError):
            eigenvector(d, 1)

    def test_non_eigenvalue_rejected(self):
        d = ZeonMatrix.diagonal([ZeonElement.scalar(2, 1), ZeonElement.scalar(2, 2)])
        with pytest.raises(SpectralSimplicityError, match="rank 2, expected 1"):
            eigenvector(d, 9)

    @pytest.mark.parametrize("value", [np.int64(5), np.float64(5.0), np.complex128(5)])
    def test_accepts_numpy_scalars(self, value):
        d = ZeonMatrix.diagonal([ZeonElement.scalar(2, 2), ZeonElement.scalar(2, 5)])
        vec = eigenvector(d, value)
        assert d.mul(vec).sub(vec.scale(5)).norm_inf() <= 1e-12

    def test_non_normal_drops_the_left_null_row(self):
        # Over the shadow eigenvalue 0 the right null vector (1, -2, 0) peaks
        # at coordinate 1 and the left one (1, 0, 0) at row 0. Dropping row 1
        # with column 1 would leave the singular shadow block [[0, 0], [0, -2]].
        n = 3
        shadow = [[0, 0, 0], [1, 0.5, 0], [0, 0, 2]]
        rng = random.Random(401)
        a = ZeonMatrix([[Z(n, {0: c, rng.randrange(1, 1 << n): rng.uniform(-0.3, 0.3)})
                         for c in row] for row in shadow])
        value = next(v for v in eigenvalues(a) if abs(v.scalar_part()) < 1e-9)
        vec = eigenvector(a, value)
        assert vec.entries[1] == ZeonElement.one(n)
        assert a.mul(vec).sub(vec.scale(value)).norm_inf() <= 1e-12

    def test_planted_eigenvalues_of_large_matrices(self):
        rng = random.Random(409)
        for m in (5, 6):
            for n in (4, 5, 6):
                a, values, frame = rand_self_adjoint(rng, m, n)
                for value, planted in zip(values, frame):
                    vec = eigenvector(a, value)
                    free = int(np.argmax(np.abs(planted.matrix.scalar_matrix()[:, 0])))
                    assert vec.entries[free] == ZeonElement.one(n)
                    residual = a.mul(vec).sub(vec.scale(value)).norm_inf()
                    assert residual <= 1e-9 * max(1.0, a.norm_inf())

    def test_single_row(self):
        a = ZeonMatrix([[Z(9, {0: 2, 0b11: 1, 1 << 8: -0.5})]])
        assert eigenvector(a, a.entries[0][0]).entries == (ZeonElement.one(9),)
        with pytest.raises(ZeonError):
            eigenvector(a, Z(9, {0: 2}))  # right shadow, wrong nilpotent part
        with pytest.raises(SpectralSimplicityError):
            eigenvector(a, 3)

    def test_element_grids_past_the_stack_cap(self):
        rng = random.Random(419)
        a, values, _ = rand_self_adjoint(rng, 3, 9)
        for value in values:
            vec = eigenvector(a, value)
            assert a.mul(vec).sub(vec.scale(value)).norm_inf() <= 1e-9

    def test_shadow_rank_two_below_full_rejected(self):
        n = 2
        a = ZeonMatrix.diagonal([Z(n, {0: 1, 1: 0.5}), Z(n, {0: 1, 2: 0.25}), Z(n, {0: 3})])
        with pytest.raises(SpectralSimplicityError, match="rank 1, expected 2"):
            eigenvector(a, Z(n, {0: 1, 1: 0.5}))


class TestProjections:
    def test_projection_is_idempotent_and_self_adjoint(self):
        rng = random.Random(347)
        v = normalize(rand_vector(rng, 3, 3, kind="invertible"))
        p = projection(v)
        assert p.mul(p).sub(p).norm_inf() <= 1e-9
        assert p.is_self_adjoint()

    def test_projection_fixes_its_vector(self):
        rng = random.Random(349)
        v = normalize(rand_vector(rng, 3, 3, kind="invertible"))
        p = projection(v)
        assert p.mul(v).sub(v).norm_inf() <= 1e-9

    def test_requires_normalized_input(self):
        rng = random.Random(353)
        v = rand_vector(rng, 3, 3, kind="invertible").scale(3.0)
        with pytest.raises(ZeonError):
            projection(v)

    def test_standard_basis_resolution(self):
        vecs = [ZeonVector.unit(3, 2, j) for j in range(3)]
        total = resolution_of_identity(vecs)
        assert total.allclose(ZeonMatrix.identity(3, 2))

    def test_orthonormal_frame_resolution(self):
        rng = random.Random(359)
        _, _, frame = rand_self_adjoint(rng, 3, 3)
        total = resolution_of_identity(frame)
        assert total.sub(ZeonMatrix.identity(3, 3)).norm_inf() <= 1e-9

    def test_mismatched_vectors_rejected(self):
        v = ZeonVector.unit(3, 2, 0)
        with pytest.raises(DimensionMismatch):
            resolution_of_identity([v, ZeonVector.unit(2, 2, 1)])
        with pytest.raises(DimensionMismatch):
            resolution_of_identity([v, ZeonVector.unit(3, 3, 1)])

    def test_non_orthonormal_frame_rejected(self):
        rng = random.Random(367)
        v = normalize(rand_vector(rng, 3, 3, kind="invertible"))
        with pytest.raises(ZeonError) as info:
            resolution_of_identity([v, v, v])
        assert "orthonormal" in str(info.value)


class TestSpectralDecompose:
    def test_worked_example(self, spectral_matrix):
        decomp = spectral_decompose(spectral_matrix)
        assert len(decomp.eigenpairs) == 3
        for pair, want in zip(decomp.eigenpairs, printed_eigenvalues()):
            assert pair.value.max_diff(want) <= 1e-4
        assert list(decomp.checks) == ["idempotent", "orthogonal", "identity",
                                       "reconstruction", "cayley_hamilton", "orthonormal",
                                       "char_zero"]
        assert all(value <= 1e-8 for value in decomp.checks.values())

    def test_diagonal_matrix_is_exact(self):
        d = ZeonMatrix.diagonal([Z(2, {0: 3, 0b11: 1}), Z(2, {0: -1, 0b01: 2})])
        decomp = spectral_decompose(d)
        assert decomp.eigenpairs[0].value.allclose(Z(2, {0: 3, 0b11: 1}))
        assert decomp.eigenpairs[1].value.allclose(Z(2, {0: -1, 0b01: 2}))
        rebuilt = ZeonMatrix.zero(2, 2, 2)
        for pair, proj in zip(decomp.eigenpairs, decomp.projections):
            rebuilt = rebuilt.add(proj.scale(pair.value))
        assert rebuilt.allclose(d)

    def test_planted_decompositions_recover(self):
        rng = random.Random(373)
        for _ in range(8):
            m = rng.randint(2, 3)
            a, values, _ = rand_self_adjoint(rng, m, 3)
            decomp = spectral_decompose(a)
            got = sorted((p.value for p in decomp.eigenpairs),
                         key=lambda v: v.scalar_part().real)
            want = sorted(values, key=lambda v: v.scalar_part().real)
            for g, w in zip(got, want):
                assert g.max_diff(w) <= 1e-7
            rebuilt = ZeonMatrix.zero(m, m, 3)
            for pair, proj in zip(decomp.eigenpairs, decomp.projections):
                rebuilt = rebuilt.add(proj.scale(pair.value))
            assert rebuilt.sub(a).norm_inf() <= 1e-7

    def test_small_last_eigenvector_component(self):
        # The first eigenvector's shadow has last component 0.01. Freeing the
        # last coordinate would leave a block whose shadow is nearly singular,
        # and its inverse would amplify rounding in the dense nilpotent parts
        # past the residual test.
        m, n = 3, 5
        rng = random.Random(2)
        gauss = np.random.default_rng(2).normal(size=(m, m, 2)) @ [1, 1j]
        gauss[m - 1, 0] = 0.01 * np.linalg.norm(gauss[:m - 1, 0])
        q = np.linalg.qr(gauss)[0]
        assert abs(q[m - 1, 0]) < 0.011
        frame = []
        for j in range(m):
            entries = []
            for i in range(m):
                terms = {0: complex(q[i, j])}
                for _ in range(12):
                    mask = rng.randrange(1, 1 << n)
                    terms[mask] = terms.get(mask, 0j) + complex(
                        rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                entries.append(Z(n, terms))
            frame.append(ZeonVector(entries))
        values = [Z(n, {0: s, rng.randrange(1, 1 << n): rng.uniform(-0.5, 0.5)})
                  for s in (-2.0, 0.5, 2.5)]
        a = ZeonMatrix.zero(m, m, n)
        for value, vec in zip(values, orthonormalize(frame)):
            a = a.add(outer(vec, vec).scale(value))
        decomp = spectral_decompose(a)
        got = sorted((p.value for p in decomp.eigenpairs), key=lambda v: v.scalar_part().real)
        for g, w in zip(got, values):
            assert g.max_diff(w) <= 1e-8
        assert decomp.checks["reconstruction"] <= 1e-9

    def test_projections_behave(self, spectral_matrix):
        decomp = spectral_decompose(spectral_matrix)
        projs = decomp.projections
        ident = ZeonMatrix.identity(3, 3)
        total = ZeonMatrix.zero(3, 3, 3)
        for i, p in enumerate(projs):
            assert p.mul(p).sub(p).norm_inf() <= 1e-8
            total = total.add(p)
            for q in projs[i + 1:]:
                assert p.mul(q).norm_inf() <= 1e-8
        assert total.sub(ident).norm_inf() <= 1e-8

    def test_non_self_adjoint_rejected(self):
        a = ZeonMatrix([[ZeonElement.scalar(2, 1j)]])
        with pytest.raises(NotSelfAdjointError):
            spectral_decompose(a)

    def test_repeated_scalar_eigenvalue_rejected(self):
        d = ZeonMatrix.diagonal([Z(2, {0: 2, 0b01: 1}), Z(2, {0: 2, 0b10: 1})])
        with pytest.raises(SpectralSimplicityError):
            spectral_decompose(d)

    def test_decomposition_json(self, spectral_matrix):
        blob = spectral_decompose(spectral_matrix).to_json()
        assert {"eigenvalues", "eigenvectors", "projections", "checks"} <= set(blob)
        assert len(blob["eigenvalues"]) == 3
        assert all(v <= 1e-8 for v in blob["checks"].values())


class TestGramChecks:
    """The idempotence and orthogonality checks read off V-adjoint V - I."""

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_frame_matches_projection_products(self, monkeypatch, seed):
        # every normalized eigenvector gets a small blade added to each entry,
        # so the frame is off orthonormal by about that much
        rng = random.Random(400 + seed)
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a, _, _ = rand_self_adjoint(rng, m, n)
        blade = ZeonElement(n, {rng.randrange(1, 1 << n): complex(1e-5, -7e-6)})
        exact = spectral.normalize
        monkeypatch.setattr(spectral, "normalize",
                            lambda x, tol: exact(x, tol).add(ZeonVector([blade] * m), tol))
        decomp = spectral_decompose(a)
        idem, ortho = projection_product_residuals(decomp.projections)
        orthonormal = orthonormality_residual([p.normalized for p in decomp.eigenpairs])
        for key, want in (("idempotent", idem), ("orthogonal", ortho),
                          ("orthonormal", orthonormal)):
            assert want > 1e-8
            assert abs(decomp.checks[key] - want) <= 1e-9 * want, key

    def test_planted_matrices_match_projection_products(self):
        rng = random.Random(419)
        for _ in range(50):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            a, _, _ = rand_self_adjoint(rng, m, n)
            decomp = spectral_decompose(a)
            idem, ortho = projection_product_residuals(decomp.projections)
            orthonormal = orthonormality_residual([p.normalized for p in decomp.eigenpairs])
            assert abs(decomp.checks["idempotent"] - idem) <= 1e-11
            assert abs(decomp.checks["orthogonal"] - ortho) <= 1e-11
            assert abs(decomp.checks["orthonormal"] - orthonormal) <= 1e-11


def assert_recovers(a, values):
    """spectral_decompose(a) returns the planted values to 1e-8 and small checks."""
    decomp = spectral_decompose(a)
    got = sorted((p.value for p in decomp.eigenpairs), key=lambda v: v.scalar_part().real)
    want = sorted(values, key=lambda v: v.scalar_part().real)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.max_diff(w) <= 1e-8
    assert all(value <= 1e-8 for value in decomp.checks.values()), decomp.checks
    return decomp


class TestRefinement:
    """All eigenpairs come from one refinement of the shadow eigenbasis."""

    @pytest.mark.parametrize("m, n, count", [(6, 6, 12), (6, 8, 5), (8, 4, 12)])
    def test_planted_matrices_past_the_acceptance_sizes(self, m, n, count):
        for seed in range(1000, 1000 + count):
            a, values, _ = rand_self_adjoint(random.Random(seed), m, n)
            assert_recovers(a, values)

    def test_planted_decomposition_on_element_grids(self):
        a, values, _ = rand_self_adjoint(random.Random(419), 3, 9)
        decomp = assert_recovers(a, values)
        assert a._stack is None
        assert all(p.normalized.matrix._stack is None for p in decomp.eigenpairs)

    def test_single_row(self):
        entry = Z(4, {0: 2.5, 0b0011: 1, 0b1100: -0.5})
        decomp = spectral_decompose(ZeonMatrix([[entry]]))
        (pair,) = decomp.eigenpairs
        assert pair.value.allclose(entry)
        assert pair.vector.entries == (ZeonElement.one(4),)
        assert pair.normalized.entries == (ZeonElement.one(4),)
        assert decomp.projections[0].allclose(ZeonMatrix.identity(1, 4))

    def test_raw_vector_is_the_block_solve_vector(self, spectral_matrix):
        for pair in spectral_decompose(spectral_matrix).eigenpairs:
            assert pair.vector.allclose(eigenvector(spectral_matrix, pair.value), DEFAULT)

    def test_no_lift_and_no_block_solve(self, monkeypatch, spectral_matrix):
        def refuse(*args, **kwargs):
            raise AssertionError("spectral_decompose must not call this")

        monkeypatch.setattr(spectral, "lift_simple_zero", refuse)
        monkeypatch.setattr(spectral, "eigenvector", refuse)
        assert len(spectral_decompose(spectral_matrix).eigenpairs) == 3

    @pytest.mark.parametrize("part", ["frame", "values"])
    def test_frame_gate_raises(self, monkeypatch, spectral_matrix, part):
        # a frame or eigenvalues off by 1e-6 must not be returned as a decomposition
        refine = spectral._refine
        nudge = Z(3, {0b011: 1e-6})

        def nudged(matrix, tol):
            lam, x = refine(matrix, tol)
            if part == "frame":
                return lam, x.add(ZeonMatrix([[nudge] * 3] * 3), tol)
            return lam.add(ZeonMatrix([[nudge] * 3]), tol), x

        monkeypatch.setattr(spectral, "_refine", nudged)
        with pytest.raises(NonConvergenceError, match="refined eigenvector frame"):
            spectral_decompose(spectral_matrix)

    def test_char_zero_is_the_largest_char_poly_value(self):
        rng = random.Random(431)
        for _ in range(12):
            a, _, _ = rand_self_adjoint(rng, rng.randint(2, 4), rng.randint(2, 5))
            decomp = spectral_decompose(a)
            chi = char_poly(a)
            want = max(chi.evaluate(p.value).norm_inf() for p in decomp.eigenpairs)
            assert abs(decomp.checks["char_zero"] - want) <= 1e-12

    def test_char_zero_away_from_the_eigenvalues(self):
        # at values that are not eigenvalues, the row Horner equals the element one
        rng = random.Random(433)
        for _ in range(8):
            m, n = rng.randint(2, 4), rng.randint(1, 5)
            chi = char_poly(rand_matrix(rng, m, n))
            values = [rand_vector(rng, 1, n).entries[0] for _ in range(m)]
            want = max(chi.evaluate(v).norm_inf() for v in values)
            got = spectral._char_zero(chi, ZeonMatrix([values]), DEFAULT)
            assert want > 1e-3
            assert abs(got - want) <= 1e-12 * want


class TestFrame:
    @pytest.mark.parametrize("n", [0, 3, 5, 8, 9])
    def test_stacked_and_grid_vectors_give_equal_frames(self, n):
        rng = random.Random(439 + n)
        columns = rand_matrix(rng, 3, n)
        if n <= 8:
            columns._coeffs()
        stacked = [ZeonVector._of(columns._block(range(3), [j])) for j in range(3)]
        grid = [ZeonVector(v.entries) for v in stacked]
        from_stacks = spectral._frame(stacked)
        from_grids = spectral._frame(grid)
        mixed = spectral._frame(stacked[:1] + grid[1:])
        assert (from_stacks._stack is not None) == (n <= 8)
        assert from_grids._stack is None and mixed._stack is None

        def terms(matrix):
            return [[e.terms for e in row] for row in matrix.entries]

        assert terms(from_stacks) == terms(from_grids) == terms(mixed) == terms(columns)


class TestIndependence:
    def test_decomposition_vectors_are_independent(self, spectral_matrix):
        decomp = spectral_decompose(spectral_matrix)
        assert eigen_independence_check(decomp.eigenpairs)

    def test_duplicated_vector_fails(self):
        rng = random.Random(379)
        v = rand_vector(rng, 3, 3, kind="invertible")
        assert not eigen_independence_check([v, v])

    def test_too_many_vectors_fail(self):
        rng = random.Random(383)
        vecs = [rand_vector(rng, 2, 2, kind="invertible") for _ in range(3)]
        assert not eigen_independence_check(vecs)
