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
    Tolerances,
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
    bordered_eigenvector,
    dense_charpoly,
    from_dense,
    orthonormality_residual,
    projection_product_residuals,
    rand_matrix,
    rand_self_adjoint,
    rand_vector,
)
from test_cold_start import dense_matrix_file

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

    @staticmethod
    def assert_lifts_every_value(a):
        want = [p.value for p in spectral_decompose(a).eigenpairs]
        pairs = spectral._eigenpairs(a, DEFAULT)
        assert len(pairs) == len(want)
        for (value, vec), w in zip(pairs, want):
            assert value.max_diff(w) <= DEFAULT.compare
            residual = a.mul(vec).sub(vec.scale(value)).norm_inf()
            assert residual <= DEFAULT.compare * max(1.0, a.norm_inf())

    @pytest.mark.parametrize("scale", [3e-5, 1e-5])
    def test_small_fixture_lifts_every_value(self, spectral_matrix, scale):
        # at x3e-5 chi_A's constant term, about 5.4e-13, would fall under the
        # prune; eigenvalues() builds chi_A of 2^k A instead, exactly scaled
        self.assert_lifts_every_value(spectral_matrix.scale(scale))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_small_self_adjoint_lifts_every_value(self, seed):
        # at x2e-3 the prune would cut into chi_A, and one zero lift 5e-6 to
        # 1.5e-5 away from the eigenvalue that spectral_decompose finds
        self.assert_lifts_every_value(rand_self_adjoint(random.Random(seed), 4, 4)[0].scale(2e-3))

    def test_lift_with_a_full_rank_shadow_is_refused(self, spectral_matrix, monkeypatch):
        # a lift 1% off the eigenvalue's shadow: eigenvector's rank test refuses
        # it, and the report is at A's own scale, not at the scale chi_A was built
        original = spectral._Lifter.lift
        monkeypatch.setattr(spectral._Lifter, "lift",
                            lambda self, value: original(self, value).scale(1.01, self.tol))
        a = spectral_matrix.scale(3e-5)
        want = [p.value for p in spectral_decompose(a).eigenpairs]
        with pytest.raises(NonConvergenceError, match="is not an eigenvalue: shadow of") as info:
            eigenvalues(a)
        report = info.value.report
        nearest = min(want, key=lambda w: abs(1.01 * w.scalar_part() - report.scalar_part()))
        assert report.max_diff(nearest.scale(1.01)) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_lift_off_the_eigenvalue_is_refused(self, seed, monkeypatch):
        # a lift with the right shadow and a nilpotent offset: eigenvector's
        # residual test refuses it, with the report at A's own scale
        original = spectral._Lifter.lift
        monkeypatch.setattr(spectral._Lifter, "lift", lambda self, value: original(
            self, value).add(Z(4, {1: 1e-2}), self.tol))
        a = rand_self_adjoint(random.Random(seed), 4, 4)[0].scale(2e-3)
        want = [p.value for p in spectral_decompose(a).eigenpairs]
        with pytest.raises(NonConvergenceError, match="lifted above .* is not an eigenvalue") \
                as info:
            eigenvalues(a)
        lift = info.value.report
        nearest = min(want, key=lambda w: abs(w.scalar_part() - lift.scalar_part()))
        assert abs(nearest.scalar_part() - lift.scalar_part()) <= 1e-12
        assert nearest.max_diff(lift) > 1e-6

    def test_subnormal_matrix_is_scaled_within_float_range(self):
        # 2^k with k past 1023 overflows; a domain error, here a lift stop at
        # this prune, must come back instead of an OverflowError
        tol = Tolerances(prune=1e-320, compare=1e-300, scalar_zero=1e-320)
        a = ZeonMatrix.diagonal([Z(1, {0: 3, 1: 0.1}), Z(1, {0: 1})]).scale(1e-310, tol)
        assert 0 < a.norm_inf() < 2.0 ** -1023
        with pytest.raises(ZeonError):
            eigenvalues(a, tol)

    def test_non_square_refused_by_name(self):
        with pytest.raises(DimensionMismatch, match="eigenvalue extraction needs a square"):
            eigenvalues(ZeonMatrix.zero(2, 3, 1))

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

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e10, 1e14])
    def test_scaled_diagonal(self, scale):
        # N = 0, so the vector is the start x_0 = e_0 itself; the rank test is
        # relative to max(1, largest singular value), so it holds at every scale
        d = ZeonMatrix.diagonal([ZeonElement.scalar(2, scale), ZeonElement.scalar(2, 2 * scale)])
        assert eigenvector(d, scale).allclose(ZeonVector.unit(2, 2, 0))

    @pytest.mark.parametrize("scale", [1e-6, 1e6, 1e10, 1e14])
    def test_scaled_matrices(self, spectral_matrix, scale):
        a = spectral_matrix.scale(scale)
        for value in eigenvalues(spectral_matrix):
            vec = eigenvector(a, value.scale(scale))
            residual = a.mul(vec).sub(vec.scale(value.scale(scale))).norm_inf()
            assert residual <= 1e-9 * max(1.0, a.norm_inf())
            assert any(e.is_invertible() for e in vec.entries)

    def test_value_in_another_algebra_rejected(self, spectral_matrix):
        with pytest.raises(DimensionMismatch, match="different algebra"):
            eigenvector(spectral_matrix, ZeonElement.scalar(2, 5))

    def test_stack_held_matrix_gives_a_stack_held_vector(self, tmp_path):
        # at n = 5 the start and K are built as stacks, so the kernel series
        # leaves a stack-held vector, which agrees with the grid-held input's
        a = ZeonMatrix.from_json(json.loads(
            dense_matrix_file(tmp_path, 5, self_adjoint=True).read_text()))
        held = ZeonMatrix(a.entries)
        held._coeffs()
        for value in eigenvalues(ZeonMatrix(a.entries)):
            from_stack = eigenvector(held, value)
            from_grid = eigenvector(ZeonMatrix(a.entries), value)
            assert from_stack.matrix._stack is not None
            assert ZeonMatrix(from_grid.matrix.entries).sub(from_stack.matrix).norm_inf() <= 1e-12
            assert a.mul(from_stack).sub(from_stack.scale(value)).norm_inf() <= 1e-9

    def test_shadow_rank_two_below_full_rejected(self):
        n = 2
        a = ZeonMatrix.diagonal([Z(n, {0: 1, 1: 0.5}), Z(n, {0: 1, 2: 0.25}), Z(n, {0: 3})])
        with pytest.raises(SpectralSimplicityError, match="rank 1, expected 2"):
            eigenvector(a, Z(n, {0: 1, 1: 0.5}))

    def test_kernel_series_matches_the_bordered_reference(self):
        # 200 (A, lambda) pairs, lambda from eigenvalues(A), general and
        # self-adjoint, m 1-6 and n 1-9, solved as (c A, c lambda): the
        # eigenvector is scale-free, so each must equal the bordered inverse's
        # vector for (A, lambda). The prune is absolute, so below unit scale it
        # shrinks with c: under the default prune c A drops every coefficient
        # of A under 1e-12 / c, and its eigenvector is then another one.
        rng = random.Random(2026)
        pairs = 0
        while pairs < 200:
            m, n = rng.randint(1, 6), rng.randint(1, 9)
            scale = rng.choice([1e-6, 1.0, 1e6, 1e10, 1e14])
            tol = Tolerances(prune=DEFAULT.prune * min(1.0, scale))
            if rng.random() < 0.5:
                a = rand_matrix(rng, m, n)
            else:
                a = rand_self_adjoint(rng, m, n)[0]
            try:
                values = eigenvalues(a)
            except NonConvergenceError:
                continue  # a lift that stops early; eigenvector is not reached
            scaled = a.scale(scale, tol)
            for value in values:
                reference = bordered_eigenvector(a, value)
                vec = eigenvector(scaled, value.scale(scale, tol), tol)
                assert vec.sub(reference).norm_inf() <= 1e-12 * reference.norm_inf()
                residual = a.mul(vec).sub(vec.scale(value)).norm_inf()
                assert residual <= 1e-9 * max(1.0, a.norm_inf())
                pairs += 1

    def test_defective_shadow_with_exact_eigenvalues(self):
        # the shadow [[2, 1], [0, 2]] is a Jordan block, yet 2 + z1 and 2 + z2
        # are spectrally simple eigenvalues: S_0 has rank 1 at each
        n = 2
        a = ZeonMatrix([[Z(n, {0: 2, 1: 1}), Z(n, {0: 1})], [Z(n, {}), Z(n, {0: 2, 2: 1})]])
        assert eigenvector(a, Z(n, {0: 2, 1: 1})).allclose(ZeonVector.unit(2, n, 0))
        assert eigenvector(a, Z(n, {0: 2, 2: 1})).allclose(
            ZeonVector([ZeonElement.one(n), Z(n, {1: -1, 2: 1})]))


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

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="at least one vector"):
            resolution_of_identity([])

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
                                       "reconstruction", "orthonormal"]
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

    @pytest.mark.parametrize("scale", [3e-5, 1e-5, 1e-6, 1e6])
    def test_small_simple_spectrum_decomposes(self, spectral_matrix, scale):
        # simplicity is relative to the spectrum's size, so a scaled copy
        # decomposes into the scaled eigenvalues, and every check stays
        # within the frame gate's bound
        want = [p.value for p in spectral_decompose(spectral_matrix).eigenpairs]
        decomp = spectral_decompose(spectral_matrix.scale(scale))
        for g, w in zip([p.value for p in decomp.eigenpairs], want, strict=True):
            assert g.max_diff(w.scale(scale)) <= 1e-12 * scale * w.norm_inf()
        assert all(value <= DEFAULT.compare * 3 for value in decomp.checks.values())

    @pytest.mark.parametrize("gap, simple", [(2.0 ** -30, False), (2.0 ** -29, True)],
                             ids=["at-bound", "above-bound"])
    def test_simplicity_bound_is_relative_to_the_largest_value(self, gap, simple):
        # shadow values 1, 1 - gap and -2, all exact in binary, against the
        # bound scalar_zero * 2 = 2^-30: a gap at the bound is a cluster
        tol = Tolerances(scalar_zero=2.0 ** -31)
        d = ZeonMatrix.diagonal([Z(2, {0: 1.0, 0b01: 0.5}), Z(2, {0: 1.0 - gap, 0b10: 0.25}),
                                 Z(2, {0: -2.0, 0b11: 1.0})])
        if simple:
            values = [p.value for p in spectral_decompose(d, tol).eigenpairs]
            assert all(v.allclose(e) for v, e in zip(values, [d[0, 0], d[1, 1], d[2, 2]]))
        else:
            with pytest.raises(SpectralSimplicityError, match=r"not simple \(1 x2\)"):
                spectral_decompose(d, tol)

    def test_decomposition_json(self, spectral_matrix):
        blob = spectral_decompose(spectral_matrix).to_json()
        assert {"eigenvalues", "eigenvectors", "projections", "checks"} <= set(blob)
        assert len(blob["eigenvalues"]) == 3
        assert all(v <= 1e-8 for v in blob["checks"].values())


class TestGramChecks:
    """The idempotence and orthogonality checks read off V-adjoint V - I."""

    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_frame_matches_projection_products(self, seed):
        # every normalized eigenvector gets a small blade added to each entry,
        # so the frame is off orthonormal by about that much, and the checks
        # on it come back with the refused decomposition
        rng = random.Random(400 + seed)
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        a, _, _ = rand_self_adjoint(rng, m, n)
        blade = ZeonElement(n, {rng.randrange(1, 1 << n): complex(1e-5, -7e-6)})
        exact = spectral_decompose(a).eigenpairs
        lam = ZeonMatrix([[p.value for p in exact]])
        raw = spectral._frame([p.vector for p in exact])
        frame = spectral._frame([p.normalized for p in exact]).add(ZeonMatrix([[blade] * m] * m))
        with pytest.raises(NonConvergenceError, match="refined eigenvector frame") as info:
            spectral._verified(a, lam, raw, frame, DEFAULT)
        decomp = info.value.report
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

    @pytest.mark.parametrize("m, n, count", [(6, 6, 12), (6, 8, 5), (8, 4, 12), (10, 4, 4)])
    def test_planted_matrices_past_the_acceptance_sizes(self, m, n, count):
        for seed in range(1000, 1000 + count):
            a, values, _ = rand_self_adjoint(random.Random(seed), m, n)
            assert_recovers(a, values)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("m", [2, 3])
    def test_planted_small_matrices_at_every_pass_count(self, m, n):
        # n = 1..8 crosses every n.bit_length() edge of the fixed pass count
        a, values, _ = rand_self_adjoint(random.Random(500 + 10 * m + n), m, n)
        assert_recovers(a, values)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("m", [5, 6])
    def test_planted_matrices_on_the_stack_kernels(self, m, n):
        # past m, n <= 4, at sizes whose products run on coefficient stacks
        # (the 3^n-pair gather kernel)
        a, values, _ = rand_self_adjoint(random.Random(2025), m, n)
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

        monkeypatch.setattr(spectral, "_Lifter", refuse)
        monkeypatch.setattr(spectral, "eigenvector", refuse)
        monkeypatch.setattr(spectral, "complex_roots", refuse)
        monkeypatch.setattr(spectral, "_char_poly", refuse)
        assert len(spectral_decompose(spectral_matrix).eigenpairs) == 3

    def test_one_entrywise_power_per_decomposition(self, monkeypatch, spectral_matrix):
        # the refinement sums no series, and one -1/2 power, |X_fj|^-1, gives
        # both the normalized and the raw eigenvectors
        alphas = []
        power = ZeonMatrix._entrywise_power

        def spy(self, alpha, tol):
            alphas.append(alpha)
            return power(self, alpha, tol)

        monkeypatch.setattr(ZeonMatrix, "_entrywise_power", spy)
        spectral_decompose(spectral_matrix)
        assert alphas == [-0.5]

    @pytest.mark.parametrize("part, scale, size", [
        pytest.param("frame", 1.0, 1e-6, id="frame"),
        pytest.param("values", 1.0, 1e-6, id="values"),
        # |A| = 1e-3: a misfit of 1e-10 is 1e-7 of A, so the gate reads the
        # reported reconstruction, not the misfit over max(1, |A|)
        pytest.param("values", 2e-4, 1e-10, id="values-small-matrix"),
    ])
    def test_frame_gate_raises(self, monkeypatch, spectral_matrix, part, scale, size):
        # a nudged frame or nudged eigenvalues must not be returned as a decomposition
        spectral_matrix = spectral_matrix.scale(scale)
        refine = spectral._refine
        nudge = Z(3, {0b011: size})

        def nudged(matrix, tol):
            lam, x = refine(matrix, tol)
            if part == "frame":
                return lam, x.add(ZeonMatrix([[nudge] * 3] * 3), tol)
            return lam.add(ZeonMatrix([[nudge] * 3]), tol), x

        monkeypatch.setattr(spectral, "_refine", nudged)
        with pytest.raises(NonConvergenceError, match="refined eigenvector frame") as info:
            spectral_decompose(spectral_matrix)
        # the refused decomposition comes back with the check that refused it
        checks = info.value.report.checks
        assert checks["orthonormal" if part == "frame" else "reconstruction"] > DEFAULT.compare * 3


def hermitian(rng, m):
    """Seeded Hermitian m x m array with Gaussian entries."""
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (g + g.conj().T) / 2


class TestHermitianEigen:
    """The pure-Python Jacobi that finds the shadow eigenbasis, against numpy's eigh."""

    @staticmethod
    def assert_eigenbasis(a, values, vectors):
        norm = np.linalg.norm(a, 2)
        v = np.array(vectors, dtype=complex)
        assert values == sorted(values, reverse=True)
        assert np.linalg.norm(a @ v - v * values, 2) <= 1e-13 * norm
        assert np.linalg.norm(v.conj().T @ v - np.eye(len(a)), 2) <= 1e-13

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("scale", [1.0, 1e-5, 1e6])
    def test_matches_eigh(self, m, scale):
        rng = np.random.default_rng(1200 + m)
        for _ in range(6):
            a = scale * hermitian(rng, m)
            values, vectors = spectral._hermitian_eigen(a.tolist())
            want = np.linalg.eigh(a)[0][::-1]
            assert np.abs(np.array(values) - want).max() <= 1e-13 * np.linalg.norm(a, 2)
            self.assert_eigenbasis(a, values, vectors)

    def test_reads_the_lower_triangle(self):
        # as eigh does: the upper triangle and the diagonal's imaginary parts are ignored
        a = hermitian(np.random.default_rng(1210), 4)
        skewed = np.tril(a) + np.triu(np.full((4, 4), 5 - 7j), 1) + 3j * np.eye(4)
        assert spectral._hermitian_eigen(skewed.tolist()) == spectral._hermitian_eigen(a.tolist())

    def test_diagonal_zero_and_one_by_one(self):
        values, vectors = spectral._hermitian_eigen([[1.0, 0], [0, 4.0 + 0j]])
        assert values == [4.0, 1.0] and vectors == [[0, 1], [1, 0]]
        values, vectors = spectral._hermitian_eigen([[0j] * 3] * 3)
        assert values == [0.0] * 3 and vectors == np.eye(3).tolist()
        assert spectral._hermitian_eigen([[-2.5 + 0j]]) == ([-2.5], [[1]])

    def test_repeated_value(self):
        # Q diag(2, 2, -1) Q-adjoint: Jacobi finds the double value, and
        # spectral_decompose names its cluster in the words it always used
        q, _ = np.linalg.qr(hermitian(np.random.default_rng(1220), 3))
        a = q @ np.diag([2.0, 2.0, -1.0]) @ q.conj().T
        values, vectors = spectral._hermitian_eigen(a.tolist())
        assert np.allclose(values, [2, 2, -1], rtol=0, atol=1e-14)
        self.assert_eigenbasis(a, values, vectors)
        matrix = ZeonMatrix.from_scalar_matrix(a, 2).add(
            ZeonMatrix.diagonal([Z(2, {0b01: 0.5}), Z(2, {0b10: 1}), Z(2, {0b11: 2})]))
        with pytest.raises(SpectralSimplicityError, match=r"^shadow spectrum is not simple "
                           r"\(2 x2\); no unique decomposition$"):
            spectral_decompose(matrix)

    def test_non_finite_shadow_is_refused(self):
        with pytest.raises(ZeonError, match="non-finite"):
            spectral._hermitian_eigen([[1.0, 0], [float("inf"), 2.0]])


def planted(m, n, seed):
    """Planted self-adjoint matrix; at n = 0, a Hermitian shadow with separated values."""
    if n:
        return rand_self_adjoint(random.Random(seed), m, n)[0]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(hermitian(rng, m))
    return ZeonMatrix.from_scalar_matrix(q @ np.diag(np.arange(m, 0, -1.0)) @ q.conj().T, 0)


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("m", [2, 3, 4])
def test_grid_and_stack_decompositions_agree(m, n):
    # below the size rule the decomposition runs on element grids; an input
    # that already holds its stack keeps every pass on stacks
    a = planted(m, n, 1300 + 10 * m + n)
    grid = spectral_decompose(ZeonMatrix(a.entries))
    held = ZeonMatrix(a.entries)
    held._coeffs()
    stack = spectral_decompose(held)
    assert all(p.normalized.matrix._stack is None for p in grid.eigenpairs)
    assert all(p.normalized.matrix._stack is not None for p in stack.eigenpairs)
    scale = max(p.value.norm_inf() for p in grid.eigenpairs)
    for g, s in zip(grid.eigenpairs, stack.eigenpairs, strict=True):
        assert g.value.max_diff(s.value) <= 1e-12 * scale
        assert ZeonMatrix(g.normalized.matrix.entries).sub(s.normalized.matrix).norm_inf() <= 1e-12
    assert grid.checks.keys() == stack.checks.keys()
    for name, value in grid.checks.items():
        assert abs(value - stack.checks[name]) <= 1e-12, name


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
        assert from_grids._stack is None and (mixed._stack is not None) == (n <= 8)

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
