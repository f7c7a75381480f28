"""Vectors, inner products, matrices, elimination, determinants, inverses."""

import itertools
import json
import math
import pathlib
import random

import numpy as np
import pytest

from zeonalg import (
    DEFAULT,
    DimensionMismatch,
    ParseError,
    RowOp,
    SingularityError,
    Tolerances,
    ZeonElement,
    ZeonMatrix,
    ZeonVector,
    apply_row_ops,
    determinant,
    eliminate,
    inner_product,
    mat_inverse,
    normalize,
    orthonormalize,
    outer,
    spectral_seminorm,
)

from zeonalg import algebra, linalg
from zeonalg.linalg import _det_elimination, _det_permutation

from oracles import (
    dense_add,
    dense_matmul,
    dense_mul,
    dense_one,
    dense_perm_det,
    dense_scale,
    exactly,
    from_dense,
    max_dense_diff,
    rand_element,
    rand_matrix,
    rand_unitary_frame,
    rand_vector,
    to_dense,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def Z(n, terms):
    return ZeonElement(n, terms)


@pytest.fixture
def worked_vectors():
    v1 = ZeonVector.from_json(load_fixture("vec_v1.json"))
    v2 = ZeonVector.from_json(load_fixture("vec_v2.json"))
    return v1, v2


@pytest.fixture
def det_matrix():
    return ZeonMatrix.from_json(load_fixture("mat_det_example.json"))


class TestInnerProduct:
    def test_worked_values(self, worked_vectors):
        v1, v2 = worked_vectors
        assert inner_product(v1, v1).allclose(Z(3, {0: 5, 0b111: -4}))
        assert inner_product(v1, v2).is_zero()
        assert inner_product(v2, v2).is_zero()

    def test_conjugate_symmetry(self):
        rng = random.Random(71)
        x = rand_vector(rng, 3, 3)
        y = rand_vector(rng, 3, 3)
        assert inner_product(x, y).allclose(inner_product(y, x).conjugate())

    def test_zeon_linearity_in_first_slot(self):
        rng = random.Random(73)
        x = rand_vector(rng, 3, 3)
        y = rand_vector(rng, 3, 3)
        z = rand_vector(rng, 3, 3)
        alpha = rand_element(rng, 3)
        lhs = inner_product(x.scale(alpha).add(y), z)
        rhs = alpha.mul(inner_product(x, z)).add(inner_product(y, z))
        assert lhs.allclose(rhs)

    def test_scalar_part_is_the_complex_dot(self):
        rng = random.Random(79)
        x = rand_vector(rng, 4, 3)
        y = rand_vector(rng, 4, 3)
        dot = sum(a.scalar_part() * b.scalar_part().conjugate()
                  for a, b in zip(x.entries, y.entries))
        assert abs(inner_product(x, y).scalar_part() - dot) <= 1e-12

    def test_self_pairing_scalar_part_nonnegative(self):
        rng = random.Random(83)
        for _ in range(25):
            x = rand_vector(rng, 3, 3)
            s = inner_product(x, x).scalar_part()
            assert abs(s.imag) <= 1e-12
            assert s.real >= -1e-12

    def test_null_exactly_when_all_entries_nilpotent(self):
        rng = random.Random(89)
        nil = rand_vector(rng, 3, 3, kind="nilpotent")
        assert abs(inner_product(nil, nil).scalar_part()) <= 1e-12
        has_unit = rand_vector(rng, 3, 3, kind="invertible")
        assert inner_product(has_unit, has_unit).scalar_part().real > 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product(ZeonVector.zero(2, 3), ZeonVector.zero(3, 3))


class TestSeminormAndNormalize:
    def test_worked_seminorm(self, worked_vectors):
        v1, v2 = worked_vectors
        assert spectral_seminorm(v1) == pytest.approx(math.sqrt(5))
        assert spectral_seminorm(v2) == pytest.approx(0.0)

    def test_worked_normalization(self, worked_vectors):
        v1, _ = worked_vectors
        w = normalize(v1)
        s5 = math.sqrt(5)
        expected = ZeonVector([
            Z(3, {0: 1j / s5, 0b001: 1 / s5, 0b111: 2j / (5 * s5)}),
            Z(3, {0b010: 1 / s5, 0b110: -1 / s5}),
            Z(3, {0: 2 / s5, 0b111: -1 / (5 * s5)}),
        ])
        assert w.allclose(expected)
        assert inner_product(w, w).allclose(ZeonElement.one(3))

    def test_random_normalization_is_unit(self):
        rng = random.Random(97)
        for _ in range(20):
            v = rand_vector(rng, 3, 3, kind="invertible")
            w = normalize(v)
            assert inner_product(w, w).allclose(ZeonElement.one(3))

    def test_null_vector_rejected(self, worked_vectors):
        _, v2 = worked_vectors
        with pytest.raises(SingularityError):
            normalize(v2)

    def test_orthonormalize(self):
        rng = random.Random(101)
        frame = orthonormalize(rand_unitary_frame(rng, 3, 3))
        one = ZeonElement.one(3)
        for i, u in enumerate(frame):
            for j, w in enumerate(frame):
                want = one if i == j else ZeonElement.zero(3)
                assert inner_product(u, w).allclose(want)


class TestMatrixBasics:
    def test_constructors(self):
        ident = ZeonMatrix.identity(2, 3)
        assert ident.entries[0][0] == ZeonElement.one(3)
        assert ident.entries[0][1].is_zero()
        diag = ZeonMatrix.diagonal([Z(2, {0: 1}), Z(2, {1: 1})])
        assert diag.entries[1][1] == Z(2, {1: 1})

    def test_scalar_shadow_is_a_ring_map(self):
        rng = random.Random(103)
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        got = a.mul(b).scalar_matrix()
        want = a.scalar_matrix() @ b.scalar_matrix()
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_adjoint(self):
        rng = random.Random(107)
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert a.adjoint().adjoint().allclose(a)
        assert a.mul(b).adjoint().allclose(b.adjoint().mul(a.adjoint()))

    def test_trace(self):
        rng = random.Random(109)
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert a.mul(b).trace().allclose(b.mul(a).trace())

    def test_matrix_vector_product(self):
        rng = random.Random(113)
        a = rand_matrix(rng, 3, 3)
        v = rand_vector(rng, 3, 3)
        w = a.mul(v)
        for i in range(3):
            acc = ZeonElement.zero(3)
            for j in range(3):
                acc = acc.add(a.entries[i][j].mul(v.entries[j]))
            assert w.entries[i].allclose(acc)

    def test_is_self_adjoint(self):
        spectral = ZeonMatrix.from_json(load_fixture("mat_spectral.json"))
        assert spectral.is_self_adjoint()
        assert ZeonMatrix.identity(3, 2).is_self_adjoint()
        skew = ZeonMatrix([[ZeonElement.scalar(2, 1j)]])
        assert not skew.is_self_adjoint()

    def test_is_nilpotent(self):
        n2 = ZeonMatrix([
            [ZeonElement.zero(2), ZeonElement.one(2)],
            [ZeonElement.zero(2), ZeonElement.zero(2)],
        ])
        assert n2.is_nilpotent()
        dual = ZeonMatrix([[ZeonElement.generator(2, 1), ZeonElement.generator(2, 2)],
                           [ZeonElement.blade(2, (1, 2)), ZeonElement.generator(2, 1)]])
        assert dual.is_nilpotent()
        assert not ZeonMatrix.identity(2, 2).is_nilpotent()

    def test_outer_product_is_self_adjoint(self):
        rng = random.Random(127)
        v = rand_vector(rng, 3, 3)
        assert outer(v, v).is_self_adjoint()

    @pytest.mark.parametrize("build", [lambda: ZeonMatrix([[1]]),
                                       lambda: ZeonVector([1, 2]),
                                       lambda: ZeonMatrix([[ZeonElement.one(1), 1]]),
                                       lambda: ZeonMatrix([[1, ZeonElement.one(1)]])])
    def test_non_element_entries_raise_type_error(self, build):
        with pytest.raises(TypeError, match="ZeonElement"):
            build()

    def test_ragged_rows_raise(self):
        one = ZeonElement.one(1)
        with pytest.raises(DimensionMismatch, match="ragged"):
            ZeonMatrix([[one, one], [one]])

    def test_non_square_is_not_self_adjoint(self):
        assert not ZeonMatrix.zero(2, 3, 1).is_self_adjoint()

    @pytest.mark.parametrize("other", [ZeonMatrix.identity(2, 2), ZeonMatrix.zero(2, 3, 1),
                                       ZeonElement.one(1), None])
    def test_allclose_is_false_across_shapes_and_types(self, other):
        assert not ZeonMatrix.identity(2, 1).allclose(other)

    def test_pretty_and_repr(self):
        a = ZeonMatrix([[Z(1, {0: 2, 1: -1}), ZeonElement.zero(1)]])
        assert a.pretty() == "[2 - z[1], 0]"
        assert repr(a) == "<ZeonMatrix 1x2 n=1>"


class TestElimination:
    def test_identity_needs_no_ops(self):
        report = eliminate(ZeonMatrix.identity(3, 2))
        assert report.ops == ()
        assert report.pivot_count == 3
        assert report.det_factor == 1

    def test_replay_reproduces_upper(self):
        rng = random.Random(131)
        cases = [rand_matrix(rng, rng.randint(2, 4), 3, kind="invertible") for _ in range(15)]
        for a in cases:
            m = a.rows
            report = eliminate(a)
            assert report.pivot_count == m
            assert apply_row_ops(a, report.ops).allclose(report.upper)
            for j in range(m):
                for i in range(j + 1, m):
                    assert not report.upper.entries[i][j].terms

    def test_strategies_agree_on_pivot_count(self):
        # The matrix and its rows reversed take different pivot rows under
        # max-scalar pivoting, yet both must pivot every column.
        rng = random.Random(137)
        for _ in range(10):
            a = rand_matrix(rng, 3, 3, kind="invertible")
            flipped = ZeonMatrix(list(reversed(a.entries)))
            r1, r2 = eliminate(a), eliminate(flipped)
            assert r1.pivot_count == r2.pivot_count == 3
            assert apply_row_ops(a, r1.ops).allclose(r1.upper)
            assert apply_row_ops(flipped, r2.ops).allclose(r2.upper)

    def test_det_factor_tracks_swaps(self):
        a = ZeonMatrix([
            [ZeonElement.generator(2, 1), ZeonElement.one(2)],
            [ZeonElement.one(2), ZeonElement.generator(2, 2)],
        ])
        report = eliminate(a)
        assert report.det_factor == -1
        assert report.pivot_count == 2

    def test_all_nilpotent_column_is_skipped(self):
        z1 = ZeonElement.generator(2, 1)
        z2 = ZeonElement.generator(2, 2)
        a = ZeonMatrix([[z1, ZeonElement.one(2)], [z2, ZeonElement.scalar(2, 3)]])
        report = eliminate(a)
        assert report.pivot_count == 1
        assert report.pivots == ((0, 1),)

    def test_rectangular(self):
        rng = random.Random(139)
        a = ZeonMatrix([[rand_element(rng, 2) for _ in range(4)] for _ in range(2)])
        report = eliminate(a)
        assert apply_row_ops(a, report.ops).allclose(report.upper)

    def test_report_json(self):
        rng = random.Random(149)
        a = rand_matrix(rng, 2, 2, kind="invertible")
        blob = eliminate(a).to_json()
        assert set(blob) == {"upper", "ops", "det_factor", "pivot_count", "pivots"}
        for op in blob["ops"]:
            assert op["kind"] in {"swap", "axpy"}


def _eliminate_on_elements(a, monkeypatch):
    """eliminate on a fresh grid of a's entries, with the stack rule turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_use_stack", lambda *args: False)
        return eliminate(ZeonMatrix(a.entries))


def _eliminate_on_stack(a):
    """eliminate on a stack-backed copy of a, which puts elimination on the stack."""
    stacked = ZeonMatrix(a.entries)
    stacked._coeffs()
    return eliminate(stacked)


def _forms_case(rng, n, rows, cols, nilpotent_cols=(), nilpotent_row=False):
    """rows x cols matrix with sparse and dense entries on n generators."""
    def entry(kind):
        if kind == "nilpotent" and n == 0:
            return ZeonElement.zero(0)
        return rand_element(rng, n, rng.choice([2, 1 << n]), kind)

    grid = [[entry("nilpotent" if j in nilpotent_cols else "any") for j in range(cols)]
            for _ in range(rows)]
    if nilpotent_row:
        grid[rng.randrange(rows)] = [entry("nilpotent") for _ in range(cols)]
    return ZeonMatrix(grid)


def _max_diff(a, b):
    return max(x.max_diff(y) for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


class TestEliminationForms:
    """The element loop and the stack's rank-one updates are one elimination."""

    CASES = [(n, rows, cols, nilpotent_cols, nilpotent_row)
             for n in range(9)
             for rows, cols, nilpotent_cols, nilpotent_row in [
                 (2, 2, (), False), (3, 3, (1,), False), (4, 4, (), True),
                 (5, 5, (2,), False), (6, 6, (1, 4), True), (7, 7, (3,), False),
                 (3, 6, (0,), False), (6, 3, (), False), (7, 2, (), True), (2, 7, (5,), False)]]

    @pytest.mark.parametrize("n, rows, cols, nilpotent_cols, nilpotent_row", CASES)
    def test_forms_agree(self, n, rows, cols, nilpotent_cols, nilpotent_row, monkeypatch):
        rng = random.Random(1000 * n + 10 * rows + cols)
        a = _forms_case(rng, n, rows, cols, nilpotent_cols, nilpotent_row)
        grid = _eliminate_on_elements(a, monkeypatch)
        stack = _eliminate_on_stack(a)
        assert grid.upper._stack is None and stack.upper._stack is not None

        assert stack.pivots == grid.pivots
        assert stack.pivot_count == grid.pivot_count == len(grid.pivots)
        assert stack.det_factor.terms == grid.det_factor.terms
        assert [(op.kind, op.i, op.j) for op in stack.ops] == \
            [(op.kind, op.i, op.j) for op in grid.ops]

        scale = max(1.0, a.norm_inf(), grid.upper.norm_inf())
        assert _max_diff(stack.upper, grid.upper) <= 1e-12 * scale
        for op_s, op_g in zip(stack.ops, grid.ops):
            if op_g.kind == "axpy":
                assert op_s.factor.max_diff(op_g.factor) <= 1e-12 * max(1.0, op_g.factor.norm_inf())

        for report in (grid, stack):
            for row, col in report.pivots:
                assert all(not report.upper[i, col].terms for i in range(row + 1, rows))
            replay = apply_row_ops(a, report.ops)
            assert _max_diff(replay, report.upper) <= 1e-12 * scale

    def test_input_is_left_unchanged(self, monkeypatch):
        rng = random.Random(211)
        a = _forms_case(rng, 5, 6, 6, (2,), True)
        grid = ZeonMatrix(a.entries)
        entries = grid.entries
        assert eliminate(grid).upper._stack is not None  # on a stack built for the call
        assert grid._stack is None and grid.entries is entries
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_use_stack", lambda *args: False)
            assert eliminate(grid).upper._stack is None
        assert grid._stack is None and grid.entries is entries

        stacked = ZeonMatrix(a.entries)
        entries = stacked.entries
        coeffs = stacked._coeffs()
        before = coeffs.copy()
        report = eliminate(stacked)
        assert stacked._coeffs() is coeffs and np.array_equal(coeffs, before)
        assert stacked.entries is entries
        assert report.upper._stack is not coeffs

    def test_dense_determinant_on_the_stack(self):
        rng = random.Random(223)
        for _ in range(3):
            a = ZeonMatrix([[rand_element(rng, 5, 32, "invertible" if i == j else "any")
                             for j in range(5)] for i in range(5)])
            assert eliminate(a).upper._stack is not None
            want = _det_permutation(a, DEFAULT)
            got = _det_elimination(a, DEFAULT)
            assert got.max_diff(want) <= 1e-12 * max(1.0, want.norm_inf())
            assert a._stack is None


def _with_nilpotent_lines(rng, m, n, columns, nilpotent_row=False):
    """Random m x m matrix whose given columns (and optionally one row) are nilpotent."""
    rows = [[rand_element(rng, n, 3, "nilpotent" if j in columns else "any")
             for j in range(m)] for _ in range(m)]
    if nilpotent_row:
        rows[rng.randrange(m)] = [rand_element(rng, n, 3, "nilpotent") for _ in range(m)]
    return ZeonMatrix(rows)


class TestDeterminant:
    def test_worked_example(self, det_matrix):
        expected = Z(3, {0: 4, 0b001: 6, 0b010: -2, 0b011: -3, 0b111: -4})
        for det in (_det_permutation, _det_elimination):
            assert det(det_matrix, DEFAULT).allclose(expected)
        assert determinant(det_matrix).allclose(expected)

    def test_row_swap_flips_sign(self, det_matrix):
        d = determinant(det_matrix)
        rows = [list(r) for r in det_matrix.entries]
        rows[0], rows[1] = rows[1], rows[0]
        assert determinant(ZeonMatrix(rows)).allclose(d.scale(-1))

    def test_row_scaling_multiplies(self, det_matrix):
        d = determinant(det_matrix)
        factor = Z(3, {0: 2, 0b011: 3})
        rows = [list(r) for r in det_matrix.entries]
        rows[2] = [e.mul(factor) for e in rows[2]]
        assert determinant(ZeonMatrix(rows)).allclose(factor.mul(d))

    def test_identity_and_diagonal(self):
        assert determinant(ZeonMatrix.identity(3, 2)) == ZeonElement.one(2)
        d1 = Z(2, {0: 2, 1: 1})
        d2 = Z(2, {0: -1, 2: 1})
        assert determinant(ZeonMatrix.diagonal([d1, d2])).allclose(d1.mul(d2))

    def test_methods_match_dense_oracle(self):
        rng = random.Random(151)
        cases = [rand_matrix(rng, rng.randint(2, 3), 3) for _ in range(20)]
        for _ in range(30):
            m = rng.randint(2, 5)
            columns = rng.sample(range(m), rng.randint(1, m))
            cases.append(_with_nilpotent_lines(rng, m, rng.randint(2, 4), columns,
                                               nilpotent_row=rng.random() < 0.3))
        for a in cases:
            want = from_dense(dense_perm_det(a), a.n)
            assert _det_permutation(a, DEFAULT).allclose(want)
            assert _det_elimination(a, DEFAULT).allclose(want)

    def test_elimination_at_every_size(self):
        # determinant is _det_elimination bit for bit; up to m = 4 it also
        # agrees to rounding with the permutation sum and the dense oracle
        rng = random.Random(153)
        cases = [rand_matrix(rng, m, 3, kind="invertible") for m in range(1, 7)]
        for m in range(1, 7):
            columns = rng.sample(range(m), rng.randint(1, m))
            cases.append(_with_nilpotent_lines(rng, m, 3, columns, nilpotent_row=m % 2 == 0))
        for a in cases:
            got = determinant(a)
            assert got.terms == _det_elimination(a, DEFAULT).terms
            if a.rows <= 4:
                for want in (_det_permutation(a, DEFAULT), from_dense(dense_perm_det(a), a.n)):
                    assert got.max_diff(want) <= 1e-12 * max(1.0, want.norm_inf())

    def test_permutation_sum_keeps_an_overflow(self):
        # 1e200^3 overflows to inf + NaN j; the sum must keep it, not turn it
        # into NaN + NaN j by scaling with the sign and then prune it away
        big, z = ZeonElement.scalar(1, 1e200), ZeonElement.zero(1)
        for rows in ([[big, z, z], [z, big, z], [z, z, big]],
                     [[z, big, z], [big, z, z], [z, z, big]]):  # an odd permutation
            det = _det_permutation(ZeonMatrix(rows), DEFAULT)
            assert math.isinf(abs(det.scalar_part()))

    def test_multiplicative(self):
        rng = random.Random(157)
        for _ in range(10):
            a = rand_matrix(rng, 3, 3)
            b = rand_matrix(rng, 3, 3)
            lhs = determinant(a.mul(b))
            rhs = determinant(a).mul(determinant(b))
            assert lhs.allclose(rhs)

    def test_zeon_scaling_row_homogeneity(self):
        rng = random.Random(163)
        a = rand_matrix(rng, 3, 3)
        alpha = rand_element(rng, 3)
        lhs = determinant(a.scale(alpha))
        rhs = alpha.pow(3).mul(determinant(a))
        assert lhs.allclose(rhs)

    def test_shadow_commutes_with_numpy(self):
        rng = random.Random(167)
        for _ in range(10):
            a = rand_matrix(rng, 3, 3)
            got = determinant(a).scalar_part()
            want = np.linalg.det(a.scalar_matrix())
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_no_invertible_pivot_anywhere(self):
        z1 = ZeonElement.generator(3, 1)
        z2 = ZeonElement.generator(3, 2)
        z3 = ZeonElement.generator(3, 3)
        a = ZeonMatrix([[z1, z2], [z3, z1]])
        want = z2.mul(z3).scale(-1)  # z1*z1 - z2*z3
        assert _det_permutation(a, DEFAULT).allclose(want)
        assert _det_elimination(a, DEFAULT).allclose(want)
        # pivots fall in columns 0, 2, 3, 5, so the columns must be reordered
        b = _with_nilpotent_lines(random.Random(172), 6, 3, [1, 4])
        assert eliminate(b).pivot_count == 4
        assert _det_elimination(b, DEFAULT).allclose(_det_permutation(b, DEFAULT))

    def test_nilpotent_row_gives_nilpotent_det(self):
        rng = random.Random(173)
        rows = [[rand_element(rng, 3) for _ in range(3)] for _ in range(3)]
        rows[1] = [rand_element(rng, 3, kind="nilpotent") for _ in range(3)]
        d = determinant(ZeonMatrix(rows))
        assert abs(d.scalar_part()) <= 1e-12

    def test_elimination_consistent_with_report(self):
        rng = random.Random(179)
        a = rand_matrix(rng, 3, 3, kind="invertible")
        report = eliminate(a)
        diag = ZeonElement.one(3)
        for i in range(3):
            diag = diag.mul(report.upper.entries[i][i])
        d = determinant(a)
        assert d.allclose(diag.mul(report.det_factor))

    def test_non_square_rejected(self):
        rng = random.Random(181)
        a = ZeonMatrix([[rand_element(rng, 2) for _ in range(3)] for _ in range(2)])
        with pytest.raises(DimensionMismatch):
            determinant(a)


class TestMatrixInverse:
    def test_diagonal_example(self):
        d = ZeonMatrix.diagonal([Z(1, {0: 2, 1: 1}), ZeonElement.one(1)])
        inv = mat_inverse(d)
        assert inv.entries[0][0].allclose(Z(1, {0: 0.5, 1: -0.25}))
        assert inv.entries[1][1] == ZeonElement.one(1)

    def test_two_sided_inverse_on_random_matrices(self):
        rng = random.Random(191)
        for _ in range(15):
            m = rng.randint(2, 4)
            n = rng.randint(1, 4)
            a = rand_matrix(rng, m, n, kind="invertible")
            inv = mat_inverse(a)
            ident = ZeonMatrix.identity(m, n)
            assert a.mul(inv).allclose(ident)
            assert inv.mul(a).allclose(ident)

    def test_det_of_inverse(self):
        rng = random.Random(193)
        a = rand_matrix(rng, 3, 3, kind="invertible")
        lhs = determinant(mat_inverse(a))
        rhs = determinant(a).inverse()
        assert lhs.allclose(rhs)

    def test_singular_shadow_rejected(self):
        rng = random.Random(197)
        a = rand_matrix(rng, 3, 3, kind="nilpotent")
        with pytest.raises(SingularityError):
            mat_inverse(a)

    def test_inverse_solves_systems(self, det_matrix):
        rng = random.Random(199)
        v = rand_vector(rng, 3, 3)
        x = mat_inverse(det_matrix).mul(v)
        assert det_matrix.mul(x).allclose(v)

    @pytest.mark.parametrize("scale", [1e-6, 1e-2, 1.0, 1e4, 1e9, 1e14])
    @pytest.mark.parametrize("deficient", [False, True])
    def test_shadow_inverse_matches_pinv(self, scale, deficient):
        rng = np.random.default_rng(53)
        shadow = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if deficient:
            shadow[:, 3] = shadow[:, :3] @ np.array([0.5, -1j, 2.0])
        shadow *= scale
        rank, size, pinv, _ = linalg._shadow_inverse(shadow, DEFAULT)
        largest = np.linalg.norm(shadow, 2)
        assert rank == 4 - deficient
        assert math.frexp(size)[0] == 0.5 and max(1.0, largest) <= size < 2 * max(1.0, largest)
        want = np.linalg.pinv(shadow, 1e-9)
        assert np.abs(pinv / size - want).max() <= 1e-9 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1e10, 1e11])
    def test_large_matrix_keeps_its_inverse(self, scale):
        a = ZeonMatrix.from_json(load_fixture("mat_spectral.json"))
        got = mat_inverse(a.scale(scale))
        want = mat_inverse(a).scale(1 / scale)
        shadow = want.scalar_matrix()
        assert np.abs(got.scalar_matrix() - shadow).max() <= 1e-9 * np.abs(shadow).max()
        assert _max_diff(got, want) <= 2 * DEFAULT.prune  # coefficients at the prune may go

    @pytest.mark.parametrize("large, dual", [(1e6, 1e-7), (1e8, 1e-5)])
    def test_spread_shadow_keeps_small_duals(self, large, dual):
        # dual / largest falls below the prune; dual times C^-1 does not
        a = ZeonMatrix.diagonal([Z(1, {0: large}), Z(1, {0: 1, 1: dual})])
        x = mat_inverse(a)
        assert x.entries[1][1].allclose(Z(1, {0: 1, 1: -dual}))
        assert _max_diff(a.mul(x), ZeonMatrix.identity(2, 1)) <= DEFAULT.compare

    @pytest.mark.parametrize("scale", [1e12, 1e13])
    def test_inverse_below_the_prune_is_refused(self, scale):
        # C^-1's entries, 1e-13 to 1e-12 and below, would be pruned to a zero matrix
        a = ZeonMatrix.from_json(load_fixture("mat_spectral.json")).scale(scale)
        with pytest.raises(SingularityError, match="below the prune"):
            mat_inverse(a)

    @pytest.mark.parametrize("scale, refused", [(1e11, False), (1e13, True)])
    def test_stack_input_is_checked_on_its_stack(self, scale, refused):
        a = ZeonMatrix.from_json(load_fixture("mat_spectral.json")).scale(scale)
        held = ZeonMatrix._from_stack(a._coeffs().copy(), a.n, DEFAULT)
        if refused:
            with pytest.raises(SingularityError, match="below the prune"):
                mat_inverse(held)
        else:
            assert mat_inverse(held)._entries is None
        assert held._entries is None


class TestSerializationLinalg:
    def test_matrix_round_trip(self):
        rng = random.Random(211)
        a = rand_matrix(rng, 3, 4)
        blob = json.dumps(a.to_json())
        assert ZeonMatrix.from_json(json.loads(blob)).allclose(a)

    def test_vector_round_trip(self):
        rng = random.Random(223)
        v = rand_vector(rng, 4, 3)
        blob = json.dumps(v.to_json())
        got = ZeonVector.from_json(json.loads(blob))
        assert got.allclose(v)
        assert got.to_json()["cols"] == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b.pop("rows"),
            lambda b: b.__setitem__("rows", 5),
            lambda b: b["entries"][0].pop(),
            lambda b: b["entries"][0][0].__setitem__("n", 7),
            lambda b: b.__setitem__("rows", 0),
            # neither sizes nor coefficients are coerced
            lambda b: b.__setitem__("rows", 2.5),
            lambda b: b.__setitem__("cols", "2"),
            lambda b: b.__setitem__("n", 3.0),
            lambda b: b["entries"][1].__setitem__(
                0, {"n": 3, "terms": [{"I": [], "re": 10 ** 400, "im": 0}]}),
        ],
    )
    def test_malformed_matrix_payloads(self, mutate):
        rng = random.Random(227)
        blob = rand_matrix(rng, 2, 3).to_json()
        mutate(blob)
        with pytest.raises(ParseError):
            ZeonMatrix.from_json(blob)

    @pytest.mark.parametrize("payload", [[], "matrix", 3])
    def test_matrix_payload_must_be_an_object(self, payload):
        with pytest.raises(ParseError, match="JSON object"):
            ZeonMatrix.from_json(payload)

    def test_vector_requires_single_column(self):
        rng = random.Random(229)
        blob = rand_matrix(rng, 2, 3).to_json()
        with pytest.raises(ParseError):
            ZeonVector.from_json(blob)

    def test_row_op_json(self):
        swap = RowOp("swap", 0, 1)
        assert swap.to_json() == {"kind": "swap", "i": 0, "j": 1}
        axpy = RowOp("axpy", 0, 1, ZeonElement.scalar(2, -2))
        blob = axpy.to_json()
        assert blob["kind"] == "axpy" and "factor" in blob
        for kind in ("scale", "pivot"):
            unknown = RowOp(kind, 0, 1, ZeonElement.scalar(2, 3))
            with pytest.raises(ValueError):
                unknown.to_json()
            with pytest.raises(ValueError):
                apply_row_ops(ZeonMatrix.identity(2, 2), [unknown])


# ----------------------------------------------------------------------
# coefficient stacks (n <= 8) against the dense oracle and the element loop

def rand_grid(rng, rows, cols, n, count):
    """rows x cols matrix whose entries hold `count` random blades each."""
    return ZeonMatrix([[ZeonElement(n, {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                        for m in rng.sample(range(1 << n), count)})
                        for _ in range(cols)] for _ in range(rows)])


def dense_grid(matrix):
    return [[to_dense(e) for e in row] for row in matrix.entries]


def on_stack(result):
    """True when a fresh result came out of stack arithmetic: its entries
    are built only when read."""
    return result._entries is None


def forms(matrix):
    """The same matrix holding its entries only, both forms, and its stack only."""
    both = ZeonMatrix(matrix.entries)
    stack = both._coeffs().copy()
    return ZeonMatrix(matrix.entries), both, ZeonMatrix._from_stack(stack, matrix.n, DEFAULT)


def assert_canonical(matrix, prune=DEFAULT.prune):
    for row in matrix.entries:
        for e in row:
            assert e.n == matrix.n
            assert all(0 <= m < 1 << matrix.n for m in e.terms)
            assert all(abs(c) >= prune for c in e.terms.values())


def assert_matches(matrix, want):
    assert (matrix.rows, matrix.cols) == (len(want), len(want[0]))
    scale = max(1.0, max(abs(c) for row in want for cell in row for c in cell))
    for got_row, want_row in zip(dense_grid(matrix), want):
        for got, cell in zip(got_row, want_row):
            assert max_dense_diff(got, cell) <= 1e-12 * scale
    assert_canonical(matrix)


@pytest.fixture(params=["stack", "loop"])
def forced_path(request, monkeypatch):
    """Run a test once with every product on the stack and once on the element loop."""
    use_stack = request.param == "stack"
    monkeypatch.setattr(linalg, "_use_stack", lambda n, products, pairs: use_stack and n <= 8)
    return use_stack


def blade_counts(n):
    return sorted({1, max(1, (1 << n) // 4), 1 << n})


class TestCoefficientStack:
    @pytest.mark.parametrize("n", [0, 3, 4, 8, 9])
    def test_scalar_matrix_embedding(self, n):
        # a stack on n = 4..8 and a grid below and above (the size rule), holding
        # the same scalar entries, from an array or from nested rows; a
        # coefficient below the prune tolerance is dropped in both
        array = np.array([[1 + 2j, 0], [1e-20, -3], [0.5j, 4]])
        want = [[ZeonElement.scalar(n, c).terms for c in row] for row in array.tolist()]
        for given in (array, array.tolist()):
            a = ZeonMatrix.from_scalar_matrix(given, n)
            assert on_stack(a) == (4 <= n <= 8)
            assert (a.rows, a.cols, a.n) == (3, 2, n)
            assert [[e.terms for e in row] for row in a.entries] == want

    @pytest.mark.parametrize("n", range(9))
    def test_products_match_dense_oracle(self, n, forced_path):
        rng = random.Random(600 + n)
        for count in blade_counts(n):
            for rows, inner, cols in ((3, 3, 3), (2, 3, 4), (4, 1, 2)):
                a = rand_grid(rng, rows, inner, n, count)
                b = rand_grid(rng, inner, cols, n, count)
                got = a.mul(b)
                assert on_stack(got) == forced_path
                assert_matches(got, dense_matmul(dense_grid(a), dense_grid(b)))
            a, v = rand_grid(rng, 2, 3, n, count), rand_grid(rng, 3, 1, n, count)
            got = a.mul(ZeonVector(row[0] for row in v.entries))
            want = dense_matmul(dense_grid(a), dense_grid(v))
            assert_matches(ZeonMatrix([[e] for e in got.entries]), want)

    @pytest.mark.parametrize("n", range(9))
    def test_entrywise_operations_match_dense_oracle(self, n):
        rng = random.Random(620 + n)
        for count in blade_counts(n):
            a = rand_grid(rng, 2, 3, n, count)
            b = rand_grid(rng, 2, 3, n, count)
            da, db = dense_grid(a), dense_grid(b)
            factors = (2 - 1j, ZeonElement.scalar(n, -0.5j), rand_grid(rng, 1, 1, n, count)[0, 0])
            sums = [[dense_add(p, q) for p, q in zip(r, t)] for r, t in zip(da, db)]
            diffs = [[dense_add(p, dense_scale(q, -1)) for p, q in zip(r, t)]
                     for r, t in zip(da, db)]
            holds = (False, True, True)
            # fresh operands for every operation: an entry-built operand
            # caches its stack once stack arithmetic has needed it
            for i, x_holds in enumerate(holds):
                for j, y_holds in enumerate(holds):
                    got = forms(a)[i].add(forms(b)[j])
                    assert on_stack(got) == (x_holds or y_holds)
                    assert_matches(got, sums)
                    got = forms(a)[i].sub(forms(b)[j])
                    assert on_stack(got) == (x_holds or y_holds)
                    assert_matches(got, diffs)
                for factor in factors:
                    got = forms(a)[i].scale(factor)
                    assert on_stack(got) == x_holds
                    dense_factor = (to_dense(factor) if isinstance(factor, ZeonElement)
                                    else to_dense(ZeonElement.scalar(n, factor)))
                    assert_matches(got, [[dense_mul(p, dense_factor) for p in r] for r in da])
                    # on a stack, the 1 x 1 entrywise product gives the grid's element products
                    assert_matches(got, dense_grid(forms(a)[0].scale(factor)))
                # numpy's complex abs may differ from Python's in the last bit
                want = max(abs(c) for r in da for p in r for c in p)
                assert forms(a)[i].norm_inf() == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [0, 4, 8])
    def test_zero_and_scalar_matrices(self, n, forced_path):
        rng = random.Random(640 + n)
        a = rand_grid(rng, 3, 3, n, 1 << n)
        zero = ZeonMatrix.zero(3, 3, n)
        _, a_both, a_stack = forms(a)
        for got in (zero.mul(a), a.mul(zero), a.scale(0), a.scale(ZeonElement.zero(n)), a.sub(a),
                    a_stack.scale(0), a_stack.scale(ZeonElement.zero(n)), a_both.sub(a)):
            assert all(not e.terms for row in got.entries for e in row)
            assert got.norm_inf() == 0.0
        for got in (zero.add(a), zero.add(a_stack)):
            assert [[e.terms for e in row] for row in got.entries] == \
                [[e.terms for e in row] for row in a.entries]
        for got in (ZeonMatrix.identity(3, n).mul(a), a.mul(ZeonMatrix.identity(3, n))):
            assert_matches(got, dense_grid(a))
        shadow = np.array([[1, 2j, 0], [0.5, -1, 3], [0, 0, 2]])
        scalar = ZeonMatrix.from_scalar_matrix(shadow, n)
        assert_matches(scalar.mul(a), dense_matmul(dense_grid(scalar), dense_grid(a)))
        assert np.array_equal(forms(scalar)[2].scalar_matrix(), shadow)

    @pytest.mark.parametrize("n", [5, 8])
    def test_cancellation_below_prune_is_dropped(self, n, forced_path):
        rng = random.Random(660 + n)
        dust = rand_grid(rng, 3, 3, n, 1 << n).scale(0.2)
        a = dust.add(ZeonMatrix.from_scalar_matrix(4 * np.eye(3), n))
        product = a.mul(mat_inverse(a))
        assert_canonical(product)
        for i, row in enumerate(product.entries):
            for j, e in enumerate(row):
                if i == j:
                    assert list(e.terms) == [0] and abs(e.terms[0] - 1) <= 1e-12
                else:
                    assert e.terms == {}
        nudged = ZeonMatrix([[e.add(ZeonElement.scalar(n, 1e-13)) for e in row]
                             for row in a.entries])
        for x in forms(nudged):
            for y in forms(a):
                diff = x.sub(y)
                assert all(not e.terms for row in diff.entries for e in row)

    def test_custom_prune_is_honoured(self, forced_path):
        n = 5
        tol = Tolerances(prune=1e-6, compare=1e-6)
        rng = random.Random(680)
        a = rand_grid(rng, 3, 3, n, 1 << n)
        small = ZeonMatrix([[ZeonElement(n, {m: 1e-7 for m in range(1 << n)}) for _ in range(3)]
                            for _ in range(3)])
        ident = ZeonMatrix.identity(3, n)
        for x in forms(small):
            for op in (lambda t: x.scale(1.0, t), lambda t: x.add(ident.scale(0, t), t),
                       lambda t: x.mul(ident, t), lambda t: x.scale(ZeonElement.one(n), t)):
                assert all(not e.terms for row in op(tol).entries for e in row)
                assert op(DEFAULT).norm_inf() == pytest.approx(1e-7)
            for got in (a.mul(a, tol), x.add(a, tol), x.sub(a, tol)):
                assert_canonical(got, tol.prune)
                assert got.norm_inf() > 0
            assert forms(a)[2].trace(tol).terms == a.trace(tol).terms

    def test_dispatch_follows_the_operands(self):
        rng = random.Random(690)
        sparse = rand_grid(rng, 3, 3, 8, 1)
        assert not on_stack(sparse.mul(sparse))
        dense = rand_grid(rng, 6, 6, 8, 1 << 8)
        assert on_stack(dense.mul(dense))
        mid = rand_grid(rng, 8, 8, 4, 16)
        assert on_stack(mid.mul(mid))
        small = rand_grid(rng, 2, 2, 4, 16)
        assert not on_stack(small.mul(small))
        # below the size rule, n <= 3, even dense products and elimination stay on grids
        for n in range(4):
            full = rand_grid(rng, 8, 8, n, 1 << n)
            assert not on_stack(full.mul(full))
            assert eliminate(full).upper._stack is None
        # an operand that already holds a stack keeps the product on the stacks
        held = forms(sparse)[2]
        assert on_stack(held.mul(sparse)) and on_stack(sparse.mul(held))
        assert held._entries is None

    @pytest.mark.parametrize("n", [2, 9])
    def test_grid_product_prunes_each_entry_once(self, n):
        # every element product 6e-13 is below the prune, their sum 1.8e-12 is
        # not: the grid keeps the sum, as the stacks do
        row = ZeonMatrix([[ZeonElement.scalar(n, 1e-6)] * 3])
        column = ZeonMatrix([[ZeonElement.scalar(n, 6e-7)]] * 3)
        held = [forms(row)[2]] if n <= 8 else []
        for left in [row, *held]:
            (got,), = left.mul(column).entries
            assert list(got.terms) == [0] and abs(got.terms[0] - 1.8e-12) <= 1e-24

    def test_n9_runs_the_element_loop(self):
        n = 9
        rng = random.Random(700)
        a, b = rand_grid(rng, 3, 3, n, 8), rand_grid(rng, 3, 3, n, 8)
        c = rand_element(rng, n, terms=6)
        got = a.mul(b)
        assert not on_stack(got)
        for i in range(3):
            for j in range(3):
                acc = ZeonElement.zero(n)
                for k in range(3):
                    acc = acc.add(a[i, k].mul(b[k, j]))
                assert got[i, j].terms == acc.terms
                assert a.add(b)[i, j].terms == a[i, j].add(b[i, j]).terms
                assert a.sub(b)[i, j].terms == a[i, j].sub(b[i, j]).terms
                assert a.scale(1.5j)[i, j].terms == a[i, j].scale(1.5j).terms
                assert a.scale(c)[i, j].terms == a[i, j].mul(c).terms
        v = ZeonVector(row[0] for row in b.entries)
        assert a.mul(v).allclose(ZeonVector(row[0] for row in a.mul(b).entries))
        assert a.norm_inf() == max(e.norm_inf() for row in a.entries for e in row)
        assert all(m._stack is None for m in (a, b, got))

    def test_stack_results_keep_the_matrix_interface(self):
        n = 4
        rng = random.Random(710)
        a = rand_grid(rng, 2, 3, n, 1 << n)
        got = forms(a)[2]
        assert on_stack(got)
        assert (got.rows, got.cols, got.n) == (2, 3, n)
        assert isinstance(got.entries, tuple) and all(isinstance(r, tuple) for r in got.entries)
        assert got[1, 2] is got.entries[1][2]
        assert got.column(2).allclose(a.column(2)) and got.row(0).allclose(a.row(0))
        assert got.to_json() == a.to_json()
        assert ZeonMatrix.from_json(got.to_json()).allclose(a)
        square = rand_grid(rng, 3, 3, n, 1 << n)
        assert forms(square)[2].trace().allclose(square.trace())
        assert np.array_equal(forms(square)[2].scalar_matrix(), square.scalar_matrix())
        with pytest.raises(DimensionMismatch):
            forms(a)[2].scale(ZeonElement.one(n + 1))
        with pytest.raises(DimensionMismatch):
            forms(a)[2].add(square)


# ----------------------------------------------------------------------
# the two kernels of stack products

OPERATOR_SHAPES = ([(r, k, c) for r in range(1, 5) for k in range(1, 5) for c in range(1, 5)]
                   + [(6, 3, 3), (3, 3, 6)])


def rand_stack_operand(rng, rows, cols, n, kind):
    """A stack-only rows x cols operand with dense complex entries, made by
    transpose (a strided view), adjoint or _block of another stack matrix."""
    def stack_only(r, c):
        return forms(rand_grid(rng, r, c, n, 1 << n))[2]
    if kind == "transpose":
        return stack_only(cols, rows).transpose()
    if kind == "adjoint":
        return stack_only(cols, rows).adjoint()
    return stack_only(rows + 2, cols + 1)._block([2, *range(rows - 1)], range(1, cols + 1))


def kept_terms(matrix):
    return [[e.terms for e in row] for row in matrix.entries]


class TestOperatorKernel:
    @pytest.mark.parametrize("n", range(9))
    def test_matches_gather_and_element_loop(self, n, monkeypatch):
        rng = random.Random(900 + n)
        kinds = ("transpose", "adjoint", "block")
        for i, (r, k, c) in enumerate(OPERATOR_SHAPES):
            a = rand_stack_operand(rng, r, k, n, kinds[i % 3])
            b = rand_stack_operand(rng, k, c, n, kinds[(i + 1) % 3])
            x, y = a._stack, b._stack
            got = algebra._operator_matmul(n, x, y)
            want = algebra._convolve(n, x, y, np.matmul)
            assert got.shape == want.shape == (1 << n, r, c)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
            pruned = ZeonMatrix._from_stack(got, n, DEFAULT)
            gathered = ZeonMatrix._from_stack(want, n, DEFAULT)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_use_stack", lambda n, products, pairs: False)
                loop = ZeonMatrix(a.entries)._product(ZeonMatrix(b.entries), DEFAULT)
            assert not on_stack(loop)
            assert_canonical(pruned)
            for got_row, gathered_row, loop_row in zip(*map(kept_terms, (pruned, gathered, loop))):
                for p, q, e in zip(got_row, gathered_row, loop_row):
                    assert p.keys() == q.keys() == e.keys()
                    scale = max(1.0, max(map(abs, e.values()), default=0.0))
                    assert all(abs(p[m] - e[m]) <= 1e-12 * scale for m in e)

    def test_dispatch_rule(self):
        use = linalg._use_operator
        # spectral_decompose's products at m = 3, n = 5: square, and X^H [X | AX]
        assert use(5, 3, 3, 3) and use(5, 3, 3, 6) and use(5, 6, 3, 3)
        # a side of 1: matrix x vector, row x matrix and outer products gather
        for n in range(9):
            assert not any(use(n, *shape) for m in range(1, 9)
                           for shape in ((m, m, 1), (1, m, m), (m, 1, m)))
        assert not any(use(n, m, m, m) for n in range(3) for m in range(1, 9))
        assert use(3, 8, 8, 8) and not use(4, 7, 7, 7) and use(4, 6, 6, 6)
        assert use(7, 3, 3, 3) and use(7, 2, 6, 2) and not use(7, 4, 4, 4)
        assert use(8, 2, 4, 2) and use(8, 4, 2, 4) and not use(8, 3, 3, 3)
        # the expanded operand is the smaller one, so the rule is symmetric in rows
        # and cols, and a smaller operand never leaves the operator
        for n in range(9):
            for r, k, c in itertools.product(range(1, 9), repeat=3):
                assert use(n, r, k, c) == use(n, c, k, r)
                if use(n, r, k, c) and min(r, k, c) > 2:
                    assert use(n, r - 1, k, c) and use(n, r, k - 1, c)

    def test_products_follow_the_rule(self, monkeypatch):
        calls = []

        def spy(name, kernel):
            def run(n, x, y, *op):
                calls.append(op[0].__name__ if op else name)
                return kernel(n, x, y, *op)
            return run

        monkeypatch.setattr(linalg, "_operator_matmul", spy("operator", algebra._operator_matmul))
        monkeypatch.setattr(linalg, "_convolve", spy("", algebra._convolve))
        rng = random.Random(950)
        for n, (r, k, c) in [(5, (3, 3, 3)), (5, (6, 3, 3)), (5, (3, 1, 3)), (5, (3, 3, 1)),
                             (5, (5, 5, 5)), (8, (2, 2, 2)), (8, (3, 3, 3)), (2, (3, 3, 3))]:
            a = forms(rand_grid(rng, r, k, n, 2))[2]
            b = rand_grid(rng, k, c, n, 2)
            calls.clear()
            got = a.mul(b)
            assert calls == ["operator" if linalg._use_operator(n, r, k, c) else "matmul"]
            assert_matches(got, dense_matmul(dense_grid(a), dense_grid(b)))

    def test_index_tables_stay_one_per_n(self, monkeypatch):
        monkeypatch.setattr(algebra, "_SUBSET_PAIRS", {})
        monkeypatch.setattr(algebra, "_OPERATOR_INDEX", {})
        rng = np.random.default_rng(960)
        for n in (0, 3, 5):
            for r, k, c in OPERATOR_SHAPES:
                x = rng.standard_normal((1 << n, r, k)) + 1j
                y = rng.standard_normal((1 << n, k, c)) - 1j
                algebra._operator_matmul(n, x, y)
                algebra._convolve(n, x, y, np.matmul)
        assert sorted(algebra._SUBSET_PAIRS) == sorted(algebra._OPERATOR_INDEX) == [0, 3, 5]
        for n, tables in algebra._SUBSET_PAIRS.items():
            assert [len(t) for t in tables] == [3 ** n] * 3 + [1 << n]
        # the last shape, 3 x 3 by 3 x 6, expands its 3 x 3 left operand
        for n, (r, k, index) in algebra._OPERATOR_INDEX.items():
            assert (r, k) == (3, 3) and index.shape == (3 ** n, 9)


# ----------------------------------------------------------------------
# vectors as one-column matrices

def rand_column(rng, m, n, count):
    """Vector of m entries, each `count` random blades plus 1.5 in the scalar part."""
    return ZeonVector(row[0].add(ZeonElement.scalar(n, 1.5))
                      for row in rand_grid(rng, m, 1, n, count).entries)


def dense_vec(v):
    return [to_dense(e) for e in v.entries]


def dense_conj(a):
    return [c.conjugate() for c in a]


def dense_inner(dx, dy):
    acc = [0j] * len(dx[0])
    for p, q in zip(dx, dy):
        acc = dense_add(acc, dense_mul(dense_conj(q), p))
    return acc


def assert_vector_matches(v, want):
    assert isinstance(v, ZeonVector)
    assert isinstance(v.entries, tuple) and len(v.entries) == len(v) == len(want)
    assert all(isinstance(e, ZeonElement) for e in v.entries)
    assert_matches(v.matrix, [[cell] for cell in want])


class TestVectorView:
    @pytest.mark.parametrize("n", range(10))
    def test_operations_match_dense_oracle(self, n):
        rng = random.Random(720 + n)
        count = max(1, (1 << n) // 4) if n <= 8 else 8
        a = rand_grid(rng, 3, 3, n, count).add(ZeonMatrix.from_scalar_matrix(2 * np.eye(3), n))
        held = forms(a)[2] if n <= 8 else a
        built = [rand_column(rng, 3, n, count) for _ in range(2)]
        made = [held.mul(rand_column(rng, 3, n, count)) for _ in range(2)]
        assert all((v.matrix._stack is not None) == (n <= 8) for v in made)
        alpha = rand_element(rng, n, terms=3)
        for x, y in (built, made, (built[0], made[1])):
            rx, ry = ZeonVector(x.entries), ZeonVector(y.entries)
            dx, dy = dense_vec(x), dense_vec(y)
            cases = [
                (lambda u, w: u.add(w), [dense_add(p, q) for p, q in zip(dx, dy)]),
                (lambda u, w: u.sub(w), [dense_add(p, dense_scale(q, -1)) for p, q in zip(dx, dy)]),
                (lambda u, w: u.scale(2 - 1j), [dense_scale(p, 2 - 1j) for p in dx]),
                (lambda u, w: u.scale(alpha), [dense_mul(p, to_dense(alpha)) for p in dx]),
                (lambda u, w: -u, [dense_scale(p, -1) for p in dx]),
                (lambda u, w: u.conjugate(), [dense_conj(p) for p in dx]),
            ]
            for op, want in cases:
                for u, w in ((x, y), (rx, ry)):
                    assert_vector_matches(op(u, w), want)
            for u, w in ((x, y), (rx, ry)):
                got = inner_product(u, w)
                assert isinstance(got, ZeonElement)
                assert_matches(ZeonMatrix([[got]]), [[dense_inner(dx, dy)]])
                got = outer(u, w)
                assert isinstance(got, ZeonMatrix)
                assert_matches(got, [[dense_mul(p, dense_conj(q)) for q in dy] for p in dx])
                unit = normalize(u)
                factor = to_dense(inner_product(u, u).inverse().kth_root(2))
                assert_vector_matches(unit, [dense_mul(p, factor) for p in dx])
                assert max_dense_diff(dense_inner(dense_vec(unit), dense_vec(unit)),
                                      dense_one(n)) <= 1e-12
            assert x.allclose(rx) and rx.allclose(x) and x == rx
            assert not x.allclose(x.scale(2)) and not x.allclose(a)
            assert x.norm_inf() == pytest.approx(rx.norm_inf(), rel=1e-15, abs=0)
            blob = json.loads(json.dumps(x.to_json()))
            assert blob == rx.to_json()
            assert set(blob) == {"rows", "cols", "n", "entries"}
            assert (blob["rows"], blob["cols"], blob["n"]) == (3, 1, n)
            assert ZeonVector.from_json(blob).to_json() == blob
            assert len(x) == 3 and list(x) == list(x.entries) and x[1] is x.entries[1]
            assert x.pretty() == rx.pretty() and repr(x) == repr(rx)

    @pytest.mark.parametrize("n", [0, 5, 8])
    def test_stack_vectors_stay_on_stacks(self, n):
        rng = random.Random(740 + n)
        held = forms(rand_grid(rng, 3, 3, n, 1 << n))[2]
        x = held.mul(rand_column(rng, 3, n, 1))
        results = (x.add(x).matrix, x.scale(ZeonElement.one(n)).matrix, outer(x, x),
                   normalize(x).matrix, held.mul(x).matrix)
        assert all(on_stack(r) for r in results)

    def test_mismatched_shapes_raise(self):
        rng = random.Random(750)
        x = rand_column(rng, 3, 3, 2)
        held = forms(rand_grid(rng, 3, 3, 3, 8))[2].mul(x)
        for v in (x, held):
            for other in (ZeonVector.zero(2, 3), ZeonVector.zero(3, 4)):
                for op in (v.add, v.sub, lambda o: inner_product(v, o),
                           lambda o: inner_product(o, v)):
                    with pytest.raises(DimensionMismatch):
                        op(other)
            with pytest.raises(DimensionMismatch):
                outer(v, ZeonVector.zero(3, 4))
            with pytest.raises(DimensionMismatch):
                v.scale(ZeonElement.one(4))
            with pytest.raises(DimensionMismatch):
                rand_grid(rng, 3, 2, 3, 1).mul(v)
        with pytest.raises(DimensionMismatch):
            ZeonVector([ZeonElement.one(3), ZeonElement.one(4)])
        with pytest.raises(ValueError):
            ZeonVector([])

    @pytest.mark.parametrize("n", [0, 5, 9])
    def test_indexing_reads_one_entry(self, n):
        rng = random.Random(760 + n)
        for v in (rand_column(rng, 3, n, 1), ZeonVector(rand_column(rng, 3, n, 1).entries)):
            for i in range(-3, 3):
                assert v[i] is v.matrix.entries[i][0]
                assert v[i] is v.entries[i]
            with pytest.raises(IndexError):
                v[3]
            with pytest.raises(IndexError):
                v[-4]
            assert v[0:2] == (v[0], v[1])
            assert v[-2:] == (v[1], v[2])
            assert v[::-1] == (v[2], v[1], v[0])
            assert v[5:] == ()


MAPS = {
    "transpose": (ZeonMatrix.transpose, lambda e: e, True),
    "adjoint": (ZeonMatrix.adjoint, ZeonElement.conjugate, True),
    "conjugate": (ZeonMatrix.conjugate, ZeonElement.conjugate, False),
    "dual": (ZeonMatrix.dual, ZeonElement.dual_part, False),
    "negate": (ZeonMatrix.__neg__, ZeonElement.__neg__, False),
}


class TestEntrywiseMaps:
    @pytest.mark.parametrize("n", [0, 3, 9])
    def test_block_matches_entries_and_keeps_the_form(self, n):
        rng = random.Random(760 + n)
        a = rand_grid(rng, 3, 4, n, max(1, (1 << n) // 4))
        rows, cols = [2, 0], [3, 1, 0]
        want = [[a.entries[i][j].terms for j in cols] for i in rows]
        for form in (forms(a) if n <= 8 else (a,)):
            got = form._block(rows, cols)
            assert [[e.terms for e in row] for row in got.entries] == want
            assert (got.rows, got.cols, got.n) == (2, 3, n)
            assert (got._stack is not None) == (form._stack is not None)

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("n", range(10))
    def test_maps_match_elements_and_keep_the_form(self, n, name):
        fn, on_element, transposes = MAPS[name]
        rng = random.Random(770 + n)
        for count in blade_counts(n):
            a = rand_grid(rng, 2, 3, n, count)
            a = a.add(ZeonMatrix([[ZeonElement.scalar(n, 1 - 2j)] * 3] * 2))
            want = [[on_element(e) for e in row] for row in a.entries]
            if transposes:
                want = [list(col) for col in zip(*want)]
            held = forms(a) if n <= 8 else (a,)
            for form in held:
                before = dense_grid(form)
                got = fn(form)
                assert [[e.terms for e in row] for row in got.entries] == \
                    [[e.terms for e in row] for row in want]
                assert (got.rows, got.cols, got.n) == (len(want), len(want[0]), n)
                assert (got._stack is not None) == (form._stack is not None)
                assert_canonical(got)
                assert dense_grid(form) == before
            if n <= 8:
                got = fn(held[2])
                assert on_stack(got)
                assert_matches(got.add(got), [[dense_scale(to_dense(e), 2) for e in row]
                                              for row in want])


MATRIX_A = ZeonMatrix([[Z(2, {0: 1, 0b01: 2}), Z(2, {0: -3j})],
                       [Z(2, {0b10: 1}), Z(2, {0: 0.5, 0b11: 1})]])
MATRIX_B = ZeonMatrix([[Z(2, {0: 2}), Z(2, {0b01: 1j})],
                       [Z(2, {0: -1, 0b11: 4}), Z(2, {0: 1})]])
VECTOR_X = ZeonVector([Z(2, {0: 1, 0b10: 1}), Z(2, {0: 2j})])
VECTOR_Y = ZeonVector([Z(2, {0b01: -1}), Z(2, {0: 3, 0b11: 0.5})])
ELEMENT_E = Z(2, {0: 2, 0b10: -1})


class TestMatrixOperatorProtocol:
    """Each operator of ZeonMatrix is its named method with default tolerances."""

    @pytest.mark.parametrize("op, method", [
        (lambda a, b: a + b, lambda a, b: a.add(b)),
        (lambda a, b: a - b, lambda a, b: a.sub(b)),
        (lambda a, b: -a, lambda a, b: a.scale(-1)),
        (lambda a, b: a @ b, lambda a, b: a.mul(b)),
        (lambda a, b: a @ VECTOR_X, lambda a, b: a.mul(VECTOR_X)),
        (lambda a, b: a * 3, lambda a, b: a.scale(3)),
        (lambda a, b: 3 * a, lambda a, b: a.scale(3)),
        (lambda a, b: a * ELEMENT_E, lambda a, b: a.scale(ELEMENT_E)),
        (lambda a, b: ELEMENT_E * a, lambda a, b: a.scale(ELEMENT_E)),
        (lambda a, b: a == b, lambda a, b: a.allclose(b)),
        (lambda a, b: a == a.scale(1), lambda a, b: True),
        (lambda a, b: a == 1, lambda a, b: False),
        (lambda a, b: a == VECTOR_X, lambda a, b: False),
    ], ids=["add", "sub", "neg", "matmul", "matmul-vector", "mul-number", "rmul-number",
            "mul-element", "rmul-element", "eq", "eq-self", "eq-number", "eq-vector"])
    def test_operator_equals_method(self, op, method):
        assert exactly(op(MATRIX_A, MATRIX_B), method(MATRIX_A, MATRIX_B))

    @pytest.mark.parametrize("op", [
        lambda a: a + 1, lambda a: a - VECTOR_X, lambda a: a * a, lambda a: a * "x",
        lambda a: a @ 2, lambda a: a @ ELEMENT_E, lambda a: a.mul("x"),
    ], ids=["add", "sub-vector", "mul-matrix", "mul-str", "matmul-number",
            "matmul-element", "mul-method"])
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(MATRIX_A)

    @pytest.mark.parametrize("other", [
        ZeonMatrix.identity(3, 2), ZeonMatrix.identity(2, 3),
        ZeonVector.zero(3, 2), ZeonVector.zero(2, 3),
    ], ids=["rows", "algebra", "vector-length", "vector-algebra"])
    def test_mul_shape_mismatch_raises(self, other):
        with pytest.raises(DimensionMismatch):
            MATRIX_A.mul(other)


class TestVectorOperatorProtocol:
    """Each operator of ZeonVector is its named method with default tolerances."""

    @pytest.mark.parametrize("op, method", [
        (lambda x, y: x + y, lambda x, y: x.add(y)),
        (lambda x, y: x - y, lambda x, y: x.sub(y)),
        (lambda x, y: -x, lambda x, y: x.scale(-1)),
        (lambda x, y: x == y, lambda x, y: x.allclose(y)),
        (lambda x, y: x == x.scale(1), lambda x, y: True),
        (lambda x, y: x == MATRIX_A, lambda x, y: False),
        (lambda x, y: x == 1, lambda x, y: False),
    ], ids=["add", "sub", "neg", "eq", "eq-self", "eq-matrix", "eq-number"])
    def test_operator_equals_method(self, op, method):
        assert exactly(op(VECTOR_X, VECTOR_Y), method(VECTOR_X, VECTOR_Y))

    @pytest.mark.parametrize("op", [
        lambda x: x + 1, lambda x: 1 + x, lambda x: x - MATRIX_A, lambda x: 1 - x,
        lambda x: x + ELEMENT_E,
    ], ids=["add", "radd", "sub-matrix", "rsub", "add-element"])
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(VECTOR_X)
