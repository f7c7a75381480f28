"""Vectors, inner products, matrices, elimination, determinants, inverses."""

import json
import math
import pathlib
import random

import numpy as np
import pytest

from zeonalg import (
    DimensionMismatch,
    ParseError,
    RowOp,
    SingularityError,
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

from oracles import (
    dense_perm_det,
    from_dense,
    rand_element,
    rand_matrix,
    rand_unitary_frame,
    rand_vector,
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


class TestElimination:
    def test_identity_needs_no_ops(self):
        report = eliminate(ZeonMatrix.identity(3, 2))
        assert report.ops == ()
        assert report.pivot_count == 3
        assert report.det_factor == 1

    def test_replay_reproduces_upper(self):
        rng = random.Random(131)
        for _ in range(15):
            m = rng.randint(2, 4)
            a = rand_matrix(rng, m, 3, kind="invertible")
            report = eliminate(a)
            assert apply_row_ops(a, report.ops).allclose(report.upper)
            for j in range(m):
                for i in range(j + 1, m):
                    assert report.upper.entries[i][j].norm_inf() <= 1e-9

    def test_det_factor_tracks_swaps(self):
        a = ZeonMatrix([
            [ZeonElement.generator(2, 1), ZeonElement.one(2)],
            [ZeonElement.one(2), ZeonElement.generator(2, 2)],
        ])
        report = eliminate(a)
        assert report.det_factor == -1
        assert report.pivot_count == 2

    def test_strategies_agree_on_pivot_count(self):
        rng = random.Random(137)
        for _ in range(10):
            a = rand_matrix(rng, 3, 3, kind="invertible")
            r1 = eliminate(a, pivoting="max_scalar")
            r2 = eliminate(a, pivoting="first_invertible")
            assert r1.pivot_count == r2.pivot_count == 3
            assert apply_row_ops(a, r2.ops).allclose(r2.upper)

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
        for method in ("permutation", "elimination", "auto"):
            assert determinant(det_matrix, method=method).allclose(expected)

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
            assert determinant(a, method="permutation").allclose(want)
            assert determinant(a, method="elimination").allclose(want)

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
        assert determinant(a, method="permutation").allclose(want)
        assert determinant(a, method="elimination").allclose(want)
        # pivots fall in columns 0, 2, 3, 5, so the columns must be reordered
        b = _with_nilpotent_lines(random.Random(172), 6, 3, [1, 4])
        assert eliminate(b).pivot_count == 4
        assert determinant(b, method="elimination").allclose(
            determinant(b, method="permutation"))

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
        ],
    )
    def test_malformed_matrix_payloads(self, mutate):
        rng = random.Random(227)
        blob = rand_matrix(rng, 2, 3).to_json()
        mutate(blob)
        with pytest.raises(ParseError):
            ZeonMatrix.from_json(blob)

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
