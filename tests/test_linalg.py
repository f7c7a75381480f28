"""Vectors, inner products, matrices, elimination, determinants, inverses."""

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

from zeonalg import linalg

from oracles import (
    dense_add,
    dense_matmul,
    dense_mul,
    dense_perm_det,
    dense_scale,
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
        # an operand that already holds a stack keeps the product on the stacks
        held = forms(sparse)[2]
        assert on_stack(held.mul(sparse)) and on_stack(sparse.mul(held))
        assert held._entries is None

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
