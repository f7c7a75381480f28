"""Element arithmetic, structural maps, inverses, roots, and JSON I/O."""

import cmath
import json
import math
import random
import struct

import numpy as np
import pytest

from zeonalg import (
    DEFAULT,
    DimensionMismatch,
    ParseError,
    SingularityError,
    Tolerances,
    ZeonElement,
    ZeonError,
)
from zeonalg.algebra import _DENSE_MIN_PAIRS, _convolve, _dense_product, _dict_mul, _kept

from oracles import dense_mul, exactly, from_dense, max_dense_diff, rand_element, to_dense


def Z(n, terms):
    return ZeonElement(n, terms)


class TestConstructionAndProducts:
    def test_generator_squares_vanish_exactly(self):
        g = ZeonElement.generator(4, 2)
        assert g.mul(g).terms == {}

    def test_disjoint_blades_merge(self):
        z1 = ZeonElement.generator(3, 1)
        z2 = ZeonElement.generator(3, 2)
        assert z1.mul(z2) == ZeonElement.blade(3, (1, 2))

    def test_overlapping_blades_annihilate(self):
        a = ZeonElement.blade(3, (1, 2))
        b = ZeonElement.blade(3, (2, 3))
        assert a.mul(b).is_zero()

    def test_unit_difference_of_squares(self):
        one = ZeonElement.one(2)
        z1 = ZeonElement.generator(2, 1)
        assert one.add(z1).mul(one.sub(z1)) == one

    def test_scale_equals_scalar_multiplication(self):
        rng = random.Random(11)
        for _ in range(25):
            u = rand_element(rng, 4)
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert u.scale(c) == u.mul(ZeonElement.scalar(4, c))

    def test_mul_matches_dense_oracle(self):
        rng = random.Random(101)
        for _ in range(150):
            n = rng.randint(1, 6)
            a = rand_element(rng, n, terms=5)
            b = rand_element(rng, n, terms=5)
            got = to_dense(a.mul(b))
            want = dense_mul(to_dense(a), to_dense(b))
            assert max_dense_diff(got, want) <= 1e-12

    def test_ring_axioms_on_random_triples(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            a, b, c = (rand_element(rng, n) for _ in range(3))
            assert a.mul(b).allclose(b.mul(a))
            assert a.mul(b).mul(c).allclose(a.mul(b.mul(c)))
            assert a.mul(b.add(c)).allclose(a.mul(b).add(a.mul(c)))

    def test_pow_square_and_multiply(self):
        rng = random.Random(5)
        u = rand_element(rng, 4, terms=5)
        by_hand = ZeonElement.one(4)
        for _ in range(5):
            by_hand = by_hand.mul(u)
        assert u.pow(5).allclose(by_hand)
        assert u.pow(0) == ZeonElement.one(4)

    def test_operator_overloads_coerce_scalars(self):
        u = Z(2, {0: 2, 1: 1})
        assert (u + 1) == Z(2, {0: 3, 1: 1})
        assert (3 * u) == Z(2, {0: 6, 1: 3})
        assert (u - u).is_zero()
        assert -u == Z(2, {0: -2, 1: -1})
        assert u == u + 1e-13  # below the comparison tolerance


def random_terms(rng, n, count):
    return {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for m in rng.sample(range(1 << n), count)}


class TestProductKernels:
    """The array and dict kernels behind ZeonElement.mul, called directly."""

    @staticmethod
    def products(n, a, b):
        """Both kernels' canonical products, each checked for canonical form."""
        out = []
        for terms in (_kept(enumerate(_dense_product(n, a, b)), DEFAULT.prune),
                      ZeonElement(n, _dict_mul(a, b, {})).terms):
            assert all(0 <= m < 1 << n for m in terms)
            assert all(abs(c) >= DEFAULT.prune for c in terms.values())
            out.append([terms.get(m, 0j) for m in range(1 << n)])
        return out

    @pytest.mark.parametrize("n", range(9))
    def test_kernels_match_dense_oracle(self, n):
        rng = random.Random(400 + n)
        size = 1 << n
        counts = sorted(c for c in {1, 2, size // 4, size // 2, size} if 1 <= c <= size)
        for count_a in counts:
            for count_b in counts:
                a, b = random_terms(rng, n, count_a), random_terms(rng, n, count_b)
                want = dense_mul([a.get(m, 0j) for m in range(size)],
                                 [b.get(m, 0j) for m in range(size)])
                bound = 1e-12 * max(1.0, max(abs(c) for c in want))
                dense, by_dict = self.products(n, a, b)
                assert max_dense_diff(dense, want) <= bound
                assert max_dense_diff(by_dict, want) <= bound
                assert max_dense_diff(dense, by_dict) <= bound

    @pytest.mark.parametrize("n", [0, 3, 8])
    def test_zero_and_scalar_operands(self, n):
        rng = random.Random(410 + n)
        b = random_terms(rng, n, 1 << n)
        for a in ({}, {0: 1 + 0j}, {0: 2 - 3j}):
            want = [a.get(0, 0j) * b.get(m, 0j) for m in range(1 << n)]
            for got in self.products(n, a, b):
                assert max_dense_diff(got, want) <= 1e-15 * max(1.0, max(map(abs, want)))

    @pytest.mark.parametrize("n", [5, 8])
    def test_cancellation_below_prune_is_dropped(self, n):
        rng = random.Random(420 + n)
        u = random_terms(rng, n, 1 << n)
        u[0] = 2.0 + 0j
        inv = ZeonElement(n, u).inverse().terms
        for got in self.products(n, u, inv):
            assert abs(got[0] - 1) <= 1e-12
            assert not any(got[1:])

    def test_mul_matches_dict_kernel_across_the_crossover(self):
        rng = random.Random(430)
        for n in range(4, 9):
            for count in (4, 1 << (n - 2), 1 << (n - 1), 1 << n):
                a, b = random_terms(rng, n, count), random_terms(rng, n, count)
                got = ZeonElement(n, a).mul(ZeonElement(n, b))
                assert got.allclose(ZeonElement(n, _dict_mul(a, b, {})))
                assert all(abs(c) >= DEFAULT.prune for c in got.terms.values())


def bits(terms):
    """Coefficients as their IEEE bytes, so NaN and signed zeros compare exactly."""
    return {m: struct.pack("<dd", c.real, c.imag) for m, c in terms.items()}


class TestUnvalidatedArithmetic:
    """add, sub, scale and mul prune their results directly instead of going
    back through ZeonElement.__init__; the terms must be exactly those of
    ZeonElement(n, raw, tol) built from the unpruned result."""

    TOLS = (DEFAULT, Tolerances(prune=1e-6, compare=1e-6))

    @staticmethod
    def raw_add(a, b, sign):
        out = dict(a.terms)
        for m, c in b.terms.items():
            out[m] = out.get(m, 0j) + c if sign > 0 else out.get(m, 0j) - c
        return out

    @staticmethod
    def raw_mul(a, b):
        n, x, y = a.n, a.terms, b.terms
        if n <= 8 and len(x) * len(y) >= _DENSE_MIN_PAIRS[n]:
            dense = [np.zeros(1 << n, complex) for _ in range(2)]
            for arr, terms in zip(dense, (x, y)):
                for m, c in terms.items():
                    arr[m] = c
            return dict(enumerate(_convolve(n, *dense, np.multiply).tolist()))
        return _dict_mul(x, y, {})

    def check(self, a, b, tol):
        n = a.n
        assert bits(a.add(b, tol).terms) == bits(ZeonElement(n, self.raw_add(a, b, 1), tol).terms)
        assert bits(a.sub(b, tol).terms) == bits(ZeonElement(n, self.raw_add(a, b, -1), tol).terms)
        assert bits(a.mul(b, tol).terms) == bits(ZeonElement(n, self.raw_mul(a, b), tol).terms)
        for value in (2 - 0.5j, 1e-7, 0.0, -1):
            raw = {m: v * complex(value) for m, v in a.terms.items()}
            assert bits(a.scale(value, tol).terms) == bits(ZeonElement(n, raw, tol).terms)

    @pytest.mark.parametrize("tol", TOLS)
    def test_random_operands(self, tol):
        rng = random.Random(450)
        for n in (0, 1, 3, 5, 8, 9):
            size = 1 << n
            for count in sorted({1, max(1, size // 8), size // 2 or 1, min(size, 64)}):
                a = ZeonElement(n, random_terms(rng, n, count))
                b = ZeonElement(n, random_terms(rng, n, count))
                self.check(a, b, tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_real_operands_keep_signed_zeros(self, tol):
        # with negative real parts the array kernel's products carry -0.0
        # imaginary parts, which mul keeps as the kernel made them
        rng = random.Random(470)
        for n in (1, 4, 5, 8):
            terms = [{m: complex(-rng.uniform(0.5, 1.0), 0.0) for m in range(1 << n)}
                     for _ in range(2)]
            self.check(ZeonElement(n, terms[0]), ZeonElement(n, terms[1]), tol)

    @pytest.mark.parametrize("tol", TOLS)
    def test_cancellations(self, tol):
        rng = random.Random(460)
        for n in (2, 5, 8):
            a = ZeonElement(n, random_terms(rng, n, 1 << n))
            # differences of 1e-8, of 1e-13 and just above prune
            nudge = (1e-8, 1e-13, 2 * tol.prune)
            b = ZeonElement(n, {m: c + nudge[m % 3] for m, c in a.terms.items()})
            self.check(a, b, tol)
            self.check(a, ZeonElement(n, a.terms).scale(-1), tol)
            assert a.sub(b, tol).terms.keys() == {
                m for m in a.terms if nudge[m % 3] >= tol.prune}

    @pytest.mark.parametrize("tol", TOLS)
    def test_construction_prunes_by_the_arithmetic_rule(self, tol):
        # the constructor checks and coerces masks, then prunes exactly as
        # _pruned does: NaN dropped, infinities kept, |c| = prune kept
        bound = tol.prune
        below = math.nextafter(bound, 0.0)
        kept = {1: True, -2.5: True, bound: True, -bound: True, 1j * bound: True,
                below: False, -1j * below: False, 0.0: False, math.nan: False,
                complex(0, math.nan): False, math.inf: True, -math.inf: True,
                complex(math.nan, math.inf): True, complex(-math.inf, math.nan): True}
        for n in (4, 9):
            rng = random.Random(480 + n)
            masks = rng.sample(range(1 << n), len(kept))
            raw = dict(zip(masks, kept))
            got = ZeonElement(n, raw, tol)
            want = ZeonElement._pruned(n, {m: complex(c) for m, c in raw.items()}, tol.prune)
            assert bits(got.terms) == bits(want.terms)
            assert set(got.terms) == {m for m, c in zip(masks, kept) if kept[c]}
            # a bad mask is rejected even when its coefficient would be pruned
            for mask in (-1, 1 << n):
                for value in (0.0, math.nan, below):
                    with pytest.raises(ValueError, match="outside algebra"):
                        ZeonElement(n, {**raw, mask: value}, tol)

    def test_scale_by_nan_and_inf(self):
        rng = random.Random(470)
        a = ZeonElement(4, random_terms(rng, 4, 16))
        a = ZeonElement(4, {**a.terms, 1: 1 + 0j, 2: 1j})
        for value in (math.nan, math.inf, -math.inf, complex(math.inf, 1), complex(0, math.nan)):
            raw = {m: v * complex(value) for m, v in a.terms.items()}
            got = a.scale(value)
            assert bits(got.terms) == bits(ZeonElement(4, raw).terms)
            assert not any(cmath.isnan(c) and not cmath.isinf(c) for c in got.terms.values())
        assert a.scale(math.nan).terms == {}
        assert all(cmath.isinf(c) for c in a.scale(math.inf).terms.values())
        assert len(a.scale(math.inf).terms) == len(a.terms)


class TestStructuralMaps:
    def test_scalar_and_dual_parts(self):
        u = Z(3, {0: 5, 0b111: -4})
        assert u.scalar_part() == 5
        assert u.dual_part() == Z(3, {0b111: -4})
        assert ZeonElement.scalar(3, 2 + 1j).dual_part().is_zero()

    def test_scalar_part_is_multiplicative(self):
        rng = random.Random(31)
        for _ in range(30):
            a = rand_element(rng, 5)
            b = rand_element(rng, 5)
            prod = a.mul(b).scalar_part()
            assert abs(prod - a.scalar_part() * b.scalar_part()) <= 1e-12

    def test_grade_parts_partition_the_element(self):
        rng = random.Random(7)
        u = rand_element(rng, 5, terms=8)
        rebuilt = ZeonElement.zero(5)
        for k in range(6):
            rebuilt = rebuilt.add(u.grade_part(k))
        assert rebuilt == u

    def test_product_grades_convolve(self):
        rng = random.Random(13)
        a = rand_element(rng, 5, terms=6)
        b = rand_element(rng, 5, terms=6)
        prod = a.mul(b)
        for k in range(6):
            acc = ZeonElement.zero(5)
            for j in range(k + 1):
                acc = acc.add(a.grade_part(j).mul(b.grade_part(k - j)))
            assert acc.allclose(prod.grade_part(k))

    def test_dual_part_is_exactly_nilpotent(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            d = rand_element(rng, n, terms=6).dual_part()
            assert d.pow(n + 1).terms == {}

    def test_conjugate(self):
        u = Z(2, {0: 1j, 1: 1})
        assert u.conjugate() == Z(2, {0: -1j, 1: 1})
        rng = random.Random(19)
        a = rand_element(rng, 4)
        b = rand_element(rng, 4)
        assert a.conjugate().conjugate() == a
        assert a.mul(b).conjugate().allclose(a.conjugate().mul(b.conjugate()))

    def test_min_grade(self):
        # the scalar term is ignored: this is the minimal grade of the dual part
        assert Z(3, {0: 2, 0b011: 1, 0b100: 1}).min_grade() == 1
        assert Z(3, {0b001: 1, 0b110: 1}).min_grade() == 1
        assert Z(3, {0b011: 1, 0b111: 1}).min_grade() == 2
        assert ZeonElement.scalar(3, 9).min_grade() == 0
        # the zero element reports one past the top grade
        assert ZeonElement.zero(3).min_grade() == 4

    def test_grades_listing(self):
        u = Z(4, {0: 1, 0b0011: 2, 0b1011: 3})
        assert u.grades() == (0, 2, 3)


class TestInverse:
    def test_worked_inverse(self):
        u = Z(3, {0: 5, 0b111: -4})
        inv = u.inverse()
        assert inv.allclose(Z(3, {0: 0.2, 0b111: 0.16}))
        assert u.mul(inv) == ZeonElement.one(3)

    def test_single_generator_inverse(self):
        u = Z(1, {0: 2, 1: 1})
        assert u.inverse().allclose(Z(1, {0: 0.5, 1: -0.25}))

    def test_random_inverses_multiply_to_one(self):
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 5)
            u = rand_element(rng, n, terms=4, kind="invertible")
            prod = u.mul(u.inverse())
            assert prod.allclose(ZeonElement.one(n))

    def test_double_inverse(self):
        rng = random.Random(43)
        u = rand_element(rng, 4, kind="invertible")
        assert u.inverse().inverse().allclose(u)

    def test_scalar_inverse(self):
        assert ZeonElement.scalar(2, 4).inverse() == ZeonElement.scalar(2, 0.25)

    def test_nilpotent_is_singular(self):
        with pytest.raises(SingularityError):
            ZeonElement.generator(2, 1).inverse()
        with pytest.raises(SingularityError):
            ZeonElement.zero(2).inverse()

    def test_is_invertible_respects_scalar_tolerance(self):
        u = Z(2, {0: 1e-3, 1: 1})
        assert u.is_invertible()
        assert not u.is_invertible(Tolerances(prune=1e-12, compare=1e-9, scalar_zero=1e-2))


class TestKthRoot:
    def test_scalar_roots_take_principal_branch(self):
        assert ZeonElement.scalar(2, 4).kth_root(2) == ZeonElement.scalar(2, 2)
        r = ZeonElement.scalar(2, -1).kth_root(2)
        assert abs(r.scalar_part() - 1j) <= 1e-12

    def test_worked_inverse_square_root(self):
        u = Z(3, {0: 5, 0b111: -4})
        root = u.inverse().kth_root(2)
        s5 = math.sqrt(5)
        expected = Z(3, {0: 1 / s5, 0b111: 2 / (5 * s5)})
        assert root.allclose(expected)
        assert root.mul(root).allclose(u.inverse())

    def test_random_roots_power_back(self):
        rng = random.Random(47)
        for k in (2, 3, 5):
            for _ in range(20):
                n = rng.randint(1, 5)
                u = rand_element(rng, n, terms=4, kind="invertible")
                r = u.kth_root(k)
                assert r.pow(k).allclose(u)
                principal = r.scalar_part()
                assert abs(principal - cmath.exp(cmath.log(u.scalar_part()) / k)) <= 1e-9

    def test_unit_scalings_give_the_other_roots(self):
        u = Z(2, {0: 9, 0b01: 3, 0b11: 1})
        r = u.kth_root(2)
        other = r.scale(-1)
        assert other.mul(other).allclose(u)

    def test_root_of_nilpotent_is_singular(self):
        with pytest.raises(SingularityError):
            Z(2, {1: 1}).kth_root(2)

    def test_bad_k(self):
        with pytest.raises(ZeonError):
            ZeonElement.one(2).kth_root(0)


class TestNilpotencyIndex:
    def test_small_cases(self):
        assert ZeonElement.zero(3).nilpotency_index() == 1
        assert ZeonElement.generator(3, 1).nilpotency_index() == 2
        u = ZeonElement.generator(3, 1).add(ZeonElement.generator(3, 2))
        assert u.nilpotency_index() == 3

    def test_sum_of_all_generators_has_maximal_index(self):
        for n in (2, 3, 4):
            u = ZeonElement.zero(n)
            for i in range(1, n + 1):
                u = u.add(ZeonElement.generator(n, i))
            assert u.nilpotency_index() == n + 1

    def test_index_definition_holds(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(1, 5)
            u = rand_element(rng, n, terms=4, kind="nilpotent")
            if u.is_zero():
                continue
            kappa = u.nilpotency_index()
            assert u.pow(kappa).terms == {}
            assert not u.pow(kappa - 1).is_zero()

    def test_invertible_rejected(self):
        with pytest.raises(ZeonError):
            ZeonElement.one(2).nilpotency_index()


class TestToleranceHandling:
    def test_equality_uses_compare_tolerance(self):
        a = Z(2, {0: 1.0})
        assert a == Z(2, {0: 1.0 + 1e-12})
        assert a != Z(2, {0: 1.0 + 1e-6})

    def test_construction_prunes_dust(self):
        u = Z(2, {0: 1.0, 1: 1e-15})
        assert 1 not in u.terms

    def test_results_stay_pruned_after_arithmetic(self):
        rng = random.Random(59)
        u = rand_element(rng, 4, terms=6)
        v = rand_element(rng, 4, terms=6)
        for result in (u.mul(v), u.add(v), u.sub(v)):
            assert all(abs(c) >= DEFAULT.prune for c in result.terms.values())

    def test_tolerances_validation(self):
        with pytest.raises(ValueError):
            Tolerances(prune=-1e-12, compare=1e-9, scalar_zero=1e-9)
        with pytest.raises(ValueError):
            Tolerances(prune=1e-6, compare=1e-9, scalar_zero=1e-9)
        with pytest.raises(ValueError, match="finite"):
            Tolerances(compare=math.inf)

    def test_max_diff(self):
        a = Z(2, {0: 1.0, 1: 2.0})
        b = Z(2, {0: 1.0, 2: 0.5})
        assert a.max_diff(b) == pytest.approx(2.0)


class TestSerialization:
    def test_round_trip_random_elements(self):
        rng = random.Random(61)
        for _ in range(40):
            n = rng.randint(0, 6)
            u = rand_element(rng, max(n, 1), terms=5) if n else ZeonElement.scalar(0, 2 + 3j)
            blob = json.dumps(u.to_json())
            assert ZeonElement.from_json(json.loads(blob)) == u

    def test_known_shape(self):
        u = Z(3, {0: 5, 0b111: -4})
        assert u.to_json() == {
            "n": 3,
            "terms": [
                {"I": [], "re": 5.0, "im": 0.0},
                {"I": [1, 2, 3], "re": -4.0, "im": 0.0},
            ],
        }

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": 2},
            {"n": 2, "terms": [{"I": [2, 1], "re": 1.0, "im": 0.0}]},
            {"n": 2, "terms": [{"I": [1, 1], "re": 1.0, "im": 0.0}]},
            {"n": 2, "terms": [{"I": [3], "re": 1.0, "im": 0.0}]},
            {"n": 2, "terms": [{"I": [0], "re": 1.0, "im": 0.0}]},
            {"n": -1, "terms": []},
            {"n": 2, "terms": [{"I": [1], "re": "x", "im": 0.0}]},
            {"n": 2, "terms": [{"re": 1.0, "im": 0.0}]},
            [{"n": 2, "terms": []}],
            {"n": 2, "terms": {"I": [], "re": 1.0, "im": 0.0}},
            {"n": 2, "terms": [[[], 1.0, 0.0]]},
            {"n": 2, "terms": [{"I": [1.5], "re": 1.0, "im": 0.0}]},
            {"n": 2, "terms": [{"I": [True], "re": 1.0, "im": 0.0}]},
            {"n": 2, "terms": [{"I": [1], "re": 1.0, "im": 0.0},
                               {"I": [1], "re": 2.0, "im": 0.0}]},
            {"n": 2, "terms": [{"I": [1], "re": math.inf, "im": 0.0}]},
            # sizes are JSON integers and coefficients JSON numbers, not coerced
            {"n": 2.7, "terms": [{"I": [1], "re": 1, "im": 0}]},
            {"n": "2", "terms": []},
            {"n": True, "terms": []},
            {"n": 1, "terms": [{"I": [], "re": "2", "im": 0}]},
            {"n": 1, "terms": [{"I": [], "re": 2, "im": False}]},
            {"n": 1, "terms": [{"I": [], "re": 10 ** 400, "im": 0}]},
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ParseError):
            ZeonElement.from_json(payload)

    def test_signed_zeros_are_written_as_zero(self):
        # the array kernel leaves -0.0 in the scalar term's imaginary part
        # of the dense product, the loop over stored terms 0.0
        n = 4
        dense = Z(n, {m: -1 if m == 0 else 0.25 for m in range(1 << n)}).mul(
            Z(n, {m: -2 if m == 0 else 0.5 for m in range(1 << n)}))
        sparse = Z(n, {0: -1, 1: 0.25}).mul(Z(n, {0: -2, 2: 0.5}))
        assert math.copysign(1.0, dense.terms[0].imag) == -1.0
        blobs = [json.dumps(u.to_json()) for u in (dense, sparse)]
        assert all("-0.0" not in blob for blob in blobs)
        assert [json.loads(blob)["terms"][0] for blob in blobs] == [
            {"I": [], "re": 2.0, "im": 0.0}] * 2
        a, b = dense.terms, sparse.terms
        on_loop = ZeonElement(n, _dict_mul(a, b, {}))
        on_array = ZeonElement(n, dict(enumerate(_dense_product(n, a, b))))
        assert json.dumps(on_loop.to_json()) == json.dumps(on_array.to_json())

    def test_non_finite_parts_pass_through_json(self):
        u = ZeonElement._wrap(1, {0: complex(math.inf, -0.0), 1: complex(math.nan, -math.inf)})
        terms = u.to_json()["terms"]
        assert (terms[0]["re"], terms[0]["im"], terms[1]["im"]) == (math.inf, 0.0, -math.inf)
        assert math.copysign(1.0, terms[0]["im"]) == 1.0 and math.isnan(terms[1]["re"])

    def test_oracle_round_trip_through_dense(self):
        rng = random.Random(67)
        u = rand_element(rng, 5, terms=7)
        assert from_dense(to_dense(u), 5) == u


class TestPretty:
    def test_real_coefficients(self):
        assert Z(3, {0: 5, 0b111: -4}).pretty() == "5 - 4*z[1,2,3]"
        assert ZeonElement.zero(2).pretty() == "0"
        assert ZeonElement.generator(3, 2).pretty() == "z[2]"
        assert Z(2, {1: -1}).pretty() == "-z[1]"

    def test_complex_coefficients_are_parenthesized(self):
        assert Z(2, {0: 1j}).pretty() == "(1j)"
        text = Z(2, {1: 2 + 3j}).pretty()
        assert text == "(2+3j)*z[1]"

    def test_grade_then_lex_ordering(self):
        u = Z(3, {0b100: 1, 0b011: 1, 0b001: 1})
        assert u.pretty() == "z[1] + z[3] + z[1,2]"

    def test_significant_figures(self):
        assert Z(1, {0: 1 / 3}).pretty(sig=6) == "0.333333"


ELEMENT_U = Z(3, {0: 2, 0b001: 1, 0b110: -0.5j})
ELEMENT_V = Z(3, {0: -1 + 1j, 0b010: 3})
TWO = ZeonElement.scalar(3, 2)


class TestOperatorProtocol:
    """Each operator of ZeonElement is its named method with default tolerances."""

    @pytest.mark.parametrize("op, method", [
        (lambda u, v: u + v, lambda u, v: u.add(v)),
        (lambda u, v: 2 + u, lambda u, v: u.add(TWO)),
        (lambda u, v: u - v, lambda u, v: u.sub(v)),
        (lambda u, v: 2 - u, lambda u, v: TWO.sub(u)),
        (lambda u, v: u * v, lambda u, v: u.mul(v)),
        (lambda u, v: 2 * u, lambda u, v: u.scale(2)),
        (lambda u, v: u / 4, lambda u, v: u.scale(0.25)),
        (lambda u, v: u / v, lambda u, v: u.mul(v.inverse())),
        (lambda u, v: u ** 3, lambda u, v: u.pow(3)),
        (lambda u, v: -u, lambda u, v: u.scale(-1)),
        (lambda u, v: +u, lambda u, v: u),
        (lambda u, v: u == v, lambda u, v: u.allclose(v)),
        (lambda u, v: TWO == 2, lambda u, v: True),
        (lambda u, v: u == "u", lambda u, v: False),
        (lambda u, v: bool(u), lambda u, v: True),
        (lambda u, v: bool(ZeonElement.zero(3)), lambda u, v: False),
    ], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div-number", "div-element",
            "pow", "neg", "pos", "eq", "eq-number", "eq-other", "bool", "bool-zero"])
    def test_operator_equals_method(self, op, method):
        assert exactly(op(ELEMENT_U, ELEMENT_V), method(ELEMENT_U, ELEMENT_V))

    @pytest.mark.parametrize("op", [
        lambda u: u + "x", lambda u: "x" + u, lambda u: u - "x", lambda u: "x" - u,
        lambda u: u * "x", lambda u: u / "x", lambda u: 1 / u, lambda u: u @ u,
    ], ids=["add", "radd", "sub", "rsub", "mul", "div", "rdiv", "matmul"])
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(ELEMENT_U)


class TestArgumentChecks:
    """Constructors and methods refuse what no element can be built from."""

    def test_constructors_refuse_bad_shapes(self):
        with pytest.raises(ValueError, match="generator count"):
            ZeonElement(64)
        with pytest.raises(ValueError, match="outside 1..3"):
            ZeonElement.generator(3, 0)
        with pytest.raises(ValueError, match="repeated generator index 1"):
            ZeonElement.blade(3, [1, 1])

    def test_negative_power_and_grade_refused(self):
        u = Z(2, {0: 2, 1: 1})
        with pytest.raises(ValueError, match="inverse"):
            u.pow(-1)
        with pytest.raises(ValueError, match="non-negative"):
            u.grade_part(-1)

    def test_operands_in_different_algebras(self):
        with pytest.raises(DimensionMismatch):
            Z(2, {0: 1}).add(Z(3, {0: 1}))

    @pytest.mark.parametrize("other", [1.0, "1", None, [1], Z(3, {0: 1})])
    def test_allclose_is_false_against_foreign_values(self, other):
        assert not Z(2, {0: 1}).allclose(other)

    def test_first_root_is_the_element(self):
        u = Z(2, {0: 2, 1: 1})
        assert u.kth_root(1) is u

    def test_top_blade_without_generators_is_the_scalar(self):
        assert ZeonElement.top_blade(0, 2 - 1j).terms == {0: 2 - 1j}

    def test_nilpotency_index_refuses_a_tiny_invertible_scalar(self):
        # 1e-10 is below scalar_zero, so the element passes as nilpotent, but
        # with compare = 1e-30 its powers never vanish: u^3 still holds 3e-20 z1
        tol = Tolerances(prune=1e-30, compare=1e-30, scalar_zero=1e-9)
        with pytest.raises(ZeonError, match="exceeded n \\+ 1"):
            Z(1, {0: 1e-10, 1: 1}).nilpotency_index(tol)

    def test_str_and_repr(self):
        u = Z(3, {0: 5, 0b111: -4})
        assert str(u) == "5 - 4*z[1,2,3]"
        assert repr(u) == "<ZeonElement n=3: 5 - 4*z[1,2,3]>"
