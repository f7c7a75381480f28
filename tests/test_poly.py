"""Polynomials over the algebra: evaluation, division, roots, zero lifting."""

import cmath
import json
import math
import pathlib
import random

import pytest

import zeonalg.poly as poly

from zeonalg import (
    ComplexPolynomial,
    DimensionMismatch,
    DoesNotSplitError,
    NonConvergenceError,
    ParseError,
    PolyDivisionError,
    SpectralSimplicityError,
    Tolerances,
    ZeonElement,
    ZeonError,
    ZeonPolynomial,
    complex_roots,
    induce_complex,
    lift_simple_zero,
    multiple_zero_family,
    poly_divide,
    split,
)

from oracles import (dense_mul, dense_one, exactly, generator_roots, rand_element,
                     sequential_lift, split_n16_roots, to_dense, union_find_cluster_report)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TOLS = (poly.DEFAULT, Tolerances(prune=1e-6, compare=1e-6))
FINE = Tolerances(prune=1e-30, compare=1e-20, scalar_zero=1e-20)


def load_fixture(name):
    return json.loads((FIXTURES / name).read_text())


def Z(n, terms):
    return ZeonElement(n, terms)


def quartic():
    return ZeonPolynomial.from_json(load_fixture("poly_quartic.json"))


def nonsplit():
    return ZeonPolynomial.from_json(load_fixture("poly_nonsplit.json"))


def s_element():
    """The dual element z12 + z13 + z14 used by the quartic fixture."""
    return Z(4, {0b0011: 1, 0b0101: 1, 0b1001: 1})


def random_blade_poly(seed):
    """Degree 8 over 16 generators, each root carrying ten random blades."""
    rng = random.Random(seed)
    degree, n = 8, 16
    roots = []
    for k in range(degree):
        terms = {0: complex(-3.5 + k + rng.uniform(-0.2, 0.2), rng.uniform(-0.5, 0.5))}
        for _ in range(10):
            mask = rng.randrange(1, 1 << n)
            terms[mask] = terms.get(mask, 0j) + complex(rng.uniform(-1, 1),
                                                        rng.uniform(-1, 1))
        roots.append(Z(n, terms))
    return ZeonPolynomial.from_roots(roots)


def shadow_from_roots(roots):
    """The monic complex polynomial with the given zeros, repeats counted."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [(coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    return ComplexPolynomial(coeffs)


def planted_shadow(rng):
    """Degree 2..12 with roots of multiplicity 1..6 at scale 1e-3..1e3.

    Half of the multiple roots are exact repeats; the other half scatter
    their copies 1e-9..1e-2 (relative) around the first.
    """
    scale = 10 ** rng.uniform(-3, 3)
    degree = rng.randint(2, 12)
    roots = []
    while len(roots) < degree:
        c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) * scale
        mult = min(rng.randint(1, 6), degree - len(roots))
        sep = 10 ** rng.uniform(-9, -2) * scale if rng.random() < 0.5 else 0.0
        roots.append(c)
        roots.extend(c + sep * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
                     for _ in range(mult - 1))
    return shadow_from_roots(roots)


class TestEvaluation:
    def test_square_kills_a_generator(self):
        # u^2 evaluated at z1 is exactly zero
        p = ZeonPolynomial.from_scalars(2, [0, 0, 1])
        assert p.evaluate(ZeonElement.generator(2, 1)).is_zero()

    def test_accepts_plain_numbers(self):
        p = ZeonPolynomial.from_scalars(2, [1, 2, 1])
        assert p.evaluate(3) == ZeonElement.scalar(2, 16)
        assert p(3) == p.evaluate(3)

    def test_worked_quartic_at_three(self):
        phi = quartic()
        val = phi.evaluate(3)
        assert val.allclose(s_element().scale(-4))

    def test_matches_naive_power_sum(self):
        rng = random.Random(233)
        for _ in range(20):
            n = rng.randint(1, 4)
            coeffs = [rand_element(rng, n, terms=3) for _ in range(rng.randint(1, 5))]
            p = ZeonPolynomial(coeffs)
            point = rand_element(rng, n, terms=3)
            dense_point = to_dense(point)
            acc = [0j] * (1 << n)
            power = dense_one(n)
            for c in coeffs:
                term = dense_mul(to_dense(c), power)
                acc = [x + y for x, y in zip(acc, term)]
                power = dense_mul(power, dense_point)
            got = to_dense(p.evaluate(point))
            assert max(abs(x - y) for x, y in zip(got, acc)) <= 1e-12

    def test_from_roots(self):
        r1 = Z(2, {0: 1, 1: 1})
        r2 = Z(2, {0: -2, 2: 1})
        p = ZeonPolynomial.from_roots([r1, r2])
        assert p.degree == 2
        assert p.leading == ZeonElement.one(2)
        assert p.evaluate(r1).is_zero()
        assert p.evaluate(r2).is_zero()

    def test_from_roots_negates_under_the_callers_prune(self):
        # DEFAULT's prune, 1e-12, would drop the root's 1e-14 term
        p = ZeonPolynomial.from_roots([ZeonElement(1, {0: 2, 1: 1e-14}, FINE)], FINE)
        assert p.coeffs[0].terms == {0: -2, 1: -1e-14}

    def test_monic_tests_the_lead_under_the_callers_prune(self):
        # DEFAULT's prune would read the lead 1 + 1e-13 z1 as 1
        p = ZeonPolynomial([Z(1, {0: 2}), ZeonElement(1, {0: 1, 1: 1e-13}, FINE)])
        assert p.monic(FINE).leading.terms == {0: 1}

    def test_arithmetic(self):
        rng = random.Random(239)
        n = 3
        a = ZeonPolynomial([rand_element(rng, n) for _ in range(3)])
        b = ZeonPolynomial([rand_element(rng, n) for _ in range(4)])
        point = rand_element(rng, n)
        for op, check in (
            (a.add(b), lambda x, y: x.add(y)),
            (a.sub(b), lambda x, y: x.sub(y)),
            (a.mul(b), lambda x, y: x.mul(y)),
        ):
            assert op.evaluate(point).allclose(check(a.evaluate(point), b.evaluate(point)))

    def test_trailing_zero_coefficients_stripped(self):
        p = ZeonPolynomial([ZeonElement.one(2), ZeonElement.zero(2)])
        assert p.degree == 0


class TestDivision:
    def test_remainder_theorem(self):
        rng = random.Random(241)
        for _ in range(15):
            n = rng.randint(1, 4)
            phi = ZeonPolynomial([rand_element(rng, n) for _ in range(4)])
            w = rand_element(rng, n)
            linear = ZeonPolynomial([w.scale(-1), ZeonElement.one(n)])
            quot, rem = poly_divide(phi, linear)
            assert rem.degree == 0
            assert rem.coeffs[0].allclose(phi.evaluate(w))

    def test_exact_reconstruction(self):
        rng = random.Random(251)
        for _ in range(15):
            n = rng.randint(1, 4)
            q = ZeonPolynomial([rand_element(rng, n) for _ in range(3)])
            d = ZeonPolynomial([rand_element(rng, n, kind="invertible")
                                   for _ in range(3)])
            r = ZeonPolynomial([rand_element(rng, n)])
            phi = q.mul(d).add(r)
            quot, rem = poly_divide(phi, d)
            assert quot.allclose(q)
            assert rem.allclose(r)

    def test_degree_inequality(self):
        rng = random.Random(257)
        phi = ZeonPolynomial([rand_element(rng, 3) for _ in range(6)])
        psi = ZeonPolynomial([rand_element(rng, 3, kind="invertible") for _ in range(3)])
        quot, rem = poly_divide(phi, psi)
        assert rem.is_zero() or rem.degree < psi.degree
        assert quot.mul(psi).add(rem).allclose(phi)

    def test_worked_pair_fixture(self):
        pair = load_fixture("polydiv_pair.json")
        phi = ZeonPolynomial.from_json(pair["dividend"])
        psi = ZeonPolynomial.from_json(pair["divisor"])
        quot, rem = poly_divide(phi, psi)
        assert quot.mul(psi).add(rem).allclose(phi)
        # dividing out the known zero leaves no remainder
        assert rem.is_zero()

    def test_nilpotent_leading_coefficient_rejected(self):
        n = 2
        psi = ZeonPolynomial([ZeonElement.one(n), ZeonElement.generator(n, 1)])
        phi = ZeonPolynomial([ZeonElement.one(n)] * 3)
        with pytest.raises(PolyDivisionError):
            poly_divide(phi, psi)

    def test_zero_divisor_rejected(self):
        phi = ZeonPolynomial.from_scalars(2, [1, 1])
        with pytest.raises(PolyDivisionError):
            poly_divide(phi, ZeonPolynomial([ZeonElement.zero(2)]))


class TestInducedPolynomial:
    def test_quartic_shadow(self):
        f = induce_complex(quartic())
        assert [round(c.real) for c in f.coeffs] == [3, -10, 12, -6, 1]
        assert max(abs(c.imag) for c in f.coeffs) == 0

    def test_nonsplit_shadow_is_a_perfect_square(self):
        f = induce_complex(nonsplit())
        assert [c.real for c in f.coeffs] == [1, -2, 1]

    def test_commutes_with_evaluation(self):
        rng = random.Random(263)
        for _ in range(10):
            n = rng.randint(1, 4)
            phi = ZeonPolynomial([rand_element(rng, n) for _ in range(4)])
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = induce_complex(phi)(z)
            rhs = phi.evaluate(z).scalar_part()
            assert abs(lhs - rhs) <= 1e-12

    def test_multiplicative(self):
        rng = random.Random(269)
        a = ZeonPolynomial([rand_element(rng, 3) for _ in range(3)])
        b = ZeonPolynomial([rand_element(rng, 3) for _ in range(3)])
        lhs = induce_complex(a.mul(b))
        rhs = induce_complex(a) * induce_complex(b) if hasattr(
            induce_complex(a), "__mul__") else None
        prod = a.mul(b)
        for z in (0.3 + 0.1j, -1.2, 2.5j):
            assert abs(induce_complex(prod)(z)
                       - induce_complex(a)(z) * induce_complex(b)(z)) <= 1e-9


class TestComplexRoots:
    def test_quadratic(self):
        p = ComplexPolynomial([-1, 0, 1])
        report = complex_roots(p)
        values = sorted(r.value.real for r in report.roots)
        assert values == pytest.approx([-1.0, 1.0])
        assert all(r.simple and r.multiplicity == 1 for r in report.roots)

    def test_degree_one(self):
        report = complex_roots(ComplexPolynomial([-3j, 1]))
        assert len(report.roots) == 1
        assert abs(report.roots[0].value - 3j) <= 1e-12

    def test_quartic_shadow_report(self):
        report = complex_roots(induce_complex(quartic()))
        assert [r.multiplicity for r in report.roots] == [1, 3]
        triple = report.roots[1]
        simple = report.roots[0]
        assert abs(simple.value - 3) <= 1e-6
        assert simple.simple
        assert abs(triple.value - 1) <= 1e-4
        assert not triple.simple

    def test_planted_well_separated_roots(self):
        rng = random.Random(271)
        for _ in range(15):
            d = rng.randint(2, 6)
            roots = []
            while len(roots) < d:
                cand = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if all(abs(cand - r) > 0.7 for r in roots):
                    roots.append(cand)
            coeffs = [1.0 + 0j]
            for r in roots:
                coeffs = [0j] + coeffs
                coeffs = [coeffs[i] - r * (coeffs[i + 1] if i + 1 < len(coeffs) else 0)
                          for i in range(len(coeffs) - 1)] + [coeffs[-1]]
            p = ComplexPolynomial(coeffs)
            report = complex_roots(p)
            got = sorted(report.roots, key=lambda r: (r.value.real, r.value.imag))
            want = sorted(roots, key=lambda z: (z.real, z.imag))
            assert len(got) == d
            for g, w in zip(got, want):
                assert abs(g.value - w) <= 1e-8 * (1 + abs(w))
            assert report.residual <= 1e-8

    def test_double_root_clusters(self):
        # (z-1)^2 (z+2)
        p = ComplexPolynomial([2, -3, 0, 1])
        report = complex_roots(p)
        mults = {round(r.value.real): r.multiplicity for r in report.roots}
        assert mults == {1: 2, -2: 1}
        double = next(r for r in report.roots if r.multiplicity == 2)
        assert not double.simple

    def test_roots_sorted_descending(self):
        p = ComplexPolynomial([-6, 11, -6, 1])  # roots 1, 2, 3
        report = complex_roots(p)
        assert [round(r.value.real) for r in report.roots] == [3, 2, 1]

    def test_constant_rejected(self):
        with pytest.raises(ZeonError):
            complex_roots(ComplexPolynomial([5]))

    def test_iteration_cap_raises_with_partial_report(self, monkeypatch):
        monkeypatch.setattr(poly, "_MAX_ITER", 1)
        p = ComplexPolynomial([-2, -3, 0, 1])
        with pytest.raises(NonConvergenceError) as info:
            complex_roots(p)
        assert info.value.report is not None
        assert info.value.code == "no_convergence"

    @pytest.mark.parametrize("coeffs", [[1e300, 0, 1], [math.inf, 0, 1], [1, 0, 0, 1e-300]],
                             ids=["residual-overflow", "infinite-coefficient", "monic-overflow"])
    def test_overflowed_iterates_are_no_roots(self, coeffs):
        # iterates and |f| overflow, so the freeze test compares inf with inf;
        # the report that would hold NaN roots or an infinite residual is refused
        with pytest.raises(NonConvergenceError, match="not finite") as info:
            complex_roots(ComplexPolynomial(coeffs))
        report = info.value.report
        assert not (math.isfinite(report.residual)
                    and all(cmath.isfinite(r.value) for r in report.roots))

    def test_zeon_polynomial_accepted_directly(self):
        report = complex_roots(quartic())
        assert [r.multiplicity for r in report.roots] == [1, 3]

    def test_one_pass_matches_the_union_find_reference(self, monkeypatch):
        # the same report, bit for bit, as merging at the narrow radius and
        # then merging cluster means where f' fails the simplicity floor
        seen = []
        report = poly._cluster_report

        def spy(points, monic, dmonic, iterations):
            seen.append((list(points), monic, iterations))
            return report(points, monic, dmonic, iterations)

        monkeypatch.setattr(poly, "_cluster_report", spy)
        rng = random.Random(2029)
        multiple = 0
        for _ in range(1000):
            try:
                got = complex_roots(planted_shadow(rng))
            except NonConvergenceError as exc:
                got = exc.report
            assert repr(got) == repr(union_find_cluster_report(*seen.pop()))
            multiple += any(r.multiplicity > 1 for r in got.roots)
        assert multiple >= 500

    def test_quadruple_and_double_root_keep_their_multiplicities(self):
        # adding each iterate to the first root whose mean lies near it, with
        # no transitive merge, splits this quadruple root into two doubles
        quad, double = 1.05 + 2.75j, 1.74 + 1.15j
        report = complex_roots(shadow_from_roots([quad] * 4 + [double] * 2))
        assert [r.multiplicity for r in report.roots] == [2, 4]
        assert not any(r.simple for r in report.roots)
        assert abs(report.roots[0].value - double) <= 1e-6
        assert abs(report.roots[1].value - quad) <= 1e-3


class TestLiftSimpleZero:
    def test_worked_quartic_lift(self):
        phi = quartic()
        lam = lift_simple_zero(phi, 3)
        expected = ZeonElement.scalar(4, 3).add(s_element().scale(0.5))
        assert lam.allclose(expected)
        assert phi.evaluate(lam).norm_inf() <= 1e-12

    def test_scalar_polynomial_lift_is_trivial(self):
        p = ZeonPolynomial.from_scalars(3, [-6, 11, -6, 1])
        assert lift_simple_zero(p, 2.0) == ZeonElement.scalar(3, 2)

    def test_matches_sequential_closed_form(self):
        rng = random.Random(277)
        for _ in range(15):
            n = rng.randint(1, 4)
            scalars = []
            while len(scalars) < 3:
                c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if all(abs(c - s) > 0.6 for s in scalars):
                    scalars.append(c)
            roots = [ZeonElement.scalar(n, s).add(rand_element(rng, n, 2, "nilpotent"))
                     for s in scalars]
            phi = ZeonPolynomial.from_roots(roots)
            lam0 = scalars[0]
            got = lift_simple_zero(phi, lam0)
            want = sequential_lift(phi, lam0)
            assert got.allclose(want)
            assert phi.evaluate(got).norm_inf() <= 1e-9

    def test_recovers_planted_zeon_roots(self):
        rng = random.Random(281)
        n = 3
        roots = [Z(n, {0: 1, 0b001: 0.3}), Z(n, {0: -1, 0b010: -0.2, 0b111: 1.0})]
        phi = ZeonPolynomial.from_roots(roots)
        for r in roots:
            lam = lift_simple_zero(phi, r.scalar_part())
            assert lam.allclose(r)

    def test_non_root_rejected(self):
        with pytest.raises(ZeonError):
            lift_simple_zero(quartic(), 2.0)

    def test_multiple_shadow_root_rejected(self):
        with pytest.raises(SpectralSimplicityError):
            lift_simple_zero(nonsplit(), 1.0)

    def test_non_monic_leading_coefficient_handled(self):
        rng = random.Random(283)
        lead = rand_element(rng, 2, kind="invertible")
        base = ZeonPolynomial.from_roots([Z(2, {0: 2, 1: 0.5}), Z(2, {0: -1})])
        phi = base.scale(lead)
        lam = lift_simple_zero(phi, 2.0)
        assert lam.allclose(Z(2, {0: 2, 1: 0.5}))


def floor_case(kind, inside, lead, monic_floor):
    """lead * g on n = 2, its shadow at 0 just inside or just outside one floor.

    kind "zero": g = u^2 + c, so f(0) = lead * c meets the zero floor;
    kind "simple": g = u^3 - s u, a zero at 0 with f'(0) = -lead * s meeting the
    simplicity floor. The floor is that of the monic g when monic_floor (the
    shadow complex_roots and lift_simple_zero test), else that of lead * g
    (the one multiple_zero_family tests).
    """
    rel = 1e-6 if kind == "zero" else poly._SIMPLE_REL
    top = 1 if monic_floor else lead            # max |f_k|, since c, s << 1
    value = rel * (1 + top) / top * (1 - 1e-6 if inside else 1 + 1e-6)
    g = [value, 0, 1] if kind == "zero" else [0, -value, 0, 1]
    return ZeonPolynomial.from_scalars(2, [lead * c for c in g])


class TestShadowZeroTest:
    """complex_roots, lift_simple_zero and multiple_zero_family share one
    shadow-zero test: each decides as _shadow_zero does on its own shadow."""

    @pytest.mark.parametrize("lead", [1, 4])
    @pytest.mark.parametrize("inside", [True, False])
    @pytest.mark.parametrize("kind", ["zero", "simple"])
    def test_decisions_at_the_floors(self, kind, inside, lead):
        # inside the zero floor means a zero; inside the simplicity floor, not simple
        zero = inside or kind == "simple"
        simple = kind == "simple" and not inside

        phi = floor_case(kind, inside, lead, monic_floor=True)
        f = induce_complex(phi).monic()
        assert poly._shadow_zero(f, f.derivative(), 0j) == (zero, simple)
        if kind == "simple":
            nearest = min(complex_roots(phi).roots, key=lambda r: abs(r.value))
            assert (nearest.multiplicity, nearest.simple) == (1, simple)
        if not zero:
            with pytest.raises(ZeonError, match="not a zero of the complex shadow"):
                lift_simple_zero(phi, 0)
        elif not simple:
            with pytest.raises(SpectralSimplicityError):
                lift_simple_zero(phi, 0)
        else:
            assert lift_simple_zero(phi, 0) == ZeonElement.zero(2)

        # a looser compare lets a shadow value of 1e-6 past the zeon zero check
        tol = Tolerances(compare=1e-5)
        phi = floor_case(kind, inside, lead, monic_floor=False)
        f = induce_complex(phi, tol)
        assert poly._shadow_zero(f, f.derivative(), 0j) == (zero, simple)
        if not zero:
            with pytest.raises(ZeonError, match="not a zero of the complex shadow"):
                multiple_zero_family(phi, ZeonElement.zero(2), 1.0, tol)
        elif simple:
            with pytest.raises(ZeonError, match="simple shadow zero"):
                multiple_zero_family(phi, ZeonElement.zero(2), 1.0, tol)
        else:
            got = multiple_zero_family(phi, ZeonElement.zero(2), 1.0, tol)
            assert got == ZeonElement.top_blade(2, 1.0)


class TestSplit:
    def test_simple_factorization(self):
        p = ZeonPolynomial.from_scalars(2, [2, -3, 1])  # (u-1)(u-2)
        zeros = split(p)
        assert [round(z.scalar_part().real) for z in zeros] == [2, 1]
        for z in zeros:
            assert z.dual_part().norm_inf() <= 1e-9

    def test_planted_roots_round_trip(self):
        rng = random.Random(293)
        for _ in range(10):
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
            assert len(zeros) == count
            for z in zeros:
                assert phi.evaluate(z).norm_inf() <= 1e-7
            got = sorted(zeros, key=lambda z: z.scalar_part().real)
            want = sorted(roots, key=lambda z: z.scalar_part().real)
            for g, w in zip(got, want):
                assert g.max_diff(w) <= 1e-7

    @pytest.mark.parametrize("seed", range(4))
    def test_random_blade_roots_lift_or_raise(self, seed):
        # The grade-by-grade lift can stop early on rounding residue; split
        # must then raise instead of returning an unfinished zero.
        phi = random_blade_poly(seed)
        degree = phi.degree
        scale = max(c.norm_inf() for c in phi.coeffs)
        try:
            zeros = split(phi)
        except NonConvergenceError as exc:
            assert isinstance(exc.report, ZeonElement)
            return
        assert len(zeros) == degree
        for z in zeros:
            assert phi.evaluate(z).norm_inf() <= 1e-8 * degree * scale

    def test_sparse_roots_on_many_generators_lift(self):
        rng = random.Random(7)
        degree, n = 8, 16
        gens = rng.sample(range(n), degree + 1)
        roots = [Z(n, {0: -3.5 + k, 1 << gens[k]: rng.uniform(-1, 1),
                       1 << gens[degree]: rng.uniform(-1, 1)}) for k in range(degree)]
        phi = ZeonPolynomial.from_roots(roots)
        got = sorted(split(phi), key=lambda z: z.scalar_part().real)
        for g, w in zip(got, roots):
            assert g.max_diff(w) <= 1e-8

    def test_descending_order(self):
        p = ZeonPolynomial.from_scalars(3, [-6, 11, -6, 1])
        zeros = split(p)
        assert [round(z.scalar_part().real) for z in zeros] == [3, 2, 1]

    def test_nonsplit_raises_with_cluster_detail(self):
        with pytest.raises(DoesNotSplitError) as info:
            split(nonsplit())
        assert info.value.code == "does_not_split"
        assert info.value.clusters
        assert any(mult > 1 for _, mult in info.value.clusters)

    def test_quartic_does_not_split(self):
        with pytest.raises(DoesNotSplitError):
            split(quartic())


class TestMultipleZeroFamily:
    def test_square_family(self):
        # zeros of (u-1)^2 + 0: any 1 + a * top blade
        p = ZeonPolynomial.from_scalars(3, [1, -2, 1])
        for shift in (0, 2 + 1j, -0.5):
            z = multiple_zero_family(p, ZeonElement.one(3), shift)
            assert p.evaluate(z).norm_inf() <= 1e-12
            expected = Z(3, {0: 1, 0b111: shift}) if shift else ZeonElement.one(3)
            assert z.allclose(expected)

    def test_rejects_simple_zero(self):
        p = ZeonPolynomial.from_scalars(2, [2, -3, 1])
        with pytest.raises(ZeonError):
            multiple_zero_family(p, ZeonElement.one(2), 1.0)

    def test_rejects_non_zero(self):
        p = ZeonPolynomial.from_scalars(2, [1, -2, 1])
        with pytest.raises(ZeonError):
            multiple_zero_family(p, ZeonElement.scalar(2, 3), 1.0)


class TestQuadraticWithNilpotentShift:
    def test_scaled_imaginary_zero(self):
        # u = i*sqrt(a) + i*b/(2*sqrt(a)) z1 squares to -(a + b z1),
        # so it is a zero of u^2 + (a + b z1)
        a, b = 2.0, 3.0
        sa = math.sqrt(a)
        u = Z(2, {0: 1j * sa, 0b01: 1j * b / (2 * sa)})
        phi = ZeonPolynomial([Z(2, {0: a, 0b01: b}),
                                 ZeonElement.zero(2),
                                 ZeonElement.one(2)])
        assert phi.evaluate(u).norm_inf() <= 1e-12
        # and the splitting pipeline finds the conjugate pair on its own
        zeros = split(phi)
        assert len(zeros) == 2
        assert any(z.allclose(u) for z in zeros)

    def test_translated_quadratic_splits_into_the_pair(self):
        # (u-1)^2 + (a + b z1) with a != 0 has simple shadow roots
        # 1 +/- i*sqrt(a), and its zeros are exactly 1 +/- u with u as above
        a, b = 2.0, 3.0
        sa = math.sqrt(a)
        u = Z(2, {0: 1j * sa, 0b01: 1j * b / (2 * sa)})
        phi = ZeonPolynomial([Z(2, {0: 1 + a, 0b01: b}),
                              ZeonElement.scalar(2, -2),
                              ZeonElement.one(2)])
        zeros = split(phi)
        assert len(zeros) == 2
        one = ZeonElement.one(2)
        assert any(z.allclose(one.add(u)) for z in zeros)
        assert any(z.allclose(one.sub(u)) for z in zeros)

    def test_purely_nilpotent_shift_does_not_split(self):
        # with a = 0 the shadow keeps its double root and nothing lifts
        phi = ZeonPolynomial([Z(2, {0: 1, 0b01: 3.0}),
                              ZeonElement.scalar(2, -2),
                              ZeonElement.one(2)])
        with pytest.raises(DoesNotSplitError):
            split(phi)


class TestPolySerialization:
    def test_round_trip(self):
        rng = random.Random(307)
        phi = ZeonPolynomial([rand_element(rng, 3) for _ in range(4)])
        blob = json.dumps(phi.to_json())
        assert ZeonPolynomial.from_json(json.loads(blob)).allclose(phi)

    def test_fixture_round_trip(self):
        blob = quartic().to_json()
        assert ZeonPolynomial.from_json(blob).allclose(quartic())

    def test_root_report_json(self):
        report = complex_roots(induce_complex(quartic()))
        blob = report.to_json()
        assert {"roots", "residual", "iterations"} <= set(blob)
        assert blob["roots"][0]["multiplicity"] == 1

    def test_pretty(self):
        p = ZeonPolynomial.from_scalars(2, [3, 0, 1])
        text = p.pretty()
        assert "u^2" in text and "3" in text

    @pytest.mark.parametrize("payload", [
        [{"n": 1, "terms": []}],
        {"n": 1},
        {"n": 1, "coeffs": []},
        {"n": 1, "coeffs": [{"n": 1, "terms": []}, {"n": 2, "terms": []}]},
        {"n": 1.5, "coeffs": [{"n": 1, "terms": []}]},
        {"n": "1", "coeffs": [{"n": 1, "terms": []}]},
        {"n": True, "coeffs": [{"n": 1, "terms": []}]},
        {"n": 1, "coeffs": [{"n": 1, "terms": [{"I": [], "re": 1, "im": "0"}]}]},
    ], ids=["not-an-object", "no-coeffs", "empty-coeffs", "coefficient-on-other-n",
            "float-n", "string-n", "bool-n", "string-coefficient"])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ParseError):
            ZeonPolynomial.from_json(payload)

    def test_pretty_forms(self):
        assert ZeonPolynomial.from_scalars(1, [-2, 0, 1]).pretty() == "u^2 - 2"
        assert ZeonPolynomial([Z(2, {0: 1, 1: -2}), Z(2, {0: -3}), Z(2, {0: 1})]).pretty() \
            == "u^2 - 3*u + (1 - 2*z[1])"
        assert ZeonPolynomial([ZeonElement.zero(1)]).pretty() == "0"

    def test_reprs(self):
        assert repr(ZeonPolynomial.from_scalars(1, [-2, 0, 1])) \
            == "<ZeonPolynomial degree=2 n=1: u^2 - 2>"
        assert repr(ComplexPolynomial([1, 2j])) == "<ComplexPolynomial ['1', '0+2j']>"


class TestArgumentChecks:
    """Constructors and operations refuse what no polynomial result can be built from."""

    @pytest.mark.parametrize("build, error", [
        (lambda: ZeonPolynomial([]), ValueError),
        (lambda: ZeonPolynomial([2.0]), TypeError),
        (lambda: ZeonPolynomial([ZeonElement.one(1), 2.0]), TypeError),
        (lambda: ZeonPolynomial([ZeonElement.one(1), ZeonElement.one(2)]), DimensionMismatch),
        (lambda: ZeonPolynomial.from_roots([]), ValueError),
        (lambda: ComplexPolynomial([]), ValueError),
    ], ids=["empty", "first-not-element", "later-not-element", "mixed-n", "no-roots",
            "empty-complex"])
    def test_constructors_refuse(self, build, error):
        with pytest.raises(error):
            build()

    def test_operands_in_different_algebras(self):
        phi = ZeonPolynomial.from_scalars(1, [-2, 0, 1])
        psi = ZeonPolynomial.from_scalars(2, [1, 1])
        with pytest.raises(DimensionMismatch):
            phi.add(psi)
        with pytest.raises(DimensionMismatch):
            phi.evaluate(ZeonElement.one(2))
        with pytest.raises(DimensionMismatch):
            poly_divide(phi, psi)
        with pytest.raises(DimensionMismatch):
            multiple_zero_family(phi, ZeonElement.one(2), 1.0)

    def test_allclose_is_false_against_foreign_values(self):
        phi = ZeonPolynomial.from_scalars(1, [-2, 0, 1])
        assert not phi.allclose(ZeonPolynomial.from_scalars(2, [-2, 0, 1]))
        assert not phi.allclose(ZeonElement.one(1))

    def test_product_skips_zero_coefficients(self):
        phi, psi = (ZeonPolynomial.from_scalars(1, c) for c in ([-2, 0, 1], [1, 0, 1]))
        assert phi.mul(psi).allclose(ZeonPolynomial.from_scalars(1, [-2, 0, -1, 0, 1]))

    def test_lift_refuses_a_constant_polynomial(self):
        with pytest.raises(ZeonError, match="constant polynomial"):
            lift_simple_zero(ZeonPolynomial.from_scalars(1, [3]), 0.0)

    def test_monic_refuses_a_nilpotent_lead(self):
        with pytest.raises(PolyDivisionError):
            ZeonPolynomial([Z(1, {0: 1}), Z(1, {1: 1})]).monic()

    def test_lower_degree_dividend_is_the_remainder(self):
        phi = ZeonPolynomial([Z(1, {0: 2, 1: 1})])
        quotient, remainder = poly_divide(phi, ZeonPolynomial.from_scalars(1, [-2, 0, 1]))
        assert quotient.allclose(ZeonPolynomial([ZeonElement.zero(1)]))
        assert remainder is phi

    def test_complex_polynomial_derivative_and_equality(self):
        assert ComplexPolynomial([3]).derivative() == ComplexPolynomial([0])
        assert ComplexPolynomial([1, 2]) == ComplexPolynomial([1, 2, 0])
        assert ComplexPolynomial([1, 2]) != ComplexPolynomial([1, 3])
        assert ComplexPolynomial([1]) != [1]


def table_form(monkeypatch, on):
    """Make every lift run on the Taylor table (on) or by element Horner."""
    monkeypatch.setattr(poly, "_TABLE_MIN_CELLS", 0 if on else math.inf)


def form_poly(n):
    """A polynomial on n generators for the form-agreement tests.

    n = 3 takes eight roots with random nilpotent parts, shadows 3.5 - k
    +- 0.3j, on which the table alone stops at one zero that Horner lifts;
    larger n four generator-class roots on the top generators, so n = 63
    uses the top int64 mask bits, two of them also carrying a grade-2 or
    grade-3 blade.
    The polynomial is scaled by an invertible non-unit lead, so the lift
    works on its monic form.
    """
    rng = random.Random(n)
    if n == 3:
        roots = [ZeonElement.scalar(n, complex(3.5 - k, 0.3 * (-1) ** k)).add(
            rand_element(rng, n, 3, "nilpotent")) for k in range(8)]
    else:
        roots = generator_roots(n, 4, list(range(n - 4, n)), n)
        roots[0] = roots[0].add(ZeonElement.blade(n, [n - 1, n], 0.7 - 0.2j))
        roots[1] = roots[1].add(ZeonElement.blade(n, [n - 4, n - 2, n], -0.4 + 0.5j))
    lead = ZeonElement(n, {0: 1.5 - 0.5j, 1 << (n - 1): 0.25})
    return ZeonPolynomial.from_roots(roots).scale(lead)


def split_n16():
    return ZeonPolynomial.from_json(load_fixture("poly_split_n16.json"))


def lift_outcomes(phi, tol):
    """Each simple shadow zero's lift through one shared lifter, or the exception it raised."""
    lifter = poly._Lifter(phi, tol)
    outcomes = []
    for root in complex_roots(phi, tol).roots:
        try:
            outcomes.append(lifter.lift(root.value))
        except ZeonError as exc:
            outcomes.append(exc)
    return outcomes


def residual_terms(residual):
    return dict(zip(residual.masks.tolist(), residual.values.tolist()))


def assert_same_outcomes(element, table):
    """Zero by zero: the same zeros within 1e-12 relative, or the same
    exception with the same message and unfinished lifts within 1e-12."""
    assert len(element) == len(table)
    for a, b in zip(element, table):
        assert type(a) is type(b)
        if isinstance(a, ZeonError):
            assert str(a) == str(b)
            a, b = getattr(a, "report", None), getattr(b, "report", None)
            if not isinstance(a, ZeonElement):
                continue
        assert a.max_diff(b) <= 1e-12 * a.norm_inf()


class TestTaylorTableLift:
    """The Taylor table and element Horner are two forms of one residual."""

    @pytest.mark.parametrize("tol", TOLS, ids=["default", "loose"])
    @pytest.mark.parametrize("n", [3, 9, 16, 40, 63, "fixture"])
    def test_forms_agree(self, monkeypatch, n, tol):
        phi = split_n16() if n == "fixture" else form_poly(n)
        n = phi.n
        table_form(monkeypatch, False)
        element = lift_outcomes(phi, tol)
        table_form(monkeypatch, True)
        table = lift_outcomes(phi, tol)
        assert_same_outcomes(element, table)
        scale = max(c.norm_inf() for c in phi.coeffs)
        for z in table:
            if isinstance(z, ZeonElement):
                assert phi.evaluate(z, tol).norm_inf() <= tol.compare * phi.degree * scale

        # the residual at the lifted zeros and at partial lifts of them. Either
        # form rounds at about eps sum_k |a_k| |lam0|^k, Horner's error scale,
        # which is the coefficient scale for |lam0| <= 1 and 3.5^8 times it
        # at the fixture's outermost zero; a failed lift is checked at the
        # unfinished lift it reports
        lifter = poly._Lifter(phi, tol)
        norms = [c.norm_inf() for c in lifter.monic.coeffs]
        for z in table:
            z = getattr(z, "report", z)
            base = z.scalar_part()
            rows = lifter.table.taylor_rows(base)
            bound = 1e-12 * poly._abs_horner(norms, max(1.0, abs(base)))
            for top in (1, 2, n):
                delta = ZeonElement._wrap(n, {m: c for m, c in z.terms.items()
                                              if 0 < m.bit_count() <= top})
                lam = ZeonElement.scalar(n, base).add(delta)
                got = lifter.table.residual(rows, delta, tol)
                want = lifter.monic.evaluate(lam, tol).dual_part()
                assert got.grades.tolist() == [m.bit_count() for m in got.masks.tolist()]
                assert want.max_diff(ZeonElement._wrap(n, residual_terms(got))) <= bound

    def test_pair_block_over_many_chunks(self, monkeypatch):
        phi = split_n16()
        lifter = poly._Lifter(phi, poly.DEFAULT)
        zeros = split(phi)
        delta = zeros[3].dual_part().add(ZeonElement.blade(16, [2, 4], 0.3))
        rows = lifter.table.taylor_rows(zeros[3].scalar_part())
        one_block = lifter.table.residual(rows, delta, poly.DEFAULT)
        # |S| = 511 blades, so a block of 1000 pairs holds one column of the powers
        assert len(lifter.table.masks) == 511
        monkeypatch.setattr(poly, "_PAIR_BLOCK", 1000)
        chunked = lifter.table.residual(rows, delta, poly.DEFAULT)
        got, want = residual_terms(chunked), residual_terms(one_block)
        assert got.keys() == want.keys()
        assert max(abs(got[m] - want[m]) for m in got) <= 1e-12 * lifter.coeff_scale
        assert_same_outcomes(zeros, split(phi))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_blade_failures_agree(self, monkeypatch, seed):
        phi = random_blade_poly(seed)
        for tol in TOLS:
            table_form(monkeypatch, False)
            element = lift_outcomes(phi, tol)
            table_form(monkeypatch, True)
            assert_same_outcomes(element, lift_outcomes(phi, tol))
        reports = []
        for on in (False, True):
            table_form(monkeypatch, on)
            with pytest.raises(NonConvergenceError) as info:
                split(phi)
            reports.append((str(info.value), info.value.report))
        (element_message, element_lift), (table_message, table_lift) = reports
        assert element_message == table_message
        assert element_lift.max_diff(table_lift) <= 1e-12 * element_lift.norm_inf()

    @pytest.mark.parametrize("phi, index", [(random_blade_poly(3), 1), (form_poly(3), 6)],
                             ids=["random-blade-3", "form-3"])
    def test_stopped_table_lift_is_retried_by_horner(self, monkeypatch, phi, index):
        # rounding residue left on the table stops the lift early at this
        # zero, where Horner's prune after each product clears it
        lam0 = complex_roots(phi).roots[index].value
        table_form(monkeypatch, True)
        lifter = poly._Lifter(phi, poly.DEFAULT)
        rows = lifter.table.taylor_rows(lam0)
        with pytest.raises(NonConvergenceError):
            lifter._lift(lam0, ZeonElement.scalar(phi.n, lam0),
                         lambda lam: lifter.table.residual(rows, lam.dual_part(), poly.DEFAULT))
        lifted = lifter.lift(lam0)
        table_form(monkeypatch, False)
        assert lifted == lift_simple_zero(phi, lam0)

    def test_crossover_puts_benchmark_sizes_on_the_table(self):
        # 9 x 511 cells for generator-class roots, 9 x 91 for random blades;
        # the worked quartic (5 x 4) stays on element Horner
        assert poly._Lifter(split_n16(), poly.DEFAULT).table is not None
        assert poly._Lifter(random_blade_poly(0), poly.DEFAULT).table is not None
        assert poly._Lifter(quartic(), poly.DEFAULT).table is None

    def test_fixture_is_the_planted_product(self):
        phi = split_n16()
        assert (phi.n, phi.degree) == (16, 8)
        assert phi.allclose(ZeonPolynomial.from_roots(split_n16_roots()))


class TestLiftErrorOrder:
    def test_non_simple_shadow_refused_before_any_table(self, monkeypatch):
        table_form(monkeypatch, True)

        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(poly, "_TaylorTable", no_table)
        with pytest.raises(DoesNotSplitError):
            split(nonsplit())

    def test_nilpotent_lead_refused_after_root_finding(self):
        n = 2
        # shadow (u - 1)(u - 2), lead z1
        phi = ZeonPolynomial([Z(n, {0: 2}), Z(n, {0: -3}), Z(n, {0: 1}), Z(n, {1: 1})])
        message = "leading coefficient must be invertible to lift zeros"
        with pytest.raises(PolyDivisionError, match=message):
            split(phi)
        with pytest.raises(PolyDivisionError, match=message):
            lift_simple_zero(phi, 1.0)
        # a non-simple shadow is found first
        double = ZeonPolynomial([Z(n, {0: 1}), Z(n, {0: -2}), Z(n, {0: 1}), Z(n, {1: 1})])
        with pytest.raises(DoesNotSplitError):
            split(double)

    @pytest.mark.parametrize("on", [False, True], ids=["element", "table"])
    def test_lift_refusals_unchanged(self, monkeypatch, on):
        table_form(monkeypatch, on)
        with pytest.raises(ZeonError, match=r"^2 is not a zero of the complex shadow$"):
            lift_simple_zero(quartic(), 2.0)
        with pytest.raises(SpectralSimplicityError,
                           match=r"^shadow zero 1 is not simple; it does not lift uniquely$"):
            lift_simple_zero(nonsplit(), 1.0)


POLY_P = ZeonPolynomial([Z(2, {0: 1, 0b01: 2}), Z(2, {0: -3j}), Z(2, {0: 1})])
POLY_Q = ZeonPolynomial([Z(2, {0b10: 1}), Z(2, {0: 0.5, 0b11: 1})])
POLY_E = Z(2, {0: 2, 0b10: -1})


class TestOperatorProtocol:
    """Each operator of ZeonPolynomial is its named method with default tolerances."""

    @pytest.mark.parametrize("op, method", [
        (lambda p, q: p + q, lambda p, q: p.add(q)),
        (lambda p, q: p - q, lambda p, q: p.sub(q)),
        (lambda p, q: p * q, lambda p, q: p.mul(q)),
        (lambda p, q: p * 3, lambda p, q: p.scale(3)),
        (lambda p, q: 3 * p, lambda p, q: p.scale(3)),
        (lambda p, q: p * POLY_E, lambda p, q: p.scale(POLY_E)),
        (lambda p, q: POLY_E * p, lambda p, q: p.scale(POLY_E)),
        (lambda p, q: p == q, lambda p, q: p.allclose(q)),
        (lambda p, q: p == p.scale(1), lambda p, q: True),
        (lambda p, q: p == POLY_E, lambda p, q: False),
    ], ids=["add", "sub", "mul", "mul-number", "rmul-number", "mul-element",
            "rmul-element", "eq", "eq-self", "eq-other"])
    def test_operator_equals_method(self, op, method):
        assert exactly(op(POLY_P, POLY_Q), method(POLY_P, POLY_Q))

    @pytest.mark.parametrize("op", [
        lambda p: p + 1, lambda p: 1 + p, lambda p: p - POLY_E, lambda p: 1 - p,
        lambda p: p * "x", lambda p: p @ p,
    ], ids=["add", "radd", "sub", "rsub", "mul", "matmul"])
    def test_unsupported_operand_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(POLY_P)
