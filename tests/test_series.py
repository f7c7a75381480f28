"""The binomial series behind inverse, kth_root, normalize, mat_inverse and entrywise powers.

Each of them is a principal power (1 + x)^alpha of a nilpotent x, summed
until x^j vanishes. These properties run past the small sizes of the
acceptance sweep: n = 0..10 for elements and vectors, with dense
operands (every blade) and sparse ones (three blades per entry).
"""

import cmath
import random

import pytest

from zeonalg import (
    DEFAULT,
    SingularityError,
    ZeonElement,
    ZeonMatrix,
    ZeonVector,
    inner_product,
    mat_inverse,
    normalize,
)

from oracles import geometric_inverse, recursive_kth_root

SIZES = [(n, dense) for n in range(11) for dense in (False, True)]
IDS = [f"n{n}-{'dense' if dense else 'sparse'}" for n, dense in SIZES]


def rand_nilpotent(rng, n, dense):
    """Dual part with every blade (dense) or three random blades (sparse)."""
    masks = range(1, 1 << n) if dense else rng.sample(range(1, 1 << n), min(3, (1 << n) - 1))
    return {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in masks}


def rand_unit(rng, n, dense):
    """Invertible element with a scalar part of magnitude 2..3 in any direction."""
    terms = rand_nilpotent(rng, n, dense)
    terms[0] = cmath.rect(rng.uniform(2, 3), rng.uniform(-cmath.pi, cmath.pi))
    return ZeonElement(n, terms)


def assert_close(got, want, rel=1e-12):
    """Coefficientwise agreement relative to the larger of the two norms (and 1)."""
    scale = max(1.0, got.norm_inf(), want.norm_inf())
    assert got.max_diff(want) <= rel * scale, (got.max_diff(want), scale)


@pytest.mark.parametrize("n,dense", SIZES, ids=IDS)
def test_inverse_is_two_sided(n, dense):
    rng = random.Random(800 + 2 * n + dense)
    u = rand_unit(rng, n, dense)
    inv = u.inverse()
    one = ZeonElement.one(n)
    assert_close(u.mul(inv), one)
    assert_close(inv.mul(u), one)
    assert inv.scalar_part() == 1 / u.scalar_part()
    assert_close(inv, geometric_inverse(u))


@pytest.mark.parametrize("n,dense", SIZES, ids=IDS)
def test_kth_root_powers_back(n, dense):
    rng = random.Random(830 + 2 * n + dense)
    u = rand_unit(rng, n, dense)
    c = u.scalar_part()
    for k in (2, 3, 5):
        r = u.kth_root(k)
        assert_close(r.pow(k), u)
        want = cmath.exp(cmath.log(c) / k)
        assert abs(r.scalar_part() - want) <= 1e-12 * abs(want)
        assert_close(r, recursive_kth_root(u, k))


@pytest.mark.parametrize("n,dense", SIZES, ids=IDS)
def test_normalize_gives_unit_pairing(n, dense):
    rng = random.Random(860 + 2 * n + dense)
    v = ZeonVector([rand_unit(rng, n, dense).scale(rng.uniform(0.2, 1)) for _ in range(3)])
    w = normalize(v)
    assert_close(inner_product(w, w), ZeonElement.one(n))


def rand_invertible_matrix(rng, m, n, count):
    """m x m matrix, scalar part 3I plus noise, `count` dual blades per entry."""
    return ZeonMatrix([[ZeonElement(n, {**{mask: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                           for mask in rng.sample(range(1, 1 << n), count)},
                                        0: (3 if i == j else 0) + rng.uniform(-0.5, 0.5)})
                        for j in range(m)] for i in range(m)])


def assert_identity(matrix):
    ident = ZeonMatrix.identity(matrix.rows, matrix.n)
    assert matrix.sub(ident).norm_inf() <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_matrix_inverse_on_stacks(n):
    rng = random.Random(890 + n)
    for count in sorted({1, min(3, (1 << n) - 1), (1 << n) - 1}):
        grid = rand_invertible_matrix(rng, 3, n, count)
        a = ZeonMatrix._from_stack(ZeonMatrix(grid.entries)._coeffs().copy(), n, DEFAULT)
        inv = mat_inverse(a)
        assert inv._entries is None, "a stack-only matrix should invert on its stack"
        assert_identity(a.mul(inv))
        assert_identity(inv.mul(a))


def test_matrix_inverse_on_grids_at_n9():
    rng = random.Random(899)
    a = rand_invertible_matrix(rng, 3, 9, 3)
    inv = mat_inverse(a)
    assert inv._stack is None, "matrices on more than 8 generators stay grids"
    assert_identity(a.mul(inv))
    assert_identity(inv.mul(a))


ENTRYWISE = [(size, i) for size, i in zip(SIZES, IDS) if size[0] <= 8 or size == (9, False)]


def entrywise_forms(rng, n, dense):
    """A 2 x 3 grid of units, and the same grid as a stack-only matrix for n <= 8."""
    grid = ZeonMatrix([[rand_unit(rng, n, dense) for _ in range(3)] for _ in range(2)])
    forms = [grid]
    if n <= 8:
        forms.append(ZeonMatrix._from_stack(ZeonMatrix(grid.entries)._coeffs().copy(), n, DEFAULT))
    return grid, forms


@pytest.mark.parametrize("n,dense", [size for size, _ in ENTRYWISE],
                         ids=[i for _, i in ENTRYWISE])
def test_entrywise_inverse_matches_element_inverses(n, dense):
    # inverted entry by entry on a stack (n <= 8) and on the grid; u * u^-1
    # entrywise must be all ones, each entry the element inverse
    grid, forms = entrywise_forms(random.Random(900 + 2 * n + dense), n, dense)
    one = ZeonElement.one(n)
    for a in forms:
        inv = a._entrywise_power(-1, DEFAULT)
        assert (inv._stack is not None) == (a._stack is not None)
        for row, inv_row, unit_row in zip(grid.entries, inv.entries,
                                          a._entrywise(inv, DEFAULT).entries):
            for u, got, unit in zip(row, inv_row, unit_row):
                assert_close(got, u.inverse())
                assert_close(unit, one)


@pytest.mark.parametrize("n,dense", [size for size, _ in ENTRYWISE],
                         ids=[i for _, i in ENTRYWISE])
def test_entrywise_inverse_square_root_matches_element_powers(n, dense):
    # the -1/2 power that normalizes eigenvectors, on the same cases
    grid, forms = entrywise_forms(random.Random(930 + 2 * n + dense), n, dense)
    for a in forms:
        got = a._entrywise_power(-0.5, DEFAULT)
        assert (got._stack is not None) == (a._stack is not None)
        for row, got_row in zip(grid.entries, got.entries):
            for u, g in zip(row, got_row):
                assert_close(g, u._power(-0.5))


@pytest.mark.parametrize("n", [0, 3, 5, 8, 9])
@pytest.mark.parametrize("alpha", [-1, -0.5])
def test_entrywise_power_forms_agree(n, alpha):
    # a grid takes ZeonElement._power entry by entry, a stack (n <= 8) sums the
    # series on its bare arrays: the two agree, and above n = 8 the grid is the
    # element power itself
    grid, forms = entrywise_forms(random.Random(960 + n), n, n <= 5)
    got = [a._entrywise_power(alpha, DEFAULT) for a in forms]
    assert got[0]._stack is None
    for row, got_row in zip(grid.entries, got[0].entries):
        for u, g in zip(row, got_row):
            assert g.terms == u._power(alpha).terms
    for stacked in got[1:]:
        assert stacked._stack is not None
        for row, stacked_row in zip(got[0].entries, stacked.entries):
            for g, s in zip(row, stacked_row):
                assert_close(s, g)


@pytest.mark.parametrize("n", [2, 9])
def test_entrywise_power_rejects_a_nilpotent_entry_in_both_forms(n):
    grid = ZeonMatrix([[ZeonElement.one(n), ZeonElement.generator(n, 1)]])
    forms = [grid]
    if n <= 8:
        forms.append(ZeonMatrix._from_stack(ZeonMatrix(grid.entries)._coeffs().copy(), n, DEFAULT))
    for a in forms:
        for alpha in (-1, -0.5):
            with pytest.raises(SingularityError):
                a._entrywise_power(alpha, DEFAULT)


def test_entrywise_inverse_rejects_a_nilpotent_entry():
    a = ZeonMatrix([[ZeonElement.one(2), ZeonElement(2, {0b01: 1.0})]])
    with pytest.raises(SingularityError):
        a._entrywise_power(-1, DEFAULT)
    with pytest.raises(SingularityError):
        a._entrywise_power(-0.5, DEFAULT)
