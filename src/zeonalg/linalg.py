"""Vectors and matrices over the zeon algebra.

Covers the inner-product geometry (seminorm, normalization,
Gram-Schmidt) and the matrix toolkit: determinants, inverses through
the nilpotent series, and Gaussian elimination with invertible-pivot
selection. Rank deficiency over the algebra is data, not an error:
elimination skips columns without an invertible pivot and reports how
many pivots it found.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from ._numpy import np
from .algebra import (
    _DENSE_MAX_N,
    ZeonElement,
    _binomial_series,
    _convolve,
    _json_int,
    _mul_into,
    _operator,
    _operator_matmul,
)
from .errors import DimensionMismatch, ParseError, SingularityError
from .tolerances import DEFAULT, Tolerances

_EPS = 2.0 ** -52

# Matrices on n <= _GRID_MAX_N generators keep element grids: from_scalar_matrix
# builds grids there and _use_stack never picks the stacks, so that small
# matrices never load numpy. No element product reaches the array kernel
# there either (4^n < _DENSE_MIN_PAIRS[n] in algebra.py). In-process the
# grids cost more than stacks at n = 3: spectral_decompose of a dense 3 x 3
# took 4.5 against 1.2 ms, while importing numpy added 95 ms to a cold
# `zeon spectral` on the same input, so a process breaks even at about 30
# such calls.
_GRID_MAX_N = 3


def _stack_sized(n: int) -> bool:
    """Size rule of the two matrix forms: stacks only on _GRID_MAX_N < n <= _DENSE_MAX_N."""
    return _GRID_MAX_N < n <= _DENSE_MAX_N


# A product of two element grids on which _stack_sized holds moves to
# coefficient stacks when it makes at least _STACK_MIN_PRODUCTS[n] element
# products (rows * inner * cols) and at least _STACK_MIN_PAIRS[n] stored-term
# pairs, the sum over l of (terms in column l of A) * (terms in row l of B);
# otherwise it loops over elements. The stacks cost a fixed numpy overhead
# plus a 3^n-pair gather whatever the entries hold; the loop costs what the
# stored pairs cost. Both tables come from a sweep over four product shapes
# with m = 2..8, n = 0..8 and 1 to 2^n blades per entry, timed from element
# grids to element grids, and let the stacks run only where they were at
# least 10% faster than the loop (n <= _GRID_MAX_N included, where the
# size rule keeps the grids anyway).
_STACK_MIN_PRODUCTS = (12, 12, 12, 12, 12, 12, 12, 27, 48)
_STACK_MIN_PAIRS = (18, 28, 28, 50, 112, 450, 2200, 9000, 56000)


def _use_stack(n: int, products: int, pairs) -> bool:
    """Dispatch rule of matrix products; pairs() counts the stored-term pairs."""
    return (_stack_sized(n) and products >= _STACK_MIN_PRODUCTS[n]
            and pairs() >= _STACK_MIN_PAIRS[n])


def _stored_pairs(left: Sequence[Sequence[ZeonElement]],
                  right: Sequence[Sequence[ZeonElement]]) -> int:
    """Stored-term pairs of the product of two element grids: the sum over l
    of (terms in column l of left) * (terms in row l of right)."""
    return sum(sum(len(e.terms) for e in col) * sum(len(e.terms) for e in row)
               for col, row in zip(zip(*left), right))


# A product of (2^n, rows, inner) and (2^n, inner, cols) stacks runs as one
# GEMM on the left-multiplication operator (_operator_matmul) when no side
# is 1 and the expanded operand, min(rows, cols) * inner cells, has at most
# _OPERATOR_MAX_CELLS[n] of them; otherwise it runs the 3^n-pair gather
# (_convolve with np.matmul). The operator holds 4^n slots per cell, most
# of them zero blocks, so it loses to the gather for wide operands at large
# n; with a side of 1 the gather's per-pair products are cheap, and the
# operator rarely won. The table comes from four sweeps of seven shapes
# (m x m by m x m, by m x 2m and by m x 1, m x 1 by 1 x m, 1 x m by m x m,
# m x 2 by 2 x m, 2 x m by m x 2; m = 1..8, n = 0..8), two pinned to one
# vCPU and two free to use OpenBLAS's second thread, both kernels timed in
# wall and CPU time: every shape it sends to the operator was at least 10%
# faster on both clocks in every sweep, but 2 x 8 by 8 x 2 at n = 3 (0.82
# to 1.06).
_OPERATOR_MAX_CELLS = (0, 0, 0, 64, 36, 16, 16, 12, 8)


def _use_operator(n: int, rows: int, inner: int, cols: int) -> bool:
    """Kernel rule of stack products: the operator GEMM, or the 3^n-pair gather."""
    return min(rows, inner, cols) >= 2 and min(rows, cols) * inner <= _OPERATOR_MAX_CELLS[n]


class ZeonVector:
    """Column vector with zeon entries: a view of one m x 1 ZeonMatrix.

    Validation, arithmetic and JSON are the matrix's, so a vector shares
    its coefficient stack and the product dispatch; arithmetic on a
    vector returns a vector.
    """

    __slots__ = ("matrix",)

    def __init__(self, entries: Iterable[ZeonElement]):
        self.matrix = ZeonMatrix([e] for e in entries)

    @classmethod
    def _of(cls, matrix: "ZeonMatrix") -> "ZeonVector":
        # Internal: view a one-column matrix as a vector.
        obj = cls.__new__(cls)
        obj.matrix = matrix
        return obj

    @classmethod
    def zero(cls, m: int, n: int) -> "ZeonVector":
        return cls._of(ZeonMatrix.zero(m, 1, n))

    @classmethod
    def unit(cls, m: int, n: int, j: int) -> "ZeonVector":
        entries = [ZeonElement.zero(n) for _ in range(m)]
        entries[j] = ZeonElement.one(n)
        return cls(entries)

    @property
    def entries(self) -> tuple[ZeonElement, ...]:
        return tuple(row[0] for row in self.matrix.entries)

    @property
    def n(self) -> int:
        return self.matrix.n

    def __len__(self) -> int:
        return self.matrix.rows

    def __getitem__(self, i: int | slice):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def add(self, other: "ZeonVector", tol: Tolerances = DEFAULT) -> "ZeonVector":
        return ZeonVector._of(self.matrix.add(other.matrix, tol))

    def sub(self, other: "ZeonVector", tol: Tolerances = DEFAULT) -> "ZeonVector":
        return ZeonVector._of(self.matrix.sub(other.matrix, tol))

    def scale(self, value, tol: Tolerances = DEFAULT) -> "ZeonVector":
        return ZeonVector._of(self.matrix.scale(value, tol))

    def conjugate(self) -> "ZeonVector":
        return ZeonVector._of(self.matrix.conjugate())

    def norm_inf(self) -> float:
        return self.matrix.norm_inf()

    def allclose(self, other: "ZeonVector", tol: Tolerances = DEFAULT) -> bool:
        return isinstance(other, ZeonVector) and self.matrix.allclose(other.matrix, tol)

    def __add__(self, other):
        return self.add(other) if isinstance(other, ZeonVector) else NotImplemented

    def __sub__(self, other):
        return self.sub(other) if isinstance(other, ZeonVector) else NotImplemented

    def __neg__(self):
        return ZeonVector._of(-self.matrix)

    def __eq__(self, other):
        if not isinstance(other, ZeonVector):
            return NotImplemented
        return self.allclose(other)

    def to_json(self) -> dict:
        """Vectors serialize as rows x 1 matrices."""
        return self.matrix.to_json()

    @classmethod
    def from_json(cls, data, tol: Tolerances = DEFAULT) -> "ZeonVector":
        mat = ZeonMatrix.from_json(data, tol)
        if mat.cols != 1:
            raise ParseError(f"vector must have cols=1, got {mat.cols}")
        return cls._of(mat)

    def pretty(self, sig: int = 12) -> str:
        return "[" + ", ".join(e.pretty(sig) for e in self.entries) + "]"

    def __repr__(self) -> str:
        return f"<ZeonVector {self.pretty(6)}>"


def inner_product(x: ZeonVector, y: ZeonVector, tol: Tolerances = DEFAULT) -> ZeonElement:
    """Zeon inner product <x, y> = y-adjoint times x = sum_k conj(y_k) x_k.

    Linear over the whole algebra in the first slot, conjugate-symmetric,
    and scalar-positive: the scalar part of <x, x> is sum_k |c(x_k)|^2.
    """
    if len(x) != len(y) or x.n != y.n:
        raise DimensionMismatch("inner product needs vectors of equal shape")
    return y.matrix.adjoint()._product(x.matrix, tol)[0, 0]


def spectral_seminorm(x: ZeonVector, tol: Tolerances = DEFAULT) -> float:
    """Square root of the scalar part of <x, x>; zero iff every entry is nilpotent."""
    s = inner_product(x, x, tol).scalar_part()
    return math.sqrt(max(s.real, 0.0))


def normalize(x: ZeonVector, tol: Tolerances = DEFAULT) -> ZeonVector:
    """Scale x by the principal square root of <x, x> inverse."""
    s = inner_product(x, x, tol)
    if not s.is_invertible(tol):
        raise SingularityError(
            "cannot normalize a null vector: <x, x> has zero scalar part")
    return x.scale(s._power(-0.5, tol), tol)


def orthonormalize(vectors: Sequence[ZeonVector], tol: Tolerances = DEFAULT) -> list[ZeonVector]:
    """Gram-Schmidt with the zeon inner product.

    Subtracting <w, u> u is exact for already-normalized u because the
    inner product is linear over the algebra in its first slot.
    """
    basis: list[ZeonVector] = []
    for v in vectors:
        w = v
        for u in basis:
            w = w.sub(u.scale(inner_product(w, u, tol), tol), tol)
        basis.append(normalize(w, tol))
    return basis


def outer(v: ZeonVector, w: ZeonVector, tol: Tolerances = DEFAULT) -> "ZeonMatrix":
    """Rank-one matrix v w-adjoint, entries v_i conj(w_j)."""
    if v.n != w.n:
        raise DimensionMismatch("outer product needs vectors over the same algebra")
    return v.matrix._product(w.matrix.adjoint(), tol)


def _stack_of(entries: Sequence[Sequence[ZeonElement]], n: int) -> np.ndarray:
    """(2^n, rows, cols) coefficient stack of a grid of elements."""
    rows, cols = len(entries), len(entries[0])
    cells = rows * cols
    masks: list[int] = []
    values: list[complex] = []
    counts: list[int] = []
    for row in entries:
        for e in row:
            masks.extend(e.terms)
            values.extend(e.terms.values())
            counts.append(len(e.terms))
    flat = np.zeros(cells << n, complex)
    flat[np.array(masks, np.intp) * cells + np.repeat(np.arange(cells), counts)] = values
    return flat.reshape(1 << n, rows, cols)


def _prune(stack: np.ndarray, tol: Tolerances) -> None:
    """Zero, in place, every coefficient below tol.prune, by the element
    rule (algebra._kept): NaN is dropped, infinities are kept."""
    stack[~(np.abs(stack) >= tol.prune)] = 0


def _entries_of(stack: np.ndarray, n: int) -> tuple[tuple[ZeonElement, ...], ...]:
    """Grid of elements holding the nonzero coefficients of a pruned stack."""
    size, rows, cols = stack.shape
    by_cell = stack.reshape(size, rows * cols).T
    cell, mask = np.nonzero(by_cell)
    values = by_cell[cell, mask].tolist()
    masks = mask.tolist()
    ends = np.cumsum(np.bincount(cell, minlength=rows * cols)).tolist()
    elems = []
    start = 0
    for end in ends:
        elems.append(ZeonElement._wrap(n, dict(zip(masks[start:end], values[start:end]))))
        start = end
    return tuple(tuple(elems[i * cols:(i + 1) * cols]) for i in range(rows))


class ZeonMatrix:
    """Dense matrix with zeon entries; square for most operations.

    For n <= _DENSE_MAX_N a matrix can also hold its coefficients as a
    (2^n, rows, cols) complex stack; only those past the size rule
    (_stack_sized) build one themselves. Arithmetic, and the joins of
    _hstack, run on the stacks whenever an operand already holds one; a
    product of two element grids builds their stacks when _use_stack picks
    the stack kernel. Results of stack arithmetic build their entries only
    when read. Both forms are canonical: no kept coefficient is below the
    prune tolerance of the operation that made it.
    """

    __slots__ = ("rows", "cols", "n", "_entries", "_stack")

    def __init__(self, entries: Iterable[Iterable[ZeonElement]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and one column")
        cols = len(rows[0])
        n = getattr(rows[0][0], "n", None)  # a non-element fails the type check below
        for row in rows:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows in matrix")
            for e in row:
                if not isinstance(e, ZeonElement):
                    raise TypeError("matrix entries must be ZeonElement")
                if e.n != n:
                    raise DimensionMismatch("matrix entries live in different algebras")
        self._entries = rows
        self._stack = None
        self.rows = len(rows)
        self.cols = cols
        self.n = n

    @classmethod
    def _wrap(cls, entries: tuple[tuple[ZeonElement, ...], ...], n: int) -> "ZeonMatrix":
        # Internal: adopt a checked grid of elements on n generators.
        obj = cls.__new__(cls)
        obj._entries = entries
        obj._stack = None
        obj.rows = len(entries)
        obj.cols = len(entries[0])
        obj.n = n
        return obj

    @classmethod
    def _from_stack(cls, stack: np.ndarray, n: int, tol: Tolerances | None) -> "ZeonMatrix":
        # Internal: adopt a stack made by arithmetic, pruned here, or as it
        # is when tol is None: it is already pruned, or it is a step of a sum
        # that its caller prunes once (add, scale and _entrywise pass tol on).
        if tol is not None:
            _prune(stack, tol)
        obj = cls.__new__(cls)
        obj._entries = None
        obj._stack = stack
        _, obj.rows, obj.cols = stack.shape
        obj.n = n
        return obj

    @property
    def entries(self) -> tuple[tuple[ZeonElement, ...], ...]:
        if self._entries is None:
            self._entries = _entries_of(self._stack, self.n)
        return self._entries

    def _coeffs(self) -> np.ndarray:
        if self._stack is None:
            self._stack = _stack_of(self._entries, self.n)
        return self._stack

    @classmethod
    def identity(cls, m: int, n: int) -> "ZeonMatrix":
        return cls.diagonal([ZeonElement.one(n)] * m)

    @classmethod
    def zero(cls, rows: int, cols: int, n: int) -> "ZeonMatrix":
        z = ZeonElement.zero(n)
        return cls([[z for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def diagonal(cls, values: Sequence[ZeonElement]) -> "ZeonMatrix":
        n = values[0].n
        zero = ZeonElement.zero(n)
        return cls([[values[i] if i == j else zero for j in range(len(values))]
                    for i in range(len(values))])

    @classmethod
    def from_scalar_matrix(cls, array, n: int, tol: Tolerances = DEFAULT) -> "ZeonMatrix":
        """Embed a complex matrix, nested rows or a 2-d array, as scalar zeon
        entries: the blade-0 layer of a stack where _stack_sized(n), a grid
        of elements otherwise."""
        if _stack_sized(n):
            arr = np.asarray(array, dtype=complex)
            stack = np.zeros((1 << n, *arr.shape), complex)
            stack[0] = arr
            return cls._from_stack(stack, n, tol)
        return cls([ZeonElement.scalar(n, c, tol) for c in row] for row in array)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _require_square(self, what: str) -> None:
        if not self.is_square:
            raise DimensionMismatch(f"{what} needs a square matrix, got {self.rows}x{self.cols}")

    def __getitem__(self, key) -> ZeonElement:
        i, j = key
        return self.entries[i][j]

    def row(self, i: int) -> ZeonVector:
        return ZeonVector(self.entries[i])

    def column(self, j: int) -> ZeonVector:
        return ZeonVector([self.entries[i][j] for i in range(self.rows)])

    def _on_stack(self, other: "ZeonMatrix | None" = None) -> bool:
        """True when an operand already holds a stack; arithmetic then stays on the stacks."""
        return self._stack is not None or (other is not None and other._stack is not None)

    def add(self, other: "ZeonMatrix", tol: Tolerances = DEFAULT) -> "ZeonMatrix":
        self._require_same_shape(other)
        if self._on_stack(other):
            return ZeonMatrix._from_stack(self._coeffs() + other._coeffs(), self.n, tol)
        return ZeonMatrix([[a.add(b, tol) for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def sub(self, other: "ZeonMatrix", tol: Tolerances = DEFAULT) -> "ZeonMatrix":
        self._require_same_shape(other)
        if self._on_stack(other):
            return ZeonMatrix._from_stack(self._coeffs() - other._coeffs(), self.n, tol)
        return ZeonMatrix([[a.sub(b, tol) for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def scale(self, value, tol: Tolerances = DEFAULT) -> "ZeonMatrix":
        """Entrywise product with a zeon element or a number."""
        n = self.n
        if isinstance(value, ZeonElement):
            if value.n != n:
                raise DimensionMismatch(
                    f"operands live in different algebras: n={n} vs n={value.n}")
            if self._on_stack():
                return self._entrywise(ZeonMatrix._wrap(((value,),), n), tol)
            return ZeonMatrix([[e.mul(value, tol) for e in row] for row in self.entries])
        if self._on_stack():
            return ZeonMatrix._from_stack(self._stack * complex(value), n, tol)
        return ZeonMatrix([[e.scale(value, tol) for e in row] for row in self.entries])

    def mul(self, other, tol: Tolerances = DEFAULT):
        """Matrix-matrix or matrix-vector product."""
        if isinstance(other, ZeonVector):
            if self.cols != len(other) or self.n != other.n:
                raise DimensionMismatch("matrix-vector shape mismatch")
            return ZeonVector._of(self._product(other.matrix, tol))
        if isinstance(other, ZeonMatrix):
            if self.cols != other.rows or self.n != other.n:
                raise DimensionMismatch("matrix-matrix shape mismatch")
            return self._product(other, tol)
        raise TypeError("can only multiply by ZeonMatrix or ZeonVector")

    def _product(self, other: "ZeonMatrix", tol: Tolerances) -> "ZeonMatrix":
        n = self.n
        if self._on_stack(other) or _use_stack(n, self.rows * self.cols * other.cols,
                                               lambda: _stored_pairs(self.entries, other.entries)):
            x, y = self._coeffs(), other._coeffs()
            if _use_operator(n, self.rows, self.cols, other.cols):
                return ZeonMatrix._from_stack(_operator_matmul(n, x, y), n, tol)
            return ZeonMatrix._from_stack(_convolve(n, x, y, np.matmul), n, tol)
        # one accumulator per entry, pruned once, as the stack kernels prune
        columns = [[e.terms for e in col] for col in zip(*other.entries)]
        prune = tol.prune
        out_rows = []
        for row_a in self.entries:
            left = [x.terms for x in row_a]
            row = []
            for col in columns:
                acc: dict[int, complex] = {}
                for x, y in zip(left, col):
                    _mul_into(acc, n, x, y)
                row.append(ZeonElement._pruned(n, acc, prune))
            out_rows.append(tuple(row))
        return ZeonMatrix._wrap(tuple(out_rows), n)

    def transpose(self) -> "ZeonMatrix":
        if self._on_stack():
            return ZeonMatrix._from_stack(self._stack.transpose(0, 2, 1), self.n, None)
        return ZeonMatrix._wrap(tuple(zip(*self.entries)), self.n)

    def adjoint(self) -> "ZeonMatrix":
        """Conjugate transpose."""
        return self.transpose().conjugate()

    def trace(self, tol: Tolerances = DEFAULT) -> ZeonElement:
        self._require_square("trace")
        if self._on_stack():
            diagonal = np.trace(self._stack, axis1=1, axis2=2).tolist()
            return ZeonElement._pruned(self.n, dict(enumerate(diagonal)), tol.prune)
        acc = ZeonElement.zero(self.n)
        for i in range(self.rows):
            acc = acc.add(self.entries[i][i], tol)
        return acc

    def scalar_matrix(self) -> np.ndarray:
        """Complex matrix of scalar parts."""
        return np.array(self._scalars(), dtype=complex)

    def _scalars(self) -> list[list[complex]]:
        # Internal: the scalar parts as nested lists, read without numpy on a grid.
        if self._on_stack():
            return self._stack[0].tolist()
        return [[e.scalar_part() for e in row] for row in self.entries]

    def dual(self) -> "ZeonMatrix":
        """Entrywise dual part; all entries nilpotent."""
        return self._map(lambda s: np.concatenate((np.zeros_like(s[:1]), s[1:])),
                         ZeonElement.dual_part)

    def conjugate(self) -> "ZeonMatrix":
        return self._map(lambda s: np.conj(s), ZeonElement.conjugate)

    def _block(self, rows: Sequence[int], cols: Sequence[int]) -> "ZeonMatrix":
        # Internal: the submatrix on the given rows and columns, in the form
        # the operand holds: a stack slice on a stack, shared entries on a grid.
        if self._on_stack():
            return ZeonMatrix._from_stack(self._stack[:, rows][:, :, cols], self.n, None)
        return ZeonMatrix._wrap(tuple(tuple(self._entries[i][j] for j in cols) for i in rows),
                                self.n)

    def _gather(self, rows: Sequence[int], cols: Sequence[int]) -> "ZeonMatrix":
        # Internal: the one-row matrix of entries (rows[k], cols[k]), in the
        # form the operand holds.
        if self._on_stack():
            return ZeonMatrix._from_stack(self._stack[:, None, rows, cols], self.n, None)
        entries = self.entries
        return ZeonMatrix._wrap((tuple(entries[i][j] for i, j in zip(rows, cols)),), self.n)

    def _entrywise(self, other, tol: Tolerances) -> "ZeonMatrix":
        # Internal: the entrywise product with a matrix of the same shape (on a
        # stack, also a 1 x 1 one, which broadcasts), or with nested rows of
        # complex numbers of that shape, which scale each entry.
        n = self.n
        if isinstance(other, list):
            if self._on_stack():
                return ZeonMatrix._from_stack(self._stack * np.array(other, complex), n, tol)
            return ZeonMatrix._wrap(tuple(tuple(e.scale(c, tol) for e, c in zip(row, scales))
                                          for row, scales in zip(self.entries, other)), n)
        if self._on_stack(other):
            return ZeonMatrix._from_stack(
                _convolve(n, self._coeffs(), other._coeffs(), np.multiply), n, tol)
        return ZeonMatrix._wrap(tuple(tuple(a.mul(b, tol) for a, b in zip(ra, rb))
                                      for ra, rb in zip(self.entries, other.entries)), n)

    def _entrywise_power(self, alpha: float, tol: Tolerances) -> "ZeonMatrix":
        # Internal: every entry u = c (1 + x) to c^alpha (1 + x)^alpha, c its scalar part,
        # by the one binomial series of ZeonElement._power: on a grid, that method per
        # entry; on a stack, the series on this matrix's entrywise product with tol None,
        # so that no step prunes and the sum is pruned once, here.
        n = self.n
        if not self._on_stack():
            return ZeonMatrix._wrap(tuple(tuple(e._power(alpha, tol) for e in row)
                                          for row in self.entries), n)
        c = self._stack[0]
        if np.min(np.abs(c)) <= tol.scalar_zero:
            raise SingularityError("an entry has scalar part within scalar-zero tolerance; "
                                   "not invertible")
        power = c ** alpha if isinstance(alpha, int) else np.exp(alpha * np.log(c))
        x = self._stack / c
        x[0] = 0
        one = np.zeros_like(x)
        one[0] = 1
        x, one = (ZeonMatrix._from_stack(s, n, None) for s in (x, one))
        series = _binomial_series(x, alpha, one, ZeonMatrix._entrywise, None)
        return ZeonMatrix._from_stack(series._stack * power, n, tol)

    def _map(self, on_stack, on_element) -> "ZeonMatrix":
        # Internal: an entrywise map that keeps every magnitude, so a pruned
        # stack stays pruned and a stack-only matrix stays on its stack.
        if self._on_stack():
            return ZeonMatrix._from_stack(on_stack(self._stack), self.n, None)
        return ZeonMatrix._wrap(tuple(tuple(map(on_element, row)) for row in self.entries),
                                self.n)

    def norm_inf(self) -> float:
        if self._on_stack():
            return float(np.abs(self._stack).max())
        return max(e.norm_inf() for row in self.entries for e in row)

    def is_self_adjoint(self, tol: Tolerances = DEFAULT) -> bool:
        if not self.is_square:
            return False
        return self.sub(self.adjoint(), tol).norm_inf() <= tol.compare

    def is_nilpotent(self, tol: Tolerances = DEFAULT) -> bool:
        """True when every complex eigenvalue of the scalar part is ~0.

        The threshold floors at a multiple of (machine eps)^(1/m) * scale
        because computed eigenvalues of an exactly nilpotent matrix carry
        perturbations of that order.
        """
        self._require_square("nilpotency test")
        c = self.scalar_matrix()
        eig = np.linalg.eigvals(c)
        scale = max(1.0, float(np.max(np.abs(c))) * self.rows)
        floor = 4.0 * (_EPS ** (1.0 / self.rows)) * scale
        return bool(np.all(np.abs(eig) <= max(tol.scalar_zero, floor)))

    def allclose(self, other: "ZeonMatrix", tol: Tolerances = DEFAULT) -> bool:
        if not isinstance(other, ZeonMatrix):
            return False
        if (self.rows, self.cols, self.n) != (other.rows, other.cols, other.n):
            return False
        return all(a.allclose(b, tol) for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def _require_same_shape(self, other: "ZeonMatrix") -> None:
        if (self.rows, self.cols, self.n) != (other.rows, other.cols, other.n):
            raise DimensionMismatch("matrix shapes differ")

    def __add__(self, other):
        return self.add(other) if isinstance(other, ZeonMatrix) else NotImplemented

    def __sub__(self, other):
        return self.sub(other) if isinstance(other, ZeonMatrix) else NotImplemented

    def __neg__(self):
        return self._map(lambda s: np.negative(s), ZeonElement.__neg__)

    def __matmul__(self, other):
        return self.mul(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, ZeonElement)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ZeonMatrix):
            return NotImplemented
        return self.allclose(other)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "n": self.n,
                "entries": [[e.to_json() for e in row] for row in self.entries]}

    @classmethod
    def from_json(cls, data, tol: Tolerances = DEFAULT) -> "ZeonMatrix":
        if not isinstance(data, Mapping):
            raise ParseError("matrix must be a JSON object")
        try:
            rows, cols, n = (_json_int(data[key]) for key in ("rows", "cols", "n"))
            raw = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"matrix needs 'rows', 'cols', 'n', 'entries': {exc}") from exc
        if rows < 1 or cols < 1:
            raise ParseError("matrix dimensions must be positive")
        if not isinstance(raw, (list, tuple)) or len(raw) != rows:
            raise ParseError(f"'entries' must be a list of {rows} rows")
        parsed = []
        for row in raw:
            if not isinstance(row, (list, tuple)) or len(row) != cols:
                raise ParseError(f"each row must be a list of {cols} elements")
            parsed_row = []
            for cell in row:
                elem = ZeonElement.from_json(cell, tol)
                if elem.n != n:
                    raise ParseError(
                        f"entry algebra n={elem.n} disagrees with matrix n={n}")
                parsed_row.append(elem)
            parsed.append(parsed_row)
        return cls(parsed)

    def pretty(self, sig: int = 12) -> str:
        return "\n".join("[" + ", ".join(e.pretty(sig) for e in row) + "]"
                         for row in self.entries)

    def __repr__(self) -> str:
        return f"<ZeonMatrix {self.rows}x{self.cols} n={self.n}>"


def _hstack(blocks: Sequence[ZeonMatrix]) -> ZeonMatrix:
    """Matrices of equal row count and n side by side; by the arithmetic rule,
    on their stacks when any block holds one."""
    n = blocks[0].n
    if any(b._on_stack() for b in blocks):
        return ZeonMatrix._from_stack(np.concatenate([b._coeffs() for b in blocks], 2), n, None)
    return ZeonMatrix._wrap(tuple(sum(rows, ()) for rows in zip(*(b.entries for b in blocks))), n)


# ----------------------------------------------------------------------
# elimination

class RowOp(NamedTuple):
    """One elementary row operation.

    swap: exchange rows i and j.
    axpy: add ``factor`` times row i into row j.
    """

    kind: str
    i: int
    j: int | None = None
    factor: ZeonElement | None = None

    def to_json(self) -> dict:
        if self.kind == "swap":
            return {"kind": "swap", "i": self.i, "j": self.j}
        if self.kind == "axpy":
            return {"kind": "axpy", "i": self.i, "j": self.j,
                    "factor": self.factor.to_json()}
        raise ValueError(f"unknown row op kind {self.kind!r}")


class EliminationReport(NamedTuple):
    """Outcome of Gaussian elimination.

    upper: the reduced matrix (echelon up to skipped columns), exactly 0
        below every pivot. After elimination on the coefficient stack it
        holds that stack and builds its entries when first read.
    ops: the row operations applied, in order.
    det_factor: unit u with det(upper) = u * det(input) for square input.
    pivot_count: number of invertible pivots found; less than full rank
        means some column had no invertible entry below the current row.
    pivots: (row, column) positions of the pivots.
    """

    upper: ZeonMatrix
    ops: tuple[RowOp, ...]
    det_factor: ZeonElement
    pivot_count: int
    pivots: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {"upper": self.upper.to_json(),
                "ops": [op.to_json() for op in self.ops],
                "det_factor": self.det_factor.to_json(),
                "pivot_count": self.pivot_count,
                "pivots": [list(p) for p in self.pivots]}


def apply_row_ops(matrix: ZeonMatrix, ops: Sequence[RowOp],
                  tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Replay a sequence of row operations on a matrix."""
    rows = [list(r) for r in matrix.entries]
    for op in ops:
        if op.kind == "swap":
            rows[op.i], rows[op.j] = rows[op.j], rows[op.i]
        elif op.kind == "axpy":
            rows[op.j] = [rows[op.j][c].add(op.factor.mul(rows[op.i][c], tol), tol)
                          for c in range(len(rows[op.j]))]
        else:
            raise ValueError(f"unknown row op kind {op.kind!r}")
    return ZeonMatrix(rows)


def _working_stack(matrix: ZeonMatrix) -> np.ndarray | None:
    """A private copy of the coefficient stack to eliminate on, or None for the element loop.

    Elimination runs on the stack when the matrix already holds one, or
    when _use_stack would put its first update, the (m - 1) x 1 column
    below the first row by that 1 x ncols row, on stacks. The copy leaves
    the caller's matrix, and any stack it holds, untouched.
    """
    if matrix._stack is not None:
        return matrix._stack.copy()
    entries = matrix.entries
    if _use_stack(matrix.n, (matrix.rows - 1) * matrix.cols,
                  lambda: _stored_pairs([row[:1] for row in entries[1:]], entries[:1])):
        return _stack_of(entries, matrix.n)
    return None


def _clear_below_on_elements(rows: list[list[ZeonElement]], pr: int, col: int,
                             tol: Tolerances) -> tuple[list[int], list[ZeonElement]]:
    # Internal: add factor * row pr to every row below it whose entry in col
    # holds terms, one element product per entry; returns those rows and factors.
    pivot_inv = rows[pr][col].inverse(tol)
    zero = ZeonElement.zero(pivot_inv.n)
    targets, factors = [], []
    for r in range(pr + 1, len(rows)):
        entry = rows[r][col]
        if not entry.terms:
            continue
        factor = -entry.mul(pivot_inv, tol)
        targets.append(r)
        factors.append(factor)
        rows[r] = [a.add(factor.mul(b, tol), tol) for a, b in zip(rows[r], rows[pr])]
        rows[r][col] = zero  # cleared exactly by construction
    return targets, factors


def _clear_below_on_stack(stack: np.ndarray, pr: int, col: int, n: int,
                          tol: Tolerances) -> tuple[list[int], np.ndarray]:
    # Internal: the same step on a (2^n, m, ncols) working stack, as one
    # rank-one update of the rows below. For the pivot c (1 + x), c its scalar
    # part, the factors -(column below) (1 + x)^-1 / c are the alpha = -1
    # binomial series summed by Horner on x's multiplication operator X
    # (algebra._operator): f <- b - X f, n times from b = -(column below) / c,
    # exact since x^(n+1) = 0. Then rows += factors (x) row pr, a broadcast
    # convolution. Returns the rows whose entry in col held terms and their
    # factors, a (2^n, len(rows)) array.
    pivot = stack[:, pr, col]
    c = pivot[0]
    x = pivot / c
    x[0] = 0
    operator = _operator(n, x[:, None, None])
    below = stack[:, pr + 1:]
    column = below[:, :, col]
    hit = np.flatnonzero(column.any(axis=0))
    b = column / -c
    factors = b
    for _ in range(n):
        factors = b - operator @ factors
    _prune(factors, tol)
    below += _convolve(n, factors[:, :, None], stack[:, pr:pr + 1], np.multiply)
    below[:, :, col] = 0  # cleared exactly by construction
    _prune(below, tol)
    return (pr + 1 + hit).tolist(), factors[:, hit]


def _eliminate(matrix: ZeonMatrix, tol: Tolerances):
    """The elimination pass of ``eliminate``: upper, det_factor, pivots and a log.

    The log holds a row swap as (row, row, None) and a pivot step as (pivot
    row, target rows, factors), the factors in the form elimination ran on:
    elements on a grid, a (2^n, targets) coefficient array on the stack.
    ``_det_elimination`` reads no factor, so it builds none as an element.
    """
    n = matrix.n
    m, ncols = matrix.rows, matrix.cols
    stack = _working_stack(matrix)
    rows = [list(r) for r in matrix.entries] if stack is None else None
    log: list[tuple] = []
    det_factor = ZeonElement.one(n)
    pivots: list[tuple[int, int]] = []
    pr = 0
    for col in range(ncols):
        if pr == m:
            break
        scalars = (stack[0, pr:, col].tolist() if rows is None
                   else [row[col].scalar_part() for row in rows[pr:]])
        best = None
        best_mag = tol.scalar_zero
        for r, mag in enumerate(map(abs, scalars), pr):
            if mag > best_mag:
                best, best_mag = r, mag
        if best is None:
            continue
        if best != pr:
            if rows is None:
                stack[:, [pr, best]] = stack[:, [best, pr]]
            else:
                rows[pr], rows[best] = rows[best], rows[pr]
            log.append((pr, best, None))
            det_factor = det_factor.scale(-1)
        if pr + 1 < m:  # the last pivot has no rows below it to clear
            log.append((pr, *(_clear_below_on_stack(stack, pr, col, n, tol) if rows is None
                              else _clear_below_on_elements(rows, pr, col, tol))))
        pivots.append((pr, col))
        pr += 1
    upper = ZeonMatrix._from_stack(stack, n, None) if rows is None else ZeonMatrix(rows)
    return upper, det_factor, tuple(pivots), log


def eliminate(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> EliminationReport:
    """Forward Gaussian elimination with invertible pivots.

    The pivot is the candidate row whose entry has the largest
    scalar-part magnitude. Columns offering no invertible entry are
    skipped (their nilpotent residue stays put), which is how rank
    deficiency over the algebra shows up in pivot_count.

    Each pivot step adds a multiple of the pivot row to every row below
    it whose entry in the pivot column holds terms, and records that as
    an axpy RowOp; a pivot in the last row has no rows below, so its
    step and pivot inverse are skipped. The steps run on a private copy
    of the (2^n, m, ncols) coefficient stack, one rank-one update per
    pivot, when the matrix holds a stack or _use_stack would put the
    first update on stacks (see _working_stack); otherwise on a grid of
    elements, one element product per entry. On the stack each pivot
    divides by Horner steps of the alpha = -1 binomial series on its
    multiplication operator (_clear_below_on_stack), and the factors of
    all steps become RowOp elements in one pass at the end. Both forms
    choose the same pivots, barring ties within rounding, and agree to
    rounding. On the stack, ``upper`` holds that stack and builds its
    entries when read. The input matrix is never changed.
    """
    upper, det_factor, pivots, log = _eliminate(matrix, tol)
    blocks = [factors for *_, factors in log if factors is not None]
    if upper._stack is not None and blocks:  # the stack's factors as elements, in one pass
        built = iter(_entries_of(np.concatenate(blocks, 1)[:, None], matrix.n)[0])
        log = [(pr, other, f if f is None else [next(built) for _ in other])
               for pr, other, f in log]
    ops: list[RowOp] = []
    for pr, other, factors in log:
        if factors is None:
            ops.append(RowOp("swap", pr, other))
        else:
            ops.extend(RowOp("axpy", pr, r, f) for r, f in zip(other, factors))
    return EliminationReport(upper, tuple(ops), det_factor, len(pivots), pivots)


# ----------------------------------------------------------------------
# determinant and inverse

@functools.cache
def _signed_permutations(m: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    perms = []
    for perm in itertools.permutations(range(m)):
        inversions = sum(1 for a in range(m) for b in range(a + 1, m)
                         if perm[a] > perm[b])
        perms.append((perm, -1 if inversions & 1 else 1))
    return tuple(perms)


def _det_permutation(matrix: ZeonMatrix, tol: Tolerances) -> ZeonElement:
    """Signed sum over permutations; _det_elimination takes it for the
    nilpotent block, which has no pivot, and tests take it as an oracle."""
    m = matrix.rows
    acc = ZeonElement.zero(matrix.n)
    for perm, sign in _signed_permutations(m):
        term = ZeonElement.one(matrix.n)
        for i in range(m):
            term = term.mul(matrix.entries[i][perm[i]], tol)
            if not term.terms:
                break
        if term.terms:
            # not scaled by the sign: that complex product turns an overflowed
            # inf + NaN j into NaN + NaN j, which the prune drops as if zero
            acc = acc.add(term, tol) if sign > 0 else acc.sub(term, tol)
    return acc


def _det_elimination(matrix: ZeonMatrix, tol: Tolerances) -> ZeonElement:
    """Determinant read off the elimination pass (``_eliminate``), which
    builds no RowOp and no factor element.

    Rows without a pivot are zero in every pivot column, so with the
    pivot columns first the reduced matrix is [[P, X], [0, N]], P
    triangular with the pivots on its diagonal and N the leftover
    nilpotent block: det = det_factor * sign(column order) * prod(pivots)
    * det N, with det N by the permutation sum (N is empty at full pivot
    rank). det_factor is +-1, its own inverse: elimination only swaps
    rows and adds multiples of rows.

    The pivots and N are read from ``upper`` in the form elimination left
    it, so after elimination on the stack only those entries are built.
    """
    upper, det, pivots, _ = _eliminate(matrix, tol)
    pivot_rows = [row for row, _ in pivots]
    pivot_cols = [col for _, col in pivots]
    free_cols = [c for c in range(matrix.cols) if c not in pivot_cols]
    if sum(p > f for p in pivot_cols for f in free_cols) & 1:
        det = -det
    for pivot in upper._gather(pivot_rows, pivot_cols).entries[0]:
        det = det.mul(pivot, tol)
    if free_cols:
        nilpotent_block = upper._block(range(len(pivots), matrix.rows), free_cols)
        det = det.mul(_det_permutation(nilpotent_block, tol), tol)
    return det


def determinant(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> ZeonElement:
    """Determinant over the algebra, read off elimination (_det_elimination) at every size."""
    matrix._require_square("determinant")
    return _det_elimination(matrix, tol)


def _shadow_rank(singular_values: np.ndarray, tol: Tolerances) -> int:
    """Numerical rank: the singular values above tol.scalar_zero * max(1, largest)."""
    return int(np.sum(singular_values > tol.scalar_zero * max(1.0, float(singular_values[0]))))


def _shadow_inverse(c: np.ndarray, tol: Tolerances) -> tuple[int, float, np.ndarray, np.ndarray]:
    """Rank, s, s K and V-adjoint from one SVD U Sigma V-adjoint of c: K = V Sigma^+ U-adjoint over
    the singular values _shadow_rank keeps, s >= max(1, largest of them) a power of two."""
    left, sigma, right = np.linalg.svd(c)
    rank, size = _shadow_rank(sigma, tol), 2.0 ** max(0, math.frexp(float(sigma[0]))[1])
    pinv = (right[:rank].conj().T * (size / sigma[:rank])) @ left[:, :rank].conj().T
    return rank, size, pinv, right


def mat_inverse(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Inverse through the binomial series of (I + D)^-1.

    Writing A = (I + D) C with C the scalar part and D = dual(A) C^{-1},
    the inverse is C^{-1} (I + D)^{-1}; the series ends because entries
    of D are nilpotent, so D^(n+1) = 0; C^{-1} is _shadow_inverse's plus one Newton
    step, for an LU inverse's accuracy on a badly row-scaled C. SingularityError when
    the prune would drop an entry of C^{-1} above tol.compare times the largest.
    """
    matrix._require_square("inverse")
    c = matrix.scalar_matrix()
    rank, size, scaled, _ = _shadow_inverse(c, tol)
    if rank < matrix.rows:
        raise SingularityError("scalar part of the matrix is singular within tolerance")
    c_inv = scaled @ (2 * np.eye(matrix.rows) - c @ scaled / size) / size  # X (2I - C X), X = K
    if np.any((abs(c_inv) > tol.compare * abs(c_inv).max()) & (abs(c_inv) < tol.prune)):
        raise SingularityError("the inverse's scalar part falls below the prune tolerance")
    c_inv = ZeonMatrix.from_scalar_matrix(c_inv, matrix.n, tol)
    nilpotent = matrix.dual().mul(c_inv, tol)
    series = _binomial_series(nilpotent, -1, ZeonMatrix.identity(matrix.rows, matrix.n),
                              ZeonMatrix.mul, tol)
    return c_inv.mul(series, tol)
