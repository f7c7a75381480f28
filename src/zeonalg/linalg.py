"""Vectors and matrices over the zeon algebra.

Covers the inner-product geometry (seminorm, normalization,
Gram-Schmidt) and the matrix toolkit: determinants, inverses through
the nilpotent series, and Gaussian elimination with invertible-pivot
selection. Rank deficiency over the algebra is data, not an error:
elimination skips columns without an invertible pivot and reports how
many pivots it found.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import _DENSE_MAX_N, ZeonElement, _binomial_series, _convolve
from .errors import DimensionMismatch, ParseError, SingularityError
from .tolerances import DEFAULT, Tolerances

_EPS = 2.0 ** -52

# A product of two element grids on n <= _DENSE_MAX_N generators moves to
# coefficient stacks when it makes at least _STACK_MIN_PRODUCTS[n] element
# products (rows * inner * cols) and at least _STACK_MIN_PAIRS[n] stored-term
# pairs, the sum over l of (terms in column l of A) * (terms in row l of B);
# otherwise it loops over elements. The stacks cost a fixed numpy overhead
# plus a 3^n-pair gather whatever the entries hold; the loop costs what the
# stored pairs cost. Both tables come from a sweep over four product shapes
# with m = 2..8, n = 0..8 and 1 to 2^n blades per entry, timed from element
# grids to element grids, and let the stacks run only where they were at
# least 10% faster than the loop.
_STACK_MIN_PRODUCTS = (12, 12, 12, 12, 12, 12, 12, 27, 48)
_STACK_MIN_PAIRS = (18, 28, 28, 50, 112, 450, 2200, 9000, 56000)


def _use_stack(n: int, products: int, pairs) -> bool:
    """Dispatch rule of matrix products; pairs() counts the stored-term pairs."""
    return (n <= _DENSE_MAX_N and products >= _STACK_MIN_PRODUCTS[n]
            and pairs() >= _STACK_MIN_PAIRS[n])


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
    if abs(s.scalar_part()) <= tol.scalar_zero:
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
    (2^n, rows, cols) complex stack. Arithmetic runs on the stacks
    whenever an operand already holds one; a product of two element
    grids builds their stacks when _use_stack picks the stack kernel.
    Results of stack arithmetic build their entries only when read.
    Both forms are canonical: no kept coefficient is below the prune
    tolerance of the operation that made it.
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
        # Internal: adopt a stack made by arithmetic, pruned here with the
        # rule of ZeonElement.__init__ (NaN dropped, infinities kept), or
        # as it is when tol is None because it is already pruned.
        if tol is not None:
            stack[~(np.abs(stack) >= tol.prune)] = 0
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
        """Embed a complex matrix as scalar zeon entries."""
        arr = np.asarray(array, dtype=complex)
        return cls([[ZeonElement.scalar(n, arr[i, j], tol) for j in range(arr.shape[1])]
                    for i in range(arr.shape[0])])

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
                factor = _stack_of(((value,),), n)
                return ZeonMatrix._from_stack(
                    _convolve(n, self._stack, factor, np.multiply), n, tol)
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

        def pairs():
            a = [[len(e.terms) for e in row] for row in self.entries]
            b = [sum(len(e.terms) for e in row) for row in other.entries]
            return sum(sum(col) * terms for col, terms in zip(zip(*a), b))

        if self._on_stack(other) or _use_stack(n, self.rows * self.cols * other.cols, pairs):
            return ZeonMatrix._from_stack(
                _convolve(n, self._coeffs(), other._coeffs(), np.matmul), n, tol)
        b = other.entries
        out_rows = []
        for row_a in self.entries:
            row = []
            for j in range(other.cols):
                acc = ZeonElement.zero(n)
                for x, row_b in zip(row_a, b):
                    acc = acc.add(x.mul(row_b[j], tol), tol)
                row.append(acc)
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
        if self._on_stack():
            return self._stack[0].copy()
        return np.array([[e.scalar_part() for e in row] for row in self.entries],
                        dtype=complex)

    def dual(self) -> "ZeonMatrix":
        """Entrywise dual part; all entries nilpotent."""
        return self._map(lambda s: np.concatenate((np.zeros_like(s[:1]), s[1:])),
                         ZeonElement.dual_part)

    def conjugate(self) -> "ZeonMatrix":
        return self._map(np.conj, ZeonElement.conjugate)

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
        # Internal: the entrywise product with a matrix of the same shape, or
        # with a complex array of that shape, which scales each entry.
        n = self.n
        if isinstance(other, np.ndarray):
            if self._on_stack():
                return ZeonMatrix._from_stack(self._stack * other, n, tol)
            return ZeonMatrix._wrap(tuple(tuple(e.scale(c, tol) for e, c in zip(row, scales))
                                          for row, scales in zip(self.entries, other.tolist())), n)
        if self._on_stack(other):
            return ZeonMatrix._from_stack(
                _convolve(n, self._coeffs(), other._coeffs(), np.multiply), n, tol)
        return ZeonMatrix._wrap(tuple(tuple(a.mul(b, tol) for a, b in zip(ra, rb))
                                      for ra, rb in zip(self.entries, other.entries)), n)

    def _entrywise_inverse(self, tol: Tolerances) -> "ZeonMatrix":
        # Internal: every entry u = c (1 + x) inverted as c^-1 (1 + x)^-1, with
        # c its scalar part: the one binomial series, on the entrywise product.
        c = self.scalar_matrix()
        if np.min(np.abs(c)) <= tol.scalar_zero:
            raise SingularityError("an entry has scalar part within scalar-zero tolerance; "
                                   "not invertible")
        c_inv = 1 / c
        one = ZeonElement.one(self.n)
        ones = self._map(lambda s: np.concatenate((np.ones_like(s[:1]), np.zeros_like(s[1:]))),
                         lambda e: one)
        series = _binomial_series(self.dual()._entrywise(c_inv, tol), -1, ones,
                                  ZeonMatrix._entrywise, tol)
        return series._entrywise(c_inv, tol)

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

    def is_zero(self, tol: Tolerances = DEFAULT) -> bool:
        return self.norm_inf() <= tol.compare

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
        return self._map(np.negative, ZeonElement.__neg__)

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
            rows = int(data["rows"])
            cols = int(data["cols"])
            n = int(data["n"])
            raw = data["entries"]
        except (KeyError, TypeError, ValueError) as exc:
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
    """Matrices of equal row count and n side by side, on their stacks when all hold one."""
    n = blocks[0].n
    if all(b._stack is not None for b in blocks):
        return ZeonMatrix._from_stack(np.concatenate([b._stack for b in blocks], axis=2), n, None)
    return ZeonMatrix._wrap(tuple(sum(rows, ()) for rows in zip(*(b.entries for b in blocks))), n)


# ----------------------------------------------------------------------
# elimination

@dataclass(frozen=True)
class RowOp:
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


@dataclass(frozen=True)
class EliminationReport:
    """Outcome of Gaussian elimination.

    upper: the reduced matrix (echelon up to skipped columns).
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


def eliminate(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> EliminationReport:
    """Forward Gaussian elimination with invertible pivots.

    The pivot is the candidate row whose entry has the largest
    scalar-part magnitude. Columns offering no invertible entry are
    skipped (their nilpotent residue stays put), which is how rank
    deficiency over the algebra shows up in pivot_count.
    """
    n = matrix.n
    m, ncols = matrix.rows, matrix.cols
    rows = [list(r) for r in matrix.entries]
    ops: list[RowOp] = []
    det_factor = ZeonElement.one(n)
    pivots: list[tuple[int, int]] = []
    pr = 0
    for col in range(ncols):
        if pr == m:
            break
        best = None
        best_mag = tol.scalar_zero
        for r in range(pr, m):
            mag = abs(rows[r][col].scalar_part())
            if mag > best_mag:
                best, best_mag = r, mag
        if best is None:
            continue
        if best != pr:
            rows[pr], rows[best] = rows[best], rows[pr]
            ops.append(RowOp("swap", pr, best))
            det_factor = det_factor.scale(-1)
        pivot_inv = rows[pr][col].inverse(tol)
        for r in range(pr + 1, m):
            entry = rows[r][col]
            if not entry.terms:
                continue
            factor = -entry.mul(pivot_inv, tol)
            ops.append(RowOp("axpy", pr, r, factor))
            new_row = [rows[r][c].add(factor.mul(rows[pr][c], tol), tol)
                       for c in range(ncols)]
            new_row[col] = ZeonElement.zero(n)  # cleared exactly by construction
            rows[r] = new_row
        pivots.append((pr, col))
        pr += 1
    return EliminationReport(ZeonMatrix(rows), tuple(ops), det_factor,
                             len(pivots), tuple(pivots))


# ----------------------------------------------------------------------
# determinant and inverse

def _signed_permutations(m: int):
    perms = []
    for perm in itertools.permutations(range(m)):
        inversions = sum(1 for a in range(m) for b in range(a + 1, m)
                         if perm[a] > perm[b])
        perms.append((perm, -1 if inversions & 1 else 1))
    return perms


_PERM_CACHE: dict[int, list] = {}


def _det_permutation(matrix: ZeonMatrix, tol: Tolerances) -> ZeonElement:
    m = matrix.rows
    if m not in _PERM_CACHE:
        _PERM_CACHE[m] = _signed_permutations(m)
    acc = ZeonElement.zero(matrix.n)
    for perm, sign in _PERM_CACHE[m]:
        term = ZeonElement.one(matrix.n)
        for i in range(m):
            term = term.mul(matrix.entries[i][perm[i]], tol)
            if not term.terms:
                break
        if term.terms:
            acc = acc.add(term.scale(sign), tol)
    return acc


# Largest size on which determinant takes the permutation sum; elimination above.
_DET_PERMUTATION_MAX = 4


def _det_elimination(matrix: ZeonMatrix, tol: Tolerances) -> ZeonElement:
    """Determinant read off ``eliminate``.

    Rows without a pivot are zero in every pivot column, so with the
    pivot columns first the reduced matrix is [[P, X], [0, N]], P
    triangular with the pivots on its diagonal and N the leftover
    nilpotent block: det = det_factor * sign(column order) * prod(pivots)
    * det N, with det N by the permutation sum (N is empty at full pivot
    rank). det_factor is +-1, its own inverse: elimination only swaps
    rows and adds multiples of rows.
    """
    report = eliminate(matrix, tol)
    upper = report.upper.entries
    pivot_cols = [col for _, col in report.pivots]
    free_cols = [c for c in range(matrix.cols) if c not in pivot_cols]
    det = report.det_factor
    if sum(p > f for p in pivot_cols for f in free_cols) & 1:
        det = -det
    for row, col in report.pivots:
        det = det.mul(upper[row][col], tol)
    if free_cols:
        nilpotent_block = report.upper._block(range(report.pivot_count, matrix.rows), free_cols)
        det = det.mul(_det_permutation(nilpotent_block, tol), tol)
    return det


def determinant(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> ZeonElement:
    """Determinant over the algebra; both of its algorithms are exact."""
    matrix._require_square("determinant")
    if matrix.rows <= _DET_PERMUTATION_MAX:
        return _det_permutation(matrix, tol)
    return _det_elimination(matrix, tol)


def _shadow_rank(singular_values: np.ndarray, tol: Tolerances) -> int:
    """Numerical rank: the singular values above tol.scalar_zero * max(1, largest)."""
    return int(np.sum(singular_values > tol.scalar_zero * max(1.0, float(singular_values[0]))))


def mat_inverse(matrix: ZeonMatrix, tol: Tolerances = DEFAULT) -> ZeonMatrix:
    """Inverse through the binomial series of (I + D)^-1.

    Writing A = (I + D) C with C the scalar part and D = dual(A) C^{-1},
    the inverse is C^{-1} (I + D)^{-1}; the series ends because entries
    of D are nilpotent, so D^(n+1) = 0.
    """
    matrix._require_square("inverse")
    c = matrix.scalar_matrix()
    if _shadow_rank(np.linalg.svd(c, compute_uv=False), tol) < matrix.rows:
        raise SingularityError("scalar part of the matrix is singular within tolerance")
    c_inv = ZeonMatrix.from_scalar_matrix(np.linalg.inv(c), matrix.n, tol)
    nilpotent = matrix.dual().mul(c_inv, tol)
    series = _binomial_series(nilpotent, -1, ZeonMatrix.identity(matrix.rows, matrix.n),
                              ZeonMatrix.mul, tol)
    return c_inv.mul(series, tol)
