"""Sparse arithmetic in the complex zeon algebra.

The algebra on n generators z_1, ..., z_n is commutative and every
generator squares to zero, so the basis blades z_I are indexed by
subsets I of {1, ..., n} and multiply as z_I * z_J = z_{I union J} when
the index sets are disjoint, and as 0 otherwise. Elements are stored
sparsely as a map from subset bitmask to complex coefficient; bit i-1
of the mask is set exactly when generator i appears in the blade.
"""

from __future__ import annotations

import cmath
from collections.abc import Iterable, Mapping

from ._numpy import np
from .errors import DimensionMismatch, ParseError, SingularityError, ZeonError
from .tolerances import DEFAULT, Tolerances

# Masks are subset indicators, so one machine word caps the generator count.
MAX_GENERATORS = 63

# The product runs on coefficient arrays when n <= _DENSE_MAX_N and
# |a| * |b| >= _DENSE_MIN_PAIRS[n], and on the dict loop otherwise. The
# loop costs about 0.08 us per blade pair; the array kernel about 5 us of
# conversion plus 10 ns per subset pair, of which there are 3^n. The rule
# is the crossover measured on random operands for n = 3..8 and sizes
# from 2^n / 32 to 2^n blades. The cap keeps the 2^n arrays and the
# 3^n-pair index tables small (160 KB at n = 8).
_DENSE_MAX_N = 8
_DENSE_MIN_PAIRS = tuple(64 + 3 ** n // 8 for n in range(_DENSE_MAX_N + 1))
_SUBSET_PAIRS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
# One operator index table per n, for the operand shape (r, k) it was last built for.
_OPERATOR_INDEX: dict[int, tuple[int, int, np.ndarray]] = {}


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Bitmask for a collection of distinct 1-based generator indices."""
    mask = 0
    for i in indices:
        i = int(i)
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """1-based generator indices present in a bitmask, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def blade_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Sort key putting blades in grade order, then lexicographic."""
    return (mask.bit_count(), indices_from_mask(mask))


def _json_int(value) -> int:
    # Internal: a size read from JSON, where only an integer is one; a bool, a
    # float, a string or any other value is a TypeError, which the readers report.
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _subset_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of subset convolution on n generators, built once per n.

    Every pair (k ^ j, j) with j a subset of k, and its k, grouped by k
    ascending; the group of k starts at starts[k] and holds 2^|k| pairs.
    """
    tables = _SUBSET_PAIRS.get(n)
    if tables is None:
        size = 1 << n
        masks = np.arange(size)
        k, j = np.nonzero((masks[:, None] & masks[None, :]) == masks[None, :])
        tables = (k ^ j, j, k, np.searchsorted(k, masks))
        _SUBSET_PAIRS[n] = tables
    return tables


def _convolve(n: int, x: np.ndarray, y: np.ndarray, op) -> np.ndarray:
    """Blade convolution of two coefficient arrays indexed by mask on axis 0.

    Sums op(x[k ^ j], y[j]) over the 3^n subset pairs j of k, grouped by
    k. With op = np.multiply on 2^n vectors this is the element product;
    with op = np.matmul on (2^n, r, k) and (2^n, k, c) stacks it is the
    matrix product, every blade pair multiplied as one batch. The operands
    are gathered with take, which costs less than fancy indexing on small
    stacks.
    """
    left, right, _, starts = _subset_pairs(n)
    return np.add.reduceat(op(x.take(left, 0), y.take(right, 0)), starts, axis=0)


def _operator_index(n: int, r: int, k: int) -> np.ndarray:
    """Where x[K ^ J] lands in the left-multiplication operator of an (r, k) stack.

    One row per subset pair J of K, in the order of _subset_pairs, holding
    the r * k flat positions of block (K, J); kept for the last (r, k)
    seen on each n.
    """
    cached = _OPERATOR_INDEX.get(n)
    if cached is not None and cached[:2] == (r, k):
        return cached[2]
    _, block_col, block_row, _ = _subset_pairs(n)
    width = k << n
    cells = (np.arange(0, r * width, width)[:, None] + np.arange(k)).ravel()
    index = (block_row * (r * width) + block_col * k)[:, None] + cells
    _OPERATOR_INDEX[n] = (r, k, index)
    return index


def _operator_matmul(n: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product of (2^n, r, k) and (2^n, k, c) stacks as one GEMM.

    Scatters x into its left-multiplication operator, the
    (2^n r) x (2^n k) block matrix whose block (K, J) is x[K ^ J] when J
    is a subset of K and 0 otherwise, and multiplies it by y viewed as
    (2^n k, c). The operator takes 4^n r k complex slots, so the operand
    with fewer cells is expanded: entries commute, hence x y = (y^T x^T)^T
    with every blade's matrix transposed.
    """
    size, r, k = x.shape
    c = y.shape[2]
    if r * k > k * c:
        return _operator_matmul(n, y.transpose(0, 2, 1), x.transpose(0, 2, 1)).transpose(0, 2, 1)
    left = _subset_pairs(n)[0]
    width = size * k
    operator = np.zeros(size * r * width, complex)
    operator[_operator_index(n, r, k)] = x[left].reshape(len(left), r * k)
    return (operator.reshape(size * r, width) @ y.reshape(width, c)).reshape(size, r, c)


def _kept(terms: Iterable[tuple[int, complex]], prune: float) -> dict[int, complex]:
    """The one prune rule of elements: keep the (mask, coefficient) pairs with
    |c| >= prune, so NaN is dropped and infinities are kept."""
    return {mask: c for mask, c in terms if abs(c) >= prune}


def _dense_product(n: int, a: Mapping[int, complex], b: Mapping[int, complex]) -> list[complex]:
    """Blade-convolution product on 2^n coefficient arrays, as the list of its 2^n coefficients.

    Sums a[k ^ j] * b[j] over the 3^n subset pairs j of k, instead of
    visiting |a| * |b| blade pairs of which most overlap.
    """
    size = 1 << n
    x = np.zeros(size, complex)
    x[np.fromiter(a, np.intp, len(a))] = np.fromiter(a.values(), complex, len(a))
    y = np.zeros(size, complex)
    y[np.fromiter(b, np.intp, len(b))] = np.fromiter(b.values(), complex, len(b))
    return _convolve(n, x, y, np.multiply).tolist()


def _mul_into(out: dict[int, complex], n: int, a: Mapping[int, complex],
              b: Mapping[int, complex]) -> None:
    """Adds the product of the term maps a and b into out, unpruned, by the array
    kernel or the loop over stored terms (the rule at _DENSE_MAX_N); a sum of
    products is then pruned once."""
    if n <= _DENSE_MAX_N and len(a) * len(b) >= _DENSE_MIN_PAIRS[n]:
        product = enumerate(_dense_product(n, a, b))
        if not out:
            # one C-level update instead of a Python loop over 2^n coefficients,
            # so mul costs what one prune pass did; the prune drops the zeros
            out.update(product)
            return
        get = out.get
        for k, c in product:
            if c:
                out[k] = get(k, 0j) + c
    else:
        _dict_mul(a, b, out)


def _dict_mul(a: Mapping[int, complex], b: Mapping[int, complex],
              out: dict[int, complex]) -> dict[int, complex]:
    """Blade-convolution product over stored terms, added into out; returns out.

    Disjoint masks merge, overlapping die.
    """
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            if i & j:
                continue
            k = i | j
            out[k] = get(k, 0j) + x * y
    return out


def _binomial_series(x, alpha: float, one, product, tol: Tolerances):
    """(1 + x)^alpha = sum_j binom(alpha, j) x^j for x with nilpotent entries.

    x^(n+1) = 0 on n generators, so the sum is finite. Powers are taken
    with product(power, x, tol); besides it only add, scale and norm_inf
    are used, so x can be a ZeonElement (the element product, one = 1) or a
    ZeonMatrix: the matrix product with one = the identity, or, on a
    stack, the entrywise product with one = 1 in every entry and tol None,
    which leaves every step unpruned for the caller to prune the sum once.
    """
    acc = one
    power = x
    coeff = 1.0
    for j in range(1, x.n + 1):
        if not power.norm_inf():
            break
        coeff *= (alpha - j + 1) / j
        acc = acc.add(power.scale(coeff, tol), tol)
        if j < x.n:
            power = product(power, x, tol)
    return acc


def _signed_sum(parts: list[tuple[bool, str]]) -> str:
    """Join (negative, body) terms as ``a - b + c``; a negative first term gets a bare minus."""
    neg, body = parts[0]
    out = ("-" if neg else "") + body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


class ZeonElement:
    """One element of the n-generator complex zeon algebra.

    Instances are immutable. Arithmetic returns new elements in
    canonical sparse form: no stored coefficient has magnitude below
    the prune tolerance used to build the result.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, complex] | None = None,
                 tol: Tolerances = DEFAULT):
        n = int(n)
        if not 0 <= n <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 0..{MAX_GENERATORS}, got {n}")
        checked: dict[int, complex] = {}
        if terms:
            limit = 1 << n
            for mask, coeff in terms.items():
                mask = int(mask)
                if not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask} outside algebra with n={n}")
                checked[mask] = complex(coeff)
        self.n = n
        self.terms = _kept(checked.items(), tol.prune)

    @classmethod
    def _wrap(cls, n: int, terms: dict[int, complex]) -> "ZeonElement":
        # Internal: adopt an already-canonical terms dict without re-pruning.
        obj = cls.__new__(cls)
        obj.n = n
        obj.terms = terms
        return obj

    @classmethod
    def _pruned(cls, n: int, terms: Mapping[int, complex], prune: float) -> "ZeonElement":
        # Internal: canonical form (_kept) of complex terms whose masks are
        # valid, without re-checking masks or coercing values that arithmetic made.
        obj = cls.__new__(cls)
        obj.n = n
        obj.terms = _kept(terms.items(), prune)
        return obj

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, n: int) -> "ZeonElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "ZeonElement":
        return cls._wrap(n, {0: 1 + 0j})

    @classmethod
    def scalar(cls, n: int, value: complex, tol: Tolerances = DEFAULT) -> "ZeonElement":
        return cls(n, {0: value}, tol)

    @classmethod
    def generator(cls, n: int, i: int) -> "ZeonElement":
        """The single generator z_i."""
        if not 1 <= i <= n:
            raise ValueError(f"generator index {i} outside 1..{n}")
        return cls._wrap(int(n), {1 << (i - 1): 1 + 0j})

    @classmethod
    def blade(cls, n: int, indices: Iterable[int], coeff: complex = 1.0,
              tol: Tolerances = DEFAULT) -> "ZeonElement":
        """coeff * z_I for the given index set."""
        return cls(n, {mask_from_indices(indices, n): coeff}, tol)

    @classmethod
    def top_blade(cls, n: int, coeff: complex = 1.0, tol: Tolerances = DEFAULT) -> "ZeonElement":
        """coeff * z_{1..n}, the highest-grade blade."""
        if n == 0:
            return cls.scalar(0, coeff, tol)
        return cls(n, {(1 << n) - 1: coeff}, tol)

    # ------------------------------------------------------------------
    # ring operations

    def _require_same_n(self, other: "ZeonElement") -> None:
        if self.n != other.n:
            raise DimensionMismatch(
                f"operands live in different algebras: n={self.n} vs n={other.n}")

    def add(self, other: "ZeonElement", tol: Tolerances = DEFAULT) -> "ZeonElement":
        self._require_same_n(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            out[mask] = out.get(mask, 0j) + c
        return ZeonElement._pruned(self.n, out, tol.prune)

    def sub(self, other: "ZeonElement", tol: Tolerances = DEFAULT) -> "ZeonElement":
        self._require_same_n(other)
        out = dict(self.terms)
        for mask, c in other.terms.items():
            out[mask] = out.get(mask, 0j) - c
        return ZeonElement._pruned(self.n, out, tol.prune)

    def scale(self, value: complex, tol: Tolerances = DEFAULT) -> "ZeonElement":
        c = complex(value)
        scaled = zip(self.terms, [v * c for v in self.terms.values()])
        return ZeonElement._wrap(self.n, _kept(scaled, tol.prune))

    def mul(self, other: "ZeonElement", tol: Tolerances = DEFAULT) -> "ZeonElement":
        """Blade-convolution product; disjoint masks merge, overlapping die.

        One accumulator filled by _mul_into and pruned once, as the grid
        matrix product forms each entry.
        """
        self._require_same_n(other)
        out: dict[int, complex] = {}
        _mul_into(out, self.n, self.terms, other.terms)
        return ZeonElement._pruned(self.n, out, tol.prune)

    def pow(self, k: int, tol: Tolerances = DEFAULT) -> "ZeonElement":
        """Non-negative integer power by repeated squaring."""
        k = int(k)
        if k < 0:
            raise ValueError("use inverse() for negative powers")
        result = ZeonElement.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result.mul(base, tol)
            k >>= 1
            if k:
                base = base.mul(base, tol)
        return result

    # ------------------------------------------------------------------
    # structural maps

    def scalar_part(self) -> complex:
        """Coefficient of the empty blade."""
        return self.terms.get(0, 0j)

    def dual_part(self) -> "ZeonElement":
        """The nilpotent remainder once the scalar part is removed."""
        return ZeonElement._wrap(self.n, {m: c for m, c in self.terms.items() if m})

    def grade_part(self, k: int) -> "ZeonElement":
        """Terms whose blade has exactly k generators."""
        if k < 0:
            raise ValueError("grade must be non-negative")
        return ZeonElement._wrap(
            self.n, {m: c for m, c in self.terms.items() if m.bit_count() == k})

    def grades(self) -> tuple[int, ...]:
        """Sorted grades carrying at least one stored term."""
        return tuple(sorted({m.bit_count() for m in self.terms}))

    def conjugate(self) -> "ZeonElement":
        """Complex-conjugate every coefficient."""
        return ZeonElement._wrap(self.n, {m: c.conjugate() for m, c in self.terms.items()})

    def min_grade(self) -> int:
        """Minimal grade of the dual part; 0 for scalars, n + 1 for zero.

        The sentinel n + 1 keeps "grade exceeded" loops uniform, since no
        blade of the zero element can ever appear at a valid grade.
        """
        if not self.terms:
            return self.n + 1
        nonzero = [m for m in self.terms if m]
        if not nonzero:
            return 0
        return min(m.bit_count() for m in nonzero)

    # ------------------------------------------------------------------
    # predicates and magnitudes

    def norm_inf(self) -> float:
        """Largest coefficient magnitude (0.0 for the zero element)."""
        return max(map(abs, self.terms.values()), default=0.0)

    def is_zero(self, tol: Tolerances = DEFAULT) -> bool:
        return self.norm_inf() <= tol.compare

    def is_invertible(self, tol: Tolerances = DEFAULT) -> bool:
        return abs(self.scalar_part()) > tol.scalar_zero

    def max_diff(self, other: "ZeonElement") -> float:
        """Largest coefficient difference against another element."""
        keys = self.terms.keys() | other.terms.keys()
        return max((abs(self.terms.get(m, 0j) - other.terms.get(m, 0j)) for m in keys),
                   default=0.0)

    def allclose(self, other: "ZeonElement", tol: Tolerances = DEFAULT) -> bool:
        if not isinstance(other, ZeonElement) or self.n != other.n:
            return False
        return self.max_diff(other) <= tol.compare

    # ------------------------------------------------------------------
    # inversion, roots, nilpotency

    def _power(self, alpha: float, tol: Tolerances = DEFAULT) -> "ZeonElement":
        """Principal power u^alpha = c^alpha (1 + x)^alpha, c the scalar part, x = dual / c.

        Integer alpha takes c ** alpha, any other the principal branch
        exp(alpha log c).
        """
        c = self.scalar_part()
        if not self.is_invertible(tol):
            raise SingularityError(
                f"scalar part {c:.3g} is within scalar-zero tolerance; not invertible")
        x = self.dual_part().scale(1 / c, tol)
        series = _binomial_series(x, alpha, ZeonElement.one(self.n), ZeonElement.mul, tol)
        power = c ** alpha if isinstance(alpha, int) else cmath.exp(alpha * cmath.log(c))
        return series.scale(power, tol)

    def inverse(self, tol: Tolerances = DEFAULT) -> "ZeonElement":
        """Multiplicative inverse, the binomial series of u^-1."""
        return self._power(-1, tol)

    def kth_root(self, k: int, tol: Tolerances = DEFAULT) -> "ZeonElement":
        """Principal kth root of an invertible element, the binomial series of u^(1/k)."""
        k = int(k)
        if k < 1:
            raise ZeonError("root order must be a positive integer")
        if not self.is_invertible(tol):
            raise SingularityError("kth root requires an invertible element")
        if k == 1:
            return self
        return self._power(1 / k, tol)

    def nilpotency_index(self, tol: Tolerances = DEFAULT) -> int:
        """Least kappa with u^kappa = 0; defined only for nilpotent u."""
        if self.is_invertible(tol):
            raise ZeonError("nilpotency index is defined only for nilpotent elements")
        kappa = 1
        power = self
        while not power.is_zero(tol):
            power = power.mul(self, tol)
            kappa += 1
            if kappa > self.n + 1:
                raise ZeonError("nilpotency index exceeded n + 1; element is not nilpotent")
        return kappa

    # ------------------------------------------------------------------
    # operators

    def _coerce(self, value) -> "ZeonElement | None":
        if isinstance(value, ZeonElement):
            return value
        if isinstance(value, (int, float, complex)):
            return ZeonElement.scalar(self.n, value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.add(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self.sub(other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other.sub(self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if isinstance(other, ZeonElement):
            return self.mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(1 / other)
        if isinstance(other, ZeonElement):
            return self.mul(other.inverse())
        return NotImplemented

    def __neg__(self):
        return ZeonElement._wrap(self.n, {m: -c for m, c in self.terms.items()})

    def __pos__(self):
        return self

    def __pow__(self, k):
        return self.pow(k)

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = ZeonElement.scalar(self.n, other)
        if not isinstance(other, ZeonElement):
            return NotImplemented
        return self.allclose(other)

    def __bool__(self):
        return bool(self.terms)

    # ------------------------------------------------------------------
    # formatting and serialization

    def pretty(self, sig: int = 12) -> str:
        """Human-readable form such as ``5 - 4*z[1,2,3]``."""
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=blade_key):
            c = self.terms[mask]
            blade = ""
            if mask:
                blade = "z[" + ",".join(str(i) for i in indices_from_mask(mask)) + "]"
            re, im = c.real, c.imag
            if abs(im) <= 5e-13 * max(1.0, abs(re)):
                neg = re < 0
                mag = f"{abs(re):.{sig}g}"
                if blade:
                    body = blade if mag == "1" else f"{mag}*{blade}"
                else:
                    body = mag
            else:
                neg = False
                if abs(re) <= 5e-13 * abs(im):
                    num = f"{im:.{sig}g}j"
                else:
                    num = f"{re:.{sig}g}{im:+.{sig}g}j"
                body = f"({num})*{blade}" if blade else f"({num})"
            parts.append((neg, body))
        return _signed_sum(parts)

    def to_json(self) -> dict:
        """JSON-ready dict: {"n": ..., "terms": [{"I": [...], "re": ..., "im": ...}]}."""
        terms = []
        for mask in sorted(self.terms, key=blade_key):
            c = self.terms[mask] + 0j  # a -0.0 part as 0.0, whichever kernel or order made it
            terms.append({"I": list(indices_from_mask(mask)), "re": c.real, "im": c.imag})
        return {"n": self.n, "terms": terms}

    @classmethod
    def from_json(cls, data, tol: Tolerances = DEFAULT) -> "ZeonElement":
        if not isinstance(data, Mapping):
            raise ParseError("element must be a JSON object")
        try:
            n = _json_int(data["n"])
            raw_terms = data["terms"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"element needs integer 'n' and a 'terms' list: {exc}") from exc
        if not 0 <= n <= MAX_GENERATORS:
            raise ParseError(f"'n' must be in 0..{MAX_GENERATORS}, got {n}")
        if not isinstance(raw_terms, (list, tuple)):
            raise ParseError("'terms' must be a list")
        terms: dict[int, complex] = {}
        for entry in raw_terms:
            if not isinstance(entry, Mapping):
                raise ParseError("each term must be an object with 'I', 're', 'im'")
            try:
                indices = list(entry["I"])
                re, im = entry["re"], entry["im"]
                if type(re) not in (int, float) or type(im) not in (int, float):
                    raise TypeError(f"'re' and 'im' must be numbers, got {re!r} and {im!r}")
                value = complex(re, im)  # OverflowError past the float range
            except (KeyError, TypeError, OverflowError) as exc:
                raise ParseError(f"bad term {entry!r}: {exc}") from exc
            if any(not isinstance(i, int) or isinstance(i, bool) for i in indices):
                raise ParseError(f"blade indices must be integers, got {indices!r}")
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ParseError(f"blade indices must be strictly increasing, got {indices!r}")
            try:
                mask = mask_from_indices(indices, n)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
            if mask in terms:
                raise ParseError(f"duplicate blade {indices!r}")
            if not cmath.isfinite(value):
                raise ParseError(f"coefficient of blade {indices!r} is not finite: {value}")
            terms[mask] = value
        return cls(n, terms, tol)

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"<ZeonElement n={self.n}: {self.pretty(6)}>"
