"""Numeric tolerance settings shared across the library."""

from __future__ import annotations

import math


class Tolerances:
    """Thresholds used by every tolerance-sensitive operation.

    prune: canonical sparse form drops coefficients with magnitude below this.
    compare: two values are considered equal when coefficients agree within this.
    scalar_zero: a scalar part with magnitude at or below this counts as zero,
        i.e. the element is treated as non-invertible.

    Frozen, equal by value and hashable. The fields are slots, since every
    hot path reads them.
    """

    __slots__ = ("prune", "compare", "scalar_zero")

    def __init__(self, prune: float = 1e-12, compare: float = 1e-9,
                 scalar_zero: float = 1e-9) -> None:
        values = (prune, compare, scalar_zero)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("tolerances must be finite")
        if min(values) <= 0:
            raise ValueError("tolerances must be strictly positive")
        if prune > compare:
            raise ValueError("prune tolerance must not exceed compare tolerance")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[float, float, float]:
        return self.prune, self.compare, self.scalar_zero

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "Tolerances(prune={!r}, compare={!r}, scalar_zero={!r})".format(*self._values())

    def __reduce__(self):
        return Tolerances, self._values()


DEFAULT = Tolerances()
