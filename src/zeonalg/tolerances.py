"""Numeric tolerance settings shared across the library."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Thresholds used by every tolerance-sensitive operation.

    prune: canonical sparse form drops coefficients with magnitude below this.
    compare: two values are considered equal when coefficients agree within this.
    scalar_zero: a scalar part with magnitude at or below this counts as zero,
        i.e. the element is treated as non-invertible.
    """

    prune: float = 1e-12
    compare: float = 1e-9
    scalar_zero: float = 1e-9

    def __post_init__(self) -> None:
        values = (self.prune, self.compare, self.scalar_zero)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("tolerances must be finite")
        if min(values) <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.prune > self.compare:
            raise ValueError("prune tolerance must not exceed compare tolerance")


DEFAULT = Tolerances()
