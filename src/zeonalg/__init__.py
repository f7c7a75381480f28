"""Computer algebra for the complex zeon algebra.

Sparse blade arithmetic, inner-product geometry and matrix algebra,
polynomial zero lifting, and the spectral theorem for self-adjoint
zeon matrices.
"""

import importlib.util
import sys
import types
from _thread import RLock

from .algebra import MAX_GENERATORS, ZeonElement, indices_from_mask, mask_from_indices
from .errors import (DimensionMismatch, DoesNotSplitError, NonConvergenceError,
                     NotSelfAdjointError, ParseError, PolyDivisionError,
                     SingularityError, SpectralSimplicityError, ZeonError)
from .linalg import (EliminationReport, RowOp, ZeonMatrix, ZeonVector,
                     apply_row_ops, determinant, eliminate, inner_product,
                     mat_inverse, normalize, orthonormalize, outer,
                     spectral_seminorm)
from .tolerances import DEFAULT, Tolerances

# `poly` and `spectral` are registered in sys.modules here but run their
# code on first use, so a command that needs neither (`zeon det`, say) does
# not compile them, and `zeon spectral` does not compile `poly`. The first
# attribute read on either module executes it once, under one package lock,
# and only then turns it into a plain module, so threads racing on that read
# wait on the lock and then read the one finished namespace. Their public
# names resolve through the module __getattr__ below.
_FIRST_USE_LOCK = RLock()


class _ExecOnFirstUse(types.ModuleType):
    def __getattr__(self, name):
        with _FIRST_USE_LOCK:
            if type(self) is _ExecOnFirstUse:
                self.__spec__.loader.exec_module(self)
                self.__class__ = types.ModuleType
        return getattr(self, name)


def _exec_on_first_use(name: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _ExecOnFirstUse
    sys.modules[spec.name] = module
    return module


poly = _exec_on_first_use("poly")
spectral = _exec_on_first_use("spectral")

_FIRST_USE_NAMES = dict.fromkeys(
    ("ComplexPolynomial", "PolyRoot", "RootReport", "ZeonPolynomial",
     "complex_roots", "induce_complex", "lift_simple_zero",
     "multiple_zero_family", "poly_divide", "split"), poly) | dict.fromkeys(
    ("Eigenpair", "SpectralDecomposition", "cayley_hamilton_residual",
     "char_poly", "eigen_independence_check", "eigenvalues", "eigenvector",
     "projection", "resolution_of_identity", "spectral_decompose"), spectral)


def __getattr__(name):
    module = _FIRST_USE_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _FIRST_USE_NAMES.keys())


__version__ = "0.1.0"

__all__ = [
    "MAX_GENERATORS", "ZeonElement", "indices_from_mask", "mask_from_indices",
    "DimensionMismatch", "DoesNotSplitError", "NonConvergenceError",
    "NotSelfAdjointError", "ParseError", "PolyDivisionError",
    "SingularityError", "SpectralSimplicityError", "ZeonError",
    "EliminationReport", "RowOp", "ZeonMatrix", "ZeonVector",
    "apply_row_ops", "determinant", "eliminate", "inner_product",
    "mat_inverse", "normalize", "orthonormalize", "outer", "spectral_seminorm",
    "ComplexPolynomial", "PolyRoot", "RootReport", "ZeonPolynomial",
    "complex_roots", "induce_complex", "lift_simple_zero",
    "multiple_zero_family", "poly_divide", "split",
    "Eigenpair", "SpectralDecomposition",
    "cayley_hamilton_residual", "char_poly", "eigen_independence_check",
    "eigenvalues", "eigenvector", "projection", "resolution_of_identity",
    "spectral_decompose",
    "DEFAULT", "Tolerances",
    "__version__",
]
