"""Computer algebra for the complex zeon algebra.

Sparse blade arithmetic, inner-product geometry and matrix algebra,
polynomial zero lifting, and the spectral theorem for self-adjoint
zeon matrices.
"""

from .algebra import MAX_GENERATORS, ZeonElement, indices_from_mask, mask_from_indices
from .errors import (DimensionMismatch, DoesNotSplitError, NonConvergenceError,
                     NotSelfAdjointError, ParseError, PolyDivisionError,
                     SingularityError, SpectralSimplicityError, ZeonError)
from .linalg import (EliminationReport, RowOp, ZeonMatrix, ZeonVector,
                     apply_row_ops, determinant, eliminate, inner_product,
                     mat_inverse, normalize, orthonormalize, outer,
                     spectral_seminorm)
from .poly import (ComplexPolynomial, PolyRoot, RootReport, ZeonPolynomial,
                   complex_roots, induce_complex, lift_simple_zero,
                   multiple_zero_family, poly_divide, split)
from .spectral import (Eigenpair, SpectralDecomposition, cayley_hamilton_residual,
                       char_poly, eigen_independence_check, eigenvalues, eigenvector,
                       projection, resolution_of_identity, spectral_decompose)
from .tolerances import DEFAULT, Tolerances

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
