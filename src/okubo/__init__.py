"""Exact construction and analysis of the split Okubo algebra.

The package builds the eight-dimensional split Okubo algebra over exact
fields through three independent models, checks the symmetric-composition
identities, computes its derivation Lie algebra, and enumerates and
classifies its idempotents.  All arithmetic is exact; finite-field hot loops
run on integer-encoded elements through lookup tables (``_kernels``).
"""

from .fields import (
    GF,
    cube_root_of_unity,
    enumerate_scalars,
    field_from_spec,
    rationals,
    rationals_omega,
)
from .algebra import AlgebraElement, QuadraticForm, StructureConstantAlgebra
from .models import (
    build_char3_model,
    build_sl3_model,
    build_split_okubo,
    distinguished_idempotent,
    model_isomorphism_char_not3,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "rationals",
    "rationals_omega",
    "field_from_spec",
    "cube_root_of_unity",
    "enumerate_scalars",
    "StructureConstantAlgebra",
    "AlgebraElement",
    "QuadraticForm",
    "build_split_okubo",
    "build_sl3_model",
    "build_char3_model",
    "model_isomorphism_char_not3",
    "distinguished_idempotent",
    "__version__",
]
