"""Exact constructions and verification of twisted Yang-Baxter braidings."""

from hombrax.scalars import (
    Scalar,
    parse_scalar,
    reduce_mod_p,
)
from hombrax.tensor import (
    BasedSpace,
    LinearMap,
    TensorOp,
    compose,
    identity_op,
    invert,
    lift,
    power,
    swap_op,
    tensor_product,
)
from hombrax.hybe import (
    braid_relation_residuals,
    build_Bi,
    compatibility_residual,
    hybe_residual,
    twist,
    ybe_residual,
)

__version__ = "0.1.0"
