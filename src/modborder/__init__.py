"""Exact border bases of finite-codimension submodules of Q[x1..xn]^r."""

from .borderbasis import module_border_basis
from .characterize import (
    NeighborPair,
    border_form,
    buchberger_check,
    commuting_check,
    is_border_basis,
    lift_neighbor_syzygy,
    module_action,
    mult_matrices,
    neighbor_syzygy,
    neighbors,
    sv_vector,
)
from .division import (
    DivisionResult,
    Prebasis,
    divide,
    normal_form,
    normal_remainder,
    reconstruct_prebasis,
    remainder_vector,
    rewrite_step,
)
from .errors import BorderBasisError, ParseError, PreconditionError
from .groebner import (
    gb_normal_form,
    groebner_basis,
    leading_module,
    macaulay_complement,
    naive_border_basis,
    syzygies,
)
from .ordermodule import OrderIdeal, OrderModule, validate_order_module
from .quotient import (
    QuotPrebasis,
    QuotientContext,
    build_characterizing_prebasis,
    check_quotient_basis,
    quotient_border_basis,
)
from .ring import ORDER_NAMES, Poly, TermOrder, Vector
from .subideal import (
    FOrderIdeal,
    SubidealContext,
    check_subideal_basis,
    subideal_border_basis,
)

__version__ = "0.1.0"

__all__ = [
    "BorderBasisError",
    "DivisionResult",
    "FOrderIdeal",
    "NeighborPair",
    "ORDER_NAMES",
    "OrderIdeal",
    "OrderModule",
    "ParseError",
    "Poly",
    "Prebasis",
    "PreconditionError",
    "QuotPrebasis",
    "QuotientContext",
    "SubidealContext",
    "TermOrder",
    "Vector",
    "border_form",
    "buchberger_check",
    "build_characterizing_prebasis",
    "check_quotient_basis",
    "check_subideal_basis",
    "commuting_check",
    "divide",
    "gb_normal_form",
    "groebner_basis",
    "is_border_basis",
    "leading_module",
    "lift_neighbor_syzygy",
    "macaulay_complement",
    "module_action",
    "module_border_basis",
    "mult_matrices",
    "naive_border_basis",
    "neighbor_syzygy",
    "neighbors",
    "normal_form",
    "normal_remainder",
    "quotient_border_basis",
    "reconstruct_prebasis",
    "remainder_vector",
    "rewrite_step",
    "subideal_border_basis",
    "sv_vector",
    "syzygies",
    "validate_order_module",
]
