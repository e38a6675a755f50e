"""Exact computer algebra for a non-anticommutative fermionic Fock space."""

from .delta import (
    DeltaCoeffs,
    check_contraction_numbers,
    check_exp_delta_neg_comm,
    check_exp_delta_routes,
    delta_apply,
    exp_delta,
    t_number,
    t_number_alt,
    t_number_pairings,
)
from .fock import (
    VACUUM,
    FockVector,
    HSpace,
    apply_mode,
    apply_modes,
    d_op,
    grading_op,
    parity,
    theta,
    weight,
    weight2,
)
from .laurent import Box, LaurentPoly
from .ratfun import RationalFunction, f_mn
from .scalars import binom
from .straightening import check_confluence, defect, pbw_normal_form
from .vertex import (
    WindowedSeries,
    check_axioms,
    check_weak_associativity,
    iterate_series,
    normal_order_modes,
    product_series,
    y_coeff,
    y_series,
)
from .wick import (
    Factor,
    NOExpr,
    check_closed_forms,
    contraction_det,
    correlation,
    correlation_terms,
    noexpr_apply,
    vacuum_expectation,
    wick_fuse,
    wick_iterate,
    wick_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
