"""Variant Euler harmonic sums: series oracles, closed forms, verification."""

from .identities import (
    IdentityId,
    VerifyReport,
    default_grid,
    rhs_cor_32,
    rhs_cor_34,
    rhs_cor_34a,
    rhs_cor_36,
    rhs_cor_38,
    rhs_cor_310,
    rhs_cor_312,
    rhs_thm_31,
    rhs_thm_33,
    rhs_thm_35,
    rhs_thm_37,
    rhs_thm_39,
    rhs_thm_311,
    rhs_thm_e15,
    rhs_thm_t25,
    verify,
)
from .jets import (
    RatioVariant,
    gamma_ratio_jet,
    jet_exp,
    ln_gamma_jet,
    mixed_partial,
)
from .series import (
    lhs_alt,
    lhs_base_binomial,
    lhs_binomial_shifted,
    lhs_central_binom,
    lhs_linear_euler,
    lhs_quadratic_euler,
    lhs_variant1,
    lhs_variant2,
    lhs_variant3,
    lhs_variant3h,
    lhs_variant4,
)
from .special import (
    EULER_GAMMA,
    ZETA2,
    ZETA3,
    ZETA4,
    DomainError,
    PoleError,
    digamma,
    gen_harmonic,
    hurwitz_zeta,
    polygamma,
    riemann_zeta,
)
from .summation import EvalConfig, SumResult, em_tail

__version__ = "0.1.0"
