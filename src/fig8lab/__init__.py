"""fig8lab: numerics for the colored Jones polynomial of the figure-eight knot
at exponential evaluation points, with quantum-dilogarithm, saddle-point and
quantum-modularity verification suites."""

from .numkernel import (
    BranchCutError,
    DomainError,
    QuadratureError,
    l0_closed,
    l1_closed,
    l2_closed,
    lc_one_minus_exp,
    lc_sum,
    li2,
)
from .qdilog import (
    KAPPA,
    EvalContext,
    check_gamma_half,
    check_shift_identity,
    check_unit_shift,
    e_n,
    identity_residuals,
    l_k_quadrature,
    t_n,
)
from .jones import (
    beta_factor,
    decomposition_residual,
    f_n,
    jones_at_cusp,
    jones_dual,
    jones_exp,
    jones_exp_unity,
    k_range,
    product_identity_residual,
)
from .saddle import (
    SaddleData,
    asymptotic_ratio,
    asymptotic_rhs,
    discriminant,
    f_eval,
    f_eval_original,
    f_prime,
    f_second,
    f_zero_value,
    kappa,
    phi_m,
    phi_m_prime,
    saddle_data,
    saddle_prefactor,
    saddle_prefactor_closed,
    varphi,
)
from .region import (
    RegionGrid,
    band_endpoints_connected,
    c_pm,
    c_pm_derivative_bound,
    check_f_p12,
    components_d_cap_e,
    endpoint_decay,
    grid_scan,
    label_components,
    write_grid_csv,
    write_grid_header,
)
from .modularity import (
    CEstimate,
    ModularMatrix,
    bettin_drappeau_c,
    build_x,
    build_x0,
    cusp_volume,
    estimate_c,
    hbar,
    mobius,
    modularity_ratio,
    qmccj_rhs,
    zagier_lhs,
    zagier_rhs,
)

__version__ = "0.1.0"
