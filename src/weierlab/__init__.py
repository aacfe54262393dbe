"""weierlab: a numerical laboratory for self-affine Weierstrass-type functions.

The package evaluates lacunary series W(x) = sum_n lam^n phi(b^n x), their
stable-direction kernels and flow projections, renormalization operators on
the generator, and entropy and box-counting dimension estimators for the
graph and its projected measures.
"""

from .phi import (
    FourierPhi,
    PiecewisePhi,
    cos_phi,
    const_phi,
    zero_phi,
    triangle_phi,
    rademacher_phi,
    eval_phi,
    renormalize,
    pre_renormalize,
    s_p,
    rescale,
    phi_from_w0,
    parse_phi_spec,
    phi_to_text,
    phi_from_text,
)
from .weier import (
    SystemParams,
    make_params,
    eval_w,
    eval_w_vec,
    WLattice,
    self_affinity_residual,
    fourier_of_w,
    regulating_energy,
    period_scan,
)
from .kernel import (
    Code,
    periodic_code,
    seeded_code,
    eval_y,
    eval_y_vec,
    eval_gamma,
    eval_gamma_vec,
    eval_gamma_many,
    project,
    apply_ifs,
    apply_word,
    transition_residual,
    separation_sup,
    condition_h_scan,
    k_regularity,
    transversality_pairs,
    transversality_certificate,
    transversality_stability,
)
from .measure import (
    BadicHistogram,
    histogram_from_values,
    histogram_from_points,
    entropy,
    coarsen,
    component_measure,
    sample_projected_measure,
    alpha_estimate,
    graph_box_dimension,
    dim_mu_check,
    n_hat,
    ucas_probe,
    porosity_probe,
)
from .funcspace import (
    ContactMap,
    ThetaMeasure,
    build_theta,
    theta_entropy,
    separation_constant_c,
    convolution_entropy_gain,
    entropy_increase_experiment,
)

__version__ = "0.1.0"
