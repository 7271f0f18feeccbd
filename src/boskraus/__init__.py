"""Operator-sum representations of single-mode bosonic Gaussian channels.

Kraus families for every canonical quantum-limited channel on a
truncated Fock space, a metaplectic-integral oracle that rederives them
from first principles, the (X, Y) phase-space composition calculus, and
dynamical/structural analyses (fixed points, cumulants, extremality,
Zeno-like interrupted evolution).
"""

from .analysis import (
    ClassicalityReport,
    GramReport,
    Trajectory,
    classicality_check,
    cumulants,
    fixed_point,
    gram_rank,
    iterate,
    product_family,
    simultaneous_diagonality,
    thermal_estimate,
    thermal_step,
    zeno_kappa,
)
from .channels import ChannelSpec, closed_form_action, parse_channel
from .fock import (
    DensityMatrix,
    TruncatedOperator,
    char_weyl,
    coherent_disc_grid,
    coherent_state,
    displacement_op,
    fock_state,
    q_function,
    random_mixed_state,
    state_new,
    thermal_state,
    trace_distance,
)
from .families import DiscreteIndex, KrausFamily, QuadratureIndex
from .kraus import (
    apply,
    build_continuous,
    build_discrete,
    completeness_defect,
    dual,
    rank_one_d,
    suggest_ell_max,
)
from .phasespace import (
    GaussianMoments,
    Symplectic2,
    XYPair,
    canonical_xy,
    classify,
    compose_xy,
    covariance_map,
    moments_from_density,
    synthesize_noisy,
    table1_compose,
    table2_compose,
)
from .scheme import (
    GeneratingForm,
    MixMatrix,
    generating_form,
    kraus_from_scheme,
    mix_matrix,
)

__version__ = "0.1.0"
