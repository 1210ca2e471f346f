"""Telescopic relative entropy toolkit.

Numerics for the normalized relative entropy
S(rho || a*rho + (1-a)*sigma) / (-log a) of finite-dimensional quantum
states, its endpoint closed forms, the telescoped relative Renyi
entropies, independent quadrature/finite-difference oracles, and a
randomized verification engine for every bound the library implements.
"""

from .matfun import (
    SpectralDecomposition,
    check_hermitian,
    frechet_log_map,
    frechet_power_map,
    hermitian_part,
    matrix_function,
    positive_part,
    spectral_decompose,
    support_basis,
    support_projector,
    support_rank,
    trace_norm_distance,
)
from .oracle import (
    QuadratureScheme,
    finite_diff_frechet,
    log_scheme,
    power_scheme,
    quad_frechet_log,
    quad_frechet_power,
    quad_log,
    quad_power,
    quad_projector_integral,
    quad_tre,
    rational_scheme,
)
from .renyi import renyi_overlap, renyi_overlap_telescoped, state_power, trre
from .states import (
    check_density,
    haar_random_pure,
    haar_unitary,
    is_orthogonal,
    pure_from_vector,
    qubit_pair_with_angle,
    random_mixed_hs,
    random_orthogonal_pair,
    state_from_jsonable,
    state_to_jsonable,
    telescope_mix,
)
from .tre import (
    binary_entropy,
    collinear_smoothing_bound,
    holevo_two,
    holevo_two_via_relative,
    lendi_regularised,
    relative_entropy,
    scalar_tre,
    telescopic_relative_entropy,
    tre_limit_one,
    tre_limit_zero,
    tre_pure_closed_form,
    von_neumann_entropy,
)
from .verify import (
    FuzzConfig,
    VerificationReport,
    check_holevo,
    check_joint_convexity,
    check_limit_closed_forms,
    check_lower_pinsker,
    check_range,
    check_trre_bound,
    check_upper_T,
    replay_witness,
    richardson,
    run_fuzz,
)

__version__ = "0.1.0"
