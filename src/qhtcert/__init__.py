"""Provable adversarial-robustness certification of quantum classifiers.

The library constructs optimal binary quantum hypothesis tests (minimal
type-II error at a preassigned type-I level), evaluates the induced
robustness condition for arbitrary finite-dimensional state pairs, exposes
the closed-form certified radii in trace distance (pure/pure, pure/mixed,
trace-norm duality, and depolarization-smoothed variants), and implements a
finite-sampling certification protocol with Hoeffding confidence bounds.
"""

from .bounds import (
    BoundReport,
    bound_report,
    probability_gap_factor,
    pure_beta_closed_form,
    radius_depol_dp,
    radius_depol_hoelder,
    radius_depol_qht,
    radius_hoelder,
    radius_qht_pure,
    radius_qht_pure_mixed,
    smoothing_covers_everything,
)
from .certification import TOOL_VERSION as __version__
from .certification import (
    Certificate,
    HoeffdingEstimate,
    certificate_to_json,
    certify,
    certify_smoothed,
    hoeffding_bounds,
    hoeffding_margin,
    sample_outcomes,
)
from .classifier import (
    Classifier,
    class_probabilities,
    worst_case_classifier,
)
from .helstrom import (
    HelstromTest,
    SignedProjections,
    certify_condition,
    error_probabilities,
    helstrom,
    signed_projections,
)
from .oracle import (
    SearchReport,
    boundary_radius_search,
    brute_force_min_beta,
    hoeffding_coverage,
)
from .states import (
    Channel,
    DensityMatrix,
    Povm,
    PureState,
    apply_channel,
    depolarize,
    depolarizing_kraus,
    identity_kraus,
    is_rank_one,
    trace_distance,
    validate_density,
)
