"""Gain operators, small-gain certificates and decay paths on finite networks."""

from .certificate import TOOL_VERSION, Certificate
from .cone import CoercivityResult, coercivity_check, sup_norm
from .dynamics import (
    FixedPointResult,
    GainOperator,
    MonotoneStepError,
    StabilityReport,
    StopReason,
    StopRule,
    Trajectory,
    as_operator,
    cofinality_witness,
    decay_margin,
    iterate,
    max_fixed_point,
    min_fixed_point,
    stability_battery,
)
from .kfun import (
    SLOPE_FLOOR,
    KFun,
    KFunError,
    MonotoneSamples,
    Side,
    compose_power,
    envelope,
    factor_id_plus,
    id_plus,
    identity,
    linear,
    pointwise_max,
    pointwise_min,
    power_kfun,
    sub_from_id,
)
from .network import (
    MAX,
    SUM,
    Digraph,
    GainNetwork,
    MafSpec,
    NetworkError,
    TruncationTemplate,
    build_network,
    chain_template,
    gain_from_descriptor,
    graph_diameter,
    is_strongly_connected,
    neighborhood,
    network_from_dict,
    network_from_json,
    subnetwork,
)
from .paths import (
    DecayPath,
    PathConstructionError,
    PathReport,
    combined_path,
    default_knots,
    minimal_path,
    orbit_path,
    regularize,
    reparametrize_min_id,
    restrict_path,
    validate,
)
from .smallgain import (
    ModulusChain,
    SamplerConfig,
    SgcVerdict,
    cone_samples,
    cycle_gain_check,
    cycle_profile,
    decayset_coercivity,
    delta_chain,
    max_mbi_probe,
    nji_probe,
    spectral_condition,
    uniform_nji_probe,
)

__version__ = TOOL_VERSION
