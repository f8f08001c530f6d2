"""shadowlab: a laboratory for pseudo-orbit shadowing on the plane.

The package makes the central constructions of variable-tolerance
(topological) shadowing executable and checkable: adversarial spliced
pseudo-orbits and the tolerance functions that defeat saddles and
translations, slack synthesis and constructive shadow points for
homotheties, exact finite-window feasibility certificates for
diagonal-affine maps under the sup norm, and a grid oracle for everything
else (including warped metrics).
"""

from .cplus import (
    CPlusFn,
    Const,
    Envelope,
    RadialTable,
    decaying_epsilon,
    epsilon_from_neighborhood,
    fn_from_json,
    fn_from_obj,
    saddle_adversarial_epsilon,
    synthesize_delta_homothety,
    verify_delta_conditions,
)
from .errors import (
    ContractViolation,
    DegenerateMarginError,
    DimensionMismatch,
    IterationRangeError,
    PositivityError,
    UnboundedSlackError,
    UnsupportedMapError,
)
from .geometry import MetricKind, distance, metric_norm, sup_norm
from .maps import (
    AffineChange,
    ComposedChange,
    Conjugated,
    DiagonalAffine,
    IdentityChange,
    RadialRescale,
    conjugate_map,
    homothety,
    is_diagonal_affine,
    power_map,
    reverse_homothety,
    saddle,
    translation_map,
)
from .pseudo_orbit import (
    ExplicitRule,
    OrbitWindow,
    PseudoOrbitSpec,
    SplicedRule,
    classify_pseudo_orbit,
    generate_orbit_ensemble,
    max_splice_jump,
    random_pseudo_orbit,
    realize,
    validate,
)
from .scenarios import RunReport, ScenarioConfig, builtin_config, list_scenarios, run_scenario
from .shadowing import (
    FeasibilityCertificate,
    ShadowReport,
    box_feasibility,
    forward_to_full_shadow,
    homothety_shadow_point,
    homothety_shadow_report,
    is_shadowed_by,
    sampled_search,
    shadow_tail_bound,
    transported_epsilon_values,
    transported_shadow_report,
)

__version__ = "0.1.0"
