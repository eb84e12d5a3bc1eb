"""Convex geometry of finite-outcome quantum measurements.

Build measurements, test whether they are extreme points of the POVM convex
set, decompose any measurement into a finite mixture of extreme ones, and
check the mixture by exact recombination and seeded sampling.
"""

from .model import (
    DensityState,
    FinitePOVM,
    PovmError,
    TraceDensity,
    ValidationReport,
    align_label_universe,
    born_probabilities,
    convex_combine,
    effects_distance,
    prune_and_merge,
    trace_density,
    validate_povm,
)
from .extremality import (
    ExtremalityVerdict,
    TpMap,
    build_tp_map,
    is_extreme,
)
from .decompose import (
    BarycenterReport,
    ExtremalMixture,
    MixtureComponent,
    SplitResult,
    decompose_extremal,
    split_once,
    verify_barycenter,
)
from .outcomes import (
    PostProcessing,
    apply_postprocessing,
    gen_covariant_sphere,
    gen_ea_family,
    gen_pvm,
    gen_random_povm,
    gen_random_state,
    gen_sic_qubit,
    gen_trine,
    is_injective,
)
from .sampling import (
    OutcomeHistogram,
    sample_direct,
    sample_two_stage,
    tv_distance,
)
from .config import Config, load_config

__version__ = "0.1.0"

__all__ = [
    "BarycenterReport",
    "Config",
    "DensityState",
    "ExtremalMixture",
    "ExtremalityVerdict",
    "FinitePOVM",
    "MixtureComponent",
    "OutcomeHistogram",
    "PostProcessing",
    "PovmError",
    "SplitResult",
    "TpMap",
    "TraceDensity",
    "ValidationReport",
    "apply_postprocessing",
    "born_probabilities",
    "build_tp_map",
    "convex_combine",
    "decompose_extremal",
    "align_label_universe",
    "effects_distance",
    "gen_covariant_sphere",
    "gen_ea_family",
    "gen_pvm",
    "gen_random_povm",
    "gen_random_state",
    "gen_sic_qubit",
    "gen_trine",
    "is_extreme",
    "is_injective",
    "load_config",
    "prune_and_merge",
    "sample_direct",
    "sample_two_stage",
    "split_once",
    "trace_density",
    "tv_distance",
    "validate_povm",
    "verify_barycenter",
]
