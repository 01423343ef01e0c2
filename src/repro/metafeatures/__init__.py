"""Meta-information functions (Table I) and the fingerprint pipeline.

A meta-information function maps a univariate behaviour-source sequence
to one real value (Definitions 1 and 2 of the paper).  FiCSUM uses 13
of them, spanning distribution shape (mean, standard deviation, skew,
kurtosis), temporal dependence (autocorrelation and partial
autocorrelation at lags 1-2, lagged mutual information), oscillation
(turning-point rate), behaviour across timescales (entropy of the first
two intrinsic mode functions from empirical mode decomposition) and
feature importance (a window-Shapley value).

Each function is a :class:`MetaFeature` component registered in
:data:`repro.registry.METAFEATURES`; user components register through
:func:`repro.registry.register_metafeature` and become selectable by
name in configs, experiment specs and the CLI.  The
:class:`FingerprintPipeline` assembles fingerprints from any component
subset, with O(1) rolling accumulators for the components that admit
them (see :mod:`repro.metafeatures.rolling`).
"""

from repro.metafeatures.base import (
    FUNCTION_NAMES,
    FUNCTION_GROUPS,
    N_FUNCTIONS,
    compute_scalar_function,
    expand_functions,
    function_groups,
)
from repro.metafeatures.components import MetaFeature, WindowContext
from repro.metafeatures.pipeline import (
    BEHAVIOUR_SOURCES,
    SOURCE_SETS,
    FingerprintPipeline,
    FingerprintSchema,
    SourceInfo,
    source_info,
)
from repro.metafeatures.rolling import ErrorDistanceTracker, RollingWindowStats
from repro.metafeatures.emd import empirical_mode_decomposition, imf_energy_entropy
from repro.metafeatures.shapley import window_permutation_importance
from repro.metafeatures.sketch import (
    SKETCH_PROFILE_NAMES,
    SKETCH_PROFILES,
    apply_sketch_profile,
)

__all__ = [
    "FUNCTION_NAMES",
    "FUNCTION_GROUPS",
    "N_FUNCTIONS",
    "compute_scalar_function",
    "expand_functions",
    "function_groups",
    "MetaFeature",
    "WindowContext",
    "BEHAVIOUR_SOURCES",
    "SOURCE_SETS",
    "SourceInfo",
    "source_info",
    "FingerprintPipeline",
    "FingerprintSchema",
    "RollingWindowStats",
    "ErrorDistanceTracker",
    "empirical_mode_decomposition",
    "imf_energy_entropy",
    "window_permutation_importance",
    "SKETCH_PROFILE_NAMES",
    "SKETCH_PROFILES",
    "apply_sketch_profile",
]
