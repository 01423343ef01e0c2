"""FiCSUM core: the paper's primary contribution.

* :class:`FicsumConfig` — all tunables of Algorithm 1 plus ablation
  switches.
* :class:`Ficsum` — the framework: fingerprint construction, dynamic
  weighting, ADWIN drift detection over similarity values, repository
  model selection and recurrence tracking.
* :mod:`repro.core.variants` — the restricted ER / S-MI / U-MI systems
  and the single-meta-information-function systems of Tables III-V.
"""

from repro.core.config import FicsumConfig
from repro.core.fingerprint import ConceptFingerprint
from repro.core.similarity import similarity, weighted_cosine_similarity
from repro.core.repository import (
    ConceptState,
    FingerprintMatrix,
    Repository,
    RepositoryFullError,
)
from repro.core.ficsum import Ficsum
from repro.core.delayed_labels import DelayedLabelAdapter
from repro.core.variants import (
    make_ficsum,
    make_error_rate_variant,
    make_supervised_variant,
    make_unsupervised_variant,
    make_single_function_variant,
)

__all__ = [
    "FicsumConfig",
    "ConceptFingerprint",
    "similarity",
    "weighted_cosine_similarity",
    "ConceptState",
    "FingerprintMatrix",
    "Repository",
    "RepositoryFullError",
    "Ficsum",
    "DelayedLabelAdapter",
    "make_ficsum",
    "make_error_rate_variant",
    "make_supervised_variant",
    "make_unsupervised_variant",
    "make_single_function_variant",
]
