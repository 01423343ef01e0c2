"""FiCSUM configuration.

Defaults follow the paper's tuned values (Section VI-2): window size 75,
buffer ratio 0.25, ``P_C`` = 3, ``P_S`` = 25, acceptance gate of two
standard deviations.  The extra switches (``weighting``, ``plasticity``,
``second_selection``, ``oracle_drift``) exist for the ablation benches
and the supplementary perfect-drift-signal experiment.  There are no
execution toggles: every field either changes what the framework
computes or sizes it, and the one production path is pinned against
the plain Algorithm 1 reference in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Sequence

WEIGHTING_MODES = ("full", "sigma", "fisher", "none")


@dataclass
class FicsumConfig:
    """All tunables of the FiCSUM framework (Algorithm 1).

    Parameters
    ----------
    window_size:
        ``w`` — observations per fingerprint window.
    buffer_ratio:
        ``b / w`` — the buffer delay as a fraction of the window, so
        fingerprints are only learned from observations old enough to
        be certainly pre-drift (paper default 0.25).
    fingerprint_period:
        ``P_C`` — observations between fingerprint updates.
    repository_period:
        ``P_S`` — observations between non-active repository updates
        (these feed the intra-classifier Fisher weights).
    similarity_gate:
        Acceptance half-width in standard deviations for model
        selection (paper: 2).
    min_similarity_std:
        Floor on the recorded similarity deviation, so acceptance never
        becomes numerically impossible for ultra-stable concepts.
    metafeatures / source_set:
        Meta-information component selection (registered component or
        Table V group names; ``None`` = the full built-in set) and
        behaviour-source restriction ("all", "supervised",
        "unsupervised", "error_rate").
    sketch_profile:
        Accuracy-vs-speed knob for the extraction kernels: ``"exact"``
        (default, Table I values, provably unchanged), ``"balanced"``
        (close sketch approximations: streaming-histogram MI,
        subsampled IMF entropy / permutation importance) or ``"fast"``
        (cheapest sketches: pseudo-random projection entropies).  The
        substituted components carry declared ``accuracy_knob``
        metadata; reported Table I accuracy deltas vs ``"exact"`` are a
        first-class metric of the experiment engine.
    weighting:
        "full" (paper), "sigma" (scale term only), "fisher"
        (discrimination term only) or "none" (plain cosine) — ablation.
    plasticity:
        Reset classifier-dependent fingerprint statistics when the
        classifier grows a branch (Section IV).
    second_selection:
        Re-run model selection ``w`` observations after each drift.
    oracle_drift:
        Ignore ADWIN and rely on external :meth:`signal_drift` calls
        (the supplementary perfect-detection experiment).
    max_repository_size:
        Stored concepts beyond this evict the least recently used.
    sim_record_samples:
        Retained fingerprint pairs per concept used to re-express stale
        similarity records under the current weighting (Section IV).
    sim_record_decay:
        Exponential forgetting factor of the (mu_c, sigma_c) similarity
        records, so they describe recent stationary behaviour.
    adwin_delta:
        Confidence of the ADWIN detector on the similarity stream.
    shapley_max_eval:
        Window rows sampled by the permutation-importance estimator.
    grace_period / split_confidence / tie_threshold:
        Hoeffding-tree hyperparameters for concept classifiers.
    drift_warmup_windows:
        Multiples of ``window_size`` after a concept switch during
        which drift cannot be signalled and similarity records adapt
        freely — a freshly (re)activated classifier improves rapidly,
        which would otherwise read as drift (Section IV's motivation
        for fingerprint plasticity).
    track_discrimination:
        Record discrimination-ability samples at repository-update
        checkpoints (needed for Tables III and V).
    seed:
        Randomness for classifiers and subsampling.
    """

    window_size: int = 75
    buffer_ratio: float = 0.25
    fingerprint_period: int = 3
    repository_period: int = 25
    similarity_gate: float = 2.0
    min_similarity_std: float = 0.015
    metafeatures: Optional[Sequence[str]] = None
    source_set: str = "all"
    sketch_profile: str = "exact"
    weighting: str = "full"
    # Semantic switches, not fast paths: flipping them changes results.
    plasticity: bool = True  # repro-lint: disable=RPR004
    second_selection: bool = True  # repro-lint: disable=RPR004
    oracle_drift: bool = False
    max_repository_size: int = 40
    sim_record_samples: int = 4
    sim_record_decay: float = 0.05
    adwin_delta: float = 0.002
    shapley_max_eval: int = 12
    grace_period: int = 50
    split_confidence: float = 1e-5
    tie_threshold: float = 0.05
    drift_warmup_windows: float = 2.0
    track_discrimination: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.metafeatures is not None:
            self.metafeatures = tuple(self.metafeatures)
            # Resolve eagerly so unknown names fail at config time with
            # the registry's listing (components must already be
            # registered — the same contract as system plugins).
            from repro.metafeatures.base import expand_functions

            expand_functions(self.metafeatures)
        if self.sketch_profile not in ("exact", "balanced", "fast"):
            raise ValueError(
                "sketch_profile must be one of ('exact', 'balanced', "
                f"'fast'), got {self.sketch_profile!r}"
            )
        if self.window_size < 5:
            raise ValueError(f"window_size must be >= 5, got {self.window_size}")
        if not 0.0 <= self.buffer_ratio <= 2.0:
            raise ValueError(
                f"buffer_ratio must be in [0, 2], got {self.buffer_ratio}"
            )
        if self.fingerprint_period < 1:
            raise ValueError(
                f"fingerprint_period must be >= 1, got {self.fingerprint_period}"
            )
        if self.repository_period < 1:
            raise ValueError(
                f"repository_period must be >= 1, got {self.repository_period}"
            )
        if self.weighting not in WEIGHTING_MODES:
            raise ValueError(
                f"weighting must be one of {WEIGHTING_MODES}, got {self.weighting!r}"
            )
        if self.similarity_gate <= 0:
            raise ValueError(
                f"similarity_gate must be positive, got {self.similarity_gate}"
            )
        if self.max_repository_size < 1:
            raise ValueError(
                f"max_repository_size must be >= 1, got {self.max_repository_size}"
            )

    @property
    def buffer_delay(self) -> int:
        """``b`` — the buffer delay in observations."""
        return max(1, int(round(self.window_size * self.buffer_ratio)))

    def overrides(self) -> Dict[str, Any]:
        """The fields that differ from the dataclass defaults.

        The inverse of :meth:`from_overrides`; this is the canonical,
        JSON-friendly representation used by experiment specs and run
        artifacts (``seed`` is excluded — it is a per-run property of
        the experiment cell, not of the configuration).
        """
        defaults = FicsumConfig()
        diff: Dict[str, Any] = {}
        for f in fields(self):
            if f.name == "seed":
                continue
            value = getattr(self, f.name)
            if value != getattr(defaults, f.name):
                diff[f.name] = list(value) if isinstance(value, tuple) else value
        return diff

    @classmethod
    def from_overrides(cls, overrides: Optional[Mapping[str, Any]]) -> "FicsumConfig":
        """Build a config from a (possibly empty) override mapping."""
        overrides = dict(overrides or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ValueError(
                f"unknown FicsumConfig fields {unknown}; known: {sorted(known)}"
            )
        return cls(**overrides)
