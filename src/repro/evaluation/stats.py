"""Significance testing: Friedman test and Nemenyi post-hoc.

The paper ranks systems across datasets, rejects the equal-rank null
with a Friedman test (p < 0.01) and applies the Nemenyi post-hoc test
at significance 0.05 (Section VI-5).  Implemented here following
Demšar, "Statistical Comparisons of Classifiers over Multiple Data
Sets" (JMLR 2006).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Studentised-range q_alpha / sqrt(2) values for the Nemenyi test at
#: alpha = 0.05, indexed by the number of compared systems k (2..10).
_NEMENYI_Q05 = {
    2: 1.960,
    3: 2.343,
    4: 2.569,
    5: 2.728,
    6: 2.850,
    7: 2.949,
    8: 3.031,
    9: 3.102,
    10: 3.164,
}


def average_ranks(scores: np.ndarray, higher_is_better: bool = True) -> np.ndarray:
    """Average rank of each system (column) across datasets (rows).

    Rank 1 is best.  Ties receive the average of the tied ranks.
    """
    # scipy.stats is imported where it is used, so the streaming modules
    # that import repro.evaluation do not pay for loading it.
    from scipy import stats as scipy_stats

    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D (datasets x systems), got {scores.shape}")
    data = -scores if higher_is_better else scores
    ranks = np.apply_along_axis(scipy_stats.rankdata, 1, data)
    return ranks.mean(axis=0)


@dataclass(frozen=True)
class FriedmanResult:
    statistic: float
    p_value: float
    ranks: np.ndarray

    @property
    def significant_01(self) -> bool:
        return self.p_value < 0.01


def friedman_test(scores: np.ndarray, higher_is_better: bool = True) -> FriedmanResult:
    """Friedman chi-square test over a datasets x systems score matrix."""
    from scipy import stats as scipy_stats

    scores = np.asarray(scores, dtype=np.float64)
    n_datasets, k = scores.shape
    if k < 3:
        # scipy's friedmanchisquare requires >= 3 groups; fall back to a
        # sign-test-style Wilcoxon for the 2-system case.
        stat, p = scipy_stats.wilcoxon(scores[:, 0], scores[:, 1])
        return FriedmanResult(float(stat), float(p), average_ranks(scores, higher_is_better))
    stat, p = scipy_stats.friedmanchisquare(*(scores[:, j] for j in range(k)))
    return FriedmanResult(float(stat), float(p), average_ranks(scores, higher_is_better))


def nemenyi_cd(n_systems: int, n_datasets: int, alpha: float = 0.05) -> float:
    """Nemenyi critical difference on average ranks.

    Two systems differ significantly when their average ranks differ by
    more than ``CD = q_alpha sqrt(k (k + 1) / (6 N))``.
    """
    if alpha != 0.05:
        raise ValueError("only alpha=0.05 critical values are tabulated")
    if n_systems not in _NEMENYI_Q05:
        raise ValueError(
            f"n_systems must be in {sorted(_NEMENYI_Q05)}, got {n_systems}"
        )
    q = _NEMENYI_Q05[n_systems]
    return q * math.sqrt(n_systems * (n_systems + 1) / (6.0 * n_datasets))


def significantly_better(
    ranks: Sequence[float], cd: float, reference: int = 0
) -> list:
    """Indices of systems whose average rank trails ``reference`` by > CD."""
    ranks = list(ranks)
    ref_rank = ranks[reference]
    return [
        i
        for i, r in enumerate(ranks)
        if i != reference and (r - ref_rank) > cd
    ]
