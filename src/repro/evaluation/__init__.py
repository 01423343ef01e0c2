"""Evaluation harness: prequential runs, metrics, significance tests."""

from repro.evaluation.metrics import (
    ConfusionMatrix,
    cohens_kappa,
    co_occurrence_f1,
)
from repro.evaluation.prequential import RunResult, prequential_run
from repro.evaluation.discrimination import summarize_discrimination
from repro.evaluation.stats import average_ranks, friedman_test, nemenyi_cd
from repro.evaluation.runner import build_system, run_on_dataset

__all__ = [
    "ConfusionMatrix",
    "cohens_kappa",
    "co_occurrence_f1",
    "RunResult",
    "prequential_run",
    "summarize_discrimination",
    "average_ranks",
    "friedman_test",
    "nemenyi_cd",
    "build_system",
    "run_on_dataset",
]
