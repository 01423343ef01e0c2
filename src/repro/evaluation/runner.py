"""High-level experiment driver: build a named system, run it on a
named dataset.

Systems register through :func:`repro.registry.register_system`; the
FiCSUM family ("ficsum", "er", "smi", "umi" and the Table V
``fn:<group>`` variants) registers with ``consumes_config=True`` so
callers know they accept a :class:`repro.core.FicsumConfig`, while the
Table VI baselines ignore the config argument entirely.

The benchmark harness, the experiment engine and the examples all go
through this module, so every table of the paper is regenerated from
the same code path: ``run_on_dataset(system_name, dataset_name, seed)``
for one cell, or :class:`repro.experiments.Engine` for a grid.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.baselines import Arf, Cpf, Dwm, Htcd, Rcd
from repro.core import (
    FicsumConfig,
    make_error_rate_variant,
    make_ficsum,
    make_single_function_variant,
    make_supervised_variant,
    make_unsupervised_variant,
)
from repro.evaluation.prequential import RunResult, prequential_run
from repro.metafeatures.base import FUNCTION_GROUPS
from repro.registry import SYSTEMS, register_system, system_consumes_config
from repro.streams import make_dataset
from repro.streams.base import StreamMeta
from repro.system import AdaptiveSystem

SystemBuilder = Callable[[StreamMeta, Optional[FicsumConfig], int], AdaptiveSystem]


def _ficsum_builder(factory) -> SystemBuilder:
    def build(
        meta: StreamMeta, config: Optional[FicsumConfig], seed: int
    ) -> AdaptiveSystem:
        cfg = config if config is not None else FicsumConfig()
        cfg = replace(cfg, seed=seed)
        return factory(meta.n_features, meta.n_classes, cfg)

    return build


def _with_oracle(config: Optional[FicsumConfig], oracle: bool) -> Optional[FicsumConfig]:
    """FiCSUM only acts on signal_drift when its config says oracle."""
    if not oracle:
        return config
    cfg = config if config is not None else FicsumConfig()
    return replace(cfg, oracle_drift=True)


def _single_function_builder(group: str) -> SystemBuilder:
    def build(
        meta: StreamMeta, config: Optional[FicsumConfig], seed: int
    ) -> AdaptiveSystem:
        cfg = config if config is not None else FicsumConfig()
        cfg = replace(cfg, seed=seed)
        return make_single_function_variant(
            group, meta.n_features, meta.n_classes, cfg
        )

    return build


register_system("ficsum", consumes_config=True)(_ficsum_builder(make_ficsum))
register_system("er", consumes_config=True)(_ficsum_builder(make_error_rate_variant))
register_system("smi", consumes_config=True)(_ficsum_builder(make_supervised_variant))
register_system("umi", consumes_config=True)(_ficsum_builder(make_unsupervised_variant))

#: Table V single-function variants ("fn:<group>").
for _group in FUNCTION_GROUPS:
    register_system(f"fn:{_group}", consumes_config=True)(
        _single_function_builder(_group)
    )


@register_system("htcd")
def _build_htcd(meta, config, seed):
    return Htcd(meta.n_features, meta.n_classes, seed=seed)


@register_system("rcd")
def _build_rcd(meta, config, seed):
    return Rcd(meta.n_features, meta.n_classes, seed=seed)


@register_system("dwm")
def _build_dwm(meta, config, seed):
    return Dwm(meta.n_features, meta.n_classes)


@register_system("arf")
def _build_arf(meta, config, seed):
    return Arf(meta.n_features, meta.n_classes, seed=seed)


@register_system("cpf")
def _build_cpf(meta, config, seed):
    return Cpf(meta.n_features, meta.n_classes, seed=seed)


def build_system(
    name: str,
    meta: StreamMeta,
    config: Optional[FicsumConfig] = None,
    seed: int = 0,
) -> AdaptiveSystem:
    """Instantiate a registered system for a stream's metadata."""
    return SYSTEMS.get(name)(meta, config, seed)


#: The paper protocol's concept-occurrence count (Section VI) — the
#: single authority callers inherit by passing ``n_repeats=None``.
PAPER_N_REPEATS = 9

#: Rows per ``process_chunk`` call of :func:`run_on_dataset`; a chunked
#: run is observation for observation the per-observation run.
CHUNK_SIZE = 32


def prepare_run(
    system_name: str,
    dataset_name: str,
    seed: int = 0,
    segment_length: Optional[int] = None,
    n_repeats: Optional[int] = PAPER_N_REPEATS,
    config: Optional[FicsumConfig] = None,
    oracle_drift: bool = False,
):
    """Build the ``(system, stream)`` pair of one experiment cell.

    The construction half of :func:`run_on_dataset`, shared with the
    checkpointed runner (:class:`repro.serving.runner.StreamRunner`),
    which needs the pair without the run so it can restore state into
    the system before driving it.
    """
    stream = make_dataset(
        dataset_name,
        seed=seed,
        segment_length=segment_length,
        n_repeats=n_repeats if n_repeats is not None else PAPER_N_REPEATS,
    )
    if system_consumes_config(system_name):
        config = _with_oracle(config, oracle_drift)
    else:
        config = None
    system = build_system(
        system_name,
        stream.meta,
        config=config,
        seed=seed,
    )
    return system, stream


def run_on_dataset(
    system_name: str,
    dataset_name: str,
    seed: int = 0,
    segment_length: Optional[int] = None,
    n_repeats: Optional[int] = PAPER_N_REPEATS,
    config: Optional[FicsumConfig] = None,
    oracle_drift: bool = False,
    keep_history: bool = False,
) -> RunResult:
    """One prequential run of a named system on a named dataset.

    ``n_repeats=None`` means the paper protocol (:data:`PAPER_N_REPEATS`).
    """
    system, stream = prepare_run(
        system_name,
        dataset_name,
        seed=seed,
        segment_length=segment_length,
        n_repeats=n_repeats,
        config=config,
        oracle_drift=oracle_drift,
    )
    return prequential_run(
        system, stream, oracle_drift=oracle_drift, keep_history=keep_history,
        chunk_size=CHUNK_SIZE,
    )
