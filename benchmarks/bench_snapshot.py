"""Checkpointing & observability overhead: snapshot latency, periodic-
checkpoint cost and the metrics layer's throughput tax.

Three measurements, all against populated, mid-stream systems:

* **snapshot/restore latency** at repository sizes R in {10, 40}
  (the same deterministic population as the selection bench):
  wall time of one ``save_system`` (pack + hash + atomic rename) and
  one ``load_system`` (verify + unpack + rebuild mirrors), plus the
  artifact's on-disk size — the cost model for choosing a
  ``checkpoint_every``;
* **periodic-checkpoint overhead**: an end-to-end recurring-stream run
  through :class:`~repro.serving.runner.StreamRunner` with three
  mid-run snapshots vs the same run without, as a percentage;
* **metrics overhead**: the identical run with a live
  :class:`~repro.serving.metrics.StatsCollector` attached vs the
  default :data:`NULL_COLLECTOR` wiring.  The observability layer's
  contract is near-zero cost — asserted to stay **under 5%** (each
  side takes the best of three runs so scheduler noise cannot fail
  the gate spuriously).

Emits ``BENCH_snapshot.json`` (obs/sec of the un-instrumented run plus
all latencies and overhead percentages) for the CI regression gate.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
from _harness import SCALE, render_table, save_bench_json, save_table
from bench_selection_throughput import build_system as build_populated_system

from repro.core import FicsumConfig
from repro.core.variants import make_ficsum
from repro.serving.metrics import StatsCollector
from repro.serving.runner import StreamRunner
from repro.serving.snapshot import load_system, save_system
from repro.streams.datasets import make_dataset

R_SWEEP = (10, 40)
#: Timed save/load rounds per repository size (scaled for CI).
N_ROUNDS = max(3, int(round(10 * min(SCALE, 1.0))))
#: Best-of runs per side of the overhead comparisons.
N_REPS = 3


def bench_snapshot_latency(R: int, workdir: Path) -> dict:
    system = build_populated_system(R)
    path = workdir / f"snap_r{R}"
    save_system(system, path)  # warm-up + artifact for sizing/restore
    artifact_bytes = sum(p.stat().st_size for p in path.iterdir())

    start = time.perf_counter()
    for _ in range(N_ROUNDS):
        save_system(system, path)
    save_ms = 1e3 * (time.perf_counter() - start) / N_ROUNDS

    start = time.perf_counter()
    for _ in range(N_ROUNDS):
        restored, _, _ = load_system(path)
    restore_ms = 1e3 * (time.perf_counter() - start) / N_ROUNDS

    # The restored twin is the same system, not merely a similar one.
    assert len(restored.repository) == len(system.repository)
    assert restored._step == system._step
    np.testing.assert_array_equal(restored.weights, system.weights)
    return {
        "save_ms": round(save_ms, 3),
        "restore_ms": round(restore_ms, 3),
        "artifact_kb": round(artifact_bytes / 1024, 1),
    }


def _run_stream(
    *, metrics: bool = False, checkpoint_every=None, workdir: Path = None
):
    cfg = FicsumConfig(
        fingerprint_period=6,
        repository_period=60,
        shapley_max_eval=8,
        drift_warmup_windows=1.5,
        oracle_drift=True,
        seed=1,
    )
    stream = make_dataset(
        "RBF",
        seed=5,
        segment_length=max(150, int(300 * SCALE)),
        n_repeats=2,
    )
    system = make_ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
    if metrics:
        system.attach_observability(metrics=StatsCollector())
    checkpoint_path = None
    if checkpoint_every is not None:
        checkpoint_path = workdir / "periodic_ckpt"
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=True,
        keep_history=False,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )
    start = time.perf_counter()
    result = runner.run()
    wall = time.perf_counter() - start
    return wall, result, system


def _best_wall(**kwargs) -> tuple:
    walls = []
    last = None
    for _ in range(N_REPS):
        wall, result, system = _run_stream(**kwargs)
        walls.append(wall)
        last = (result, system)
    return min(walls), last[0], last[1]


def run_overheads(workdir: Path) -> dict:
    base_wall, base_result, _ = _best_wall()
    n_obs = base_result.n_observations

    metric_wall, metric_result, metric_system = _best_wall(metrics=True)
    assert metric_result.accuracy == base_result.accuracy  # same run
    counted = metric_system.metrics.counters["observations"]
    assert counted == n_obs, (counted, n_obs)

    every = max(1, n_obs // 4)  # three mid-run checkpoints
    ckpt_wall, ckpt_result, ckpt_system = _best_wall(
        metrics=True, checkpoint_every=every, workdir=workdir
    )
    assert ckpt_result.accuracy == base_result.accuracy
    n_saves = ckpt_system.metrics.counters["checkpoints"]
    assert n_saves >= 3, n_saves

    def pct(wall):
        return round(100.0 * (wall - base_wall) / base_wall, 2)

    return {
        "observations": n_obs,
        "baseline_wall_s": round(base_wall, 4),
        "obs_per_sec": round(n_obs / base_wall, 1),
        "metrics_overhead_pct": pct(metric_wall),
        "checkpoint_overhead_pct": pct(ckpt_wall),
        "checkpoint_saves": int(n_saves),
        "checkpoint_every": every,
    }


def run_all() -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-snapshot-"))
    try:
        latency = {
            f"r{R}": bench_snapshot_latency(R, workdir) for R in R_SWEEP
        }
        overheads = run_overheads(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"latency": latency, "overheads": overheads}


def build_table(results: dict) -> str:
    rows = [
        [
            str(R),
            f"{results['latency'][f'r{R}']['save_ms']:.2f}",
            f"{results['latency'][f'r{R}']['restore_ms']:.2f}",
            f"{results['latency'][f'r{R}']['artifact_kb']:.0f}",
        ]
        for R in R_SWEEP
    ]
    over = results["overheads"]
    return render_table(
        f"Snapshot latency vs repository size ({N_ROUNDS} rounds per cell)",
        ["R", "save ms", "restore ms", "artifact KB"],
        rows,
        notes=(
            f"End-to-end overheads on a {over['observations']}-obs "
            f"recurring stream (best of {N_REPS}): metrics collector "
            f"{over['metrics_overhead_pct']:+.2f}%, periodic "
            f"checkpointing ({over['checkpoint_saves']} saves) "
            f"{over['checkpoint_overhead_pct']:+.2f}%."
        ),
    )


def test_snapshot_overhead(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_table("snapshot.txt", build_table(results))
    over = results["overheads"]
    save_bench_json(
        "snapshot",
        extra={
            "wall_time_s": over["baseline_wall_s"],
            "observations_executed": over["observations"],
            "observations_per_sec": over["obs_per_sec"],
            "latency": results["latency"],
            "overheads": over,
        },
        repo_states=max(R_SWEEP),
    )
    # The observability contract: a live metrics collector must stay a
    # near-zero tax on system throughput.
    assert over["metrics_overhead_pct"] <= 5.0, over
