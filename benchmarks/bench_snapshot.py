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
  contract is near-zero cost — asserted to stay **under 5%**.

Both overheads are medians of paired differences.  Each round runs the
baseline, the metrics and the checkpointed configuration once, and odd
rounds run them in reverse order, so machine drift during the bench
lands on every side alike instead of on whichever block ran later.
The interquartile range of the paired differences is reported beside
each median.

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
#: Rounds of the overhead comparison (one run of each configuration).
OVERHEAD_ROUNDS = 11


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


def _make_stream():
    return make_dataset(
        "RBF",
        seed=5,
        segment_length=max(150, int(300 * SCALE)),
        n_repeats=2,
    )


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
    stream = _make_stream()
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


def _paired_pct(walls, base_walls) -> tuple:
    """Median and quartiles of the per-round overheads, in percent."""
    pcts = [100.0 * (w - b) / b for w, b in zip(walls, base_walls)]
    q1, median, q3 = np.percentile(pcts, [25, 50, 75])
    return round(float(median), 2), [round(float(q1), 2), round(float(q3), 2)]


def run_overheads(workdir: Path) -> dict:
    n_obs = _make_stream().meta.length
    every = max(1, n_obs // 4)  # three mid-run checkpoints
    configs = {
        "baseline": {},
        "metrics": {"metrics": True},
        "checkpoint": {
            "metrics": True, "checkpoint_every": every, "workdir": workdir,
        },
    }
    walls = {name: [] for name in configs}
    for round_index in range(OVERHEAD_ROUNDS):
        order = list(configs)
        if round_index % 2:
            order.reverse()
        results, systems = {}, {}
        for name in order:
            wall, results[name], systems[name] = _run_stream(**configs[name])
            walls[name].append(wall)
        # Instrumentation and checkpoints must not change the run.
        accuracy = results["baseline"].accuracy
        assert results["metrics"].accuracy == accuracy
        assert results["checkpoint"].accuracy == accuracy
    counted = systems["metrics"].metrics.counters["observations"]
    assert counted == n_obs, (counted, n_obs)
    n_saves = systems["checkpoint"].metrics.counters["checkpoints"]
    assert n_saves >= 3, n_saves

    fastest = min(walls["baseline"])
    metrics_pct, metrics_iqr = _paired_pct(walls["metrics"], walls["baseline"])
    ckpt_pct, ckpt_iqr = _paired_pct(walls["checkpoint"], walls["baseline"])
    return {
        "observations": n_obs,
        "baseline_wall_s": round(fastest, 4),
        "obs_per_sec": round(n_obs / fastest, 1),
        "rounds": OVERHEAD_ROUNDS,
        "metrics_overhead_pct": metrics_pct,
        "metrics_overhead_iqr_pct": metrics_iqr,
        "checkpoint_overhead_pct": ckpt_pct,
        "checkpoint_overhead_iqr_pct": ckpt_iqr,
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

    def overhead(name):
        q1, q3 = over[f"{name}_overhead_iqr_pct"]
        return (
            f"{over[f'{name}_overhead_pct']:+.2f}% "
            f"(IQR {q1:+.2f}% to {q3:+.2f}%)"
        )

    return render_table(
        f"Snapshot latency vs repository size ({N_ROUNDS} rounds per cell)",
        ["R", "save ms", "restore ms", "artifact KB"],
        rows,
        notes=(
            f"End-to-end overheads on a {over['observations']}-obs "
            f"recurring stream, medians of {over['rounds']} paired rounds: "
            f"metrics collector {overhead('metrics')}, periodic "
            f"checkpointing ({over['checkpoint_saves']} saves) "
            f"{overhead('checkpoint')}."
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
