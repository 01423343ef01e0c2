"""End-to-end FiCSUM throughput: per-observation vs chunked.

A repository-heavy stream (many stored concepts, so every fingerprint
and repository step re-labels the window with R candidate classifiers)
runs through both live entry points of the engine:

* **per_obs** — :meth:`Ficsum.process`, one observation per call;
* **chunked** — :meth:`Ficsum.process_chunk` (event-aligned
  sub-chunks, one vectorised tree routing per sub-chunk, ring-buffer
  block writes).

Both are the same run — the bench asserts that predictions, drift
points and state-id traces agree — so ``speedup_chunked_vs_per_obs``
is pure execution engineering.  The stream recurs over 14 RBF concepts
(the repository grows past 20 states) with the paper's default
repository period and a throughput-tuned fingerprint period (the paper
recommends tuning P_C for runtime; Figure 3 shows the trade-off).
Emits ``BENCH_system_throughput.json`` with per-mode numbers for the
full Table I set and the rolling-capable subset.
"""

from __future__ import annotations

import time

from _harness import SCALE, render_table, save_bench_json, save_table

from repro.core import FicsumConfig
from repro.core.variants import make_ficsum
from repro.evaluation.prequential import prequential_run
from repro.streams.recurrence import RecurrentStream
from repro.streams.synthetic.rbf import rbf_concepts

N_CONCEPTS = 14
N_REPEATS = 2
SEGMENT = max(120, int(220 * min(SCALE, 1.0)))
SEED = 3
CHUNK = 220
MODES = ("per_obs", "chunked")

#: Rolling-capable subset (no EMD/MI batch work) measured for context.
ROLLING_SET = [
    "mean",
    "std",
    "skew",
    "kurtosis",
    "autocorrelation",
    "partial_autocorrelation",
    "turning_point_rate",
]


def build_stream():
    pool = rbf_concepts(N_CONCEPTS, SEED, n_features=10, n_classes=2)
    return RecurrentStream(
        pool, segment_length=SEGMENT, n_repeats=N_REPEATS, seed=SEED,
        name=f"rbf{N_CONCEPTS}",
    )


def run_mode(mode: str, metafeatures):
    cfg = FicsumConfig(
        fingerprint_period=25,
        repository_period=25,
        shapley_max_eval=8,
        drift_warmup_windows=1.5,
        oracle_drift=True,
        track_discrimination=True,
        metafeatures=metafeatures,
    )
    stream = build_stream()
    system = make_ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
    start = time.perf_counter()
    result = prequential_run(
        system, stream, oracle_drift=True,
        chunk_size=(CHUNK if mode == "chunked" else None),
    )
    wall = time.perf_counter() - start
    return result, system, wall


def run_throughput() -> dict:
    results: dict = {}
    for label, selection in (("full-set", None), ("rolling-set", ROLLING_SET)):
        runs = {}
        per_mode: dict = {}
        for mode in MODES:
            result, system, wall = run_mode(mode, selection)
            runs[mode] = (result, system)
            per_mode[mode] = {
                "wall_time_s": round(wall, 4),
                "obs_per_sec": round(result.n_observations / wall, 1),
                "accuracy": round(result.accuracy, 6),
                "n_drifts": result.n_drifts,
                "repository_states": len(system.repository),
                "selection_events": system.selection_events,
            }
        # Both entry points must be the same run, observation for
        # observation — the speedup is engineering, not behaviour.
        (ref_result, ref_system), (result, system) = runs["per_obs"], runs["chunked"]
        assert result.accuracy == ref_result.accuracy, label
        assert result.state_ids == ref_result.state_ids, label
        assert system.drift_points == ref_system.drift_points, label
        per_mode["speedup_chunked_vs_per_obs"] = round(
            per_mode["per_obs"]["wall_time_s"] / per_mode["chunked"]["wall_time_s"], 2
        )
        results[label] = per_mode
    return results


def build_table(results: dict) -> str:
    rows = []
    for label, modes in results.items():
        for mode in MODES:
            m = modes[mode]
            rows.append(
                [
                    label,
                    mode,
                    f"{m['wall_time_s']:.2f}",
                    f"{m['obs_per_sec']:.0f}",
                    str(m["repository_states"]),
                ]
            )
        rows.append(
            [label, "speedup", f"{modes['speedup_chunked_vs_per_obs']:.2f}x", "", ""]
        )
    n_obs = N_CONCEPTS * N_REPEATS * SEGMENT
    return render_table(
        f"End-to-end FiCSUM throughput ({N_CONCEPTS} recurring RBF concepts, "
        f"{n_obs} observations, P_C=P_S=25)",
        ["function set", "mode", "wall s", "obs/s", "repo"],
        rows,
        notes=(
            "per_obs drives Ficsum.process, chunked drives "
            "Ficsum.process_chunk; both produce identical predictions, "
            "drifts and state traces."
        ),
    )


def test_system_throughput(benchmark):
    results = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    save_table("system_throughput.txt", build_table(results))
    full = results["full-set"]
    n_obs = N_CONCEPTS * N_REPEATS * SEGMENT
    save_bench_json(
        "system_throughput",
        extra={
            "wall_time_s": full["chunked"]["wall_time_s"],
            "observations_executed": n_obs,
            "observations_per_sec": full["chunked"]["obs_per_sec"],
            "modes": results,
        },
        repo_states=full["chunked"]["repository_states"],
        selection_events=full["chunked"]["selection_events"],
    )
    # Model-selection cost is only visible with a populated repository.
    assert full["chunked"]["repository_states"] >= 6, results
