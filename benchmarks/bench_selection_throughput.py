"""Model-selection cost vs repository size: stacking and selection phases.

A selection event of Algorithm 1 has two phases, each timed here on a
FiCSUM instance whose repository holds R trained concepts:

* **stacking** — re-labelling the active window under every stored
  classifier and extracting the classifier-dependent fingerprint
  dimensions (``Ficsum._stack_window_fingerprints``: one
  :class:`~repro.classifiers.bank.ClassifierBank` mask descent over all
  R trees, one shared-window pass, one ``extract_partial_many`` over
  the ``(R, W)`` prediction block);
* **selection** — the dynamic-weight refresh plus the lazily gated
  walk over the stacked candidate fingerprints
  (``Ficsum._select_from_fingerprints``: the stack folded into the
  normaliser row by row, one per-row scale + one similarity kernel over
  the repository's fingerprint matrix, then the gates evaluated down
  the descending-similarity order in doubling blocks, one batched
  record re-expression per block).

Sweeps R in {5, 10, 20, 40} and reports the median milliseconds per
event of each phase — the absolute per-layer cost that later changes
move — plus the obs/s of a multi-concept recurring stream run end to
end.  Emits ``BENCH_selection_throughput.json``; the regression gate
compares every ``*_ms_per_event`` key (lower is better).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from _harness import SCALE, render_table, save_bench_json, save_table

from repro.core import Ficsum, FicsumConfig
from repro.core.variants import make_ficsum
from repro.evaluation.prequential import prequential_run
from repro.streams.datasets import make_dataset

R_SWEEP = (5, 10, 20, 40)
#: Timed events per phase and repository size (scaled for CI).
N_EVENTS = max(5, int(round(30 * min(SCALE, 1.0))))
W = 75
N_FEATURES = 8
#: The rolling-capable subset: every component has a vectorised row
#: kernel, so the bench measures the per-candidate fan-out (tree
#: descents, interpreter round trips) rather than heavyweight kernels.
METAFEATURES = [
    "mean",
    "std",
    "skew",
    "kurtosis",
    "autocorrelation",
    "partial_autocorrelation",
    "turning_point_rate",
]


def _concept_window(rng: np.random.Generator, shift: np.ndarray, n: int):
    X = rng.normal(loc=shift, scale=1.0, size=(n, N_FEATURES))
    y = (X[:, 0] > shift[0]).astype(np.int64)
    return X, y


def build_system(R: int) -> Ficsum:
    """A FiCSUM instance whose repository holds R trained concepts.

    Populated deterministically: trained tree classifiers (so routing
    has real structure to descend), >= 4 incorporated fingerprints,
    similarity records with retained pairs, error records, non-active
    fingerprints, a full active window and a warmed normaliser.
    """
    cfg = FicsumConfig(
        window_size=W,
        fingerprint_period=50,
        repository_period=1000,
        oracle_drift=True,
        metafeatures=METAFEATURES,
        max_repository_size=R + 1,
        seed=1,
    )
    system = Ficsum(N_FEATURES, 2, cfg)
    rng = np.random.default_rng(7)
    shifts = rng.normal(scale=2.0, size=(R, N_FEATURES))
    states = [system._active]
    for r in range(1, R):
        states.append(
            system.repository.new_state(
                system.n_dims,
                system._new_classifier(),
                step=r,
                sim_record_samples=cfg.sim_record_samples,
                sim_record_decay=cfg.sim_record_decay,
            )
        )
    for r, state in enumerate(states):
        X, y = _concept_window(rng, shifts[r], 6 * W)
        state.classifier.predict_learn_batch(X, y)
        for k in range(4):
            Xw, yw = _concept_window(rng, shifts[r], W)
            preds = state.classifier.predict_batch(Xw)
            fp = system.pipeline.extract(Xw, yw, preds, state.classifier)
            system.normalizer.update(fp)
            state.fingerprint.incorporate(fp)
            if k:
                sim = system._sim(state.fingerprint.means, fp)
                state.record_similarity(state.fingerprint.means, fp, sim)
            if system._error_dim >= 0:
                state.error_stats.update(float(fp[system._error_dim]))
        Xo, yo = _concept_window(rng, shifts[(r + 1) % R], W)
        preds = state.classifier.predict_batch(Xo)
        fp = system.pipeline.extract(Xo, yo, preds, state.classifier)
        system.normalizer.update(fp)
        state.nonactive.incorporate(fp)
        state.nonactive.incorporate(fp * 1.01)
    # Active window drawn from the active concept.
    Xw, yw = _concept_window(rng, shifts[0], W)
    preds = system._active.classifier.predict_batch(Xw)
    system.window.extend(Xw, yw, preds)
    system._step = 10_000
    system._refresh_weights()
    return system


def _stack_event(system: Ficsum, candidates):
    """One stacking phase on a fresh window identity.

    The step bump gives each event a fresh shared-extraction key, so
    every event pays what a real selection pays: one shared pass plus
    the dependent dimensions of the whole block.
    """
    system._step += 1
    xa, ya, _ = system.window.arrays()
    return system._stack_window_fingerprints(xa, ya, candidates)


def _selection_event(system: Ficsum, candidates, fps):
    """One selection phase: weight refresh + gates/argmax on the stack.

    The step bump gives each event fresh memo keys, exactly as real
    drift-time selections see them.
    """
    system._step += 1
    system._refresh_weights()
    return system._select_from_fingerprints(candidates, fps)


def _median_ms(event) -> float:
    times = []
    for _ in range(N_EVENTS):
        start = time.perf_counter()
        event()
        times.append(time.perf_counter() - start)
    return round(1e3 * statistics.median(times), 4)


def bench_repository_size(R: int) -> dict:
    system = build_system(R)
    candidates = system._candidate_states()
    assert len(candidates) == R, (len(candidates), R)
    # Warm-up: folds the window fingerprints into the normaliser so
    # every timed selection scores against identical, stable ranges.
    fps = _stack_event(system, candidates)
    _selection_event(system, candidates, fps)
    return {
        "stacking_ms_per_event": _median_ms(
            lambda: _stack_event(system, candidates)
        ),
        "selection_ms_per_event": _median_ms(
            lambda: _selection_event(system, candidates, fps)
        ),
    }


def run_stream() -> dict:
    """A multi-concept recurring stream, end to end."""
    cfg = FicsumConfig(
        window_size=40,
        fingerprint_period=4,
        repository_period=20,
        grace_period=30,
        drift_warmup_windows=1.0,
        oracle_drift=True,
        metafeatures=METAFEATURES,
        track_discrimination=True,
    )
    stream = make_dataset(
        "RBF",
        seed=5,
        segment_length=max(90, int(150 * min(SCALE, 1.0))),
        n_repeats=2,
    )
    system = make_ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
    start = time.perf_counter()
    result = prequential_run(system, stream, oracle_drift=True)
    wall = time.perf_counter() - start
    return {
        "wall_time_s": round(wall, 4),
        "observations": result.n_observations,
        "obs_per_sec": round(result.n_observations / wall, 1),
        "n_drifts": result.n_drifts,
        "repository_states": len(system.repository),
        "selection_events": system.selection_events,
    }


def run_sweep() -> dict:
    sweep = {f"r{R}": bench_repository_size(R) for R in R_SWEEP}
    return {"selection": sweep, "stream": run_stream()}


def build_table(results: dict) -> str:
    rows = []
    for R in R_SWEEP:
        m = results["selection"][f"r{R}"]
        rows.append(
            [
                str(R),
                f"{m['stacking_ms_per_event']:.3f}",
                f"{m['selection_ms_per_event']:.3f}",
            ]
        )
    stream = results["stream"]
    return render_table(
        f"Selection-event cost vs repository size "
        f"(median of {N_EVENTS} events per cell)",
        ["R", "stacking ms/event", "selection ms/event"],
        rows,
        notes=(
            "Stacking = bank routing of the active window through every "
            "stored tree + shared and block extraction of the candidate "
            "fingerprints; selection = dynamic-weight refresh + the "
            "lazily gated walk over the stack.  Recurring stream end to end: "
            f"{stream['obs_per_sec']:.0f} obs/s over "
            f"{stream['observations']} observations."
        ),
    )


def test_selection_throughput(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_table("selection_throughput.txt", build_table(results))
    stream = results["stream"]
    save_bench_json(
        "selection_throughput",
        extra={
            "wall_time_s": stream["wall_time_s"],
            "observations_executed": stream["observations"],
            "observations_per_sec": stream["obs_per_sec"],
            "selection": results["selection"],
            "stream": stream,
        },
        repo_states=max(R_SWEEP),
        selection_events=len(R_SWEEP) * N_EVENTS,
    )
    # Selection must stay exercised: the stream stores several concepts.
    assert stream["repository_states"] >= 2, stream
