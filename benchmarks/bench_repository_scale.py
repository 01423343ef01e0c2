"""Big-R model selection: ANN prefilter + tiering vs the exact scan.

The vectorized selection engine (PR 4) is exact O(R·D) per event, plus
an O(R) per-candidate window-fingerprint stack — fine at the paper's
R≈40, hopeless at a million stored concepts.  This bench pins the
repository-scaling layer (``repro.core.store``):

* sweeps repository size R in {100, 1 000, 10 000} of synthetically
  populated concepts (one-leaf Hoeffding trees that saw one
  observation each, clustered fingerprint histories — no tree
  training, so the sweep measures selection, not setup),
* per R, times whole selection events (``_model_select``: candidate
  staging, fingerprint stacking, the lazily gated walk every selection
  runs) in two modes — the exact full scan and the approximate
  shortlist (``ann_exact=False``, which sketches the candidates' stored
  fingerprint-mean rows in one product).  Provable-exactness mode
  (``ann_prefilter`` with ``ann_exact=True``) runs the full scan's walk
  on the same candidates; ``tests/test_repository_scale.py`` pins its
  picks to the full scan's,
* measures shortlist recall in sketch space at every R: the fraction
  of clustered queries whose top-1-by-exact-weighted-cosine candidate
  lands in the k=16 shortlist (the bound
  :class:`~repro.core.store.ProjectionPrefilter` declares),
* runs a small eviction-pressure stream end to end with a
  :class:`~repro.core.store.TieredConceptStore` attached and reports
  the cold-tier hit rate (rehydrations per archived eviction) plus the
  zero-silent-drop invariant.

Asserts the R=10 000 approximate shortlist stays ahead of the exact
full scan (the level of that ratio is held by ``check_regression``'s
gate on the committed baseline) and emits
``BENCH_repository_scale.json`` (per-R latencies, ``speedup_selection``
ratios, recall and tier-hit metadata for like-for-like regression
comparisons).
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
from _harness import SCALE, render_table, save_bench_json, save_table

from repro.classifiers import HoeffdingTree
from repro.core import Ficsum, FicsumConfig, TieredConceptStore
from repro.core.similarity import weighted_cosine_many
from repro.core.store import ProjectionPrefilter
from repro.core.variants import make_ficsum
from repro.evaluation.prequential import prequential_run
from repro.streams.datasets import make_dataset

R_SWEEP = (100, 1_000, 10_000)
#: Timed selection events per (R, mode) cell (scaled for CI).
N_EVENTS = max(3, int(round(5 * min(SCALE, 1.0))))
W = 40
N_FEATURES = 4
#: Cheap component set: big-R selection cost is the per-candidate
#: stacking fan-out, not kernel arithmetic.
METAFEATURES = ["mean", "std"]


def build_system(R: int, *, ann: bool, exact: bool) -> Ficsum:
    """A FiCSUM instance whose repository holds R synthetic concepts.

    Identical population for every mode at a given R: clustered
    fingerprint histories incorporated directly (normaliser warmed on
    the same values), similarity/error records, one-leaf Hoeffding
    trees (FiCSUM stores only trees; the repository's bank stacks all R
    of them for every prediction block, the honest big-R fan-out), a
    full active window.
    """
    cfg = FicsumConfig(
        window_size=W,
        fingerprint_period=50,
        repository_period=10**6,
        oracle_drift=True,
        metafeatures=METAFEATURES,
        max_repository_size=R + 2,
        ann_prefilter=ann,
        ann_exact=exact,
        seed=1,
    )
    system = Ficsum(N_FEATURES, 2, cfg)
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=2.0, size=(R, system.n_dims))
    states = [system._active]
    for r in range(1, R):
        clf = HoeffdingTree(2, N_FEATURES, seed=r)
        clf.learn(np.zeros(N_FEATURES), r % 2)
        states.append(
            system.repository.new_state(
                system.n_dims,
                clf,
                step=r,
                sim_record_samples=cfg.sim_record_samples,
                sim_record_decay=cfg.sim_record_decay,
            )
        )
    for r, state in enumerate(states):
        for k in range(3):
            fp = centers[r] + 0.05 * rng.normal(size=system.n_dims)
            system.normalizer.update(fp)
            state.fingerprint.incorporate(fp)
            if k:
                sim = system._sim(state.fingerprint.means, fp)
                state.record_similarity(state.fingerprint.means, fp, sim)
            if system._error_dim >= 0:
                state.error_stats.update(float(fp[system._error_dim]))
    X = rng.normal(size=(W, N_FEATURES))
    y = (X[:, 0] > 0).astype(np.int64)
    system.window.extend(X, y, system._active.classifier.predict_batch(X))
    system._step = 10_000
    system._refresh_weights()
    # Fold the real window fingerprint into the normaliser so every
    # mode scores against the same ranges.
    xa, ya, _ = system.window.arrays()
    system.normalizer.update(system._window_fingerprint(xa, ya, system._active))
    return system


def _selection_event(system: Ficsum):
    """One whole selection event."""
    return system._model_select()


def bench_repository_size(R: int) -> dict:
    modes = {
        "exact": build_system(R, ann=False, exact=True),
        "approximate": build_system(R, ann=True, exact=False),
    }
    timings = {}
    for mode, system in modes.items():
        _selection_event(system)  # warm-up
        start = time.perf_counter()
        for _ in range(N_EVENTS):
            _selection_event(system)
        timings[mode] = (time.perf_counter() - start) / N_EVENTS
    return {
        "exact_ms_per_event": round(1e3 * timings["exact"], 4),
        "approximate_ms_per_event": round(
            1e3 * timings["approximate"], 4
        ),
        "speedup_selection": round(
            timings["exact"] / timings["approximate"], 2
        ),
        "recall_shortlist": measure_recall(R),
    }


def measure_recall(R: int, k: int = 16, n_queries: int = 24) -> float:
    """Sketch-space shortlist recall on a clustered R-sized population.

    Recall = fraction of queries whose top-1 candidate under the exact
    weighted cosine over fingerprint means lands in the k-sketch
    shortlist — the declared ProjectionPrefilter bound, measured at
    bench scale rather than the test harness's small populations.
    """
    rng = np.random.default_rng(R)
    n_centers = max(8, R // 50)
    centers = rng.normal(size=(n_centers, 24))
    members = np.repeat(centers, (R + n_centers - 1) // n_centers, axis=0)
    members = (members + 0.05 * rng.normal(size=members.shape))[:R]
    queries = centers[rng.integers(0, n_centers, size=n_queries)]
    queries = queries + 0.05 * rng.normal(size=queries.shape)
    prefilter = ProjectionPrefilter(24, 32, seed=1)
    sketches = prefilter.sketch_rows(members)
    hits = 0
    for query in queries:
        exact = weighted_cosine_many(np.ascontiguousarray(members), query)
        scores = prefilter.scores(sketches, prefilter.sketch(query))
        top = np.argpartition(-scores, k - 1)[:k]
        hits += int(np.argmax(exact)) in top
    return round(hits / n_queries, 4)


def run_tier_scenario() -> dict:
    """Eviction-pressure stream with a cold tier attached end to end.

    The stream length does not follow ``REPRO_SCALE``: the scenario
    measures tier behaviour (evictions archived, rehydrations), and
    shorter segments never overflow the 3-state repository.
    """
    cfg = FicsumConfig(
        window_size=W,
        fingerprint_period=4,
        repository_period=20,
        grace_period=30,
        drift_warmup_windows=1.0,
        oracle_drift=False,
        metafeatures=[
            "mean",
            "std",
            "skew",
            "kurtosis",
            "autocorrelation",
            "partial_autocorrelation",
            "turning_point_rate",
        ],
        max_repository_size=3,
        ann_prefilter=True,
    )
    stream = make_dataset("RBF", seed=5, segment_length=150, n_repeats=4)
    system = make_ficsum(stream.meta.n_features, stream.meta.n_classes, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        store = TieredConceptStore(Path(tmp) / "tier")
        system.attach_tier_store(store)
        start = time.perf_counter()
        result = prequential_run(system, stream, oracle_drift=False)
        wall = time.perf_counter() - start
        assert store.writes > 0, "tier scenario must evict"
        assert system.repository.evicted_dropped == 0
        return {
            "wall_time_s": round(wall, 4),
            "observations": result.n_observations,
            "obs_per_sec": round(result.n_observations / wall, 1),
            "evictions_archived": store.writes,
            "rehydrated": store.rehydrated,
            "cold_hit_rate": round(store.rehydrated / store.writes, 4),
        }


def run_sweep() -> dict:
    sweep = {f"r{R}": bench_repository_size(R) for R in R_SWEEP}
    tier = run_tier_scenario()
    return {"selection": sweep, "tier": tier}


def build_table(results: dict) -> str:
    rows = []
    for R in R_SWEEP:
        m = results["selection"][f"r{R}"]
        rows.append(
            [
                str(R),
                f"{m['exact_ms_per_event']:.2f}",
                f"{m['approximate_ms_per_event']:.2f}",
                f"{m['speedup_selection']:.1f}x",
                f"{m['recall_shortlist']:.3f}",
            ]
        )
    return render_table(
        f"Selection latency vs repository size "
        f"({N_EVENTS} events per cell)",
        ["R", "exact ms", "approx ms", "speedup", "recall"],
        rows,
        notes=(
            "Exact = full scan: every candidate stacked, then the lazily "
            "gated walk; approx = k=16 shortlist of the sketched stored "
            "rows before stacking.  Recall "
            "is the declared sketch-space bound measured on a clustered "
            "population of the same R."
        ),
    )


def test_repository_scale(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    save_table("repository_scale.txt", build_table(results))
    tier = results["tier"]
    headline = results["selection"]["r10000"]["speedup_selection"]
    for R in R_SWEEP:
        assert results["selection"][f"r{R}"]["recall_shortlist"] >= 0.9
    save_bench_json(
        "repository_scale",
        extra={
            "wall_time_s": tier["wall_time_s"],
            "observations_executed": tier["observations"],
            "observations_per_sec": tier["obs_per_sec"],
            "speedup_selection_r10000": headline,
            "selection": results["selection"],
            "tier": tier,
        },
        repo_states=max(R_SWEEP),
        selection_events=len(R_SWEEP) * 2 * N_EVENTS,
    )
    # The shortlist must stay ahead of the full scan at a 10 000-state
    # repository; the ratio's level is gated by check_regression
    # against the committed baseline (the full scan runs the same lazily
    # gated walk, so the ratio moves with it).
    assert headline > 1.0, results["selection"]
