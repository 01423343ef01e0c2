"""Scenario: auditing which meta-information features see a drift.

A plant operator streams multivariate sensor data whose *feature
behaviour* changes between operating regimes (the labelling stays
fixed) — the paper's Synth D/A/F setting.  This example injects each
drift type in turn, extracts fingerprints before and after the change,
and reports which meta-information functions move — the per-function
story behind Table V, and a practical recipe for choosing features
with the library's public fingerprint pipeline.

Run:  python examples/sensor_drift_audit.py
"""

from __future__ import annotations

import numpy as np

from repro.classifiers import HoeffdingTree
from repro.metafeatures import FUNCTION_NAMES, FingerprintPipeline
from repro.streams.synthetic import RandomTreeConcept
from repro.streams.transforms import DriftingConcept, FeatureDrift


def collect_window(concept, classifier, rng, size=150):
    xs, ys, preds = [], [], []
    for _ in range(size):
        x, y = concept.sample(rng)
        preds.append(classifier.predict(x))
        classifier.learn(x, y)
        xs.append(x)
        ys.append(y)
    return np.stack(xs), np.array(ys), np.array(preds)


def function_shift(pipeline, fp_before, fp_after):
    """Mean |change| per meta-information function across sources."""
    shifts = {}
    before = np.abs(fp_before)
    scale = np.maximum(np.abs(fp_before), 1e-3)
    rel = np.abs(fp_after - fp_before) / scale
    for fn in pipeline.schema.function_names:
        dims = [
            i
            for i, (_, f) in enumerate(pipeline.schema.dims)
            if f == fn
        ]
        shifts[fn] = float(np.mean(rel[dims]))
    return shifts


def main() -> None:
    rng = np.random.default_rng(7)
    base = RandomTreeConcept(seed=11, n_features=5)
    pipeline = FingerprintPipeline(n_features=5)

    drift_kinds = {
        "distribution": dict(distribution=True),
        "autocorrelation": dict(autocorrelation=True),
        "frequency": dict(frequency=True),
    }

    print("relative fingerprint shift per meta-information function")
    print(f"{'function':28s}" + "".join(f"{k[:12]:>14s}" for k in drift_kinds))
    rows = {fn: [] for fn in FUNCTION_NAMES}
    for kind, flags in drift_kinds.items():
        classifier = HoeffdingTree(n_classes=2, n_features=5, grace_period=30)
        xs, ys, preds = collect_window(base, classifier, rng)
        fp_before = pipeline.extract(xs, ys, preds, classifier)

        drifted = DriftingConcept(
            base, FeatureDrift.random(rng, 5, intensity=1.5, **flags)
        )
        xs, ys, preds = collect_window(drifted, classifier, rng)
        fp_after = pipeline.extract(xs, ys, preds, classifier)

        for fn, shift in function_shift(pipeline, fp_before, fp_after).items():
            rows[fn].append(shift)

    for fn in FUNCTION_NAMES:
        values = "".join(f"{v:14.3f}" for v in rows[fn])
        print(f"{fn:28s}{values}")

    print(
        "\nReading the table: distribution drift moves the moment "
        "functions (mean/std/skew/kurtosis); autocorrelation drift moves "
        "acf/pacf; a frequency overlay moves mutual information, "
        "turning-point rate and the IMF entropies — no single function "
        "covers all three, which is the argument for the combined "
        "fingerprint (paper Table V)."
    )


if __name__ == "__main__":
    main()
