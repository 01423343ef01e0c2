"""Benchmark-regression gate: compare fresh BENCH JSONs against baselines.

Usage::

    python benchmarks/check_regression.py \
        --baseline-dir /tmp/bench-baselines \
        --current-dir benchmarks/results \
        --benches fingerprint_throughput system_throughput \
        --tolerance 0.30

Three classes of metric are compared, each within ``--tolerance``:

* ``observations_per_sec`` — absolute throughput (higher is better).
  Meaningful when the baseline was produced on comparable hardware (CI
  snapshots the committed baseline before re-running the benches).
* every ``speedup*`` key found anywhere in the payload — ratios of two
  paths measured in the same process (higher is better), so they are
  machine-independent and catch "the optimisation quietly stopped
  working" regressions even across hardware generations.
* every ``*_ms_per_event`` key found anywhere in the payload —
  absolute per-layer cost (lower is better), e.g. the selection and
  stacking phases of ``BENCH_selection_throughput.json``.

Exits non-zero listing every regressed metric.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple


def _lower_is_better(key: str) -> bool:
    return key.endswith("_ms_per_event")


def iter_metrics(payload: Dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield (dotted-path, value) for every comparable metric."""
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from iter_metrics(value, f"{path}.")
        elif isinstance(value, (int, float)) and (
            key == "observations_per_sec"
            or key.startswith("speedup")
            or _lower_is_better(key)
        ):
            yield path, float(value)


def check_bench(
    baseline_path: Path, current_path: Path, tolerance: float
) -> list:
    baseline = json.loads(baseline_path.read_text())
    current = json.loads(current_path.read_text())
    # Repository-size metadata: absolute throughput is only comparable
    # between runs that exercised the same repository workload, so call
    # out mismatches (scale differences legitimately change these).
    for meta in ("repo_states", "selection_events"):
        if meta in baseline and baseline.get(meta) != current.get(meta):
            print(
                f"  note: {meta} differs (baseline={baseline[meta]} "
                f"current={current.get(meta)}); obs/sec comparison is "
                f"not like-for-like"
            )
    current_metrics = dict(iter_metrics(current))
    failures = []
    for path, base_value in iter_metrics(baseline):
        cur_value = current_metrics.get(path)
        if cur_value is None:
            failures.append(f"{path}: missing from current results")
            continue
        if base_value <= 0:
            continue
        if _lower_is_better(path):
            bound = base_value * (1.0 + tolerance)
            regressed, word, op = cur_value > bound, "ceiling", ">"
        else:
            bound = base_value * (1.0 - tolerance)
            regressed, word, op = cur_value < bound, "floor", "<"
        status = "REGRESSED" if regressed else "ok"
        print(
            f"  {path}: baseline={base_value:.2f} current={cur_value:.2f} "
            f"{word}={bound:.2f} [{status}]"
        )
        if regressed:
            failures.append(
                f"{path}: {cur_value:.2f} {op} {bound:.2f} "
                f"(baseline {base_value:.2f}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=Path, required=True)
    parser.add_argument(
        "--current-dir", type=Path, default=Path(__file__).parent / "results"
    )
    parser.add_argument(
        "--benches",
        nargs="+",
        default=[
            "fingerprint_throughput",
            "system_throughput",
            "selection_throughput",
            "snapshot",
        ],
    )
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)

    all_failures = []
    for bench in args.benches:
        name = f"BENCH_{bench}.json"
        baseline_path = args.baseline_dir / name
        current_path = args.current_dir / name
        print(f"[{bench}]")
        if not baseline_path.exists():
            print(f"  no committed baseline at {baseline_path}; skipping")
            continue
        if not current_path.exists():
            all_failures.append(f"{bench}: no current results at {current_path}")
            continue
        all_failures.extend(check_bench(baseline_path, current_path, args.tolerance))

    if all_failures:
        print("\nBenchmark regressions detected:", file=sys.stderr)
        for failure in all_failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nNo benchmark regressions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
