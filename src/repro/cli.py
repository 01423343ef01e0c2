"""Command-line interface: ``repro <command>`` / ``python -m repro``.

Commands
--------
``run``      one prequential experiment (system x dataset x seed)
``grid``     run a declarative (systems x datasets x seeds) spec
             through the parallel engine, persisting one JSON artifact
             per cell (re-runs skip cells whose artifact exists;
             ``--checkpoint-every`` adds intra-cell crash recovery,
             ``--retries``/``--watchdog``/``--crash-budget`` harden the
             grid against crashing or hanging cells, and a run that
             quarantines cells exits non-zero with a failure table)
``report``   aggregate saved artifacts into a mean (std) table
``snapshot`` run a system partway and write a versioned state snapshot
``inspect``  summarise a snapshot's manifest (schema, hashes, meta)
``metrics``  run with the stats collector / audit log attached and
             print the observability summary
``lint``     run the static invariant checker (RPR rules) over the
             tree; ``--format=github`` emits Actions annotations and
             ``--write-baseline`` grandfathers current findings
``datasets`` list the registered datasets (Table II characteristics)
``systems``  list the registered systems
``features`` list the registered meta-information components

Examples
--------
::

    repro run --system ficsum --dataset STAGGER --seed 1
    repro grid --systems ficsum htcd --datasets STAGGER RBF \
               --seeds 1 2 --workers 4 --results-dir results
    repro grid --spec grid.toml --workers 8 --results-dir results
    repro grid --spec grid.toml --workers 8 --retries 2 --watchdog 300 \
               --checkpoint-every 2000 --checkpoint-keep 3
    repro grid --spec grid.toml --fault-plan chaos.json  # chaos testing
    repro report --results-dir results
    repro snapshot --system ficsum --dataset STAGGER \
                   --observations 5000 --out snap.ckpt
    repro inspect snap.ckpt
    repro metrics --system ficsum --dataset STAGGER --observations 5000
    repro lint src tests benchmarks
    repro lint --list-rules
    repro datasets
    repro features list
    repro run --system ficsum --dataset STAGGER --metafeatures mean std

FiCSUM tunables (``--window-size``, ``--fingerprint-period``,
``--repository-period``, ``--metafeatures``, ``--set field=value``)
default to the paper-tuned :class:`repro.core.FicsumConfig` values and
are rejected for baseline systems, which do not consume a config.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments import (
    Engine,
    ExperimentSpec,
    GridExecutionError,
    aggregate,
    load_artifacts,
)
from repro.registry import system_consumes_config, system_names
from repro.streams.datasets import dataset_info, dataset_names

#: ``repro run`` flags that translate into FicsumConfig fields.
_CONFIG_FLAGS = ("window_size", "fingerprint_period", "repository_period")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FiCSUM reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one prequential experiment")
    run.add_argument("--system", required=True, choices=system_names())
    run.add_argument("--dataset", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--segment-length", type=int, default=None)
    run.add_argument(
        "--n-repeats", type=int, default=None,
        help="concept occurrences (default: the paper protocol, 9)",
    )
    run.add_argument(
        "--window-size", type=int, default=None,
        help="FiCSUM window size w (default: FicsumConfig default)",
    )
    run.add_argument(
        "--fingerprint-period", type=int, default=None,
        help="FiCSUM P_C (default: FicsumConfig default)",
    )
    run.add_argument(
        "--repository-period", type=int, default=None,
        help="FiCSUM P_S (default: FicsumConfig default)",
    )
    run.add_argument(
        "--metafeatures", nargs="+", default=None, metavar="NAME",
        help="meta-information component/group subset (default: all 13)",
    )
    run.add_argument(
        "--oracle", action="store_true",
        help="signal ground-truth drift boundaries (perfect detection)",
    )

    grid = sub.add_parser(
        "grid", help="run an experiment grid through the parallel engine"
    )
    grid.add_argument(
        "--spec", type=Path, default=None,
        help="TOML or JSON ExperimentSpec file (flags below override it)",
    )
    grid.add_argument("--systems", nargs="+", default=None)
    grid.add_argument("--datasets", nargs="+", default=None)
    grid.add_argument("--seeds", nargs="+", type=int, default=None)
    grid.add_argument("--segment-length", type=int, default=None)
    grid.add_argument("--n-repeats", type=int, default=None)
    grid.add_argument("--oracle", action="store_true")
    grid.add_argument(
        "--metafeatures", nargs="+", default=None, metavar="NAME",
        help="meta-feature selection for the FiCSUM family",
    )
    grid.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="FIELD=VALUE",
        help="FicsumConfig override, repeatable (e.g. --set weighting=none)",
    )
    grid.add_argument("--workers", type=int, default=1)
    grid.add_argument(
        "--results-dir", type=Path, default=Path("results"),
        help="artifact directory (default: ./results)",
    )
    grid.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="snapshot in-flight cells every N observations so a "
             "killed grid resumes mid-cell (default: off)",
    )
    grid.add_argument(
        "--checkpoint-keep", type=int, default=1, metavar="N",
        help="retain the last N checkpoints per cell; resume walks "
             "back to the newest verifiable one (default: 1)",
    )
    grid.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-attempts per crashed cell before it is quarantined "
             "(default: 1)",
    )
    grid.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="SECONDS",
        help="base delay before a retry, doubled per attempt "
             "(default: 0)",
    )
    grid.add_argument(
        "--crash-budget", type=int, default=None, metavar="N",
        help="abort the whole grid after N failed attempts "
             "(default: unlimited)",
    )
    grid.add_argument(
        "--watchdog", type=float, default=None, metavar="SECONDS",
        help="kill and requeue worker cells that make no progress for "
             "this long (pool mode only; default: off)",
    )
    grid.add_argument(
        "--fault-plan", type=Path, default=None, metavar="PLAN.json",
        help="arm the deterministic fault-injection plan in this JSON "
             "file (chaos testing)",
    )
    grid.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress"
    )

    report = sub.add_parser(
        "report", help="aggregate saved run artifacts into a table"
    )
    report.add_argument("--results-dir", type=Path, default=Path("results"))
    report.add_argument(
        "--metrics", nargs="+", default=["kappa", "c_f1", "accuracy"],
        help="RunResult fields to summarise (default: kappa c_f1 accuracy)",
    )

    snapshot = sub.add_parser(
        "snapshot", help="run a system partway and write a state snapshot"
    )
    snapshot.add_argument("--system", required=True, choices=system_names())
    snapshot.add_argument("--dataset", required=True)
    snapshot.add_argument("--seed", type=int, default=0)
    snapshot.add_argument("--segment-length", type=int, default=None)
    snapshot.add_argument(
        "--observations", type=int, required=True,
        help="observations to process before snapshotting",
    )
    snapshot.add_argument(
        "--out", type=Path, required=True,
        help="snapshot directory to write (created/replaced atomically)",
    )
    snapshot.add_argument(
        "--chunk-size", type=int, default=None,
        help="drive the system through the chunked path (default: per-obs)",
    )
    snapshot.add_argument("--oracle", action="store_true")

    inspect = sub.add_parser(
        "inspect", help="summarise a snapshot's manifest without loading it"
    )
    inspect.add_argument("path", type=Path, help="snapshot directory")
    inspect.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-file SHA-256 integrity check",
    )

    metrics = sub.add_parser(
        "metrics", help="run with observability attached, print the summary"
    )
    metrics.add_argument("--system", required=True, choices=system_names())
    metrics.add_argument("--dataset", required=True)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--segment-length", type=int, default=None)
    metrics.add_argument(
        "--observations", type=int, default=None,
        help="stop after N observations (default: the full stream)",
    )
    metrics.add_argument(
        "--audit-log", type=Path, default=None,
        help="also append audit events (drifts, transitions, evictions) "
             "to this JSONL file",
    )
    metrics.add_argument("--oracle", action="store_true")

    lint = sub.add_parser(
        "lint", help="run the static invariant checker (RPR rules)"
    )
    lint.add_argument(
        "paths", nargs="*", type=Path,
        help="files/directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--format", choices=["text", "github"], default="text",
        help="text lines or GitHub Actions ::error annotations",
    )
    lint.add_argument(
        "--rules", nargs="+", default=None, metavar="RPRnnn",
        help="run only these rules (default: all registered)",
    )
    lint.add_argument(
        "--baseline", type=Path, default=None,
        help="grandfathered-findings file "
             "(default: .repro-lint-baseline.json if present)",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file (report every finding)",
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and their contracts",
    )

    sub.add_parser("datasets", help="list registered datasets")
    sub.add_parser("systems", help="list registered systems")
    features = sub.add_parser(
        "features", help="list registered meta-information components"
    )
    features.add_argument(
        "action", nargs="?", default="list", choices=["list"],
    )
    return parser


def _parse_overrides(pairs: List[str], parser: argparse.ArgumentParser) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            parser.error(f"--set expects FIELD=VALUE, got {pair!r}")
        field, _, raw = pair.partition("=")
        try:
            overrides[field.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[field.strip()] = raw
    return overrides


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.core import FicsumConfig
    from repro.evaluation import run_on_dataset

    overrides = {
        flag: getattr(args, flag)
        for flag in _CONFIG_FLAGS
        if getattr(args, flag) is not None
    }
    if args.metafeatures is not None:
        overrides["metafeatures"] = args.metafeatures
    config = None
    if system_consumes_config(args.system):
        # Only deviate from the paper-tuned defaults when asked to.
        if overrides:
            try:
                config = FicsumConfig(**overrides)
            except ValueError as exc:
                parser.error(str(exc))
    elif overrides:
        flags = ", ".join("--" + f.replace("_", "-") for f in sorted(overrides))
        parser.error(
            f"{flags}: system {args.system!r} does not consume a FicsumConfig"
        )
    result = run_on_dataset(
        args.system,
        args.dataset,
        seed=args.seed,
        segment_length=args.segment_length,
        n_repeats=args.n_repeats,  # None -> the runner's paper default
        config=config,
        oracle_drift=args.oracle,
    )
    print(f"system    : {args.system}")
    print(f"dataset   : {args.dataset} (seed {args.seed})")
    print(f"accuracy  : {result.accuracy:.4f}")
    print(f"kappa     : {result.kappa:.4f}")
    print(f"C-F1      : {result.c_f1:.4f}")
    print(f"drifts    : {result.n_drifts}")
    print(f"states    : {result.n_states}")
    print(f"runtime   : {result.runtime_s:.2f}s "
          f"({result.n_observations} observations)")
    return 0


def _cmd_grid(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.spec is not None:
        try:
            base = ExperimentSpec.from_file(args.spec).to_dict()
        except (OSError, RuntimeError, ValueError) as exc:
            parser.error(f"--spec {args.spec}: {exc}")
    elif args.systems and args.datasets:
        base = {}
    else:
        parser.error("grid needs either --spec or both --systems and --datasets")
    payload = dict(base)
    if args.systems:
        payload["systems"] = args.systems
    if args.datasets:
        payload["datasets"] = args.datasets
    if args.seeds:
        payload["seeds"] = args.seeds
    if args.segment_length is not None:
        payload["segment_length"] = args.segment_length
    if args.n_repeats is not None:
        payload["n_repeats"] = args.n_repeats
    if args.oracle:
        payload["oracle"] = True
    if args.metafeatures is not None:
        payload["metafeatures"] = args.metafeatures
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    overrides = _parse_overrides(args.overrides, parser)
    if overrides:
        payload["config"] = {**payload.get("config", {}), **overrides}
    try:
        spec = ExperimentSpec.from_dict(payload)
        spec.validate()
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))

    def progress(event) -> None:
        if not args.quiet:
            print(f"[{event.index + 1:>3d}/{event.total}] "
                  f"{event.kind:>6s}  {event.cell.label()}")

    if args.checkpoint_every is not None and args.checkpoint_every < 1:
        parser.error(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    fault_plan = None
    if args.fault_plan is not None:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.from_file(args.fault_plan)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            parser.error(f"--fault-plan {args.fault_plan}: {exc}")
    try:
        engine = Engine(
            results_dir=args.results_dir,
            max_workers=args.workers,
            progress=progress,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            retries=args.retries,
            retry_backoff=args.retry_backoff,
            crash_budget=args.crash_budget,
            watchdog_timeout=args.watchdog,
            fault_plan=fault_plan,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        grid = engine.run(spec)
    except GridExecutionError as exc:
        print(f"grid aborted: {exc}", file=sys.stderr)
        _print_failures(exc.failures)
        return 1
    print(f"spec      : {grid.spec_hash} ({spec.n_cells} cells)")
    print(f"executed  : {grid.n_executed}")
    print(f"cached    : {grid.n_cached}")
    if grid.n_failed:
        print(f"failed    : {grid.n_failed} (quarantined)")
    print(f"wall time : {grid.wall_time_s:.2f}s "
          f"({args.workers} worker{'s' if args.workers != 1 else ''})")
    print(f"artifacts : {args.results_dir}")
    _print_report(grid.artifacts, ["kappa", "c_f1", "accuracy"])
    if grid.failures:
        _print_failures(grid.failures)
        return 1
    return 0


def _print_failures(failures) -> None:
    print(file=sys.stderr)
    print(f"{len(failures)} cell(s) failed:", file=sys.stderr)
    for failure in failures:
        print(f"  {failure.cell.label():40s} "
              f"{failure.error_type:20s} "
              f"after {failure.attempts} attempt(s)", file=sys.stderr)
        print(f"    {failure.error}", file=sys.stderr)
        if failure.quarantine_path is not None:
            print(f"    quarantine: {failure.quarantine_path}",
                  file=sys.stderr)


def _print_report(artifacts, metrics: List[str]) -> None:
    rows = aggregate(artifacts, metrics=metrics)
    if not rows:
        print("no artifacts found")
        return
    # The sketch column only appears when some run used a non-exact
    # profile, so plain exact-only reports keep their familiar shape.
    sketched = any(row.sketch_profile != "exact" for row in rows)
    header = (f"{'system':14s} {'dataset':10s} {'runs':>5s}  "
              + "  ".join(f"{m:>14s}" for m in metrics))
    if sketched:
        header += f"  {'sketch':>8s}  {'Δacc(pp)':>9s}"
    print()
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = "  ".join(
            f"{row.metrics[m][0]:7.3f} ({row.metrics[m][1]:.3f})"
            for m in metrics
        )
        dataset = f"{row.dataset}*" if row.oracle else row.dataset
        line = f"{row.system:14s} {dataset:10s} {row.n_runs:5d}  {cells}"
        if sketched:
            delta = (
                "-" if row.accuracy_delta_pp is None
                else f"{row.accuracy_delta_pp:+.2f}"
            )
            line += f"  {row.sketch_profile:>8s}  {delta:>9s}"
        print(line)
    if any(row.oracle for row in rows):
        print("\n* oracle drift signals (perfect detection)")
    if sketched:
        print("\nΔacc(pp): accuracy delta vs the matching exact-profile "
              "rows (percentage points)")


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    artifacts = load_artifacts(args.results_dir)
    if not artifacts:
        print(f"no artifacts under {args.results_dir}")
        return 1
    bad = [m for m in args.metrics
           if m not in ("kappa", "c_f1", "accuracy", "n_drifts", "n_states",
                        "runtime_s", "n_observations")]
    if bad:
        parser.error(f"unknown metrics: {bad}")
    print(f"{len(artifacts)} artifacts under {args.results_dir}")
    _print_report(artifacts, args.metrics)
    return 0


def _cmd_snapshot(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.evaluation.runner import prepare_run
    from repro.serving.runner import StreamRunner

    if args.observations < 1:
        parser.error(f"--observations must be >= 1, got {args.observations}")
    system, stream = prepare_run(
        args.system,
        args.dataset,
        seed=args.seed,
        segment_length=args.segment_length,
        oracle_drift=args.oracle,
    )
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=args.oracle,
        chunk_size=args.chunk_size,
        keep_history=False,
    )
    result = runner.run(max_observations=args.observations)
    path = runner.save_checkpoint(args.out)
    print(f"system    : {args.system}")
    print(f"dataset   : {args.dataset} (seed {args.seed})")
    print(f"processed : {runner.n_seen} observations"
          + (" (stream exhausted)" if runner.exhausted else ""))
    print(f"accuracy  : {result.accuracy:.4f}")
    print(f"snapshot  : {path}")
    return 0


def _cmd_inspect(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import time as _time

    from repro.serving.manifest import SnapshotError, read_manifest

    try:
        manifest = read_manifest(args.path, verify=not args.no_verify)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    created = _time.strftime(
        "%Y-%m-%d %H:%M:%S", _time.localtime(manifest["created_at"])
    )
    print(f"snapshot  : {args.path}")
    print(f"schema    : version {manifest['schema_version']}")
    print(f"created   : {created}")
    print(f"integrity : {'skipped' if args.no_verify else 'verified (sha256)'}")
    meta = manifest.get("meta", {})
    if meta:
        print("meta      :")
        for key in sorted(meta):
            print(f"  {key:20s} {meta[key]}")
    files = manifest.get("files", {})
    total = sum(info["size"] for info in files.values())
    print(f"files     : {len(files)} ({total} bytes)")
    for name in sorted(files):
        info = files[name]
        print(f"  {name:20s} {info['size']:>10d}  sha256:{info['sha256'][:12]}…")
    return 0


def _cmd_metrics(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.evaluation.runner import prepare_run
    from repro.serving.audit import AuditLog
    from repro.serving.metrics import StatsCollector
    from repro.serving.runner import StreamRunner

    system, stream = prepare_run(
        args.system,
        args.dataset,
        seed=args.seed,
        segment_length=args.segment_length,
        oracle_drift=args.oracle,
    )
    if not hasattr(system, "attach_observability"):
        parser.error(
            f"system {args.system!r} does not expose observability hooks "
            "(only the FiCSUM family does)"
        )
    collector = StatsCollector()
    audit = AuditLog(args.audit_log) if args.audit_log is not None else None
    system.attach_observability(metrics=collector, audit=audit)
    runner = StreamRunner(
        system, stream, oracle_drift=args.oracle, keep_history=False
    )
    result = runner.run(max_observations=args.observations)
    print(f"system    : {args.system}")
    print(f"dataset   : {args.dataset} (seed {args.seed})")
    print(f"processed : {runner.n_seen} observations")
    print(f"accuracy  : {result.accuracy:.4f}  kappa: {result.kappa:.4f}")
    summary = collector.summary()
    if summary["counters"]:
        print("\ncounters:")
        for name, value in summary["counters"].items():
            print(f"  {name:28s} {value:>12d}")
    if summary["gauges"]:
        print("\ngauges:")
        for name, value in summary["gauges"].items():
            print(f"  {name:28s} {value:>12g}")
    if summary["histograms"]:
        print("\nhistograms (seconds):")
        print(f"  {'name':28s} {'count':>8s} {'mean':>10s} "
              f"{'p50':>10s} {'p99':>10s} {'max':>10s}")
        for name, hist in summary["histograms"].items():
            if not hist["count"]:
                continue
            print(f"  {name:28s} {hist['count']:>8d} {hist['mean']:>10.2e} "
                  f"{hist['p50']:>10.2e} {hist['p99']:>10.2e} "
                  f"{hist['max']:>10.2e}")
    if audit is not None:
        print(f"\naudit log : {args.audit_log} ({audit.seq} events)")
    return 0


def _cmd_lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis import (
        DEFAULT_BASELINE,
        RULES,
        load_baseline,
        run_lint,
        save_baseline,
    )

    if args.list_rules:
        for rule_id in RULES.ordered_names():
            rule = RULES[rule_id]
            scope = ", ".join(rule.scope) or "-"
            print(f"{rule_id}  [{scope}]")
            print(f"    {rule.contract}")
        return 0
    paths = args.paths or [Path("src"), Path("tests"), Path("benchmarks")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(f"no such path: {', '.join(str(p) for p in missing)}")
    if args.rules is not None:
        unknown = sorted(set(args.rules) - set(RULES.names()))
        if unknown:
            parser.error(f"unknown rules {unknown}; known: {RULES.names()}")
    baseline_path = args.baseline if args.baseline is not None else DEFAULT_BASELINE
    baseline = set() if args.no_baseline else load_baseline(baseline_path)
    report = run_lint(paths, rules=args.rules, baseline=baseline)
    if args.write_baseline:
        save_baseline(baseline_path, report.findings + report.baselined)
        print(
            f"wrote {len(report.findings) + len(report.baselined)} "
            f"grandfathered finding(s) to {baseline_path}"
        )
        return 0
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    for finding in report.findings:
        print(
            finding.render_github() if args.format == "github"
            else finding.render()
        )
    summary = f"{len(report.findings)} finding(s)"
    if report.baselined:
        summary += f", {len(report.baselined)} baselined"
    if report.stale_baseline:
        summary += (
            f", {report.stale_baseline} stale baseline entr"
            f"{'y' if report.stale_baseline == 1 else 'ies'} "
            "(re-run with --write-baseline to prune)"
        )
    print(summary)
    return 1 if report.findings or report.errors else 0


def _cmd_datasets() -> int:
    print(f"{'name':10s} {'length':>7s} {'feats':>6s} {'ctx':>4s} "
          f"{'classes':>8s}  drift")
    for name in dataset_names():
        spec = dataset_info(name)
        print(
            f"{name:10s} {spec.paper_length:7d} {spec.n_features:6d} "
            f"{spec.n_contexts:4d} {spec.n_classes:8d}  {spec.drift_type}"
        )
    return 0


def _cmd_systems() -> int:
    for name in system_names():
        kind = "ficsum-family" if system_consumes_config(name) else "baseline"
        print(f"{name:30s} {kind}")
    return 0


def _cmd_features() -> int:
    from repro.metafeatures import function_groups
    from repro.registry import METAFEATURES

    groups = {
        name: group
        for group, members in function_groups().items()
        for name in members
    }
    print(f"{'name':18s} {'group':18s} {'update':>12s} {'exact':>6s} "
          f"{'cost':>16s}  flags")
    for name in METAFEATURES.ordered_names():
        component = METAFEATURES[name]
        flags = []
        if component.classifier_dependent:
            flags.append("classifier-dependent")
        if component.needs_classifier:
            flags.append("needs-classifier")
        if component.feature_sources_only:
            flags.append("feature-sources-only")
        if not component.exact and component.exact_reference:
            flags.append(f"sketch-of:{component.exact_reference}")
        update = "incremental" if component.incremental else "batch"
        exact = "yes" if component.exact else "no"
        print(
            f"{name:18s} {groups.get(name, name):18s} {update:>12s} "
            f"{exact:>6s} {component.cost:>16s}  "
            + (", ".join(flags) or "-")
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args, parser)
    if args.command == "grid":
        return _cmd_grid(args, parser)
    if args.command == "report":
        return _cmd_report(args, parser)
    if args.command == "snapshot":
        return _cmd_snapshot(args, parser)
    if args.command == "inspect":
        return _cmd_inspect(args, parser)
    if args.command == "metrics":
        return _cmd_metrics(args, parser)
    if args.command == "lint":
        return _cmd_lint(args, parser)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "features":
        return _cmd_features()
    return _cmd_systems()


if __name__ == "__main__":
    sys.exit(main())
