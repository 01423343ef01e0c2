"""Chaos suite: deterministic fault injection and the hardening it pins.

Four layers, mirroring :mod:`repro.faults`:

* plan/injector semantics — declarative specs validate, round-trip and
  fire identically under the same seed (the chaos-matrix determinism
  contract),
* data-plane degradation — observation guard policies and label-outage
  windows driven through :class:`~repro.serving.runner.StreamRunner`,
  per observation and in chunks, each fault keyed by stream position,
* snapshot fallback — corrupt checkpoints are skipped for older
  verifiable chain entries, and resumed traces stay bit-for-bit
  identical to uninterrupted runs (the equivalence harness pins this),
* engine hardening — crashing/hanging cells are retried, quarantined
  or watchdog-killed while the rest of the grid completes, and the
  ``repro grid`` CLI reports failures with a non-zero exit.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from equivalence import RunTrace, assert_identical_traces, build_system
from repro.cli import main as cli_main
from repro.core.similarity import sim_fast
from repro.experiments import (
    Engine,
    ExperimentSpec,
    GridExecutionError,
)
from repro.faults import (
    FAULT_KINDS,
    INJECTION_SITES,
    DataValidationError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    ObservationGuard,
    corrupt_snapshot,
)
from repro.serving.audit import read_audit_log
from repro.serving.manifest import SnapshotError
from repro.serving.metrics import StatsCollector
from repro.serving.runner import StreamRunner, checkpoint_chain

FAST = dict(segment_length=60, n_repeats=1)

#: 12 cells: 2 systems x 2 datasets x 3 seeds, all cheap baselines.
SPEC_12 = ExperimentSpec(
    systems=["htcd", "dwm"],
    datasets=["STAGGER", "CMC"],
    seeds=[1, 2, 3],
    **FAST,
)


def crash_plan(*labels: str, attempts=None, seed: int = 7) -> FaultPlan:
    """Permanent (or attempt-bounded) worker crashes for matched cells."""
    return FaultPlan(
        seed=seed,
        specs=tuple(
            FaultSpec(kind="worker_crash", match=label, attempts=attempts)
            for label in labels
        ),
    )


# ----------------------------------------------------------------------
# Plans and specs
# ----------------------------------------------------------------------
class TestFaultSpecs:
    def test_kind_site_map_is_total(self):
        assert set(FAULT_KINDS.values()) == set(INJECTION_SITES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    def test_stall_requires_at_step_and_defaults_single_fire(self):
        with pytest.raises(ValueError, match="requires at_step"):
            FaultSpec(kind="stream_stall")
        assert FaultSpec(kind="stream_stall", at_step=5).max_fires == 1

    def test_outage_requires_window(self):
        with pytest.raises(ValueError, match="window"):
            FaultSpec(kind="label_outage")
        with pytest.raises(ValueError, match="empty fault window"):
            FaultSpec(kind="label_outage", window=(10, 10))

    def test_modes_validated_and_defaulted(self):
        assert FaultSpec(kind="bad_observation").mode == "nan"
        assert FaultSpec(kind="snapshot_corrupt").mode == "truncate"
        with pytest.raises(ValueError, match="mode"):
            FaultSpec(kind="bad_observation", mode="gamma_ray")

    def test_plan_round_trips_through_dict_and_file(self, tmp_path):
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(kind="worker_crash", match="seed 2", attempts=1),
                FaultSpec(kind="label_outage", window=(100, 150)),
                FaultSpec(kind="bad_observation", probability=0.25),
            ),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_file(path) == plan

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"kind": "worker_crash", "blast_radius": 3})


class TestInjectorDeterminism:
    PROB_PLAN = FaultPlan(
        seed=11,
        specs=(FaultSpec(kind="bad_observation", probability=0.3),),
    )

    def fired_steps(self, scope: str):
        injector = FaultInjector(self.PROB_PLAN, scope=scope)
        for step in range(200):
            injector.fire("stream.observation", step=step)
        return [record["step"] for record in injector.fired]

    def test_same_seed_and_scope_fire_identically(self):
        a, b = self.fired_steps("cell-1"), self.fired_steps("cell-1")
        assert a == b and 20 < len(a) < 100  # ~30% of 200

    def test_scopes_decorrelate(self):
        assert self.fired_steps("cell-1") != self.fired_steps("cell-2")

    def test_unknown_site_rejected(self):
        injector = FaultInjector(FaultPlan(seed=0))
        with pytest.raises(ValueError, match="unknown injection site"):
            injector.fire("made.up")

    def test_context_matching_ignores_rng(self):
        # Crash verdicts depend only on (label, attempt) — two injectors
        # with different scopes (different RNG streams) agree exactly.
        plan = crash_plan("seed 2", attempts=1)
        for scope in ("worker-a", "worker-b"):
            injector = FaultInjector(plan, scope=scope)
            assert injector.fire("engine.cell", label="htcd x CMC (seed 2)", attempt=0)
            assert not injector.fire("engine.cell", label="htcd x CMC (seed 2)", attempt=1)
            assert not injector.fire("engine.cell", label="htcd x CMC (seed 1)", attempt=0)

    def test_max_fires_and_window(self):
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(kind="bad_observation", max_fires=2, window=(5, 50)),
            ),
        )
        injector = FaultInjector(plan)
        fired = [
            step
            for step in range(100)
            if injector.fire("stream.observation", step=step)
        ]
        assert fired == [5, 6]

    def test_every_fire_counted_and_audited(self, tmp_path):
        metrics = StatsCollector()
        audit_path = tmp_path / "audit.jsonl"
        from repro.serving.audit import AuditLog

        injector = FaultInjector(
            FaultPlan(seed=0, specs=(FaultSpec(kind="stream_stall", at_step=3),)),
            metrics=metrics,
            audit=AuditLog(audit_path),
        )
        for step in range(6):
            injector.fire("stream.stall", step=step)
        assert injector.n_fired == 1
        assert metrics.counters["faults.fired"] == 1
        assert metrics.counters["faults.stream_stall"] == 1
        events = read_audit_log(audit_path)
        assert [e["event"] for e in events] == ["fault_injected"]
        assert events[0]["kind"] == "stream_stall"


# ----------------------------------------------------------------------
# Observation guard
# ----------------------------------------------------------------------
class TestObservationGuard:
    def test_raise_policy(self):
        guard = ObservationGuard("raise")
        with pytest.raises(DataValidationError, match="non-finite"):
            guard.inspect(np.array([1.0, np.nan]), 2, step=0)
        with pytest.raises(DataValidationError, match="shape"):
            guard.inspect(np.array([1.0, 2.0, 3.0]), 2, step=1)

    def test_skip_policy_counts_and_quarantines(self):
        guard = ObservationGuard("skip")
        verdict, _ = guard.inspect(np.array([np.inf, 0.0]), 2, step=0)
        assert verdict == "skip"
        verdict, _ = guard.inspect(np.array([1.0, 2.0]), 2, step=1)
        assert verdict == "ok"
        assert guard.n_checked == 2 and guard.n_quarantined == 1

    def test_impute_from_last_good(self):
        guard = ObservationGuard("impute")
        verdict, x = guard.inspect(np.array([np.nan, 5.0]), 2, step=0)
        assert verdict == "ok" and x[0] == 0.0  # nothing seen yet
        guard.inspect(np.array([7.0, 8.0]), 2, step=1)
        verdict, x = guard.inspect(np.array([np.nan, 9.0]), 2, step=2)
        assert verdict == "ok" and x[0] == 7.0 and guard.n_imputed == 2

    def test_wrong_dim_not_imputable(self):
        guard = ObservationGuard("impute")
        verdict, _ = guard.inspect(np.array([1.0, 2.0, 3.0]), 2, step=0)
        assert verdict == "skip" and guard.n_quarantined == 1

    def test_state_round_trip(self):
        guard = ObservationGuard("impute")
        guard.inspect(np.array([7.0, 8.0]), 2, step=0)
        guard.inspect(np.array([np.nan, 1.0]), 2, step=1)
        twin = ObservationGuard("impute")
        twin.load_state_dict(guard.state_dict())
        assert twin.n_checked == 2 and twin.n_imputed == 1
        np.testing.assert_array_equal(twin._last_good, guard._last_good)


# ----------------------------------------------------------------------
# Stream-site faults through the runner
# ----------------------------------------------------------------------
def make_runner(plan=None, guard=None, overrides=None, **runner_kwargs):
    system, stream = build_system(overrides)
    faults = FaultInjector(plan) if plan is not None else None
    runner = StreamRunner(
        system,
        stream,
        oracle_drift=system.config.oracle_drift,
        faults=faults,
        guard=guard,
        **runner_kwargs,
    )
    return runner


def clean_total() -> int:
    return make_runner().run().n_observations


def loop_outage_choice(system) -> int:
    """The state an outage check switches to (the active one when it
    keeps it), decided by a per-state ``sim_fast`` loop.

    The degraded selection as it read before its candidates were
    scored in one batch: the first strictly greatest masked
    similarity, taken only when it beats the active concept's.
    """
    active_id = system.active_state_id
    mask = system._outage_dims
    candidates = [
        s for s in system.repository.states() if s.fingerprint.count >= 2
    ]
    if not mask.any() or len(candidates) < 2:
        return active_id
    xa, ya, la = system._outage_window.arrays()
    rng_state = system.pipeline._rng.bit_generator.state
    fp = system.pipeline.extract(xa, ya, la, system._active.classifier)
    system.pipeline._rng.bit_generator.state = rng_state
    scaled_fp = system.normalizer.scale(np.where(mask, fp, 0.0))
    weights = system._weights * mask
    best, best_sim, active_sim = None, -np.inf, None
    for state in candidates:
        sim = sim_fast(
            system.normalizer.scale(state.fingerprint.means), scaled_fp, weights
        )
        if state.state_id == active_id:
            active_sim = sim
        if sim > best_sim:
            best, best_sim = state, sim
    if best is None or (active_sim is not None and best_sim <= active_sim):
        return active_id
    return best.state_id


class TestRunnerFaults:
    #: ``None`` runs per observation; the ``Chunked`` twin runs chunks.
    CHUNK_SIZE = None

    def runner(self, plan=None, guard=None, **runner_kwargs):
        return make_runner(
            plan, guard, chunk_size=self.CHUNK_SIZE, **runner_kwargs
        )

    def test_bad_observation_reaches_guard(self):
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(kind="bad_observation", window=(10, 11)),),
        )
        with pytest.raises(DataValidationError, match="step 10"):
            self.runner(plan, guard=ObservationGuard("raise")).run()

    def test_skip_policy_drops_and_completes(self):
        total = clean_total()
        # Dropped observations advance the step (it is the stream
        # index), so a three-step window drops three observations.
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(kind="bad_observation", window=(10, 13)),),
        )
        guard = ObservationGuard("skip")
        runner = self.runner(plan, guard=guard)
        result = runner.run()
        assert runner.n_dropped == 3 == guard.n_quarantined
        assert result.n_observations == total - 3

    def test_impute_policy_completes_full_stream(self):
        total = clean_total()
        plan = FaultPlan(
            seed=0,
            specs=(FaultSpec(kind="bad_observation", window=(10, 13)),),
        )
        guard = ObservationGuard("impute")
        runner = self.runner(plan, guard=guard)
        result = runner.run()
        assert guard.n_imputed == 3 and runner.n_dropped == 0
        assert result.n_observations == total

    def test_stall_pauses_then_resumes_bit_for_bit(self):
        baseline = self.runner()
        expected = RunTrace(baseline.run(), baseline.system)
        plan = FaultPlan(
            seed=0, specs=(FaultSpec(kind="stream_stall", at_step=100),)
        )
        runner = self.runner(plan)
        first = runner.run()
        assert runner.stalled and first.n_observations == 100
        result = runner.run()
        assert not runner.stalled
        assert_identical_traces(RunTrace(result, runner.system), expected)


class TestRunnerFaultsChunked(TestRunnerFaults):
    CHUNK_SIZE = 16


class TestLabelOutage:
    WINDOW = (120, 180)
    #: ``None`` runs per observation; the ``Chunked`` twin runs chunks.
    CHUNK_SIZE = None

    def runner(self, plan=None, **runner_kwargs):
        return make_runner(plan, chunk_size=self.CHUNK_SIZE, **runner_kwargs)

    def outage_plan(self, window=WINDOW):
        return FaultPlan(
            seed=0,
            specs=(FaultSpec(kind="label_outage", window=window),),
        )

    def test_capable_system_degrades_and_recovers(self):
        total = clean_total()
        runner = self.runner(self.outage_plan())
        metrics = StatsCollector()
        runner.system.attach_observability(metrics=metrics)
        result = runner.run()
        # Every observation is still scored (labels are withheld from
        # the system, not from the evaluator).
        assert result.n_observations == total
        assert runner.n_dropped == 0
        assert not runner.system.in_label_outage
        assert metrics.counters["outage.begun"] == 1
        assert metrics.counters["outage.ended"] == 1
        assert metrics.counters["observations.unlabeled"] == (
            self.WINDOW[1] - self.WINDOW[0]
        )

    def test_unsupervised_selection_runs_during_outage(self):
        # An outage after two concept boundaries (drifts at 150 and
        # 300 on this stream): the repository holds enough fingerprinted
        # states for the masked matcher to get checked (and counted),
        # whether or not it ever switches.
        runner = self.runner(self.outage_plan((320, 460)))
        metrics = StatsCollector()
        runner.system.attach_observability(metrics=metrics)
        runner.run()
        assert metrics.counters.get("outage.checks", 0) > 0

    def test_batched_outage_selection_matches_state_loop(self):
        """Every outage check of a stream whose outage spans a concept
        boundary picks the state the per-state loop picks, and at least
        one check switches."""
        runner = self.runner(self.outage_plan((430, 600)))
        system = runner.system
        batched = system._outage_selection
        switches = []

        def checked():
            before, expected = system.active_state_id, loop_outage_choice(system)
            batched()
            assert system.active_state_id == expected
            switches.append(expected != before)

        system._outage_selection = checked
        runner.run()
        assert len(switches) > 0 and any(switches)
        assert system.outage_selections == sum(switches)

    def assert_incapable_system_drops(self, window):
        from repro.evaluation.runner import prepare_run

        def pair():
            return prepare_run("htcd", "STAGGER", seed=1, **FAST)

        system, stream = pair()
        total = StreamRunner(
            system, stream, chunk_size=self.CHUNK_SIZE
        ).run().n_observations
        system, stream = pair()
        runner = StreamRunner(
            system,
            stream,
            chunk_size=self.CHUNK_SIZE,
            faults=FaultInjector(self.outage_plan(window)),
        )
        result = runner.run()
        width = window[1] - window[0]
        assert runner.n_dropped == width
        assert result.n_observations == total - width

    def test_incapable_system_drops_outage_window(self):
        self.assert_incapable_system_drops(self.WINDOW)

    def test_incapable_system_drops_mid_stream_outage(self):
        # The window closes before the stream ends: labels return only
        # if dropped observations advance the step.
        self.assert_incapable_system_drops((30, 50))

    def test_outage_state_survives_snapshot(self, tmp_path):
        runner = self.runner(
            self.outage_plan(),
            checkpoint_path=tmp_path / "ck",
            checkpoint_every=50,
        )
        runner.run(150)  # inside the outage window
        assert runner.system.in_label_outage
        system, stream = build_system()
        resumed = StreamRunner.restore(
            tmp_path / "ck",
            stream,
            faults=FaultInjector(self.outage_plan()),
        )
        assert resumed._in_outage or resumed.n_seen < self.WINDOW[0]
        final = resumed.run()
        baseline = self.runner(self.outage_plan())
        expected = baseline.run()
        assert final.accuracy == expected.accuracy
        assert final.state_ids == expected.state_ids


class TestLabelOutageChunked(TestLabelOutage):
    CHUNK_SIZE = 16


@pytest.mark.parametrize("chunk_size", [None, 1, 4, 16])
def test_stream_faults_fire_at_stream_index(chunk_size):
    """Each stream fault fires once at the stream position it names:
    dropped observations advance the step, and buffered ones count
    before they are processed."""
    from repro.evaluation.runner import prepare_run

    def run(spec, guard=None):
        system, stream = prepare_run("htcd", "STAGGER", seed=1, **FAST)
        faults = FaultInjector(FaultPlan(seed=0, specs=(spec,)))
        runner = StreamRunner(
            system, stream, chunk_size=chunk_size, faults=faults, guard=guard
        )
        runner.run()
        return runner, [record["step"] for record in faults.fired]

    runner, fired = run(
        FaultSpec(kind="bad_observation", window=(10, 11)),
        guard=ObservationGuard("skip"),
    )
    assert fired == [10]
    assert runner.n_dropped == 1 and runner.n_seen == 179
    runner, _ = run(FaultSpec(kind="label_outage", window=(10, 30)))
    assert runner.n_dropped == 20 and runner.n_seen == 160
    runner, fired = run(FaultSpec(kind="stream_stall", at_step=10))
    assert fired == [10]
    assert runner.stalled and runner.n_seen == 10


# ----------------------------------------------------------------------
# Snapshot corruption and the fallback chain
# ----------------------------------------------------------------------
class TestSnapshotFallback:
    def checkpointed_runner(self, tmp_path, keep=3, plan=None):
        return make_runner(
            plan,
            checkpoint_path=tmp_path / "chain",
            checkpoint_every=50,
            keep_checkpoints=keep,
        )

    @pytest.mark.parametrize(
        "mode", ["truncate", "tamper", "version", "unmanifest"]
    )
    def test_corrupt_modes_all_fail_verification(self, tmp_path, mode):
        runner = make_runner(checkpoint_path=tmp_path / "one")
        runner.run(60)
        runner.save_checkpoint()
        corrupt_snapshot(tmp_path / "one", mode)
        system, stream = build_system()
        with pytest.raises(SnapshotError):
            StreamRunner.restore(tmp_path / "one", stream)

    def test_chain_retains_and_prunes(self, tmp_path):
        runner = self.checkpointed_runner(tmp_path, keep=2)
        runner.run()
        chain = checkpoint_chain(tmp_path / "chain")
        assert len(chain) == 2
        assert chain[0].name > chain[1].name  # newest first

    def test_fallback_walks_past_corrupt_newest(self, tmp_path):
        baseline = make_runner()
        expected = RunTrace(baseline.run(), baseline.system)
        runner = self.checkpointed_runner(tmp_path)
        runner.run(170)  # checkpoints at 50, 100, 150
        chain = checkpoint_chain(tmp_path / "chain")
        assert len(chain) == 3
        corrupt_snapshot(chain[0], "truncate")
        system, stream = build_system()
        audit_path = tmp_path / "audit.jsonl"
        from repro.serving.audit import AuditLog

        metrics = StatsCollector()
        resumed = StreamRunner.restore_latest(
            tmp_path / "chain",
            stream,
            audit=AuditLog(audit_path),
        )
        resumed.system.attach_observability(metrics=metrics)
        assert resumed.n_seen == 100  # fell back one entry
        result = resumed.run()
        assert_identical_traces(RunTrace(result, resumed.system), expected)
        fallbacks = [
            e for e in read_audit_log(audit_path)
            if e["event"] == "snapshot_fallback"
        ]
        assert len(fallbacks) == 1 and "ckpt-" in fallbacks[0]["path"]

    def test_all_corrupt_raises_with_every_error(self, tmp_path):
        runner = self.checkpointed_runner(tmp_path, keep=2)
        runner.run(120)
        chain = checkpoint_chain(tmp_path / "chain")
        for entry in chain:
            corrupt_snapshot(entry, "tamper")
        system, stream = build_system()
        with pytest.raises(SnapshotError, match="no verifiable checkpoint"):
            StreamRunner.restore_latest(tmp_path / "chain", stream)

    def test_injected_save_corruption_and_load_rejection(self, tmp_path):
        # snapshot_corrupt damages the newest entry as it lands;
        # snapshot_reject makes restore skip the next one too.
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    kind="snapshot_corrupt",
                    match="ckpt-000000000150",
                    mode="tamper",
                ),
            ),
        )
        runner = self.checkpointed_runner(tmp_path, plan=plan)
        runner.run(170)
        assert runner.faults.n_fired == 1
        system, stream = build_system()
        reject = FaultInjector(
            FaultPlan(
                seed=0,
                specs=(
                    FaultSpec(kind="snapshot_reject", match="ckpt-000000000100"),
                ),
            )
        )
        resumed = StreamRunner.restore_latest(
            tmp_path / "chain", stream, faults=reject
        )
        assert resumed.n_seen == 50  # tampered 150 + rejected 100


# ----------------------------------------------------------------------
# Engine hardening
# ----------------------------------------------------------------------
class TestEngineHardening:
    CRASH_TWO = crash_plan("htcd x STAGGER (seed 1)", "dwm x CMC (seed 3)")

    def test_partial_grid_with_quarantine(self, tmp_path):
        events = []
        engine = Engine(
            results_dir=tmp_path,
            fault_plan=self.CRASH_TWO,
            progress=lambda e: events.append((e.kind, e.cell.label())),
        )
        grid = engine.run(SPEC_12)
        assert grid.n_failed == 2
        assert len(grid.artifacts) == 10
        assert grid.n_executed == 10
        failed_labels = {f.cell.label() for f in grid.failures}
        assert failed_labels == {
            "htcd x STAGGER (seed 1)",
            "dwm x CMC (seed 3)",
        }
        for failure in grid.failures:
            assert failure.error_type == "InjectedFault"
            assert failure.attempts == 2  # initial + default 1 retry
            record = json.loads(Path(failure.quarantine_path).read_text())
            assert record["key"] == failure.key
            assert len(record["errors"]) == 2
        assert [k for k, _ in events].count("retry") == 2
        with pytest.raises(GridExecutionError) as excinfo:
            grid.raise_on_failure()
        for label in failed_labels:
            assert label in str(excinfo.value)

    def test_chaos_matrix_is_deterministic(self, tmp_path):
        grids = []
        for sub in ("a", "b"):
            engine = Engine(
                results_dir=tmp_path / sub, fault_plan=self.CRASH_TWO
            )
            grids.append(engine.run(SPEC_12))
        a, b = grids
        assert [f.key for f in a.failures] == [f.key for f in b.failures]
        assert [f.attempts for f in a.failures] == [
            f.attempts for f in b.failures
        ]

    def test_transient_crash_absorbed_by_retry(self, tmp_path):
        plan = crash_plan("htcd x STAGGER (seed 1)", attempts=1)
        grid = Engine(results_dir=tmp_path, fault_plan=plan).run(SPEC_12)
        assert grid.n_failed == 0
        assert len(grid.artifacts) == 12

    def test_on_failure_raise_names_all_cells(self, tmp_path):
        engine = Engine(
            results_dir=tmp_path,
            fault_plan=self.CRASH_TWO,
            on_failure="raise",
        )
        with pytest.raises(GridExecutionError) as excinfo:
            engine.run(SPEC_12)
        message = str(excinfo.value)
        assert "htcd x STAGGER (seed 1)" in message
        assert "dwm x CMC (seed 3)" in message
        # The grid still completed everything else before raising.
        assert len(excinfo.value.failures) == 2

    def test_crash_budget_aborts(self, tmp_path):
        engine = Engine(
            results_dir=tmp_path,
            fault_plan=self.CRASH_TWO,
            retries=0,
            crash_budget=1,
        )
        with pytest.raises(GridExecutionError, match="crash budget"):
            engine.run(SPEC_12)

    def test_quarantine_cleared_on_recovery(self, tmp_path):
        Engine(results_dir=tmp_path, fault_plan=self.CRASH_TWO).run(SPEC_12)
        quarantine = tmp_path / "quarantine"
        assert len(list(quarantine.glob("*.json"))) == 2
        # Re-run without the plan: the missing cells execute and their
        # quarantine records are retired.
        grid = Engine(results_dir=tmp_path).run(SPEC_12)
        assert grid.n_failed == 0
        assert len(grid.artifacts) == 12
        assert grid.n_cached == 10
        assert list(quarantine.glob("*.json")) == []

    def test_failed_artifacts_match_faultless_run(self, tmp_path):
        # Cells that survive a chaotic grid produce byte-identical
        # results to a faultless grid (injection is zero-cost when a
        # cell's faults don't fire).
        chaotic = Engine(
            results_dir=tmp_path / "chaos", fault_plan=self.CRASH_TWO
        ).run(SPEC_12)
        clean = Engine(results_dir=tmp_path / "clean").run(SPEC_12)
        clean_by_key = {a.key: a for a in clean.artifacts}
        for artifact in chaotic.artifacts:
            twin = clean_by_key[artifact.key]
            assert artifact.result.accuracy == twin.result.accuracy
            assert artifact.result.kappa == twin.result.kappa


class TestEnginePoolFaults:
    def test_pool_mode_quarantines_and_completes(self, tmp_path):
        engine = Engine(
            results_dir=tmp_path,
            max_workers=2,
            fault_plan=TestEngineHardening.CRASH_TWO,
        )
        grid = engine.run(SPEC_12)
        assert grid.n_failed == 2
        assert len(grid.artifacts) == 10

    @pytest.mark.slow
    def test_watchdog_kills_and_requeues_hung_cell(self, tmp_path):
        # The hung cell sleeps far past the watchdog on attempt 0 only;
        # the watchdog terminates the worker, charges the attempt, and
        # the retry completes.  future.cancel() cannot stop a running
        # worker, so this exercises the kill-and-rebuild path.
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(
                    kind="hung_cell",
                    match="htcd x STAGGER (seed 1)",
                    attempts=1,
                    duration=120.0,
                ),
            ),
        )
        spec = ExperimentSpec(
            systems=["htcd"],
            datasets=["STAGGER", "CMC"],
            seeds=[1, 2],
            **FAST,
        )
        engine = Engine(
            results_dir=tmp_path,
            max_workers=2,
            watchdog_timeout=8.0,
            fault_plan=plan,
        )
        grid = engine.run(spec)
        assert grid.n_failed == 0
        assert len(grid.artifacts) == 4


class TestEngineCheckpointRecovery:
    """Satellite: the engine survives corrupt per-cell checkpoints."""

    SPEC_1 = ExperimentSpec(
        systems=["htcd"], datasets=["STAGGER"], seeds=[1], **FAST
    )

    def seed_partial_checkpoint(self, tmp_path, mode):
        """Leave a corrupt mid-cell checkpoint behind, as a killed
        engine invocation would."""
        from repro.evaluation.runner import prepare_run

        cell = self.SPEC_1.expand()[0]
        system, stream = prepare_run(
            cell.system, cell.dataset, seed=cell.seed,
            segment_length=cell.segment_length, n_repeats=cell.n_repeats,
        )
        path = tmp_path / "checkpoints" / cell.key()
        runner = StreamRunner(
            system, stream, checkpoint_path=path, checkpoint_every=30
        )
        runner.run(60)
        if mode is not None:
            corrupt_snapshot(path, mode)
        return cell

    @pytest.mark.parametrize("mode", ["truncate", "tamper", "version"])
    def test_corrupt_checkpoint_discarded_and_cell_recomputed(
        self, tmp_path, mode
    ):
        self.seed_partial_checkpoint(tmp_path, mode)
        grid = Engine(results_dir=tmp_path, checkpoint_every=30).run(
            self.SPEC_1
        )
        assert grid.n_failed == 0 and len(grid.artifacts) == 1
        clean = Engine(results_dir=tmp_path / "clean").run(self.SPEC_1)
        assert grid.artifacts[0].result.accuracy == clean.artifacts[0].result.accuracy
        discarded = [
            e
            for e in read_audit_log(tmp_path / "checkpoints" / "audit.jsonl")
            if e["event"] == "checkpoint_discarded"
        ]
        assert len(discarded) == 1
        assert "htcd x STAGGER (seed 1)" in discarded[0]["cell"]

    def test_good_checkpoint_resumes_to_identical_artifact(self, tmp_path):
        self.seed_partial_checkpoint(tmp_path, mode=None)
        grid = Engine(results_dir=tmp_path, checkpoint_every=30).run(
            self.SPEC_1
        )
        clean = Engine(results_dir=tmp_path / "clean").run(self.SPEC_1)
        a, b = grid.artifacts[0].result, clean.artifacts[0].result
        assert (a.accuracy, a.kappa, a.n_observations) == (
            b.accuracy, b.kappa, b.n_observations
        )
        # The snapshot directory is retired once the cell lands.
        assert not (tmp_path / "checkpoints" / grid.artifacts[0].key).exists()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestGridCli:
    def test_quarantined_grid_exits_nonzero_with_table(
        self, tmp_path, capsys
    ):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps(TestEngineHardening.CRASH_TWO.to_dict())
        )
        code = cli_main([
            "grid",
            "--systems", "htcd", "dwm",
            "--datasets", "STAGGER", "CMC",
            "--seeds", "1", "2", "3",
            "--segment-length", "60",
            "--n-repeats", "1",
            "--results-dir", str(tmp_path / "results"),
            "--fault-plan", str(plan_path),
            "--quiet",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed    : 2 (quarantined)" in captured.out
        assert "2 cell(s) failed" in captured.err
        assert "htcd x STAGGER (seed 1)" in captured.err
        assert "InjectedFault" in captured.err
        assert "quarantine:" in captured.err

    def test_clean_grid_exits_zero(self, tmp_path, capsys):
        code = cli_main([
            "grid",
            "--systems", "htcd",
            "--datasets", "STAGGER",
            "--seeds", "1",
            "--segment-length", "60",
            "--n-repeats", "1",
            "--results-dir", str(tmp_path / "results"),
            "--quiet",
        ])
        assert code == 0
        assert "failed" not in capsys.readouterr().out

    def test_bad_plan_file_is_a_usage_error(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"seed": 0, "specs": [{"kind": "meteor"}]}')
        with pytest.raises(SystemExit):
            cli_main([
                "grid",
                "--systems", "htcd",
                "--datasets", "STAGGER",
                "--fault-plan", str(plan_path),
            ])
