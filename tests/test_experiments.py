"""Tests for the declarative experiment API: spec, engine, artifacts,
and the grid/report CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core import FicsumConfig
from repro.experiments import (
    Engine,
    ExperimentSpec,
    RunCell,
    aggregate,
    load_artifacts,
    run_experiment,
)

FAST = dict(segment_length=60, n_repeats=1)

SPEC_2x2x2 = ExperimentSpec(
    systems=["htcd", "dwm"],
    datasets=["STAGGER", "CMC"],
    seeds=[1, 2],
    **FAST,
)


def _strip_timing(path: Path) -> str:
    payload = json.loads(path.read_text())
    payload.pop("timing")
    return json.dumps(payload, sort_keys=True)


class TestConfigOverrides:
    def test_overrides_round_trip(self):
        cfg = FicsumConfig(fingerprint_period=11, weighting="sigma")
        overrides = cfg.overrides()
        assert overrides == {"fingerprint_period": 11, "weighting": "sigma"}
        assert FicsumConfig.from_overrides(overrides) == cfg

    def test_default_config_has_no_overrides(self):
        assert FicsumConfig().overrides() == {}

    def test_seed_excluded(self):
        assert FicsumConfig(seed=9).overrides() == {}

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown FicsumConfig fields"):
            FicsumConfig.from_overrides({"no_such_field": 1})

    @pytest.mark.parametrize(
        "field",
        [
            "incremental",
            "extraction_cache",
            "vectorized_selection",
            "forest_routing",
            "ann_prefilter",
            "ann_exact",
            "ann_shortlist_k",
            "ann_projections",
            "family_radius",
        ],
    )
    def test_removed_toggle_rejected(self, field):
        # Specs and artifacts naming a removed execution toggle or a
        # removed scale-layer field fail loudly rather than run a
        # different config.
        with pytest.raises(ValueError, match="unknown FicsumConfig fields"):
            FicsumConfig.from_overrides({field: False})


class TestSpec:
    def test_expand_shape_and_order(self):
        cells = SPEC_2x2x2.expand()
        assert len(cells) == SPEC_2x2x2.n_cells == 8
        assert [(c.system, c.dataset, c.seed) for c in cells[:4]] == [
            ("htcd", "STAGGER", 1),
            ("htcd", "STAGGER", 2),
            ("htcd", "CMC", 1),
            ("htcd", "CMC", 2),
        ]

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one system"):
            ExperimentSpec(systems=[], datasets=["STAGGER"])
        with pytest.raises(ValueError, match="at least one dataset"):
            ExperimentSpec(systems=["htcd"], datasets=[])
        with pytest.raises(ValueError, match="at least one seed"):
            ExperimentSpec(systems=["htcd"], datasets=["STAGGER"], seeds=[])

    def test_unknown_names_raise_on_expand(self):
        spec = ExperimentSpec(systems=["nope"], datasets=["STAGGER"])
        with pytest.raises(KeyError, match="ficsum"):
            spec.expand()

    def test_baseline_cells_drop_config_overrides(self):
        spec = ExperimentSpec(
            systems=["ficsum", "htcd"],
            datasets=["STAGGER"],
            config={"fingerprint_period": 10},
            **FAST,
        )
        by_system = {c.system: c for c in spec.expand()}
        assert dict(by_system["ficsum"].config_overrides) == {
            "fingerprint_period": 10
        }
        assert by_system["htcd"].config_overrides == ()
        assert by_system["htcd"].config() is None

    def test_config_accepts_dataclass_and_dict(self):
        a = ExperimentSpec(
            systems=["ficsum"], datasets=["STAGGER"],
            config=FicsumConfig(window_size=50),
        )
        b = ExperimentSpec(
            systems=["ficsum"], datasets=["STAGGER"],
            config={"window_size": 50},
        )
        assert a.spec_hash() == b.spec_hash()

    def test_cell_key_stable_and_content_addressed(self):
        cells = SPEC_2x2x2.expand()
        keys = [c.key() for c in cells]
        assert len(set(keys)) == 8
        assert keys == [c.key() for c in SPEC_2x2x2.expand()]
        rebuilt = RunCell.from_dict(cells[0].to_dict())
        assert rebuilt.key() == keys[0]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec fields"):
            ExperimentSpec.from_dict({"systems": ["htcd"], "datasets": ["X"],
                                      "typo": 1})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_2x2x2.to_dict()))
        assert ExperimentSpec.from_file(path).spec_hash() == SPEC_2x2x2.spec_hash()

    def test_seeds_cannot_be_emptied_by_file(self):
        payload = SPEC_2x2x2.to_dict()
        payload["seeds"] = []
        with pytest.raises(ValueError, match="at least one seed"):
            ExperimentSpec.from_dict(payload)
        del payload["seeds"]  # absent key means seed 0
        assert ExperimentSpec.from_dict(payload).seeds == (0,)

    def test_from_toml_file(self, tmp_path):
        from repro.experiments import spec as spec_module

        if spec_module.tomllib is None:
            pytest.skip("no tomllib/tomli on this interpreter")
        path = tmp_path / "spec.toml"
        path.write_text(
            'systems = ["htcd", "dwm"]\n'
            'datasets = ["STAGGER", "CMC"]\n'
            "seeds = [1, 2]\n"
            "segment_length = 60\n"
            "n_repeats = 1\n"
        )
        assert ExperimentSpec.from_file(path).spec_hash() == SPEC_2x2x2.spec_hash()


class TestEngine:
    def test_serial_run_writes_artifacts_and_caches(self, tmp_path):
        events = []
        engine = Engine(
            results_dir=tmp_path, max_workers=1,
            progress=lambda e: events.append(e.kind),
        )
        grid = engine.run(SPEC_2x2x2)
        assert grid.n_executed == 8 and grid.n_cached == 0
        assert len(list(tmp_path.glob("*.json"))) == 8
        assert events.count("done") == 8

        events.clear()
        grid2 = engine.run(SPEC_2x2x2)
        assert grid2.n_executed == 0 and grid2.n_cached == 8
        assert set(events) == {"cached"}
        # Cached artifacts reproduce the executed results exactly.
        for a, b in zip(grid.artifacts, grid2.artifacts):
            assert a.key == b.key
            assert a.result.kappa == b.result.kappa
            assert b.cached

    def test_parallel_matches_serial_modulo_timing(self, tmp_path):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        Engine(results_dir=serial_dir, max_workers=1).run(SPEC_2x2x2)
        grid = Engine(results_dir=parallel_dir, max_workers=4).run(SPEC_2x2x2)
        assert grid.n_executed == 8
        names = sorted(p.name for p in serial_dir.glob("*.json"))
        assert names == sorted(p.name for p in parallel_dir.glob("*.json"))
        for name in names:
            assert _strip_timing(serial_dir / name) == _strip_timing(
                parallel_dir / name
            )

    def test_duplicate_cells_execute_once(self, tmp_path):
        spec = ExperimentSpec(
            systems=["htcd", "htcd"], datasets=["STAGGER"], seeds=[1], **FAST
        )
        grid = Engine(results_dir=tmp_path).run(spec)
        assert grid.n_executed == 1
        assert len(grid.artifacts) == 2
        assert grid.artifacts[0].key == grid.artifacts[1].key

    def test_no_results_dir_still_runs(self):
        spec = ExperimentSpec(systems=["htcd"], datasets=["STAGGER"], **FAST)
        grid = run_experiment(spec)
        assert grid.n_executed == 1
        assert grid.results[0].n_observations > 0

    def test_corrupt_artifact_is_reexecuted(self, tmp_path):
        spec = ExperimentSpec(systems=["htcd"], datasets=["STAGGER"], **FAST)
        engine = Engine(results_dir=tmp_path)
        grid = engine.run(spec)
        path = grid.artifacts[0].path
        path.write_text("garbage not json")
        grid2 = engine.run(spec)
        assert grid2.n_executed == 1 and grid2.n_cached == 0
        assert grid2.results[0].kappa == grid.results[0].kappa
        # The bad file was overwritten with a valid artifact.
        assert json.loads(path.read_text())["key"] == grid.artifacts[0].key

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            Engine(max_workers=0)

    def test_oracle_and_config_reach_the_run(self, tmp_path):
        spec = ExperimentSpec(
            systems=["ficsum"], datasets=["STAGGER"], seeds=[1],
            segment_length=120, n_repeats=1, oracle=True,
            config={"fingerprint_period": 10, "repository_period": 100,
                    "window_size": 50},
        )
        grid = Engine(results_dir=tmp_path).run(spec)
        payload = json.loads(grid.artifacts[0].path.read_text())
        assert payload["cell"]["oracle"] is True
        assert payload["cell"]["config_overrides"]["fingerprint_period"] == 10
        assert grid.results[0].n_drifts >= 1


class TestArtifactsAndAggregation:
    def test_load_and_aggregate(self, tmp_path):
        Engine(results_dir=tmp_path, max_workers=1).run(SPEC_2x2x2)
        artifacts = load_artifacts(tmp_path)
        assert len(artifacts) == 8
        rows = aggregate(artifacts)
        assert [(r.system, r.dataset) for r in rows] == [
            ("dwm", "CMC"), ("dwm", "STAGGER"),
            ("htcd", "CMC"), ("htcd", "STAGGER"),
        ]
        for row in rows:
            assert row.n_runs == 2
            mean, std = row.metrics["kappa"]
            assert -1.0 <= mean <= 1.0 and std >= 0.0

    def test_oracle_runs_aggregate_separately(self, tmp_path):
        base = dict(systems=["htcd"], datasets=["STAGGER"], seeds=[1], **FAST)
        engine = Engine(results_dir=tmp_path)
        engine.run(ExperimentSpec(**base))
        engine.run(ExperimentSpec(oracle=True, **base))
        rows = aggregate(load_artifacts(tmp_path))
        assert [(r.system, r.oracle, r.n_runs) for r in rows] == [
            ("htcd", False, 1), ("htcd", True, 1),
        ]

    def test_load_ignores_foreign_json(self, tmp_path):
        (tmp_path / "notes.json").write_text('{"hello": "world"}')
        (tmp_path / "list.json").write_text("[1, 2, 3]")
        assert load_artifacts(tmp_path) == []

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_artifacts(tmp_path / "nope") == []


class TestCli:
    def test_grid_then_report(self, tmp_path, capsys):
        argv = [
            "grid",
            "--systems", "htcd", "dwm",
            "--datasets", "STAGGER",
            "--seeds", "1", "2",
            "--segment-length", "60",
            "--n-repeats", "1",
            "--results-dir", str(tmp_path),
            "--quiet",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "executed  : 4" in out
        assert len(list(tmp_path.glob("*.json"))) == 4

        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "cached    : 4" in out

        assert cli_main(["report", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 artifacts" in out and "htcd" in out and "dwm" in out

    def test_grid_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            ExperimentSpec(
                systems=["htcd"], datasets=["STAGGER"], seeds=[1], **FAST
            ).to_dict()
        ))
        code = cli_main([
            "grid", "--spec", str(spec_path),
            "--results-dir", str(tmp_path / "results"), "--quiet",
        ])
        assert code == 0
        assert "executed  : 1" in capsys.readouterr().out

    def test_grid_requires_axes(self):
        with pytest.raises(SystemExit):
            cli_main(["grid", "--systems", "htcd"])

    def test_grid_rejects_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main([
                "grid", "--systems", "htcd", "--datasets", "NOPE",
                "--results-dir", str(tmp_path),
            ])

    def test_report_empty_dir_fails(self, tmp_path):
        assert cli_main(["report", "--results-dir", str(tmp_path)]) == 1

    def test_run_defaults_inherit_tuned_config(self, capsys):
        # The paper-tuned FicsumConfig defaults (and the runner's
        # n_repeats=9) must not be silently overridden by CLI defaults.
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["run", "--system", "ficsum", "--dataset", "STAGGER"]
        )
        assert args.n_repeats is None
        assert args.window_size is None
        assert args.fingerprint_period is None
        assert args.repository_period is None

    def test_run_rejects_config_flags_for_baselines(self):
        with pytest.raises(SystemExit):
            cli_main([
                "run", "--system", "htcd", "--dataset", "STAGGER",
                "--fingerprint-period", "5",
            ])


class TestMetafeatureSelector:
    def test_spec_field_folds_into_config(self):
        spec = ExperimentSpec(
            systems=["ficsum"],
            datasets=["STAGGER"],
            metafeatures=["mean", "autocorrelation"],
        )
        assert spec.config == {"metafeatures": ["mean", "autocorrelation"]}
        cell = spec.expand()[0]
        assert cell.config().metafeatures == ("mean", "autocorrelation")

    def test_spec_field_conflicts_with_config_selection(self):
        with pytest.raises(ValueError, match="metafeatures"):
            ExperimentSpec(
                systems=["ficsum"],
                datasets=["STAGGER"],
                metafeatures=["mean"],
                config={"metafeatures": ["std"]},
            )

    def test_agreeing_selections_are_allowed(self):
        spec = ExperimentSpec(
            systems=["ficsum"],
            datasets=["STAGGER"],
            metafeatures=["std"],
            config={"metafeatures": ["std"]},
        )
        assert spec.config == {"metafeatures": ["std"]}

    def test_from_dict_accepts_metafeatures(self):
        spec = ExperimentSpec.from_dict(
            {
                "systems": ["ficsum"],
                "datasets": ["STAGGER"],
                "metafeatures": ["imf_entropy"],
            }
        )
        assert spec.config == {"metafeatures": ["imf_entropy"]}

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError, match="unknown meta-information"):
            ExperimentSpec(
                systems=["ficsum"],
                datasets=["STAGGER"],
                metafeatures=["vibes"],
            )

    def test_baseline_cells_still_drop_selection(self):
        spec = ExperimentSpec(
            systems=["htcd"], datasets=["STAGGER"], metafeatures=["mean"]
        )
        assert spec.expand()[0].config_overrides == ()
