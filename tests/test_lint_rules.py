"""Fixture tests for the RPR invariant rules plus the clean-tree gate.

Each rule family gets at least one minimal violating snippet it must
fire on and the corrected twin it must stay silent on, written into a
tmp tree that mimics the package layout (``repro/core/...``,
``tests/...``) so path-derived rule scoping applies exactly as it does
on the real tree.  The end of the module pins the repository itself:
``repro lint src tests benchmarks`` is clean against the committed
baseline, and the determinism/kernel-hygiene rules are clean with *no*
baseline at all.
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis import (
    RULES,
    load_baseline,
    run_lint,
    save_baseline,
)
from repro.analysis.core import module_group, parse_suppressions
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path, files, rules=None, baseline=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")
    return run_lint([tmp_path], rules=rules, baseline=baseline)


def rule_ids(report):
    return [f.rule for f in report.findings]


# ----------------------------------------------------------------------
# Framework plumbing
# ----------------------------------------------------------------------
def test_all_rule_families_registered():
    assert {
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        "RPR007",
    } <= set(RULES.names())


def test_module_group_derivation():
    assert module_group("src/repro/core/ficsum.py") == "core"
    assert module_group("src/repro/serving/manifest.py") == "serving"
    assert module_group("src/repro/system.py") == "root"
    assert module_group("tests/test_ficsum.py") == "tests"
    assert module_group("benchmarks/bench_snapshot.py") == "benchmarks"
    assert module_group("/tmp/x/repro/metafeatures/a.py") == "metafeatures"
    assert module_group("scripts/tool.py") == "other"


def test_suppression_parsing_ignores_strings():
    text = 's = "# repro-lint: disable=RPR001"\nx = 1  # repro-lint: disable=RPR002, RPR003\n'
    sup = parse_suppressions(text)
    assert sup == {2: {"RPR002", "RPR003"}}


def test_syntax_error_reported_not_fatal(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/broken.py": "def f(:\n",
            "repro/core/ok.py": "import time\nt = time.time()\n",
        },
    )
    assert len(report.errors) == 1 and "broken.py" in report.errors[0]
    assert rule_ids(report) == ["RPR001"]


# ----------------------------------------------------------------------
# RPR001 — determinism
# ----------------------------------------------------------------------
def test_rpr001_fires_on_unseeded_and_wall_clock(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/bad.py": """
                import random
                import time as _t
                import numpy as np
                from datetime import datetime

                def f():
                    rng = np.random.default_rng()
                    v = np.random.rand(3)
                    r = random.random()
                    stamp = _t.time()
                    day = datetime.now()
                    return rng, v, r, stamp, day
            """,
        },
        rules=["RPR001"],
    )
    assert rule_ids(report) == ["RPR001"] * 5


def test_rpr001_silent_on_seeded_and_monotonic(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/good.py": """
                import random
                import time
                import numpy as np

                def f(seed):
                    rng = np.random.default_rng(seed)
                    r = random.Random(seed)
                    t = time.perf_counter()
                    return rng, r, t
            """,
        },
        rules=["RPR001"],
    )
    assert rule_ids(report) == []


def test_rpr001_flags_bare_wall_clock_reference(tmp_path):
    report = lint_tree(
        tmp_path,
        {"repro/serving/bad.py": "import time\nclock = time.time\n"},
        rules=["RPR001"],
    )
    assert rule_ids(report) == ["RPR001"]


def test_rpr001_out_of_scope_module_silent(tmp_path):
    report = lint_tree(
        tmp_path,
        {"repro/evaluation/timing.py": "import time\nt = time.time()\n"},
        rules=["RPR001"],
    )
    assert rule_ids(report) == []


def test_rpr001_per_line_suppression(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/serving/ok.py": (
                "import time\n"
                "clock = time.time  # repro-lint: disable=RPR001\n"
            ),
        },
        rules=["RPR001"],
    )
    assert rule_ids(report) == []


# ----------------------------------------------------------------------
# RPR002 — state-contract symmetry
# ----------------------------------------------------------------------
def test_rpr002_fires_on_asymmetric_keys(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/streams/bad.py": """
                class Thing:
                    def state_dict(self):
                        return {"count": self.count, "extra": self.extra}

                    def load_state_dict(self, state):
                        self.count = state["count"]
                        self.other = state["other"]
            """,
        },
        rules=["RPR002"],
    )
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2
    assert "'other'" in messages[0] and "never writes" in messages[0]
    assert "'extra'" in messages[1] and "never reads" in messages[1]


def test_rpr002_silent_on_symmetric_keys(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/streams/good.py": """
                from typing import Any, Dict

                class Thing:
                    def state_dict(self) -> Dict[str, Any]:
                        state: Dict[str, Any] = {"count": self.count}
                        if self.tracker is not None:
                            state["tracker"] = self.tracker.state_dict()
                        return state

                    def load_state_dict(self, state):
                        self.count = state["count"]
                        if "tracker" in state:
                            self.tracker.load_state_dict(state["tracker"])
            """,
        },
        rules=["RPR002"],
    )
    assert rule_ids(report) == []


def test_rpr002_fires_on_unserializable_container_state(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/bad.py": """
                class Accumulator:
                    def __init__(self):
                        self._events = []
                        self.limit = 5
            """,
        },
        rules=["RPR002"],
    )
    assert rule_ids(report) == ["RPR002"]
    assert "_events" in report.findings[0].message


def test_rpr002_container_state_satisfied_by_pair_or_rehydrator(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/good.py": """
                class WithPair:
                    def __init__(self):
                        self._events = []

                    def state_dict(self):
                        return {"events": list(self._events)}

                    def load_state_dict(self, state):
                        self._events = list(state["events"])

                class WithRehydrator:
                    def __init__(self):
                        self._members = {}

                    @classmethod
                    def from_state_dict(cls, state):
                        return cls()
            """,
            # Container state outside core/metafeatures is not forced
            # to define the pair (serving wraps, evaluation aggregates).
            "repro/serving/out_of_scope.py": """
                class Buffer:
                    def __init__(self):
                        self._rows = []
            """,
        },
        rules=["RPR002"],
    )
    assert rule_ids(report) == []


# ----------------------------------------------------------------------
# RPR003 — trusted-kernel hygiene
# ----------------------------------------------------------------------
def test_rpr003_fires_on_validating_kernel(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/similarity.py": """
                import numpy as np
                from repro.utils.validation import check_probability

                def cosine_kernel(a, b):
                    a = np.asarray(a, dtype=np.float64)
                    return float(a @ b)

                def sim_many(A, b):
                    A = np.atleast_2d(A)
                    return A @ b

                def sim_fast(a, b):
                    a = check_probability(a, "a")
                    return float(a @ b)
            """,
        },
        rules=["RPR003"],
    )
    assert rule_ids(report) == ["RPR003"] * 3
    assert "np.asarray" in report.findings[0].message
    assert "np.atleast_2d" in report.findings[1].message
    assert "check_probability" in report.findings[2].message


def test_rpr003_silent_on_clean_kernels_and_wrappers(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/similarity.py": """
                import numpy as np

                def cosine_kernel(a, b):
                    return float(np.dot(a, b))

                def weighted_cosine_similarity(a, b):
                    a = np.asarray(a, dtype=np.float64)
                    b = np.asarray(b, dtype=np.float64)
                    return cosine_kernel(a, b)
            """,
            # *_many outside similarity.py is a public batch API, not a
            # trusted kernel: validation there is correct.
            "repro/classifiers/bank.py": """
                import numpy as np

                def predict_batch_many(X):
                    X = np.asarray(X, dtype=np.float64)
                    return X.sum(axis=1)
            """,
        },
        rules=["RPR003"],
    )
    assert rule_ids(report) == []


# ----------------------------------------------------------------------
# RPR004 — no fast-path toggles
# ----------------------------------------------------------------------
_CONFIG_WITH_TOGGLES = """
    from dataclasses import dataclass

    @dataclass
    class FicsumConfig:
        window_size: int = 75
        pinned_path: bool = True
        unmarked_path: bool = True
        ablation: bool = True  # repro-lint: disable=RPR004
        off_by_default: bool = False
"""

_EQUIVALENCE_STUB = """
    BASE_CONFIG = {"window_size": 40}

    def run_config(overrides):
        return overrides
"""


def test_rpr004_fires_on_uncovered_toggle(tmp_path):
    # Every unmarked True-default boolean is a toggle, whatever the
    # tests do with it; marked semantic switches and False defaults
    # pass.
    report = lint_tree(
        tmp_path,
        {"repro/core/config.py": _CONFIG_WITH_TOGGLES},
        rules=["RPR004"],
    )
    assert rule_ids(report) == ["RPR004", "RPR004"]
    messages = " ".join(f.message for f in report.findings)
    assert "pinned_path" in messages and "unmarked_path" in messages
    assert "ablation" not in messages and "off_by_default" not in messages
    assert report.findings[0].path.endswith("repro/core/config.py")


def test_rpr004_silent_when_all_toggles_covered(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/core/config.py": """
                from dataclasses import dataclass

                @dataclass
                class FicsumConfig:
                    plasticity: bool = True  # repro-lint: disable=RPR004
                    oracle_drift: bool = False
            """,
        },
        rules=["RPR004"],
    )
    assert rule_ids(report) == []


def test_rpr004_equivalence_reference_does_not_excuse(tmp_path):
    # Pinning a toggle's two paths against each other does not make it
    # acceptable: the fast path must replace the old one.
    report = lint_tree(
        tmp_path,
        {
            "repro/core/config.py": _CONFIG_WITH_TOGGLES,
            "tests/equivalence.py": _EQUIVALENCE_STUB,
            "tests/test_pinned.py": """
                from equivalence import run_config

                def test_pinned():
                    run_config({"pinned_path": False})
                    run_config({"unmarked_path": False})
            """,
        },
        rules=["RPR004"],
    )
    assert rule_ids(report) == ["RPR004", "RPR004"]


# ----------------------------------------------------------------------
# RPR005 — registry metadata completeness
# ----------------------------------------------------------------------
def test_rpr005_fires_on_incomplete_component(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/metafeatures/bad.py": """
                from repro.metafeatures.components import MetaFeature

                class Nameless(MetaFeature):
                    def batch_scalar(self, seq):
                        return 0.0

                class BadRolling(MetaFeature):
                    name = "bad_rolling"
                    incremental = True

                    def batch_scalar(self, seq):
                        return 0.0

                class BadClassifier(MetaFeature):
                    name = "bad_clf"
                    needs_classifier = True

                    def batch_scalar(self, seq):
                        return 0.0
            """,
        },
        rules=["RPR005"],
    )
    ids = rule_ids(report)
    assert ids == ["RPR005"] * 4
    joined = "\n".join(f.message for f in report.findings)
    assert "Nameless" in joined and "no registry name" in joined
    assert "rolling_rows" in joined
    assert "classifier_dependent=True" in joined
    assert "classifier_values" in joined


def test_rpr005_silent_on_complete_components(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/metafeatures/good.py": """
                from repro.metafeatures.components import MetaFeature

                class Range(MetaFeature):
                    name = "range"

                    def batch_scalar(self, seq):
                        return float(seq.max() - seq.min())

                class Lagged(MetaFeature):
                    incremental = True

                    def __init__(self, lag):
                        self.lag = lag
                        self.name = f"lagged{lag}"

                    def batch_scalar(self, seq):
                        return 0.0

                    def rolling_rows(self, stats):
                        return stats.acf(self.lag)

                class Importance(MetaFeature):
                    name = "importance"
                    classifier_dependent = True
                    needs_classifier = True

                    def batch_scalar(self, seq):
                        return 0.0

                    def classifier_values(self, window_x, classifier, rng, max_eval):
                        return window_x.sum(axis=0)
            """,
        },
        rules=["RPR005"],
    )
    assert rule_ids(report) == []


# ----------------------------------------------------------------------
# RPR006: fault-injection hygiene
# ----------------------------------------------------------------------
def test_rpr006_fires_on_adhoc_crash_hook(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/streams/chaos.py": """\
                import os

                def maybe_crash(step):
                    if step == 100:
                        os.kill(os.getpid(), 9)
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == ["RPR006"]
    assert "repro.faults" in report.findings[0].message


def test_rpr006_crash_hooks_allowed_inside_faults_package(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/faults/inject.py": """\
                import os

                def crash_now():
                    os._exit(3)
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == []


def test_rpr006_fire_requires_literal_registered_site(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/serving/bad_sites.py": """\
                def poke(faults, site):
                    faults.fire("made.up.site")
                    faults.fire(site)
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == ["RPR006", "RPR006"]
    assert "unregistered injection site" in report.findings[0].message
    assert "string literal" in report.findings[1].message


def test_rpr006_silent_on_registered_site(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/serving/good_sites.py": """\
                def poke(faults):
                    return faults.fire("stream.stall", step=7)
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == []


def test_rpr006_fires_on_silent_broad_handler(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/experiments/swallow.py": """\
                def run(work):
                    try:
                        work()
                    except Exception:
                        return None
                    try:
                        work()
                    except:
                        pass
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == ["RPR006", "RPR006"]
    assert "except Exception" in report.findings[0].message
    assert "bare except" in report.findings[1].message


def test_rpr006_silent_when_handler_reraises_or_reports(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/experiments/handled.py": """\
                def run(work, audit, tracker):
                    try:
                        work()
                    except Exception:
                        raise RuntimeError("wrapped")
                    try:
                        work()
                    except Exception as exc:
                        audit.log("cell_failed", -1, error=str(exc))
                    try:
                        work()
                    except Exception as exc:
                        tracker.quarantine(exc)
                # Narrow handlers are always fine.
                def narrow(work):
                    try:
                        work()
                    except (ValueError, KeyError):
                        return None
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == []


def test_rpr006_out_of_scope_for_tests(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "tests/test_something.py": """\
                def test_ignores(work):
                    try:
                        work()
                    except Exception:
                        pass
            """,
        },
        rules=["RPR006"],
    )
    assert rule_ids(report) == []


# ----------------------------------------------------------------------
# RPR007 — sketch accuracy declarations
# ----------------------------------------------------------------------
def test_rpr007_fires_on_undeclared_sketch(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/metafeatures/sketchy.py": """
                from repro.metafeatures.components import MetaFeature

                class MysterySketch(MetaFeature):
                    name = "mystery"
                    exact = False

                    def batch_scalar(self, seq):
                        return 0.0
            """,
        },
        rules=["RPR007"],
    )
    ids = rule_ids(report)
    assert ids == ["RPR007", "RPR007"]
    joined = "\n".join(f.message for f in report.findings)
    assert "accuracy_knob" in joined
    assert "exact_reference" in joined


def test_rpr007_silent_on_declared_sketch_and_exact_components(tmp_path):
    report = lint_tree(
        tmp_path,
        {
            "repro/metafeatures/declared.py": """
                from repro.metafeatures.components import MetaFeature

                class DeclaredSketch(MetaFeature):
                    name = "approx_mi"
                    exact = False
                    exact_reference = "mi"
                    accuracy_knob = "fixed 4-bin histogram vs adaptive bins"

                    def batch_scalar(self, seq):
                        return 0.0

                class InitDeclaredSketch(MetaFeature):
                    exact = False
                    accuracy_knob = "stride-2 decimation (sample fraction 0.5)"

                    def __init__(self, mode):
                        self.name = f"approx{mode}"
                        self.exact_reference = f"exact{mode}"

                    def batch_scalar(self, seq):
                        return 0.0

                class ExactComponent(MetaFeature):
                    name = "plain"

                    def batch_scalar(self, seq):
                        return 0.0
            """,
        },
        rules=["RPR007"],
    )
    assert rule_ids(report) == []


# ----------------------------------------------------------------------
# Baseline round trip
# ----------------------------------------------------------------------
def test_baseline_round_trip_filters_grandfathered(tmp_path):
    files = {"repro/core/legacy.py": "import time\nt = time.time()\n"}
    first = lint_tree(tmp_path, files, rules=["RPR001"])
    assert len(first.findings) == 1
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, first.findings)
    baseline = load_baseline(baseline_path)
    second = run_lint([tmp_path], rules=["RPR001"], baseline=baseline)
    assert second.findings == []
    assert [f.rule for f in second.baselined] == ["RPR001"]
    assert second.stale_baseline == 0


def test_baseline_reports_stale_entries(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    save_baseline(baseline_path, [])
    payload = json.loads(baseline_path.read_text())
    payload["findings"] = [
        {"rule": "RPR001", "path": "gone.py", "message": "old finding"}
    ]
    baseline_path.write_text(json.dumps(payload))
    (tmp_path / "repro" / "core").mkdir(parents=True)
    (tmp_path / "repro" / "core" / "clean.py").write_text("x = 1\n")
    report = run_lint([tmp_path], baseline=load_baseline(baseline_path))
    assert report.findings == []
    assert report.stale_baseline == 1


def test_load_baseline_rejects_unknown_version(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text('{"version": 99, "findings": []}')
    with pytest.raises(ValueError, match="version"):
        load_baseline(bad)


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
def test_cli_lint_exit_codes_and_github_format(tmp_path, capsys):
    bad = tmp_path / "repro" / "serving" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nstamp = time.time()\n")
    assert main(["lint", str(tmp_path), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out and "1 finding(s)" in out

    assert main(["lint", str(tmp_path), "--no-baseline", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out and "title=RPR001" in out

    bad.write_text("import time\nstamp = 0.0\n")
    assert main(["lint", str(tmp_path), "--no-baseline"]) == 0


def test_cli_lint_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "repro" / "serving" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nstamp = time.time()\n")
    assert main(["lint", str(tmp_path), "--write-baseline"]) == 0
    assert (tmp_path / ".repro-lint-baseline.json").exists()
    capsys.readouterr()
    assert main(["lint", str(tmp_path)]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
        assert rule_id in out


def test_cli_lint_rejects_unknown_rule(tmp_path):
    with pytest.raises(SystemExit):
        main(["lint", str(tmp_path), "--rules", "RPR999"])


# ----------------------------------------------------------------------
# The repository itself is clean
# ----------------------------------------------------------------------
def test_repository_lint_clean_against_committed_baseline(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
    report = run_lint(["src", "tests", "benchmarks"], baseline=baseline)
    assert report.errors == []
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
    assert report.stale_baseline == 0


def test_repository_determinism_and_kernel_rules_need_no_baseline(monkeypatch):
    # Acceptance contract: RPR001 and RPR003 hold with an EMPTY
    # baseline — no grandfathered determinism or kernel-hygiene
    # violations anywhere in the tree.
    monkeypatch.chdir(REPO_ROOT)
    report = run_lint(
        ["src", "tests", "benchmarks"], rules=["RPR001", "RPR003"]
    )
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
