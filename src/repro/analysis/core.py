"""AST lint framework: contexts, findings, suppressions, baselines.

The dynamic equivalence harness (``tests/equivalence.py``) can only
catch an invariant violation on paths a test happens to drive; this
package checks the same contracts *statically*, over the whole tree,
on every run.  The pieces:

* :class:`SourceModule` — one parsed file: AST, import-alias table,
  module *group* (``core``, ``metafeatures``, ``streams``, ...,
  ``tests``) derived from its path, and per-line suppressions.
* :class:`LintContext` — every parsed module of one lint run.  Rules
  receive the whole context, so project-wide contracts are
  expressible alongside per-module ones.
* :class:`LintRule` + :func:`register_rule` — rules plug into
  :data:`RULES`, a :class:`repro.registry.Registry`, exactly like
  systems, datasets and meta-features plug into theirs.
* :func:`run_lint` — parse, check, apply suppressions, sort.
* :func:`load_baseline` / :func:`save_baseline` — grandfathered
  findings, keyed by ``rule::path::message`` (line-number free, so a
  baseline survives unrelated edits above a finding).

Suppressions are trailing comments on the flagged line::

    "created_at": clock(),  # repro-lint: disable=RPR001

``disable=all`` silences every rule for that line.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

from repro.registry import Registry

#: Trailing-comment suppression syntax (comma-separated rule ids).
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")

#: Baseline file format version.
BASELINE_VERSION = 1

#: Default committed baseline location (relative to the lint cwd).
DEFAULT_BASELINE = Path(".repro-lint-baseline.json")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def key(self) -> str:
        """Line-free identity used for baseline matching."""
        return f"{self.rule}::{self.path}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def render_github(self) -> str:
        """A GitHub Actions workflow-command annotation line."""
        message = f"{self.rule} {self.message}".replace("%", "%25")
        message = message.replace("\r", "%0D").replace("\n", "%0A")
        return (
            f"::error file={self.path},line={self.line},"
            f"col={self.col},title={self.rule}::{message}"
        )


class SourceModule:
    """One parsed source file plus the metadata rules key off."""

    def __init__(self, path: Path, display: str, text: str) -> None:
        self.path = path
        self.display = display
        self.text = text
        self.tree = ast.parse(text, filename=display)
        self.group = module_group(path)
        self.suppressions = parse_suppressions(text)
        self.import_aliases = import_alias_table(self.tree)

    @property
    def name(self) -> str:
        return self.path.stem

    def suppressed(self, rule_id: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        return rules is not None and ("all" in rules or rule_id in rules)

    def resolve_call(self, func: ast.AST) -> str:
        """Canonical dotted name of a call target, or ``""``.

        Resolves the leading segment through the module's import
        aliases, so ``np.random.rand`` and ``numpy.random.rand`` both
        canonicalise to ``numpy.random.rand`` and ``_time.time`` (from
        ``import time as _time``) to ``time.time``.
        """
        parts = _dotted_parts(func)
        if not parts:
            return ""
        head = self.import_aliases.get(parts[0])
        if head is not None:
            parts = head.split(".") + parts[1:]
        return ".".join(parts)


class LintContext:
    """All modules of one lint run, indexed for the rules."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules = list(modules)
        self.by_display = {m.display: m for m in self.modules}
        self._by_group: Dict[str, List[SourceModule]] = {}
        for module in self.modules:
            self._by_group.setdefault(module.group, []).append(module)

    def group(self, *names: str) -> List[SourceModule]:
        out: List[SourceModule] = []
        for name in names:
            out.extend(self._by_group.get(name, []))
        return out


class LintRule:
    """Base class for lint rules (register with :func:`register_rule`).

    ``id`` is the finding code (``RPR001``), ``contract`` a one-line
    statement of the enforced invariant and ``scope`` the module groups
    the rule inspects (documentation; rules pull their own modules from
    the context).
    """

    id: str = ""
    contract: str = ""
    scope: Sequence[str] = ()

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=module.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


#: All lint rules, id -> rule instance (the analysis-layer mirror of
#: SYSTEMS / DATASETS / METAFEATURES).
RULES: "Registry[LintRule]" = Registry("lint rule")


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`LintRule`."""
    instance = cls()
    RULES.add(instance.id, instance)
    return cls


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
def module_group(path: Union[str, Path]) -> str:
    """The rule-scoping group of a file, derived from its path.

    ``.../repro/<sub>/mod.py`` maps to ``<sub>`` (``core``,
    ``metafeatures``, ``streams``, ...), top-level ``repro/mod.py`` to
    ``root``, anything under a ``tests`` / ``benchmarks`` / ``examples``
    directory to that directory's name, and everything else to
    ``other``.  Fixture trees that mimic the layout (e.g.
    ``tmp/repro/core/x.py``) land in the real groups, which is what the
    rule tests rely on.
    """
    parts = Path(path).parts
    for marker in ("tests", "benchmarks", "examples"):
        if marker in parts:
            return marker
    if "repro" in parts:
        rest = parts[parts.index("repro") + 1 :]
        if len(rest) >= 2:
            return rest[0]
        return "root"
    return "other"


def parse_suppressions(text: str) -> Dict[int, Set[str]]:
    """Per-line suppressed rule ids from trailing comments.

    Comments are read with :mod:`tokenize` so suppression syntax inside
    string literals is ignored.
    """
    out: Dict[int, Set[str]] = {}
    lines = iter(text.splitlines(keepends=True))
    try:
        for token in tokenize.generate_tokens(lambda: next(lines, "")):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            out.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - unterminated input
        pass
    return out


def import_alias_table(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted target, for every import.

    ``import numpy as np`` yields ``np -> numpy``; ``from numpy import
    random`` yields ``random -> numpy.random``; ``from time import
    time`` yields ``time -> time.time``.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _dotted_parts(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return []


def iter_source_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into ``.py`` files, skipping caches."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    yield sub
        elif path.suffix == ".py":
            yield path


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    baselined: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    stale_baseline: int = 0


def build_context(paths: Iterable[Union[str, Path]]) -> "tuple[LintContext, List[str]]":
    """Parse every source file under ``paths`` into a context.

    Unparseable files become error strings (reported, non-fatal), so
    one syntax error does not hide every other finding.
    """
    modules: List[SourceModule] = []
    errors: List[str] = []
    for path in iter_source_files(paths):
        display = path.as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            modules.append(SourceModule(path, display, text))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{display}: cannot lint: {exc}")
    return LintContext(modules), errors


def run_lint(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Set[str]] = None,
) -> LintReport:
    """Run the (selected) rules over ``paths``.

    Findings on suppressed lines are dropped; findings whose key is in
    ``baseline`` are reported separately as grandfathered.
    """
    ctx, errors = build_context(paths)
    selected = [RULES[r] for r in rules] if rules is not None else [
        RULES[name] for name in RULES.ordered_names()
    ]
    kept: List[Finding] = []
    grandfathered: List[Finding] = []
    seen_keys: Set[str] = set()
    for rule in selected:
        for finding in rule.check(ctx):
            module = ctx.by_display.get(finding.path)
            if module is not None and module.suppressed(rule.id, finding.line):
                continue
            seen_keys.add(finding.key)
            if baseline and finding.key in baseline:
                grandfathered.append(finding)
            else:
                kept.append(finding)
    order = lambda f: (f.path, f.line, f.col, f.rule)  # noqa: E731
    stale = len(baseline - seen_keys) if baseline else 0
    return LintReport(
        findings=sorted(kept, key=order),
        baselined=sorted(grandfathered, key=order),
        errors=errors,
        stale_baseline=stale,
    )


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def load_baseline(path: Union[str, Path]) -> Set[str]:
    """The grandfathered finding keys, or an empty set if absent."""
    path = Path(path)
    if not path.exists():
        return set()
    with path.open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported lint baseline version {payload.get('version')!r} "
            f"in {path} (expected {BASELINE_VERSION})"
        )
    return {
        f"{entry['rule']}::{entry['path']}::{entry['message']}"
        for entry in payload.get("findings", [])
    }


def save_baseline(path: Union[str, Path], findings: Sequence[Finding]) -> None:
    """Write every finding as a grandfathered baseline entry."""
    payload = {
        "version": BASELINE_VERSION,
        "findings": [
            {"rule": f.rule, "path": f.path, "message": f.message}
            for f in sorted(findings, key=lambda f: (f.rule, f.path, f.message))
        ],
    }
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


__all__ = [
    "BASELINE_VERSION",
    "DEFAULT_BASELINE",
    "Finding",
    "LintContext",
    "LintReport",
    "LintRule",
    "RULES",
    "SourceModule",
    "build_context",
    "import_alias_table",
    "iter_source_files",
    "load_baseline",
    "module_group",
    "parse_suppressions",
    "register_rule",
    "run_lint",
    "save_baseline",
]
