"""The built-in invariant rules (RPR001–RPR007).

Each rule statically enforces a contract the dynamic harness can only
spot-check: determinism of state-bearing modules, ``state_dict`` /
``load_state_dict`` symmetry, trusted-kernel hygiene, the absence of
fast-path toggles, registry-metadata completeness of
meta-feature components, fault-handling hygiene (injection routes
through :mod:`repro.faults`, broad handlers never swallow silently)
and the accuracy declarations of sketch components.
Rules register through
:func:`~repro.analysis.core.register_rule` exactly like systems and
meta-features register through theirs; adding a rule is one class and
one decorator.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    LintContext,
    LintRule,
    SourceModule,
    register_rule,
)

#: The state-bearing module groups: everything here either holds
#: mutable run state or writes artifacts that must be reproducible.
#: ``faults`` belongs here because fault plans are part of the replayed
#: state: an unseeded RNG or wall-clock read in the injector would make
#: chaos runs non-deterministic.
STATE_BEARING = (
    "core",
    "metafeatures",
    "streams",
    "classifiers",
    "serving",
    "faults",
)

#: Groups holding hot-path numeric code where trusted kernels live.
KERNEL_GROUPS = ("core", "classifiers", "metafeatures", "utils")

#: ``numpy.random`` attributes that are *not* the legacy global-state
#: API (constructing seeded generators / seed sequences is fine).
_SEEDED_RNG_API = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
}

#: Wall-clock / ambient-time call targets (canonical dotted names).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Validating/coercing calls that must never appear inside a trusted
#: kernel: the caller already guarantees contiguous float64 inputs, so
#: any of these either copies, re-validates or hides a contract breach.
_KERNEL_FORBIDDEN = {
    "numpy.asarray",
    "numpy.asanyarray",
    "numpy.ascontiguousarray",
    "numpy.asfarray",
    "numpy.atleast_1d",
    "numpy.atleast_2d",
    "numpy.atleast_3d",
    "numpy.array",
}


def _walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


@register_rule
class DeterminismRule(LintRule):
    """RPR001: no ambient randomness or wall clock in state-bearing code.

    Snapshot resume is pinned bit-for-bit, which only holds if every
    stochastic path threads a seeded ``np.random.Generator`` and every
    timestamp is injected.  Unseeded ``default_rng()``, the legacy
    ``np.random.*`` global-state API, module-level ``random.*``,
    ``time.time()`` and ``datetime.now()`` all break that silently.
    """

    id = "RPR001"
    contract = (
        "state-bearing modules must not call unseeded RNGs or the wall "
        "clock (thread a seeded Generator / inject a clock instead)"
    )
    scope = STATE_BEARING

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.group(*self.scope):
            call_funcs = set()
            for call in _walk_calls(module.tree):
                call_funcs.add(id(call.func))
                message = self._violation(module, call)
                if message is not None:
                    yield self.finding(module, call, message)
            # A *reference* to a wall-clock function (``clock =
            # time.time``, ``default_factory=time.time``) smuggles
            # ambient time in just as surely as calling it.
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Attribute) or id(node) in call_funcs:
                    continue
                name = module.resolve_call(node)
                if name in _WALL_CLOCK:
                    yield self.finding(
                        module,
                        node,
                        f"reference to {name} hands the wall clock to "
                        "state-bearing code; inject a clock instead",
                    )

    def _violation(self, module: SourceModule, call: ast.Call) -> Optional[str]:
        name = module.resolve_call(call.func)
        if not name:
            return None
        if name == "numpy.random.default_rng":
            if not call.args and not call.keywords:
                return (
                    "np.random.default_rng() without a seed draws OS "
                    "entropy; pass an explicit seed or thread a Generator"
                )
            return None
        if name.startswith("numpy.random."):
            attr = name.split(".", 2)[2]
            if attr.split(".")[0] not in _SEEDED_RNG_API:
                return (
                    f"np.random.{attr} uses numpy's global RNG state; "
                    "use a seeded np.random.Generator instead"
                )
            return None
        if name == "random.Random":
            if not call.args and not call.keywords:
                return "random.Random() without a seed is non-deterministic"
            return None
        if name.startswith("random.") and name.count(".") == 1:
            attr = name.split(".")[1]
            if attr[:1].islower():
                return (
                    f"random.{attr} uses the stdlib global RNG state; "
                    "use a seeded random.Random or np.random.Generator"
                )
            return None
        if name in _WALL_CLOCK:
            return (
                f"{name}() reads the wall clock, making state-bearing "
                "output non-reproducible; inject a clock instead"
            )
        return None


def _method(cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


def _returned_dict_keys(fn: ast.FunctionDef) -> Set[str]:
    """String keys the method's returned dict is built from.

    Covers the idioms the codebase uses: a dict literal in ``return``,
    a dict literal assigned to a local that is returned, and subscript
    stores into that local.  Nested dict literals are deliberately
    excluded — their keys belong to the child component's contract.
    """
    returned_names: Set[str] = set()
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                keys.update(_dict_literal_keys(node.value))
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
    if not returned_names:
        return keys
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        if names & returned_names and isinstance(node.value, ast.Dict):
            keys.update(_dict_literal_keys(node.value))
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in returned_names
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                keys.add(target.slice.value)
    return keys


def _dict_literal_keys(node: ast.Dict) -> Set[str]:
    return {
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    }


def _loaded_keys(fn: ast.FunctionDef) -> Set[str]:
    """String keys ``load_state_dict`` reads off its state parameter."""
    args = [a.arg for a in fn.args.args if a.arg != "self"]
    if not args:
        return set()
    param = args[0]
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "pop")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            if (
                isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
                and any(
                    isinstance(c, ast.Name) and c.id == param
                    for c in node.comparators
                )
            ):
                keys.add(node.left.value)
    return keys


#: Container constructors whose assignment to ``self`` marks a class as
#: holding mutable run state.
_MUTABLE_CTORS = {
    "list",
    "dict",
    "set",
    "deque",
    "OrderedDict",
    "defaultdict",
    "Counter",
}


def _mutable_init_attrs(cls: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
    init = _method(cls, "__init__")
    if init is None:
        return []
    out: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(init):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        if value is None or not _is_mutable_container(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                out.append((target.attr, node))
    return out


def _is_mutable_container(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = value.func
        if isinstance(name, ast.Attribute):
            return name.attr in _MUTABLE_CTORS
        if isinstance(name, ast.Name):
            return name.id in _MUTABLE_CTORS
    return False


@register_rule
class StateContractRule(LintRule):
    """RPR002: ``state_dict`` / ``load_state_dict`` stay symmetric.

    A key written by ``state_dict`` but never read back (or read but
    never written) round-trips silently wrong — the failure mode PR 6's
    bit-for-bit resume tests only catch on exercised components.  And a
    class in ``core`` / ``metafeatures`` that accumulates container
    state without defining the pair cannot be checkpointed at all.
    """

    id = "RPR002"
    contract = (
        "state_dict/load_state_dict must use matching key literals, and "
        "container-state classes in core/metafeatures must define the pair"
    )
    scope = STATE_BEARING + ("utils",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.group(*self.scope):
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                yield from self._check_class(module, node)

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        saver = _method(cls, "state_dict")
        loader = _method(cls, "load_state_dict")
        if saver is not None and loader is not None:
            written = _returned_dict_keys(saver)
            read = _loaded_keys(loader)
            # Only judge statically-resolvable pairs: a loader that
            # reads no literal keys (pure delegation) is out of scope.
            if written and read:
                for key in sorted(written - read):
                    yield self.finding(
                        module,
                        saver,
                        f"{cls.name}.state_dict writes key {key!r} that "
                        "load_state_dict never reads",
                    )
                for key in sorted(read - written):
                    yield self.finding(
                        module,
                        loader,
                        f"{cls.name}.load_state_dict reads key {key!r} that "
                        "state_dict never writes",
                    )
        if module.group in ("core", "metafeatures") and saver is None:
            rehydrator = _method(cls, "from_state_dict")
            if rehydrator is None and loader is None:
                mutable = _mutable_init_attrs(cls)
                if mutable:
                    attrs = ", ".join(sorted({a for a, _ in mutable}))
                    yield self.finding(
                        module,
                        cls,
                        f"{cls.name} holds mutable state ({attrs}) but "
                        "defines no state_dict/load_state_dict pair",
                    )


@register_rule
class TrustedKernelRule(LintRule):
    """RPR003: trusted kernels never validate or coerce their inputs.

    The ``*_kernel`` / ``*_fast`` functions (and ``similarity.py``'s
    batched ``*_many`` family) are documented as trusted: callers
    guarantee contiguous 1-D/2-D float64 inputs, which is what makes
    them bit-for-bit equal to the validating wrappers *and* allocation
    free.  An ``np.asarray`` inside one either silently copies on the
    hot path or papers over a caller breaking the contract.
    """

    id = "RPR003"
    contract = (
        "no np.asarray/np.atleast_*/validation calls inside trusted "
        "kernels (*_kernel, *_fast, similarity.py *_many)"
    )
    scope = KERNEL_GROUPS

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.group(*self.scope):
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not self._is_trusted(module, node.name):
                    continue
                yield from self._check_kernel(module, node)

    @staticmethod
    def _is_trusted(module: SourceModule, name: str) -> bool:
        if name.endswith("_kernel") or name.endswith("_fast"):
            return True
        return module.name == "similarity" and name.endswith("_many")

    def _check_kernel(
        self, module: SourceModule, fn: ast.FunctionDef
    ) -> Iterator[Finding]:
        for call in _walk_calls(fn):
            name = module.resolve_call(call.func)
            if name in _KERNEL_FORBIDDEN:
                short = name.replace("numpy.", "np.")
                yield self.finding(
                    module,
                    call,
                    f"trusted kernel {fn.name} calls {short}; kernels "
                    "rely on caller-validated contiguous float64 inputs",
                )
            elif name.split(".")[-1].startswith("check_") or "validate" in name:
                yield self.finding(
                    module,
                    call,
                    f"trusted kernel {fn.name} calls validator "
                    f"{name.split('.')[-1]}; validation belongs in the "
                    "public wrapper",
                )


@register_rule
class ToggleCoverageRule(LintRule):
    """RPR004: no fast-path toggles.

    A fast path replaces its predecessor in place and is pinned against
    the test-only reference implementation; it never sits beside the
    old path behind a config switch.  Every boolean ``FicsumConfig``
    field defaulting to ``True`` therefore has to be a semantic switch
    (flipping it changes results by design) and say so with an explicit
    per-line ``repro-lint: disable=RPR004`` on its field.
    """

    id = "RPR004"
    contract = (
        "True-default boolean FicsumConfig fields are semantic switches, "
        "marked as such; fast paths are not toggles"
    )
    scope = ("core",)

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        config = self._find_config(ctx)
        if config is None:
            return
        module, cls = config
        for node in cls.body:
            field = self._true_bool_field(node)
            if field is not None:
                yield self.finding(
                    module,
                    node,
                    f"boolean field {field!r} defaults to True: a fast "
                    "path replaces the old path instead of hiding it "
                    "behind a toggle; mark a semantic switch with "
                    "'repro-lint: disable=RPR004'",
                )

    @staticmethod
    def _find_config(
        ctx: LintContext,
    ) -> Optional[Tuple[SourceModule, ast.ClassDef]]:
        for module in ctx.group("core"):
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and node.name == "FicsumConfig":
                    return module, node
        return None

    @staticmethod
    def _true_bool_field(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.annotation, ast.Name)
            and node.annotation.id == "bool"
            and isinstance(node.value, ast.Constant)
            and node.value.value is True
        ):
            return node.target.id
        return None


@register_rule
class RegistryMetadataRule(LintRule):
    """RPR005: meta-feature components declare complete metadata.

    The fingerprint schema masks (classifier-dependent, supervised,
    feature-sources-only) derive from each component's declared
    metadata, so a component with a missing ``name`` or inconsistent
    dependency flags corrupts every schema built over it.
    """

    id = "RPR005"
    contract = (
        "MetaFeature subclasses must declare a name and consistent "
        "dependency metadata (needs_classifier => classifier_dependent "
        "+ classifier_values; incremental => rolling_rows)"
    )
    scope = ("metafeatures", "tests")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.group(*self.scope):
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name == "MetaFeature" or not _subclasses_metafeature(node):
                    continue
                yield from self._check_component(module, node)

    def _check_component(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        flags = _class_flags(cls)
        if not _declares_name(cls):
            yield self.finding(
                module,
                cls,
                f"meta-feature component {cls.name} declares no registry "
                "name (class attribute or self.name in __init__)",
            )
        if flags.get("incremental") is True and _method(cls, "rolling_rows") is None:
            yield self.finding(
                module,
                cls,
                f"{cls.name} declares incremental=True but defines no "
                "rolling_rows accumulator reader",
            )
        if flags.get("needs_classifier") is True:
            if flags.get("classifier_dependent") is not True:
                yield self.finding(
                    module,
                    cls,
                    f"{cls.name} declares needs_classifier=True without "
                    "classifier_dependent=True; the plasticity mask "
                    "would keep its dimensions across classifier resets",
                )
            if _method(cls, "classifier_values") is None:
                yield self.finding(
                    module,
                    cls,
                    f"{cls.name} declares needs_classifier=True but "
                    "defines no classifier_values extractor",
                )


#: Every group of first-party runtime code (``src/repro/...``); the
#: fault-hygiene rule covers all of it, not just the state-bearing core.
_SRC_GROUPS = STATE_BEARING + ("experiments", "utils", "analysis", "root")

#: Process-killing primitives that inject a crash without going through
#: the faults registry — chaos tests relying on them are invisible to
#: the fault accounting (StatsCollector counters, audit events).
_ADHOC_CRASH_HOOKS = {
    "os._exit",
    "os.abort",
    "os.kill",
    "signal.raise_signal",
    "faulthandler._sigsegv",
}

#: Call-name fragments that mark a broad exception handler as
#: *handling* the error rather than swallowing it: routing it to the
#: audit log / metrics, warning, or feeding the quarantine machinery.
_HANDLED_FRAGMENTS = ("log", "audit", "warn", "quarantine", "record", "fail")


@register_rule
class FaultHygieneRule(LintRule):
    """RPR006: faults route through the registry; no silent handlers.

    Deterministic chaos testing only works if every injected fault is
    declared in a :class:`~repro.faults.FaultPlan` and fired through a
    named injection point — an ad-hoc ``os.kill`` in runtime code, or a
    ``fire()`` call with a made-up site string, escapes both the fault
    accounting and the replay guarantees.  And a broad ``except
    Exception`` that neither re-raises nor reports turns an injected
    (or real) fault into silent corruption.
    """

    id = "RPR006"
    contract = (
        "fault injection must route through repro.faults (no ad-hoc "
        "crash hooks, fire() only with literal registered sites) and "
        "broad except handlers must re-raise, audit or quarantine"
    )
    scope = _SRC_GROUPS

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        from repro.faults.plan import INJECTION_SITES

        for module in ctx.group(*self.scope):
            for call in _walk_calls(module.tree):
                name = module.resolve_call(call.func)
                if name in _ADHOC_CRASH_HOOKS and module.group != "faults":
                    yield self.finding(
                        module,
                        call,
                        f"{name} injects a crash outside the faults "
                        "registry; declare it in a FaultPlan and fire it "
                        "through a repro.faults injection point",
                    )
                elif name.split(".")[-1] == "fire" and call.args:
                    yield from self._check_fire(module, call, INJECTION_SITES)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ExceptHandler):
                    yield from self._check_handler(module, node)

    def _check_fire(
        self, module: SourceModule, call: ast.Call, sites: Tuple[str, ...]
    ) -> Iterator[Finding]:
        site = call.args[0]
        if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
            yield self.finding(
                module,
                call,
                "fire() must name its injection point with a string "
                "literal so the site stays statically auditable",
            )
        elif site.value not in sites:
            yield self.finding(
                module,
                call,
                f"fire() names unregistered injection site {site.value!r}; "
                f"registered sites: {', '.join(sites)}",
            )

    def _check_handler(
        self, module: SourceModule, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        if not self._is_broad(handler.type):
            return
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return
            if isinstance(node, ast.Call):
                name = module.resolve_call(node.func).lower()
                if any(frag in name for frag in _HANDLED_FRAGMENTS):
                    return
        label = "bare except" if handler.type is None else "except Exception"
        yield self.finding(
            module,
            handler,
            f"{label} swallows the error silently; re-raise it, route "
            "it to the audit log, or quarantine the work item",
        )

    @staticmethod
    def _is_broad(node: Optional[ast.AST]) -> bool:
        if node is None:
            return True
        if isinstance(node, ast.Name):
            return node.id in ("Exception", "BaseException")
        if isinstance(node, ast.Tuple):
            return any(FaultHygieneRule._is_broad(e) for e in node.elts)
        return False


@register_rule
class SketchDeclarationRule(LintRule):
    """RPR007: sketch components declare their accuracy trade.

    A meta-feature with ``exact = False`` computes an approximation of
    a Table I value.  Reported accuracy deltas, the ``repro features``
    listing and the profile documentation all read the declared
    metadata, so a sketch component without an ``accuracy_knob``
    description or a paired ``exact_reference`` component silently
    drops out of the accuracy-vs-speed accounting.
    """

    id = "RPR007"
    contract = (
        "MetaFeature subclasses declaring exact=False must declare "
        "accuracy_knob metadata and a paired exact_reference component"
    )
    scope = ("metafeatures", "tests")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for module in ctx.group(*self.scope):
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name == "MetaFeature" or not _subclasses_metafeature(node):
                    continue
                yield from self._check_component(module, node)

    def _check_component(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        if _class_flags(cls).get("exact") is not False:
            return
        if not _declares_str_attr(cls, "accuracy_knob"):
            yield self.finding(
                module,
                cls,
                f"{cls.name} declares exact=False without an "
                "accuracy_knob describing what is approximated and by "
                "how much",
            )
        if not _declares_str_attr(cls, "exact_reference"):
            yield self.finding(
                module,
                cls,
                f"{cls.name} declares exact=False without naming the "
                "exact_reference component it approximates (accuracy "
                "deltas are measured against it)",
            )


def _subclasses_metafeature(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id == "MetaFeature":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "MetaFeature":
            return True
    return False


def _class_flags(cls: ast.ClassDef) -> Dict[str, object]:
    flags: Dict[str, object] = {}
    for node in cls.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    flags[target.id] = node.value.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and isinstance(node.value, ast.Constant)
        ):
            flags[node.target.id] = node.value.value
    return flags


def _declares_name(cls: ast.ClassDef) -> bool:
    return _declares_str_attr(cls, "name")


def _declares_str_attr(cls: ast.ClassDef, attr: str) -> bool:
    """True if ``attr`` is a non-empty class constant or set in __init__."""
    flags = _class_flags(cls)
    value = flags.get(attr)
    if isinstance(value, str) and value:
        return True
    init = _method(cls, "__init__")
    if init is None:
        return False
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == attr
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
    return False


__all__ = [
    "STATE_BEARING",
    "KERNEL_GROUPS",
    "DeterminismRule",
    "StateContractRule",
    "TrustedKernelRule",
    "ToggleCoverageRule",
    "RegistryMetadataRule",
    "FaultHygieneRule",
    "SketchDeclarationRule",
]
