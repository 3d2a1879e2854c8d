"""The MAYA rule set: repo-specific AST hazards.

Each rule is a small, pluggable visitor with a stable id (``MAYA001``...),
a severity, and a one-line rationale tied to the reproduction's invariants.
Rules inspect one parsed module at a time through :meth:`Rule.check` and
yield ``(line, col, message)`` triples; the engine owns file discovery,
suppression (``# maya: ignore[RULE]``) and reporting.

Registering a new rule is one decorator::

    @register
    class MyRule(Rule):
        rule_id = "MAYA042"
        severity = "error"
        summary = "what invariant this protects"

        def check(self, tree, ctx):
            ...
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple, Type

__all__ = [
    "LintContext",
    "RawFinding",
    "Rule",
    "register",
    "default_rules",
    "all_rule_ids",
]

#: ``(line, col, message)`` as produced by a rule; the engine attaches the
#: rule id, severity, and path.
RawFinding = Tuple[int, int, str]


@dataclass(frozen=True)
class LintContext:
    """Per-module facts shared by every rule."""

    #: Forward-slash-normalized path of the module being linted.
    path: str
    #: Physical source lines (used by rules that need raw text).
    source_lines: tuple
    #: Whole-project dataflow results (a
    #: :class:`repro.lint.dataflow.DataflowContext`) when the engine was
    #: configured with ``analyses``; None for plain per-module lint runs.
    dataflow: object = None

    def path_endswith(self, suffixes: tuple) -> bool:
        return any(self.path.endswith(suffix) for suffix in suffixes)

    @property
    def module_stem(self) -> str:
        name = self.path.rsplit("/", 1)[-1]
        return name[:-3] if name.endswith(".py") else name


class Rule:
    """Base class: subclass, set the class attributes, implement check()."""

    rule_id: str = "MAYA000"
    severity: str = "error"
    summary: str = ""

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.rule_id}>"


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default set."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def default_rules() -> tuple:
    """Fresh instances of every registered rule, ordered by id."""
    return tuple(_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY))


def all_rule_ids() -> tuple:
    return tuple(sorted(_REGISTRY))


# --------------------------------------------------------------------------
# Shared AST helpers
# --------------------------------------------------------------------------


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted module path they are bound to.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import random``
    maps ``random -> numpy.random``; ``from time import time as now`` maps
    ``now -> time.time``.  Relative imports are skipped (they cannot reach
    numpy/time/datetime).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an attribute chain ('' if not one)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _resolve(dotted: str, aliases: Dict[str, str]) -> str:
    """Substitute the root of ``dotted`` through the import alias map."""
    if not dotted:
        return ""
    root, _, rest = dotted.partition(".")
    base = aliases.get(root, root)
    return f"{base}.{rest}" if rest else base


def _resolved_calls(tree: ast.Module) -> Iterator[Tuple[ast.Call, str]]:
    """Every Call node paired with its alias-resolved dotted callee name."""
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            resolved = _resolve(_dotted_name(node.func), aliases)
            if resolved:
                yield node, resolved


# --------------------------------------------------------------------------
# MAYA001 — randomness must flow through repro.machine.rng.spawn
# --------------------------------------------------------------------------


@register
class DirectRandomnessRule(Rule):
    """Direct ``np.random.*`` / ``random.*`` use breaks hierarchical seeding.

    Every stochastic component must draw from a generator obtained through
    ``repro.machine.rng.spawn(seed, *keys)`` so that streams are independent
    and experiments stay byte-reproducible end to end.  A raw
    ``np.random.default_rng`` (or worse, the legacy global ``np.random.seed``)
    creates an unkeyed stream that collides with or silently reorders the
    draws of other components.
    """

    rule_id = "MAYA001"
    severity = "error"
    summary = "randomness outside repro.machine.rng.spawn"

    #: The one module allowed to touch numpy's RNG constructors.
    allowed_path_suffixes = ("repro/machine/rng.py",)

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if ctx.path_endswith(self.allowed_path_suffixes):
            return
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield (
                            node.lineno,
                            node.col_offset,
                            "import of the stdlib 'random' module; draw from "
                            "repro.machine.rng.spawn instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import from the stdlib 'random' module; draw from "
                        "repro.machine.rng.spawn instead",
                    )
        for call, resolved in _resolved_calls(tree):
            if resolved.startswith("numpy.random.") or resolved.startswith("random."):
                yield (
                    call.lineno,
                    call.col_offset,
                    f"direct call to {resolved}(); obtain generators via "
                    "repro.machine.rng.spawn(seed, *keys)",
                )


# --------------------------------------------------------------------------
# MAYA002 — no wall-clock reads outside the sanctioned timing sites
# --------------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Wall-clock reads make simulated experiments time-dependent.

    The simulation is a deterministic function of (platform, workload,
    seed); reading the host clock anywhere inside it destroys that.  The
    only sanctioned sites are the CLI stopwatch (``repro/__main__.py``) and
    the Section VII-E latency micro-benchmark, which measure *our* runtime
    rather than feed the simulation.
    """

    rule_id = "MAYA002"
    severity = "error"
    summary = "wall-clock call outside the sanctioned timing sites"

    sanctioned_path_suffixes = (
        "repro/__main__.py",
        "repro/experiments/sec7e_controller_cost.py",
        "repro/bench/__init__.py",
        "repro/bench/__main__.py",
    )

    banned_calls = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if ctx.path_endswith(self.sanctioned_path_suffixes):
            return
        for call, resolved in _resolved_calls(tree):
            if resolved in self.banned_calls:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"wall-clock call {resolved}(); simulated time must come "
                    "from the machine model, host time only from the "
                    "sanctioned timing sites",
                )


# --------------------------------------------------------------------------
# MAYA003 — no float literal == / !=
# --------------------------------------------------------------------------


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    """``x == 0.3`` style comparisons are representation-dependent.

    Exact equality against a float literal silently depends on rounding
    behaviour (and breaks under the fixed-point refactors this repo keeps
    making).  Compare with a tolerance (``abs(x - y) < eps`` /
    ``math.isclose``) or suppress with a justified ``# maya: ignore``.
    """

    rule_id = "MAYA003"
    severity = "error"
    summary = "float literal compared with == / !="

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(operands[i]) or _is_float_literal(operands[i + 1]):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "float literal compared with ==/!=; use a tolerance "
                        "(abs(a - b) < eps or math.isclose)",
                    )
                    break


# --------------------------------------------------------------------------
# MAYA004 — mutable default arguments
# --------------------------------------------------------------------------


_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


@register
class MutableDefaultRule(Rule):
    """Mutable defaults are shared across calls — state leaks between runs."""

    rule_id = "MAYA004"
    severity = "error"
    summary = "mutable default argument"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield (
                        default.lineno,
                        default.col_offset,
                        "mutable default argument; use None and create the "
                        "object inside the function",
                    )


# --------------------------------------------------------------------------
# MAYA005 — public modules must declare __all__
# --------------------------------------------------------------------------


@register
class MissingAllRule(Rule):
    """Public modules without ``__all__`` leak implementation names.

    Every public module in ``src/repro`` declares its API explicitly;
    ``import *`` hygiene aside, the declaration is what the docs and the
    re-exporting ``__init__`` files key off.  Modules whose name starts
    with an underscore (``__main__``, private helpers) are exempt.
    """

    rule_id = "MAYA005"
    severity = "warning"
    summary = "public module missing __all__"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if ctx.module_stem.startswith("_"):
            return
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return
        yield (1, 0, "public module does not declare __all__")


# --------------------------------------------------------------------------
# MAYA006 — bare except
# --------------------------------------------------------------------------


@register
class BareExceptRule(Rule):
    """``except:`` swallows KeyboardInterrupt/SystemExit and hides bugs."""

    rule_id = "MAYA006"
    severity = "error"
    summary = "bare except clause"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "bare 'except:'; catch a specific exception type",
                )


# --------------------------------------------------------------------------
# MAYA030 — execution-layer results must be collated in job order
# --------------------------------------------------------------------------


@register
class NondeterministicCollationRule(Rule):
    """The execution layer must collate results in submission order.

    ``repro.exec`` guarantees that ``run_sessions`` returns traces in job
    order, bit-identical whether jobs ran serially, lock-step in a batch, or
    from the cache.  Two idioms silently break that guarantee: iterating futures in
    *completion* order (``concurrent.futures.as_completed``) and iterating
    an unordered container (a ``set``/``frozenset`` of futures or jobs).
    Both reorder results by scheduling accidents, so the rule bans them
    inside ``src/repro/exec/``.  If completion-order draining is ever
    genuinely needed, pair it with an explicit reorder-by-index step and
    suppress with ``# maya: ignore[MAYA030]`` on that line.
    """

    rule_id = "MAYA030"
    severity = "error"
    summary = "nondeterministic result collation in the execution layer"

    scoped_path_fragment = "repro/exec/"

    _unordered_builtins = frozenset({"set", "frozenset"})

    def _is_unordered(self, node: ast.AST, aliases: Dict[str, str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = _resolve(_dotted_name(node.func), aliases)
            return resolved in self._unordered_builtins
        return False

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if self.scoped_path_fragment not in ctx.path:
            return
        aliases = _import_aliases(tree)
        for call, resolved in _resolved_calls(tree):
            if resolved == "concurrent.futures.as_completed" or resolved.endswith(
                ".as_completed"
            ):
                yield (
                    call.lineno,
                    call.col_offset,
                    f"{resolved}() yields results in completion order; "
                    "collate futures by job index instead",
                )
        iterables: list = []
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                iterables.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in node.generators)
        for iterable in iterables:
            if self._is_unordered(iterable, aliases):
                yield (
                    iterable.lineno,
                    iterable.col_offset,
                    "iteration over an unordered set in the execution "
                    "layer; results must be collated in job order",
                )


# --------------------------------------------------------------------------
# MAYA031 — execution-layer filesystem enumeration must be sorted
# --------------------------------------------------------------------------


@register
class UnsortedEnumerationRule(Rule):
    """Directory listing order is a filesystem accident; sort it.

    ``os.listdir``/``os.scandir``/``glob`` and the ``Path.glob``/
    ``rglob``/``iterdir`` methods return entries in whatever order the
    filesystem happens to hold them — it differs between ext4, tmpfs and
    CI containers.  Inside ``src/repro/exec/`` that order feeds cache
    eviction and the code-salt digest, and inside ``src/repro/telemetry/``
    it feeds run-manifest collation, so an unsorted enumeration makes
    behaviour host-dependent.  Wrap the call in ``sorted(...)`` (or
    suppress with ``# maya: ignore[MAYA031]`` where order provably cannot
    matter).
    """

    rule_id = "MAYA031"
    severity = "error"
    summary = "unsorted filesystem enumeration in the execution layer"

    scoped_path_fragments = ("repro/exec/", "repro/telemetry/")

    _module_functions = frozenset(
        {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    )
    _method_suffixes = (".glob", ".rglob", ".iterdir")

    def _is_enumeration(self, resolved: str) -> bool:
        if resolved in self._module_functions:
            return True
        return resolved.endswith(self._method_suffixes)

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if not any(fragment in ctx.path for fragment in self.scoped_path_fragments):
            return
        sorted_wrapped = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
            ):
                sorted_wrapped.add(id(node.args[0]))
        for call, resolved in _resolved_calls(tree):
            if self._is_enumeration(resolved) and id(call) not in sorted_wrapped:
                yield (
                    call.lineno,
                    call.col_offset,
                    f"{resolved}() enumerates the filesystem in arbitrary "
                    "order; wrap the call in sorted()",
                )


# --------------------------------------------------------------------------
# MAYA032 — telemetry must stay out-of-band in simulation code
# --------------------------------------------------------------------------


@register
class TelemetryIsolationRule(Rule):
    """Simulation code may only *call* telemetry, never read it back.

    ``repro.telemetry`` is strictly out-of-band: the simulation is a pure
    function of (platform, workload, seed), and a trace must be
    bit-identical whether recording is on or off.  Inside the simulation
    packages (``machine``, ``control``, ``defenses``, ``masks``,
    ``core``), a name imported from ``repro.telemetry`` may therefore
    appear only as the root of a fire-and-forget call *statement* — never
    assigned, returned, passed as an argument, compared, or otherwise
    allowed to flow into machine/controller state.  The engine layer
    (``repro/exec/``) owns recorder objects and is exempt.
    """

    rule_id = "MAYA032"
    severity = "error"
    summary = "telemetry symbol flows into simulation state"

    scoped_path_fragments = (
        "repro/machine/",
        "repro/control/",
        "repro/defenses/",
        "repro/masks/",
        "repro/core/",
    )

    @staticmethod
    def _telemetry_bindings(tree: ast.Module) -> Dict[str, ast.AST]:
        """Local names bound to ``repro.telemetry`` or symbols inside it."""
        bound: Dict[str, ast.AST] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.telemetry" or alias.name.endswith(
                        ".telemetry"
                    ):
                        local = alias.asname or alias.name.split(".", 1)[0]
                        bound[local] = node
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "telemetry" or module.endswith(".telemetry"):
                    for alias in node.names:
                        bound[alias.asname or alias.name] = node
                else:
                    for alias in node.names:
                        if alias.name == "telemetry":
                            bound[alias.asname or alias.name] = node
        return bound

    @staticmethod
    def _call_root(node: ast.AST) -> "ast.Name | None":
        """The Name at the base of a (possibly dotted) call target."""
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        while isinstance(func, ast.Attribute):
            func = func.value
        return func if isinstance(func, ast.Name) else None

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[RawFinding]:
        if not any(fragment in ctx.path for fragment in self.scoped_path_fragments):
            return
        bound = self._telemetry_bindings(tree)
        if not bound:
            return
        # Sanctioned usages: the root Name of a call that is itself a bare
        # expression statement — the fire-and-forget emission pattern.
        sanctioned = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr):
                root = self._call_root(node.value)
                if root is not None:
                    sanctioned.add(id(root))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Name)
                and node.id in bound
                and id(node) not in sanctioned
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"telemetry symbol {node.id!r} used outside a "
                    "fire-and-forget call statement; simulation state must "
                    "never hold or read back telemetry (out-of-band "
                    "invariant)",
                )
