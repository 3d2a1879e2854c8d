"""Purity & cache-salt soundness certification (MAYA050-MAYA053).

Every result in this repo flows through the content-addressed trace
cache, whose soundness rests on three hand-maintained promises:

1. the ``_SIMULATION_PACKAGES`` salt in ``repro.exec.jobs`` covers every
   module whose code a simulated session can execute;
2. sim-reachable code reads nothing ambient (environment variables,
   files, clocks, global RNG state) that is not part of the
   :class:`~repro.exec.jobs.SessionJob` description;
3. every job field that influences the trace flows into
   ``SessionJob.key()``'s digest.

This analysis proves those promises statically, the same way the
reassociation-safety pass (:mod:`.numeric`) certifies the batched twins.
It computes the import/call closure of the simulation entry points —
``execute_job``/``execute_jobs_batched`` plus every ``# maya:
batch-twin(...)`` batched implementation — over the shared abstract
interpreter and layers four rules on the closure:

* **MAYA050** — sim-reachable code reads ambient state (``os.environ``,
  file reads, locale/platform/time, global RNG) not captured in the job
  content address; identical jobs could cache different traces;
* **MAYA051** — a module in the sim closure is missing from the
  ``_SIMULATION_PACKAGES`` salt (editing it would not invalidate cached
  traces), or a declared salt entry covers no reachable code (a dead or
  typo'd entry giving false confidence);
* **MAYA052** — sim-reachable code mutates a module-level container or a
  class attribute after init (cross-session contamination: state written
  by one cached session leaks into the next);
* **MAYA053** — a job field is read on a trace-influencing path but never
  flows into the ``key()`` digest, so two jobs differing only in that
  field collide in the cache.

Modules that *must* sit outside the purity contract are enumerated as
waivers rather than silently skipped: the salt-defining module itself
(``code_salt()`` digests the salted sources by design), ``exec/batch.py``
(excluded from the salt; pinned instead by the MAYA043 batch-twin
bit-identity certificates), and ``repro.telemetry`` (out-of-band by the
MAYA032 contract).  Their ambient reads and mutations are still recorded
— in the certificate, not as findings.

The result is one ``maya.lint.purity-certificate.v1`` per entry point
(committed under ``certs/purity/``, regenerated and byte-compared by CI)
carrying the closure module list, the salt-coverage verdict, the waiver
inventory, and the job-key field accounting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .interp import AV, Evaluator, Finding, Reporter
from .model import FunctionInfo, ProjectModel
from .numeric import _BATCH_TWIN_RE, module_name

__all__ = [
    "PURITY_RULES",
    "PURITY_CERT_SCHEMA",
    "PurityEvaluator",
    "analyze_purity",
    "purity_certificates",
]

PURITY_RULES = {
    "MAYA050": "sim-reachable code reads ambient state outside the job key",
    "MAYA051": "simulation closure and _SIMULATION_PACKAGES salt disagree",
    "MAYA052": "sim-reachable mutation of module-level or class state",
    "MAYA053": "job field influences the trace but not the key() digest",
}

PURITY_CERT_SCHEMA = "maya.lint.purity-certificate.v1"

#: Function names treated as simulation entry points (module level).
_ENTRY_NAMES = frozenset({"execute_job", "execute_jobs_batched"})

#: The salt assignment the analysis certifies against.
_SALT_NAME = "_SIMULATION_PACKAGES"

# ---------------------------------------------------------------------------
# Ambient-state tables (MAYA050)
# ---------------------------------------------------------------------------

#: Attribute chains that *are* ambient state the moment they are read.
_AMBIENT_ATTRS = frozenset(
    {
        "os.environ",
        "os.environb",
        "sys.argv",
        "sys.platform",
        "sys.path",
        "sys.version",
        "sys.version_info",
        "sys.flags",
        "sys.stdin",
    }
)

#: Fully dotted calls that sample ambient state.
_AMBIENT_CALLS = frozenset(
    {
        "os.getenv",
        "os.getenvb",
        "os.getcwd",
        "os.getcwdb",
        "os.cpu_count",
        "os.uname",
        "os.getpid",
        "os.getppid",
        "os.getlogin",
        "os.urandom",
        "os.listdir",
        "os.scandir",
        "os.stat",
        "os.walk",
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "builtins.open",
        "builtins.input",
    }
)

#: Import roots where *any* call samples ambient state (none of these are
#: in the interpreter's EXTERNAL_ROOTS, so they resolve via global_av).
_AMBIENT_ROOTS = frozenset(
    {
        "locale",
        "platform",
        "socket",
        "getpass",
        "random",
        "secrets",
        "uuid",
        "tempfile",
        "subprocess",
        "shutil",
        "glob",
    }
)

#: Path-like read methods (receiver form: ``path.read_bytes()``).
_PATH_READS = frozenset({"read_text", "read_bytes", "rglob", "glob", "iterdir"})

#: numpy's module-level RNG surface (global hidden state).  A seeded
#: ``default_rng(seed)`` is pure; a bare ``default_rng()`` is ambient.
_GLOBAL_RNG = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "normal", "uniform", "choice", "shuffle", "permutation",
        "seed", "standard_normal", "get_state", "set_state",
    }
)

#: Container mutators (MAYA052) when invoked on module-level state.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "appendleft",
    }
)

#: Module suffixes waived out of the purity contract, with the covering
#: contract spelled out.  The salt-defining module and the root package
#: facade are waived dynamically (see :meth:`PurityEvaluator._waiver_for`).
_STATIC_WAIVERS: Tuple[Tuple[str, str], ...] = (
    (
        "exec.batch",
        "excluded from the salt by design; covered by the serial/batched "
        "bit-identity contract pinned by the MAYA043 batch-twin certificates",
    ),
    (
        "telemetry",
        "out-of-band observability: the MAYA032 contract certifies no "
        "telemetry value flows back into simulation state",
    ),
)

_SALT_WAIVER_REASON = (
    "defines the salt: code_salt() digests the salted sources and the "
    "per-process factory memo is keyed on the full declarative description"
)
_FACADE_WAIVER_REASON = (
    "top-level package facade: re-exports only; every simulation "
    "definition lives in a salted package"
)

#: Marks an abstract value as a project-module object (``ext`` prefix).
_PROJ = "project-module:"


@dataclass(frozen=True)
class PurVal:
    """Purity lattice element: identity of a module-level binding, so
    aliased mutations (``t = TABLE; t.update(...)``) are still caught."""

    origin: Optional[Tuple[str, str]] = None  # (module path, name)


@dataclass
class _SaltDef:
    """One ``_SIMULATION_PACKAGES`` assignment and its resolved geometry."""

    path: str
    node: ast.AST
    entries: Tuple[str, ...]
    root: str = ""  # directory the entries are relative to


class PurityEvaluator(Evaluator):
    """Interprocedural effect-and-reachability closure over the entries."""

    def __init__(
        self,
        model: ProjectModel,
        reporter: Reporter,
        sources: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        super().__init__(model, reporter)
        self._sources = sources or {}
        # Entry points: (display name, FunctionInfo).
        self.entries: List[Tuple[str, FunctionInfo]] = []
        # Worklist state.
        self._queue: List[FunctionInfo] = []
        self._seen: Set[str] = set()
        self._walked: Set[str] = set()
        self._cur_qual: Optional[str] = None
        # Reachability graph: caller qualname -> callee qualnames, and the
        # module contributions (constructed classes, module refs) per caller.
        self._edges: Dict[str, Set[str]] = {}
        self._func_module: Dict[str, str] = {}
        self._extra_modules: Dict[str, Set[str]] = {}
        # Rapid-type-analysis state for virtual dispatch: only classes the
        # walked code actually constructs receive method calls resolved on
        # a base class, so a Defense subclass in an unreachable experiment
        # does not drag its module into the closure.
        self._constructed: Set[str] = set()
        self._virtual_sites: Set[Tuple[str, str]] = set()
        # Effects, keyed for dedup: (module, line, detail).
        self._ambient: Dict[bool, List[dict]] = {False: [], True: []}
        self._mutations: Dict[bool, List[dict]] = {False: [], True: []}
        self._effect_seen: Set[Tuple[str, str, int, str]] = set()
        # MAYA053 state: every job class (a class with a ``key()`` digest)
        # reachable from an entry's first parameter, with per-class field
        # accounting so a corpus with several job types certifies each.
        self._job_classes: Dict[str, Tuple[str, ...]] = {}
        self._entry_job_cls: Dict[str, Optional[str]] = {}
        self._key_fns: Dict[str, FunctionInfo] = {}
        self._in_digest = False
        self._digest_quals: Set[str] = set()
        self._hashed: Dict[str, Set[str]] = {}
        self._read: Dict[str, Set[str]] = {}
        # Salt state.
        self.salt_defs: List[_SaltDef] = []
        self.salt_covered: Set[str] = set()
        self.salt_unsalted: Set[str] = set()
        self.salt_dead: Dict[str, List[str]] = {}
        # Import-resolution caches.
        self._import_cache: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def analyze(self) -> None:
        self._collect_entries()
        if not self.entries:
            return
        self._collect_salt_defs()
        self._find_job_classes()
        # Phase 1: the digest closure — field reads here count as *hashed*.
        for cls_name in sorted(self._job_classes):
            for name in ("key", "describe"):
                fn = self.model.resolve_method(cls_name, name)
                if fn is not None:
                    if name == "key":
                        self._key_fns[cls_name] = fn
                    self._push(fn)
        self._in_digest = True
        self._drain()
        self._digest_quals = set(self._walked)
        self._in_digest = False
        # Phase 2: the full simulation closure from every entry point.
        for _display, fn in self.entries:
            self._push(fn)
        self._drain()
        self._check_salt()
        self._check_job_key()

    def _drain(self) -> None:
        while self._queue:
            fn = self._queue.pop(0)
            if fn.qualname in self._walked:
                continue
            self._walked.add(fn.qualname)
            self._cur_qual = fn.qualname
            try:
                self._scan_global_decls(fn)
                self.exec_function(fn, self.seed_env(fn))
            finally:
                self._cur_qual = None

    def _push(self, fn: FunctionInfo) -> None:
        qual = fn.qualname
        self._func_module[qual] = fn.path
        if self._cur_qual is not None:
            self._edges.setdefault(self._cur_qual, set()).add(qual)
        if qual not in self._seen:
            self._seen.add(qual)
            self._queue.append(fn)

    def _touch_module(self, path: str) -> None:
        if self._cur_qual is not None:
            self._extra_modules.setdefault(self._cur_qual, set()).add(path)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def _display(self, fn: FunctionInfo) -> str:
        return f"{fn.class_name}.{fn.name}" if fn.class_name else fn.name

    def _collect_entries(self) -> None:
        ordered: List[Tuple[str, FunctionInfo]] = []
        for fn in self.model.functions:
            if fn.class_name is None and fn.name in _ENTRY_NAMES:
                ordered.append((self._display(fn), fn))
        for fn in self.model.functions:
            lines = self._sources.get(fn.path)
            if not lines:
                continue
            start = fn.node.lineno
            for decorator in getattr(fn.node, "decorator_list", ()):
                start = min(start, decorator.lineno)
            for idx in range(max(0, start - 2), min(len(lines), fn.node.lineno)):
                if _BATCH_TWIN_RE.search(lines[idx]):
                    ordered.append((self._display(fn), fn))
                    break
        seen: Set[str] = set()
        for display, fn in ordered:
            if fn.qualname not in seen:
                seen.add(fn.qualname)
                self.entries.append((display, fn))

    def _is_job_class(self, cls_name: Optional[str]) -> bool:
        return (
            cls_name is not None
            and self.model.class_named(cls_name) is not None
            and self.model.resolve_method(cls_name, "key") is not None
        )

    def _class_fields(self, cls_name: str) -> Tuple[str, ...]:
        fields = self.model.dataclass_fields(cls_name)
        if not fields:
            # dataclass_fields() keys off the bare @dataclass decorator;
            # the call form (@dataclass(frozen=True)) hides it, but the
            # annotated class-body fields are the same inventory.
            cls = self.model.class_named(cls_name)
            if cls is not None:
                fields = tuple(cls.field_ann)
        return fields

    def _find_job_classes(self) -> None:
        """Map each entry to its job class (a class with a ``key()``).

        The class comes from the entry's first parameter annotation; twins
        whose first parameter is not a job (a power model, a defense
        fleet) fall back to the project-wide default so every certificate
        carries the same accounting it is actually protected by.
        """
        default = "SessionJob" if self._is_job_class("SessionJob") else None
        for _display, fn in self.entries:
            cls = None
            if fn.params:
                cls = self._annotation_cls(fn.annotations.get(fn.params[0], ()))
            if not self._is_job_class(cls):
                cls = default
            self._entry_job_cls[fn.qualname] = cls
            if cls is not None and cls not in self._job_classes:
                self._job_classes[cls] = self._class_fields(cls)
                self._hashed[cls] = set()
                self._read[cls] = set()

    # ------------------------------------------------------------------
    # Waivers
    # ------------------------------------------------------------------

    def _waiver_for(self, path: str) -> Optional[Tuple[str, str]]:
        """(matched suffix, reason) when ``path`` sits outside the purity
        contract; the certificate enumerates every applied waiver."""
        if any(d.path == path for d in self.salt_defs):
            return (module_name(path), _SALT_WAIVER_REASON)
        for d in self.salt_defs:
            if d.root and path == f"{d.root}/__init__.py":
                return (module_name(path), _FACADE_WAIVER_REASON)
        parts = module_name(path).split(".")
        for suffix, reason in _STATIC_WAIVERS:
            sparts = suffix.split(".")
            for i in range(len(parts) - len(sparts) + 1):
                if parts[i : i + len(sparts)] == sparts:
                    return (suffix, reason)
        return None

    # ------------------------------------------------------------------
    # Effects: MAYA050 (ambient reads) and MAYA052 (mutations)
    # ------------------------------------------------------------------

    def _record_effect(self, kind: str, node: ast.AST, ctx, detail: str, message: str) -> None:
        if self.reporter.muted:
            # Muted evaluations (arg re-eval, module-level expressions, our
            # own attribute pre-scans) are always followed or preceded by an
            # unmuted pass over the same site; recording here would mark the
            # site seen and swallow the real finding.
            return
        path = getattr(ctx, "path", "")
        mod = self.model.modules.get(path)
        if mod is None:
            return
        line = getattr(node, "lineno", 1)
        key = (kind, path, line, detail)
        if key in self._effect_seen:
            return
        self._effect_seen.add(key)
        waiver = self._waiver_for(path)
        entry = {"module": module_name(path), "line": line, "detail": detail}
        bucket = self._ambient if kind == "ambient" else self._mutations
        if waiver is not None:
            bucket[True].append(entry)
        else:
            bucket[False].append(entry)
            rule = "MAYA050" if kind == "ambient" else "MAYA052"
            self.reporter.report(path, node, rule, message)

    def _check_ambient_value(self, av: AV, node: ast.AST, ctx) -> None:
        if av.ext in _AMBIENT_ATTRS:
            self._record_effect(
                "ambient",
                node,
                ctx,
                av.ext,
                f"sim-reachable code reads ambient state '{av.ext}' that is "
                f"not captured in the job content address; identical "
                f"SessionJobs could cache different traces",
            )

    def _classify_ambient_call(self, dotted: str, receiver: Optional[AV], arg_avs) -> Optional[str]:
        if not dotted:
            return None
        if dotted.startswith(_PROJ):
            return None
        bare = dotted.rsplit(".", 1)[-1]
        if dotted in ("open", "input"):
            return f"builtins.{dotted}"
        if "." in dotted:
            if any(dotted == a or dotted.startswith(a + ".") for a in _AMBIENT_ATTRS):
                return None  # already reported at the attribute read
            if dotted in _AMBIENT_CALLS:
                return dotted
            root = dotted.split(".", 1)[0]
            if root in _AMBIENT_ROOTS:
                return dotted
            if ".random." in f".{dotted}." and bare in _GLOBAL_RNG:
                return dotted  # numpy.random module-level (hidden global state)
            if dotted.endswith(".random.default_rng") and not arg_avs:
                return dotted + " (unseeded)"
        elif receiver is not None and bare in _PATH_READS:
            return f"<receiver>.{bare}"
        return None

    def call_external(self, node, dotted, receiver, arg_avs, env, ctx) -> AV:
        detail = self._classify_ambient_call(dotted, receiver, arg_avs)
        if detail is not None:
            self._record_effect(
                "ambient",
                node,
                ctx,
                detail,
                f"sim-reachable code reads ambient state via '{detail}' "
                f"outside the job content address; identical SessionJobs "
                f"could cache different traces",
            )
        bare = dotted.rsplit(".", 1)[-1] if dotted else ""
        if (
            bare in _MUTATOR_METHODS
            and receiver is not None
            and isinstance(receiver.payload, PurVal)
            and receiver.payload.origin is not None
        ):
            opath, oname = receiver.payload.origin
            self._record_effect(
                "mutation",
                node,
                ctx,
                f"{module_name(opath)}.{oname}.{bare}",
                f"sim-reachable code mutates module-level state "
                f"'{oname}' (defined in {module_name(opath)}) via "
                f".{bare}(); cached sessions would contaminate each other",
            )
        if self._in_digest and dotted.endswith("asdict"):
            for av in arg_avs:
                if av.cls in self._job_classes:
                    self._hashed[av.cls].update(self._job_classes[av.cls])
        return AV()

    def on_call(self, node, callee_name, arg_avs, ctx) -> None:
        # Function references escaping as call arguments stay reachable.
        for av in arg_avs:
            if av.func is not None:
                self._push(av.func)
            if av.elems:
                for el in av.elems:
                    if el.func is not None:
                        self._push(el.func)

    def bind_attr(self, obj: AV, attr: str, value: AV, node, ctx) -> None:
        if obj.ctor is not None and self.model.class_named(obj.ctor) is not None:
            self._record_effect(
                "mutation",
                node,
                ctx,
                f"{obj.ctor}.{attr}",
                f"sim-reachable code assigns class attribute "
                f"'{obj.ctor}.{attr}' after init; the new value persists "
                f"across sessions in the same process",
            )
        elif isinstance(obj.payload, PurVal) and obj.payload.origin is not None:
            opath, oname = obj.payload.origin
            self._record_effect(
                "mutation",
                node,
                ctx,
                f"{module_name(opath)}.{oname}.{attr}",
                f"sim-reachable code stores attribute '{attr}' on "
                f"module-level object '{oname}' (defined in "
                f"{module_name(opath)}); cached sessions would contaminate "
                f"each other",
            )

    def _bind_target(self, target, value, stmt, env, ctx) -> None:
        if isinstance(target, ast.Subscript):
            self.reporter.mute()
            try:
                obj = self.eval(target.value, env, ctx)
            finally:
                self.reporter.unmute()
            if isinstance(obj.payload, PurVal) and obj.payload.origin is not None:
                opath, oname = obj.payload.origin
                self._record_effect(
                    "mutation",
                    stmt,
                    ctx,
                    f"{module_name(opath)}.{oname}[...]",
                    f"sim-reachable code stores into module-level container "
                    f"'{oname}' (defined in {module_name(opath)}); cached "
                    f"sessions would contaminate each other",
                )
        super()._bind_target(target, value, stmt, env, ctx)

    def _scan_global_decls(self, fn: FunctionInfo) -> None:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                for name in node.names:
                    self._record_effect(
                        "mutation",
                        node,
                        fn,
                        f"global {name}",
                        f"sim-reachable function '{self._display(fn)}' "
                        f"rebinds module global '{name}'; cached sessions "
                        f"would contaminate each other",
                    )

    # ------------------------------------------------------------------
    # Value resolution overrides
    # ------------------------------------------------------------------

    def module_global(self, path: str, name: str) -> AV:
        av = super().module_global(path, name)
        return replace(av, payload=PurVal(origin=(path, name)))

    def global_av(self, name, node, ctx) -> AV:
        mod = self.model.modules.get(getattr(ctx, "path", ""))
        if mod is not None and name in mod.aliases:
            target = mod.aliases[name]
            mpath = self._resolve_module(target, ctx.path)
            if mpath is not None:
                self._touch_module(mpath)
                return AV(ext=_PROJ + mpath)
            root = target.split(".", 1)[0]
            if root in _AMBIENT_ROOTS:
                return AV(ext=target)
        return AV()

    def _eval_name(self, node, env, ctx) -> AV:
        av = super()._eval_name(node, env, ctx)
        if av.func is not None:
            self._push(av.func)
        self._check_ambient_value(av, node, ctx)
        return av

    def _eval_attribute(self, node, env, ctx) -> AV:
        self.reporter.mute()
        try:
            obj = self.eval(node.value, env, ctx)
        finally:
            self.reporter.unmute()
        attr = node.attr
        # Attribute access through a project-module reference.
        if obj.ext is not None and obj.ext.startswith(_PROJ):
            mpath = obj.ext[len(_PROJ):]
            target_mod = self.model.modules.get(mpath)
            if target_mod is not None:
                self._touch_module(mpath)
                if attr in target_mod.functions:
                    fn = target_mod.functions[attr]
                    self._push(fn)
                    return AV(func=fn)
                if attr in target_mod.classes:
                    return AV(ctor=attr)
                if attr in target_mod.assigns:
                    return self.module_global(mpath, attr)
            return AV()
        # MAYA053: reads of job fields outside the digest closure.
        if obj.cls in self._job_classes and attr in self._job_classes[obj.cls]:
            if self._in_digest or self._cur_qual in self._digest_quals:
                self._hashed[obj.cls].add(attr)
            else:
                self._read[obj.cls].add(attr)
        av = super()._eval_attribute(node, env, ctx)
        self._check_ambient_value(av, node, ctx)
        return av

    def call_project(self, node, finfo, bound, args_map, arg_avs, complete, ctx) -> AV:
        self._push(finfo)
        if finfo.class_name is not None and not finfo.name.startswith("__"):
            site = (finfo.class_name, finfo.name)
            if site not in self._virtual_sites:
                self._virtual_sites.add(site)
                for cls_name in tuple(self._constructed):
                    self._dispatch(cls_name, finfo.class_name, finfo.name)
        return AV(cls=self._annotation_cls(finfo.return_annotation))

    def call_constructor(self, node, class_name, args_map, arg_avs, complete, ctx) -> AV:
        cls = self.model.class_named(class_name)
        if cls is not None:
            self._touch_module(cls.path)
            if class_name not in self._constructed:
                self._constructed.add(class_name)
                for base, method in tuple(self._virtual_sites):
                    self._dispatch(class_name, base, method)
            for method_name in ("__init__", "__post_init__"):
                method = self.model.resolve_method(class_name, method_name)
                if method is not None:
                    self._push(method)
        return AV(cls=class_name)

    def _dispatch(self, cls_name: str, base: str, method: str) -> None:
        """Push the override a virtual ``base.method`` call reaches on a
        constructed instance of ``cls_name`` (no-op unless it subclasses)."""
        if not any(c.name == base for c in self.model.mro(cls_name)):
            return
        resolved = self.model.resolve_method(cls_name, method)
        if resolved is not None:
            self._push(resolved)

    # ------------------------------------------------------------------
    # Import closure and module resolution
    # ------------------------------------------------------------------

    def _dotted(self, path: str) -> str:
        return module_name(path)

    def _resolve_module(self, target: str, importer: str) -> Optional[str]:
        """Project-module path an import target refers to, or None.

        Tries each dotted prefix of ``target`` (longest first) against the
        modules' dotted names; suffix matches break ties by preferring the
        candidate sharing the longest path prefix with the importer
        (relative imports lose their level in the alias map).
        """
        parts = target.split(".")
        for k in range(len(parts), 0, -1):
            cand = ".".join(parts[:k])
            hits = [
                path
                for path in self.model.modules
                if self._dotted(path) == cand or self._dotted(path).endswith("." + cand)
            ]
            if not hits:
                continue
            if len(hits) == 1:
                return hits[0]

            def _affinity(path: str) -> int:
                common = 0
                for a, b in zip(path.split("/"), importer.split("/")):
                    if a != b:
                        break
                    common += 1
                return common

            hits.sort(key=_affinity, reverse=True)
            if _affinity(hits[0]) > _affinity(hits[1]):
                return hits[0]
            return None  # ambiguous: stay under-approximate
        return None

    def _module_imports(self, path: str) -> Set[str]:
        cached = self._import_cache.get(path)
        if cached is not None:
            return cached
        out: Set[str] = set()
        mod = self.model.modules.get(path)
        if mod is not None:
            for target in set(mod.aliases.values()):
                resolved = self._resolve_module(target, path)
                if resolved is not None:
                    out.add(resolved)
        self._import_cache[path] = out
        return out

    def _call_closure_modules(self, entry: FunctionInfo) -> Set[str]:
        mods: Set[str] = set()
        seen: Set[str] = set()
        queue = [entry.qualname]
        while queue:
            qual = queue.pop()
            if qual in seen:
                continue
            seen.add(qual)
            if qual in self._func_module:
                mods.add(self._func_module[qual])
            mods.update(self._extra_modules.get(qual, ()))
            queue.extend(self._edges.get(qual, ()))
        return mods

    def _import_closure(self, mods: Set[str]) -> Set[str]:
        out = set(mods)
        queue = list(mods)
        while queue:
            path = queue.pop()
            for imported in self._module_imports(path):
                if imported not in out:
                    out.add(imported)
                    queue.append(imported)
        return out

    def closure_for(self, entry: FunctionInfo) -> Set[str]:
        return self._import_closure(self._call_closure_modules(entry))

    def union_closure(self) -> Set[str]:
        mods: Set[str] = set()
        for _display, fn in self.entries:
            mods |= self._call_closure_modules(fn)
        for key_fn in self._key_fns.values():
            mods |= self._call_closure_modules(key_fn)
        return self._import_closure(mods)

    # ------------------------------------------------------------------
    # MAYA051: salt coverage
    # ------------------------------------------------------------------

    def _collect_salt_defs(self) -> None:
        for path in sorted(self.model.modules):
            mod = self.model.modules[path]
            expr = mod.assigns.get(_SALT_NAME)
            if expr is None:
                continue
            if not isinstance(expr, (ast.Tuple, ast.List)):
                continue
            entries = []
            for el in expr.elts:
                if isinstance(el, ast.Constant) and isinstance(el.value, str):
                    entries.append(el.value)
            self.salt_defs.append(_SaltDef(path=path, node=expr, entries=tuple(entries)))

    def _resolve_salt_roots(self) -> None:
        """Entries are paths relative to the package root directory — find
        it by scoring each ancestor of the defining module against them."""
        all_paths = list(self.model.modules)
        for d in self.salt_defs:
            segments = d.path.split("/")[:-1]
            best, best_score = "", -1
            for up in range(len(segments), 0, -1):
                root = "/".join(segments[:up])
                score = sum(
                    1
                    for entry in d.entries
                    if any(
                        p.startswith(f"{root}/{entry}/") for p in all_paths
                    )
                )
                if score > best_score:
                    best, best_score = root, score
            d.root = best

    def _claiming_def(self, path: str) -> Optional[_SaltDef]:
        best: Optional[_SaltDef] = None
        for d in self.salt_defs:
            prefix = d.root + "/" if d.root else ""
            if path.startswith(prefix):
                if best is None or len(d.root) > len(best.root):
                    best = d
        return best

    def _check_salt(self) -> None:
        if not self.salt_defs:
            return
        self._resolve_salt_roots()
        closure = self.union_closure()
        live_entries: Dict[Tuple[str, str], bool] = {}
        for d in self.salt_defs:
            for entry in d.entries:
                live_entries[(d.path, entry)] = False
        for path in sorted(closure):
            d = self._claiming_def(path)
            if d is None:
                continue
            covering = None
            for entry in d.entries:
                if path.startswith(f"{d.root}/{entry}/"):
                    covering = entry
                    break
            if covering is not None:
                live_entries[(d.path, covering)] = True
                self.salt_covered.add(path)
                continue
            if self._waiver_for(path) is not None:
                continue
            self.salt_unsalted.add(path)
            self.reporter.report(
                d.path,
                d.node,
                "MAYA051",
                f"module '{module_name(path)}' is reachable from the "
                f"simulation entry points but missing from "
                f"{_SALT_NAME}; editing it would not invalidate cached "
                f"traces",
            )
        for d in self.salt_defs:
            dead = [e for e in d.entries if not live_entries[(d.path, e)]]
            if dead:
                self.salt_dead[d.path] = dead
            for entry in dead:
                self.reporter.report(
                    d.path,
                    d.node,
                    "MAYA051",
                    f"salt entry '{entry}' in {_SALT_NAME} matches no module "
                    f"reachable from the simulation entry points; a dead or "
                    f"typo'd entry gives false cache-invalidation confidence",
                )

    # ------------------------------------------------------------------
    # MAYA053: job-key field accounting
    # ------------------------------------------------------------------

    def _check_job_key(self) -> None:
        for cls_name in sorted(self._key_fns):
            key_fn = self._key_fns[cls_name]
            missing = sorted(self._read[cls_name] - self._hashed[cls_name])
            for field_name in missing:
                self.reporter.report(
                    key_fn.path,
                    key_fn.node,
                    "MAYA053",
                    f"job field '{field_name}' influences the simulation "
                    f"trace but does not flow into {cls_name}.key()'s "
                    f"digest; two jobs differing only in '{field_name}' "
                    f"would collide in the cache",
                )

    # ------------------------------------------------------------------
    # Certificate inputs
    # ------------------------------------------------------------------

    def effect_records(self, kind: str, waived: bool, closure_dotted: Set[str]) -> List[dict]:
        bucket = self._ambient if kind == "ambient" else self._mutations
        records = [r for r in bucket[waived] if r["module"] in closure_dotted]
        return sorted(records, key=lambda r: (r["module"], r["line"], r["detail"]))

    def job_key_section(self, entry: FunctionInfo) -> Optional[dict]:
        cls_name = self._entry_job_cls.get(entry.qualname)
        if cls_name is None:
            return None
        read = self._read.get(cls_name, set())
        hashed = self._hashed.get(cls_name, set())
        return {
            "class": cls_name,
            "fields": sorted(self._job_classes.get(cls_name, ())),
            "hashed": sorted(hashed),
            "read_outside_digest": sorted(read),
            "missing": sorted(read - hashed),
        }

    def salt_section(self) -> dict:
        if not self.salt_defs:
            return {
                "declared": [],
                "covered": [],
                "unsalted": [],
                "dead_entries": [],
                "verdict": "absent",
            }
        declared = sorted({e for d in self.salt_defs for e in d.entries})
        dead = sorted({e for entries in self.salt_dead.values() for e in entries})
        unsound = bool(self.salt_unsalted) or bool(dead)
        return {
            "declared": declared,
            "covered": sorted(module_name(p) for p in self.salt_covered),
            "unsalted": sorted(module_name(p) for p in self.salt_unsalted),
            "dead_entries": dead,
            "verdict": "unsound" if unsound else "ok",
        }


# ---------------------------------------------------------------------------
# Entry point and certificates
# ---------------------------------------------------------------------------


def analyze_purity(
    model: ProjectModel, sources: Optional[Dict[str, Sequence[str]]] = None
) -> Tuple[List[Finding], Dict[str, dict]]:
    """Run the purity analysis.

    Returns ``(findings, certificates)`` where ``certificates`` maps each
    entry-point display name to its ``maya.lint.purity-certificate.v1``.
    Projects without simulation entry points produce neither.
    """
    reporter = Reporter()
    evaluator = PurityEvaluator(model, reporter, sources)
    evaluator.analyze()
    findings = sorted(reporter.findings)
    return findings, purity_certificates(model, findings, evaluator)


def purity_certificates(
    model: ProjectModel,
    findings: Sequence[Finding],
    evaluator: PurityEvaluator,
) -> Dict[str, dict]:
    """One certificate per simulation entry point.

    The salt section is computed over the *union* closure of every entry
    (and embedded identically in each certificate), so a twin's narrow
    closure never reports the orchestration packages as dead entries.
    """
    certificates: Dict[str, dict] = {}
    salt = evaluator.salt_section()
    rule_findings = [f for f in findings if f.rule_id in PURITY_RULES]
    for display, fn in sorted(evaluator.entries, key=lambda item: item[0]):
        job_key = evaluator.job_key_section(fn)
        closure_paths = evaluator.closure_for(fn)
        closure_dotted = {module_name(p) for p in closure_paths}
        waivers = []
        seen_waivers = set()
        for path in sorted(closure_paths):
            waiver = evaluator._waiver_for(path)
            if waiver is None:
                continue
            entry = {"module": module_name(path), "reason": waiver[1]}
            key = (entry["module"], entry["reason"])
            if key not in seen_waivers:
                seen_waivers.add(key)
                waivers.append(entry)
        in_closure = [
            f for f in rule_findings if module_name(f.path) in closure_dotted
        ]
        ok = (
            salt["verdict"] in ("ok", "absent")
            and not in_closure
            and not (job_key or {}).get("missing")
        )
        certificates[display] = {
            "schema": PURITY_CERT_SCHEMA,
            "entry": display,
            "entry_module": module_name(fn.path),
            "closure_modules": sorted(closure_dotted),
            "waivers": waivers,
            "salt": salt,
            "ambient": {
                "violations": evaluator.effect_records("ambient", False, closure_dotted),
                "waived": evaluator.effect_records("ambient", True, closure_dotted),
            },
            "mutations": {
                "violations": evaluator.effect_records("mutation", False, closure_dotted),
                "waived": evaluator.effect_records("mutation", True, closure_dotted),
            },
            "job_key": job_key,
            "ok": ok,
        }
    return certificates
