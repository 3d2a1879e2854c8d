"""Secret-taint certification (MAYA020-MAYA022) and the leakage certificate.

Maya's application-transparency claim requires that the defense never
*reacts to* application activity except through the sanctioned feedback
path: the mask generator and controller may observe measured power only
after it has passed through the RAPL sensor's windowed energy counter
(``measure_window``), which is the paper's abstraction boundary between
the physical side channel and the formal controller.

The analysis marks workload activity and raw per-tick sensor samples as
taint sources, treats ``measure_window`` as the only declassifier, and
checks three sink families inside the ``masks``/``control`` packages:

* **MAYA020** — a branch condition depends on a secret;
* **MAYA021** — a mask parameter (attribute store in ``masks``) depends
  on a secret;
* **MAYA022** — an actuator command (``quantize``/``quantize_normalized``/
  ``quantize_index``/``quantize_indices``/``denormalize``/
  ``ActuatorSettings``) depends on a secret.

Taint payloads are frozensets of symbols: the concrete source ``<secret>``
plus per-parameter placeholders ``p:<name>``.  Each function gets one
symbolic summary (returned symbols + parameter-dependent sinks); call
sites substitute actual argument taint into the callee's placeholders, so
secret flows are reported transitively at the call that introduces them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

from .interp import AV, Evaluator, Finding, Reporter
from .model import FunctionInfo, ProjectModel, name_tokens

__all__ = [
    "SECRET",
    "TaintSummary",
    "TaintEvaluator",
    "analyze_taint",
    "leakage_certificate",
    "is_source_name",
    "TAINT_RULES",
    "DECLASSIFIER_NAMES",
]

TAINT_RULES = {
    "MAYA020": "secret-dependent branch",
    "MAYA021": "secret-dependent mask parameter",
    "MAYA022": "secret-dependent actuator command",
}

SECRET = "<secret>"

#: Identifier tokens that make a name a taint source.
_SOURCE_TOKENS = frozenset({"activity", "activities", "secret", "secrets"})

#: Exact names of raw sensor-sample values (pre-declassification).
_SOURCE_NAMES = frozenset({"tick_powers"})

#: The sanctioned declassifiers: windowed energy measurement, in its
#: per-session and batched (row-per-session, bit-identical) forms.
DECLASSIFIER_NAMES = frozenset({"measure_window", "measure_windows"})

#: Calls that commit actuator commands (plus the settings constructor).
#: ``quantize_index``/``quantize_indices`` are the controller's per-session
#: and fleet forms of ``quantize_normalized``.
_ACTUATOR_CALLS = frozenset(
    {"quantize", "quantize_normalized", "quantize_index", "quantize_indices",
     "denormalize", "ActuatorSettings"}
)

#: External calls whose result depends only on data *shape*, not values.
_SHAPE_CALLS = frozenset(
    {"len", "range", "enumerate", "numpy.arange", "numpy.zeros", "numpy.ones"}
)

#: Receiver-mutating container methods (taint flows into the receiver).
_MUTATOR_METHODS = frozenset({"append", "extend", "insert", "add", "update"})

_SINK_PHRASES = {
    "MAYA020": "a branch condition",
    "MAYA021": "a mask parameter",
    "MAYA022": "an actuator command",
}

_SCOPE_PARTS = ("masks", "control")


def is_source_name(name: str) -> bool:
    """Is this identifier a taint source by the repo's naming policy?"""
    if name in _SOURCE_NAMES:
        return True
    return bool(_SOURCE_TOKENS.intersection(name_tokens(name)))


def _in_scope(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(part in _SCOPE_PARTS for part in parts)


def _syms(payload: object) -> FrozenSet[str]:
    return payload if isinstance(payload, frozenset) else frozenset()


@dataclass(frozen=True)
class TaintSummary:
    """Symbolic effect of one function: returned taint + param-fed sinks."""

    ret: FrozenSet[str] = frozenset()
    sinks: Tuple[Tuple[str, FrozenSet[str]], ...] = ()

    def sink_map(self) -> Dict[str, FrozenSet[str]]:
        return dict(self.sinks)


class TaintEvaluator(Evaluator):
    """Abstract interpreter whose payloads are frozensets of taint symbols."""

    def __init__(self, model: ProjectModel, reporter: Reporter) -> None:
        super().__init__(model, reporter)
        self._summaries: Dict[str, TaintSummary] = {}
        self._computing = set()
        self._summary_stack: List[Dict[str, set]] = []
        #: Every sink site observed, for the certificate: (path, line, col, rule).
        self.sink_sites = set()

    # -- lattice -------------------------------------------------------

    def join_payload(self, a: object, b: object) -> object:
        return _syms(a) | _syms(b)

    def const_payload(self, value: object) -> object:
        return frozenset()

    def binop_payload(self, node, left: AV, right: AV, ctx) -> object:
        return _syms(left.payload) | _syms(right.payload)

    def unary_payload(self, node, operand: AV, ctx) -> object:
        return _syms(operand.payload)

    def compare_payload(self, node, operands: List[AV], ctx) -> object:
        out = frozenset()
        for av in operands:
            out |= _syms(av.payload)
        return out

    # -- names, params, attributes ------------------------------------

    def param_av(self, func: FunctionInfo, name: str) -> AV:
        base = super().param_av(func, name)
        syms = {f"p:{name}"}
        if is_source_name(name):
            syms.add(SECRET)
        return replace(base, payload=frozenset(syms))

    def global_av(self, name: str, node, ctx) -> AV:
        if is_source_name(name):
            return AV(payload=frozenset({SECRET}))
        return AV(payload=frozenset())

    def site_av(self, av: AV) -> AV:
        # Class attribute tables are context-insensitive: keep only the
        # concrete secret, not some method's parameter placeholders.
        if SECRET in _syms(av.payload):
            return replace(av, payload=frozenset({SECRET}))
        return replace(av, payload=frozenset())

    def attr_av(self, obj: AV, attr: str, node, ctx) -> AV:
        syms = set(_syms(obj.payload))
        if is_source_name(attr):
            syms.add(SECRET)
        cls = None
        if obj.cls is not None:
            cls = self._annotation_cls(self.model.field_annotation(obj.cls, attr))
            table = self.eval_attr_sites(obj.cls, attr)
            if table is not None:
                syms |= _syms(table.payload)
                if cls is None:
                    cls = table.cls
        return AV(payload=frozenset(syms), cls=cls)

    # -- sinks ---------------------------------------------------------

    def _record_sink(self, rule: str, node, syms: FrozenSet[str], ctx, desc: str) -> None:
        self.sink_sites.add(
            (ctx.path, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), rule)
        )
        if SECRET in syms:
            self.reporter.report(
                ctx.path, node, rule, f"secret-tainted value reaches {desc}"
            )
        params = {sym for sym in syms if sym.startswith("p:")}
        if params and self._summary_stack:
            self._summary_stack[-1].setdefault(rule, set()).update(params)

    def on_branch(self, test: AV, node, ctx) -> None:
        if not _in_scope(ctx.path):
            return
        self._record_sink("MAYA020", node, _syms(test.payload), ctx, "a branch condition")

    def bind_attr(self, obj: AV, attr: str, value: AV, node, ctx) -> None:
        parts = ctx.path.replace("\\", "/").split("/")
        if "masks" not in parts:
            return
        self._record_sink(
            "MAYA021", node, _syms(value.payload), ctx, f"mask parameter '{attr}'"
        )

    def on_call(self, node: ast.Call, callee_name: str, arg_avs: List[AV], ctx) -> None:
        if callee_name not in _ACTUATOR_CALLS or not _in_scope(ctx.path):
            return
        syms = frozenset()
        for av in arg_avs:
            syms |= _syms(av.payload)
        self._record_sink(
            "MAYA022", node, syms, ctx, f"actuator command '{callee_name}'"
        )

    # -- calls ---------------------------------------------------------

    def summary(self, finfo: FunctionInfo) -> TaintSummary:
        qualname = finfo.qualname
        cached = self._summaries.get(qualname)
        if cached is not None:
            return cached
        if qualname in self._computing:
            return TaintSummary()
        self._computing.add(qualname)
        builder: Dict[str, set] = {}
        self._summary_stack.append(builder)
        self.reporter.mute()
        try:
            env = self.seed_env(finfo)
            ret = self.exec_function(finfo, env)
        finally:
            self.reporter.unmute()
            self._summary_stack.pop()
            self._computing.discard(qualname)
        summary = TaintSummary(
            ret=_syms(ret.payload),
            sinks=tuple(
                sorted((rule, frozenset(syms)) for rule, syms in builder.items())
            ),
        )
        self._summaries[qualname] = summary
        return summary

    def call_project(self, node, finfo, bound, args_map, arg_avs, complete, ctx) -> AV:
        cls = self._annotation_cls(finfo.return_annotation)
        if finfo.name in DECLASSIFIER_NAMES:
            return AV(payload=frozenset(), cls=cls)
        summary = self.summary(finfo)
        subst = {
            f"p:{param}": _syms(av.payload) for param, (_n, av) in args_map.items()
        }

        def resolve(symbols: FrozenSet[str]) -> FrozenSet[str]:
            out = set()
            for sym in symbols:
                if sym == SECRET:
                    out.add(SECRET)
                else:
                    out |= subst.get(sym, frozenset())
            return frozenset(out)

        for rule, sink_syms in summary.sinks:
            actual = resolve(sink_syms)
            if SECRET in actual:
                self.reporter.report(
                    ctx.path,
                    node,
                    rule,
                    f"secret-tainted argument flows into "
                    f"{_SINK_PHRASES[rule]} inside '{finfo.name}'",
                )
            params = {sym for sym in actual if sym.startswith("p:")}
            if params and self._summary_stack:
                self._summary_stack[-1].setdefault(rule, set()).update(params)

        ret = set(resolve(summary.ret))
        if not complete:
            for av in arg_avs:
                ret |= _syms(av.payload)
        if bound is not None:
            ret |= _syms(bound.payload)
        if is_source_name(finfo.name):
            ret.add(SECRET)
        return AV(payload=frozenset(ret), cls=cls)

    def call_constructor(self, node, class_name, args_map, arg_avs, complete, ctx) -> AV:
        syms = frozenset()
        for av in arg_avs:
            syms |= _syms(av.payload)
        return AV(payload=syms, cls=class_name)

    def call_external(self, node, dotted, receiver, arg_avs, env, ctx) -> AV:
        bare = dotted.rsplit(".", 1)[-1]
        if bare in DECLASSIFIER_NAMES:
            return AV(payload=frozenset())
        if dotted in _SHAPE_CALLS or bare in _SHAPE_CALLS:
            return AV(payload=frozenset())
        syms = set()
        for av in arg_avs:
            syms |= _syms(av.payload)
        if receiver is not None:
            syms |= _syms(receiver.payload)
        if is_source_name(bare):
            syms.add(SECRET)
        if (
            bare in _MUTATOR_METHODS
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in env
        ):
            name = node.func.value.id
            current = env[name]
            env[name] = replace(
                current, payload=_syms(current.payload) | frozenset(syms)
            )
        return AV(payload=frozenset(syms))

    # -- driver --------------------------------------------------------

    def analyze(self) -> None:
        for finfo in self.model.functions:
            env = self.seed_env(finfo)
            self.exec_function(finfo, env)


def analyze_taint(model: ProjectModel) -> Tuple[List[Finding], Dict[str, object]]:
    """Run the taint certifier; returns (findings, leakage certificate)."""
    reporter = Reporter()
    evaluator = TaintEvaluator(model, reporter)
    evaluator.analyze()
    findings = sorted(reporter.findings)
    return findings, leakage_certificate(model, findings, evaluator)


def leakage_certificate(
    model: ProjectModel,
    findings: List[Finding],
    evaluator: Optional[TaintEvaluator] = None,
) -> Dict[str, object]:
    """The JSON-able certificate asserting mask/control secret-independence."""
    kinds = {
        "MAYA020": "branches",
        "MAYA021": "mask_parameters",
        "MAYA022": "actuator_commands",
    }
    counts = {label: 0 for label in kinds.values()}
    if evaluator is not None:
        for _path, _line, _col, rule in evaluator.sink_sites:
            counts[kinds[rule]] += 1
    violations = [f for f in findings if f.rule_id in kinds]
    scoped = [f for f in model.functions if _in_scope(f.path)]
    return {
        "schema": "maya.lint.leakage-certificate.v1",
        "ok": not violations,
        "policy": {
            "sources": sorted(_SOURCE_TOKENS | _SOURCE_NAMES),
            "declassifiers": sorted(DECLASSIFIER_NAMES),
            "sink_scope": sorted(_SCOPE_PARTS),
        },
        "functions_in_scope": len(scoped),
        "sinks_checked": counts,
        "violations": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "rule_id": f.rule_id,
                "message": f.message,
            }
            for f in violations
        ],
    }
