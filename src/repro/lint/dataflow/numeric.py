"""Reassociation-safety certification (MAYA040-MAYA043) for the hot paths.

The batched execution backend's contract is bit-identity with the serial
runner (DESIGN.md §7), which is why the mask transcendentals stay scalar
and the controller's matvecs use a fixed left-to-right accumulation
(``np.add.accumulate``) instead of ``@``: SIMD/BLAS evaluation may
reassociate floating-point operations.  Keeping that contract needs a
principled inventory of *what* is order-sensitive and *at what error
cost*, instead of hand-maintained lists.  This analysis classifies every
floating-point expression reachable from the simulation hot paths as

* **REASSOC_SAFE** — elementwise arithmetic with no cross-lane reduction
  and no fused-order dependence; vectorizing cannot change bits;
* **ORDER_SENSITIVE** — reductions, ``@``/``np.dot`` contractions,
  transcendental kernels, IIR recurrences, and FFTs, whose vectorized
  evaluation may reassociate; each site gets a worst-case abs/ulp error
  bound from interval analysis over the abstract value domain;
* **CLIPPED** — an order-sensitive value that flows through the firmware
  fixed-point quantizer (``quantize``/``quantize_normalized``), whose
  half-ULP rounding absorbs any upstream reassociation error below it.

Four rules are layered on that classification:

* **MAYA040** — an ORDER_SENSITIVE expression inside a function advertised
  vector-safe via the ``# maya: batch-safe`` pragma;
* **MAYA041** — a reduction with undeclared accumulation order (no
  ``axis=``), so serial and batched evaluation orders can silently differ;
* **MAYA042** — float64 -> float32 dtype narrowing in simulation code
  (float64 end-to-end is the determinism contract);
* **MAYA043** — a batched implementation (``# maya: batch-twin(serial)``
  pragma) whose expression DAG diverged structurally from its declared
  serial twin, checked by abstract interpretation of both bodies.

The per-module inventory is emitted as the machine-checkable certificate
``maya.lint.numeric-certificate.v1`` (see :func:`numeric_certificates`);
the committed copies under ``certs/numeric/`` are a drift gate, so any new
order-sensitive site in a hot path shows up in review.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .interp import AV, Evaluator, Finding, Reporter
from .model import ClassInfo, FunctionInfo, ProjectModel

__all__ = [
    "NUMERIC_RULES",
    "CERT_SCHEMA",
    "NumVal",
    "NumericEvaluator",
    "analyze_numeric",
    "numeric_certificates",
    "module_name",
]

NUMERIC_RULES = {
    "MAYA040": "order-sensitive expression in a batch-safe function",
    "MAYA041": "undeclared accumulation order in a reduction",
    "MAYA042": "float64 -> float32 dtype narrowing in simulation code",
    "MAYA043": "batched implementation diverged from its serial twin",
}

CERT_SCHEMA = "maya.lint.numeric-certificate.v1"

# ---------------------------------------------------------------------------
# Error-bound policy (all bounds are worst cases, deliberately pessimistic)
# ---------------------------------------------------------------------------

#: Unit roundoff of IEEE-754 binary64.
EPS = 2.0**-53
#: Assumed term count for reductions whose length is not statically known
#: (the longest simulated window is well under this).
ASSUMED_TERMS = 4096
#: Assumed magnitude bound when interval analysis yields nothing (watts,
#: normalized commands, and controller states all sit far below this).
ASSUMED_MAGNITUDE = 1024.0
#: Inner dimension bound for controller matmuls (state vectors are tiny).
MATMUL_INNER = 64
#: SIMD transcendental kernels are within a few ulp of libm.
TRANSCENDENTAL_ULPS = 4
#: Worst-case amplification of an IIR recurrence (1 / (1 - rho) with the
#: process-noise rho = 0.98 gives 50).
RECURRENCE_GAIN = 50.0

# ---------------------------------------------------------------------------
# Operation classification tables (numpy/scipy surface names)
# ---------------------------------------------------------------------------

_REDUCTIONS = frozenset(
    {"sum", "mean", "std", "var", "prod", "cumsum", "average",
     "nansum", "nanmean", "nanstd", "nanvar"}
)
#: Selection/rounding-based operations: exact regardless of lane order.
_EXACT = frozenset(
    {"max", "min", "amax", "amin", "nanmax", "nanmin", "median", "quantile",
     "percentile", "argmax", "argmin", "all", "any", "abs", "absolute",
     "fabs", "round", "rint", "floor", "ceil", "trunc", "sign", "sqrt",
     "where", "asarray", "ascontiguousarray", "atleast_1d", "atleast_2d",
     "reshape", "ravel", "copy", "squeeze", "transpose"}
)
_MATMUL = frozenset({"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "trace"})
_TRANSCENDENTAL = frozenset(
    {"sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "sinh",
     "cosh", "tanh", "exp", "expm1", "log", "log1p", "log2", "log10"}
)
_RECURRENCES = frozenset({"lfilter", "filtfilt", "sosfilt", "sosfiltfilt"})
_ALLOCS = frozenset(
    {"empty", "zeros", "ones", "full", "empty_like", "zeros_like",
     "ones_like", "full_like", "arange", "linspace"}
)
_NARROW_DTYPES = frozenset({"float32", "float16", "half", "single"})
_INT_DTYPES = frozenset(
    {"int8", "int16", "int32", "int64", "intp", "uint8", "uint16",
     "uint32", "uint64", "int_", "int"}
)
#: The fixed-point quantization boundary: a half-ULP bound absorbs any
#: upstream reassociation error (CLIPPED classification).  The bank's
#: index forms are the same boundary for one command (``quantize_index``)
#: and for a fleet (``quantize_indices``).
_CLIP_NAMES = frozenset(
    {"quantize", "quantize_normalized", "quantize_index", "quantize_indices"}
)
_MUTATORS = frozenset({"append", "extend", "insert", "add", "update"})
_PASSTHROUGH_1ARG = frozenset({"list", "tuple", "sorted", "reversed", "float", "abs", "round"})

_SITE_LABELS = {
    "reduction": "reduction",
    "matmul": "matrix product",
    "transcendental": "transcendental kernel",
    "recurrence": "IIR recurrence",
    "fft": "FFT",
}

# ---------------------------------------------------------------------------
# Scope: the simulation hot paths named by the roadmap
# ---------------------------------------------------------------------------

_SCOPE_SUFFIXES = (
    "machine/power.py",
    "machine/sensors.py",
    "machine/machine.py",
    "control/controller.py",
    "control/fixedpoint.py",
    "exec/batch.py",
    "core/runtime.py",
    "core/maya.py",
    "defenses/base.py",
    "defenses/designs.py",
    "workloads/phases.py",
)


def _in_scope(path: str) -> bool:
    normalized = path.replace("\\", "/")
    if any(normalized.endswith(suffix) for suffix in _SCOPE_SUFFIXES):
        return True
    return "masks" in normalized.split("/")


#: Loop counters, shapes, and fleet plumbing: excluded from twin-signature
#: records so the serial/batched pairing compares arithmetic, not indexing.
_PLUMBING_TOKENS = frozenset(
    {"row", "col", "i", "j", "k", "n", "index", "idx", "size", "shape",
     "len", "count", "n_sessions", "n_ticks", "n_windows", "n_intervals",
     "n_samples", "n_cols", "n_rows", "sample_index", "interval_index",
     "window_index", "position", "offset", "start", "stop", "step",
     "models", "masks", "instances", "defenses", "sensors", "settings"}
)

_BATCH_SAFE_RE = re.compile(r"#\s*maya:\s*batch-safe\b")
_BATCH_TWIN_RE = re.compile(r"#\s*maya:\s*batch-twin\(\s*([\w.]+)\s*\)")

_OP_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**", ast.MatMult: "@",
}


def _norm(name: str) -> str:
    return name.lstrip("_").lower()


def module_name(path: str) -> str:
    """Dotted module name used to key/name certificates."""
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-2:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(part for part in parts if part not in ("", "__init__"))


# ---------------------------------------------------------------------------
# Abstract value payload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumVal:
    """Numeric lattice element: provenance tokens, order-sensitive site
    keys flowing through the value, an interval, and a dtype kind."""

    tokens: FrozenSet[str] = frozenset()
    sites: FrozenSet[tuple] = frozenset()
    lo: Optional[float] = None
    hi: Optional[float] = None
    kind: str = "unknown"  # "int" | "float" | "unknown"
    elem_cls: Optional[str] = None


def _nv(payload: object) -> Optional[NumVal]:
    return payload if isinstance(payload, NumVal) else None


def _tokens(av: Optional[AV]) -> FrozenSet[str]:
    if av is None:
        return frozenset()
    nv = _nv(av.payload)
    return nv.tokens if nv is not None else frozenset()


def _sites(av: Optional[AV]) -> FrozenSet[tuple]:
    if av is None:
        return frozenset()
    nv = _nv(av.payload)
    return nv.sites if nv is not None else frozenset()


def _kind(av: Optional[AV]) -> str:
    if av is None:
        return "unknown"
    nv = _nv(av.payload)
    return nv.kind if nv is not None else "unknown"


def _interval(av: Optional[AV]) -> Tuple[Optional[float], Optional[float]]:
    if av is None:
        return None, None
    nv = _nv(av.payload)
    if nv is None:
        return None, None
    return nv.lo, nv.hi


def _join_kind(a: str, b: str) -> str:
    if a == b:
        return a
    if "float" in (a, b):
        return "float"
    return "unknown"


def _binop_kind(a: str, b: str, op: ast.AST) -> str:
    if isinstance(op, ast.Div):
        return "float"
    if a == "int" and b == "int":
        return "int"
    if "float" in (a, b):
        return "float"
    return "unknown"


def _magnitude(lo: Optional[float], hi: Optional[float]) -> float:
    if lo is None or hi is None:
        return ASSUMED_MAGNITUDE
    mag = max(abs(lo), abs(hi))
    return mag if mag > 0.0 else 1.0


def _short_qual(finfo: FunctionInfo) -> str:
    if finfo.class_name:
        return f"{finfo.class_name}.{finfo.name}"
    return finfo.name


def _dtype_word(node: ast.AST) -> Optional[str]:
    """The dtype-ish identifier a call argument names, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _annotation_elem_cls(node: Optional[ast.AST], model: ProjectModel) -> Optional[str]:
    """Element class of a ``list[Cls]``-shaped annotation (incl. strings)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
        if "[" not in text:
            return None
        inner = text.split("[", 1)[1]
        for word in re.findall(r"\w+", inner):
            if model.class_named(word) is not None:
                return word
        return None
    if isinstance(node, ast.Subscript):
        for sub in ast.walk(node.slice):
            word = None
            if isinstance(sub, ast.Name):
                word = sub.id
            elif isinstance(sub, ast.Attribute):
                word = sub.attr
            if word and model.class_named(word) is not None:
                return word
    return None


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------


class NumericEvaluator(Evaluator):
    """Abstract interpreter whose payloads are :class:`NumVal` elements."""

    def __init__(
        self,
        model: ProjectModel,
        reporter: Reporter,
        sources: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        super().__init__(model, reporter)
        self._sources: Dict[str, Sequence[str]] = dict(sources or {})
        #: site key (path, line, col, kind) -> site record dict.
        self.sites: Dict[tuple, dict] = {}
        #: path -> number of float-typed expressions observed (decl pass).
        self.float_exprs: Dict[str, int] = {}
        #: qualnames advertised vector-safe via ``# maya: batch-safe``.
        self._batch_safe: Dict[str, FunctionInfo] = {}
        #: batched qualname -> (serial spec string, FunctionInfo).
        self._twin_decls: Dict[str, Tuple[str, FunctionInfo]] = {}
        #: certificate rows for checked twin pairs.
        self.twins: List[dict] = []
        self._summaries: Dict[str, Optional[NumVal]] = {}
        self._computing = set()
        #: active twin-signature collectors (innermost last).
        self._twin_stack: List[set] = []
        self._inline_stack = set()
        #: >0 while evaluating auxiliary contexts (attr tables, globals,
        #: class assigns, summaries): twin records are suspended there.
        self._aux_depth = 0
        #: AVs whose .elems encode per-iteration tuple structure.
        self._iter_avs: Dict[int, AV] = {}

    # -- lattice -------------------------------------------------------

    def join_payload(self, a: object, b: object) -> object:
        na, nb = _nv(a), _nv(b)
        if na is None:
            return nb
        if nb is None:
            return na
        lo = min(na.lo, nb.lo) if na.lo is not None and nb.lo is not None else None
        hi = max(na.hi, nb.hi) if na.hi is not None and nb.hi is not None else None
        return NumVal(
            tokens=na.tokens | nb.tokens,
            sites=na.sites | nb.sites,
            lo=lo,
            hi=hi,
            kind=_join_kind(na.kind, nb.kind),
            elem_cls=na.elem_cls if na.elem_cls == nb.elem_cls
            else (na.elem_cls or nb.elem_cls),
        )

    def join_av(self, a: AV, b: AV) -> AV:
        out = super().join_av(a, b)
        # Optimistic class join: ``self._x = None`` init sites must not
        # erase the class learned from the real assignment site.
        if out.cls is None and (a.cls is None) != (b.cls is None):
            out = replace(out, cls=a.cls or b.cls)
        return out

    def const_payload(self, value: object) -> object:
        if isinstance(value, bool):
            return NumVal(lo=float(value), hi=float(value), kind="int")
        if isinstance(value, (int, float)):
            kind = "int" if isinstance(value, int) else "float"
            return NumVal(lo=float(value), hi=float(value), kind=kind)
        return None

    # -- expression hooks ---------------------------------------------

    def binop_payload(self, node: ast.BinOp, left: AV, right: AV, ctx) -> object:
        lnv = _nv(left.payload) or NumVal()
        rnv = _nv(right.payload) or NumVal()
        tokens = lnv.tokens | rnv.tokens
        sites = lnv.sites | rnv.sites
        kind = _binop_kind(lnv.kind, rnv.kind, node.op)
        lo, hi = self._binop_interval(node.op, lnv, rnv)
        if isinstance(node.op, ast.MatMult) and kind != "int":
            sites = sites | self._record_site(node, ctx, "matmul", [lnv, rnv], (lo, hi))
        self._note_float_expr(ctx, kind)
        symbol = _OP_SYMBOLS.get(type(node.op))
        if symbol is not None:
            self._twin_record(symbol, tokens, kind)
        return NumVal(tokens=tokens, sites=sites, lo=lo, hi=hi, kind=kind)

    @staticmethod
    def _binop_interval(op, lnv: NumVal, rnv: NumVal):
        if None in (lnv.lo, lnv.hi, rnv.lo, rnv.hi):
            return None, None
        a, b, c, d = lnv.lo, lnv.hi, rnv.lo, rnv.hi
        if isinstance(op, ast.Add):
            return a + c, b + d
        if isinstance(op, ast.Sub):
            return a - d, b - c
        if isinstance(op, ast.Mult):
            prods = (a * c, a * d, b * c, b * d)
            return min(prods), max(prods)
        if isinstance(op, ast.Div) and (c > 0.0 or d < 0.0):
            quots = (a / c, a / d, b / c, b / d)
            return min(quots), max(quots)
        return None, None

    def unary_payload(self, node: ast.UnaryOp, operand: AV, ctx) -> object:
        nv = _nv(operand.payload)
        if nv is None:
            return None
        if isinstance(node.op, ast.USub) and nv.lo is not None:
            return replace(nv, lo=-nv.hi, hi=-nv.lo)
        if isinstance(node.op, (ast.USub, ast.UAdd)):
            return nv
        return NumVal(tokens=nv.tokens, sites=nv.sites, kind="int")

    def compare_payload(self, node, operands: List[AV], ctx) -> object:
        tokens = frozenset().union(*(_tokens(av) for av in operands))
        sites = frozenset().union(*(_sites(av) for av in operands))
        return NumVal(tokens=tokens, sites=sites, kind="int")

    def subscript_payload(self, obj: AV, node: ast.Subscript, ctx) -> object:
        return obj.payload

    def _eval_subscript(self, node, env, ctx) -> AV:
        av = super()._eval_subscript(node, env, ctx)
        nv = _nv(av.payload)
        if av.cls is None and nv is not None and nv.elem_cls is not None:
            av = replace(av, cls=nv.elem_cls, payload=replace(nv, elem_cls=None))
        return av

    # -- names, params, attributes ------------------------------------

    def param_av(self, func: FunctionInfo, name: str) -> AV:
        base = super().param_av(func, name)
        candidates = func.annotations.get(name, ())
        kind = "unknown"
        if "float" in candidates or "ndarray" in candidates:
            kind = "float"
        elif "int" in candidates:
            kind = "int"
        elem_cls = _annotation_elem_cls(self._param_annotation(func, name), self.model)
        return replace(
            base,
            payload=NumVal(tokens=frozenset({_norm(name)}), kind=kind, elem_cls=elem_cls),
        )

    @staticmethod
    def _param_annotation(func: FunctionInfo, name: str) -> Optional[ast.AST]:
        args = getattr(func.node, "args", None)
        if args is None:
            return None
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.arg == name:
                return arg.annotation
        return None

    def global_av(self, name: str, node, ctx) -> AV:
        return AV(payload=NumVal(tokens=frozenset({_norm(name)})))

    def attr_av(self, obj: AV, attr: str, node, ctx) -> AV:
        payload = NumVal(tokens=frozenset({_norm(attr)}), sites=_sites(obj))
        cls = None
        if obj.cls is not None:
            cls = self._annotation_cls(self.model.field_annotation(obj.cls, attr))
            cls_info = self.model.class_named(obj.cls)
            if cls_info is not None and attr in cls_info.class_assigns:
                table = self.eval_class_assign(cls_info, attr)
                nv = _nv(table.payload)
                if nv is not None:
                    payload = replace(
                        payload,
                        lo=nv.lo,
                        hi=nv.hi,
                        kind=nv.kind,
                        elem_cls=nv.elem_cls,
                    )
                if cls is None:
                    cls = table.cls
            else:
                table = self.eval_attr_sites(obj.cls, attr)
                if table is not None:
                    nv = _nv(table.payload)
                    if nv is not None:
                        payload = replace(
                            payload,
                            lo=nv.lo,
                            hi=nv.hi,
                            kind=nv.kind,
                            elem_cls=nv.elem_cls,
                        )
                    if cls is None:
                        cls = table.cls
        return AV(payload=payload, cls=cls)

    def site_av(self, av: AV) -> AV:
        # Attribute tables are context-insensitive: drop method-local
        # provenance and caller-specific site keys, keep shape/kind facts.
        nv = _nv(av.payload)
        if nv is None:
            return av
        return replace(av, payload=replace(nv, tokens=frozenset(), sites=frozenset()))

    # -- auxiliary-context wrappers (suspend twin recording) -----------

    def eval_attr_sites(self, class_name: str, attr: str):
        self._aux_depth += 1
        try:
            return super().eval_attr_sites(class_name, attr)
        finally:
            self._aux_depth -= 1

    def module_global(self, path: str, name: str) -> AV:
        self._aux_depth += 1
        try:
            return super().module_global(path, name)
        finally:
            self._aux_depth -= 1

    def eval_class_assign(self, cls: ClassInfo, attr: str) -> AV:
        self._aux_depth += 1
        try:
            av = super().eval_class_assign(cls, attr)
        finally:
            self._aux_depth -= 1
        nv = _nv(av.payload) or NumVal()
        return replace(av, payload=replace(nv, tokens=nv.tokens | {_norm(attr)}))

    # -- loops over fleets --------------------------------------------

    def _element_av(self, av: AV) -> AV:
        if id(av) in self._iter_avs and av.elems is not None:
            # zip()/enumerate() result: elems is per-iteration structure.
            return AV(elems=av.elems, payload=av.payload)
        if av.elems:
            element = av.elems[0]
            for extra in av.elems[1:]:
                element = self.join_av(element, extra)
            return element
        nv = _nv(av.payload)
        if nv is not None and nv.elem_cls is not None:
            return AV(cls=nv.elem_cls, payload=replace(nv, elem_cls=None))
        return AV(payload=av.payload)

    def _exec_stmt(self, stmt, env, ctx, rets) -> None:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self.eval(stmt.iter, env, ctx)
            self._bind_target(stmt.target, self._element_av(iterable), stmt, env, ctx)
            for _ in range(self.LOOP_PASSES):
                loop_env = dict(env)
                self._exec_body(stmt.body, loop_env, ctx, rets)
                merged = self._join_env(env, loop_env)
                env.clear()
                env.update(merged)
            self._exec_body(stmt.orelse, env, ctx, rets)
            return
        super()._exec_stmt(stmt, env, ctx, rets)

    # -- classification machinery -------------------------------------

    def _note_float_expr(self, ctx, kind: str) -> None:
        if kind == "int" or self.reporter.muted:
            return
        path = getattr(ctx, "path", "")
        if _in_scope(path):
            self.float_exprs[path] = self.float_exprs.get(path, 0) + 1

    def _twin_record(self, op: str, tokens: FrozenSet[str], kind: str) -> None:
        if not self._twin_stack or self._aux_depth or kind == "int":
            return
        toks = frozenset(tok for tok in tokens if tok not in _PLUMBING_TOKENS)
        if toks:
            self._twin_stack[-1].add((op, toks))

    def _source_line(self, path: str, line: int) -> str:
        lines = self._sources.get(path)
        if lines and 1 <= line <= len(lines):
            return lines[line - 1].strip()[:96]
        return ""

    def _record_site(
        self,
        node: ast.AST,
        ctx,
        site_kind: str,
        operands: Sequence[Optional[NumVal]],
        out_interval: Tuple[Optional[float], Optional[float]] = (None, None),
    ) -> FrozenSet[tuple]:
        path = getattr(ctx, "path", "")
        if self.reporter.muted or not _in_scope(path):
            return frozenset()
        lo, hi = out_interval
        if lo is None:
            for nv in operands:
                if nv is not None and nv.lo is not None:
                    lo, hi = nv.lo, nv.hi
                    break
        mag = _magnitude(lo, hi)
        abs_bound, terms = self._error_bound(site_kind, mag)
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (path, line, col, site_kind)
        if key not in self.sites:
            self.sites[key] = {
                "line": line,
                "col": col,
                "kind": site_kind,
                "max_magnitude": mag,
                "abs_error_bound": abs_bound,
                "ulp_error_bound": abs_bound / math.ulp(mag),
                "assumed_terms": terms,
                "clipped": False,
                "expr": self._source_line(path, line),
            }
        qualname = getattr(ctx, "qualname", None)
        if qualname in self._batch_safe:
            finfo = self._batch_safe[qualname]
            self.reporter.report(
                path,
                node,
                "MAYA040",
                f"order-sensitive {_SITE_LABELS[site_kind]} inside "
                f"'{_short_qual(finfo)}' which is advertised '# maya: batch-safe'",
            )
        return frozenset({key})

    @staticmethod
    def _error_bound(site_kind: str, mag: float) -> Tuple[float, int]:
        if site_kind == "reduction":
            n = ASSUMED_TERMS
            return (n - 1) * EPS * n * mag, n
        if site_kind == "matmul":
            n = MATMUL_INNER
            return (n - 1) * EPS * n * mag, n
        if site_kind == "transcendental":
            return TRANSCENDENTAL_ULPS * math.ulp(mag), 1
        if site_kind == "recurrence":
            n = ASSUMED_TERMS
            return RECURRENCE_GAIN * n * EPS * mag, n
        # fft: Cooley-Tukey error grows as O(log n) per output bin.
        n = ASSUMED_TERMS
        return 4.0 * math.log2(n) * EPS * n * mag, n

    def _mark_clipped(self, avs: Sequence[Optional[AV]]) -> None:
        for av in avs:
            for key in _sites(av):
                record = self.sites.get(key)
                if record is not None:
                    record["clipped"] = True

    def _report_narrowing(self, node: ast.AST, ctx, dtype: str) -> None:
        path = getattr(ctx, "path", "")
        if not _in_scope(path):
            return
        self.reporter.report(
            path,
            node,
            "MAYA042",
            f"dtype narrowing to {dtype} in simulation code "
            f"(the determinism contract is float64 end-to-end)",
        )

    # -- calls ---------------------------------------------------------

    def _union_payload(self, avs: Sequence[Optional[AV]], kind: str = "unknown") -> NumVal:
        tokens: FrozenSet[str] = frozenset()
        sites: FrozenSet[tuple] = frozenset()
        for av in avs:
            tokens |= _tokens(av)
            sites |= _sites(av)
            if _kind(av) == "float":
                kind = "float"
        return NumVal(tokens=tokens, sites=sites, kind=kind)

    def call_external(self, node, dotted, receiver, arg_avs, env, ctx) -> AV:
        bare = dotted.rsplit(".", 1)[-1]
        builtin = dotted.startswith("builtins.")

        # dtype= keyword narrowing applies to any external call.
        for kw in node.keywords:
            if kw.arg == "dtype":
                word = _dtype_word(kw.value)
                if word in _NARROW_DTYPES and not self.reporter.muted:
                    self._report_narrowing(node, ctx, word)

        if builtin:
            return self._call_builtin(node, bare, arg_avs, env, ctx)

        if bare == "astype" and receiver is not None:
            return self._call_astype(node, receiver, ctx)

        if bare in _NARROW_DTYPES:
            if not self.reporter.muted:
                self._report_narrowing(node, ctx, bare)
            return AV(payload=self._union_payload(arg_avs, kind="float"))

        if bare in _ALLOCS and receiver is None:
            return AV(payload=NumVal(kind="float"))

        if bare in _CLIP_NAMES:
            self._mark_clipped(list(arg_avs) + [receiver])
            nv = self._union_payload(list(arg_avs) + [receiver], kind="float")
            return AV(payload=replace(nv, sites=frozenset()))

        operands = list(arg_avs) + ([receiver] if receiver is not None else [])

        if bare in _REDUCTIONS:
            return self._call_reduction(node, bare, receiver, arg_avs, ctx)

        if bare in _MATMUL:
            nv = self._union_payload(operands, kind="float")
            if all(_kind(av) == "int" for av in operands if av is not None):
                return AV(payload=nv)
            keys = self._record_site(node, ctx, "matmul", [_nv(av.payload) for av in operands if av])
            self._twin_record(f"@call:{bare}", nv.tokens, nv.kind)
            return AV(payload=replace(nv, sites=nv.sites | keys))

        if bare in _TRANSCENDENTAL:
            nv = self._union_payload(operands, kind="float")
            out_iv = (-1.0, 1.0) if bare in ("sin", "cos", "tanh") else (None, None)
            keys = self._record_site(
                node, ctx, "transcendental",
                [_nv(av.payload) for av in operands if av], out_iv,
            )
            self._twin_record(f"@call:{bare}", nv.tokens, nv.kind)
            return AV(payload=replace(nv, sites=nv.sites | keys, lo=out_iv[0], hi=out_iv[1]))

        if bare in _RECURRENCES:
            nv = self._union_payload(operands, kind="float")
            keys = self._record_site(node, ctx, "recurrence", [_nv(av.payload) for av in operands if av])
            self._twin_record(f"@call:{bare}", nv.tokens, nv.kind)
            return AV(payload=replace(nv, sites=nv.sites | keys))

        if ".fft." in dotted or dotted.endswith(".fft"):
            nv = self._union_payload(operands, kind="float")
            keys = self._record_site(node, ctx, "fft", [_nv(av.payload) for av in operands if av])
            self._twin_record("@call:fft", nv.tokens, nv.kind)
            return AV(payload=replace(nv, sites=nv.sites | keys))

        if bare == "clip" and len(arg_avs) >= 3:
            nv = self._union_payload(operands, kind="float")
            lo, _ = _interval(arg_avs[1])
            _, hi = _interval(arg_avs[2])
            return AV(payload=replace(nv, lo=lo, hi=hi))

        if bare in ("maximum", "minimum") and len(arg_avs) == 2:
            nv = self._union_payload(operands, kind="float")
            clo, chi = _interval(arg_avs[1])
            if clo is not None and clo == chi:
                if bare == "maximum":
                    nv = replace(nv, lo=clo, hi=None if nv.hi is None else max(nv.hi, chi))
                else:
                    nv = replace(nv, hi=chi, lo=None if nv.lo is None else min(nv.lo, clo))
            return AV(payload=nv)

        if bare in _EXACT and receiver is not None and not arg_avs:
            return AV(payload=replace(_nv(receiver.payload) or NumVal(), elem_cls=None))
        if bare in _EXACT and len(arg_avs) >= 1:
            base = _nv(arg_avs[0].payload) or NumVal()
            extra = self._union_payload(operands)
            return AV(payload=replace(base, tokens=extra.tokens, sites=extra.sites))

        if bare in _MUTATORS and isinstance(node.func, ast.Attribute):
            self._merge_mutation(node, arg_avs, env, ctx)
            return AV(payload=NumVal())

        return AV(payload=self._union_payload(operands))

    def _call_builtin(self, node, bare, arg_avs, env, ctx) -> AV:
        if bare in ("len", "range", "id", "int", "bool", "isinstance", "hasattr"):
            return AV(payload=NumVal(kind="int"))
        if bare == "zip":
            av = AV(
                elems=tuple(self._element_av(arg) for arg in arg_avs),
                payload=self._union_payload(arg_avs),
            )
            self._iter_avs[id(av)] = av
            return av
        if bare == "enumerate" and arg_avs:
            av = AV(
                elems=(AV(payload=NumVal(kind="int")), self._element_av(arg_avs[0])),
                payload=arg_avs[0].payload,
            )
            self._iter_avs[id(av)] = av
            return av
        if bare in _PASSTHROUGH_1ARG and len(arg_avs) == 1:
            out = arg_avs[0]
            if bare == "float":
                nv = _nv(out.payload) or NumVal()
                out = replace(out, payload=replace(nv, kind="float"))
            return out
        if bare in _MUTATORS and isinstance(node.func, ast.Attribute):
            self._merge_mutation(node, arg_avs, env, ctx)
            return AV(payload=NumVal())
        return AV(payload=self._union_payload(arg_avs))

    def _call_astype(self, node, receiver, ctx) -> AV:
        nv = _nv(receiver.payload) or NumVal()
        word = _dtype_word(node.args[0]) if node.args else None
        if word in _NARROW_DTYPES:
            if not self.reporter.muted:
                self._report_narrowing(node, ctx, word)
            return AV(payload=replace(nv, kind="float"))
        if word in _INT_DTYPES:
            return AV(payload=replace(nv, kind="int"))
        if word in ("float64", "double", "float"):
            return AV(payload=replace(nv, kind="float"))
        return AV(payload=nv)

    def _merge_mutation(self, node, arg_avs, env, ctx) -> None:
        target = node.func.value
        if not (isinstance(target, ast.Name) and target.id in env):
            return
        current = env[target.id]
        nv = _nv(current.payload) or NumVal()
        merged = self._union_payload(arg_avs)
        elem_cls = nv.elem_cls
        if elem_cls is None and arg_avs:
            elem_cls = arg_avs[0].cls
        env[target.id] = replace(
            current,
            payload=NumVal(
                tokens=nv.tokens | merged.tokens,
                sites=nv.sites | merged.sites,
                lo=nv.lo,
                hi=nv.hi,
                kind=_join_kind(nv.kind, merged.kind),
                elem_cls=elem_cls,
            ),
        )

    def call_constructor(self, node, class_name, args_map, arg_avs, complete, ctx) -> AV:
        return AV(payload=self._union_payload(arg_avs), cls=class_name)

    def summary(self, finfo: FunctionInfo) -> Optional[NumVal]:
        qualname = finfo.qualname
        if qualname in self._summaries:
            return self._summaries[qualname]
        if qualname in self._computing:
            return None
        self._computing.add(qualname)
        self._aux_depth += 1
        self.reporter.mute()
        try:
            env = self.seed_env(finfo)
            ret = self.exec_function(finfo, env)
        finally:
            self.reporter.unmute()
            self._aux_depth -= 1
            self._computing.discard(qualname)
        nv = _nv(ret.payload)
        if nv is not None:
            # Callee-local site keys do not flow to the caller: clip-flow
            # tracking is intraprocedural plus inlined twin evaluation.
            nv = replace(nv, sites=frozenset())
        self._summaries[qualname] = nv
        return nv

    def call_project(self, node, finfo, bound, args_map, arg_avs, complete, ctx) -> AV:
        cls = self._annotation_cls(finfo.return_annotation)
        if finfo.name in _CLIP_NAMES:
            self._mark_clipped(list(arg_avs) + [bound])
            nv = self._union_payload(list(arg_avs) + [bound], kind="float")
            return AV(payload=replace(nv, sites=frozenset()), cls=cls)
        if (
            self._twin_stack
            and not self._aux_depth
            and finfo.qualname not in self._inline_stack
        ):
            # Twin mode: inline the callee so its expression DAG lands in
            # the signature with the caller's argument provenance.
            self._inline_stack.add(finfo.qualname)
            try:
                env: Dict[str, AV] = {}
                if finfo.is_method:
                    env["self"] = bound if bound is not None else AV(cls=finfo.class_name)
                for name in finfo.params:
                    if name in args_map:
                        env[name] = args_map[name][1]
                    else:
                        env[name] = self.param_av(finfo, name)
                if finfo.vararg:
                    env[finfo.vararg] = AV()
                if finfo.kwarg:
                    env[finfo.kwarg] = AV()
                ret = self.exec_function(finfo, env)
            finally:
                self._inline_stack.discard(finfo.qualname)
            if ret.cls is None and cls is not None:
                ret = replace(ret, cls=cls)
            return ret
        summary = self.summary(finfo)
        nv = self._union_payload(list(arg_avs) + [bound])
        if summary is not None:
            nv = NumVal(
                tokens=nv.tokens | summary.tokens,
                sites=nv.sites,
                lo=summary.lo,
                hi=summary.hi,
                kind=_join_kind(summary.kind, "unknown") if nv.kind == "unknown" else nv.kind,
                elem_cls=summary.elem_cls,
            )
        return AV(payload=nv, cls=cls)

    def _call_reduction(self, node, bare, receiver, arg_avs, ctx) -> AV:
        operand = receiver if receiver is not None else (arg_avs[0] if arg_avs else None)
        operands = list(arg_avs) + ([receiver] if receiver is not None else [])
        nv = self._union_payload(operands, kind="float")
        if operand is not None and _kind(operand) == "int":
            return AV(payload=nv)
        keys = self._record_site(
            node, ctx, "reduction", [_nv(av.payload) for av in operands if av]
        )
        self._twin_record(f"@call:{bare}", nv.tokens, nv.kind)
        has_axis = any(kw.arg == "axis" for kw in node.keywords)
        positional_axis = len(node.args) >= (2 if receiver is None else 1)
        if not has_axis and not positional_axis and not self.reporter.muted:
            path = getattr(ctx, "path", "")
            if _in_scope(path):
                self.reporter.report(
                    path,
                    node,
                    "MAYA041",
                    f"reduction '{bare}' has undeclared accumulation order; "
                    f"pass an explicit axis= so serial and batched evaluation "
                    f"orders provably coincide",
                )
        return AV(payload=replace(nv, sites=nv.sites | keys))

    # -- pragmas and twins ---------------------------------------------

    def _collect_pragmas(self) -> None:
        for finfo in self.model.functions:
            lines = self._sources.get(finfo.path)
            if not lines:
                continue
            node = finfo.node
            start = node.lineno
            for decorator in getattr(node, "decorator_list", ()):  # pragma: no branch
                start = min(start, decorator.lineno)
            lo = max(0, start - 2)
            hi = min(len(lines), node.lineno)
            for idx in range(lo, hi):
                text = lines[idx]
                if _BATCH_SAFE_RE.search(text):
                    self._batch_safe[finfo.qualname] = finfo
                match = _BATCH_TWIN_RE.search(text)
                if match:
                    self._twin_decls[finfo.qualname] = (match.group(1), finfo)

    def _resolve_twin(self, spec: str) -> Optional[FunctionInfo]:
        if "." in spec:
            class_name, method = spec.rsplit(".", 1)
            return self.model.resolve_method(class_name, method)
        return self.model.unique_function(spec)

    def _twin_signature(self, finfo: FunctionInfo) -> set:
        records: set = set()
        self._twin_stack.append(records)
        self.reporter.mute()
        try:
            env = self.seed_env(finfo)
            self.exec_function(finfo, env)
        finally:
            self.reporter.unmute()
            self._twin_stack.pop()
        return records

    @staticmethod
    def _format_records(records) -> str:
        shown = sorted(f"{op}({', '.join(sorted(toks))})" for op, toks in records)
        head = "; ".join(shown[:3])
        if len(shown) > 3:
            head += f"; ... {len(shown) - 3} more"
        return head

    def _check_twins(self) -> None:
        for qualname in sorted(self._twin_decls):
            spec, finfo = self._twin_decls[qualname]
            short = _short_qual(finfo)
            serial = self._resolve_twin(spec)
            if serial is None:
                self.reporter.report(
                    finfo.path,
                    finfo.node,
                    "MAYA043",
                    f"batched implementation '{short}' declares serial twin "
                    f"'{spec}' which does not resolve to a project function",
                )
                self.twins.append(
                    {"path": finfo.path, "batched": short, "serial": spec,
                     "matched": False}
                )
                continue
            batched_sig = self._twin_signature(finfo)
            serial_sig = self._twin_signature(serial)
            matched = batched_sig == serial_sig
            if not matched:
                missing = serial_sig - batched_sig
                extra = batched_sig - serial_sig
                parts = []
                if missing:
                    parts.append(f"missing from batched: {self._format_records(missing)}")
                if extra:
                    parts.append(f"extra in batched: {self._format_records(extra)}")
                self.reporter.report(
                    finfo.path,
                    finfo.node,
                    "MAYA043",
                    f"batched implementation '{short}' diverged structurally "
                    f"from serial twin '{spec}': " + "; ".join(parts),
                )
            self.twins.append(
                {"path": finfo.path, "batched": short, "serial": spec,
                 "matched": matched}
            )

    # -- driver --------------------------------------------------------

    def analyze(self) -> None:
        self._collect_pragmas()
        for finfo in self.model.functions:
            if not _in_scope(finfo.path):
                continue
            env = self.seed_env(finfo)
            self.exec_function(finfo, env)
        self._check_twins()

    def batch_safe_functions(self, path: str) -> List[str]:
        return sorted(
            _short_qual(finfo)
            for finfo in self._batch_safe.values()
            if finfo.path == path
        )


# ---------------------------------------------------------------------------
# Entry point and certificates
# ---------------------------------------------------------------------------


def analyze_numeric(
    model: ProjectModel, sources: Optional[Dict[str, Sequence[str]]] = None
) -> Tuple[List[Finding], Dict[str, dict]]:
    """Run the reassociation-safety analysis.

    Returns ``(findings, certificates)`` where ``certificates`` maps each
    in-scope module path to its ``maya.lint.numeric-certificate.v1``.
    """
    reporter = Reporter()
    evaluator = NumericEvaluator(model, reporter, sources)
    evaluator.analyze()
    findings = sorted(reporter.findings)
    return findings, numeric_certificates(model, findings, evaluator)


def numeric_certificates(
    model: ProjectModel,
    findings: Sequence[Finding],
    evaluator: NumericEvaluator,
) -> Dict[str, dict]:
    """Per-module certificates: the ORDER_SENSITIVE inventory with bounds."""
    policy = {
        "eps": EPS,
        "assumed_terms": ASSUMED_TERMS,
        "assumed_magnitude": ASSUMED_MAGNITUDE,
        "matmul_inner": MATMUL_INNER,
        "transcendental_ulps": TRANSCENDENTAL_ULPS,
        "recurrence_gain": RECURRENCE_GAIN,
    }
    by_path: Dict[str, List[dict]] = {}
    for (path, _line, _col, _kind), record in evaluator.sites.items():
        by_path.setdefault(path, []).append(record)
    certificates: Dict[str, dict] = {}
    for path in sorted(model.modules):
        if not _in_scope(path):
            continue
        records = sorted(
            by_path.get(path, []), key=lambda r: (r["line"], r["col"], r["kind"])
        )
        n_clipped = sum(1 for record in records if record["clipped"])
        n_exprs = evaluator.float_exprs.get(path, 0)
        module_findings = [
            finding
            for finding in findings
            if finding.path == path and finding.rule_id in NUMERIC_RULES
        ]
        certificates[path] = {
            "schema": CERT_SCHEMA,
            "module": module_name(path),
            "path": path,
            "policy": policy,
            "counts": {
                "reassoc_safe": max(0, n_exprs - len(records)),
                "order_sensitive": len(records) - n_clipped,
                "clipped": n_clipped,
            },
            "order_sensitive_sites": records,
            "batch_safe_functions": evaluator.batch_safe_functions(path),
            "twins": sorted(
                (twin for twin in evaluator.twins if twin["path"] == path),
                key=lambda twin: twin["batched"],
            ),
            "ok": not module_findings,
        }
    return certificates
