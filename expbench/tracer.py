"""Outside-in layer tracing: wrap public functions, attribute self time.

The program is never edited.  A :class:`Target` names one attribute of a
module or class; :func:`patched` swaps it for a wrapper while the block
runs and puts the original back on exit, even when the block raises.

* Class attributes are read from the class ``__dict__``, so a
  ``staticmethod`` is re-wrapped as a staticmethod and an inherited
  attribute is never shadowed.
* A name bound by ``from x import f`` is patched in the importing module
  (the module whose code calls it), because rebinding ``x.f`` would not
  reach it.
* A target whose owner or attribute is missing is skipped, never
  created; :func:`unresolved` lists such targets for the report.

:class:`Tracer` makes the timing wrappers.  Each layer records ``calls``,
``total_s`` and ``self_s`` — its time minus the time spent in wrapped
layers it called — plus any counters a target's hook adds.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = ["Layer", "Target", "Tracer", "patched", "resolve_owner", "unresolved"]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap, and the layer its time is charged to.

    ``owner`` is ``"package.module"`` or ``"package.module:Class"``.
    ``on_return(counters, result)`` may add counters after each call; it
    runs outside the timed interval.
    """

    layer: str
    owner: str
    attr: str
    on_return: "Callable | None" = None


@dataclass
class Layer:
    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


def resolve_owner(owner: str) -> object:
    """The module or class ``owner`` names (raises if it does not exist)."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _rewrap(raw: object, wrap: Callable) -> object:
    """``wrap`` applied to ``raw``, keeping it a staticmethod if it was one."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    return wrap(raw)


def _lookup(target: Target) -> "tuple[object, object] | None":
    """``(owner, raw attribute)`` for ``target``, or None if either is missing."""
    try:
        owner = resolve_owner(target.owner)
    except (ImportError, AttributeError):
        return None
    raw = vars(owner).get(target.attr)
    if raw is None or not callable(getattr(owner, target.attr)):
        return None
    return owner, raw


def unresolved(targets) -> list:
    """The targets :func:`patched` would skip."""
    return [target for target in targets if _lookup(target) is None]


@contextmanager
def patched(targets, make_wrapper: Callable) -> Iterator[None]:
    """Swap each target for ``make_wrapper(target, original)`` inside the block.

    Unresolvable targets are skipped (see :func:`unresolved`).  Originals
    are restored in reverse order on exit.
    """
    restores: list = []
    try:
        for target in targets:
            found = _lookup(target)
            if found is None:
                continue
            owner, raw = found
            setattr(owner, target.attr, _rewrap(raw, lambda fn: make_wrapper(target, fn)))
            restores.append((owner, target.attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(restores):
            setattr(owner, attr, raw)


class Tracer:
    """Timing wrappers sharing one call stack, for self-time attribution."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: dict[str, Layer] = {}
        # One child-time accumulator per open wrapped call.
        self._frames: list[float] = []

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer(name))

    def wrapper(self, target: Target, fn: Callable) -> Callable:
        """``fn`` timed as a call of ``target.layer``."""
        layer = self.layer(target.layer)
        frames = self._frames
        clock = self.clock
        on_return = target.on_return

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = frames.pop()
                layer.calls += 1
                layer.total_s += elapsed
                layer.self_s += elapsed - children
                if frames:
                    frames[-1] += elapsed
            if on_return is not None:
                on_return(layer.counters, result)
            return result

        return timed

    @contextmanager
    def installed(self, targets) -> Iterator[None]:
        """Wrap ``targets`` for the block."""
        for target in targets:
            self.layer(target.layer)
        with patched(targets, self.wrapper):
            yield
