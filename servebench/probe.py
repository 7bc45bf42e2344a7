"""Layer probe: wall-clock spans around each layer's public calls, from outside.

The probe patches functions and methods of the ``repro`` package in place
(and restores them on :meth:`LayerProbe.uninstall`), so the program under
test carries no instrumentation of its own.  Each wrapped call opens a
frame on one stack; when it returns, its duration is charged to its own
name and its *self* time (duration minus the time of the wrapped calls
nested inside it) to its layer.  The program is single-threaded on every
workload the benchmark runs (in-process shards dispatch sequentially), so
one stack is exact.

Functions that modules import by name (``from .x import f``) are bound in
the importing module too; each binding is patched separately, or calls
through it would go uncounted.  A target the program no longer defines is
skipped and listed in :attr:`LayerProbe.missing`, so a refactor that
renames a function loses that one metric instead of breaking the run.
"""

from __future__ import annotations

import importlib
import time
from collections.abc import Callable
from dataclasses import dataclass, field

#: Spans kept for the trace file; everything else is aggregated.
SPAN_SAMPLE = 4000


@dataclass
class CallStats:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    #: Calls (and their inclusive time) not nested inside another call of
    #: the same group — e.g. the service's batch, not the shard batches.
    outer_calls: int = 0
    outer_total: float = 0.0


@dataclass
class _Frame:
    name: str
    layer: str
    group: str | None
    start: float
    span_id: int
    parent_id: int | None
    child: float = 0.0


@dataclass
class Target:
    """One binding to wrap: ``module:attr`` or ``module:Class.attr``."""

    path: str
    name: str
    layer: str
    #: Calls of one group nest (a sharded batch contains shard batches);
    #: only the outermost call of a group counts toward ``outer_*``.
    group: str | None = None
    #: ``fn`` (plain callable), ``property`` (getter) or ``first-step``
    #: (a coroutine function timed up to its first suspension).
    kind: str = "fn"
    #: ``hook(probe, args, result, outer)`` after each call returns;
    #: ``outer`` says whether it was the outermost call of its group.
    hook: "Callable | None" = None


@dataclass
class LayerProbe:
    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, CallStats] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Open intervals keyed by hook-chosen ids (e.g. queued requests).
    marks: dict[object, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _active: dict[str, int] = field(default_factory=dict)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _next_span: int = 0

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _enter(self, target: Target) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        self._next_span += 1
        frame = _Frame(
            target.name,
            target.layer,
            target.group,
            self.clock(),
            self._next_span,
            parent.span_id if parent is not None else None,
        )
        self._stack.append(frame)
        if target.group is not None:
            self._active[target.group] = self._active.get(target.group, 0) + 1
        return frame

    def _exit(self, frame: _Frame) -> bool:
        """Close ``frame``; True when it was the outermost of its group."""
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"probe stack out of order at {frame.name}")
        duration = end - frame.start
        stats = self.stats.setdefault(frame.name, CallStats())
        stats.calls += 1
        stats.total += duration
        stats.self_total += duration - frame.child
        outer = False
        if frame.group is not None:
            outer = self._active[frame.group] == 1
            if outer:
                stats.outer_calls += 1
                stats.outer_total += duration
            self._active[frame.group] -= 1
        self.layer_self[frame.layer] = (
            self.layer_self.get(frame.layer, 0.0) + duration - frame.child
        )
        if self._stack:
            self._stack[-1].child += duration
        if len(self.spans) < SPAN_SAMPLE:
            self.spans.append(
                (frame.span_id, frame.parent_id, frame.name, frame.layer,
                 frame.start, end)
            )
        return outer

    # -- wrappers ----------------------------------------------------------------

    def _wrap_fn(self, original, target: Target):
        probe = self
        hook = target.hook

        def wrapper(*args, **kwargs):
            frame = probe._enter(target)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                probe._exit(frame)
                raise
            outer = probe._exit(frame)
            if hook is not None:
                hook(probe, args, result, outer)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_first_step(self, original, target: Target):
        """Time a coroutine function's synchronous part (up to its first await).

        A coroutine that suspends leaves the stack while other tasks run,
        so only its first step can be a frame; the rest of it is driven
        unchanged.
        """
        probe = self

        def drive(coro):
            frame = probe._enter(target)
            try:
                pending = coro.send(None)
            except StopIteration as stop:
                return stop.value
            finally:
                probe._exit(frame)
            while True:
                try:
                    sent = yield pending
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # delegate cancellation etc.
                    try:
                        pending = coro.throw(exc)
                    except StopIteration as stop:
                        return stop.value
                else:
                    try:
                        pending = coro.send(sent)
                    except StopIteration as stop:
                        return stop.value

        class _Step:
            __slots__ = ("_coro",)

            def __init__(self, coro) -> None:
                self._coro = coro

            def __await__(self):
                return drive(self._coro)

        async def wrapper(*args, **kwargs):
            return await _Step(original(*args, **kwargs))

        wrapper.__wrapped__ = original
        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self, targets: "list[Target]") -> None:
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.path)
                continue
            if target.kind == "property":
                wrapped = property(self._wrap_fn(current.fget, target))
            elif target.kind == "first-step":
                wrapped = self._wrap_first_step(current, target)
            else:
                wrapped = self._wrap_fn(current, target)
            self._patches.append((owner, attr, current))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- readout -------------------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def outer_calls(self, *names: str) -> int:
        return sum(self.stats[n].outer_calls for n in names if n in self.stats)

    def outer_total(self, *names: str) -> float:
        return sum(self.stats[n].outer_total for n in names if n in self.stats)

    def self_total(self, *names: str) -> float:
        return sum(self.stats[n].self_total for n in names if n in self.stats)
