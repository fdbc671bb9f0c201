"""Span ledger: wrap named library callables and roll their time up.

A traced benchmark pass installs a :class:`Ledger` around the public
functions of each layer.  Targets are named as ``"module:attr.path"``
strings and resolved when installed, so a target that a later revision
renames or deletes is reported as missing (its metrics read ``null``)
instead of failing the run.  Every wrapped call records one span; a
span's *self* time is its duration minus the time of the spans nested
inside it, so the self times add up to the time covered by top-level
spans and the rest of the wall time is the ``unattributed`` row.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

__all__ = ["Ledger", "SpanStats", "Target"]

SpanName = Union[str, Callable[..., str]]
Collector = Callable[[Any], Dict[str, int]]


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``path`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``.  ``span`` is the span name, or a
    function of the call's arguments returning one.  ``collect`` maps the
    call's return value to extra counters on the span.  ``generator``
    times each ``next()`` of the returned iterator instead of the call.
    """

    span: SpanName
    path: str
    collect: Optional[Collector] = None
    generator: bool = False


@dataclass
class SpanStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    extras: Dict[str, int] = field(default_factory=dict)


class Ledger:
    """Records spans from wrapped callables; :meth:`close` unwraps them."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.wall_s = 0.0
        self.resolved: Set[str] = set()
        self.missing: Set[str] = set()
        self._stack: List[List[Any]] = []  # [name, start, child seconds]
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._installed: Set[str] = set()
        self._started: Optional[float] = None

    # -- recording ------------------------------------------------------
    def _stats(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        stats = self._stats(name)
        stats.calls += 1
        stats.inclusive_s += duration
        stats.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, name: str, key: str, amount: int) -> None:
        extras = self._stats(name).extras
        extras[key] = extras.get(key, 0) + amount

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        if self._started is not None:
            self.wall_s += time.perf_counter() - self._started
            self._started = None

    # -- wrapping -------------------------------------------------------
    def _wrap_function(self, fn: Callable, target: Target) -> Callable:
        span, collect = target.span, target.collect
        enter, exit_, add = self._enter, self._exit, self.add

        if target.generator:

            @functools.wraps(fn)
            def timed_iter(*args: Any, **kwargs: Any) -> Any:
                name = span(*args, **kwargs) if callable(span) else span
                iterator = iter(fn(*args, **kwargs))
                while True:
                    enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    add(name, "items", 1)
                    yield item

            return timed_iter

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            name = span(*args, **kwargs) if callable(span) else span
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if collect is not None:
                for key, amount in collect(result).items():
                    add(name, key, amount)
            return result

        return timed

    def wrap(self, target: Target) -> bool:
        """Install ``target``; returns False (and records it) when missing."""
        label = target.span if isinstance(target.span, str) else target.path
        if target.path in self._installed:
            return True
        resolved = _resolve(target.path)
        if resolved is None:
            self.missing.add(label)
            return False
        self._installed.add(target.path)
        self.resolved.add(label)
        owner, attr, raw = resolved
        if inspect.isclass(owner):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap_function(raw.__func__, target))
            else:
                wrapped = self._wrap_function(raw, target)
            self._restore.append((owner, attr, raw, attr in vars(owner)))
            setattr(owner, attr, wrapped)
            return True
        # A module-level function: rebind every ``from m import f`` copy
        # inside the package too, so all callers reach the wrapper.
        wrapped = self._wrap_function(raw, target)
        package = owner.__name__.split(".")[0]
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", None) or ""
            if name != package and not name.startswith(package + "."):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._restore.append((module, key, raw, True))
                    setattr(module, key, wrapped)
        return True

    def wrap_method(self, cls: type, attr: str, span: str) -> bool:
        """Wrap method ``attr`` that ``cls`` defines or inherits."""
        return self.wrap(Target(span, f"{cls.__module__}:{cls.__qualname__}.{attr}"))

    def close(self) -> None:
        """Undo every installed wrapper, newest first."""
        for owner, attr, raw, owned in reversed(self._restore):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._restore.clear()
        self._installed.clear()

    # -- reading --------------------------------------------------------
    def is_missing(self, label: str) -> bool:
        """True when every target recording ``label`` failed to resolve."""
        return label in self.missing and label not in self.resolved

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def attributed_s(self) -> float:
        """Self time summed over every span: the time under a top-level span."""
        return sum(stats.self_s for stats in self.stats.values())


def _resolve(path: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute name, raw attribute)`` for ``path``, or None."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        # The raw descriptor, so classmethods stay classmethods.
        for klass in owner.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        else:
            return None
    else:
        raw = getattr(owner, attr, None)
    if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
        return owner, attr, raw
    return None
