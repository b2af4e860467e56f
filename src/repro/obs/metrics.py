"""One metrics registry for the whole pipeline.

Before this module existed each stats surface had its own lifecycle:
``plan_cache_stats``/``clear_plan_cache`` (exec/plan), ``opt_stats``/
``reset_opt_stats`` (opt/pipeline) and ``fusion_stats``/
``reset_fusion_stats`` (opt/fusion).  Each module now *re-homes* its
counters here, in one of two ways:

* ``counter_group(name, initial)`` returns a ``CounterGroup`` — a plain
  ``dict`` subclass, so existing ``STATS["hits"] += 1`` call sites keep
  working unchanged — that the registry owns: it appears in
  ``snapshot()`` and is zeroed by ``reset_all()``.
* ``register_source(name, snapshot_fn, reset_fn)`` overrides (or adds)
  the snapshot/reset pair for a section, for surfaces whose view is
  richer than their raw counters (e.g. ``plan_cache_stats`` adds cache
  entry counts and emitter aggregates).

On top of that the registry keeps named timers (``observe``), which
``tracing.timed`` feeds with every duration it measures.

``snapshot()`` returns one nested dict covering everything;
``delta(before, after)`` subtracts two snapshots recursively so tests
and benchmarks can attribute what a measured region changed.
"""
from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "CounterGroup",
    "counter_group",
    "register_source",
    "observe",
    "snapshot",
    "reset_all",
    "delta",
]

_LOCK = threading.RLock()


class CounterGroup(dict):
    """A named group of counters owned by the registry.

    It is a ``dict`` so the modules that own the counters mutate it
    directly (``PLAN_STATS["hits"] += 1``); the registry only needs
    to know how to read and reset it.
    """

    def __init__(self, name: str, initial: Dict[str, Any]):
        super().__init__(initial)
        self.name = name
        self._initial = dict(initial)

    def add(self, key: str, n: int = 1) -> None:
        """``self[key] += n`` (a missing key counts from 0) under the registry
        lock — for counters bumped on paths users may run from their own
        threads, where the bare read-modify-write loses increments."""
        with _LOCK:
            self[key] = self.get(key, 0) + n

    def reset(self) -> None:
        for k in [k for k in self if k not in self._initial]:
            del self[k]
        for k, v in self._initial.items():
            self[k] = v


# section name -> (snapshot_fn, reset_fn)
_SECTIONS: Dict[str, Tuple[Callable[[], Any], Callable[[], None]]] = {}

_TIMERS: Dict[str, List[float]] = {}  # name -> [count, seconds]


def counter_group(name: str, initial: Dict[str, Any]) -> CounterGroup:
    """Create (and register) a module-owned counter dict."""
    g = CounterGroup(name, initial)
    with _LOCK:
        _SECTIONS.setdefault(name, (lambda g=g: dict(g), g.reset))
    return g


def register_source(name: str, snapshot_fn: Callable[[], Any], reset_fn: Callable[[], None]) -> None:
    """Register (or override) the snapshot/reset pair for a section.

    Modules whose public stats view is richer than a raw counter dict
    point their existing ``*_stats()``/``reset_*()`` functions here; the
    old functions stay callable and become the section's view.
    """
    with _LOCK:
        _SECTIONS[name] = (snapshot_fn, reset_fn)


def observe(name: str, seconds: float) -> None:
    """Record one observation into the timer ``name``."""
    with _LOCK:
        cell = _TIMERS.get(name)
        if cell is None:
            cell = _TIMERS[name] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds


def snapshot() -> Dict[str, Any]:
    """One nested dict covering every registered section plus the timers."""
    with _LOCK:
        sections = list(_SECTIONS.items())
        out: Dict[str, Any] = {
            "timers": {k: {"count": c, "seconds": s} for k, (c, s) in _TIMERS.items()},
        }
    # Section snapshots run outside the registry lock: they may take the
    # owning module's lock, and the reverse ordering must stay impossible.
    for name, (snap, _) in sections:
        out[name] = snap()
    return out


def reset_all() -> None:
    """Zero every registered section and the timers."""
    with _LOCK:
        sections = list(_SECTIONS.values())
        _TIMERS.clear()
    for _, reset in sections:
        reset()


def delta(before: Any, after: Any) -> Any:
    """Recursive difference of two snapshots.

    Numeric leaves become ``after - before`` (missing ``before`` counts
    as zero); non-numeric leaves keep the ``after`` value.
    """
    if isinstance(after, dict):
        b = before if isinstance(before, dict) else {}
        return {k: delta(b.get(k), v) for k, v in after.items()}
    if isinstance(after, bool):
        return after
    if isinstance(after, (int, float)):
        b = before if isinstance(before, (int, float)) and not isinstance(before, bool) else 0
        return after - b
    return after
