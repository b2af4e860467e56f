"""Structured tracing: nestable spans over the compile/execute pipeline.

A *span* marks one phase (``trace``, ``opt:<pass>``, ``lower``, ``emit``,
``compile``, ``execute`` …).  Spans nest
freely, are thread-aware, and are collected into a bounded ring buffer
as Chrome-trace ``B``/``E`` event pairs; ``export()`` (or interpreter
exit, when ``REPRO_TRACE=<file>`` is set) writes the buffer as a
Chrome-trace JSON loadable in ``chrome://tracing`` / Perfetto.

Zero overhead when off: ``span()`` returns a shared no-op context
manager unless tracing is active, so hot paths pay one function call
and an environment-dict lookup.  Tracing activates either explicitly
(``enable()`` / ``collecting()``) or via the ``REPRO_TRACE`` environment
variable, which — like every other knob in this repo — is re-read per
call so tests can monkeypatch it.

``timed()`` is the migration target for the pipeline's historical
``time.perf_counter()`` bookkeeping: it *always* measures (exposing
``.seconds`` and feeding a registry timer) and additionally records a
trace event when tracing is on.
"""
from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from . import metrics

__all__ = [
    "span",
    "timed",
    "enable",
    "disable",
    "active",
    "collecting",
    "export",
    "events",
    "phase_totals",
    "reset",
]

_LOCK = threading.RLock()

#: Ring-buffer capacity in events: the oldest spans are evicted first.
_BUFFER_EVENTS = 1 << 16


class _TraceState:
    __slots__ = ("path", "explicit", "events", "phases", "epoch")

    def __init__(self, path: Optional[str], explicit: bool):
        self.path = path
        self.explicit = explicit
        self.events: deque = deque(maxlen=_BUFFER_EVENTS)
        self.phases: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self.epoch = time.perf_counter()


_STATE: Optional[_TraceState] = None
_ATEXIT_ARMED = False


def _arm_atexit() -> None:
    global _ATEXIT_ARMED
    if not _ATEXIT_ARMED:
        _ATEXIT_ARMED = True
        atexit.register(_at_exit)


def _at_exit() -> None:
    st = _STATE
    if st is not None and st.path:
        try:
            export()
        except OSError:
            pass


def active() -> Optional[_TraceState]:
    """The live trace state, or ``None`` when tracing is off.

    An explicit ``enable()`` wins; otherwise ``REPRO_TRACE`` governs,
    re-read per call so environment flips take effect immediately.
    """
    global _STATE
    st = _STATE
    if st is not None and st.explicit:
        return st
    path = os.environ.get("REPRO_TRACE")
    if path:
        if st is None or st.path != path:
            with _LOCK:
                st = _STATE
                if st is None or st.path != path:
                    st = _STATE = _TraceState(path, False)
                    _arm_atexit()
        return st
    if st is not None:  # env-driven state whose variable went away
        _STATE = None
    return None


def enable(path: Optional[str] = None) -> None:
    """Turn tracing on programmatically (wins over ``REPRO_TRACE``)."""
    global _STATE
    with _LOCK:
        _STATE = _TraceState(path, True)
        _arm_atexit()


def disable() -> None:
    """Turn off an explicitly-enabled tracer (env re-evaluated next call)."""
    global _STATE
    with _LOCK:
        _STATE = None


def reset() -> None:
    """Drop buffered events and phase totals, keeping the tracer active."""
    st = _STATE
    if st is not None:
        with _LOCK:
            st.events.clear()
            st.phases.clear()


class collecting:
    """Ensure spans are collected within a block.

    Leaves an already-active tracer untouched; otherwise enables an
    in-memory one and disables it on exit.  Used by the benchmark
    harness to get per-phase second totals without a trace file.
    """

    def __enter__(self) -> _TraceState:
        self._owned = active() is None
        if self._owned:
            enable(None)
        return active()  # type: ignore[return-value]

    def __exit__(self, *exc: Any) -> bool:
        if self._owned:
            disable()
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def note(self, **args: Any) -> None:
        pass


_NULL = _NullSpan()


class Span:
    __slots__ = ("st", "name", "cat", "args", "t0")

    def __init__(self, st: _TraceState, name: str, cat: str, args: Dict[str, Any]):
        self.st = st
        self.name = name
        self.cat = cat
        self.args = args

    def note(self, **args: Any) -> None:
        """Attributes only known once the span's work is done (they land on
        its begin event, next to those given up front)."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        st = self.st
        self.t0 = time.perf_counter()
        st.events.append(
            {
                "ph": "B",
                "name": self.name,
                "cat": self.cat,
                "ts": (self.t0 - st.epoch) * 1e6,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "args": self.args,
            }
        )
        return self

    def __exit__(self, *exc: Any) -> bool:
        # Runs on the exception path too: every B gets its E.
        t1 = time.perf_counter()
        st = self.st
        st.events.append(
            {
                "ph": "E",
                "name": self.name,
                "cat": self.cat,
                "ts": (t1 - st.epoch) * 1e6,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
        )
        cell = st.phases.get(self.name)
        if cell is None:
            cell = st.phases[self.name] = [0, 0.0]
        cell[0] += 1
        cell[1] += t1 - self.t0
        return False


def span(name: str, cat: str = "phase", **args: Any):
    """A nestable span; a shared no-op when tracing is off."""
    st = active()
    if st is None:
        return _NULL
    return Span(st, name, cat, args)


class Timed:
    """A span that always measures, for call sites that need the number.

    ``.seconds`` is valid after the block; the duration also lands in
    the metrics timer ``name`` and — when tracing is on — in the trace
    buffer like any other span.
    """

    __slots__ = ("name", "cat", "args", "t0", "seconds", "_sp")

    def __init__(self, name: str, cat: str, args: Dict[str, Any]):
        self.name = name
        self.cat = cat
        self.args = args
        self.seconds = 0.0

    def __enter__(self) -> "Timed":
        st = active()
        self._sp = Span(st, self.name, self.cat, self.args).__enter__() if st else None
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.seconds = time.perf_counter() - self.t0
        if self._sp is not None:
            self._sp.__exit__(*exc)
        metrics.observe(self.name, self.seconds)
        return False


def timed(name: str, cat: str = "phase", **args: Any) -> Timed:
    return Timed(name, cat, args)


def events() -> List[Dict[str, Any]]:
    """A balanced copy of the buffered events (oldest first).

    Ring-buffer eviction can orphan ``E`` events and an export taken
    mid-span leaves ``B`` events open; both are repaired so the JSON is
    always well-formed for trace viewers.
    """
    st = active()
    if st is None:
        return []
    with _LOCK:
        raw = list(st.events)
        now = (time.perf_counter() - st.epoch) * 1e6
    out: List[Dict[str, Any]] = []
    stacks: Dict[Any, List[Dict[str, Any]]] = {}
    for ev in raw:
        key = (ev["pid"], ev["tid"])
        if ev["ph"] == "B":
            stacks.setdefault(key, []).append(ev)
            out.append(ev)
        elif ev["ph"] == "E":
            if stacks.get(key):
                stacks[key].pop()
                out.append(ev)
            # else: begin was evicted from the ring buffer — drop the end
        else:
            out.append(ev)
    for (pid, tid), open_spans in stacks.items():
        for ev in reversed(open_spans):
            out.append({"ph": "E", "name": ev["name"], "cat": ev["cat"], "ts": now, "pid": pid, "tid": tid})
    return out


def export(path: Optional[str] = None) -> Optional[str]:
    """Write the buffer as Chrome-trace JSON; returns the path written.

    With no ``path`` argument, the tracer's configured file (from
    ``REPRO_TRACE`` or ``enable(path)``) is used; ``None`` is returned
    when tracing is off or no file is configured.
    """
    st = active()
    if st is None:
        return None
    path = path or st.path
    if not path:
        return None
    payload = {"traceEvents": events(), "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def phase_totals() -> Dict[str, Dict[str, float]]:
    """Accumulated ``{span name: {count, seconds}}`` since enable/reset."""
    st = active()
    if st is None:
        return {}
    with _LOCK:
        return {k: {"count": c, "seconds": s} for k, (c, s) in st.phases.items()}
