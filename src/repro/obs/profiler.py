"""Per-instruction wall-clock attribution: the ``REPRO_PROFILE`` knob.

An emit-time hook, not an emitter.  With the knob set, ``plan_for`` builds
closures with ``timer(fun)`` installed: ``exec/plan.py``'s
``_ClosureEmitter.emit_body`` hands it every instruction closure it emits,
fused runs included, and nested bodies are emitted by the same
``emit_body`` — so every instruction at every depth is timed.  With the
knob off nothing is installed.  The wrapper only observes: results are
bitwise the unprofiled ones.

Each row is labelled (``ir/pretty``) with the *source statements* the
instruction executes (the provenance ``exec/lower.py`` records).  A
per-thread stack of running timers splits its cumulative seconds into its
own (*self*) and its nested instructions'; ``calls`` counts executions, so
a nested row counts body runs and fold iterations.  ``profile_report()``
ranks the rows by self seconds.

Any truthy ``REPRO_PROFILE`` enables timing; a value naming a file (a path
separator or a ``.json`` suffix) also writes the report there at
interpreter exit.
"""
from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ir.analysis import ir_hash
from ..ir.pretty import pretty_exp
from ..exec.lower import plan_counts
from . import metrics, tracing

__all__ = [
    "timer",
    "profile_enabled",
    "profile_report",
    "format_profile_report",
    "profile_summary",
    "reset_profile",
    "write_profile",
]

_PLOCK = threading.Lock()


def _knob() -> Tuple[bool, Optional[str]]:
    """The one parser of ``REPRO_PROFILE``: (timing on, report file or
    ``None``)."""
    v = os.environ.get("REPRO_PROFILE", "")
    on = v.lower() not in ("", "0", "off", "false", "no")
    return on, (v if on and (os.sep in v or v.endswith(".json")) else None)


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` installs ``timer`` on the plans
    ``plan_for`` builds (part of the plan-cache key)."""
    return _knob()[0]


class _Rec:
    __slots__ = ("label", "kind", "strategy", "depth", "fun", "mem", "index",
                 "calls", "cum", "self", "kernel_calls")

    def __init__(self, label: str, kind: str, strategy: Optional[str], depth: int,
                 fun: str, mem: Dict[str, int], index: Dict[str, int]):
        self.label, self.kind, self.fun = label, kind, fun
        #: A reduce/scan/hist's lowering strategy (a contraction is its own
        #: ``kind``); nesting depth, 0 for the function body's instructions.
        self.strategy, self.depth = strategy, depth
        #: ``exec.lower.plan_counts`` of the instruction, nested bodies
        #: included: the size of its memory plan and how its indexed reads
        #: and updates execute.
        self.mem, self.index = mem, index
        #: ``kernel_calls``: a kernel run's calls that ran in C (``exec/kernels.py``).
        self.calls, self.cum, self.self, self.kernel_calls = 0, 0.0, 0.0, 0


# (fun name, ir hash, emission index) -> _Rec
_DATA: Dict[tuple, _Rec] = {}


class _Stack(threading.local):
    """The running timers of this thread: each frame sums the cumulative
    seconds of the instructions nested in it."""

    def __init__(self) -> None:
        self.frames: List[float] = []


_STACK = _Stack()


def _stm_label(stm) -> str:
    pats = ", ".join(v.name for v in stm.pat)
    txt = pretty_exp(stm.exp).splitlines()[0].strip()
    if len(txt) > 48:
        txt = txt[:45] + "..."
    return f"{pats} = {txt}"


def _label_of(prov: tuple, kind: str) -> str:
    if not prov:
        return f"<{kind}>"
    if kind == "contract":  # the map or reduce, then the replicates it dropped
        return "contract " + _stm_label(prov[0])
    if len(prov) == 1:
        return _stm_label(prov[0])
    first, last = prov[0].pat[0].name, prov[-1].pat[0].name
    return f"run[{len(prov)}] {first}..{last}"


def timer(fun) -> Callable:
    """The emit-time hook for ``fun``'s plans: ``wrap(closure, ins, depth)``
    returns ``closure`` timed as plan-IR instruction ``ins`` at nesting
    ``depth``.  Records are keyed by emission order, which is the same for
    every body emitted from ``fun``, and resolved per call so accumulation
    survives ``reset_profile`` on cached plans.  A kernel run's closure
    returns whether it ran in C."""
    base = (fun.name, ir_hash(fun))
    emitted = [0]

    def wrap(closure, ins, depth: int) -> Callable:
        key = base + (emitted[0],)
        emitted[0] += 1
        meta = (_label_of(ins.prov, ins.kind), ins.kind, getattr(ins, "strategy", None),
                depth, fun.name, *plan_counts((ins,)))

        def run_timed(eng, _c=closure):
            frames = _STACK.frames
            frames.append(0.0)
            t0 = time.perf_counter()
            ran = None
            try:
                ran = _c(eng)
                return ran
            finally:
                dt = time.perf_counter() - t0
                inner = frames.pop()
                if frames:
                    frames[-1] += dt
                with _PLOCK:
                    rec = _DATA.get(key)
                    if rec is None:
                        rec = _DATA[key] = _Rec(*meta)
                    rec.calls += 1
                    rec.cum += dt
                    rec.self += dt - inner
                    rec.kernel_calls += ran is True

        return run_timed

    return wrap


def reset_profile() -> None:
    """Drop all accumulated per-instruction timings."""
    with _PLOCK:
        _DATA.clear()


def profile_summary() -> Dict[str, Any]:
    """The registry-sized view: totals only (full detail via
    ``profile_report``)."""
    with _PLOCK:
        recs = list(_DATA.values())
    return {
        "instructions": len(recs),
        "calls": sum(r.calls for r in recs),
        "seconds": sum(r.self for r in recs),
    }


def profile_report(top_k: int = 10) -> Dict[str, Any]:
    """Rank instruction hotspots, every depth, by self seconds.

    Returns ``{total_s, execute_span_s, coverage, by_kind, entries}``.
    Each entry carries ``label`` / ``fun`` / ``kind`` / ``strategy`` /
    ``depth`` / ``kernel_calls`` (a kernel run's calls that ran in C) /
    ``mem`` (the size of the instruction's memory plan: slots
    released, run-local values released, donating ops — nested bodies
    included) / ``index`` (its indexed reads and accumulator updates on the
    view path and its reads left as gathers, nested bodies included) /
    ``calls`` / ``self_s`` / ``cum_s`` / ``share`` (of the self total) /
    ``measured_rank``.  ``total_s`` is the self total, which is the top-level
    instructions' cumulative time; ``coverage`` is that over the ``execute``
    span total (requires tracing on to be set).
    """
    with _PLOCK:
        recs = sorted(_DATA.values(), key=lambda r: r.self, reverse=True)
        rows = [
            {"label": r.label, "fun": r.fun, "kind": r.kind, "strategy": r.strategy,
             "depth": r.depth, "mem": dict(r.mem), "index": dict(r.index), "calls": r.calls,
             "kernel_calls": r.kernel_calls, "self_s": r.self, "cum_s": r.cum}
            for r in recs
        ]
    total = sum(e["self_s"] for e in rows)
    by_kind: Dict[str, float] = {}
    for e in rows:
        by_kind[e["kind"]] = by_kind.get(e["kind"], 0.0) + e["self_s"]
    entries = rows[: max(top_k, 0)]
    for rank, e in enumerate(entries, start=1):
        e["share"] = (e["self_s"] / total) if total else 0.0
        e["measured_rank"] = rank

    phases = tracing.phase_totals()
    execute_s = phases.get("execute", {}).get("seconds")
    return {
        "total_s": total,
        "execute_span_s": execute_s,
        "coverage": (total / execute_s) if execute_s else None,
        "by_kind": by_kind,
        "entries": entries,
    }


def format_profile_report(report: Optional[Dict[str, Any]] = None, top_k: int = 10) -> str:
    """The report as an aligned text table (what the README shows)."""
    rep = report if report is not None else profile_report(top_k)
    lines = [
        f"profile: {rep['total_s']:.4f}s self time, top {len(rep['entries'])} instructions"
        + (
            f" ({100 * rep['coverage']:.1f}% of execute spans)"
            if rep["coverage"] is not None
            else ""
        ),
        f"{'#':>2s} {'self_s':>8s} {'share':>6s} {'cum_s':>8s} {'calls':>7s} {'d':>2s} "
        f"{'kind':>14s} {'rel/loc/don':>11s} {'view/gather':>11s} label",
    ]
    for e in rep["entries"]:
        kind = e["kind"] + (f"/{e['strategy']}" if e.get("strategy") else "")
        kind += "/C" if e.get("kernel_calls") else ""  # a run whose C part ran compiled
        # slots released / run-local values released / donating ops
        mem = "/".join(str(n) for n in e.get("mem", {}).values()) or "-"
        # indexed reads + accumulator updates that are views / reads that gather
        ix = e.get("index", {})
        idx = (f"{ix['view_index_ops'] + ix['view_updacc_ops']}/"
               f"{ix['gather_index_ops']}") if ix else "-"
        lines.append(
            f"{e['measured_rank']:2d} {e['self_s']:8.4f} {100 * e['share']:5.1f}% "
            f"{e['cum_s']:8.4f} {e['calls']:7d} {e['depth']:2d} {kind:>14s} "
            f"{mem:>11s} {idx:>11s} {e['fun']}: {e['label']}"
        )
    if rep["by_kind"]:
        top = sorted(rep["by_kind"].items(), key=lambda kv: kv[1], reverse=True)
        lines.append("self by kind: " + "  ".join(f"{k}={v:.4f}s" for k, v in top))
    return "\n".join(lines)


def write_profile(path: Optional[str] = None, top_k: int = 25) -> Optional[str]:
    """Write ``profile_report`` as JSON (default: the ``REPRO_PROFILE``
    file, when the knob names one); returns the path written."""
    path = path or _knob()[1]
    if not path:
        return None
    with open(path, "w") as fh:
        json.dump(profile_report(top_k), fh, indent=1)
    return path


def _at_exit() -> None:
    try:
        write_profile()
    except OSError:
        pass


atexit.register(_at_exit)
metrics.register_source("profile", profile_summary, reset_profile)
