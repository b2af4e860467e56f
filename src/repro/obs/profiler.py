"""The ``"profile"`` plan emitter: per-instruction wall-clock attribution.

``plan_for(..., emitter="profile")`` resolves to this module's class
(``exec/plan.py:_emitter_class``), so it composes with the plan cache and
every backend that resolves plans through ``plan_for``.  A ``ProfilePlan`` is a ``Plan`` whose top-level
instruction closures are wrapped with timing; each measurement is keyed
to the *source statements* the instruction executes (the provenance
``exec/lower.py`` records on every top-level plan-IR instruction) and
labelled via ``ir/pretty``.  Results are bitwise-identical to the plain
``plan`` emitter — the wrapper only observes.

``profile_report()`` ranks the top-k hotspots by measured seconds, each
with the size of its memory and index plans.

Selection: pass ``emitter="profile"`` to ``plan_for``, or set
``REPRO_PROFILE`` — any truthy value routes default plan-backend
executions through this emitter; a value naming a file (a path separator
or a ``.json`` suffix) additionally writes the report there at
interpreter exit.
"""
from __future__ import annotations

import atexit
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

from ..ir.analysis import ir_hash
from ..ir.pretty import pretty_exp
from ..exec.lower import plan_counts
from ..exec.plan import Plan
from . import metrics, tracing

__all__ = [
    "ProfilePlan",
    "profile_report",
    "format_profile_report",
    "profile_summary",
    "reset_profile",
    "write_profile",
]

_PLOCK = threading.Lock()


class _Rec:
    __slots__ = ("label", "kind", "fun", "mem", "index", "calls", "seconds")

    def __init__(self, label: str, kind: str, fun: str,
                 mem: Optional[Dict[str, int]] = None,
                 index: Optional[Dict[str, int]] = None):
        self.label = label
        self.kind = kind
        self.fun = fun
        #: ``exec.lower.plan_counts`` of the instruction (nested bodies
        #: included), fixed at emit time: the size of its memory plan …
        self.mem = mem or {}
        #: … and its indexed reads and updates on the view path against its
        #: reads left as gathers.
        self.index = index or {}
        self.calls = 0
        self.seconds = 0.0


# (fun name, ir hash, instr index) -> _Rec
_DATA: Dict[tuple, _Rec] = {}


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


def _wrap(closure, key: tuple, label: str, kind: str, fun: str,
          mem: Optional[Dict[str, int]] = None,
          index: Optional[Dict[str, int]] = None):
    """Time one instruction closure; the record is resolved per call so
    accumulation survives ``reset_profile`` on cached plans."""

    def timed_ins(eng, _c=closure):
        t0 = time.perf_counter()
        try:
            return _c(eng)
        finally:
            dt = time.perf_counter() - t0
            with _PLOCK:
                rec = _DATA.get(key)
                if rec is None:
                    rec = _DATA[key] = _Rec(label, kind, fun, mem, index)
                rec.calls += 1
                rec.seconds += dt

    return timed_ins


class ProfilePlan(Plan):
    """A ``Plan`` whose top-level instructions are timed and attributed.

    Lowering, caching and results are exactly the plain emitter's; only
    the emitted closures differ, by one timing wrapper each.
    """

    emitter_name = "profile"

    def _emit(self, ir, lay):
        (instrs, res), built = super()._emit(ir, lay)
        fun = self.fun
        base = (fun.name, ir_hash(fun))
        wrapped = tuple(
            _wrap(
                c,
                base + (i,),
                _label_of(ins.prov, ins.kind),
                ins.kind,
                fun.name,
                *plan_counts((ins,)),
            )
            for i, (c, ins) in enumerate(zip(instrs, ir.body.instrs))
        )
        return (wrapped, res), built


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
        "seconds": sum(r.seconds for r in recs),
    }


def profile_report(top_k: int = 10) -> Dict[str, Any]:
    """Rank instruction hotspots by measured seconds.

    Returns ``{total_s, execute_span_s, coverage, by_kind, entries}``.
    Each entry carries ``label`` / ``fun`` / ``kind`` /
    ``mem`` (the size of the instruction's memory plan: slots released,
    run-local values released, donating ops — nested bodies included) /
    ``index`` (its indexed reads and accumulator updates on the view path and
    its reads left as gathers, nested bodies included) / ``calls`` /
    ``seconds`` / ``share`` / ``measured_rank``.  ``coverage`` is
    instruction-attributed seconds over the ``execute`` span total (requires
    tracing on to be set) — the acceptance bar is ≥0.9 on the GMM gradient.
    """
    with _PLOCK:
        recs = sorted(_DATA.values(), key=lambda r: r.seconds, reverse=True)
        recs = [
            (r.label, r.kind, r.fun, r.mem, r.index, r.calls, r.seconds)
            for r in recs
        ]
    total = sum(sec for *_, sec in recs)
    by_kind: Dict[str, float] = {}
    for _, kind, *_, sec in recs:
        by_kind[kind] = by_kind.get(kind, 0.0) + sec

    entries: List[Dict[str, Any]] = [
        {
            "label": label,
            "fun": fun,
            "kind": kind,
            "mem": dict(mem),
            "index": dict(index),
            "calls": calls,
            "seconds": sec,
            "share": (sec / total) if total else 0.0,
            "measured_rank": rank,
        }
        for rank, (label, kind, fun, mem, index, calls, sec)
        in enumerate(recs[: max(top_k, 0)], start=1)
    ]

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
        f"profile: {rep['total_s']:.4f}s attributed over "
        f"{len(rep['entries'])} top instructions"
        + (
            f" ({100 * rep['coverage']:.1f}% of execute spans)"
            if rep["coverage"] is not None
            else ""
        ),
        f"{'#':>2s} {'seconds':>9s} {'share':>6s} {'calls':>7s} "
        f"{'rel/loc/don':>11s} {'view/gather':>11s} label",
    ]
    for e in rep["entries"]:
        # slots released / run-local values released / donating ops
        mem = "/".join(str(n) for n in e.get("mem", {}).values()) or "-"
        # indexed reads + accumulator updates that are views / reads that gather
        ix = e.get("index", {})
        idx = (f"{ix['view_index_ops'] + ix['view_updacc_ops']}/"
               f"{ix['gather_index_ops']}") if ix else "-"
        lines.append(
            f"{e['measured_rank']:2d} {e['seconds']:9.4f} "
            f"{100 * e['share']:5.1f}% {e['calls']:7d} "
            f"{mem:>11s} {idx:>11s} {e['fun']}: {e['label']}"
        )
    if rep["by_kind"]:
        top = sorted(rep["by_kind"].items(), key=lambda kv: kv[1], reverse=True)
        lines.append("by kind: " + "  ".join(f"{k}={v:.4f}s" for k, v in top))
    return "\n".join(lines)


def _profile_path() -> Optional[str]:
    v = os.environ.get("REPRO_PROFILE", "")
    if v and (os.sep in v or v.endswith(".json")):
        return v
    return None


def write_profile(path: Optional[str] = None, top_k: int = 25) -> Optional[str]:
    """Write ``profile_report`` as JSON (default: the ``REPRO_PROFILE``
    file, when the knob names one); returns the path written."""
    path = path or _profile_path()
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
