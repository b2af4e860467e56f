"""The benchmark's unit of time: a fixed probe of machine speed.

The boxes this runs on drift: the same interpreter-bound code takes up to 2x
longer for stretches of seconds to minutes (shared cores; CPU time rises
with wall time, so it is not preemption).  Raw wall-clock medians of two
back-to-back runs of the same commit differ by 15-25 %, which would hide
any regression smaller than that.  So every timed op is followed by this
probe, and the time metrics are reported **at reference machine speed**:

    normalised ms = wall ms * PROBE_REF_MS / (probe ms around that op)

The probe is interpreter-bound like the executors it stands in for (JSON
round trip, sort with a key function, dict building, a closure-per-
instruction loop over a register file); a plain counting loop or bulk NumPy
calls track the drift several times worse.  It never touches ``repro``.

Changing anything in this file changes the unit of every time metric:
it is frozen with the workload definitions.
"""
from __future__ import annotations

import json
import time
from statistics import median

#: The probe's median on the box the benchmark was defined on, when quiet.
#: On such a box normalised ms equal wall-clock ms.
PROBE_REF_MS = 1.8

_DOC = {f"k{i}": [{"a": i, "b": [j * 0.5 for j in range(8)], "c": "x" * i} for _ in range(4)]
        for i in range(24)}


def _make_code():
    code = []
    for k in range(60):
        def ins(regs, _k=k):
            a = regs[_k % 8]
            regs[8 + _k % 50] = (a if a is not None else 0) + _k
        code.append(ins)
    return code


_CODE = _make_code()


def probe() -> int:
    total = 0
    for _ in range(3):
        doc = json.loads(json.dumps(_DOC))
        by_len = sorted(doc.items(), key=lambda kv: len(kv[1][0]["c"]))
        sums = {k: sum(x["a"] for x in v) for k, v in by_len}
        regs = [None] * 64
        for _ in range(40):
            for ins in _CODE:
                ins(regs)
        total += len(sums) + regs[8]
    return total


def probe_ms() -> float:
    t0 = time.perf_counter()
    probe()
    return (time.perf_counter() - t0) * 1e3


def speed_factors(probes, half_window: int = 2):
    """Per-op slowdown against the reference box: the median probe time of
    the ops around each op, over ``PROBE_REF_MS``."""
    n = len(probes)
    return [median(probes[max(0, i - half_window):i + half_window + 1]) / PROBE_REF_MS
            for i in range(n)]
