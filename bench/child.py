"""One workload, measured in a fresh interpreter (launched by ``run.py``).

``python child.py '<json config>'`` does: set-up (imports, inputs from the
seed, independent references) -> compile and derive through the public API
-> gate the first result against the reference -> the untraced pass
(end-to-end metrics) and/or the traced pass (per-layer metrics), and prints
one JSON object as its last line.  Timers never cover a correctness check.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from statistics import median

import numpy as np

from probe import PROBE_REF_MS, probe_ms, speed_factors
from workloads import (
    COLD, Built, bitwise_equal, cache_delta, clear_caches, flat, programs)

import repro as rp
from repro.exec import plan_cache_stats


class Lane:
    """One program's op, its like-for-like primal call, and its gate."""

    def __init__(self, prog, reference, cold: bool) -> None:
        self.prog = prog
        if cold:
            self.op = lambda: Built(prog).call()
            self.primal = lambda: rp.compile(prog.build_ir())(*prog.inputs)
            self.prepare = clear_caches
        else:
            built = Built(prog)
            self.op, self.primal, self.prepare = built.call, built.primal, lambda: None
        self.prepare()
        self.first = self.op()
        got = flat(self.first)
        rtol, atol = prog.tol
        self.gate_ok = (
            len(got) == len(reference)
            and all(g.shape == r.shape and np.allclose(g, r, rtol=rtol, atol=atol)
                    for g, r in zip(got, reference))
            and (prog.extra_check is None or prog.extra_check(self.first)))

    def check(self, result) -> bool:
        """Every op after the first: finite and bitwise-equal to it."""
        return (self.gate_ok and bitwise_equal(result, self.first)
                and all(np.isfinite(a).all() for a in flat(result)))


def untraced_pass(lanes, cfg) -> dict:
    """The closed timed loop: ops round-robin over the lanes, one primal
    call and one machine-speed probe after each op, whole rounds only."""
    def one(lane):
        lane.prepare()
        t0 = time.perf_counter()
        res = lane.op()
        t1 = time.perf_counter()
        lane.prepare()
        t2 = time.perf_counter()
        lane.primal()
        t3 = time.perf_counter()
        return (t1 - t0) * 1e3, (t3 - t2) * 1e3, probe_ms(), lane.check(res)

    # One warm-up round of the cold workload already compiles every program.
    for _ in range(min(cfg["warmup"], 1) if cfg["workload"] in COLD else cfg["warmup"]):
        for lane in lanes:
            one(lane)
    before = plan_cache_stats()
    ops, primals, probes, failed = [], [], [], 0
    deadline = None if cfg["ops"] else time.perf_counter() + cfg["seconds"]
    while len(ops) < (cfg["ops"] or cfg["min_ops"]) or (
            deadline is not None and time.perf_counter() < deadline):
        for lane in lanes:
            op_ms, primal_ms, p_ms, ok = one(lane)
            ops.append(op_ms)
            primals.append(primal_ms)
            probes.append(p_ms)
            failed += not ok
    after = plan_cache_stats()
    # Time metrics at reference machine speed (see probe.py); raw beside them.
    norm = [t / f for t, f in zip(ops, speed_factors(probes))]
    # Each round's ops against the primal calls interleaved with them.
    k = len(lanes)
    overhead = median(sum(ops[i:i + k]) / sum(primals[i:i + k]) for i in range(0, len(ops), k))
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            "step_ms_p50": median(norm),
            "steps_per_s": len(norm) / (sum(norm) / 1e3),
            "ad_overhead_x": overhead,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        # Reported, not gated: the tail, and the wall-clock the above came from.
        "info": {
            "step_ms_p90": float(np.percentile(norm, 90)),
            "raw_step_ms_p50": median(ops),
            "raw_step_ms_p90": float(np.percentile(ops, 90)),
            "raw_steps_per_s": len(ops) / (sum(ops) / 1e3),
            "raw_primal_ms_p50": median(primals),
            "machine_slowdown_x": median(probes) / PROBE_REF_MS,
        },
        # Cleared caches reset these counters, so on the cold workload this
        # is the last op's share only; the traced pass reports it per round.
        "cache": cache_delta(before, after),
    }


def traced_pass(cfg, progs) -> dict:
    from staged import Recorder, combine, trace_program

    rec = Recorder()
    reduced = programs(cfg["workload"], cfg["seed"], reduced=True)
    cold = cfg["workload"] in COLD
    reps = cfg["cold_trace_reps" if cold else "trace_reps"]
    per_program = [
        trace_program(rec, p, r, cfg["cold_rounds"], reps) for p, r in zip(progs, reduced)]
    os.makedirs(os.path.dirname(cfg["trace_file"]), exist_ok=True)
    with open(cfg["trace_file"], "w") as f:
        json.dump({"workload": cfg["workload"], "seed": cfg["seed"], **rec.chrome_trace()}, f)
    return {
        "metrics": combine(per_program, cold),
        "staged_equals_public": True,  # trace_program raises otherwise
        "spans": len(rec.spans),
        "trace_file": cfg["trace_file"],
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    progs = programs(cfg["workload"], cfg["seed"])
    refs = [p.reference() for p in progs]
    if cfg["break_reference"]:
        refs = [[r * (1 + 1e-3) + 1e-3 for r in ref] for ref in refs]
    setup_raw_s = time.time() - cfg["spawned_unix"]
    slowdown = median(probe_ms() for _ in range(15)) / PROBE_REF_MS
    out = {"workload": cfg["workload"], "setup_s": setup_raw_s / slowdown,
           "setup_raw_s": setup_raw_s, "numpy": np.__version__}
    if cfg["setup_only"]:
        print(json.dumps(out))
        return 0

    t0 = time.perf_counter()
    cold = cfg["workload"] in COLD
    lanes = [Lane(p, ref, cold) for p, ref in zip(progs, refs)]
    out["build_and_first_call_s"] = time.perf_counter() - t0
    out["gate"] = {lane.prog.name: bool(lane.gate_ok) for lane in lanes}
    if cfg["untraced"]:
        out["untraced"] = untraced_pass(lanes, cfg)
    if cfg["traced"] and all(out["gate"].values()):
        out["traced"] = traced_pass(cfg, progs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
