"""The traced pass: the public pipeline re-created stage by stage, with one
span around every call into a layer's public function.

Nothing here reaches inside the program under test.  ``stage_part`` replays
what ``rp.grad`` / ``rp.hessian_diag`` / ``rp.jvp`` / ``rp.vjp`` do between
``rp.compile(ir).fun`` and the first executor call, using the same public
functions in the same order; ``trace_program`` asserts that the staged plan
returns results bitwise-equal to the public API's, so the decomposition is
of the same program.  Spans stay in memory until the pass ends.
"""
from __future__ import annotations

import gc
import resource
import time
import tracemalloc
from contextlib import contextmanager
from statistics import median

import repro as rp
from repro.core.jvp import jvp_fun
from repro.core.vjp import vjp_fun
from repro.exec import CodegenPlan, Plan, lower_fun, plan_cache_stats
from repro.exec.lower import PBody
from repro.ir.analysis import ir_hash
from repro.ir.schedule import apply_env_schedule
from repro.ir.traversal import count_soacs, count_stms
from repro.opt.acc_opt import acc_opt_fun
from repro.opt.pipeline import AD_SAFE_PASSES, opt_stats, optimize_fun
from repro.opt.stripmine import stripmine_fun
from repro.opt.while_bound import while_bound_fun

from probe import PROBE_REF_MS, probe_ms
from workloads import Built, bitwise_equal, cache_delta, clear_caches


class Recorder:
    """In-memory spans: name, start, end, parent span, op id."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []
        self.op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def new_op(self, name: str, **attrs):
        self.op += 1
        with self.span(name, **attrs) as rec:
            yield rec

    def chrome_trace(self) -> dict:
        """Chrome-trace JSON (``ph: X`` events; open in ui.perfetto.dev).
        ``self_ms`` is the span minus the part its children cover."""
        child_ms = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + ms(s)
        t0 = self.spans[0]["start"] if self.spans else 0.0
        events = []
        for s in self.spans:
            args = {k: v for k, v in s.items() if k not in ("name", "start", "end")}
            args["self_ms"] = ms(s) - child_ms.get(s["id"], 0.0)
            events.append({"name": s["name"], "ph": "X", "pid": 0, "tid": 0,
                           "ts": (s["start"] - t0) * 1e6, "dur": ms(s) * 1e3, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


# ---------------------------------------------------------------------------
# Staging one derivative
# ---------------------------------------------------------------------------


def stage_part(rec: Recorder, fun, part):
    """``rp.compile(ir).fun`` -> the scheduled derivative ``Fun``, replaying
    the public entry point named by ``part.mode``.  Returns the derivative
    and the statement counts along the way."""
    safe = AD_SAFE_PASSES
    with rec.span("opt.optimize_fun", stage="pre_ad"):
        f = optimize_fun(fun, passes=safe)
    with rec.span("opt.while_bound_fun", stage="pre_ad"):
        f = while_bound_fun(f)
    with rec.span("opt.stripmine_fun", stage="pre_ad"):
        f = stripmine_fun(f)
    with rec.span("opt.optimize_fun", stage="pre_ad"):
        f = optimize_fun(f, passes=safe)
    counts = {"pre_ad": count_stms(f)}
    if part.mode == "jvp":
        with rec.span("core.jvp_fun"):
            d = jvp_fun(f)
        counts["after_ad"] = counts["after_acc_opt"] = count_stms(d)
    else:
        wrt = [part.wrt] if part.mode == "hess" else part.wrt
        with rec.span("core.vjp_fun"):
            d = vjp_fun(f, wrt=wrt)
        counts["after_ad"] = count_stms(d)
        if part.mode == "hess":
            with rec.span("opt.optimize_fun", stage="post_ad"):
                d = optimize_fun(d, passes=safe)
        with rec.span("opt.acc_opt_fun"):
            d = acc_opt_fun(d)
        counts["after_acc_opt"] = count_stms(d)
        if part.mode == "hess":
            with rec.span("opt.optimize_fun", stage="post_ad"):
                d = optimize_fun(d, passes=safe)
            with rec.span("core.jvp_fun"):
                d = jvp_fun(d)
    with rec.span("opt.optimize_fun", stage="post_ad"):
        d = optimize_fun(d)
    with rec.span("ir.apply_env_schedule"):
        d = apply_env_schedule(d)
    counts["final"] = count_stms(d)
    counts["soacs_final"] = count_soacs(d)
    return d, counts


def run_plan(plan, part, inputs):
    args, flags, batch = part.plan_args(inputs)
    out = plan.run(args) if flags is None else plan.run_batched(args, flags, batch)
    return part.unpack(out)


def cold_start() -> None:
    """Cleared caches and a collected heap: the staged and the public cold op
    are compared with each other, so neither may inherit the other's garbage
    (a cold compile allocates enough to make that a 20 % coin toss)."""
    clear_caches()
    gc.collect()


def staged_cold_op(rec: Recorder, prog):
    """One cold compile-to-first-result through the staged pipeline.
    Returns ``(op span, per-part (PlanIR, Plan, statement counts), results,
    primal statement count)``."""
    cold_start()
    staged, results = [], []
    with rec.new_op("op.staged_cold", program=prog.name) as op:
        with rec.span("frontend.build_ir"):
            ir = prog.build_ir()
        with rec.span("frontend.compile", stage="pre_ad"):
            fun = rp.compile(ir).fun
        stms_primal = count_stms(fun)
        for part in prog.parts:
            d, counts = stage_part(rec, fun, part)
            with rec.span("ir.ir_hash"):
                ir_hash(d)
            with rec.span("exec.lower_fun"):
                pir = lower_fun(d)
            with rec.span("exec.Plan"):
                plan = Plan(d, ir=pir)
            with rec.span("exec.first_call"):
                results.append(run_plan(plan, part, prog.inputs))
            staged.append((pir, plan, counts))
    return op, staged, results, stms_primal


def public_cold_op(rec: Recorder, prog):
    """The same cold op through the public API; returns (span, Built)."""
    cold_start()
    with rec.new_op("op.public_cold", program=prog.name) as op:
        built = Built(prog)
        built.result = built.call()
    return op, built


# ---------------------------------------------------------------------------
# Counting the plan IR
# ---------------------------------------------------------------------------


def plan_ir_counts(pir) -> dict:
    """Instructions and reduce/scan/hist lowering strategies, counted
    recursively over every nested ``PBody``."""
    out = {"instrs": 0, "generic": 0, "ufunc": 0, "redomap": 0}

    def walk(body) -> None:
        for ins in body.instrs:
            out["instrs"] += 1
            strategy = getattr(ins, "strategy", None)
            if strategy is not None:
                out[strategy] += 1
            for klass in type(ins).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    sub = getattr(ins, slot, None)
                    if isinstance(sub, PBody):
                        walk(sub)

    walk(pir.body)
    return out


# ---------------------------------------------------------------------------
# The traced pass over one program
# ---------------------------------------------------------------------------


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def trace_program(rec: Recorder, prog, reduced, cold_rounds: int, reps: int) -> dict:
    """Layer numbers of one program: ms values are medians (cold stages over
    ``cold_rounds`` alternating staged/public compiles, hot calls over
    ``reps``), counts are exact.  Keys starting with ``_`` are the bases of
    ratios, kept so several programs can be summed before dividing."""
    colds = []
    for _ in range(cold_rounds):
        op, staged, results, stms_primal = staged_cold_op(rec, prog)
        pub, built = public_cold_op(rec, prog)
        if not bitwise_equal(results, built.result):
            raise AssertionError(f"{prog.name}: staged pipeline != public API result")
        cold_stats = (opt_stats(), plan_cache_stats())  # of the public cold op
        colds.append((op, pub))

    def cold(name=None, stage=None):
        return median(
            sum(ms(s) for s in rec.spans
                if s["op"] == op["op"] and name in (None, s["name"])
                and stage in (None, s.get("stage")))
            for op, _ in colds)

    m = {
        "frontend.build_ir_ms": cold("frontend.build_ir"),
        "opt.pre_ad_ms": cold(stage="pre_ad"),
        "opt.acc_opt_ms": cold("opt.acc_opt_fun"),
        "opt.post_ad_ms": cold("opt.optimize_fun", "post_ad"),
        "core.vjp_ms": cold("core.vjp_fun"),
        "core.jvp_ms": cold("core.jvp_fun"),
        "ir.schedule_ms": cold("ir.apply_env_schedule"),
        "ir.hash_ms": cold("ir.ir_hash"),
        "exec.lower_ms": cold("exec.lower_fun"),
        "exec.emit_ms.plan": cold("exec.Plan"),
        "exec.first_call_ms": cold("exec.first_call"),
        "_staged_cold_ms": median(ms(op) for op, _ in colds),
        "_public_cold_ms": median(ms(pub) for _, pub in colds),
    }

    ostats, pstats = cold_stats
    passes = ostats["passes"].values()
    m.update({
        "ir.stms_primal": stms_primal,
        "_stms_pre_ad": sum(c["pre_ad"] for _, _, c in staged),
        "ir.stms_after_vjp": sum(c["after_ad"] for _, _, c in staged),
        "ir.stms_after_acc_opt": sum(c["after_acc_opt"] for _, _, c in staged),
        "ir.stms_final": sum(c["final"] for _, _, c in staged),
        "ir.soacs_final": sum(c["soacs_final"] for _, _, c in staged),
        "opt.fusion_vertical": ostats["fusion"]["vertical"],
        "opt.fusion_horizontal": ostats["fusion"]["horizontal"],
        "opt.pass_fired": sum(p["fired"] for p in passes),
        "opt.pass_changed": sum(p["changed"] for p in passes),
        "opt.memo_hits": ostats["cache"]["hits"],
        "opt.memo_misses": ostats["cache"]["misses"],
        "exec.plan_slots": sum(pir.nslots for pir, _, _ in staged),
        "exec.fused_stms": sum(pir.fused for pir, _, _ in staged),
    })
    counts = [plan_ir_counts(pir) for pir, _, _ in staged]
    m["exec.plan_instrs"] = sum(c["instrs"] for c in counts)
    for strategy in ("generic", "ufunc", "redomap"):
        m[f"exec.strategy.{strategy}"] = sum(c[strategy] for c in counts)

    # The codegen emitter over the same lowering (not on the default path).
    with rec.new_op("exec.CodegenPlan", program=prog.name) as emit:
        codegens = [CodegenPlan(pir.fun, ir=pir) for pir, _, _ in staged]
    m["exec.emit_ms.codegen"] = ms(emit)
    m["exec.codegen_src_bytes"] = sum(len(c.source) for c in codegens)

    # Hot calls: the public API (outside and inside a span), the staged
    # plans run directly, and the paper's comparison columns — interleaved in
    # one loop with a machine-speed probe, so drift hits all of them alike.
    inputs = prog.inputs
    plans = [plan for _, plan, _ in staged]

    def run_all(ps):
        return [run_plan(p, part, inputs) for p, part in zip(ps, prog.parts)]

    calls = {
        "_public_hot_ms": (None, built.call),
        "_traced_hot_ms": ("op.public_hot", built.call),
        "exec.execute_ms.plan": ("exec.Plan.run", lambda: run_all(plans)),
        "exec.execute_ms.codegen": ("exec.CodegenPlan.run", lambda: run_all(codegens)),
        "baselines.tape_ms_p50": ("baselines.tape", prog.tape),
    }
    if prog.manual is not None:
        calls["baselines.manual_ms_p50"] = ("baselines.manual", prog.manual)
    samples = {k: [] for k in calls}
    probes = m["_probes_ms"] = []
    faults, sys_ms = [], 0.0  # of the public calls: fresh temporaries cost page faults
    built.call()  # the first hit of a signature is where promotion is decided
    before = plan_cache_stats()
    for _ in range(reps):
        for key, (name, fn) in calls.items():
            if name is None:  # the reference the traced call is compared with
                ru0 = resource.getrusage(resource.RUSAGE_SELF)
                t = time.perf_counter()
                fn()
                samples[key].append((time.perf_counter() - t) * 1e3)
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                faults.append(ru1.ru_minflt - ru0.ru_minflt)
                sys_ms += (ru1.ru_stime - ru0.ru_stime) * 1e3
            else:
                with rec.new_op(name, program=prog.name) as s:
                    fn()
                samples[key].append(ms(s))
        probes.append(probe_ms())
    after = plan_cache_stats()
    m.update({k: median(v) for k, v in samples.items()})
    m["exec.minor_faults"] = median(faults)
    m["exec.sys_ms"] = sys_ms / reps  # kernel time is tick-sampled: a mean, not a median
    # On the cold workload the counters that matter are those of a cold op
    # (every op starts from cleared caches), not of these cached calls.
    m["_hot_cache"] = cache_delta(before, after)
    m["_cold_cache"] = cache_delta({}, pstats)
    if prog.manual is not None:
        m["_ours_vs_manual_ms"] = m["_public_hot_ms"]
    if not bitwise_equal(run_all(codegens), built.result):
        raise AssertionError(f"{prog.name}: codegen plan != public API result")
    m["exec.peak_alloc_mb"] = _peak_alloc_mb(built.call)
    m["baselines.tape_peak_alloc_mb"] = _peak_alloc_mb(prog.tape)

    # Exact work / memory-traffic counters on the reduced instance.  A
    # batched part costs its first seed times the number of seeds.
    small = Built(reduced)
    primal = small.fc.cost(*reduced.inputs)
    work = mem = 0
    for part, deriv in zip(reduced.parts, small.derivs):
        args, flags, batch = part.plan_args(reduced.inputs)
        if flags is not None:
            args = [a[0] if f else a for a, f in zip(args, flags)]
        c = part.adfun(deriv).cost(*args)
        work += c.work * max(batch, 1)
        mem += c.mem * max(batch, 1)
    m.update({"_work_d": work, "_work_p": primal.work, "_mem_d": mem, "_mem_p": primal.mem})
    return m


def combine(per_program: list, cold: bool) -> dict:
    """Layer metrics of a workload from its programs' numbers: times, counts
    and bytes add up (a cold round compiles every program once), peaks take
    the maximum, and ratios divide the summed bases."""
    tot = {}
    for m in per_program:
        for k, v in m.items():
            if isinstance(v, dict):
                tot[k] = {c: tot.get(k, {}).get(c, 0) + n for c, n in v.items()}
            elif isinstance(v, list):
                tot[k] = tot.get(k, []) + v
            elif k.endswith("peak_alloc_mb"):
                tot[k] = max(tot.get(k, 0.0), v)
            else:
                tot[k] = tot.get(k, 0) + v
    out = {k: v for k, v in tot.items() if not k.startswith("_")}
    hot = tot["_public_hot_ms"]
    for k, n in tot["_cold_cache" if cold else "_hot_cache"].items():
        out[f"exec.cache.{k}"] = n
    out["exec.dispatch_ms"] = hot - tot["exec.execute_ms.plan"]
    out["core.stms_growth_x"] = tot["ir.stms_after_vjp"] / tot["_stms_pre_ad"]
    out["core.work_ratio_x"] = tot["_work_d"] / tot["_work_p"]
    out["core.mem_ratio_x"] = tot["_mem_d"] / tot["_mem_p"]
    out["obs.trace_overhead_x"] = tot["_traced_hot_ms"] / hot
    out["obs.staged_vs_public_x"] = tot["_staged_cold_ms"] / tot["_public_cold_ms"]
    out["obs.machine_slowdown_x"] = median(tot["_probes_ms"]) / PROBE_REF_MS
    out["baselines.vs_tape_x"] = hot / tot["baselines.tape_ms_p50"]
    # Over the programs that have a hand-written derivative (all but two).
    out["baselines.vs_manual_x"] = tot["_ours_vs_manual_ms"] / tot["baselines.manual_ms_p50"]
    return out
