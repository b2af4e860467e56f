"""The unified observability layer (``repro.obs``).

Covers span nesting/balance (including the exception path), Chrome-trace
export via ``REPRO_TRACE``, the ``REPRO_PROFILE`` timing hook (every
instruction at every depth timed, self times that add up to the measured
call, bitwise parity with the unprofiled plan, nothing installed when off),
the metrics registry's snapshot/delta/reset lifecycle, and the tracing-off
overhead guard.
"""
import json
import sys
import threading
import time

import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.apps import datagen, hand, lstm
from repro.exec import lower_fun
from repro.exec.lower import nested_bodies
from repro.exec.plan import (
    HOT_CALLS,
    Plan,
    PLAN_STATS,
    clear_plan_cache,
    plan_cache_stats,
    reset_plan_cache_stats,
)
from repro.obs import tracing
from test_fuzz_programs import _gen_program


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    """Every test starts with tracing off and no stale REPRO_* knobs."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    tracing.disable()
    yield
    tracing.disable()


def _sum_sq(xs):
    return rp.reduce(lambda a, b: a + b, 0.0, rp.map(lambda v: v * v, xs))


def _balance_check(evs):
    """Per-thread B/E balance with LIFO nesting."""
    stacks = {}
    for ev in evs:
        key = (ev["pid"], ev["tid"])
        if ev["ph"] == "B":
            stacks.setdefault(key, []).append(ev["name"])
        elif ev["ph"] == "E":
            assert stacks.get(key), f"E without B: {ev['name']}"
            assert stacks[key].pop() == ev["name"]
    assert all(not s for s in stacks.values()), f"unclosed spans: {stacks}"


# ---------------------------------------------------------------------------
# Tracing: spans, nesting, export
# ---------------------------------------------------------------------------


def test_span_noop_when_off():
    assert tracing.active() is None
    sp = tracing.span("anything")
    assert sp is tracing.span("other")  # the shared no-op singleton
    with sp:
        pass
    assert tracing.events() == []
    assert tracing.phase_totals() == {}


def test_spans_nest_and_balance():
    tracing.enable()
    with tracing.span("outer", cat="t"):
        with tracing.span("inner", cat="t", k=1):
            pass
        with tracing.span("inner", cat="t", k=2):
            pass
    evs = tracing.events()
    names = [(e["ph"], e["name"]) for e in evs]
    assert names == [
        ("B", "outer"),
        ("B", "inner"),
        ("E", "inner"),
        ("B", "inner"),
        ("E", "inner"),
        ("E", "outer"),
    ]
    _balance_check(evs)
    totals = tracing.phase_totals()
    assert totals["outer"]["count"] == 1
    assert totals["inner"]["count"] == 2
    assert totals["outer"]["seconds"] >= totals["inner"]["seconds"]


def test_spans_close_on_exception():
    tracing.enable()
    with pytest.raises(ValueError):
        with tracing.span("outer"):
            with tracing.span("inner"):
                raise ValueError("boom")
    evs = tracing.events()
    assert [(e["ph"], e["name"]) for e in evs] == [
        ("B", "outer"),
        ("B", "inner"),
        ("E", "inner"),
        ("E", "outer"),
    ]
    _balance_check(evs)


def test_events_repair_open_spans():
    tracing.enable()
    sp = tracing.span("open")
    sp.__enter__()
    evs = tracing.events()  # mid-span export: synthetic E appended
    _balance_check(evs)
    sp.__exit__(None, None, None)


def test_repro_trace_exports_chrome_json(tmp_path, monkeypatch):
    out = tmp_path / "trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(out))
    xs = np.linspace(0.0, 1.0, 32)
    fun = rp.trace_like(_sum_sq, (xs,), name="obs_trace_demo")
    clear_plan_cache()
    fc = rp.compile(fun)
    fc(xs)
    path = tracing.export()
    assert path == str(out)
    payload = json.loads(out.read_text())
    evs = payload["traceEvents"]
    _balance_check(evs)
    names = {e["name"] for e in evs}
    # the full pipeline shows up: API call, lowering, emission, execution
    assert {"call", "lower", "emit", "execute"} <= names
    ex = next(e for e in evs if e["name"] == "execute" and e["ph"] == "B")
    assert ex["args"]["fun"] == "obs_trace_demo"
    # every pass firing says whether it handed back a new program
    begins = [e for e in evs if e["ph"] == "B"]
    firings = [e["args"]["changed"] for e in begins if e["name"].startswith("opt:")]
    assert all(isinstance(c, bool) for c in firings) and any(firings) and not all(firings)
    opts = [e["args"] for e in begins if e["name"] == "optimize"]
    assert opts and all(a["rounds"] >= 1 and isinstance(a["converged"], bool) for a in opts)


def test_tracing_under_the_default_backend():
    xs = np.linspace(-1.0, 1.0, 16)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_env_demo"))
    clear_plan_cache()
    tracing.enable()
    got = fc(xs)
    assert np.allclose(got, np.sum(xs * xs))
    begins = {e["name"]: e["args"] for e in tracing.events() if e["ph"] == "B"}
    assert {"call", "emit", "execute"} <= set(begins)
    assert begins["call"]["backend"] == "plan"
    assert begins["execute"]["fun"] == "obs_env_demo"


def test_collecting_restores_off_state():
    assert tracing.active() is None
    with tracing.collecting():
        assert tracing.active() is not None
        with tracing.span("x"):
            pass
        assert tracing.phase_totals()["x"]["count"] == 1
    assert tracing.active() is None


# ---------------------------------------------------------------------------
# Profiler: a timing hook on every emitted closure
# ---------------------------------------------------------------------------

_CONTAINERS = ("withacc", "loop", "map", "if")


def _walk(body, depth=0):
    """``(instruction, depth)`` over a lowered body, nested bodies included."""
    for ins in body.instrs:
        yield ins, depth
        for b in nested_bodies(ins):
            yield from _walk(b, depth + 1)


def _closures(obj, seen):
    """Every function reachable from ``obj`` through default arguments and
    closure cells: how emitted closures hold their operands, kernels and
    nested bodies."""
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _closures(x, seen)
    elif hasattr(obj, "__code__") and id(obj) not in seen:
        seen.add(id(obj))
        yield obj
        for x in obj.__defaults__ or ():
            yield from _closures(x, seen)
        for cell in obj.__closure__ or ():
            try:
                yield from _closures(cell.cell_contents, seen)
            except ValueError:  # an empty cell
                pass


def _timed(fun, profile):
    """How many closures of ``fun``'s plan are the profiler's wrapper."""
    from repro.obs import profiler

    ins = lower_fun(fun).body.instrs[0]
    wrapper = profiler.timer(fun)(lambda eng: None, ins, 0).__code__
    body = Plan(fun, profile=profile).body
    return sum(f.__code__ is wrapper for f in _closures(body, set()))


def _nested(xs):
    """A map over a lane-divergent ``if`` with a loop in one branch, and a
    generic fold."""
    def row(x):
        return rp.cond(x > 0.0, lambda: rp.fori_loop(3, lambda i, a: a * 0.5 + x, x),
                       lambda: x - 1.0)

    return rp.sum(rp.map(row, xs)) + rp.reduce(lambda a, b: a * b + a, 0.5, xs)


def _nested_funs():
    xs = np.array([0.5, -1.0, 2.0, -0.25])
    fc = rp.compile(rp.trace_like(_nested, (xs,), name="obs_nested"))
    return fc, rp.grad(fc), xs


def test_profile_wraps_every_instruction_at_every_depth():
    """Structural, timing-free: with the knob on, one wrapper per plan-IR
    instruction at every depth (contract fallbacks included); off, none."""
    fc, g, _ = _nested_funs()
    lg, _ = _lstm_grad_case(2, 3, 4, 4)
    for fun in (fc.fun, g.adfun.fun, lg.adfun.fun):
        instrs = list(_walk(lower_fun(fun).body))
        assert max(d for _, d in instrs) >= 2, fun.name
        assert _timed(fun, profile=True) == len(instrs), fun.name
        assert _timed(fun, profile=False) == 0, fun.name


def test_profile_rows_at_every_depth(monkeypatch):
    """Every instruction the calls execute has a row at its own depth, and a
    nested row counts its body's runs: three per loop trip."""
    from repro.obs import profiler

    fc, g, xs = _nested_funs()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    profiler.reset_profile()
    fc(xs)
    g(xs)
    rows = profiler.profile_report(top_k=10**6)["entries"]
    for fun in (fc.fun, g.adfun.fun):
        want = sorted((d, ins.kind) for ins, d in _walk(lower_fun(fun).body))
        assert sorted((e["depth"], e["kind"]) for e in rows if e["fun"] == fun.name) == want
    mine = [e for e in rows if e["fun"] == fc.fun.name]
    (loop,) = [e for e in mine if e["kind"] == "loop"]
    assert {e["calls"] for e in mine if e["depth"] == loop["depth"] + 1} == {3 * loop["calls"]}
    assert sorted(e["strategy"] for e in mine if e["kind"] == "reduce") == ["generic", "redomap"]
    assert all(e["strategy"] is None for e in rows if e["kind"] not in ("reduce", "scan", "hist"))
    for e in rows:
        assert 0.0 <= e["self_s"] <= e["cum_s"] and e["share"] >= 0.0


def test_plan_for_takes_no_emitter(monkeypatch):
    """One emitter: ``plan_for(..., emitter=...)`` is a ``TypeError`` whatever
    the name (``"profile"`` included), and ``REPRO_PROFILE`` picks a timed or
    a plain plan of the one class, cached apart."""
    from repro.exec.plan import Plan, plan_for

    fc, _g, xs = _nested_funs()
    for name in ("profile", "plan", "codegen"):
        with pytest.raises(TypeError, match="emitter"):
            plan_for(fc.fun, (xs,), emitter=name)
    clear_plan_cache()
    monkeypatch.delenv("REPRO_PROFILE", raising=False)
    plain = plan_for(fc.fun, (xs,))
    monkeypatch.setenv("REPRO_PROFILE", "1")
    timed = plan_for(fc.fun, (xs,))
    assert type(plain) is type(timed) is Plan and timed.profile and not plain.profile
    assert plan_cache_stats()["entries"] == 2


@pytest.mark.parametrize("app", ["gmm", "lstm", "kmeans"])
def test_timing_reaches_the_same_kernels_the_same_number_of_times(app, monkeypatch):
    """One cached derivative call makes the same ``exec/vector.py`` calls,
    function by function, on a plain and on a timed plan: the timer wraps
    the closures, it does not change which kernels run."""
    from helpers import vector_call_census
    from repro.obs import profiler
    from test_mem_plan import _app

    inp, fc, call = _app(app)
    census, timed = {}, {}
    for profile in ("", "1"):
        monkeypatch.setenv("REPRO_PROFILE", profile)
        call(fc, inp, "plan")  # compile; the counted call below is cached
        before = profiler.profile_summary()["calls"]
        census[profile] = vector_call_census(lambda: call(fc, inp, "plan"))
        timed[profile] = profiler.profile_summary()["calls"] > before
    assert timed == {"": False, "1": True}
    assert census[""] == census["1"]
    assert {"_batch_args", "_elem_into", "_map_result"} <= set(census[""])


def _lstm_grad_case(bs, n, d, h):
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(bs, n, d, h, 0)
    g = rp.grad(rp.compile(lstm.build_ir(n, bs, d, h)), wrt=[1, 2, 3, 4])
    return g, lambda: g(xs, wx, wh, b, wy, tg)


def _hand_jac_case(n_bones, n_verts):
    inp = datagen.hand_instance(n_bones, n_verts, 0)
    fwd = rp.jvp(rp.compile(hand.build_ir(n_bones, n_verts)))
    return fwd, lambda: (hand.jacobian_fwd_ad(fwd, *inp),)


@pytest.mark.parametrize("case", ["lstm_grad", "hand_jac_fwd"])
def test_profile_self_times_add_up_at_bench_size(case, monkeypatch):
    """The bench workloads' sizes: Σ self is within 10 % of the measured
    calls, no container row holds over 30 % of it, and the results are
    bitwise the unprofiled ones."""
    from repro.obs import profiler

    _, call = {"lstm_grad": lambda: _lstm_grad_case(16, 12, 10, 16),
               "hand_jac_fwd": lambda: _hand_jac_case(12, 256)}[case]()
    want = call()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    for _ in range(HOT_CALLS):  # the timed plan's loops build before the measured window
        got = call()
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
    profiler.reset_profile()
    t0 = time.perf_counter()
    for _ in range(5):
        call()
    wall = time.perf_counter() - t0
    rep = profiler.profile_report(top_k=10**6)
    assert 0.9 * wall <= rep["total_s"] <= wall
    assert any(e["depth"] >= 2 for e in rep["entries"])
    worst = max((e for e in rep["entries"] if e["kind"] in _CONTAINERS), key=lambda e: e["share"])
    assert worst["share"] <= 0.3, worst


def test_profile_bitwise_identical_on_fuzz_corpus(monkeypatch):
    from repro.obs import profiler

    profiler.reset_profile()
    for seed in (0, 1, 7, 23, 101, 4096):
        xs = np.random.default_rng(seed).standard_normal(7) * 0.8
        fun = rp.trace_like(_gen_program(seed), (xs,), name=f"fuzz{seed}")
        fc = rp.compile(fun)
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        ref = fc(xs)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        got = fc(xs)
        assert np.array_equal(np.asarray(ref), np.asarray(got)), seed
    summary = profiler.profile_summary()
    assert summary["calls"] > 0 and summary["seconds"] >= 0.0


def test_profile_report_gmm_gradient(monkeypatch):
    from repro.apps import datagen, gmm
    from repro.obs import profiler

    monkeypatch.setenv("REPRO_PROFILE", "1")
    n, d, K = 256, 8, 8
    args = datagen.gmm_instance(n, d, K)[:4]
    fc = rp.compile(gmm.build_ir(n, d, K))
    g = rp.grad(fc, wrt=[0, 1, 2])
    for _ in range(HOT_CALLS):  # emit the plan and build its loops outside the measured window
        g(*args)
    profiler.reset_profile()
    tracing.enable()
    for _ in range(3):
        g(*args)
    rep = profiler.profile_report(top_k=10)
    assert rep["entries"], "no instructions attributed"
    # >=90% of execute-span time lands on named plan instructions
    assert rep["coverage"] is not None and rep["coverage"] >= 0.9
    for e in rep["entries"]:
        assert e["label"] and e["kind"]
        assert e["measured_rank"] >= 1
        assert {"self_s", "cum_s", "share", "calls", "depth", "strategy", "index"} <= set(e)
        assert not {"seconds", "est_work", "est_rank", "mispredicted", "schedule"} & set(e)
        # the size of each instruction's memory plan rides along
        assert set(e["mem"]) == {"released_slots", "run_local_releases", "donating_ops"}
    assert sum(e["mem"]["released_slots"] for e in rep["entries"]) > 0
    # the top rows are nested: the GMM gradient's work is in its map bodies
    assert any(e["depth"] >= 1 for e in rep["entries"])
    txt = profiler.format_profile_report(rep)
    assert "est work" not in txt and "est#" not in txt
    assert "%" in txt and "self_s" in txt and "rel/loc/don" in txt and "view/gather" in txt


def test_write_profile_json(tmp_path, monkeypatch):
    from repro.obs import profiler

    xs = np.linspace(0.0, 1.0, 16)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_wp_demo"))
    monkeypatch.setenv("REPRO_PROFILE", "1")
    fc(xs)
    out = tmp_path / "profile.json"
    path = profiler.write_profile(str(out))
    rep = json.loads(out.read_text())
    assert path == str(out)
    assert rep["total_s"] >= 0.0 and rep["entries"]
    assert all("self_s" in e and "depth" in e for e in rep["entries"])


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_metrics_snapshot_delta_roundtrip():
    xs = np.linspace(0.0, 1.0, 8)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_delta_demo"))
    fc(xs, backend="ref")
    before = obs.snapshot()
    fc(xs, backend="ref")
    after = obs.snapshot()
    d = obs.delta(before, after)
    assert d["backend_calls"]["ref"] == 1
    # round-trip: applying the delta to `before` reproduces `after`
    for k, v in after["backend_calls"].items():
        assert before["backend_calls"].get(k, 0) + d["backend_calls"][k] == v
    # spans are the one timer; the labelled counters and gauges are gone too
    assert not {"timers", "counters", "gauges"} & set(after)


def test_snapshot_covers_all_stats_surfaces():
    snap = obs.snapshot()
    for section in ("plan_cache", "fusion", "opt", "backend_calls"):
        assert section in snap, section
    assert "shard" not in snap
    assert snap["plan_cache"].keys() >= {"hits", "misses"}
    assert "passes" in snap["opt"] and "cache" in snap["opt"]


def test_mem_section_counts_the_memory_plan():
    from repro.exec.lower import lower_fun

    xs = np.linspace(0.0, 1.0, 8)
    fc = rp.compile(rp.trace_like(
        lambda v: rp.sum(rp.map(lambda x: rp.sin(x * x + 1.0) * x, v)), (xs,),
        name="obs_mem_demo"))
    reset_plan_cache_stats()
    clear_plan_cache()
    fc(xs, backend="plan")
    mem = plan_cache_stats()["mem"]
    # static sizes, fixed when the plan was emitted: exactly the lowering's
    assert {k: mem[k] for k in lower_fun(fc.fun).mem} == lower_fun(fc.fun).mem
    assert mem["released_slots"] > 0 and mem["run_local_releases"] > 0
    assert mem["donating_ops"] > 0 and mem["donation_fallbacks"] == 0
    fc(xs, backend="plan")  # a cached call emits nothing: the sizes stand still
    assert plan_cache_stats()["mem"] == mem
    assert obs.snapshot()["plan_cache"]["mem"] == mem
    reset_plan_cache_stats()
    assert set(plan_cache_stats()["mem"].values()) == {0}


def test_donation_fallbacks_count_refused_large_buffers(monkeypatch):
    from repro.exec import vector
    from repro.exec.vector import _elem_into

    monkeypatch.setattr(vector, "_DONATE_MIN_BYTES", 64)
    reset_plan_cache_stats()
    a, b = np.arange(16.0), np.arange(16.0)
    out = _elem_into(np.add, (0,), 0, [a, b])
    assert out.data is a and plan_cache_stats()["mem"]["donation_fallbacks"] == 0
    # a donor the result does not fit into, one of another dtype, a strided
    # one: each allocates, leaves the donor alone and is counted ...
    row = np.arange(16.0).reshape(1, 16)
    cases = [
        (row, np.ones((2, 16))), (np.arange(16.0), np.arange(16)),
        (np.arange(32.0)[::2], np.arange(16.0)), (np.arange(16), np.arange(16)),
    ]
    for n, (x, y) in enumerate(cases, start=1):
        keep = x.copy()
        got = _elem_into(np.add, (0,), 0, [x, y])
        assert got.data is not x and np.array_equal(x, keep)
        np.testing.assert_array_equal(got.data, x + y)
        assert plan_cache_stats()["mem"]["donation_fallbacks"] == n
    # ... a buffer below the size floor is not worth an attempt, so not a refusal
    small = np.arange(4.0)
    assert _elem_into(np.add, (0,), 0, [small, small]).data is not small
    assert plan_cache_stats()["mem"]["donation_fallbacks"] == len(cases)


def test_run_time_counters_lose_no_increment_across_threads():
    """The run-time ``mem`` / ``index`` counters are bumped from users' own
    threads: more threads than cores, a short switch interval, every
    increment lands."""
    from repro.exec import vector

    reset_plan_cache_stats()
    nthreads, niter = 6, 10000
    start = threading.Barrier(nthreads)

    def work():
        start.wait(timeout=30)
        for _ in range(niter):
            vector._view_fell_back()
            vector.MEM_STATS.add("donation_fallbacks")

    threads = [threading.Thread(target=work) for _ in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    st = plan_cache_stats()
    assert st["index"]["view_fallbacks"] == st["mem"]["donation_fallbacks"] == nthreads * niter
    reset_plan_cache_stats()


def test_reset_plan_cache_stats_keeps_plans():
    xs = np.linspace(0.0, 1.0, 8)
    fc = rp.compile(rp.trace_like(_sum_sq, (xs,), name="obs_reset_demo"))
    fc(xs)
    fc(xs)
    assert plan_cache_stats()["entries"] >= 1
    assert PLAN_STATS["hits"] + PLAN_STATS["misses"] > 0
    reset_plan_cache_stats()
    st = plan_cache_stats()
    assert st["hits"] == st["misses"] == 0
    assert st["entries"] >= 1  # counters cleared, cached plans kept


def _numeric_leaves(d, path=""):
    for k, v in d.items():
        if isinstance(v, dict):
            yield from _numeric_leaves(v, f"{path}{k}.")
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield f"{path}{k}", v


def test_reset_all_zeroes_every_surface(monkeypatch):
    """A program that bumps the ``mem``, ``index``, ``verify``, ``fusion``,
    ``fission`` and ``backend_calls`` counters; the plan cache's ``mem`` /
    ``index`` are the snapshot's copies; ``reset_all`` zeroes every numeric
    leaf but the cache's size (it keeps the plans) and drops the spans."""

    def f(xs, ys):
        a, b = rp.reduce(lambda a, da, b, db: (a + b, da + db), (0.0, 0.0),
                         rp.map(lambda x: x * x, xs), ys)
        return a * b + rp.sum(rp.map(lambda i: xs[i], rp.iota(3)))

    monkeypatch.setenv("REPRO_VERIFY", "boundary")
    xs, ys = np.linspace(0.0, 1.0, 8), np.linspace(1.0, 2.0, 8)
    obs.reset_all()
    fc = rp.compile(rp.trace_like(f, (xs, ys), name="obs_resetall_demo"))
    fc(xs, ys, backend="plan")
    tracing.enable()
    with tracing.span("x"):
        pass
    snap = obs.snapshot()
    bumped = {
        "mem": snap["plan_cache"]["mem"]["released_slots"],
        "index": snap["plan_cache"]["index"]["view_index_ops"],
        "verify": snap["verify"]["fun_checks"],
        "fusion": snap["fusion"]["vertical"],
        "fission": snap["fission"]["split"],
        "backend_calls": snap["backend_calls"]["plan"],
    }
    assert all(bumped.values()), bumped
    for k in ("mem", "index"):
        assert plan_cache_stats()[k] == snap["plan_cache"][k]
    obs.reset_all()
    left = [p for p, v in _numeric_leaves(obs.snapshot()) if v]
    assert left == ["plan_cache.entries"], left
    assert tracing.phase_totals() == {}


# ---------------------------------------------------------------------------
# Overhead guard: tracing off must stay <2% on a hot scalar loop
# ---------------------------------------------------------------------------


def test_tracing_off_overhead_under_two_percent():
    assert tracing.active() is None

    def loop(x):
        return rp.fori_loop(64, lambda i, a: a * 0.999 + x, x)

    fc = rp.compile(rp.trace_like(loop, (0.5,), name="obs_overhead_demo"))
    fc(0.5, backend="plan")  # warm the plan cache

    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        fc(0.5, backend="plan")
    per_call = (time.perf_counter() - t0) / reps

    # Cost of the instrumentation when off: one span() no-op resolution
    # (plus the kwargs dict) per instrumented site.  A plan-backend call
    # crosses two sites (api call + execute).
    n = 20000
    t0 = time.perf_counter()
    for _ in range(n):
        with tracing.span("x", cat="exec", fun="f", emitter="plan"):
            pass
    per_span = (time.perf_counter() - t0) / n

    sites_per_call = 2
    overhead = per_span * sites_per_call
    assert overhead < 0.02 * per_call, (
        f"tracing-off overhead {overhead * 1e6:.2f}us/call vs "
        f"call time {per_call * 1e6:.2f}us"
    )
