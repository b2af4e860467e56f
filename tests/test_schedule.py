"""Schedule IR: directive parsing/formatting, legality, strict and lenient
application, bitwise backend parity for every legal schedule (property-based
over the fuzz corpus), explicit-directive consumption by ``parallel_split``,
the loop ``sequential(f)·sequential`` strip-mine sugar, bounded process-pool
degradation, codegen shipping to process workers, and schedule strings in
the profiler report."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as rp
from repro.exec.plan import plan_for
from repro.exec.shard import (
    reset_shard_stats,
    shard_stats,
    shutdown_shard_pool,
)
from repro.frontend.function import Compiled
from repro.ir.analysis import parallel_split
from repro.ir.ast import Loop, Map, Reduce
from repro.ir.schedule import (
    Parallel,
    SCHEDULABLE,
    ScheduleError,
    Sequential,
    Vectorized,
    apply_schedule,
    check_schedule,
    default_schedule,
    format_schedule,
    parse_schedule,
)

from test_fuzz_programs import _gen_program


def _trace(prog, *args):
    return rp.trace_like(prog, args)


def _map_prog(xs):
    return rp.map(lambda x: rp.sin(x) * x + rp.exp(-x), xs)


def _reduce_prog(xs):
    return rp.sum(rp.map(lambda x: rp.sin(x) * x + rp.exp(-x), xs))


# ---------------------------------------------------------------------------
# Parsing / formatting
# ---------------------------------------------------------------------------


def test_parse_format_round_trip():
    for text, sched in [
        ("vectorized", (Vectorized(),)),
        ("parallel", (Parallel(),)),
        ("parallel(2)", (Parallel(2),)),
        ("sequential", (Sequential(),)),
        ("sequential(64)", (Sequential(64),)),
        ("parallel(2)·vectorized", (Parallel(2), Vectorized())),
        ("sequential(4)·sequential", (Sequential(4), Sequential())),
    ]:
        assert parse_schedule(text) == sched
        assert format_schedule(sched) == text
        # the round trip is stable
        assert parse_schedule(format_schedule(sched)) == sched


def test_parse_accepts_ascii_separators():
    assert parse_schedule("parallel(2) vectorized") == (Parallel(2), Vectorized())
    assert parse_schedule("sequential(4);sequential") == (
        Sequential(4),
        Sequential(),
    )


def test_parse_rejects_junk_and_vectorized_arg():
    with pytest.raises(ScheduleError, match="unrolled"):
        parse_schedule("unrolled(4)")
    with pytest.raises(ScheduleError, match="vectorized"):
        parse_schedule("vectorized(3)")
    assert parse_schedule("") == ()


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def test_structural_legality_names_the_directive():
    xs = np.ones(8)
    fun = rp.compile(_trace(_map_prog, xs)).fun
    m = next(s.exp for s in fun.body.stms if isinstance(s.exp, Map))
    # two parallels
    r = check_schedule(m, (Parallel(2), Parallel(2)))
    assert r is not None and "parallel" in r
    # parallel not outermost
    r = check_schedule(m, (Vectorized(), Parallel(2)))
    assert r is not None and "parallel" in r
    # vectorized not innermost
    r = check_schedule(m, (Vectorized(), Sequential()))
    assert r is not None and "vectorized" in r
    # legal ones pass
    assert check_schedule(m, (Vectorized(),)) is None
    assert check_schedule(m, (Sequential(8), Vectorized())) is None
    assert check_schedule(m, (Parallel(2), Vectorized())) is None


def test_loop_only_takes_sequential():
    fun = _trace(lambda x: rp.fori_loop(10, lambda i, a: a * 0.5 + x, x), 1.0)
    fc = Compiled(fun)
    lp = next(s.exp for s in fc.fun.body.stms if isinstance(s.exp, Loop))
    r = check_schedule(lp, (Parallel(2),))
    assert r is not None and "parallel" in r
    r = check_schedule(lp, (Vectorized(),))
    assert r is not None and "vectorized" in r
    assert check_schedule(lp, (Sequential(),)) is None
    assert check_schedule(lp, (Sequential(4), Sequential())) is None


def test_reduce_rejects_chunked_sequential():
    xs = np.ones(8)
    fun = rp.compile(_trace(_reduce_prog, xs)).fun
    red = next(s.exp for s in fun.body.stms if isinstance(s.exp, Reduce))
    r = check_schedule(red, (Sequential(8), Vectorized()))
    assert r is not None and "sequential(8)" in r
    assert check_schedule(red, (Sequential(),)) is None


def test_illegal_schedule_raises_loudly_at_compile():
    fun = _trace(lambda x: rp.fori_loop(10, lambda i, a: a * 0.5 + x, x), 1.0)
    with pytest.raises(ScheduleError, match="parallel"):
        rp.compile(fun, schedule="parallel(2)")


# ---------------------------------------------------------------------------
# Bitwise parity: every legal schedule is the default program
# ---------------------------------------------------------------------------

_SCHEDULES = [
    (Sequential(),),
    (Sequential(3),),
    (Sequential(7), Vectorized()),
    (Vectorized(),),
    (Parallel(2), Vectorized()),
    (Parallel(), Sequential(5), Vectorized()),
]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(1, 9),
    dseed=st.integers(0, 10**6),
    si=st.integers(0, len(_SCHEDULES) - 1),
)
def test_fuzz_legal_schedules_bitwise_equal_default(seed, n, dseed, si):
    """Any legal schedule annotation leaves every backend's result bitwise
    identical to the default schedule (schedules choose *how*, never
    *what*)."""
    prog = _gen_program(seed)
    xs = np.random.default_rng(dseed).standard_normal(n) * 0.8
    base = rp.compile(rp.trace_like(prog, (xs,)))
    # lenient: annotate wherever legal; identity when nowhere legal
    forced = Compiled(
        apply_schedule(base.fun, _SCHEDULES[si], strict=False), optimize=False
    )
    for be in ("ref", "plan", "codegen"):
        np.testing.assert_array_equal(
            np.asarray(base(xs, backend=be)),
            np.asarray(forced(xs, backend=be)),
            err_msg=f"schedule {format_schedule(_SCHEDULES[si])} on {be}",
        )


def test_shard_worker_count_invariance_under_parallel_schedule(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_MODE", "thread")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    xs = np.random.default_rng(7).standard_normal(64)
    fun = _trace(_reduce_prog, xs)
    fc = rp.compile(fun, schedule="parallel·vectorized")
    try:
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "1")
        r1 = np.asarray(fc(xs, backend="shard"))
        shutdown_shard_pool()
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "3")
        r3 = np.asarray(fc(xs, backend="shard"))
        np.testing.assert_array_equal(r1, r3)
        np.testing.assert_array_equal(r3, np.asarray(fc(xs, backend="plan")))
    finally:
        shutdown_shard_pool()


# ---------------------------------------------------------------------------
# Explicit-directive consumption and the loop sugar
# ---------------------------------------------------------------------------


def test_parallel_split_consumes_explicit_directive():
    xs = np.ones(32)
    fc = rp.compile(_trace(_reduce_prog, xs), schedule="parallel(3)·vectorized")
    split = parallel_split(fc.fun)
    assert split is not None
    assert split.workers == 3
    assert "parallel" in split.schedule_str
    # the Parallel directive is realised by the split, not re-lowered
    chunk_stm = split.chunk_fun.body.stms[0].exp
    assert not any(isinstance(d, Parallel) for d in chunk_stm.schedule)


def test_loop_sequential_sugar_sets_stripmine():
    fun = _trace(lambda x: rp.fori_loop(12, lambda i, a: a * 0.9 + x, x), 1.0)
    fc = rp.compile(fun, schedule="sequential(4)·sequential")
    loops = [s.exp for s in fc.fun.body.stms if isinstance(s.exp, Loop)]
    assert loops and loops[0].stripmine == 4
    r0 = rp.compile(fun)(1.0, backend="plan")
    r1 = fc(1.0, backend="plan")
    np.testing.assert_allclose(np.asarray(r0), np.asarray(r1))


def test_env_schedule_applies_leniently(monkeypatch):
    xs = np.linspace(0.0, 2.0, 23)
    fun = _trace(_map_prog, xs)
    base = rp.compile(fun)
    monkeypatch.setenv("REPRO_SCHEDULE", "sequential(8)")
    forced = rp.compile(fun)
    stms = [s.exp for s in forced.fun.body.stms if isinstance(s.exp, SCHEDULABLE)]
    assert any(e.schedule == (Sequential(8),) for e in stms)
    for be in ("plan", "codegen"):
        np.testing.assert_array_equal(
            np.asarray(base(xs, backend=be)), np.asarray(forced(xs, backend=be))
        )


def test_default_schedule_shapes():
    xs = np.ones(8)
    fun = rp.compile(_trace(_map_prog, xs)).fun
    m = next(s.exp for s in fun.body.stms if isinstance(s.exp, Map))
    assert default_schedule(m) == (Vectorized(),)
    lfun = Compiled(
        _trace(lambda x: rp.fori_loop(10, lambda i, a: a * 0.5 + x, x), 1.0)
    ).fun
    lp = next(s.exp for s in lfun.body.stms if isinstance(s.exp, Loop))
    assert default_schedule(lp) == (Sequential(),)


# ---------------------------------------------------------------------------
# Process mode: bounded degradation + codegen shipping
# ---------------------------------------------------------------------------


def test_process_degradation_is_bounded_and_resettable(monkeypatch):
    from concurrent.futures import BrokenExecutor

    from repro.exec import shard

    monkeypatch.setenv("REPRO_SHARD_MODE", "process")
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_RETRY_AFTER", "2")

    def boom(*a, **k):
        raise BrokenExecutor("injected pool failure")

    monkeypatch.setattr(shard, "_dispatch_process", boom)
    xs = np.random.default_rng(3).standard_normal(48)
    fc = rp.compile(_trace(_reduce_prog, xs))
    want = np.asarray(fc(xs, backend="plan"))
    reset_shard_stats()
    try:
        for _ in range(6):
            np.testing.assert_array_equal(
                np.asarray(fc(xs, backend="shard")), want
            )
        st = shard_stats()
        # call 1 probes and fails; after 2 degraded calls the pool is
        # re-probed (fails again, doubling the backoff), then degraded again
        assert st["pool_errors"] >= 2
        assert st["process_retries"] >= 1
        assert st["process_degraded_calls"] >= 2
        assert st["process_degraded"] is True
        shard.reset_shard_degradation()
        assert shard_stats()["process_degraded"] is False
    finally:
        reset_shard_stats()
        shutdown_shard_pool()


def test_process_mode_ships_codegen_source(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_MODE", "process")
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    monkeypatch.setenv("REPRO_SHARD_SHM_MIN", "0")
    reset_shard_stats()
    try:
        xs = np.random.default_rng(5).standard_normal(64)
        fc = rp.compile(_trace(_map_prog, xs))
        np.testing.assert_array_equal(
            fc(xs, backend="shard"), fc(xs, backend="plan")
        )
        st = shard_stats()
        if st["pool_errors"]:
            pytest.skip("process pool unavailable in this environment")
        assert st["sharded_calls"] == 1 and st["chunks"] >= 2
        # repeat call: worker-side plan cache hit, still bitwise
        np.testing.assert_array_equal(
            fc(xs, backend="shard"), fc(xs, backend="plan")
        )
    finally:
        shutdown_shard_pool()


def test_codegen_payload_round_trip():
    import pickle

    from repro.exec.codegen import ShippedCodegenPlan, codegen_payload

    xs = np.linspace(0.0, 1.0, 17)
    fc = rp.compile(_trace(_reduce_prog, xs))
    payload = codegen_payload(fc.fun)
    # memoised by identity
    assert codegen_payload(fc.fun) is payload
    shipped = ShippedCodegenPlan(pickle.loads(pickle.dumps(payload)))
    want = plan_for(fc.fun, (xs,), None, emitter="codegen").run((xs,))
    got = shipped.run((xs,))
    assert len(want) == len(got)
    for a, b in zip(want, got):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_profile_report_carries_schedule():
    from repro.obs.profiler import profile_report, reset_profile

    xs = np.linspace(0.0, 2.0, 29)
    fc = rp.compile(_trace(_map_prog, xs), schedule="sequential(8)·vectorized")
    reset_profile()
    plan_for(fc.fun, (xs,), None, emitter="profile").run((xs,))
    rep = profile_report()
    scheds = [e["schedule"] for e in rep["entries"] if e["schedule"]]
    assert any("sequential(8)" in s for s in scheds)


def test_shard_chunk_spans_carry_schedule(monkeypatch):
    from repro.obs import tracing

    monkeypatch.setenv("REPRO_SHARD_MODE", "thread")
    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "4")
    xs = np.random.default_rng(11).standard_normal(32)
    fc = rp.compile(_trace(_reduce_prog, xs), schedule="parallel(2)·vectorized")
    try:
        with tracing.collecting():
            fc(xs, backend="shard")
            chunks = [
                ev
                for ev in tracing.events()
                if ev["ph"] == "B" and ev["name"] == "shard:chunk"
            ]
        assert chunks
        assert all(
            "parallel" in (ev["args"].get("schedule") or "") for ev in chunks
        )
    finally:
        shutdown_shard_pool()
