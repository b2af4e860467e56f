"""Schedule IR: directive parsing/formatting, legality, the one application
rule under its strict and lenient failure policy, bitwise backend parity for
every legal schedule (property-based over the fuzz corpus), the chunk grid of
a ``sequential(c)`` map (property-based over extent and chunk size), the loop
``sequential(f)·sequential`` strip-mine sugar, and schedule strings in
execute spans and the profiler report."""
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro as rp
from repro.exec.plan import plan_for
from repro.frontend.function import Compiled
from repro.ir.ast import Loop, Map, Reduce
from repro.ir.schedule import (
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
        ("sequential", (Sequential(),)),
        ("sequential(64)", (Sequential(64),)),
        ("sequential(8)·vectorized", (Sequential(8), Vectorized())),
        ("sequential(4)·sequential", (Sequential(4), Sequential())),
    ]:
        assert parse_schedule(text) == sched
        assert format_schedule(sched) == text
        # the round trip is stable
        assert parse_schedule(format_schedule(sched)) == sched


def test_parse_accepts_ascii_separators():
    assert parse_schedule("sequential(8) vectorized") == (Sequential(8), Vectorized())
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


def test_parallel_directive_no_longer_parses(monkeypatch):
    """``parallel`` left the grammar: the string form fails everywhere it can
    arrive (``parse_schedule``, ``schedule=``, ``REPRO_SCHEDULE``), naming the
    token and what is still accepted."""
    fun = _trace(_map_prog, np.ones(8))
    want = r"'parallel\(2\)'.*vectorized \| sequential\[\(c\)\]"
    with pytest.raises(ScheduleError, match=want):
        parse_schedule("parallel(2)·vectorized")
    with pytest.raises(ScheduleError, match=want):
        rp.compile(fun, schedule="parallel(2)")
    monkeypatch.setenv("REPRO_SCHEDULE", "parallel(2)")
    with pytest.raises(ScheduleError, match=want):
        rp.compile(fun)


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def test_structural_legality_names_the_directive():
    xs = np.ones(8)
    fun = rp.compile(_trace(_map_prog, xs)).fun
    m = next(s.exp for s in fun.body.stms if isinstance(s.exp, Map))
    # two vectorized
    r = check_schedule(m, (Vectorized(), Vectorized()))
    assert r is not None and "vectorized" in r
    # vectorized not innermost
    r = check_schedule(m, (Vectorized(), Sequential()))
    assert r is not None and "vectorized" in r
    # legal ones pass
    assert check_schedule(m, (Vectorized(),)) is None
    assert check_schedule(m, (Sequential(8), Vectorized())) is None


def test_loop_only_takes_sequential():
    fun = _trace(lambda x: rp.fori_loop(10, lambda i, a: a * 0.5 + x, x), 1.0)
    fc = Compiled(fun)
    lp = next(s.exp for s in fc.fun.body.stms if isinstance(s.exp, Loop))
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
    with pytest.raises(ScheduleError, match="vectorized: loop iterations"):
        rp.compile(fun, schedule="vectorized")


# ---------------------------------------------------------------------------
# One application rule: every statement that takes the schedule gets it
# ---------------------------------------------------------------------------


def _map_reduce_map_prog(xs):
    ys = rp.map(lambda x: rp.sin(x) * x + rp.exp(-x), xs)
    s = rp.sum(ys)
    return rp.map(lambda y: y * s, ys)


def _tuple(r):
    return r if isinstance(r, tuple) else (r,)


@pytest.mark.parametrize("derive", [lambda f, **kw: rp.compile(f.fun, **kw), rp.vjp, rp.jvp],
                         ids=["value", "vjp", "jvp"])
def test_schedule_lands_on_the_maps_and_leaves_the_reduce_alone(derive):
    """``schedule=`` chunks the maps of a program that also holds a reduce,
    which refuses every chunked directive and keeps its default; the result
    is bitwise the unscheduled program's on every backend."""
    sched = (Sequential(4), Vectorized())
    xs = np.linspace(0.1, 2.0, 11)
    fc = rp.compile(_trace(_map_reduce_map_prog, xs))
    base, forced = derive(fc), derive(fc, schedule="sequential(4)·vectorized")
    by_kind = {Map: set(), Reduce: set()}
    for stm in forced.fun.body.stms:
        if isinstance(stm.exp, (Map, Reduce)):
            by_kind[type(stm.exp)].add(stm.exp.schedule)
    assert by_kind == {Map: {sched}, Reduce: {()}}
    rng = np.random.default_rng(3)
    args = (xs,) + tuple(rng.standard_normal(11) for _ in forced.fun.params[1:])
    for be in ("ref", "plan", "codegen"):
        for got, want in zip(_tuple(forced(*args, backend=be)), _tuple(base(*args, backend=be))):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), be


def test_gmm_gradient_takes_a_chunked_schedule():
    """Five of the GMM gradient's six schedulable statements are reduces;
    the schedule lands on its map instead of raising for the reduces."""
    from repro.apps import datagen, gmm

    n, d, K = 64, 4, 3
    args = datagen.gmm_instance(n, d, K)[:4]
    fc = rp.compile(gmm.build_ir(n, d, K))
    base = rp.grad(fc, wrt=[0, 1, 2])
    forced = rp.grad(fc, wrt=[0, 1, 2], schedule="sequential(8)·vectorized")
    assert any(getattr(s.exp, "schedule", ()) for s in forced.adfun.fun.body.stms)
    for got, want in zip(forced(*args), base(*args)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_schedule_legal_nowhere_raises_with_each_statements_reason(monkeypatch):
    """The k-means gradient's only schedulable statement is a reduce:
    ``schedule=`` raises carrying that statement's refusal, ``REPRO_SCHEDULE``
    runs the program as it is."""
    from repro.apps import kmeans

    fc = rp.compile(kmeans.build_ir(23, 5, 7))
    with pytest.raises(ScheduleError, match=r"reduce \w+: sequential\(8\): chunked sequential "
                                            r"reduction is not implemented"):
        rp.grad(fc, wrt=[1], schedule="sequential(8)·vectorized")
    monkeypatch.setenv("REPRO_SCHEDULE", "sequential(8)·vectorized")
    lenient = rp.grad(fc, wrt=[1]).adfun.fun
    assert not any(getattr(s.exp, "schedule", ()) for s in lenient.body.stms)


@pytest.mark.parametrize("n", [0, 1, 3, 17])
def test_chunked_map_degenerate_extents(n):
    """Extents around the chunk size (0, 1, one ragged chunk pair, many
    chunks) on the chunked ``sequential(2)`` map.  ``reduce`` has no chunked
    form (``check_schedule`` refuses it), so only the map cases exist."""
    xs = np.arange(float(n)) + 2.0
    fun = rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(4),))
    base = rp.compile(fun)
    chunked = rp.compile(fun, schedule="sequential(2)·vectorized")
    for be in ("plan", "codegen"):
        got = np.asarray(chunked(xs, backend=be))
        np.testing.assert_array_equal(got, np.asarray(base(xs, backend=be)))
        np.testing.assert_array_equal(got, np.asarray(base(xs, backend="ref")))


# ---------------------------------------------------------------------------
# Bitwise parity: every legal schedule is the default program
# ---------------------------------------------------------------------------

_SCHEDULES = [
    (Sequential(),),
    (Sequential(3),),
    (Sequential(7), Vectorized()),
    (Vectorized(),),
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


# ---------------------------------------------------------------------------
# The chunk grid of ``sequential(c)`` on a map
# ---------------------------------------------------------------------------


def _grid_prog(a):
    # lane i of the map returns i itself: the result *is* the grid
    return rp.map(lambda i: i + 0 * rp.size(a), rp.iota(rp.size(a)))


def _chunk_prog(a):
    return rp.map(lambda i: rp.sin(a[i]) * a[i] + rp.exp(-a[i]), rp.iota(rp.size(a)))


def _forced(c, sched):
    fun = apply_schedule(c.fun, sched, strict=False)
    assert any(getattr(s.exp, "schedule", ()) == sched for s in fun.body.stms)
    return Compiled(fun, optimize=False)


@functools.lru_cache(maxsize=None)
def _chunk_programs():
    grid = rp.compile(rp.trace_like(_grid_prog, (np.ones(4),)))
    chunk = rp.compile(rp.trace_like(_chunk_prog, (np.ones(4),)))
    return grid, (chunk, rp.vjp(chunk), rp.jvp(chunk))


# the fixture only removes a variable, which every example wants removed
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(0, 13), c=st.integers(1, 16), dseed=st.integers(0, 10**6))
def test_sequential_chunk_grid_covers_the_axis_once_in_order(monkeypatch, n, c, dseed):
    """For every extent and chunk size — ``n = 0``, ``c = 1``, ``c > n``,
    ``n % c != 0`` included — the chunks of a ``sequential(c)`` map cover
    ``[0, n)`` exactly once and in order, and value, ``vjp`` and ``jvp`` are
    bitwise the default schedule's on ``plan``/``codegen`` and equal
    ``ref``."""
    monkeypatch.delenv("REPRO_SCHEDULE", raising=False)  # the default is the baseline
    base_grid, derivs = _chunk_programs()
    sched = (Sequential(c), Vectorized())
    rng = np.random.default_rng(dseed)
    a = rng.standard_normal(n)
    grid = _forced(base_grid, sched)
    for be in ("ref", "plan", "codegen"):
        np.testing.assert_array_equal(grid(a, backend=be), np.arange(n), err_msg=be)
    if c > 1:
        assert f"sequential({c})" in plan_for(grid.fun, (a,)).schedule_str
    for d in derivs:
        args = (a,) + tuple(rng.standard_normal(n) for _ in d.fun.params[1:])
        forced = _forced(d, sched)
        want = d(*args, backend="ref")
        for be in ("plan", "codegen"):
            got, base = forced(*args, backend=be), d(*args, backend=be)
            for g, b, w in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, base, want))):
                assert np.asarray(g).tobytes() == np.asarray(b).tobytes(), (be, d.name)
                np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12, err_msg=be)


# ---------------------------------------------------------------------------
# The loop sugar, the env override, defaults
# ---------------------------------------------------------------------------


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


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_execute_spans_carry_schedule(backend):
    from repro.obs import tracing

    xs = np.random.default_rng(11).standard_normal(32)
    fc = rp.compile(_trace(_map_prog, xs), schedule="sequential(8)·vectorized")
    with tracing.collecting():
        fc(xs, backend=backend)
        spans = [ev for ev in tracing.events() if ev["ph"] == "B" and ev["name"] == "execute"]
    assert spans
    assert all("sequential(8)" in (ev["args"].get("schedule") or "") for ev in spans)
