"""The static cost model (`ir/cost_model.py`) and the two decision points
it drives here: the fusion gate and shard chunk sizing / shard-point
selection.  Golden per-SOAC estimates for the GMM
and BA gradients live here too (the hypothesis-based soundness property
against ``CostRecorder`` is in ``test_props_hypothesis.py``)."""
import numpy as np
import pytest

import repro as rp
from repro.apps import ba, datagen, gmm
from repro.core.api import vjp
from repro.exec.cost import CostRecorder
from repro.exec.interp import RefInterp
from repro.exec.plan import clear_plan_cache
from repro.exec.shard import _chunk_bounds, _edges
from repro.ir.analysis import parallel_split
from repro.ir.cost_model import (
    CostModel,
    Estimate,
    estimate_fun,
    estimate_stm,
    fusion_wins,
    soac_elem_cost,
    soac_estimates,
    stm_work,
)

rng = np.random.default_rng(7)


def _recorded(fun, args):
    rec = CostRecorder()
    RefInterp(rec).run(fun, args)
    return rec.snapshot()


# ---------------------------------------------------------------------------
# Estimate algebra + exact small-program estimates
# ---------------------------------------------------------------------------


def test_estimate_algebra_and_cost_conversion():
    a = Estimate(work=2.0, span=1.0, mem_reads=3.0, mem_writes=4.0)
    b = Estimate(work=1.0, span=2.0, mem_reads=0.5, mem_writes=0.5)
    s = a + b
    assert (s.work, s.span, s.mem_reads, s.mem_writes) == (3.0, 3.0, 3.5, 4.5)
    assert s.mem == 8.0 and s.total == 11.0
    seq = a.scaled(3, span_k=3)
    assert seq.work == 6.0 and seq.span == 3.0
    c = s.cost()
    assert (c.work, c.span, c.mem_reads, c.mem_writes) == (3, 3, 4, 4)


def test_map_estimate_exact_with_known_shapes():
    f = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: rp.sin(x) * x, v), (np.ones(4),)))
    fe = estimate_fun(f.fun, [(100,)])
    # 2 scalar ops per element * 100 elements + the SOAC launch constant;
    # traffic: read the input array once, write the result once.
    assert fe.total.work == 2 * 100 + 8
    assert fe.total.mem_reads == 100 and fe.total.mem_writes == 100
    assert fe.total.span == 3.0  # 2-op body depth (parallel iterations) + entry
    assert len(fe.soacs) == 1 and fe.soacs[0][0] == "map"


def test_reduce_estimate_tracks_recorder():
    f = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(lambda x: rp.exp(x) * x, v)), (np.ones(4),)))
    n = 1000
    xs = rng.standard_normal(n)
    rec = _recorded(f.fun, [xs])
    est = estimate_fun(f.fun, [(n,)]).total
    assert rec.work <= est.work <= rec.work * 1.5
    assert rec.mem <= est.mem <= rec.mem * 1.5 + 16
    # log-depth combine tree
    assert est.span <= 3 * np.ceil(np.log2(n)) + 8


def test_unknown_shapes_fall_back_to_assumed_extents(monkeypatch):
    monkeypatch.setenv("REPRO_COST_DEFAULT_EXTENT", "32")
    f = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(4),)))
    fe = estimate_fun(f.fun)  # no shapes supplied
    assert fe.total.work == 32 + 8


# ---------------------------------------------------------------------------
# Decision 1: the fusion gate
# ---------------------------------------------------------------------------


def _stms_of(f, ex):
    return rp.trace_like(f, ex).body.stms


def test_fusion_gate_accepts_traffic_reducing_fusion():
    # The pre/post statement lists of a real vertical map->map fusion: the
    # fused form drops the intermediate array's write+read.
    from repro.opt.pipeline import optimize_fun

    fun = rp.trace_like(
        lambda v: rp.map(lambda y: y + 1.0, rp.map(lambda x: x * 2.0, v)), (np.ones(8),)
    )
    before = [s for s in fun.body.stms]
    fused = optimize_fun(fun)
    after = [s for s in fused.body.stms]
    assert len(after) < len(before)  # fusion actually fired (gate accepted)
    assert fusion_wins(before, after)


def test_fusion_gate_rejects_work_inflation():
    # A synthetic "rewrite" that duplicates the statements: the gate must
    # reject it (more work, more traffic).
    stms = _stms_of(lambda v: rp.map(lambda x: rp.sin(x), v), (np.ones(8),))
    assert not fusion_wins(list(stms), list(stms) + list(stms))


def test_fuse_cost_modes(monkeypatch):
    from repro.opt.fusion import fuse_cost_mode, fuse_fun, fusion_stats, reset_fusion_stats
    from repro.ir.traversal import count_soacs

    fun = rp.trace_like(
        lambda v: rp.sum(rp.map(lambda x: rp.exp(x) * x, v)), (np.ones(8),)
    )
    monkeypatch.setenv("REPRO_FUSE_COST", "off")
    assert fuse_cost_mode() == "off"
    assert fuse_fun(fun) == fun  # pass disabled: identity

    reset_fusion_stats()
    monkeypatch.setenv("REPRO_FUSE_COST", "on")
    guided = fuse_fun(fun)
    monkeypatch.setenv("REPRO_FUSE_COST", "always")
    mono = fuse_fun(fun)
    # guided and monotone make identical decisions on real programs
    assert count_soacs(guided) == count_soacs(mono)
    st = fusion_stats()
    assert st["vertical"] >= 1 and st["cost_rejected"] == 0
    monkeypatch.delenv("REPRO_FUSE_COST", raising=False)
    assert fuse_cost_mode() == "on"  # cost-guided is the default


def test_guided_fusion_results_bitwise_equal_monotone(monkeypatch):
    from repro.opt.pipeline import clear_opt_cache

    def f(v):
        s = rp.scan(lambda a, b: a + b, 0.0, rp.map(lambda x: x * x, v))
        return rp.sum(rp.map(lambda y: rp.tanh(y), s))

    xs = rng.standard_normal(64)
    results = {}
    for mode in ("on", "always"):
        monkeypatch.setenv("REPRO_FUSE_COST", mode)
        clear_plan_cache()
        fc = rp.compile(rp.trace_like(f, (xs,)))
        g = rp.grad(fc)
        results[mode] = (np.asarray(fc(xs, backend="plan")), np.asarray(g(xs)))
    np.testing.assert_array_equal(results["on"][0], results["always"][0])
    np.testing.assert_array_equal(results["on"][1], results["always"][1])


# ---------------------------------------------------------------------------
# Decision 2: shard-point selection + chunk sizing
# ---------------------------------------------------------------------------


def test_parallel_split_weighs_by_estimated_work():
    # A statement-poor but extent/traffic-heavy map vs a statement-heavy
    # scalar-cheap one: the default (cost model) weigher must still pick a
    # shard point, and custom weighers are honoured.
    def f(small, big):
        a = rp.sum(rp.map(lambda s: s * 2.0, small))
        b = rp.map(lambda v: rp.sin(v) * rp.cos(v) + rp.exp(-v * v) * a, big)
        return b

    fun = rp.trace_like(f, (np.ones(4), np.ones(64)))
    split = parallel_split(fun)  # default: ir.cost_model.stm_work
    assert split is not None and split.kind == "map"
    # the heavy map has more estimated work than the small reduce
    weights = [stm_work(s) for s in fun.body.stms]
    assert max(weights) == weights[-1]
    # a custom weigher that prefers the *first* candidate flips the choice
    # to an earlier shard point (fewer statements in the prefix function)
    flipped = parallel_split(fun, weigh=lambda s: -fun.body.stms.index(s))
    assert flipped is not None
    assert len(flipped.prefix_fun.body.stms) < len(split.prefix_fun.body.stms)


def test_soac_elem_cost_orders_bodies():
    light = rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(4),))
    heavy = rp.trace_like(
        lambda v: rp.map(lambda x: rp.sin(x) * rp.cos(x) + rp.exp(x), v), (np.ones(4),)
    )
    cl = soac_elem_cost(light.body.stms[0].exp)
    ch = soac_elem_cost(heavy.body.stms[0].exp)
    assert cl is not None and ch is not None and ch > cl
    assert soac_elem_cost(light.body.stms[0].exp.lam.body.stms[0].exp) is None


def test_chunk_bounds_degenerate_and_derived(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_MIN_CHUNK", raising=False)
    monkeypatch.delenv("REPRO_SHARD_MAX_TASKS", raising=False)
    # n == 0: one empty chunk, run in-process
    assert _chunk_bounds(0) == [(0, 0)]
    assert _chunk_bounds(0, elem_cost=100.0) == [(0, 0)]
    assert _chunk_bounds(1, elem_cost=1e9) == [(0, 1)]
    # derived sizing: heavy elements -> more chunks at the same extent
    monkeypatch.setenv("REPRO_COST_TASK_GRAIN", "1000")
    light = _chunk_bounds(10_000, elem_cost=1.0)
    heavy = _chunk_bounds(10_000, elem_cost=50.0)
    assert len(heavy) > len(light)
    # never an empty chunk, full coverage, in order
    for bounds, n in ((light, 10_000), (heavy, 10_000)):
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(hi > lo for lo, hi in bounds)
        assert all(b[0] == a[1] for a, b in zip(bounds, bounds[1:]))
    # chunk count never exceeds the extent even for absurd costs
    tiny = _chunk_bounds(3, elem_cost=1e9)
    assert tiny == [(0, 1), (1, 2), (2, 3)]
    # REPRO_SHARD_MIN_CHUNK overrides the derivation with the old policy
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "5000")
    assert len(_chunk_bounds(10_000, elem_cost=50.0)) == 2


def test_edges_never_emit_empty_chunks():
    for n in (0, 1, 2, 3, 5, 7):
        for k in (1, 2, 3, 5, 8, 100):
            bounds = _edges(n, k)
            if n == 0:
                assert bounds == [(0, 0)]
                continue
            assert all(hi > lo for lo, hi in bounds)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert len(bounds) <= min(k, n)


@pytest.mark.parametrize("n", [0, 1, 3, 17])
def test_shard_degenerate_extents_map_and_reduce(n, monkeypatch):
    from repro.exec.shard import reset_shard_stats, shutdown_shard_pool

    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "2")
    reset_shard_stats()
    xs = np.arange(float(n)) + 2.0
    fm = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(4),)))
    fr = rp.compile(
        rp.trace_like(lambda v: rp.reduce(lambda a, b: rp.minimum(a, b), 5.0, v), (np.ones(4),))
    )
    fs = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(lambda x: x + 1.0, v)), (np.ones(4),)))
    for fc in (fm, fr, fs):
        np.testing.assert_array_equal(
            np.asarray(fc(xs, backend="shard")), np.asarray(fc(xs, backend="plan"))
        )
    shutdown_shard_pool()


def test_shard_empty_reduce_no_spurious_neutral_process_mode(monkeypatch):
    """The reduce combine tree must see only real chunk partials even in
    process mode with degenerate extents (n == 0 and n == 1)."""
    from repro.exec.shard import reset_shard_stats, shard_stats, shutdown_shard_pool

    monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
    monkeypatch.setenv("REPRO_SHARD_MIN_CHUNK", "1")
    monkeypatch.setenv("REPRO_SHARD_MODE", "process")
    monkeypatch.setenv("REPRO_SHARD_SHM_MIN", "0")
    reset_shard_stats()
    fr = rp.compile(
        rp.trace_like(lambda v: rp.reduce(lambda a, b: a + b, 2.5, v), (np.ones(4),))
    )
    for n in (0, 1):
        xs = np.arange(float(n)) + 1.0
        np.testing.assert_array_equal(
            np.asarray(fr(xs, backend="shard")), np.asarray(fr(xs, backend="plan"))
        )
    shutdown_shard_pool()


def test_shard_derived_chunking_bitwise_across_worker_counts(monkeypatch):
    """Cost-derived chunk geometry depends only on the extent and the cost
    estimate — results stay bitwise identical at 1 vs N workers."""
    from repro.exec.shard import reset_shard_stats, shutdown_shard_pool

    monkeypatch.delenv("REPRO_SHARD_MIN_CHUNK", raising=False)
    monkeypatch.setenv("REPRO_COST_TASK_GRAIN", "64")  # force real chunking
    xs = rng.standard_normal(501)
    fc = rp.compile(
        rp.trace_like(lambda v: rp.sum(rp.map(lambda x: rp.sin(x) * x, v)), (np.ones(4),))
    )
    results = []
    for w in ("1", "3"):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", w)
        reset_shard_stats()
        shutdown_shard_pool()
        results.append(np.asarray(fc(xs, backend="shard")))
    np.testing.assert_array_equal(results[0], results[1])
    shutdown_shard_pool()


# ---------------------------------------------------------------------------
# Golden per-SOAC estimates: GMM and BA gradients
# ---------------------------------------------------------------------------


def test_golden_gmm_gradient_estimates():
    n, d, K = 32, 4, 4
    args = datagen.gmm_instance(n, d, K, 0)[:4]
    g = vjp(rp.compile(gmm.build_ir(n, d, K)), wrt=[0, 1, 2])
    shapes = [tuple(np.asarray(a).shape) for a in args] + [()]
    fe = estimate_fun(g.fun, shapes)
    rec = _recorded(g.fun, list(args) + [1.0])
    # constant-factor agreement: AD code carries loops/ifs whose branches
    # the static model over-approximates (max of both sides) and scratch
    # buffers of statically unknown extent
    assert rec.work * 0.5 <= fe.total.work <= rec.work * 16
    soacs = soac_estimates(g.fun, shapes)
    assert soacs == fe.soacs and len(soacs) >= 5
    # Re-baselined with the `length`-through-`map` fold (opt/simplify): the
    # forward per-point map used to be kept apart from its `reduce (+)` by a
    # second use (`n = length(map result)`), so the heaviest SOAC was a
    # `map`.  `length` now reads the map's argument, the map has one consumer
    # and fuses into it — the dominant SOAC is that redomap-shaped reduce,
    # and it still dominates every other top-level SOAC by a wide margin.
    top = max(soacs, key=lambda s: s[2].work)
    assert top[0] == "reduce"
    others = sorted((s[2].work for s in soacs), reverse=True)
    assert others[0] >= 10 * others[1]


def test_golden_ba_gradient_estimates():
    cams, pts, ws, oc, op_, feats = datagen.ba_instance(4, 8, 16, 0)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, oc, op_)
    fc = rp.compile(ba.build_ir(16))
    outs = fc(gc, gp, gw, feats)
    outs = outs if isinstance(outs, tuple) else (outs,)
    seeds = [np.ones_like(np.asarray(o)) for o in outs]
    jv = vjp(fc, wrt=[0, 1, 2])
    args = [gc, gp, gw, feats] + seeds
    shapes = [tuple(np.asarray(a).shape) for a in args]
    fe = estimate_fun(jv.fun, shapes)
    rec = _recorded(jv.fun, args)
    # BA's reverse pass is one big fused map: the estimate is tight
    assert rec.work * 0.8 <= fe.total.work <= rec.work * 1.5
    assert len(fe.soacs) >= 1 and fe.soacs[0][0] == "map"
