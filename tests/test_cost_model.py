"""The static cost estimator (`ir/cost_model.py`): estimate algebra, exact
small-program estimates, the statement ranking ``apply_schedule`` targets
with, and golden per-SOAC estimates for the GMM and BA gradients (the
hypothesis-based soundness property against ``CostRecorder`` is in
``test_props_hypothesis.py``)."""
import numpy as np
import pytest

import repro as rp
from repro.apps import ba, datagen, gmm
from repro.core.api import vjp
from repro.exec.cost import CostRecorder
from repro.exec.interp import RefInterp
from repro.ir.ast import Map
from repro.ir.cost_model import (
    DEFAULT_EXTENT,
    Estimate,
    estimate_fun,
    soac_estimates,
    stm_work,
)
from repro.ir.schedule import apply_schedule, parse_schedule

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


def test_unknown_shapes_fall_back_to_assumed_extents():
    f = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(4),)))
    fe = estimate_fun(f.fun)  # no shapes supplied
    assert fe.total.work == DEFAULT_EXTENT + 8


# ---------------------------------------------------------------------------
# The estimator's one consumer in the compiler: ``apply_schedule(strict=True)``
# ---------------------------------------------------------------------------


def test_stm_work_ranks_the_dominant_statement():
    # A statement-poor small reduce and an extent/traffic-heavy map: the
    # ranking puts the map on top, and a strict ``schedule=`` lands on it.
    def f(small, big):
        a = rp.sum(rp.map(lambda s: s * 2.0, small))
        b = rp.map(lambda v: rp.sin(v) * rp.cos(v) + rp.exp(-v * v) * a, big)
        return b

    fun = rp.trace_like(f, (np.ones(4), np.ones(64)))
    weights = [stm_work(s) for s in fun.body.stms]
    assert max(weights) == weights[-1]
    sched = parse_schedule("sequential(8)·vectorized")
    annotated = [s for s in apply_schedule(fun, sched).body.stms
                 if getattr(s.exp, "schedule", ())]
    assert len(annotated) == 1 and annotated[0].pat == fun.body.stms[-1].pat
    assert isinstance(annotated[0].exp, Map) and annotated[0].exp.schedule == sched


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
