"""Source-codegen backend (``exec/codegen.py``): bitwise parity with the
closure interpreter and cache accounting for code objects."""
import numpy as np
import pytest

import repro as rp
from helpers import run_both, vector_call_census
from repro.exec.codegen import CodegenPlan
from repro.exec.plan import Plan, clear_plan_cache, plan_cache_stats, plan_for
from repro.util import ExecError

rng = np.random.default_rng(29)


def _sum_kernel():
    def f(v):
        return rp.sum(rp.map(lambda x: rp.sin(x) * x, v)) + rp.astype(
            rp.size(v), rp.F64
        )

    return rp.compile(rp.trace_like(f, (np.ones(4),)))


#: Programs whose lowering reads an extent at run time (``Size``, iota and
#: replicate lengths, histogram sizes, empty and one-element reduces) plus
#: every SOAC strategy, control flow and accumulators; each is traced at
#: ``ex``'s shapes and run at different ones.
_BATTERY = [
    ("size_iota_replicate", lambda v: rp.sum(
        rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(rp.size(v)))
    ) * rp.sum(v), (np.ones(5),), (rng.standard_normal(7),)),
    ("reduce_nonempty", lambda v: rp.sum(v) + rp.reduce(
        lambda a, b: rp.maximum(a, b), -1.0e9, v
    ), (np.ones(6),), (rng.standard_normal(9),)),
    ("reduce_empty", lambda v: rp.sum(v), (np.zeros(0),), (np.zeros(0),)),
    ("reduce_one", lambda v: rp.sum(v) * 3.0, (np.ones(1),),
     (rng.standard_normal(1),)),
    ("scan_hist", lambda inds, vals: rp.sum(
        rp.scan(lambda a, b: a + b, 0.0, vals)
    ) + rp.sum(rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, vals)),
     (np.array([0, 1, 2]), np.ones(3)),
     (np.array([3, 1, -1, 2, 0]), rng.standard_normal(5))),
    ("loop_while_if", lambda x, v: rp.cond(
        x > 0.0,
        lambda: rp.fori_loop(3, lambda i, a: a + rp.sum(v), x),
        lambda: rp.while_loop(lambda a: a < 4.0, lambda a: a + 1.0, x),
    ), (0.5, np.ones(4)), (-2.5, rng.standard_normal(6))),
    ("update_scatter_concat", lambda v, inds: rp.sum(
        rp.concat(rp.update(v, 1, 9.0),
                  rp.reverse(rp.scatter(rp.zeros_like(v), inds, v)))
    ), (np.ones(4), np.array([0, 2, 1, 3])),
     (rng.standard_normal(4), np.array([3, 0, 2, 1]))),
    ("nested_map_redomap", lambda m: rp.map(
        lambda r: rp.sum(rp.map(lambda x: rp.exp(x) * x, r)), m
    ), (np.ones((3, 4)),), (rng.standard_normal((5, 2)),)),
]


# ---------------------------------------------------------------------------
# Bitwise parity: codegen vs plan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,f,ex,args", _BATTERY, ids=[b[0] for b in _BATTERY])
def test_codegen_bitwise_battery(name, f, ex, args):
    fc = rp.compile(rp.trace_like(f, ex))
    run_both(fc, *args)  # includes the suite-wide plan↔codegen bitwise check
    rp_ = Plan(fc.fun).run(tuple(args))  # and again through uncached plans
    rg = CodegenPlan(fc.fun).run(tuple(args))
    assert len(rp_) == len(rg)
    for a, b in zip(rp_, rg):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_codegen_gradients_bitwise_vs_plan():
    def f(v, w):
        s = rp.sum(v * w)
        wh = rp.while_loop(lambda a: a < 10.0, lambda a: a * 2.0, 1.0 + 0.0 * s)
        return s * wh + rp.sum(rp.scan(lambda a, b: a + b, 0.0, v))

    v, w = rng.standard_normal(8), rng.standard_normal(8)
    fc = rp.compile(rp.trace_like(f, (v, w)))
    g = rp.grad(fc)
    for a, b in zip(g(v, w, backend="plan"), g(v, w, backend="codegen")):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_codegen_batched_bitwise_vs_plan():
    fun = rp.trace_like(lambda v, w: rp.sum(v * w) * rp.sum(v + w),
                        (np.ones(6), np.ones(6)))
    B = 4
    vb = rng.standard_normal((B, 6))
    w = rng.standard_normal(6)
    rp_ = Plan(fun).run_batched((vb, w), (True, False), B)
    cg = CodegenPlan(fun).run_batched((vb, w), (True, False), B)
    for a, b in zip(rp_, cg):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


# ---------------------------------------------------------------------------
# Cache accounting: code objects ride the same plan cache
# ---------------------------------------------------------------------------


def test_codegen_shape_sweep_one_code_object_per_signature():
    fc = _sum_kernel()
    clear_plan_cache()
    sizes = (3, 4, 5, 6, 7, 8)
    for n in sizes:
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            fc(x, backend="codegen"), fc(x, backend="ref"),
            rtol=1e-12, atol=1e-12,
        )
    st = plan_cache_stats()
    assert st["misses"] == 1, f"sweep re-compiled codegen plans: {st}"
    assert st["hits"] == len(sizes) - 1
    em = st["emitters"]["codegen"]
    assert em["plans"] == 1
    assert em["code_objects"] == 1
    assert em["source_bytes"] > 0
    assert em["compile_s"] >= 0.0 and em["emit_s"] >= 0.0


def test_plan_and_codegen_emitters_get_separate_cache_rows():
    fc = _sum_kernel()
    clear_plan_cache()
    x = rng.standard_normal(5)
    p1 = plan_for(fc.fun, (x,), emitter="plan")
    p2 = plan_for(fc.fun, (x,), emitter="codegen")
    st = plan_cache_stats()
    assert st["entries"] == 2 and st["misses"] == 2
    assert isinstance(p1, Plan) and isinstance(p2, CodegenPlan)
    assert plan_for(fc.fun, (x,), emitter="codegen") is p2  # cached repeat
    np.testing.assert_array_equal(p1.run((x,))[0], p2.run((x,))[0])
    assert set(st["emitters"]) >= {"plan", "codegen"}


def test_unknown_emitter_raises_listing_the_registered_set():
    fc = _sum_kernel()
    with pytest.raises(ExecError, match="unknown plan emitter"):
        plan_for(fc.fun, (np.ones(4),), emitter="llvm")


def test_clear_plan_cache_resets_emitter_stats():
    fc = _sum_kernel()
    fc(np.ones(4), backend="codegen")
    assert plan_cache_stats()["emitters"]
    clear_plan_cache()
    assert plan_cache_stats()["emitters"] == {}


@pytest.mark.parametrize("app", ["gmm", "lstm", "kmeans"])
def test_both_emitters_reach_the_same_kernels_the_same_number_of_times(app):
    """One cached derivative call makes the same ``exec/vector.py`` calls,
    function by function, on ``plan`` and on ``codegen``: the emitters differ
    in how they bind and dispatch, not in which kernels run."""
    from test_mem_plan import _app

    inp, fc, call = _app(app)
    census = {}
    for backend in ("plan", "codegen"):
        call(fc, inp, backend)  # compile; the profiled call below is cached
        census[backend] = vector_call_census(lambda: call(fc, inp, backend))
    assert census["plan"] == census["codegen"]
    assert {"_batch_args", "_elem", "_map_result"} <= set(census["plan"])

