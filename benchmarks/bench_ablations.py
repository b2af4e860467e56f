"""Ablations A2–A5 (per DESIGN.md) and the verification-cost guard:

A1  retired with the §6.1 rewrites; trial in CHANGES.md;
A2  §4.3 strip-mining time–space trade-off (checkpoint memory vs re-exec),
    and a slot loop reverse AD proves it may checkpoint only at entry (§6.2);
A3  §4.1 perfect nests ⇒ no re-execution (DCE kills the forward sweeps);
A4  §5.1 specialised reduce rules vs the general two-scan rule;
A5  SOAC fusion on/off on the GMM gradient (the pass-registry flag);
A6  retired with the shard executor (its trial is in CHANGES.md, PR 17);
A7  retired with tier-2 plan specialisation (its shape-sweep invariant is
    tests/test_plan_cache.py);
A8  retired with the cost model's decision points (the fusion gate never
    rejected a candidate; CHANGES.md, PR 17);
A9  retired with the source-codegen emitter (ROADMAP item 5; its
    verification-cost guard is ``test_verify_cost_on_hot_plan_calls``);
A10 retired with the schedule layer; trial in CHANGES.md, PR 21.
"""
import tracemalloc

import numpy as np
import pytest

import repro as rp
from repro.apps import datagen, gmm
from repro.core.api import vjp
from repro.exec.cost import CostRecorder
from repro.exec.interp import RefInterp
from repro.frontend.function import Compiled
from repro.ir import count_soacs, count_stms
from repro.opt.pipeline import AD_SAFE_PASSES, optimize_fun
from repro.core.vjp import vjp_fun
from common import BENCH_BACKEND, bench_row, on_bench_backend, timeit, write_table

rng = np.random.default_rng(0)


# --- A2: strip-mining ---------------------------------------------------------------


def _stripmine_grad(sm: int):
    def f(x):
        return rp.fori_loop(1024, lambda i, a: rp.sin(a) * x, x, stripmine=sm)

    return rp.grad(rp.compile(rp.trace_like(f, (1.0,))))


def _slot_loop_grad():
    """512 iterations writing slot i + 1 of a 20,000-float state from slot i:
    proved free of false dependencies, so only the entry is checkpointed."""
    def f(a0, xs):
        step = lambda i, acc: rp.update(acc, i + 1, rp.sin(acc[i]) + xs[i])  # noqa: E731
        return rp.sum(rp.fori_loop(512, step, a0))

    return rp.grad(rp.compile(rp.trace_like(f, (np.ones(4), np.ones(4)))))


def _peak_and_work(g, *args):
    rec = CostRecorder()
    RefInterp(rec).run(g.adfun.fun, [*args, 1.0])
    c = rec.snapshot()
    return c.peak_alloc, c.work


def _measured(g, *args):
    """Traced peak MB and median seconds of the cached gradient call on the
    benchmark backend — the recorder's counts above, as the user sees them."""
    run = on_bench_backend(g)
    run(*args)  # lowered and cached
    tracemalloc.start()
    try:
        run(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, timeit(run, *args)


@pytest.mark.parametrize("sm", [0, 8, 32])
def test_ablation_a2_stripmine(benchmark, sm):
    g = _stripmine_grad(sm)
    benchmark(lambda: g(0.8))
    if sm == 32:
        rows = ["A2: strip-mining a 1024-iteration loop — §4.3 time-space trade-off",
                f"{'factor':>7s} {'peak ckpt':>10s} {'work':>10s} {'peak MB':>8s} {'seconds':>8s}"]
        jrows, counts = [], {}
        for k in (0, 8, 32):
            gk = _stripmine_grad(k)
            p, w = counts[k] = _peak_and_work(gk, 0.8)
            mb, sec = _measured(gk, 0.8)
            rows.append(f"{k:7d} {p:10d} {w:10d} {mb:8.3f} {sec:8.3f}")
            jrows.append(bench_row(f"stripmine_{k}", seconds=sec, peak_alloc=p, work=w,
                                   peak_mb=mb))
        rows.append("memory drops ~f-fold per level; work grows by one extra forward sweep")
        r = np.random.default_rng(0)
        slot = (r.standard_normal(20_000) * 0.5, r.standard_normal(512))
        g_slot = _slot_loop_grad()
        p, w = _peak_and_work(g_slot, *slot)
        slot_mb, sec = _measured(g_slot, *slot)
        rows.append(f"{'slot':>7s} {p:10d} {w:10d} {slot_mb:8.3f} {sec:8.3f}")
        rows.append("slot: 512 x 20,000-float slot loop, checkpointed only at entry (proved)")
        jrows.append(bench_row("slot_loop_512", seconds=sec, peak_alloc=p, work=w,
                               peak_mb=slot_mb))
        write_table("ablation_a2_stripmine", rows, rows=jrows)
        (p0, w0), (p32, w32) = counts[0], counts[32]
        assert p32 < p0 / 4 and w32 < 4 * w0
        assert slot_mb <= 1.2


# --- A3: perfect nests / DCE ----------------------------------------------------------


def test_ablation_a3_dce_perfect_nest(benchmark):
    def f(ass):
        return rp.map(lambda as_: rp.map(lambda a: a * a, as_), ass)

    fun = optimize_fun(rp.trace_like(f, (np.ones((16, 64)),)))
    raw = vjp_fun(fun)
    opt = optimize_fun(raw)
    ass = rng.standard_normal((16, 64))
    seed = np.ones((16, 64))
    prim = Compiled(fun, optimize=False)
    craw = Compiled(raw, optimize=False)
    copt = Compiled(opt, optimize=False)
    benchmark(lambda: copt(ass, seed))
    wp = prim.cost(ass).work
    wr = craw.cost(ass, seed).work
    wo = copt.cost(ass, seed).work
    write_table(
        "ablation_a3_dce",
        [
            "A3: perfect map nest (Fig. 2) — re-executed forward sweeps are dead code",
            f"primal work {wp}; adjoint work before DCE {wr} ({wr/wp:.2f}x); after DCE {wo} ({wo/wp:.2f}x)",
            f"statements: {count_stms(raw)} -> {count_stms(opt)}",
            "paper: perfect nests suffer no re-computation overhead after optimisation",
        ],
        rows=[
            bench_row("primal", work=wp),
            bench_row("adjoint_pre_dce", work=wr),
            bench_row("adjoint_post_dce", work=wo),
        ],
    )
    assert wo < wr
    assert wo <= 6 * wp


# --- A4: specialised reduce rules ----------------------------------------------------------


def test_ablation_a4_reduce_special_vs_general(benchmark):
    n = 50_000
    xs = rng.standard_normal(n) + 2.0

    f_special = rp.compile(rp.trace_like(lambda v: rp.sum(v), (xs,)))
    # An opaque addition defeats operator recognition → the general
    # two-scan rule is used.
    # minimum(a+b, huge) is semantically (+) on finite data but defeats
    # operator recognition, forcing the general two-scan rule.
    f_general = rp.compile(
        rp.trace_like(lambda v: rp.reduce(lambda a, b: rp.minimum(a + b, 1e300), 0.0, v), (xs,))
    )
    g_s = rp.grad(f_special)
    g_g = rp.grad(f_general)
    np.testing.assert_allclose(g_s(xs), g_g(xs), rtol=1e-10)
    benchmark(lambda: g_s(xs))
    t_s = timeit(lambda: g_s(xs))
    t_g = timeit(lambda: g_g(xs))
    write_table(
        "ablation_a4_reduce_special",
        [
            "A4: reduce(+) adjoint — §5.1.1 special case vs general two-scan rule",
            f"n={n}: special {t_s*1000:.1f} ms, general {t_g*1000:.1f} ms ({t_g/t_s:.1f}x slower)",
            "paper: the general rule needs ≥5 global memory accesses/element vs 1;",
            "our gap is amplified because unrecognised scan operators execute",
            "sequentially in the simulator (a real GPU keeps them parallel).",
        ],
        rows=[
            bench_row("reduce_special", seconds=t_s),
            bench_row("reduce_general", seconds=t_g),
        ],
    )
    assert t_s < t_g


# --- A5: SOAC fusion on/off ---------------------------------------------------------


GMM_A5 = (128, 8, 8)


@pytest.fixture(scope="module")
def gmm_fusion_pair():
    n, d, K = GMM_A5
    args = datagen.gmm_instance(n, d, K, 0)[:4]
    fun = gmm.build_ir(n, d, K)
    g_on = vjp(rp.compile(fun), wrt=[0, 1, 2])
    g_off = vjp(rp.compile(fun, passes=AD_SAFE_PASSES), wrt=[0, 1, 2], passes=AD_SAFE_PASSES)
    return args, g_on, g_off


@pytest.mark.parametrize("fused", [True, False])
def test_ablation_a5_fusion(benchmark, fused, gmm_fusion_pair):
    args, g_on, g_off = gmm_fusion_pair
    g = g_on if fused else g_off
    seeds = args + (1.0,)
    benchmark(lambda: g(*seeds, backend=BENCH_BACKEND))
    if not fused:
        t_on = timeit(lambda: g_on(*seeds, backend=BENCH_BACKEND))
        t_off = timeit(lambda: g_off(*seeds, backend=BENCH_BACKEND))
        s_on, s_off = count_soacs(g_on.fun), count_soacs(g_off.fun)
        write_table(
            "ablation_a5_fusion",
            [
                "A5: SOAC fusion on/off — GMM gradient (pass-registry flag)",
                f"shape {GMM_A5}: fused {t_on*1000:.1f} ms / {s_on} SOACs, "
                f"unfused {t_off*1000:.1f} ms / {s_off} SOACs",
                "fusion inlines producers into consumers (redomap shapes), so the",
                "post-AD gradient materialises fewer intermediates per pass.",
            ],
            rows=[
                bench_row("fusion_on", seconds=t_on, soacs=s_on),
                bench_row("fusion_off", seconds=t_off, soacs=s_off),
            ],
        )
        assert s_on < s_off


# --- Verification cost: every REPRO_VERIFY layer runs at compile time ----------------


def test_verify_cost_on_hot_plan_calls(monkeypatch):
    """Hot cached-plan calls are unaffected by ``REPRO_VERIFY``: the verify
    counters stand still across the timed region (also tier-1:
    ``tests/test_verify.py::test_cached_plan_reuse_skips_reverification``),
    and wall clock with boundary checking on stays within 2 % of
    verification disabled, plus 0.2 ms of slack.  The program is a
    dispatch-bound scalar loop, where a per-call check would show most."""
    from repro.ir.verify import VERIFY_STATS

    def scalar_fori(x, v):
        def body(i, a):
            s = rp.sin(a) * 0.5 + rp.cos(a * a) * 0.25
            return a + s * rp.sum(v) * 1e-3
        return rp.fori_loop(512, body, x)

    args = (0.1, rng.standard_normal(4))
    fc = rp.compile(rp.trace_like(scalar_fori, args))

    def run_hot():
        return fc(*args, backend="plan")

    run_hot()  # lowered and cached
    c0 = None
    t_off = t_bnd = float("inf")
    # Interleave the two modes and compare minima: min-of-rounds is
    # robust to machine drift where one median block vs another is not.
    for _ in range(3):
        monkeypatch.setenv("REPRO_VERIFY", "off")
        t_off = min(t_off, timeit(run_hot, repeats=7))
        monkeypatch.setenv("REPRO_VERIFY", "boundary")
        if c0 is None:
            c0 = dict(VERIFY_STATS)
        t_bnd = min(t_bnd, timeit(run_hot, repeats=7))
    assert dict(VERIFY_STATS) == c0, "verifier ran on a cached-plan call"
    assert t_bnd <= t_off * 1.02 + 2e-4, (t_bnd, t_off)
