"""Ablations A1–A5, A9 (per DESIGN.md):

A1  §6.1 accumulator→reduce on the matmul adjoint (the GMM/LSTM lever);
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
A9  source codegen vs the closure interpreter: the same plan IR rendered
    to one compiled Python function (backend=codegen) vs per-instruction
    closure dispatch (backend=plan) on a GMM gradient and two
    dispatch-bound scalar loops — bitwise parity asserted, codegen must
    win outright where dispatch dominates and be no slower elsewhere;
A10 retired with the schedule layer; trial in CHANGES.md, PR 21.
"""
import os
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


# --- A1: accumulator optimisation ------------------------------------------------

MM = (224, 128, 160)


@pytest.fixture(scope="module")
def mm_adjoints():
    n, k, m = MM
    f = rp.compile(rp.trace_like(lambda a, b: rp.matmul(a, b), (np.ones((n, k)), np.ones((k, m)))))
    raw = vjp(f, acc_opt=False)
    opt = vjp(f, acc_opt=True)
    A = rng.standard_normal((n, k))
    B = rng.standard_normal((k, m))
    S = rng.standard_normal((n, m))
    return raw, opt, (A, B, S)


def test_ablation_a1_acc_opt_off(benchmark, mm_adjoints):
    raw, opt, args = mm_adjoints
    benchmark(lambda: raw(*args))


def test_ablation_a1_acc_opt_on(benchmark, mm_adjoints):
    raw, opt, args = mm_adjoints
    benchmark(lambda: opt(*args))
    t_raw = timeit(lambda: raw(*args))
    t_opt = timeit(lambda: opt(*args))
    write_table(
        "ablation_a1_accopt",
        [
            "A1: matmul adjoint — §6.1 accumulator→reduce rewrite",
            f"shape {MM}: atomic-updates {t_raw:.3f}s, rewritten {t_opt:.3f}s, speedup {t_raw/t_opt:.2f}x",
            "paper: 'nearly one order of magnitude at application level' on GPU;",
            "the win grows with the summed dimension (atomics→dense reduction).",
        ],
        rows=[
            bench_row("acc_opt_off", seconds=t_raw),
            bench_row("acc_opt_on", seconds=t_opt),
        ],
    )
    assert t_opt < t_raw


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


# --- A9: source codegen vs the closure interpreter -----------------------------------

#: Two regimes.  The GMM gradient (Table 5 shape, scaled down) is
#: array-bound: NumPy kernels dominate and codegen only trims the residual
#: per-instruction dispatch.  The scalar loops are dispatch-bound: almost every "instruction" is a
#: handful of FLOPs, so the closure interpreter's per-op indirection *is*
#: the cost, and rendering the plan IR to one Python function removes it.
GMM_A9 = (128, 8, 8)
A9_FORI_ITERS = 512
A9_WHILE_LIMIT = 1000.0


def test_ablation_a9_codegen(benchmark):
    from repro.exec.plan import clear_plan_cache, plan_cache_stats

    n, d, K = GMM_A9
    gmm_args = datagen.gmm_instance(n, d, K, 0)[:4] + (1.0,)
    g_gmm = vjp(rp.compile(gmm.build_ir(n, d, K)), wrt=[0, 1, 2])

    def scalar_fori(x, v):
        def body(i, a):
            s = rp.sin(a) * 0.5 + rp.cos(a * a) * 0.25
            return a + s * rp.sum(v) * 1e-3
        return rp.fori_loop(A9_FORI_ITERS, body, x)

    def scalar_while(x):
        return rp.while_loop(
            lambda a: a < A9_WHILE_LIMIT, lambda a: a + rp.sin(a) * 0.1 + 1.0, x
        )

    fori_args = (0.1, rng.standard_normal(4))
    fc_fori = rp.compile(rp.trace_like(scalar_fori, fori_args))
    while_args = (0.0,)
    fc_while = rp.compile(rp.trace_like(scalar_while, while_args))

    workloads = [
        ("gmm_grad", lambda be: g_gmm(*gmm_args, backend=be), 3),
        ("scalar_fori", lambda be: fc_fori(*fori_args, backend=be), 7),
        ("scalar_while", lambda be: fc_while(*while_args, backend=be), 7),
    ]

    clear_plan_cache()
    times = {}
    for name, run, reps in workloads:
        res_plan = run("plan")
        res_cg = run("codegen")
        rp_ = res_plan if isinstance(res_plan, tuple) else (res_plan,)
        rc = res_cg if isinstance(res_cg, tuple) else (res_cg,)
        for a, b in zip(rp_, rc):
            # same lowering, same NumPy call sequence: bitwise, not approximate
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
        times[name] = (
            timeit(lambda: run("plan"), repeats=reps),
            timeit(lambda: run("codegen"), repeats=reps),
        )

    em = plan_cache_stats()["emitters"]["codegen"]
    benchmark(lambda: fc_fori(*fori_args, backend="codegen"))

    lines = [
        "A9: source codegen (plan IR -> one compiled Python function) vs the",
        "closure interpreter (per-instruction dispatch); identical lowering,",
        "bitwise-equal results asserted on every workload.",
    ]
    rows = []
    for name, (tp, tc) in times.items():
        lines.append(
            f"{name:12s} plan {tp*1000:8.2f} ms, codegen {tc*1000:8.2f} ms "
            f"({tp/tc:.2f}x)"
        )
        rows.append(bench_row(f"{name}/plan", seconds=tp, backend="plan"))
        rows.append(bench_row(f"{name}/codegen", seconds=tc, backend="codegen"))
    lines.append(
        f"codegen cache: {em['code_objects']} code objects, "
        f"{em['source_bytes']} source bytes, compile {em['compile_s']*1000:.1f} ms"
    )
    lines.append(
        "dispatch-bound scalar loops must win outright; the array-bound GMM"
    )
    lines.append(
        "gradient must be no slower than the interpreter (NumPy-bound)."
    )
    rows.append(bench_row("codegen_cache", backend="codegen",
                          code_objects=em["code_objects"],
                          source_bytes=em["source_bytes"],
                          compile_s=em["compile_s"]))
    write_table("ablation_a9_codegen", lines, rows=rows)

    # dispatch-bound: codegen must be >= 1.0x the interpreter, outright
    assert times["scalar_fori"][1] <= times["scalar_fori"][0], times["scalar_fori"]
    assert times["scalar_while"][1] <= times["scalar_while"][0], times["scalar_while"]
    # array-bound: no slower, with headroom for timing noise
    tp, tc = times["gmm_grad"]
    assert tc <= tp * 1.15, (tc, tp)

    # Verification-cost guard: every REPRO_VERIFY layer runs at *compile*
    # time, so hot cached-plan calls must be unaffected by the knob — the
    # verify counters stand still across the timed region, and wall clock
    # with boundary checking on stays within 2% of verification disabled
    # (plus a small absolute slack: these calls are sub-millisecond).
    from repro.ir.verify import VERIFY_STATS

    def run_hot():
        return fc_fori(*fori_args, backend="codegen")

    env0 = os.environ.get("REPRO_VERIFY")
    try:
        run_hot()  # plan cache is hot from the timings above
        c0 = None
        t_off = t_bnd = float("inf")
        # Interleave the two modes and compare minima: min-of-rounds is
        # robust to machine drift where one median block vs another is not.
        for _ in range(3):
            os.environ["REPRO_VERIFY"] = "off"
            t_off = min(t_off, timeit(run_hot, repeats=7))
            os.environ["REPRO_VERIFY"] = "boundary"
            if c0 is None:
                c0 = dict(VERIFY_STATS)
            t_bnd = min(t_bnd, timeit(run_hot, repeats=7))
        assert dict(VERIFY_STATS) == c0, "verifier ran on a cached-plan call"
        assert t_bnd <= t_off * 1.02 + 2e-4, (t_bnd, t_off)
    finally:
        if env0 is None:
            os.environ.pop("REPRO_VERIFY", None)
        else:
            os.environ["REPRO_VERIFY"] = env0
