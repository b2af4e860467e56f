"""Fusion-engine and pass-framework tests.

Golden tests assert post-fusion SOAC statement counts per case (map→map,
map→reduce, map→scan, map→hist), parity runs check every fused
program on every backend (via ``tests/helpers.py``) including a slice of the
fuzz corpus, and the GMM acceptance check asserts the post-AD gradient
program carries measurably fewer SOACs with fusion on than off.
"""
import numpy as np
import pytest

import repro as rp
from helpers import check_grad, fd_grad, run_both
from repro.frontend.function import Compiled
from repro.ir import check_fun, count_soacs, pretty
from repro.ir.analysis import recognize_redomap_lambda
from repro.opt.fusion import tile_fun, unfuse_fun
from repro.opt.pipeline import (
    AD_SAFE_PASSES,
    clear_opt_cache,
    opt_stats,
    optimize_fun,
    registered_passes,
    resolve_passes,
)

rng = np.random.default_rng(11)


def _trace(f, *args):
    return rp.trace_like(f, args)


# ---------------------------------------------------------------------------
# Golden structure tests: one fused SOAC per case
# ---------------------------------------------------------------------------


def test_fuse_map_map_golden():
    def f(xs):
        ys = rp.map(lambda x: x * 2.0, xs)
        return rp.map(lambda y: y + 1.0, ys)

    fun = _trace(f, np.ones(5))
    fz = optimize_fun(fun)
    check_fun(fz)
    assert count_soacs(fz) == 1
    run_both(rp.compile(fun), rng.standard_normal(5))


def test_fuse_map_reduce_golden():
    def f(xs, ys):
        zs = rp.map(lambda x, y: rp.sin(x) * y, xs, ys)
        return rp.sum(zs)

    fun = _trace(f, np.ones(6), np.ones(6))
    fz = optimize_fun(fun)
    check_fun(fz)
    assert count_soacs(fz) == 1
    txt = pretty(fz)
    assert "reduce" in txt and "map (" not in txt
    run_both(rp.compile(fun), rng.standard_normal(6), rng.standard_normal(6))


def test_fuse_map_scan_golden():
    def f(xs):
        ys = rp.map(lambda x: x * x + 0.5, xs)
        return rp.scan(lambda a, b: a + b, 0.0, ys)

    fun = _trace(f, np.ones(7))
    fz = optimize_fun(fun)
    check_fun(fz)
    assert count_soacs(fz) == 1
    assert "scan" in pretty(fz)
    run_both(rp.compile(fun), rng.standard_normal(7))


def test_fuse_map_hist_golden():
    def f(xs, inds):
        vs = rp.map(lambda x: x * 3.0 + 1.0, xs)
        return rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, vs)

    inds = np.array([0, 1, 1, 3, 2, 0], dtype=np.int64)
    fun = _trace(f, np.ones(6), inds)
    fz = optimize_fun(fun)
    check_fun(fz)
    assert count_soacs(fz) == 1
    assert "reduce_by_index" in pretty(fz)
    run_both(rp.compile(fun), rng.standard_normal(6), inds)


def test_fusion_respects_multi_consumer_maps():
    def f(xs):
        ys = rp.map(lambda x: x * 2.0, xs)
        zs = rp.map(lambda y: y + 1.0, ys)
        return rp.sum(zs) + ys[0]

    fun = _trace(f, np.ones(5))
    fz = optimize_fun(fun)
    check_fun(fz)
    # ys has two consumers, so the ys-producing map must survive.
    assert "map (" in pretty(fz)
    run_both(rp.compile(fun), rng.standard_normal(5))


# ---------------------------------------------------------------------------
# Redomap round trip: recognition, unfuse, AD through fused programs
# ---------------------------------------------------------------------------


def test_redomap_recognized_and_unfused():
    def f(xs):
        return rp.sum(rp.map(lambda x: rp.tanh(x) * 2.0, xs))

    fz = optimize_fun(_trace(f, np.ones(4)))
    (stm,) = fz.body.stms
    rm = recognize_redomap_lambda(stm.exp.lam)
    assert rm is not None and rm[0] == "add"
    uf = unfuse_fun(fz)
    check_fun(uf)
    assert count_soacs(uf) == 2  # map + canonical reduce
    xs = rng.standard_normal(4)
    np.testing.assert_allclose(
        Compiled(fz, optimize=False)(xs), Compiled(uf, optimize=False)(xs)
    )


def test_unfuse_is_identity_on_canonical_ops():
    def f(xs):
        return rp.reduce(lambda a, b: rp.minimum(a + b, 1e300), 0.0, xs)

    fun = optimize_fun(_trace(f, np.ones(4)), passes=AD_SAFE_PASSES)
    assert unfuse_fun(fun) == fun


def test_grad_through_fused_compiled():
    # vjp of a Compiled whose .fun is already fused must unfuse before AD.
    def f(xs, ys):
        zs = rp.map(lambda x, y: x * y + rp.sin(x), xs, ys)
        return rp.sum(zs)

    args = (rng.standard_normal(6), rng.standard_normal(6))
    fc = rp.compile(rp.trace_like(f, args))
    assert "map (" not in pretty(fc.fun)  # fused
    check_grad(f, args)


def test_hessian_diag_through_fused():
    def f(xs):
        return rp.sum(rp.map(lambda x: x * x * x, xs))

    fc = rp.compile(_trace(f, np.ones(5)))
    h = rp.hessian_diag(fc)
    xs = rng.standard_normal(5)
    for be in ("ref", "plan"):
        np.testing.assert_allclose(h(xs, backend=be), 6.0 * xs, rtol=1e-9)


def test_fused_scan_and_hist_gradients():
    def f(xs):
        s = rp.scan(lambda a, b: a + b, 0.0, rp.map(lambda x: x * 2.0, xs))
        return rp.sum(rp.map(lambda v: rp.tanh(v), s))

    args = (rng.standard_normal(5) * 0.5,)
    check_grad(f, args)


# ---------------------------------------------------------------------------
# Fuzz-corpus parity on fused programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 4242, 90210])
def test_fuzz_corpus_fused_parity(seed):
    from test_fuzz_programs import _gen_program

    prog = _gen_program(seed)
    xs = np.random.default_rng(seed).standard_normal(7) * 0.8
    fc = rp.compile(rp.trace_like(prog, (xs,)))
    run_both(fc, xs)
    g = rp.grad(fc)
    ref = g(xs, backend="ref")
    np.testing.assert_allclose(g(xs, backend="plan"), ref, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# Pass framework: registry, pass selection, stats, cache bounds
# ---------------------------------------------------------------------------


def test_registry_and_resolve():
    names = [p.name for p in registered_passes()]
    assert names == ["simplify", "cse", "fission", "tile", "fuse", "dce"]
    assert [p.name for p in resolve_passes(["dce", "simplify"])] == ["simplify", "dce"]
    with pytest.raises(ValueError):
        resolve_passes(["nope"])


def test_passes_argument_disables_fusion():
    """A pass list without ``fuse`` leaves the SOACs apart, an empty one
    leaves the program alone."""
    def f(xs):
        return rp.sum(rp.map(lambda x: x * 2.0, xs))

    fun = _trace(f, np.ones(4))
    off = optimize_fun(fun, passes=("simplify", "cse", "fission", "dce"))
    on = optimize_fun(fun, passes=("simplify", "cse", "fuse", "dce"))
    assert count_soacs(on) < count_soacs(off)
    assert optimize_fun(fun, passes=()) is fun


def test_opt_stats_counters():
    def f(x):
        return x * 1.0 + 0.0

    before = opt_stats()["passes"]["simplify"]["fired"]
    optimize_fun(_trace(f, 1.0))
    after = opt_stats()
    assert after["passes"]["simplify"]["fired"] > before
    assert set(after["passes"]) == {"simplify", "cse", "fission", "tile", "fuse", "dce"}
    assert set(after["fission"]) == {"split", "groups", "kept_coupled"}
    assert set(after["cache"]) == {"hits", "misses"}


def _fired(stats) -> int:
    return sum(p["fired"] for p in stats["passes"].values())


def test_fixed_point_fact_answers_until_the_epoch_moves():
    """A second optimise of a converged program fires no pass and hands the
    object back (a call ``hit``); ``clear_opt_cache`` makes the *same object*
    fire its passes again (a ``miss``), each once and quietly."""
    fun = _trace(lambda x: x * 1.0 + 0.0, 1.0)
    out = optimize_fun(fun)
    assert out is not fun
    s0 = opt_stats()
    assert optimize_fun(out) is out
    s1 = opt_stats()
    assert _fired(s1) == _fired(s0)
    assert s1["cache"]["hits"] == s0["cache"]["hits"] + 1
    clear_opt_cache()
    assert optimize_fun(out) is out
    s2 = opt_stats()
    assert _fired(s2) - _fired(s1) == len(registered_passes())
    assert s2["cache"]["misses"] == s1["cache"]["misses"] + 1
    assert optimize_fun(out) is out and _fired(opt_stats()) == _fired(s2)


# ---------------------------------------------------------------------------
# GMM acceptance: fewer SOACs with fusion on, results agree
# ---------------------------------------------------------------------------


def test_gmm_gradient_fewer_soacs_with_fusion():
    from repro.apps import datagen, gmm

    n, d, K = 1000, 64, 200  # Table 5 D0 — structural only, nothing executed
    fun = gmm.build_ir(n, d, K)
    g_on = rp.vjp(rp.compile(fun), wrt=[0, 1, 2])
    g_off = rp.vjp(
        rp.compile(fun, passes=AD_SAFE_PASSES), wrt=[0, 1, 2], passes=AD_SAFE_PASSES
    )
    s_on, s_off = count_soacs(g_on.fun), count_soacs(g_off.fun)
    assert s_on < s_off, (s_on, s_off)

    # Numerically identical gradients at an executable size, every backend.
    n, d, K = 24, 3, 4
    args = datagen.gmm_instance(n, d, K, 1)[:4]
    fun = gmm.build_ir(n, d, K)
    g_on = rp.vjp(rp.compile(fun), wrt=[0, 1, 2])
    g_off = rp.vjp(
        rp.compile(fun, passes=AD_SAFE_PASSES), wrt=[0, 1, 2], passes=AD_SAFE_PASSES
    )
    seeds = args + (1.0,)
    ref = g_off(*seeds, backend="ref")
    for be in ("ref", "plan"):
        out = g_on(*seeds, backend=be)
        for a, b in zip(ref, out):
            np.testing.assert_allclose(
                np.asarray(a), np.asarray(b), rtol=1e-8, atol=1e-10
            )


# ---------------------------------------------------------------------------
# Non-identity neutral elements must survive the fast paths (review fix)
# ---------------------------------------------------------------------------


def test_reduce_nonidentity_ne_all_backends():
    def f(xs):
        return rp.reduce(lambda a, b: a + rp.tanh(b), 5.0, xs)  # redomap shape

    def g(xs):
        return rp.reduce(lambda a, b: a + b, 7.0, xs)  # canonical binop

    def h(xs):
        return rp.reduce(lambda a, b: rp.minimum(a, b), -3.0, xs)  # min, ne not inf

    xs = rng.standard_normal(6)
    for fn, expect in (
        (f, 5.0 + np.tanh(xs).sum()),
        (g, 7.0 + xs.sum()),
        (h, min(-3.0, xs.min())),
    ):
        fc = rp.compile(rp.trace_like(fn, (xs,)))
        for be in ("ref", "plan"):
            np.testing.assert_allclose(fc(xs, backend=be), expect, rtol=1e-12)
        run_both(fc, xs)


def test_scan_nonidentity_ne_all_backends():
    def f(xs):
        return rp.scan(lambda a, b: a + b, 4.0, xs)  # canonical, ne != 0

    def g(xs):
        ys = rp.map(lambda x: x * 2.0, xs)
        return rp.scan(lambda a, b: a + b, 4.0, ys)  # fuses to redomap scan

    xs = rng.standard_normal(5)
    for fn, expect in ((f, 4.0 + np.cumsum(xs)), (g, 4.0 + np.cumsum(2.0 * xs))):
        fc = rp.compile(rp.trace_like(fn, (xs,)))
        for be in ("ref", "plan"):
            np.testing.assert_allclose(fc(xs, backend=be), expect, rtol=1e-12)


def test_fused_reduce_nonidentity_ne_through_fusion():
    # map fused INTO a reduce whose ne is not the op identity.
    def f(xs):
        ys = rp.map(lambda x: x * x, xs)
        return rp.reduce(lambda a, b: a + b, 10.0, ys)

    xs = rng.standard_normal(6)
    fc = rp.compile(rp.trace_like(f, (xs,)))
    assert count_soacs(fc.fun) == 1  # fused
    for be in ("ref", "plan"):
        np.testing.assert_allclose(
            fc(xs, backend=be), 10.0 + (xs * xs).sum(), rtol=1e-12
        )


# ---------------------------------------------------------------------------
# Tiling: row-tiled sibling slices become one map over iota(k·n)
# ---------------------------------------------------------------------------

_TN, _TD = 3, 4  # the tiled extent n and the summed extent d


def _gates(offsets, soac=True, local=False, literal=True, passes=("simplify", "cse", "dce")):
    """``map u ∈ iota(n): Σ_g act_g(gate(c_g + u))`` with
    ``gate(r) = Σ_j w[r, j]·x[j] + x[0]``, a different activation per g.
    ``soac=False`` makes ``gate`` one scalar read; ``local`` multiplies each
    product by ``y[u]``, a body-local value that depends on ``u``;
    ``literal=False`` maps over ``iota(size(y))``.  Returned after
    ``passes`` (by default the simplification and CSE the pass sees in the
    pipeline); the gates share ``iota(d)`` and ``x[0]`` even without CSE."""
    acts = (rp.sigmoid, rp.tanh, rp.sin, rp.cos)

    def f(w, x, y):
        js, x0 = rp.iota(_TD), x[0]

        def unit(u):
            v = y[u]

            def gate(r):
                if not soac:
                    return w[r, 0] * 2.0
                return rp.sum(rp.map(lambda j: w[r, j] * x[j] * (v if local else 1.0), js)) + x0

            out = acts[0](gate(offsets[0] + u if offsets[0] else u))
            for g, c in enumerate(offsets[1:], 1):
                out = out + acts[g](gate(c + u))
            return out

        return rp.sum(rp.map(unit, rp.iota(_TN if literal else rp.size(y))))

    args = (rng.standard_normal((max(offsets) + _TN, _TD)), rng.standard_normal(_TD),
            rng.standard_normal(_TN))
    return optimize_fun(_trace(f, *args), passes=passes), args


@pytest.mark.parametrize("k", [2, 3])
def test_tile_fires_on_row_tiled_gates_and_agrees_with_ref(k):
    """k gates at rows ``g·n + u`` become one map over ``iota(k·n)``; the
    primal and the gradient agree with the untiled program on ``ref``."""
    fun, args = _gates([g * _TN for g in range(k)])
    tiled = tile_fun(fun)
    assert tiled is not fun
    check_fun(tiled)
    assert f"iota({k * _TN})" in pretty(tiled)
    before = opt_stats()["passes"]["tile"]["changed"]
    fc = rp.compile(fun)
    assert opt_stats()["passes"]["tile"]["changed"] > before
    untiled = rp.compile(fun, passes=("simplify", "cse", "dce"))
    want = untiled(*args, backend="ref")
    run_both(fc, *args)
    np.testing.assert_allclose(fc(*args, backend="plan"), want, rtol=1e-12)
    g = rp.grad(fc, wrt=[0, 1])
    run_both(g, *args)
    for got, k_arg in zip(g(*args, backend="plan"), (0, 1)):
        np.testing.assert_allclose(got, fd_grad(untiled, args, k_arg), rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("case", ["offset_plus_one", "missing_g", "duplicated_g",
                                  "reads_u_dependent_local", "no_soac", "non_literal_extent"])
def test_tile_does_not_fire(case):
    """Offsets that do not tile ``[0, k·n)`` exactly once (``g·n + 1``, a
    missing or a duplicated g), a slice that reads a body-local value that
    depends on ``u``, a slice with no SOAC and a non-literal extent: the pass
    returns its input object."""
    n = _TN
    fun, _ = {
        "offset_plus_one": lambda: _gates([1, n + 1, 2 * n + 1]),
        "missing_g": lambda: _gates([0, n, 3 * n]),
        # CSE would share the duplicate; the same program with no g
        # repeated does tile without it (below).
        "duplicated_g": lambda: _gates([0, n, n, 2 * n], passes=()),
        "reads_u_dependent_local": lambda: _gates([0, n, 2 * n], local=True),
        "no_soac": lambda: _gates([0, n, 2 * n], soac=False),
        "non_literal_extent": lambda: _gates([0, n, 2 * n], literal=False),
    }[case]()
    assert tile_fun(fun) is fun
    if case == "duplicated_g":
        control, _ = _gates([0, n, 2 * n], passes=())
        assert tile_fun(control) is not control
