"""Simplify / CSE / fusion / while-bound / stripmine pass tests: each
preserves semantics and achieves its structural goal."""
import numpy as np
import pytest

import repro as rp
from repro.frontend.function import Compiled
from repro.ir import check_fun, count_stms, pretty
from repro.opt.cse import cse_fun
from repro.opt.fusion import fuse_fun
from repro.opt.simplify import simplify_fun
from repro.opt.stripmine import stripmine_fun
from repro.opt.while_bound import while_bound_fun
from helpers import PLAN_LEGS

rng = np.random.default_rng(7)


def _same(fun1, fun2, *args):
    r1 = Compiled(fun1, optimize=False)(*args)
    r2 = Compiled(fun2, optimize=False)(*args)
    r1 = r1 if isinstance(r1, tuple) else (r1,)
    r2 = r2 if isinstance(r2, tuple) else (r2,)
    for a, b in zip(r1, r2):
        np.testing.assert_allclose(np.asarray(a), np.asarray(b), rtol=1e-12)


def test_simplify_constant_folding():
    fun = rp.trace_like(lambda x: x * 1.0 + 0.0 + (2.0 * 3.0), (1.0,))
    s = simplify_fun(fun)
    assert count_stms(s) <= 2
    _same(fun, s, 1.7)


def test_simplify_copy_propagation():
    fun = rp.trace_like(lambda x: rp.where(True, x, x) + 0.0, (1.0,))
    s = simplify_fun(fun)
    _same(fun, s, 2.5)


def test_simplify_constant_branch_spliced():
    fun = rp.trace_like(lambda x: rp.cond(True, lambda: x * 2.0, lambda: x * 3.0), (1.0,))
    s = simplify_fun(fun)
    assert "if" not in pretty(s)
    _same(fun, s, 1.1)


def test_cse_merges_duplicates():
    def f(x):
        a = rp.sin(x) * rp.cos(x)
        b = rp.sin(x) * rp.cos(x)
        return a + b

    fun = rp.trace_like(f, (1.0,))
    c = cse_fun(fun)
    assert count_stms(c) < count_stms(fun)
    _same(fun, c, 0.3)


def test_cse_commutative_normalisation():
    def f(x, y):
        return x * y + y * x

    fun = rp.trace_like(f, (1.0, 2.0))
    c = cse_fun(fun)
    assert pretty(c).count("*") == 1
    _same(fun, c, 1.5, -0.5)


def test_cse_does_not_cross_branches():
    def f(x):
        a = rp.cond(x > 0.0, lambda: rp.sin(x), lambda: rp.cos(x))
        return a

    fun = rp.trace_like(f, (1.0,))
    c = cse_fun(fun)
    check_fun(c)
    _same(fun, c, 0.5)
    _same(fun, c, -0.5)


def test_fusion_map_map():
    def f(xs):
        ys = rp.map(lambda x: x * 2.0, xs)
        return rp.sum(rp.map(lambda y: y + 1.0, ys))

    fun = rp.trace_like(f, (np.ones(4),))
    fz = fuse_fun(fun)
    check_fun(fz)
    assert pretty(fz).count("map (") < pretty(fun).count("map (")
    _same(fun, fz, rng.standard_normal(4))


def test_fusion_keeps_multi_consumer():
    def f(xs):
        ys = rp.map(lambda x: x * 2.0, xs)
        return rp.sum(ys) + rp.sum(rp.map(lambda y: y + 1.0, ys))

    fun = rp.trace_like(f, (np.ones(4),))
    fz = fuse_fun(fun)
    _same(fun, fz, rng.standard_normal(4))


def test_while_bound_transform():
    def f(x):
        v, s = rp.while_loop(lambda v, s: v < 50.0, lambda v, s: (v * 2.0, s + v), (x, 0.0), bound=16)
        return s

    fun = rp.trace_like(f, (1.0,))
    wb = while_bound_fun(fun)
    check_fun(wb)
    assert "while" not in pretty(wb)
    _same(fun, wb, 1.3)


def test_while_inspector_inserted():
    def f(x):
        v, s = rp.while_loop(lambda v, s: v < 50.0, lambda v, s: (v * 2.0, s + v), (x, 0.0))
        return s

    fun = rp.trace_like(f, (1.0,))
    wb = while_bound_fun(fun)
    check_fun(wb)
    # inspector while + bounded for-loop both present
    txt = pretty(wb)
    assert "while" in txt and "for" in txt
    _same(fun, wb, 1.3)


def test_stripmine_semantics():
    def f(x):
        return rp.fori_loop(37, lambda i, a: a + rp.astype(i, rp.F64) * x, 0.0, stripmine=8)

    fun = rp.trace_like(f, (1.0,))
    sm = stripmine_fun(fun)
    check_fun(sm)
    _same(fun, sm, 0.7)


def _matmul():
    return rp.compile(rp.trace_like(lambda a, b: rp.matmul(a, b),
                                    (np.ones((3, 4)), np.ones((4, 2)))))


def test_acc_opt_preserves_matmul_semantics():
    """The matmul adjoint means the same optimised (its products contracted)
    as unoptimised."""
    from repro.core.api import vjp

    f = _matmul()
    raw = vjp(f, optimize=False)
    opt = vjp(f)
    A, B, S = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    _same(raw.fun, opt.fun, A, B, S)


def test_vjp_has_no_acc_opt_knob():
    """The §6.1 accumulator rewrites are gone, and so is their switch."""
    with pytest.raises(TypeError):
        rp.vjp(_matmul(), acc_opt=True)


@pytest.mark.parametrize("backend", PLAN_LEGS)
def test_plan_does_the_accumulator_work_of_section_6_1(backend):
    """What §6.1 rewrites accumulator updates into, the plan does as it runs
    them.  The matmul adjoint's updates run as ``contract``s (one
    matmul each) and view adds, with no gather and no run-time fallback.
    A data-dependent ``tbl[i]`` update takes ``np.add.at``, and its gradient
    matches ``ref`` and central differences."""
    from repro.exec.plan import clear_plan_cache, plan_cache_stats
    from helpers import fd_grad, numpy_call_census

    v = rp.vjp(_matmul())
    A, B, S = rng.standard_normal((3, 4)), rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    clear_plan_cache()
    v(A, B, S, backend=backend)
    index = plan_cache_stats()["index"]
    assert index["contract_ops"] >= 1 and index["gather_index_ops"] == 0, index
    for _ in range(3):
        _, abar, bbar = v(A, B, S, backend=backend)
    assert plan_cache_stats()["index"]["view_fallbacks"] == index["view_fallbacks"]
    np.testing.assert_allclose(abar, S @ B.T, rtol=1e-12)
    np.testing.assert_allclose(bbar, A.T @ S, rtol=1e-12)

    def lookup(xs, tbl):
        def per(x):
            i = rp.astype(rp.floor(abs(x)), rp.I64) % 4
            return tbl[i] * x

        return rp.sum(rp.map(per, xs))

    xs, tbl = rng.standard_normal(6) * 3, rng.standard_normal(4)
    fc = rp.compile(rp.trace_like(lookup, (xs, tbl)))
    g = rp.grad(fc, wrt=[1])
    got = g(xs, tbl, backend=backend)
    assert numpy_call_census(lambda: g(xs, tbl, backend=backend))["scatter"] == 1
    np.testing.assert_allclose(got, g(xs, tbl, backend="ref"), rtol=1e-12)
    np.testing.assert_allclose(got, fd_grad(fc, (xs, tbl), 1), rtol=1e-6, atol=1e-8)
