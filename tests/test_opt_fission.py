"""Reduce fission (`opt/fission.py`): k-ary reduce/scan/hist statements split
into one SOAC per independent component group.

Unit tests pin *what* splits (independent components) and what must not
(argmin-style coupled operators); the differential tests run the k-means,
GMM and HAND derivatives with and without the pass against each other and
against the apps' hand-written derivatives; the census pins that the
`kmeans_newton` and `gmm_grad` plans keep no generic fold.
"""
import numpy as np
import pytest

import repro as rp
from repro.apps import datagen, gmm, hand, kmeans
from repro.ir import F64, I64, Fun, Lambda, Var, array
from repro.ir.analysis import recognize_binop_lambda
from repro.ir.ast import Reduce, ReduceByIndex, Scan
from repro.ir.builder import Builder, const
from repro.ir.typecheck import check_fun
from repro.opt.fission import component_groups, fission_fun, fission_stats
from repro.opt.pipeline import AD_SAFE_PASSES, clear_opt_cache
from helpers import argmin_pair_lambda, reduce_census

rng = np.random.default_rng(11)


def _soacs(fun, klass=(Reduce, Scan, ReduceByIndex)):
    return [s for s in fun.body.stms if isinstance(s.exp, klass)]


def _same_results(fun, split, *args):
    a = rp.compile(fun, passes=())(*args, backend="ref")
    b = rp.compile(split, passes=())(*args, backend="ref")
    for x, y in zip(a, b):
        np.testing.assert_allclose(np.asarray(x), np.asarray(y), rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Unit: what splits, what does not
# ---------------------------------------------------------------------------


def test_independent_pair_splits_into_canonical_reduces():
    def f(xs, dxs):
        return rp.reduce(lambda a, da, b, db: (a + b, da + db), (0.0, 0.0), xs, dxs)

    fun = rp.trace_like(f, (np.ones(3), np.ones(3)))
    before = fission_stats()
    split = fission_fun(fun)
    check_fun(split)
    stms = _soacs(split)
    assert [len(s.exp.nes) for s in stms] == [1, 1]
    assert [recognize_binop_lambda(s.exp.lam) for s in stms] == ["add", "add"]
    assert [s.exp.arrs[0].name for s in stms] == [p.name for p in fun.params]
    # result names are kept, so nothing downstream needs rewriting
    assert [v.name for s in stms for v in s.pat] == [v.name for v in fun.body.stms[-1].pat]
    after = fission_stats()
    assert (after["split"] - before["split"], after["groups"] - before["groups"]) == (1, 2)
    _same_results(fun, split, rng.standard_normal(7), rng.standard_normal(7))


def test_argmin_pair_and_argmin_with_tangent_stay_whole():
    xs = Var("xs", array(F64))
    b = Builder()
    idx = b.iota(b.emit1(rp.ir.ast.Size(xs), "n"))
    lam = argmin_pair_lambda()
    b.reduce(lam, [const(np.inf, F64), const(2**62, I64)], [xs, idx], names=["y", "iy"])
    fun = Fun("argmin", (xs,), b.finish(b.stms[-1].pat))
    assert component_groups(lam, 2) == [(0, 1)]
    before = fission_stats()["kept_coupled"]
    assert fission_fun(fun) == fun
    assert fission_stats()["kept_coupled"] == before + 1

    # (v, i, v̇): jvp lifts the operator; v̇ is selected by the same predicate.
    lifted = _soacs(rp.jvp(rp.compile(fun, passes=()), passes=()).fun)
    (stm,) = [s for s in lifted if len(s.exp.nes) == 3]
    assert component_groups(stm.exp.lam, 3) == [(0, 1, 2)]


def test_three_components_two_coupled_give_groups_of_two_and_one():
    def f(xs, ys, zs):
        return rp.reduce(
            lambda a, b, c, x, y, z: (a + x, rp.minimum(b, y) + 0.0 * z, c * z),
            (0.0, np.inf, 1.0), xs, ys, zs,
        )

    fun = rp.trace_like(f, (np.ones(3),) * 3)
    (stm,) = _soacs(fun)
    assert component_groups(stm.exp.lam, 3) == [(0,), (1, 2)]
    split = fission_fun(fun)
    check_fun(split)
    assert [len(s.exp.nes) for s in _soacs(split)] == [1, 2]
    _same_results(fun, split, *(rng.standard_normal(6) for _ in range(3)))


def test_scan_and_hist_split_and_hist_keeps_its_indices():
    def f(inds, xs, ys):
        s = rp.scan(lambda a, b, x, y: (a + x, b * y), (0.0, 1.0), xs, ys)
        h = rp.reduce_by_index(
            4, lambda a, b, x, y: (a + x, rp.maximum(b, y)), (0.0, -np.inf), inds, xs, ys
        )
        return s + h

    fun = rp.trace_like(f, (np.array([0, 1]), np.ones(2), np.ones(2)))
    split = fission_fun(fun)
    check_fun(split)
    assert [type(s.exp) for s in _soacs(split)] == [Scan, Scan, ReduceByIndex, ReduceByIndex]
    hists = _soacs(split, ReduceByIndex)
    assert {h.exp.inds.name for h in hists} == {fun.params[0].name}
    assert all(h.exp.num_bins == const(4, I64) for h in hists)
    assert all(len(s.exp.nes) == 1 for s in _soacs(split))
    _same_results(fun, split, np.array([3, 0, 3, 9, 1]), rng.standard_normal(5),
                  rng.standard_normal(5))


def _dual_row_sum():
    """``reduce (\\a ȧ x ẋ -> (a+x, ȧ+ẋ)) (0-row, 0-row) m ṁ`` over rows:
    array-typed elements and neutral elements that are *variables*."""
    m, dm = Var("m", array(F64, 2)), Var("dm", array(F64, 2))
    b = Builder()
    nes = [b.zeros_like(b.index(v, (const(0, I64),), "r0")) for v in (m, dm)]
    row = array(F64, 1)
    a, da, x, dx = (Var(n, row) for n in ("a", "da", "x", "dx"))
    lb = Builder()
    lam = Lambda((a, da, x, dx), lb.finish([lb.add(a, x, "s"), lb.add(da, dx, "ds")]))
    outs = b.emit(Reduce(lam, tuple(nes), (m, dm)), ["sum", "dsum"])
    return Fun("dual_row_sum", (m, dm), b.finish(outs)), nes


def test_array_neutral_elements_survive():
    fun, nes = _dual_row_sum()
    split = fission_fun(fun)
    check_fun(split)
    stms = _soacs(split)
    assert [s.exp.nes for s in stms] == [(nes[0],), (nes[1],)]
    _same_results(fun, split, rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))


def test_nested_soacs_are_split_and_pass_is_idempotent():
    def f(m, dm):
        return rp.map(
            lambda r, dr: rp.reduce(lambda a, da, x, dx: (a + x, da + dx), (0.0, 0.0), r, dr),
            m, dm,
        )

    fun = rp.trace_like(f, (np.ones((2, 3)), np.ones((2, 3))))
    once = fission_fun(fun)
    inner = once.body.stms[-1].exp.lam.body
    assert [len(s.exp.nes) for s in inner.stms if isinstance(s.exp, Reduce)] == [1, 1]
    assert fission_fun(once) == once


# ---------------------------------------------------------------------------
# Differential: apps with and without the pass, and against manual derivatives
# ---------------------------------------------------------------------------


NO_FISSION = ("simplify", "cse", "fuse", "dce")


def _with_and_without(derive):
    """``derive(passes)`` with the derivative program optimised by the default
    pipeline and by the pipeline without fission (the ablation)."""
    clear_opt_cache()
    on = derive(None)
    clear_opt_cache()
    off = derive(NO_FISSION)
    clear_opt_cache()
    return on, off


def _flat(res):
    if isinstance(res, (tuple, list)):
        return [a for r in res for a in _flat(r)]
    return [np.asarray(res)]


def _assert_close(got, want, rtol, atol):
    got, want = _flat(got), _flat(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=rtol, atol=atol)


def test_kmeans_grad_hessian_and_dot_product_identity():
    k, n, d = 3, 40, 4
    pts, ctr = datagen.kmeans_instance(k, n, d, seed=5)
    fc = rp.compile(kmeans.build_ir(n, k, d))

    def derive(passes):
        # ``hessian_diag`` by hand, so that the final pass list can be chosen:
        # jvp of the AD-safe-optimised vjp, seeded with ones on the centres.
        hof = rp.jvp(rp.vjp(fc, wrt=[1], passes=AD_SAFE_PASSES), passes=passes)
        hess = hof(pts, ctr, 1.0, np.zeros_like(pts), np.ones_like(ctr), 0.0)[-1]
        return rp.grad(fc, wrt=[1], passes=passes)(pts, ctr), hess

    on, off = _with_and_without(derive)
    _assert_close(on[1], rp.hessian_diag(fc, wrt=1)(pts, ctr), rtol=0, atol=0)
    _assert_close(on, off, rtol=1e-10, atol=1e-10)
    _assert_close(on, kmeans.grad_hess_manual(pts, ctr), rtol=1e-6, atol=1e-6)

    # ⟨Jv, w⟩ = ⟨v, Jᵀw⟩ on the scalar cost: J is the full gradient row.
    dp, dc, w = rng.standard_normal(pts.shape), rng.standard_normal(ctr.shape), 0.7
    jv = rp.jvp(fc)(pts, ctr, dp, dc)[-1]
    _, pbar, cbar = rp.vjp(fc)(pts, ctr, w)
    lhs, rhs = float(jv) * w, float((pbar * dp).sum() + (cbar * dc).sum())
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_gmm_grad():
    n, d, K = 16, 4, 3
    inp = datagen.gmm_instance(n, d, K, seed=2)[:4]
    fc = rp.compile(gmm.build_ir(n, d, K))
    on, off = _with_and_without(lambda passes: rp.grad(fc, wrt=[0, 1, 2], passes=passes)(*inp))
    _assert_close(on, off, rtol=1e-10, atol=1e-10)
    _assert_close(on, gmm.grad_manual(*inp), rtol=1e-7, atol=1e-7)


def test_hand_forward_jacobian():
    inp = datagen.hand_instance(3, 8, seed=4)
    theta = inp[0]
    fc = rp.compile(hand.build_ir(3, 8))
    on, off = _with_and_without(
        lambda passes: hand.jacobian_fwd_ad(rp.jvp(fc, passes=passes), *inp))
    _assert_close(on, off, rtol=1e-10, atol=1e-10)
    eps = 1e-6
    fd = [
        (hand.objective_np(theta + e, *inp[1:]) - hand.objective_np(theta - e, *inp[1:]))
        / (2 * eps)
        for e in eps * np.eye(len(theta))
    ]
    _assert_close(on, np.asarray(fd), rtol=2e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# Strategy census: no element-at-a-time fold left in the hot derivatives
# ---------------------------------------------------------------------------


def test_kmeans_newton_and_gmm_plans_have_no_generic_fold():
    # min/max differentiate through a bulk first-index reduce (§5.1.1), so the
    # k-means gradient and Hessian and the GMM gradient (logsumexp's max)
    # keep every reduce on the ufunc/redomap strategies.
    fk = rp.compile(kmeans.build_ir(23, 5, 7))
    fg = rp.compile(gmm.build_ir(16, 4, 3))
    for fun in (rp.grad(fk, wrt=[1]).adfun.fun, rp.hessian_diag(fk, wrt=1).adfun.fun,
                rp.grad(fg, wrt=[0, 1, 2]).adfun.fun):
        census = reduce_census(fun)
        assert census and not [c for c in census if c[1] == "generic"], census


@pytest.mark.parametrize("extent", [0, 1])
def test_split_reduces_on_degenerate_extents(extent):
    def f(xs, dxs):
        return rp.reduce(lambda a, da, b, db: (a + b, da * db), (0.0, 1.0), xs, dxs)

    fc = rp.compile(rp.trace_like(f, (np.ones(3), np.ones(3))))
    assert [len(s.exp.nes) for s in _soacs(fc.fun)] == [1, 1]
    x = np.full(extent, 2.5)
    for be in ("ref", "plan"):
        got = fc(x, x, backend=be)
        np.testing.assert_array_equal(np.asarray(got), [x.sum(), x.prod()])
