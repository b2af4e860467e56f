"""``grad`` and ``hessian_diag`` compile only the results they return.

``rp.grad`` keeps the adjoints of its vjp and ``rp.hessian_diag`` keeps x̄̇
of its ``jvp ∘ vjp``.  Each is checked against the program before that cut,
on every cold-compiled benchmark derivative that goes through one of the two
(the HAND jvp and the BA vjp are not cut).  The parameter list must be the
same, only the returned results may be left, and there must be fewer
statements.  The values must be bitwise-equal to the uncut program's
matching outputs.
"""
import numpy as np
import pytest

import repro as rp
from repro.apps import datagen, gmm, kmeans, kmeans_sparse, lstm, rsbench, xsbench
from repro.core.api import _pre_ad
from repro.core.jvp import jvp_fun
from repro.core.vjp import vjp_fun
from repro.ir import pretty
from repro.ir.traversal import count_stms
from repro.opt.pipeline import AD_SAFE_PASSES, optimize_fun


def _inputs():
    """``name -> (build_ir, wrt, inputs)`` at the reduced sizes of
    ``helpers.cold_programs``."""
    lstm_inp = datagen.lstm_instance(2, 3, 4, 4, 0)
    xs_inp = datagen.xs_instance(30, 6, 16, 0)
    return {
        "gmm": (lambda: gmm.build_ir(16, 4, 3), [0, 1, 2], datagen.gmm_instance(16, 4, 3, 0)[:4]),
        "kmeans": (lambda: kmeans.build_ir(40, 3, 4), [1], datagen.kmeans_instance(3, 40, 4, 0)),
        "kmeans_sparse": (lambda: kmeans_sparse.build_ir(20, 3, 12), [3],
                          datagen.sparse_kmeans_instance(20, 12, 3, 3, 0)),
        "lstm": (lambda: lstm.build_ir(3, 2, 4, 4), [1, 2, 3, 4],
                 lstm_inp[:5] + lstm_inp[7:]),
        "xsbench": (lambda: xsbench.build_ir(30, 6, 16, xs_inp[3].shape[1]), [1, 4], xs_inp),
        "rsbench": (lambda: rsbench.build_ir(40, 4, 12), [2, 3], datagen.rs_instance(40, 12, 4, 0)),
    }


def _bitwise(got, want) -> None:
    got = got if isinstance(got, tuple) else (got,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


def _same_params(cut, full, primal) -> None:
    """Same parameter types, and the primal's parameters by name (seeds and
    tangents get fresh names in every transform)."""
    assert [p.type for p in cut.params] == [p.type for p in full.params]
    names = [p.name for p in primal.params]
    assert [p.name for p in cut.params][:len(names)] == names


@pytest.mark.parametrize("name", list(_inputs()))
def test_grad_is_the_vjp_cut_to_its_adjoints(name):
    build_ir, wrt, inp = _inputs()[name]
    fc = rp.compile(build_ir())
    g = rp.grad(fc, wrt=wrt)
    full = rp.vjp(fc, wrt=wrt)
    cut = g.adfun.fun
    _same_params(cut, full.fun, fc.fun)
    assert len(full.fun.body.result) == 1 + len(wrt) == 1 + len(cut.body.result)
    assert count_stms(cut) < count_stms(full.fun)
    for be in ("ref", "plan"):
        _bitwise(g.adfun(*inp, 1.0, backend=be), full(*inp, 1.0, backend=be)[1:])
        _bitwise(g(*inp, backend=be), full(*inp, 1.0, backend=be)[1:])


def test_hessian_diag_is_the_jvp_of_vjp_cut_to_its_last_result():
    build_ir, _wrt, (pts, ctr) = _inputs()["kmeans"]
    fc = rp.compile(build_ir())
    h = rp.hessian_diag(fc, wrt=1)
    # The uncut program, through the same stages as ``hessian_diag``.
    gradf = optimize_fun(vjp_fun(_pre_ad(fc.fun), wrt=[1]), passes=AD_SAFE_PASSES)
    full = rp.compile(jvp_fun(gradf))
    cut = h.adfun.fun
    _same_params(cut, full.fun, fc.fun)
    assert len(full.fun.body.result) == 4 and len(cut.body.result) == 1
    assert count_stms(cut) < count_stms(full.fun)
    args = (pts, ctr, 1.0, np.zeros_like(pts), np.ones_like(ctr), 0.0)
    for be in ("ref", "plan"):
        _bitwise(h.adfun(*args, backend=be), full(*args, backend=be)[-1:])
        _bitwise(h(pts, ctr, backend=be), full(*args, backend=be)[-1:])


def _stms(body):
    from repro.ir.traversal import scopes

    for s in body.stms:
        yield s
        for _, inner in scopes(s.exp):
            yield from _stms(inner)


def test_projected_kmeans_hessian_computes_no_gradient_and_no_distance_tangent():
    # x̄ and x̄̇ share one withacc in jvp ∘ vjp: DCE drops x̄'s accumulator with
    # its update chain, so the adjoint map over the points has x̄̇'s column
    # only.  The first-index reduce never reads the distances' tangents, so
    # the distance map computes none.
    from repro.ir.analysis import recognize_binop_lambda
    from repro.ir.ast import Map, Reduce, WithAcc
    from repro.ir.traversal import exp_free_vars

    build_ir, _wrt, _inp = _inputs()["kmeans"]
    fc = rp.compile(build_ir())
    fun = rp.hessian_diag(fc, wrt=1).adfun.fun
    (wa,) = [s.exp for s in fun.body.stms if isinstance(s.exp, WithAcc)]
    assert len(wa.arrs) == 1
    (top,) = [s for s in wa.lam.body.stms if isinstance(s.exp, Map)]
    assert len(top.pat) == 1
    stms = list(_stms(fun.body))
    defs = {v.name: s for s in stms for v in s.pat}
    (mins,) = [s.exp for s in stms if isinstance(s.exp, Reduce)
               and recognize_binop_lambda(s.exp.lam) == "min"]
    dist = defs[mins.arrs[0].name]
    tangents = {p.name for p in fun.params[len(fc.fun.params) + 1:]}
    assert len(dist.pat) == 1 and not tangents & {v.name for v in exp_free_vars(dist.exp)}


def _maps_over(fun, extent):
    """The maps (at any depth) whose first array is an ``iota(extent)``."""
    from repro.ir.ast import Const, Iota, Map

    stms = list(_stms(fun.body))
    iotas = {v.name for s in stms for v in s.pat
             if isinstance(s.exp, Iota) and s.exp.n == Const(extent, s.exp.n.type)}
    return [s.exp for s in stms if isinstance(s.exp, Map) and s.exp.arrs[0].name in iotas]


def test_projected_kmeans_derivatives_differentiate_one_centre_per_point():
    # The min rule keeps its one-hot adjoint sparse up to the distance map
    # (rules_map's hot lane): the only map over the k centres left is the
    # forward sweep's distance map; the adjoint updates the nearest centre
    # alone, inside a loop of at most one trip.
    from repro.ir.ast import Loop

    build_ir, _wrt, _inp = _inputs()["kmeans"]
    fc = rp.compile(build_ir())
    k = 3
    for fun in (rp.grad(fc, wrt=[1]).adfun.fun, rp.hessian_diag(fc, wrt=1).adfun.fun):
        (dist,) = _maps_over(fun, k)
        assert not dist.accs
        loops = [s.exp for s in _stms(fun.body) if isinstance(s.exp, Loop)]
        assert len(loops) == 1 and "upd" in pretty(loops[0].body)


def test_a_map_result_with_a_second_reader_keeps_the_dense_one_hot():
    # Each of GMM's two logsumexps reads its ``vals`` twice (the max and the
    # exp-sum), so both max rules build the one-hot map, and the vals maps
    # are reversed over all their lanes.
    from test_ad_minmax import _one_hot_maps

    build_ir, wrt, _inp = _inputs()["gmm"]
    assert len(_one_hot_maps(rp.grad(rp.compile(build_ir()), wrt=wrt).adfun.fun)) == 2
