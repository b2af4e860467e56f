"""Reverse AD of ``map`` (paper §5.4).

The return sweep of ``let ys = map (λx → body) as`` is a map over
``(as, ȳs)`` whose lambda re-executes the forward sweep of ``body``
(redundant execution) and then runs its return sweep:

* adjoints of the lambda's *parameters* come back elementwise and are added
  to the adjoints of the argument arrays;
* adjoints of free *scalars* are returned per iteration and summed with a
  ``reduce (+)``;
* adjoints of free *arrays* become **accumulators**: reads (``a[i]``) in the
  original lambda turn into ``upd`` accumulations in the reverse lambda.
  Arrays whose adjoint is not yet an accumulator get a fresh ``withacc``
  region around the reverse map; accumulators inherited from an enclosing
  reverse map are threaded straight through (the paper's implicit conversion
  between accumulators and arrays of accumulators).
"""
from __future__ import annotations

from typing import List

from ..ir.ast import AtomExp, Body, Lambda, Map, Stm, Var, WithAcc
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars
from ..ir.types import AccType, ArrayType, elem_type, is_float, rank_of, with_rank
from ..util import ADError, fresh
from .adjoint import AdjScope

__all__ = ["rev_map"]


def rev_map(vjp, stm: Stm, e: Map, sc: AdjScope) -> None:
    if e.accs:
        raise ADError(
            "reverse AD of maps with accumulators is unsupported "
            "(higher-order derivatives: use jvp(vjp(f)))"
        )
    b = sc.b
    lam = e.lam

    # Adjoints of the map's results (zeros where unused).
    ybars: List[Var] = []
    for v in stm.pat:
        if is_float(v.type):
            yb = sc.lookup(v)
            if not isinstance(yb, Var):
                yb = b.copy(yb, v.name + "_bar")
            ybars.append(yb)
        else:
            ybars.append(None)  # type: ignore[arg-type]

    # Classify the lambda's free variables (non-differentiable data skipped).
    fvs = [
        v
        for v in free_vars(lam).values()
        if is_float(v.type) and v.name not in vjp.nodiff
    ]
    scalar_fvs = [v for v in fvs if rank_of(v.type) == 0]
    array_fvs = [v for v in fvs if rank_of(v.type) > 0]
    inherited = [v for v in array_fvs if v.name in vjp.acc_env]
    local = [v for v in array_fvs if v.name not in vjp.acc_env]

    # Current adjoint values of the locally-accumulated arrays.
    local_cur: List[Var] = []
    for v in local:
        a = sc.lookup(v)
        if not isinstance(a, Var):
            a = b.copy(a, v.name + "_bar")
        local_cur.append(a)

    # ----- build the reverse lambda -------------------------------------------
    ybar_params = []
    for v, yb in zip(stm.pat, ybars):
        if yb is None:
            continue
        at = v.type
        ybar_params.append(
            Var(fresh(v.name + "_be"), with_rank(elem_type(at), rank_of(at) - 1))
        )
    acc_order = list(local) + list(inherited)
    acc_params = [
        Var(fresh(v.name + "_acc"), AccType(elem_type(v.type), rank_of(v.type)))
        for v in acc_order
    ]

    saved_acc = dict(vjp.acc_env)
    for v, ap in zip(acc_order, acc_params):
        vjp.acc_env[v.name] = ap

    lb = Builder()
    seeds: List = []
    j = 0
    for v, r in zip(stm.pat, lam.body.result):
        if is_float(v.type):
            seeds.append(ybar_params[j])
            j += 1
        else:
            seeds.append(None)
    # An element of a non-differentiable array is data too: nothing reads its
    # adjoint, so none is built.  Sibling lambdas reuse parameter names, so
    # the marking lasts only while this lambda is transformed.
    data_params = {
        p.name for p, a in zip(lam.params, e.arrs) if a.name in vjp.nodiff
    } - vjp.nodiff
    diff_args = [
        (p, a)
        for p, a in zip(lam.params, e.arrs)
        if is_float(p.type) and a.name not in vjp.nodiff
    ]
    want = [p for p, _ in diff_args] + scalar_fvs
    vjp.nodiff.update(data_params)
    try:
        adjs = vjp.transform_scope(lam.body, seeds, want, lb)
    finally:
        vjp.nodiff.difference_update(data_params)
    acc_res = [vjp.acc_env[v.name] for v in acc_order]
    lam_body = lb.finish(tuple(acc_res) + tuple(adjs))

    # Restore the enclosing accumulator environment.
    vjp.acc_env.clear()
    vjp.acc_env.update(saved_acc)

    rev_params = tuple(lam.params) + tuple(ybar_params) + tuple(acc_params)
    rev_lam = Lambda(rev_params, lam_body)
    map_arrs = tuple(e.arrs) + tuple(yb for yb in ybars if yb is not None)

    out_names = (
        [v.name + "_acc" for v in acc_order]
        + [p.name + "_bar" for p, _ in diff_args]
        + [v.name + "_c" for v in scalar_fvs]
    )

    if local:
        # Fresh withacc region for the locally-materialised adjoints.
        wa_params = [
            Var(fresh(v.name + "_wacc"), AccType(elem_type(v.type), rank_of(v.type)))
            for v in local
        ]
        wb = Builder()
        # Inside the region the map consumes the fresh accs (for local) and
        # the enclosing accs (for inherited, threaded through as secondary
        # results).
        inner_accs = list(wa_params) + [vjp.acc_env[v.name] for v in inherited]
        vs = wb.map(rev_lam, map_arrs, inner_accs, names=out_names)
        local_out = vs[: len(local)]
        rest = vs[len(local):]
        wa_body = wb.finish(tuple(local_out) + tuple(rest))
        wa_lam = Lambda(tuple(wa_params), wa_body)
        wa_names = [v.name + "_bar" for v in local] + [
            n for n in out_names[len(local):]
        ]
        ws = b.with_acc(local_cur, wa_lam, names=wa_names)
        for v, arr_out in zip(local, ws[: len(local)]):
            sc.set(v, arr_out)
        rest_out = ws[len(local):]
    else:
        vs = b.map(rev_lam, map_arrs, [vjp.acc_env[v.name] for v in inherited], names=out_names)
        rest_out = vs

    # Inherited accumulators continue with their post-map values.
    for v, nv in zip(inherited, rest_out[: len(inherited)]):
        vjp.acc_env[v.name] = nv
    rest_out = rest_out[len(inherited):]

    # Elementwise adjoints of the argument arrays.
    for (_, arr), xbar in zip(diff_args, rest_out):
        sc.add(arr, xbar)

    # Per-iteration contributions of free scalars: sum them.
    contribs = rest_out[len(diff_args):]
    for v, carr in zip(scalar_fvs, contribs):
        a1 = Var(fresh("a"), v.type)
        a2 = Var(fresh("b"), v.type)
        ab = Builder()
        s = ab.add(a1, a2, "s")
        total = b.reduce(
            Lambda((a1, a2), ab.finish([s])),
            [const(0.0, elem_type(v.type))],
            [carr],
            names=[v.name + "_c"],
        )[0]
        sc.add(v, total)
