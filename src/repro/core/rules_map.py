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

**The hot lane.**  When the only adjoint of the map's results is a pending
one-hot of the min/max rule (``adjoint.AdjScope.take_one_hot``) — ȳ at
index ``iy``, zero elsewhere — every other lane of the reverse map would
differentiate its body against a zero seed.  So no reverse map is built:
the lambda's parameters are bound to ``as[iy]``, its forward and return
sweeps run once, seeded with ȳ, and the parameter adjoints go to
``ā[iy]``.  Free scalars and free arrays receive their adjoints as above.
When no element holds ``y`` (an empty array, or a constant neutral element
no element equals) nothing is read and nothing is added: the lane runs in a
``loop`` of ``iy < n ? 1 : 0`` trips.  A ``loop``, not an ``if``: the
vectorised executor runs both branches of a lane-varying ``if`` under masks,
so an empty array would still be read, while a loop no lane enters does not
run.  On k-means this differentiates one centre per point instead of all k.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ir.ast import Atom, AtomExp, Index, Iota, Lambda, Map, Size, Stm, Var
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars
from ..ir.types import I64, AccType, elem_type, is_float, rank_of, with_rank
from ..util import ADError, fresh
from .adjoint import AdjScope

__all__ = ["rev_map"]


def rev_map(vjp, stm: Stm, e: Map, sc: AdjScope) -> None:
    if e.accs:
        raise ADError(
            "reverse AD of maps with accumulators is unsupported "
            "(higher-order derivatives: use jvp(vjp(f)))"
        )
    hot = sc.take_one_hot(stm.pat)
    if hot is not None:
        _rev_hot_lane(vjp, e, sc, *hot)
        return
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

    scalar_fvs, inherited, local = _free_vars(vjp, lam)

    # Current adjoint values of the locally-accumulated arrays.
    local_cur = [_value(sc, v) for v in local]

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
    acc_params = [_acc_var(v, "_acc") for v in acc_order]

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
    diff_args = _diff_args(vjp, e)
    want = [p for p, _ in diff_args] + scalar_fvs
    adjs = _transform_lambda(vjp, e, seeds, want, lb)
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

    def emit(bb: Builder, accs: Sequence[Var]):
        return bb.map(rev_lam, map_arrs, accs, names=out_names)

    rest_out = _with_local_accs(vjp, sc, local, local_cur, inherited, emit, out_names)

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


def _rev_hot_lane(vjp, e: Map, sc: AdjScope, iy: Var, ybars: List[Optional[Atom]]) -> None:
    """The return sweep of ``e`` when its results' adjoint is ȳ at lane
    ``iy`` alone (module docstring): the lane runs once, in a loop of at
    most one trip, with every array adjoint it touches an accumulator."""
    lam = e.lam
    scalar_fvs, inherited, local = _free_vars(vjp, lam)
    diff_args = _diff_args(vjp, e)
    # The argument arrays receive ``ā[iy] += x̄`` through accumulators too:
    # inherited ones when the enclosing map has one, else fresh ones.
    for _, a in diff_args:
        if all(a.name != v.name for v in inherited + local):
            (inherited if a.name in vjp.acc_env else local).append(a)
    if not (inherited or local or scalar_fvs):
        return
    local_cur = [_value(sc, v) for v in local]

    threaded = local + inherited
    out_names = [v.name + "_acc" for v in threaded] + [v.name + "_c" for v in scalar_fvs]

    def emit(bb: Builder, accs: Sequence[Var]):
        acc_params = [_acc_var(v, "_acc") for v in threaded]
        c_params = [Var(fresh(v.name + "_c"), v.type) for v in scalar_fvs]
        saved_acc = dict(vjp.acc_env)
        vjp.acc_env.update((v.name, p) for v, p in zip(threaded, acc_params))
        lb = Builder()
        for p, a in zip(lam.params, e.arrs):
            # ``iota n`` holds ``iy`` at ``iy``: no read.
            iota = isinstance(sc.bound_by(a), Iota) and p.type == I64
            lb.emit_into((p,), AtomExp(iy) if iota else Index(a, (iy,)))
        want = [p for p, _ in diff_args] + scalar_fvs
        init = {v.name: c for v, c in zip(scalar_fvs, c_params)}
        adjs = _transform_lambda(vjp, e, ybars, want, lb, init)
        lsc = AdjScope(lb, vjp.acc_env, nodiff=vjp.nodiff)
        for (_, a), xbar in zip(diff_args, adjs):
            lsc.add_at(a, (iy,), xbar)
        body = lb.finish([vjp.acc_env[v.name] for v in threaded] + adjs[len(diff_args):])
        vjp.acc_env.clear()
        vjp.acc_env.update(saved_acc)

        zeros = [const(0.0, elem_type(v.type)) for v in scalar_fvs]
        return bb.loop(
            acc_params + c_params,
            list(accs) + zeros,
            Var(fresh("lane"), I64),
            _lane_trips(bb, iy, e.arrs[0]),
            body,
            names=out_names,
        )

    rest_out = _with_local_accs(vjp, sc, local, local_cur, inherited, emit, out_names)
    for v, c in zip(scalar_fvs, rest_out):
        sc.add(v, c)


def _lane_trips(b: Builder, iy: Var, arr: Var) -> Var:
    """1 when ``iy`` is an element of ``arr`` (some element holds ``y``),
    else 0 (``iy`` is ``rules_fold.NO_INDEX``)."""
    hit = b.binop("lt", iy, b.emit1(Size(arr), "n"), "hit")
    return b.select(hit, const(1, I64), const(0, I64), "trips")


# ---------------------------------------------------------------------------
# Shared by both forms
# ---------------------------------------------------------------------------


def _free_vars(vjp, lam: Lambda):
    """The lambda's differentiable free variables: ``(scalars, inherited,
    local)`` — the arrays split by whether an enclosing reverse map already
    accumulates their adjoint."""
    fvs = [
        v
        for v in free_vars(lam).values()
        if is_float(v.type) and v.name not in vjp.nodiff
    ]
    scalar_fvs = [v for v in fvs if rank_of(v.type) == 0]
    array_fvs = [v for v in fvs if rank_of(v.type) > 0]
    inherited = [v for v in array_fvs if v.name in vjp.acc_env]
    local = [v for v in array_fvs if v.name not in vjp.acc_env]
    return scalar_fvs, inherited, local


def _diff_args(vjp, e: Map):
    """``(parameter, array)`` of the float arguments that need adjoints."""
    return [
        (p, a)
        for p, a in zip(e.lam.params, e.arrs)
        if is_float(p.type) and a.name not in vjp.nodiff
    ]


def _acc_var(v: Var, suffix: str) -> Var:
    return Var(fresh(v.name + suffix), AccType(elem_type(v.type), rank_of(v.type)))


def _value(sc: AdjScope, v: Var) -> Var:
    """``v``'s current value-mode adjoint, bound to a variable."""
    a = sc.lookup(v)
    return a if isinstance(a, Var) else sc.b.copy(a, v.name + "_bar")


def _transform_lambda(vjp, e: Map, seeds, want, lb: Builder,
                      init: Optional[Dict[str, Atom]] = None) -> List[Atom]:
    """``transform_scope`` of the lambda's body.  An element of a
    non-differentiable array is data too: nothing reads its adjoint, so none
    is built.  Sibling lambdas reuse parameter names, so the marking lasts
    only while this lambda is transformed."""
    data_params = {
        p.name for p, a in zip(e.lam.params, e.arrs) if a.name in vjp.nodiff
    } - vjp.nodiff
    vjp.nodiff.update(data_params)
    try:
        return vjp.transform_scope(e.lam.body, seeds, want, lb, init)
    finally:
        vjp.nodiff.difference_update(data_params)


def _with_local_accs(vjp, sc: AdjScope, local: List[Var], local_cur: List[Var],
                     inherited: List[Var], emit, names: List[str]) -> Sequence[Var]:
    """Run ``emit(builder, accs)`` — which binds the accumulators ``accs``
    (``local``'s, then ``inherited``'s) as its leading results, then results
    named ``names[len(local):]`` after the accumulators — inside a
    fresh ``withacc`` region for the ``local`` arrays, whose adjoints it
    sets; inherited accumulators continue with their new values.  Returns
    the results after the accumulators."""
    b = sc.b
    inherited_accs = [vjp.acc_env[v.name] for v in inherited]
    if local:
        wa_params = [_acc_var(v, "_wacc") for v in local]
        wb = Builder()
        vs = emit(wb, list(wa_params) + inherited_accs)
        wa_lam = Lambda(tuple(wa_params), wb.finish(tuple(vs)))
        ws = b.with_acc(local_cur, wa_lam,
                        names=[v.name + "_bar" for v in local] + names[len(local):])
        for v, arr_out in zip(local, ws[: len(local)]):
            sc.set(v, arr_out)
        rest = ws[len(local):]
    else:
        rest = emit(b, inherited_accs)
    # Inherited accumulators continue with their post-map values.
    for v, nv in zip(inherited, rest[: len(inherited)]):
        vjp.acc_env[v.name] = nv
    return rest[len(inherited):]
