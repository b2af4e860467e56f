"""Reverse AD of sequential for-loops (paper Fig. 3, §4.3, §6.2).

Sequential loops are the only construct that requires iteration
checkpointing: the forward sweep saves each loop-variant value at iteration
entry into a scratch array; the return sweep loop runs the iterations in
reverse, re-installs the checkpointed state, redundantly re-executes the
body's forward sweep, and then runs the body's return sweep.  Adjoints of
the loop's free variables are threaded as loop-variant state (Fig. 3's
``fvs_bdy``); adjoints of accumulated arrays thread as accumulator state.

An array parameter that ``ir.analysis.entry_params`` proves free of false
dependencies (§6.2: it writes one slot ``ivar + c_w`` per iteration and
reads only slots ``ivar + c_r`` with ``c_r < c_w``) is not checkpointed
per iteration: every value an iteration reads is still present in the
*final* array, so the return sweep re-installs the loop's final value
instead, preserving the original work asymptotics.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

from ..ir.analysis import entry_params
from ..ir.ast import Atom, AtomExp, Index, Loop, Stm, Var
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars
from ..ir.types import AccType, elem_type, is_float, rank_of, with_rank
from ..util import fresh
from .adjoint import AdjScope

__all__ = ["fwd_loop", "rev_loop"]


def fwd_loop(vjp, stm: Stm, e: Loop, b: Builder):
    """Forward sweep: the original loop, with loop-variant values
    checkpointed into scratch arrays (Fig. 3's ``xs[i] = x``)."""
    ckpt_mask = [not entry for entry in entry_params(e)]
    kept = [(p, init) for p, init, m in zip(e.params, e.inits, ckpt_mask) if m]
    ckpt_bufs = [b.scratch_like(e.n, init, name=p.name + "_ckpt") for p, init in kept]
    ck_params = [
        Var(fresh(p.name + "_cs"), with_rank(elem_type(p.type), rank_of(p.type) + 1))
        for p, _ in kept
    ]
    lb = Builder()
    ck_res = [lb.update(cp, (e.ivar,), p, name=cp.name) for cp, (p, _) in zip(ck_params, kept)]
    lb.extend(e.body.stms)
    body = lb.finish(tuple(e.body.result) + tuple(ck_res))

    ck_outs = tuple(Var(fresh(p.name + "_ck"), cp.type) for cp, (p, _) in zip(ck_params, kept))
    new_loop = Loop(
        tuple(e.params) + tuple(ck_params), tuple(e.inits) + tuple(ckpt_bufs), e.ivar, e.n, body
    )
    b.emit_into(tuple(stm.pat) + ck_outs, new_loop)
    return {"ck_outs": ck_outs, "ckpt_mask": ckpt_mask}


def rev_loop(vjp, stm: Stm, e: Loop, aux, sc: AdjScope) -> None:
    b = sc.b
    ck_outs: Tuple[Var, ...] = aux["ck_outs"]
    ckpt_mask: List[bool] = aux["ckpt_mask"]

    # Adjoints of the loop's results (= final params).
    ybars: List[Optional[Atom]] = []
    for v, p in zip(stm.pat, e.params):
        ybars.append(sc.lookup(v) if is_float(v.type) else None)

    # Free variables of the body needing adjoints, split by mode.
    bound = {p.name for p in e.params} | {e.ivar.name}
    fvs = [
        v
        for v in free_vars(e.body).values()
        if is_float(v.type) and v.name not in bound and v.name not in vjp.nodiff
    ]
    acc_fvs = [v for v in fvs if v.name in vjp.acc_env]
    val_fvs = [v for v in fvs if v.name not in vjp.acc_env]

    # Reverse-loop state: adjoints of float params, value-mode free-variable
    # adjoints, and threaded accumulators.  Unlike ``rev_map``, a parameter
    # whose *initialiser* is non-differentiable data is not data itself: it
    # is loop-carried, so from the second iteration on it holds a body
    # result that may depend on differentiable values.  Dropping its adjoint
    # needs an activity fixpoint over the body, not the one-line test a map
    # parameter gets.
    float_params = [p for p in e.params if is_float(p.type)]
    pbar_params = [Var(fresh(p.name + "_bar"), p.type) for p in float_params]
    wbar_params = [Var(fresh(v.name + "_bar"), v.type) for v in val_fvs]
    accp_params = [
        Var(fresh(v.name + "_acc"), AccType(elem_type(v.type), rank_of(v.type)))
        for v in acc_fvs
    ]

    pbar_inits = [yb for yb, p in zip(ybars, e.params) if is_float(p.type)]
    wbar_inits = []
    for v in val_fvs:
        a = sc.lookup(v)
        wbar_inits.append(a)
    acc_inits = [vjp.acc_env[v.name] for v in acc_fvs]

    ivar2 = Var(fresh("ri"), elem_type(e.ivar.type))
    lb = Builder()
    nm1 = lb.sub(e.n, const(1, elem_type(e.ivar.type)), "nm1")
    jj = lb.sub(nm1, ivar2, "j")
    # Re-install the loop state of original iteration j (Fig. 3's
    # ``x = xs[i]``): checkpointed values come from the scratch arrays;
    # entry-mode arrays re-install the final value (their reads survive).
    k = 0
    for p, m, res in zip(e.params, ckpt_mask, stm.pat):
        if m:
            lb.emit_into((p,), Index(ck_outs[k], (jj,)))
            k += 1
        else:
            lb.emit_into((p,), AtomExp(res))
    lb.emit_into((e.ivar,), AtomExp(jj))

    saved_acc = dict(vjp.acc_env)
    for v, ap in zip(acc_fvs, accp_params):
        vjp.acc_env[v.name] = ap

    # Seeds: the body's results are the next iteration's params, whose
    # adjoints arrive as the reverse loop's pbar state.
    seeds: List[Optional[Atom]] = []
    j = 0
    for p in e.params:
        if is_float(p.type):
            seeds.append(pbar_params[j])
            j += 1
        else:
            seeds.append(None)
    init_adj = {v.name: w for v, w in zip(val_fvs, wbar_params)}
    adjs = vjp.transform_scope(e.body, seeds, list(float_params) + list(val_fvs), lb, init_adj)
    p_adjs = adjs[: len(float_params)]
    w_adjs = adjs[len(float_params):]
    acc_res = [vjp.acc_env[v.name] for v in acc_fvs]
    body = lb.finish(tuple(p_adjs) + tuple(w_adjs) + tuple(acc_res))

    vjp.acc_env.clear()
    vjp.acc_env.update(saved_acc)

    names = (
        [p.name + "_bar" for p in float_params]
        + [v.name + "_bar" for v in val_fvs]
        + [v.name + "_acc" for v in acc_fvs]
    )
    vs = b.loop(
        tuple(pbar_params) + tuple(wbar_params) + tuple(accp_params),
        tuple(pbar_inits) + tuple(wbar_inits) + tuple(acc_inits),
        ivar2,
        e.n,
        body,
        names=names,
    )
    p_finals = vs[: len(float_params)]
    w_finals = vs[len(float_params) : len(float_params) + len(val_fvs)]
    acc_finals = vs[len(float_params) + len(val_fvs):]

    # Threaded free-variable adjoints REPLACE the prior value (the thread
    # consumed and includes it) — and must do so before the initialiser
    # contributions below, which may target the same variables.
    for v, w in zip(val_fvs, w_finals):
        sc.set(v, w)
    for v, a in zip(acc_fvs, acc_finals):
        vjp.acc_env[v.name] = a
    # ←stms_x0: the adjoint of the loop-variant initialiser (Fig. 3).
    j = 0
    for p, init in zip(e.params, e.inits):
        if is_float(p.type):
            sc.add(init, p_finals[j])
            j += 1
