"""Dead-code elimination.

DCE is what realises the paper's §4.1 claim: the redundantly re-executed
forward sweeps of perfectly-nested scopes bind results that nothing in the
return sweep uses, so they are dead code and the differentiated program
carries no re-execution overhead (Fig. 2's ``xss``/``xs``/``xs'``/``x``).

Bodies are processed backwards from their result atoms.  Multi-result
``Map``/``If``/``Loop`` statements with partially-dead results are *shrunk*
(dead columns dropped), which is how the dead primal outputs of AD-generated
maps disappear — and the checkpoint arrays the loop rule fills on a forward
sweep whose reverse sweep never reads them.  Accumulator updates are handled by ordinary liveness: the
linearity discipline guarantees a live ``WithAcc`` keeps its whole update
chain alive, and a dead ``WithAcc`` result means the updates were
unobservable.
"""
from __future__ import annotations

from dataclasses import replace
from typing import List, Set

from ..ir.ast import Body, Fun, If, Lambda, Loop, Map, Stm, Var
from ..ir.traversal import exp_free_vars, free_vars, map_bodies, same_body, with_body
from ..ir.types import AccType

__all__ = ["dce_fun", "dce_body"]


def _shrink_map(e: Map, keep: List[bool]) -> Map:
    """Drop dead (non-accumulator) results of a Map."""
    n_acc = len(e.accs)
    body = e.lam.body
    res = list(body.result[:n_acc])
    for r, k in zip(body.result[n_acc:], keep[n_acc:]):
        if k:
            res.append(r)
    return Map(Lambda(e.lam.params, Body(body.stms, tuple(res))), e.arrs, e.accs)


def _shrink_if(e: If, keep: List[bool]) -> If:
    tres = tuple(r for r, k in zip(e.then.result, keep) if k)
    fres = tuple(r for r, k in zip(e.els.result, keep) if k)
    return If(e.cond, Body(e.then.stms, tres), Body(e.els.stms, fres))


def _shrink_loop(e: Loop, keep: List[bool]) -> Loop:
    """Drop the loop-carried parameters whose result is dead and which
    nothing the loop still computes reads — a surviving parameter's next
    value least of all — with their inits; ``keep`` is updated to what
    stays.  Accumulator parameters always stay (their updates are the
    effect), and so do the ``stripmine``/``checkpoint`` annotations."""
    for i, p in enumerate(e.params):
        keep[i] = keep[i] or isinstance(p.type, AccType)
    while True:
        body = dce_body(
            Body(e.body.stms, tuple(r for r, k in zip(e.body.result, keep) if k))
        )
        used = free_vars(body)
        feeds = [not k and p.name in used for k, p in zip(keep, e.params)]
        if not any(feeds):
            break
        for i, f in enumerate(feeds):
            keep[i] = keep[i] or f
    if all(keep):
        return e
    return replace(
        e,
        params=tuple(p for p, k in zip(e.params, keep) if k),
        inits=tuple(a for a, k in zip(e.inits, keep) if k),
        body=body,
    )


def dce_body(body: Body) -> Body:
    live: Set[str] = {a.name for a in body.result if isinstance(a, Var)}
    out: List[Stm] = []
    for stm in reversed(body.stms):
        keep = [v.name in live for v in stm.pat]
        if not any(keep):
            continue
        e, pat = stm.exp, stm.pat
        if not all(keep):
            # Partial liveness: shrink shrinkable expressions.
            if isinstance(e, Map) and all(keep[: len(e.accs)]):
                e = _shrink_map(e, keep)
            elif isinstance(e, If):
                e = _shrink_if(e, keep)
            elif isinstance(e, Loop):
                e = _shrink_loop(e, keep)
            if e is not stm.exp:
                pat = tuple(v for v, k in zip(pat, keep) if k)
        e = map_bodies(e, dce_body)
        live.update(a.name for a in exp_free_vars(e))
        out.append(stm if e is stm.exp else Stm(pat, e))
    return same_body(body, out[::-1], body.result)


def dce_fun(fun: Fun) -> Fun:
    return with_body(fun, dce_body(fun.body))
