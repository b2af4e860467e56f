"""Dead-code elimination.

DCE is what realises the paper's §4.1 claim: the redundantly re-executed
forward sweeps of perfectly-nested scopes bind results that nothing in the
return sweep uses, so they are dead code and the differentiated program
carries no re-execution overhead (Fig. 2's ``xss``/``xs``/``xs'``/``x``).

Bodies are processed backwards from their result atoms.  Multi-result
statements with partially-dead results are *shrunk*:

* ``Map``/``If``/``Loop`` drop their dead columns — the dead primal outputs
  of AD-generated maps, and the checkpoint arrays the loop rule fills on a
  forward sweep whose reverse sweep never reads them;
* ``WithAcc`` drops a dead accumulator together with its whole update chain:
  the array, the lambda's parameter and leading result, every ``upd`` on it
  and, through a ``map`` or a ``loop``, the threaded ``accs`` entry (loop
  state), parameter, result and pattern variable.  An accumulator is
  write-only, so nothing else can have observed those updates.  A chain that
  meets anything else (an ``if``, ``while``, nested ``withacc`` or any other
  read) keeps its accumulator; secondary results always stay.  This is how
  ``hessian_diag`` stops computing the gradient x̄ beside x̄̇ in the one
  ``withacc`` of a ``jvp ∘ vjp``.

A fused (redomap-shaped) ``reduce``/``scan``/``hist`` also drops the element
arrays whose parameter its operator never reads, such as the lifted ẋ that
``jvp`` hands a ``first_index`` reduce.  A canonical ``(k+k)`` operator is
left alone: its element parameters are the operator's right operand.
"""
from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, List, Optional, Set, Tuple

from ..ir.analysis import recognize_redomap_lambda
from ..ir.ast import (
    Body,
    FOLDS,
    Fun,
    If,
    Lambda,
    Loop,
    Map,
    Stm,
    UpdAcc,
    Var,
    WithAcc,
    fact,
)
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
    effect), and so does the ``stripmine`` annotation."""
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


def _threaded_map(e: Map, acc: str, outer: FrozenSet[str]) -> Optional[Tuple[int, Map]]:
    """``(j, e')``: ``acc`` is ``e.accs[j]``, and ``e'`` is ``e`` with it and
    its chain cut out of the lambda, which must not read ``acc`` or
    ``outer`` either; else None."""
    names = [a.name for a in e.accs]
    if names.count(acc) != 1:
        return None
    j = names.index(acc)
    params = e.lam.params
    p = len(e.arrs) + j
    body = _drop_chain(e.lam.body, params[p].name, j, outer | {acc})
    if body is None:
        return None
    lam = Lambda(params[:p] + params[p + 1:], body)
    return j, Map(lam, e.arrs, e.accs[:j] + e.accs[j + 1:])


def _threaded_loop(e: Loop, acc: str, outer: FrozenSet[str]) -> Optional[Tuple[int, Loop]]:
    """``_threaded_map`` for a ``loop`` carrying ``acc`` as its state
    ``j``: the min/max rule's hot lane runs in one (``rules_map``)."""
    names = [a.name if isinstance(a, Var) else None for a in e.inits]
    if names.count(acc) != 1:
        return None
    j = names.index(acc)
    body = _drop_chain(e.body, e.params[j].name, j, outer | {acc})
    if body is None:
        return None
    return j, replace(e, params=e.params[:j] + e.params[j + 1:],
                      inits=e.inits[:j] + e.inits[j + 1:], body=body)


def _drop_chain(
    body: Body, acc: str, pos: int, outer: FrozenSet[str] = frozenset()
) -> Optional[Body]:
    """``body`` without the update chain of its accumulator ``acc``, which
    must end as ``body.result[pos]`` (dropped too); None when anything but an
    ``upd`` or a ``map`` / ``loop`` threading it touches the chain, or
    anything reads the enclosing levels' chain variables ``outer``.  Free
    variables come from the facts on the nodes (``exp_free_vars``), so
    nothing is walked."""
    stms: List[Stm] = []
    for stm in body.stms:
        e = stm.exp
        names = [a.name for a in exp_free_vars(e)]
        uses = names.count(acc)
        if outer.intersection(names):
            return None
        if not uses:
            stms.append(stm)
        elif isinstance(e, UpdAcc) and uses == 1 and e.acc.name == acc:
            acc = stm.pat[0].name
        else:
            cut = (_threaded_map(e, acc, outer) if isinstance(e, Map)
                   else _threaded_loop(e, acc, outer) if isinstance(e, Loop) else None)
            if cut is None:
                return None
            j, m = cut
            stms.append(Stm(stm.pat[:j] + stm.pat[j + 1:], m))
            acc = stm.pat[j].name
    res = body.result
    names = [a.name if isinstance(a, Var) else None for a in res]
    if outer.intersection(names) or names.count(acc) != 1 or names.index(acc) != pos:
        return None
    return Body(tuple(stms), res[:pos] + res[pos + 1:])


def _cut_accs(e: WithAcc, dead: Tuple[int, ...]) -> Tuple[WithAcc, FrozenSet[int]]:
    """``e`` without each accumulator of ``dead`` whose update chain
    ``_drop_chain`` can cut out, and the positions that went."""
    arrs, params, body = e.arrs, e.lam.params, e.lam.body
    gone = []
    for i in reversed(dead):
        cut = _drop_chain(body, params[i].name, i)
        if cut is not None:
            arrs, params, body = arrs[:i] + arrs[i + 1:], params[:i] + params[i + 1:], cut
            gone.append(i)
    return (WithAcc(arrs, Lambda(params, body)) if gone else e), frozenset(gone)


def _shrink_withacc(e: WithAcc, keep: List[bool]) -> WithAcc:
    """``_cut_accs`` of the dead accumulators; ``keep`` is updated to what
    stays (secondary results all do).  The cut is a fact of the node per
    dead set: ``_shrink_loop`` re-runs DCE on a loop body until its carried
    set settles, meeting the same ``withacc`` each round."""
    dead = tuple(i for i in range(len(e.arrs)) if not keep[i])
    cuts = fact(e, "_acc_cuts", lambda _: {})
    if dead not in cuts:
        cuts[dead] = _cut_accs(e, dead)
    out, gone = cuts[dead]
    keep[:] = [i not in gone for i in range(len(keep))]
    return out


def _unread_params(lam: Lambda) -> Tuple[int, ...]:
    used = free_vars(lam.body)
    return tuple(i for i, p in enumerate(lam.params) if p.name not in used)


def _drop_unread(e):
    """A fused (redomap-shaped) reduce/scan/hist without the element arrays
    whose parameter its operator never reads; one array always stays, for
    the extent.  Canonical ``(k+k)`` operators come back unchanged."""
    arrs, k = e.arrs, len(e.nes)
    if len(arrs) == k or recognize_redomap_lambda(e.lam) is None:
        return e
    unread = {i - k for i in fact(e.lam, "_unread_params", _unread_params) if i >= k}
    stay = [j for j in range(len(arrs)) if j not in unread] or [0]
    if len(stay) == len(arrs):
        return e
    params = e.lam.params
    lam = Lambda(params[:k] + tuple(params[k + j] for j in stay), e.lam.body)
    return replace(e, lam=lam, arrs=tuple(arrs[j] for j in stay))


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
            elif isinstance(e, WithAcc):
                e = _shrink_withacc(e, keep)
            if e is not stm.exp:
                pat = tuple(v for v, k in zip(pat, keep) if k)
        e = map_bodies(e, dce_body)
        if isinstance(e, FOLDS):
            e = _drop_unread(e)
        live.update(a.name for a in exp_free_vars(e))
        out.append(stm if e is stm.exp else Stm(pat, e))
    return same_body(body, out[::-1], body.result)


def dce_fun(fun: Fun) -> Fun:
    return with_body(fun, dce_body(fun.body))
