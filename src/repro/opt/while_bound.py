"""While-loop bounding (paper §6.2).

Reverse AD cannot checkpoint a loop whose iteration count is statically
unknown.  Two mechanisms, both from the paper:

* an annotated bound ``n``: the while loop becomes an ``n``-iteration
  for-loop whose body is guarded by the condition (a perfectly nested
  ``if`` executing only the valid iterations);
* no annotation: an **inspector** — a slice of the loop that only counts
  iterations — runs first, and its count bounds the for-loop.  The inspector
  itself is a while loop, but it only yields an integer, so the return sweep
  never needs to differentiate it.
"""
from __future__ import annotations

from ..ir.ast import Body, Fun, Lambda, Loop, Stm, Var, WhileLoop
from ..ir.builder import Builder, const
from ..ir.traversal import map_bodies, refresh_body, same_body, with_body
from ..ir.types import I64, is_float
from ..util import fresh

__all__ = ["while_bound_fun", "while_bound_body"]


def _rewrite_while(stm: Stm, e: WhileLoop, b: Builder) -> None:
    bound = e.bound
    if bound is None:
        # Inspector: replay the loop, counting iterations.  Only the count
        # survives, so reverse AD treats the inspector as non-differentiable.
        cntp = Var(fresh("cnt"), I64)
        params = tuple(Var(fresh(p.name), p.type) for p in e.params) + (cntp,)
        ren = {p.name: np for p, np in zip(e.params, params)}
        cond = Lambda(params, refresh_body(e.cond.body, {p.name: np for p, np in zip(e.cond.params, params)}))
        ib = Builder()
        body0 = refresh_body(e.body, ren)
        ib.extend(body0.stms)
        nc = ib.add(cntp, const(1, I64), "nc")
        ibody = ib.finish(tuple(body0.result) + (nc,))
        insp = WhileLoop(params, tuple(e.inits) + (const(0, I64),), cond, ibody, None)
        outs = b.emit(insp, [p.name for p in params])
        bound = outs[-1]

    # Bounded for-loop with a guarded body.
    ivar = Var(fresh("wi"), I64)
    gb = Builder()
    cond_body = refresh_body(
        e.cond.body, {cp.name: p for cp, p in zip(e.cond.params, e.params)}
    )
    gb.extend(cond_body.stms)
    (c,) = cond_body.result
    then = refresh_body(e.body)
    els = Body((), tuple(e.params))
    vs = gb.if_(c, then, els, names=[p.name for p in e.params])
    body = gb.finish(tuple(vs))
    loop = Loop(e.params, e.inits, ivar, bound, body)
    b.emit_into(stm.pat, loop)


def while_bound_body(body: Body) -> Body:
    b = Builder()
    for stm in body.stms:
        e = map_bodies(stm.exp, while_bound_body)
        # Bound only loops carrying float state (those the return sweep
        # must enter); integer-only whiles stay as they are.
        if isinstance(e, WhileLoop) and any(is_float(p.type) for p in e.params):
            _rewrite_while(stm, e, b)
        elif e is stm.exp:
            b.stms.append(stm)
        else:
            b.emit_into(stm.pat, e)
    return same_body(body, b.stms, body.result)


def while_bound_fun(fun: Fun) -> Fun:
    return with_body(fun, while_bound_body(fun.body))
