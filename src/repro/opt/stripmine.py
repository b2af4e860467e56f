"""Loop strip-mining (paper §4.3), the user's time–space annotation.

``rp.fori_loop(..., stripmine=f)`` marks a loop (``Loop.stripmine``); this
pass realises the mark before reverse AD: the trip axis becomes an outer loop
of ⌈n/f⌉ steps around an inner loop of ``f`` steps, the body guarded by
``i < n``.  Reverse AD then checkpoints each of the two loops separately:
memory drops from O(n) to O(⌈n/f⌉ + f) loop-variant snapshots while the
forward sweep of the inner loop is re-executed once more (Fig. 4's
re-execution factor grows from 2× to (k+2)× for k levels of strip-mining).
Nesting annotations (strip-mining the produced outer loop again) gives the
k-level trade-off; with f ≈ ⁿ√m per level this approaches the logarithmic
overhead of Siskind & Pearlmutter's divide-and-conquer checkpointing.
"""
from __future__ import annotations

from ..ir.ast import Body, Fun, Loop, Stm, Var
from ..ir.builder import Builder, const
from ..ir.traversal import map_bodies, refresh_body, same_body, with_body
from ..ir.types import I64
from ..util import fresh

__all__ = ["stripmine_fun", "stripmine_body"]


def _rewrite_loop(stm: Stm, e: Loop, b: Builder) -> None:
    fa = const(e.stripmine, I64)
    one = const(1, I64)
    npf = b.add(e.n, b.sub(fa, one, "fm1"), "npf")
    no = b.div(npf, fa, "no")  # ⌈n/f⌉ (integer division)

    io = Var(fresh("io"), I64)
    ii = Var(fresh("ii"), I64)
    inner_params = tuple(Var(fresh(p.name), p.type) for p in e.params)

    ib = Builder()
    base = ib.mul(io, fa, "base")
    gi = ib.add(base, ii, "gi")
    valid = ib.binop("lt", gi, e.n, "valid")
    # Guarded body: only the valid iterations execute (perfectly nested if).
    then = refresh_body(
        e.body,
        {**{p.name: np for p, np in zip(e.params, inner_params)}, e.ivar.name: gi},
    )
    els = Body((), tuple(inner_params))
    vs = ib.if_(valid, then, els, names=[p.name for p in e.params])
    inner_body = ib.finish(tuple(vs))
    inner = Loop(inner_params, tuple(e.params), ii, fa, inner_body)

    ob = Builder()
    ovs = ob.emit(inner, [p.name for p in e.params])
    outer_body = ob.finish(tuple(ovs))
    outer = Loop(e.params, e.inits, io, no, outer_body)
    b.emit_into(stm.pat, outer)


def stripmine_body(body: Body) -> Body:
    b = Builder()
    for stm in body.stms:
        e = map_bodies(stm.exp, stripmine_body)
        if isinstance(e, Loop) and e.stripmine > 1:
            _rewrite_loop(stm, e, b)
        elif e is stm.exp:
            b.stms.append(stm)
        else:
            b.emit_into(stm.pat, e)
    return same_body(body, b.stms, body.result)


def stripmine_fun(fun: Fun) -> Fun:
    return with_body(fun, stripmine_body(fun.body))
