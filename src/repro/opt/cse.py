"""Common-subexpression elimination (cheap, pure expressions only).

CSE within and across lexical scopes (inner scopes may reuse outer bindings,
never the reverse).  Only cheap pure expressions are candidates — scalar
ops, indexing, sizes, constructors — which is where AD-generated code
duplicates work (the re-executed forward sweeps and the partial-derivative
lambdas share many subexpressions with the return sweep of the same scope).
"""
from __future__ import annotations

from typing import Dict

from ..ir.ast import (
    Atom,
    BinOp,
    Body,
    Cast,
    Exp,
    Fun,
    Index,
    Iota,
    Replicate,
    Reverse,
    Select,
    Size,
    UnOp,
    Var,
    ZerosLike,
)
from ..ir.traversal import map_bodies, same_body, subst_exp, with_body, with_exp

__all__ = ["cse_fun", "cse_body"]

_CHEAP = (UnOp, BinOp, Select, Cast, Index, Size, Iota, Replicate, ZerosLike, Reverse)

#: Commutative binops for key normalisation.
_COMM = {"add", "mul", "min", "max", "and", "or", "eq", "ne"}


def _key(e: Exp):
    if isinstance(e, BinOp) and e.op in _COMM:
        ops = sorted([repr(e.x) + str(e.x.type), repr(e.y) + str(e.y.type)])
        return ("binop", e.op, ops[0], ops[1])
    return e  # frozen dataclasses hash structurally


def _cse_body(body: Body, table: Dict) -> Body:
    m: Dict[str, Atom] = {}
    stms = []
    for stm in body.stms:
        # A nested body starts from a copy of the table as it stands here:
        # it may reuse outer bindings (a loop body too — keys reference
        # in-scope invariant vars only), and nothing it binds leaks out.
        e = map_bodies(subst_exp(stm.exp, m), lambda b: _cse_body(b, dict(table)))
        if isinstance(e, _CHEAP) and len(stm.pat) == 1:
            k = _key(e)
            hit = table.get(k)
            if hit is not None:
                m[stm.pat[0].name] = hit
                continue
            table[k] = stm.pat[0]
        stms.append(with_exp(stm, e))
    result = tuple(m.get(a.name, a) if isinstance(a, Var) else a for a in body.result)
    return same_body(body, stms, result)


def cse_body(body: Body) -> Body:
    return _cse_body(body, {})


def cse_fun(fun: Fun) -> Fun:
    return with_body(fun, cse_body(fun.body))
