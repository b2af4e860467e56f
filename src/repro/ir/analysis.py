"""Small IR analyses shared by executors, AD rules and optimisation passes."""
from __future__ import annotations

import hashlib
from typing import Dict, Optional, Tuple

from .ast import (
    AtomExp,
    BinOp,
    Body,
    Cast,
    Concat,
    Const,
    Fun,
    If,
    Index,
    Iota,
    Lambda,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Replicate,
    Reverse,
    Scan,
    Scatter,
    ScratchLike,
    Select,
    Size,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
    fact,
)

__all__ = [
    "recognize_binop_lambda",
    "recognize_addition",
    "recognize_redomap_lambda",
    "OP_IDENTITY",
    "ne_is_identity",
    "ir_hash",
]


#: Identities of the specialisable reduce operators (float domain).  The
#: single source of truth: the executors' fast reduce/scan/hist paths key
#: off this table (via ``ne_is_identity``).
OP_IDENTITY = {"add": 0.0, "mul": 1.0, "min": float("inf"), "max": float("-inf")}


def ne_is_identity(op: str, ne) -> bool:
    """True when a syntactic neutral-element atom is provably the identity
    of ``op`` — the fast reduce/scan paths may then skip folding it in.
    A left fold from ``ne`` equals ``ne `op` fold-from-identity`` for the
    specialisable (associative) ops, so non-identity neutral elements are
    handled by one extra combine rather than falling off the fast path."""
    if not isinstance(ne, Const):
        return False
    try:
        return float(ne.value) == OP_IDENTITY[op]
    except (TypeError, ValueError):
        return False


def recognize_binop_lambda(lam: Lambda) -> Optional[str]:
    """If ``lam`` is ``\\x y -> x `op` y`` for a commutative specialisable op,
    return the op name (``add``/``mul``/``min``/``max``), else None.

    This powers the paper's special-case reduce/scan/hist rules (§5.1.1): the
    general rules are always sound, the specialised ones are the fast paths.
    Accepts the operands in either order and tolerates a single intervening
    copy statement.
    """
    if len(lam.params) != 2 or len(lam.body.result) != 1:
        return None
    px, py = lam.params
    body = lam.body
    res = body.result[0]

    # Unwind trailing copies (t = x op y; r = t).
    defs = {}
    for stm in body.stms:
        if len(stm.pat) == 1:
            defs[stm.pat[0].name] = stm.exp
    seen = set()
    exp = None
    cur = res
    while isinstance(cur, Var) and cur.name in defs and cur.name not in seen:
        seen.add(cur.name)
        e = defs[cur.name]
        if isinstance(e, AtomExp):
            cur = e.x
            continue
        exp = e
        break
    if not isinstance(exp, BinOp) or exp.op not in ("add", "mul", "min", "max"):
        return None
    ops = {a.name for a in (exp.x, exp.y) if isinstance(a, Var)}
    if ops == {px.name, py.name}:
        return exp.op
    return None


def recognize_addition(lam: Lambda) -> bool:
    return recognize_binop_lambda(lam) == "add"


def recognize_redomap_lambda(lam: Lambda) -> Optional[Tuple[str, Lambda]]:
    """Decompose ``\\acc x.. -> acc `op` g(x..)`` into ``(op, g)``.

    This is the *redomap* shape the fusion engine produces when a ``map`` is
    fused into a single-operand ``reduce``/``scan``/``reduce_by_index``: a
    prefix of statements computing ``g`` of the element parameters, combined
    with the accumulator by one specialisable binop.  Executors use it to
    keep fused reductions on the bulk fast path (bulk-map ``g``, then
    ``ufunc.reduce``/``accumulate``/``at``), and ``opt.fusion.unfuse_fun``
    uses it to split fused reductions back into ``map`` + canonical operator
    before the AD rules (which assume associative operators) run.

    Returns ``None`` unless the accumulator parameter (``lam.params[0]``)
    feeds *exactly* the final combine.  ``g`` is returned as a ``Lambda``
    over the element parameters (``lam.params[1:]``).  A fact of the lambda
    (``ir.ast.fact``): the reference interpreter asks per reduce evaluation.
    """
    return fact(lam, "_redomap", _recognize_redomap)


def _recognize_redomap(lam: Lambda) -> Optional[Tuple[str, Lambda]]:
    if len(lam.params) < 2 or len(lam.body.result) != 1:
        return None
    acc = lam.params[0]
    body = lam.body
    defs = {}
    for stm in body.stms:
        if len(stm.pat) != 1:
            return None
        defs[stm.pat[0].name] = stm.exp
    # Unwind trailing copies from the result down to the combine binop.
    chain = set()
    cur = body.result[0]
    exp = None
    while isinstance(cur, Var) and cur.name in defs and cur.name not in chain:
        chain.add(cur.name)
        e = defs[cur.name]
        if isinstance(e, AtomExp):
            cur = e.x
            continue
        exp = e
        break
    if not isinstance(exp, BinOp) or exp.op not in ("add", "mul", "min", "max"):
        return None
    if isinstance(exp.x, Var) and exp.x.name == acc.name:
        v = exp.y
    elif isinstance(exp.y, Var) and exp.y.name == acc.name:
        v = exp.x
    else:
        return None
    if isinstance(v, Var) and v.name == acc.name:  # acc `op` acc is not a map
        return None
    # The map part is everything outside the combine chain; it must neither
    # read the accumulator nor the combine's results.
    from .traversal import free_vars_exp

    forbidden = chain | {acc.name}
    map_stms = []
    for stm in body.stms:
        if stm.pat[0].name in chain:
            if not isinstance(stm.exp, (AtomExp, BinOp)):
                return None
            continue
        if forbidden & set(free_vars_exp(stm.exp)):
            return None
        map_stms.append(stm)
    return exp.op, Lambda(tuple(lam.params[1:]), Body(tuple(map_stms), (v,)))


# ---------------------------------------------------------------------------
# Alpha-invariant content hash
# ---------------------------------------------------------------------------

def ir_hash(fun: Fun) -> str:
    """An alpha-invariant structural content hash of ``fun``.

    Two ``Fun``s hash equal iff they are identical up to a consistent
    renaming of SSA names: every variable is replaced by its de-Bruijn-style
    introduction index (binding sites come before uses in ANF, and the walk
    order is deterministic, so alpha-equivalent programs number their
    variables identically).  Everything semantically load-bearing — node
    kinds, operator names, types, constant values, loop annotations — feeds
    the digest, so semantically different programs hash apart.

    This is the plan-cache key: tracing the same source function
    twice yields alpha-equivalent ``Fun``s with fresh SSA names, and hashing
    lets them share one lowering (and is the identity a future disk cache or
    RPC plan shipping would key on).  A fact of the ``Fun`` (``ir.ast.fact``):
    the plan cache asks once per executed call.
    """
    return fact(fun, "_ir_hash", _ir_hash)


def _ir_hash(fun: Fun) -> str:
    h = hashlib.blake2b(digest_size=16)
    ids: Dict[str, int] = {}
    feed = h.update

    def name_of(n: str) -> int:
        i = ids.get(n)
        if i is None:
            i = len(ids)
            ids[n] = i
        return i

    def atom(a) -> None:
        if isinstance(a, Var):
            feed(b"v%d:%s;" % (name_of(a.name), repr(a.type).encode()))
        else:
            feed(b"c%s:%s;" % (repr(a.type).encode(), repr(a.value).encode()))

    def atoms(xs) -> None:
        for a in xs:
            atom(a)

    def lam(l: Lambda) -> None:
        feed(b"lam%d(" % len(l.params))
        atoms(l.params)
        body(l.body)
        feed(b")")

    def exp(e) -> None:
        t = type(e)
        feed(t.__name__.encode())
        if t in (AtomExp, ZerosLike):
            atom(e.x)
        elif t is UnOp:
            feed(e.op.encode())
            atom(e.x)
        elif t is BinOp:
            feed(e.op.encode())
            atoms((e.x, e.y))
        elif t is Select:
            atoms((e.c, e.t, e.f))
        elif t is Cast:
            atom(e.x)
            feed(repr(e.to).encode())
        elif t is Index:
            atom(e.arr)
            atoms(e.idx)
        elif t is Update:
            atom(e.arr)
            atoms(e.idx)
            atom(e.val)
        elif t is Iota:
            atom(e.n)
            feed(repr(e.elem).encode())
        elif t is Replicate:
            atoms((e.n, e.v))
        elif t is ScratchLike:
            atoms((e.n, e.x))
        elif t is Size:
            atom(e.arr)
            feed(b"%d" % e.dim)
        elif t is Reverse:
            atom(e.x)
        elif t is Concat:
            atoms((e.x, e.y))
        elif t is Map:
            lam(e.lam)
            atoms(e.arrs)
            feed(b"|")
            atoms(e.accs)
        elif t in (Reduce, Scan):
            lam(e.lam)
            atoms(e.nes)
            feed(b"|")
            atoms(e.arrs)
        elif t is ReduceByIndex:
            atom(e.num_bins)
            lam(e.lam)
            atoms(e.nes)
            feed(b"|")
            atom(e.inds)
            atoms(e.vals)
        elif t is Scatter:
            atoms((e.dest, e.inds, e.vals))
        elif t is Loop:
            atoms(e.params)
            feed(b"=")
            atoms(e.inits)
            atom(e.ivar)
            atom(e.n)
            body(e.body)
            feed(b"sm%d,cp%s" % (e.stripmine, e.checkpoint.encode()))
        elif t is WhileLoop:
            atoms(e.params)
            feed(b"=")
            atoms(e.inits)
            lam(e.cond)
            body(e.body)
            if e.bound is not None:
                feed(b"bound:")
                atom(e.bound)
        elif t is If:
            atom(e.cond)
            body(e.then)
            body(e.els)
        elif t is WithAcc:
            atoms(e.arrs)
            lam(e.lam)
        elif t is UpdAcc:
            atom(e.acc)
            atoms(e.idx)
            atom(e.v)
        else:  # future node kinds: still deterministic, never silent
            feed(repr(e).encode())
        feed(b";")

    def body(b: Body) -> None:
        feed(b"{")
        for stm in b.stms:
            atoms(stm.pat)
            feed(b"=")
            exp(stm.exp)
        feed(b"->")
        atoms(b.result)
        feed(b"}")

    feed(b"fun%d(" % len(fun.params))
    atoms(fun.params)
    body(fun.body)
    feed(b")")
    return h.hexdigest()
