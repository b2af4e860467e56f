"""Small IR analyses shared by executors, AD rules and optimisation passes."""
from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterable, Optional, Set, Tuple

from .ast import Atom, AtomExp, BinOp, Body, Const, Exp, Fun, Index, Lambda, Loop, Update, Var, fact
from .traversal import _BIND, _BODY, _LAM, _SHAPES, _STATIC, exp_atoms, free_vars_exp, scopes
from .types import is_integral, rank_of

__all__ = [
    "recognize_binop_lambda",
    "recognize_redomap_lambda",
    "OP_IDENTITY",
    "ne_is_identity",
    "offset_step",
    "entry_params",
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
    It is the case of ``recognize_redomap_lambda`` whose map part has no
    statements and returns its one parameter (operands in either order,
    trailing copies allowed).
    """
    rm = recognize_redomap_lambda(lam)
    if rm is None or len(lam.params) != 2 or rm[1].body.stms:
        return None
    (res,) = rm[1].body.result
    return rm[0] if isinstance(res, Var) and res.name == lam.params[1].name else None


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
    over the element parameters (``lam.params[1:]``); the ``ufunc``
    strategy of ``exec/lower.py`` is the case whose ``g`` is the identity
    (``recognize_binop_lambda``).  A fact of the lambda (``ir.ast.fact``):
    the AD rules, the optimiser and the lowering all ask.
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
# Entry-only loop checkpointing (§6.2)
# ---------------------------------------------------------------------------

def offset_step(e: Exp) -> Optional[Tuple[Var, int]]:
    """``(v, c)`` when ``e`` is a copy of ``v`` (``c = 0``), ``v + c``,
    ``v - c`` (as ``(v, -c)``) or ``c + v`` for an integer literal ``c``."""
    if isinstance(e, AtomExp):
        return (e.x, 0) if isinstance(e.x, Var) else None
    if not isinstance(e, BinOp):
        return None
    x, y = e.x, e.y
    if e.op in ("add", "sub") and isinstance(x, Var) and isinstance(y, Const) \
            and is_integral(y.type):
        return x, int(y.value) if e.op == "add" else -int(y.value)
    if e.op == "add" and isinstance(y, Var) and isinstance(x, Const) and is_integral(x.type):
        return y, int(x.value)
    return None


def entry_params(loop: Loop) -> Tuple[bool, ...]:
    """Per parameter of ``loop``: may reverse AD re-install it from the
    loop's final value instead of checkpointing it every iteration (§6.2)?
    Yes for an array whose every use, nested bodies included, is an ``Index``
    at first index ``ivar + c_r`` or the head of one top-level ``Update``
    chain ending in its next value and writing at ``ivar + c_w`` (one
    ``c_w``), with every ``c_r < c_w``: a slot iteration ``i`` reads is
    never written after it, so the final array still holds it.  Offsets
    follow ``offset_step`` copies in walk order (names may repeat across
    sibling scopes)."""
    offs: Dict[str, int] = {loop.ivar.name: 0}
    owner = {p.name: p.name for p in loop.params if rank_of(p.type) > 0}
    tail = dict(owner)  # the chain's last link, per parameter
    reads: Dict[str, list] = {p: [] for p in owner}
    writes: Dict[str, set] = {p: set() for p in owner}
    bad: Set[str] = set()

    def first(idx: Tuple[Atom, ...]) -> Optional[int]:
        a = idx[0] if idx else None
        return offs.get(a.name) if isinstance(a, Var) else None

    def walk(body: Body) -> None:
        for stm in body.stms:
            e = stm.exp
            uses: Iterable[Atom] = exp_atoms(e)
            if type(e) is Index and e.arr.name in reads:
                reads[e.arr.name].append(first(e.idx))
                uses = e.idx
            elif type(e) is Update and tail.get(owner.get(e.arr.name, "")) == e.arr.name:
                p = owner[stm.pat[0].name] = owner[e.arr.name]
                writes[p].add(first(e.idx))
                tail[p] = stm.pat[0].name
                uses = (*e.idx, e.val)
            bad.update(owner[a.name] for a in uses if type(a) is Var and a.name in owner)
            for binders, b in scopes(e):
                for q in binders:
                    offs.pop(q.name, None)
                walk(b)
                bad.update(owner[a.name] for a in b.result if type(a) is Var and a.name in owner)
            for u in stm.pat:
                offs.pop(u.name, None)
            step = offset_step(e)
            if step and step[0].name in offs:
                offs[stm.pat[0].name] = offs[step[0].name] + step[1]

    walk(loop.body)
    for q, a in zip(loop.params, loop.body.result):
        r = a.name if isinstance(a, Var) else ""
        if r != tail.get(q.name, r):  # ``q``'s next value is not its chain's end
            bad.add(q.name)
        if r in owner and r != tail.get(q.name):  # a link returned in another place
            bad.add(owner[r])

    def accepted(p: str) -> bool:
        if p in bad or len(writes[p]) != 1 or None in writes[p] or None in reads[p]:
            return False
        (c_w,) = writes[p]
        return all(c < c_w for c in reads[p])

    return tuple(p.name in owner and accepted(p.name) for p in loop.params)


# ---------------------------------------------------------------------------
# Alpha-invariant content hash
# ---------------------------------------------------------------------------

def ir_hash(fun: Fun) -> str:
    """An alpha-invariant structural content hash of ``fun``.

    Two ``Fun``s hash equal iff they are identical up to a consistent
    renaming of SSA names: every variable is replaced by the de-Bruijn-style
    index of its binding site (binding sites come before uses in ANF, and the
    walk order is deterministic, so alpha-equivalent programs number their
    variables identically; a name bound again in a sibling scope, as AD's
    redundant execution does, is a new variable).  Every field of every node
    feeds the digest, in declaration order, by its role in ``ir.traversal``'s
    shape table — a variable by its index, a static (operator name, element
    type, loop annotation) by ``repr`` — so semantically different programs
    hash apart and no node kind can reach the digest by its SSA names.

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
    sites = itertools.count()
    feed = h.update

    def atoms(xs, bind: bool = False) -> None:
        for a in xs:
            if isinstance(a, Var):
                if bind or a.name not in ids:
                    ids[a.name] = next(sites)
                feed(b"v%d:%s;" % (ids[a.name], repr(a.type).encode()))
            else:
                feed(b"c%s:%s;" % (repr(a.type).encode(), repr(a.value).encode()))

    def lam(l: Lambda) -> None:
        feed(b"lam%d(" % len(l.params))
        atoms(l.params, True)
        body(l.body)
        feed(b")")

    def exp(e) -> None:
        feed(type(e).__name__.encode())
        for name, role, many in _SHAPES[type(e)].fields:
            x = getattr(e, name)
            if role is _STATIC:
                feed(repr(x).encode())
            elif role is _LAM:
                lam(x)
            elif role is _BODY:
                body(x)
            elif x is not None:
                atoms(x if many else (x,), role is _BIND)
            feed(b",")
        feed(b";")

    def body(b: Body) -> None:
        feed(b"{")
        for stm in b.stms:
            exp(stm.exp)
            feed(b"=")
            atoms(stm.pat, True)
        feed(b"->")
        atoms(b.result)
        feed(b"}")

    feed(b"fun%d(" % len(fun.params))
    atoms(fun.params, True)
    body(fun.body)
    feed(b")")
    return h.hexdigest()
