"""Small IR analyses shared by executors, AD rules and optimisation passes."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

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
from .types import np_dtype

__all__ = [
    "recognize_binop_lambda",
    "recognize_addition",
    "recognize_redomap_lambda",
    "perfect_map_nest",
    "OP_IDENTITY",
    "ne_is_identity",
    "StaticInfo",
    "infer_static_shapes",
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
# Static shape / size-value inference (the static cost model's shape facts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticInfo:
    """Facts derivable from one concrete argument signature.

    ``shapes`` maps SSA names to their *physical payload* shape (the shape a
    ``BV``'s ``pshape()`` reports — batch dims never change it); ``ints``
    maps names of scalar integers whose *value* is determined by the input
    shapes alone (``Size`` results and arithmetic over them).  Both are
    partial: a missing name means "not statically known", and every recorded
    fact must hold on **every** execution of its binding statement — loop
    and reduction lambdas only contribute when their state shapes are a
    fixpoint (result shape equals the initial shape), otherwise they are
    re-walked with the state parameters unbound.

    The static cost model (``ir/cost_model.py``) reads extents and trip
    counts off this when concrete argument shapes are known.
    """

    shapes: Dict[str, Tuple[int, ...]]
    ints: Dict[str, int]

    def shape(self, name: str) -> Optional[Tuple[int, ...]]:
        return self.shapes.get(name)


def infer_static_shapes(
    fun: Fun, arg_shapes: Sequence[Optional[Tuple[int, ...]]]
) -> StaticInfo:
    """Infer per-name static shapes/sizes of ``fun`` given concrete argument
    payload shapes (``None`` entries mark arguments of unknown shape)."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    ints: Dict[str, int] = {}
    for p, s in zip(fun.params, arg_shapes):
        if s is not None:
            shapes[p.name] = tuple(int(x) for x in s)
    _infer_body(fun.body, shapes, ints)
    return StaticInfo(shapes, ints)


def _atom_shape(a, shapes) -> Optional[Tuple[int, ...]]:
    if isinstance(a, Var):
        return shapes.get(a.name)
    return ()  # Const atoms are scalars


def _atom_int(a, ints) -> Optional[int]:
    if isinstance(a, Var):
        return ints.get(a.name)
    if np.issubdtype(np_dtype(a.type), np.integer):
        return int(a.value)
    return None


def _bcast(*ss) -> Optional[Tuple[int, ...]]:
    if any(s is None for s in ss):
        return None
    try:
        return tuple(np.broadcast_shapes(*ss))
    except ValueError:
        return None


#: Integer BinOps that are exact and fold during shape inference.
_INT_FOLD = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
}


def _infer_fixpoint_lambda(params, init_shapes, body, shapes, ints, extra=()):
    """Walk a stateful lambda/loop body, committing facts only when sound.

    ``params`` are the state parameters, ``init_shapes`` their entry shapes
    (``None`` = unknown); ``extra`` is a list of ``(param, shape)`` bindings
    that hold on every iteration (element parameters, the loop index).
    Returns the per-result shapes when the state shapes are a fixpoint
    (facts committed into ``shapes``/``ints``), else ``None`` after a
    conservative re-walk with the state parameters unbound.
    """
    if all(s is not None for s in init_shapes) and len(params) == len(init_shapes):
        sh2, it2 = dict(shapes), dict(ints)
        for p, s in zip(params, init_shapes):
            sh2[p.name] = s
        for p, s in extra:
            if s is not None:
                sh2[p.name] = s
        _infer_body(body, sh2, it2)
        res_sh = [_atom_shape(a, sh2) for a in body.result]
        if list(res_sh[: len(init_shapes)]) == list(init_shapes):
            shapes.update(sh2)
            ints.update(it2)
            return res_sh
    # State shapes unknown or not provably stable: facts derived from them
    # would only hold on the first iteration.  Re-walk with the state
    # parameters unbound so everything committed is iteration-independent.
    sh3, it3 = dict(shapes), dict(ints)
    for p, s in extra:
        if s is not None:
            sh3[p.name] = s
    _infer_body(body, sh3, it3)
    shapes.update(sh3)
    ints.update(it3)
    return None


def _infer_body(body: Body, shapes, ints) -> None:
    for stm in body.stms:
        out_sh, out_int = _infer_exp(stm.exp, shapes, ints, len(stm.pat))
        for v, s, i in zip(stm.pat, out_sh, out_int):
            if s is not None:
                shapes[v.name] = s
            if i is not None:
                ints[v.name] = int(i)


def _infer_exp(e, shapes, ints, n_out):
    """``(per-result shapes, per-result int values)`` — ``None`` = unknown."""
    nothing = ([None] * n_out, [None] * n_out)

    def only(shape, value=None):
        return ([shape], [value])

    if isinstance(e, AtomExp):
        return only(_atom_shape(e.x, shapes), _atom_int(e.x, ints))
    if isinstance(e, UnOp):
        return only(_atom_shape(e.x, shapes))
    if isinstance(e, BinOp):
        sx, sy = _atom_shape(e.x, shapes), _atom_shape(e.y, shapes)
        val = None
        fold = _INT_FOLD.get(e.op)
        if fold is not None:
            ix, iy = _atom_int(e.x, ints), _atom_int(e.y, ints)
            if ix is not None and iy is not None:
                val = fold(ix, iy)
        return only(_bcast(sx, sy), val)
    if isinstance(e, Select):
        return only(
            _bcast(
                _atom_shape(e.c, shapes),
                _atom_shape(e.t, shapes),
                _atom_shape(e.f, shapes),
            )
        )
    if isinstance(e, Cast):
        return only(_atom_shape(e.x, shapes))
    if isinstance(e, Index):
        s = shapes.get(e.arr.name)
        if s is not None and len(e.idx) <= len(s):
            return only(s[len(e.idx):])
        return nothing
    if isinstance(e, ZerosLike):
        return only(_atom_shape(e.x, shapes))
    if isinstance(e, Size):
        s = shapes.get(e.arr.name)
        if s is not None and -len(s) <= e.dim < len(s):
            return only((), s[e.dim])
        return only(())
    if isinstance(e, Iota):
        n = _atom_int(e.n, ints)
        return only((n,) if n is not None and n >= 0 else None)
    if isinstance(e, Replicate):
        n = _atom_int(e.n, ints)
        sv = _atom_shape(e.v, shapes)
        if n is not None and n >= 0 and sv is not None:
            return only((n,) + sv)
        return nothing
    if isinstance(e, ScratchLike):
        return nothing  # extent is a runtime max over the index array
    if isinstance(e, Reverse):
        return only(shapes.get(e.x.name))
    if isinstance(e, Concat):
        sx, sy = shapes.get(e.x.name), shapes.get(e.y.name)
        if sx and sy and sx[1:] == sy[1:]:
            return only((sx[0] + sy[0],) + sx[1:])
        return nothing
    if isinstance(e, Update):
        return only(shapes.get(e.arr.name))
    if isinstance(e, Scatter):
        return only(shapes.get(e.dest.name))
    if isinstance(e, UpdAcc):
        return only(shapes.get(e.acc.name))

    if isinstance(e, Map):
        arr_sh = [shapes.get(a.name) for a in e.arrs]
        n = next((s[0] for s in arr_sh if s), None)
        elems = list(
            zip(e.lam.params, [s[1:] if s else None for s in arr_sh])
        )
        accs = list(
            zip(e.lam.params[len(e.arrs):], [shapes.get(a.name) for a in e.accs])
        )
        sh2, it2 = dict(shapes), dict(ints)
        for p, s in elems + accs:
            if s is not None:
                sh2[p.name] = s
        _infer_body(e.lam.body, sh2, it2)
        shapes.update(sh2)
        ints.update(it2)
        na = len(e.accs)
        res_sh = [_atom_shape(a, sh2) for a in e.lam.body.result]
        out = [shapes.get(a.name) for a in e.accs]
        for rs in res_sh[na:]:
            out.append((n,) + rs if n is not None and rs is not None else None)
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    if isinstance(e, (Reduce, Scan)):
        arr_sh = [shapes.get(a.name) for a in e.arrs]
        elem_sh = [s[1:] if s else None for s in arr_sh]
        n = next((s[0] for s in arr_sh if s), None)
        ne_sh = [_atom_shape(a, shapes) for a in e.nes]
        extra = list(zip(e.lam.params[len(e.nes):], elem_sh))
        res_sh = _infer_fixpoint_lambda(
            e.lam.params[: len(e.nes)], ne_sh, e.lam.body, shapes, ints, extra
        )
        if res_sh is None:
            return nothing
        # The executors' *empty* fast paths shape the result off the element
        # payload, not the neutral element — so a result-shape claim is only
        # sound when the extent is provably nonzero, or element and neutral
        # payload shapes provably coincide (multi-ne operators take the
        # general path, whose empty result carries the ne shapes).
        if len(e.nes) == 1 and not (n is not None and n > 0):
            if elem_sh[0] is None or ne_sh[0] is None or elem_sh[0] != ne_sh[0]:
                return nothing
        if isinstance(e, Reduce):
            return res_sh[:n_out] + [None] * (n_out - len(res_sh)), [None] * n_out
        # Scan: the general path's empty result collapses to a rank-matched
        # all-zero-extent shape, so only a provably nonzero extent is safe.
        if not (n is not None and n > 0):
            return nothing
        out = [(n,) + rs if rs is not None else None for rs in res_sh]
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    if isinstance(e, ReduceByIndex):
        m = _atom_int(e.num_bins, ints)
        ne_sh = [_atom_shape(a, shapes) for a in e.nes]
        val_sh = [shapes.get(v.name) for v in e.vals]
        # Lambda element parameters correspond to the *value* arrays only
        # (the index array never enters the lambda).
        extra = list(
            zip(
                e.lam.params[len(e.nes):],
                [s[1:] if s else None for s in val_sh],
            )
        )
        _infer_fixpoint_lambda(
            e.lam.params[: len(e.nes)], ne_sh, e.lam.body, shapes, ints, extra
        )
        # Payload is (m,) + the value element shape on the non-fused paths;
        # the redomap-fused path maps the elements first, so stay unknown.
        if m is None or m < 0 or recognize_redomap_lambda(e.lam) is not None:
            return nothing
        out = [
            (m,) + s[1:] if s else None
            for s in val_sh
        ]
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    if isinstance(e, Loop):
        init_sh = [_atom_shape(a, shapes) for a in e.inits]
        res_sh = _infer_fixpoint_lambda(
            e.params, init_sh, e.body, shapes, ints, extra=[(e.ivar, ())]
        )
        out = res_sh if res_sh is not None else [None] * n_out
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    if isinstance(e, WhileLoop):
        init_sh = [_atom_shape(a, shapes) for a in e.inits]
        res_sh = _infer_fixpoint_lambda(
            e.params, init_sh, e.body, shapes, ints
        )
        # The condition's parameters carry the state: bind them only when the
        # body proved the state shapes stable across iterations.
        sh2, it2 = dict(shapes), dict(ints)
        if res_sh is not None:
            for p, s in zip(e.cond.params, init_sh):
                if s is not None:
                    sh2[p.name] = s
        _infer_body(e.cond.body, sh2, it2)
        shapes.update(sh2)
        ints.update(it2)
        out = res_sh if res_sh is not None else [None] * n_out
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    if isinstance(e, If):
        sh_t, it_t = dict(shapes), dict(ints)
        _infer_body(e.then, sh_t, it_t)
        sh_f, it_f = dict(shapes), dict(ints)
        _infer_body(e.els, sh_f, it_f)
        shapes.update(sh_t)
        shapes.update(sh_f)
        ints.update(it_t)
        ints.update(it_f)
        out = []
        for at, af in zip(e.then.result, e.els.result):
            st, sf = _atom_shape(at, sh_t), _atom_shape(af, sh_f)
            out.append(st if st is not None and st == sf else None)
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    if isinstance(e, WithAcc):
        acc_sh = [shapes.get(a.name) for a in e.arrs]
        sh2, it2 = dict(shapes), dict(ints)
        for p, s in zip(e.lam.params, acc_sh):
            if s is not None:
                sh2[p.name] = s
        _infer_body(e.lam.body, sh2, it2)
        shapes.update(sh2)
        ints.update(it2)
        na = len(e.arrs)
        res_sh = [_atom_shape(a, sh2) for a in e.lam.body.result]
        out = list(acc_sh) + res_sh[na:]
        return out[:n_out] + [None] * (n_out - len(out)), [None] * n_out

    return nothing


def perfect_map_nest(exp) -> Tuple[Tuple[Map, ...], Body]:
    """Peel a perfect nest of maps: returns the chain of Map nodes and the
    innermost body.  A nest link requires the lambda body to be exactly one
    Map statement whose results are the body's results (in order)."""
    chain = []
    while isinstance(exp, Map):
        chain.append(exp)
        body = exp.lam.body
        if (
            len(body.stms) == 1
            and isinstance(body.stms[0].exp, Map)
            and tuple(body.result) == tuple(body.stms[0].pat)
        ):
            exp = body.stms[0].exp
        else:
            return tuple(chain), body
    return tuple(chain), None  # type: ignore[return-value]


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
        sched = getattr(e, "schedule", ())
        if sched:  # non-default schedules are distinct programs
            from .schedule import schedule_key

            feed(schedule_key(sched))
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
