"""Type inference and checking for the IR.

``infer_exp_types`` computes the result types of a single expression from its
operand types (used by the builder and the AD transforms to construct
statements), and ``check_fun`` validates a whole function: scoping, arities,
element types, ranks, and accumulator placement.

Scalar ops are *elementwise rank-polymorphic*: operands may be arrays of any
rank (broadcast against scalars or same-rank arrays).  User-facing programs
produced by the tracer only apply them to scalars; the AD transform uses the
rank-polymorphic forms for whole-array adjoint updates.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from ..util import TypeError_
from .ast import (
    AtomExp,
    Atom,
    BINOPS,
    BinOp,
    Body,
    COMPARISONS,
    Cast,
    Concat,
    Exp,
    Fun,
    If,
    Index,
    Iota,
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
    Stm,
    UNOPS,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
)
from .traversal import exp_atoms, scopes
from .types import (
    AccType,
    ArrayType,
    BOOL,
    Scalar,
    Type,
    elem_type,
    is_integral,
    rank_of,
    with_rank,
)

__all__ = ["infer_exp_types", "check_fun"]


def _ty(a: Atom) -> Type:
    return a.type


def _expect_elem_eq(op: str, x: Atom, y: Atom) -> Scalar:
    ex, ey = elem_type(_ty(x)), elem_type(_ty(y))
    if ex is not ey:
        raise TypeError_(f"{op}: element types differ: {ex} vs {ey} ({x!r}, {y!r})")
    return ex


def _broadcast_rank(op: str, *atoms: Atom) -> int:
    ranks = [rank_of(_ty(a)) for a in atoms]
    nz = [r for r in ranks if r > 0]
    if nz and any(r != nz[0] for r in nz):
        raise TypeError_(f"{op}: mismatched operand ranks {ranks}")
    return max(ranks)


def _elem_of_array(v: Var, what: str) -> Tuple[Scalar, int]:
    t = _ty(v)
    if not isinstance(t, ArrayType):
        raise TypeError_(f"{what}: expected array, got {t} ({v!r})")
    return t.elem, t.rank


def infer_exp_types(e: Exp) -> Tuple[Type, ...]:
    """Result types of ``e``, assuming its operands' recorded types."""
    if isinstance(e, AtomExp):
        return (_ty(e.x),)

    if isinstance(e, UnOp):
        if e.op not in UNOPS:
            raise TypeError_(f"unknown unop {e.op}")
        t = _ty(e.x)
        if e.op == "not":
            if elem_type(t) is not BOOL:
                raise TypeError_("not: operand must be bool")
            return (t,)
        if elem_type(t) is BOOL:
            raise TypeError_(f"{e.op}: operand must be numeric")
        return (t,)

    if isinstance(e, BinOp):
        if e.op not in BINOPS:
            raise TypeError_(f"unknown binop {e.op}")
        rank = _broadcast_rank(e.op, e.x, e.y)
        if e.op in ("and", "or"):
            if elem_type(_ty(e.x)) is not BOOL or elem_type(_ty(e.y)) is not BOOL:
                raise TypeError_(f"{e.op}: operands must be bool")
            return (with_rank(BOOL, rank),)
        elem = _expect_elem_eq(e.op, e.x, e.y)
        if e.op in COMPARISONS:
            return (with_rank(BOOL, rank),)
        if elem is BOOL:
            raise TypeError_(f"{e.op}: operands must be numeric")
        return (with_rank(elem, rank),)

    if isinstance(e, Select):
        if elem_type(_ty(e.c)) is not BOOL:
            raise TypeError_("select: condition must be bool")
        elem = _expect_elem_eq("select", e.t, e.f)
        rank = _broadcast_rank("select", e.c, e.t, e.f)
        return (with_rank(elem, rank),)

    if isinstance(e, Cast):
        return (with_rank(e.to, rank_of(_ty(e.x))),)

    if isinstance(e, Index):
        elem, rank = _elem_of_array(e.arr, "index")
        if len(e.idx) == 0 or len(e.idx) > rank:
            raise TypeError_(f"index: {len(e.idx)} indices into rank-{rank} array")
        for i in e.idx:
            if not is_integral(_ty(i)) or rank_of(_ty(i)) != 0:
                raise TypeError_(f"index: indices must be integral scalars, got {_ty(i)}")
        return (with_rank(elem, rank - len(e.idx)),)

    if isinstance(e, Update):
        elem, rank = _elem_of_array(e.arr, "update")
        if len(e.idx) == 0 or len(e.idx) > rank:
            raise TypeError_(f"update: {len(e.idx)} indices into rank-{rank} array")
        want = rank - len(e.idx)
        if rank_of(_ty(e.val)) != want or elem_type(_ty(e.val)) is not elem:
            raise TypeError_(
                f"update: value type {_ty(e.val)} does not match slot "
                f"{with_rank(elem, want)}"
            )
        return (_ty(e.arr),)

    if isinstance(e, Iota):
        if not is_integral(_ty(e.n)):
            raise TypeError_("iota: count must be integral")
        if not is_integral(e.elem):
            raise TypeError_("iota: element type must be integral")
        return (ArrayType(e.elem, 1),)

    if isinstance(e, Replicate):
        if not is_integral(_ty(e.n)):
            raise TypeError_("replicate: count must be integral")
        t = _ty(e.v)
        if isinstance(t, AccType):
            raise TypeError_("replicate: cannot replicate accumulators")
        return (with_rank(elem_type(t), rank_of(t) + 1),)

    if isinstance(e, ZerosLike):
        t = _ty(e.x)
        if isinstance(t, AccType):
            raise TypeError_("zeros_like: cannot zero accumulators")
        return (t,)

    if isinstance(e, ScratchLike):
        if not is_integral(_ty(e.n)):
            raise TypeError_("scratch: count must be integral")
        t = _ty(e.x)
        return (with_rank(elem_type(t), rank_of(t) + 1),)

    if isinstance(e, Size):
        t = _ty(e.arr)
        if isinstance(t, (ArrayType, AccType)):
            rank = t.rank
        else:
            raise TypeError_(f"size: expected array or accumulator, got {t}")
        if not (0 <= e.dim < rank):
            raise TypeError_(f"size: dim {e.dim} out of range for rank {rank}")
        return (Scalar.I64,)

    if isinstance(e, Reverse):
        _elem_of_array(e.x, "reverse")
        return (_ty(e.x),)

    if isinstance(e, Concat):
        ex, rx = _elem_of_array(e.x, "concat")
        ey, ry = _elem_of_array(e.y, "concat")
        if ex is not ey or rx != ry:
            raise TypeError_("concat: operand types differ")
        return (_ty(e.x),)

    if isinstance(e, Map):
        lam = e.lam
        if len(e.arrs) == 0:
            raise TypeError_("map: needs at least one array argument")
        if len(lam.params) != len(e.arrs) + len(e.accs):
            raise TypeError_(
                f"map: lambda takes {len(lam.params)} params, expected "
                f"{len(e.arrs)} array elems + {len(e.accs)} accumulators"
            )
        for v, p in zip(e.arrs, lam.params):
            elem, rank = _elem_of_array(v, "map")
            want = with_rank(elem, rank - 1)
            if p.type != want:
                raise TypeError_(f"map: param {p!r}: {p.type} does not match element {want}")
        for v, p in zip(e.accs, lam.params[len(e.arrs):]):
            if not isinstance(_ty(v), AccType) or p.type != _ty(v):
                raise TypeError_(f"map: accumulator param {p!r} mismatch with {v!r}")
        res = [a.type for a in lam.body.result]
        n_acc = len(e.accs)
        if len(res) < n_acc:
            raise TypeError_("map: lambda must return all accumulators")
        for v, t in zip(e.accs, res[:n_acc]):
            if t != _ty(v):
                raise TypeError_("map: accumulator results must lead the lambda's results")
        out: List[Type] = [t for t in res[:n_acc]]
        for t in res[n_acc:]:
            if isinstance(t, AccType):
                raise TypeError_("map: non-leading accumulator result")
            out.append(with_rank(elem_type(t), rank_of(t) + 1))
        return tuple(out)

    if isinstance(e, (Reduce, Scan)):
        # Canonical operators are (k+k) -> k over k arrays whose element
        # types equal the neutral elements.  The fusion engine additionally
        # produces *redomap* shapes: m element arrays (m need not equal k)
        # with a (k+m) -> k lambda whose element parameters are typed by the
        # arrays and whose accumulators/results are typed by the neutral
        # elements (the map part is folded into the operator).
        k = len(e.nes)
        m = len(e.arrs)
        lam = e.lam
        if m == 0:
            raise TypeError_("reduce/scan: needs at least one array argument")
        if len(lam.params) != k + m or len(lam.body.result) != k:
            raise TypeError_(
                f"reduce/scan: operator must be ({k}+{m}) -> {k}, got "
                f"{len(lam.params)} -> {len(lam.body.result)}"
            )
        for i, ne in enumerate(e.nes):
            nt = _ty(ne)
            if lam.params[i].type != nt:
                raise TypeError_(f"reduce/scan: accumulator param {i} type mismatch")
            if lam.body.result[i].type != nt:
                raise TypeError_(f"reduce/scan: operator result {i} type mismatch")
        for j, v in enumerate(e.arrs):
            elem, rank = _elem_of_array(v, "reduce/scan")
            et = with_rank(elem, rank - 1)
            if lam.params[k + j].type != et:
                raise TypeError_(f"reduce/scan: element param {j} type mismatch")
        if isinstance(e, Reduce):
            return tuple(_ty(ne) for ne in e.nes)
        return tuple(with_rank(elem_type(_ty(ne)), rank_of(_ty(ne)) + 1) for ne in e.nes)

    if isinstance(e, ReduceByIndex):
        if not is_integral(_ty(e.num_bins)):
            raise TypeError_("reduce_by_index: bin count must be integral")
        _elem_of_array(e.inds, "reduce_by_index")
        if not is_integral(_ty(e.inds)):
            raise TypeError_("reduce_by_index: indices must be integral")
        # Like reduce/scan, the operator is (k+m) -> k: canonical hists have
        # m == k value arrays typed like the neutral elements; fused
        # (redomap-shaped) hists may draw their contributions from m
        # producer input arrays instead.
        k = len(e.nes)
        m = len(e.arrs)
        if m == 0 or len(e.lam.params) != k + m or len(e.lam.body.result) != k:
            raise TypeError_("reduce_by_index: operator arity mismatch")
        for i, ne in enumerate(e.nes):
            nt = _ty(ne)
            if e.lam.params[i].type != nt or e.lam.body.result[i].type != nt:
                raise TypeError_("reduce_by_index: neutral element type mismatch")
        for j, v in enumerate(e.arrs):
            elem, rank = _elem_of_array(v, "reduce_by_index")
            if e.lam.params[k + j].type != with_rank(elem, rank - 1):
                raise TypeError_("reduce_by_index: value element type mismatch")
        return tuple(with_rank(elem_type(_ty(ne)), rank_of(_ty(ne)) + 1) for ne in e.nes)

    if isinstance(e, Scatter):
        elem_d, rank_d = _elem_of_array(e.dest, "scatter")
        _elem_of_array(e.inds, "scatter")
        if not is_integral(_ty(e.inds)):
            raise TypeError_("scatter: indices must be integral")
        elem_v, rank_v = _elem_of_array(e.vals, "scatter")
        if elem_v is not elem_d or rank_v != rank_d:
            raise TypeError_("scatter: values must match destination element type/rank")
        return (_ty(e.dest),)

    if isinstance(e, Loop):
        if len(e.params) != len(e.inits):
            raise TypeError_("loop: #params != #inits")
        for p, i in zip(e.params, e.inits):
            if _ty(i) != p.type:
                raise TypeError_(f"loop: init for {p!r}: {_ty(i)} != {p.type}")
        if not is_integral(_ty(e.n)):
            raise TypeError_("loop: trip count must be integral")
        if not is_integral(e.ivar.type):
            raise TypeError_("loop: induction variable must be integral")
        if len(e.body.result) != len(e.params):
            raise TypeError_("loop: body must return one value per loop param")
        for p, r in zip(e.params, e.body.result):
            if _ty(r) != p.type:
                raise TypeError_(f"loop: body result for {p!r}: {_ty(r)} != {p.type}")
        if not isinstance(e.stripmine, int) or e.stripmine < 0:
            raise TypeError_(
                "loop: stripmine must be a non-negative int (0 and 1 mean off), "
                f"got {e.stripmine!r}"
            )
        return tuple(p.type for p in e.params)

    if isinstance(e, WhileLoop):
        if len(e.params) != len(e.inits) or len(e.body.result) != len(e.params):
            raise TypeError_("while: arity mismatch")
        if len(e.cond.body.result) != 1 or e.cond.body.result[0].type is not BOOL:
            raise TypeError_("while: condition must return a single bool")
        return tuple(p.type for p in e.params)

    if isinstance(e, If):
        if _ty(e.cond) is not BOOL:
            raise TypeError_("if: condition must be a boolean scalar")
        tt = tuple(a.type for a in e.then.result)
        tf = tuple(a.type for a in e.els.result)
        if tt != tf:
            raise TypeError_(f"if: branch types differ: {tt} vs {tf}")
        return tt

    if isinstance(e, WithAcc):
        lam = e.lam
        if len(lam.params) != len(e.arrs):
            raise TypeError_("withacc: lambda must take one accumulator per array")
        for v, p in zip(e.arrs, lam.params):
            elem, rank = _elem_of_array(v, "withacc")
            if p.type != AccType(elem, rank):
                raise TypeError_(f"withacc: param {p!r} must be acc of {v!r}")
        res = lam.body.result
        n = len(e.arrs)
        if len(res) < n:
            raise TypeError_("withacc: lambda must return all accumulators first")
        for v, r in zip(e.arrs, res[:n]):
            elem, rank = _elem_of_array(v, "withacc")
            if r.type != AccType(elem, rank):
                raise TypeError_("withacc: leading results must be the accumulators")
        out = [v.type for v in e.arrs]
        for r in res[n:]:
            # Secondary results may include *inherited* accumulators (created
            # by an enclosing WithAcc and threaded through this region) —
            # they pass through unchanged.
            out.append(r.type)
        return tuple(out)

    if isinstance(e, UpdAcc):
        t = _ty(e.acc)
        if not isinstance(t, AccType):
            raise TypeError_(f"upd: first operand must be an accumulator, got {t}")
        if len(e.idx) > t.rank:
            raise TypeError_("upd: too many indices")
        want = t.rank - len(e.idx)
        if rank_of(_ty(e.v)) != want or elem_type(_ty(e.v)) is not t.elem:
            raise TypeError_(
                f"upd: value type {_ty(e.v)} does not match slot "
                f"{with_rank(t.elem, want)}"
            )
        return (t,)

    raise TypeError_(f"infer_exp_types: unknown expression {type(e).__name__}")


# ---------------------------------------------------------------------------
# Whole-function checking
# ---------------------------------------------------------------------------


class _Checker:
    def __init__(self) -> None:
        self.scope: Dict[str, Type] = {}

    def atom(self, a: Atom) -> None:
        if isinstance(a, Var):
            if a.name not in self.scope:
                raise TypeError_(f"use of unbound variable {a.name}")
            if self.scope[a.name] != a.type:
                raise TypeError_(
                    f"variable {a.name} used at type {a.type}, bound at {self.scope[a.name]}"
                )

    def bind(self, v: Var) -> None:
        self.scope[v.name] = v.type

    def body(self, b: Body) -> Tuple[Type, ...]:
        saved = dict(self.scope)
        for stm in b.stms:
            self.stm(stm)
        for a in b.result:
            self.atom(a)
        tys = tuple(a.type for a in b.result)
        self.scope = saved
        return tys

    def stm(self, stm: Stm) -> None:
        e = stm.exp
        for a in exp_atoms(e):
            self.atom(a)
        for binders, body in scopes(e):
            saved = dict(self.scope)
            for p in binders:
                self.bind(p)
            self.body(body)
            self.scope = saved
        tys = infer_exp_types(e)
        if len(tys) != len(stm.pat):
            raise TypeError_(
                f"statement binds {len(stm.pat)} vars but expression produces "
                f"{len(tys)}: {stm.pat}"
            )
        for v, t in zip(stm.pat, tys):
            if v.type != t:
                raise TypeError_(f"binding {v.name}: declared {v.type}, inferred {t}")
            self.bind(v)


def check_fun(fun: Fun) -> Tuple[Type, ...]:
    """Type-check a function; returns its result types.  Raises TypeError_."""
    c = _Checker()
    seen = set()
    for p in fun.params:
        if p.name in seen:
            raise TypeError_(f"duplicate parameter {p.name}")
        seen.add(p.name)
        c.bind(p)
    return c.body(fun.body)
