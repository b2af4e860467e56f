"""Imperative statement builder.

Both the tracing frontend and the AD transforms construct IR by pushing
statements onto a ``Builder``.  ``emit`` infers result types via the type
checker, invents fresh names, and returns the bound variables, so transform
code reads like the generated program:

    b = Builder()
    t = b.mul(x, y)
    s = b.add(t, z, name="s")
    body = b.finish([s])
"""
from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..util import IRError, fresh
from .ast import (
    AtomExp,
    Atom,
    BinOp,
    Body,
    Cast,
    Concat,
    Const,
    Exp,
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
    Stm,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
)
from .typecheck import infer_exp_types
from .types import BOOL, F64, I32, I64, Scalar, elem_type

__all__ = ["Builder", "const", "const_like", "as_atom"]


def const(value, ty: Optional[Scalar] = None) -> Const:
    """Make a scalar constant, inferring the type from the Python value."""
    if ty is None:
        if isinstance(value, (bool, np.bool_)):
            ty = BOOL
        elif isinstance(value, (int, np.integer)):
            ty = I64
        elif isinstance(value, (float, np.floating)):
            ty = F64
        else:
            raise IRError(f"cannot infer constant type for {value!r}")
    if ty is BOOL:
        value = bool(value)
    elif ty in (I32, I64):
        value = int(value)
    else:
        value = float(value)
    return Const(value, ty)


def const_like(value, a: Atom) -> Const:
    """A constant of the same element type as ``a``."""
    return const(value, elem_type(a.type))


def as_atom(x, ty: Optional[Scalar] = None) -> Atom:
    """Coerce a Var/Const/Python scalar to an Atom."""
    if isinstance(x, (Var, Const)):
        return x
    return const(x, ty)


class Builder:
    """Accumulates statements; every helper returns the bound Var(s)."""

    def __init__(self) -> None:
        self.stms: List[Stm] = []

    # -- core -------------------------------------------------------------

    def emit(self, exp: Exp, names: Optional[Sequence[str]] = None) -> Tuple[Var, ...]:
        """Append ``let (vs...) = exp`` with fresh names; return the vars."""
        tys = infer_exp_types(exp)
        if names is None:
            names = ["t"] * len(tys)
        if len(names) != len(tys):
            raise IRError(f"emit: {len(names)} names for {len(tys)} results")
        pat = tuple(Var(fresh(n), t) for n, t in zip(names, tys))
        self.stms.append(Stm(pat, exp))
        return pat

    def emit1(self, exp: Exp, name: str = "t") -> Var:
        (v,) = self.emit(exp, [name])
        return v

    def emit_into(self, pat: Tuple[Var, ...], exp: Exp) -> Tuple[Var, ...]:
        """Append a statement binding pre-made variables (types must match)."""
        tys = infer_exp_types(exp)
        if len(tys) != len(pat) or any(v.type != t for v, t in zip(pat, tys)):
            raise IRError(
                f"emit_into: pattern types {[v.type for v in pat]} do not match "
                f"inferred {list(tys)}"
            )
        self.stms.append(Stm(pat, exp))
        return pat

    def extend(self, stms: Iterable[Stm]) -> None:
        self.stms.extend(stms)

    def finish(self, result: Sequence[Atom]) -> Body:
        body = Body(tuple(self.stms), tuple(result))
        self.stms = []
        return body

    # -- scalar ops ---------------------------------------------------------

    def unop(self, op: str, x: Atom, name: str = "t") -> Var:
        return self.emit1(UnOp(op, x), name)

    def binop(self, op: str, x, y, name: str = "t") -> Var:
        x = as_atom(x)
        y = as_atom(y)
        return self.emit1(BinOp(op, x, y), name)

    def add(self, x, y, name: str = "t"):
        return self.binop("add", x, y, name)

    def sub(self, x, y, name: str = "t"):
        return self.binop("sub", x, y, name)

    def mul(self, x, y, name: str = "t"):
        return self.binop("mul", x, y, name)

    def div(self, x, y, name: str = "t"):
        return self.binop("div", x, y, name)

    def neg(self, x, name: str = "t"):
        return self.unop("neg", as_atom(x), name)

    def select(self, c: Atom, t: Atom, f: Atom, name: str = "t") -> Var:
        return self.emit1(Select(c, t, f), name)

    def cast(self, x: Atom, to: Scalar, name: str = "t") -> Var:
        return self.emit1(Cast(x, to), name)

    def copy(self, x: Atom, name: Optional[str] = None) -> Var:
        if name is None:
            name = x.name if isinstance(x, Var) else "c"
        return self.emit1(AtomExp(x), name)

    # -- arrays -------------------------------------------------------------

    def index(self, arr: Var, idx, name: str = "t") -> Var:
        idx = tuple(as_atom(i, I64) for i in (idx if isinstance(idx, (tuple, list)) else (idx,)))
        return self.emit1(Index(arr, idx), name)

    def update(self, arr: Var, idx, val: Atom, name: Optional[str] = None) -> Var:
        idx = tuple(as_atom(i, I64) for i in (idx if isinstance(idx, (tuple, list)) else (idx,)))
        return self.emit1(Update(arr, idx, val), name or arr.name)

    def iota(self, n, elem: Scalar = I64, name: str = "is") -> Var:
        return self.emit1(Iota(as_atom(n, I64), elem), name)

    def replicate(self, n, v: Atom, name: str = "r") -> Var:
        return self.emit1(Replicate(as_atom(n, I64), v), name)

    def zeros_like(self, x: Atom, name: Optional[str] = None) -> Var:
        base = (x.name + "_zb") if isinstance(x, Var) else "zb"
        return self.emit1(ZerosLike(x), name or base)

    def scratch_like(self, n, x: Atom, name: str = "ckpt") -> Var:
        return self.emit1(ScratchLike(as_atom(n, I64), x), name)

    def reverse(self, x: Var, name: str = "rev") -> Var:
        return self.emit1(Reverse(x), name)

    def concat(self, x: Var, y: Var, name: str = "cat") -> Var:
        return self.emit1(Concat(x, y), name)

    # -- SOACs ----------------------------------------------------------------

    def map(
        self,
        lam: Lambda,
        arrs: Sequence[Var],
        accs: Sequence[Var] = (),
        names: Optional[Sequence[str]] = None,
    ) -> Tuple[Var, ...]:
        return self.emit(Map(lam, tuple(arrs), tuple(accs)), names)

    def reduce(self, lam: Lambda, nes: Sequence[Atom], arrs: Sequence[Var], names=None) -> Tuple[Var, ...]:
        return self.emit(Reduce(lam, tuple(nes), tuple(arrs)), names)

    def scan(self, lam: Lambda, nes: Sequence[Atom], arrs: Sequence[Var], names=None) -> Tuple[Var, ...]:
        return self.emit(Scan(lam, tuple(nes), tuple(arrs)), names)

    def reduce_by_index(self, num_bins, lam, nes, inds, arrs, names=None) -> Tuple[Var, ...]:
        return self.emit(
            ReduceByIndex(as_atom(num_bins, I64), lam, tuple(nes), inds, tuple(arrs)),
            names,
        )

    def scatter(self, dest: Var, inds: Var, vals: Var, name: Optional[str] = None) -> Var:
        return self.emit1(Scatter(dest, inds, vals), name or dest.name)

    def gather(self, arr: Var, inds: Var, name: str = "g") -> Var:
        """``map (i -> arr[i]) inds`` — the paper's gather."""
        i = Var(fresh("i"), elem_type(inds.type))
        b = Builder()
        v = b.index(arr, (i,), name="v")
        lam = Lambda((i,), b.finish([v]))
        (out,) = self.map(lam, [inds], names=[name])
        return out

    # -- control flow -----------------------------------------------------------

    def loop(
        self,
        params: Sequence[Var],
        inits: Sequence[Atom],
        ivar: Var,
        n: Atom,
        body: Body,
        names=None,
        stripmine: int = 0,
    ) -> Tuple[Var, ...]:
        return self.emit(
            Loop(tuple(params), tuple(inits), ivar, n, body, stripmine),
            names or [p.name for p in params],
        )

    def while_loop(self, params, inits, cond: Lambda, body: Body, bound=None, names=None) -> Tuple[Var, ...]:
        return self.emit(
            WhileLoop(tuple(params), tuple(inits), cond, body,
                      None if bound is None else as_atom(bound, I64)),
            names or [p.name for p in params],
        )

    def if_(self, cond: Atom, then: Body, els: Body, names=None) -> Tuple[Var, ...]:
        return self.emit(If(cond, then, els), names)

    # -- accumulators ------------------------------------------------------------

    def with_acc(self, arrs: Sequence[Var], lam: Lambda, names=None) -> Tuple[Var, ...]:
        return self.emit(WithAcc(tuple(arrs), lam), names)

    def upd_acc(self, acc: Var, idx, v: Atom, name: Optional[str] = None) -> Var:
        idx = tuple(as_atom(i, I64) for i in (idx if isinstance(idx, (tuple, list)) else (idx,)))
        return self.emit1(UpdAcc(acc, idx, v), name or acc.name)
