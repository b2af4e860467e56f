"""Simplification: copy propagation, constant folding, algebraic identities.

This is the paper's "simplification engine" — e.g. it is what derives the
specialised ``as_bar += y_bar`` adjoint of a ``reduce (+)`` from the general
two-scan rule automatically, and what cleans up the ``x + 0`` adjoint
initialisations the reverse sweep emits.
"""
from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..ir.ast import (
    AtomExp,
    Atom,
    BinOp,
    Body,
    Cast,
    Const,
    Exp,
    Fun,
    If,
    Iota,
    Map,
    Replicate,
    Select,
    Size,
    UnOp,
    Var,
    ZerosLike,
)
from ..ir.traversal import (
    map_bodies,
    refresh_body,
    same_body,
    scopes,
    subst_exp,
    with_body,
    with_exp,
)
from ..ir.types import BOOL, AccType, is_float, np_dtype, rank_of
from ..exec.prims import apply_binop, apply_unop, cast_to

__all__ = ["simplify_fun", "simplify_body"]


def _is_const(a: Atom, value=None) -> bool:
    if not isinstance(a, Const):
        return False
    if value is None:
        return True
    try:
        return float(a.value) == float(value)
    except (TypeError, ValueError):
        return False


class _Simplifier:
    def __init__(self) -> None:
        # defs tracks scalar-cheap definitions for def-chain queries
        # (e.g. "is this operand a ZerosLike?").
        self.defs: Dict[str, Exp] = {}

    # -- algebraic rules --------------------------------------------------------

    def _is_zero(self, a: Atom) -> bool:
        if _is_const(a, 0):
            return True
        if isinstance(a, Var):
            d = self.defs.get(a.name)
            if isinstance(d, ZerosLike):
                return True
        return False

    def _fold_binop(self, e: BinOp) -> Optional[Exp]:
        x, y = e.x, e.y
        if isinstance(x, Const) and isinstance(y, Const):
            # Fold under the exact conditions the executors evaluate under
            # (``np.errstate(all="ignore")`` — see ``RefInterp.run`` and
            # ``Plan.run``), so a fold can never diverge from runtime
            # semantics: float div-by-zero folds to the same inf/nan the
            # runtime produces, integer div-by-zero to the same value NumPy
            # yields under an ignored error state.  Only *arithmetic*
            # failures (including NumPy's refusal of negative integer
            # powers, a ValueError) demote to "don't fold" — anything else
            # (an unknown op, a bad type) is a real bug and must propagate.
            try:
                with np.errstate(all="ignore"):
                    v = apply_binop(
                        e.op, np_dtype(x.type)(x.value), np_dtype(y.type)(y.value)
                    )
            except (ArithmeticError, ValueError):
                return None
            if e.op in ("lt", "le", "gt", "ge", "eq", "ne", "and", "or"):
                return AtomExp(Const(bool(v), BOOL))
            return AtomExp(Const(v.item() if hasattr(v, "item") else v, x.type))
        if e.op == "add":
            if self._is_zero(x) and rank_of(y.type) >= rank_of(x.type):
                return AtomExp(y)
            if self._is_zero(y) and rank_of(x.type) >= rank_of(y.type):
                return AtomExp(x)
        elif e.op == "sub":
            if self._is_zero(y) and rank_of(x.type) >= rank_of(y.type):
                return AtomExp(x)
        elif e.op == "mul":
            if _is_const(x, 1) and rank_of(y.type) >= rank_of(x.type):
                return AtomExp(y)
            if _is_const(y, 1) and rank_of(x.type) >= rank_of(y.type):
                return AtomExp(x)
            if _is_const(x, 0) and rank_of(y.type) == 0:
                return AtomExp(x)
            if _is_const(y, 0) and rank_of(x.type) == 0:
                return AtomExp(y)
            if isinstance(x, Const) and isinstance(y, Var):
                return self._fold_unit_times_double(x, y)
            if isinstance(y, Const) and isinstance(x, Var):
                return self._fold_unit_times_double(y, x)
        elif e.op == "div":
            if _is_const(y, 1):
                return AtomExp(x)
        elif e.op == "pow":
            if _is_const(y, 1):
                return AtomExp(x)
            if _is_const(y, 2) and is_float(y.type) and is_float(x.type):
                # ``np.power`` calls libm per element; the square is one
                # multiply, and its derivative ``2·x`` needs no second pow.
                return BinOp("mul", x, x)
        return None

    def _fold_unit_times_double(self, c: Const, v: Var) -> Optional[Exp]:
        """``±1.0 · (a + a)`` → ``±2.0 · a``: bitwise-exact, because doubling
        and negation never round (±0, ±inf, NaN and subnormals included).
        The reverse rule of ``(p − c)²`` emits the left-hand side."""
        if not is_float(c.type) or abs(float(c.value)) != 1.0:
            return None
        d = self.defs.get(v.name)
        if isinstance(d, BinOp) and d.op == "add" and isinstance(d.x, Var) and d.x == d.y:
            return BinOp("mul", Const(2.0 * float(c.value), c.type), d.x)
        return None

    def _fold_unop(self, e: UnOp) -> Optional[Exp]:
        if isinstance(e.x, Const):
            # Same errstate discipline as ``_fold_binop``: evaluate exactly
            # as the executors would, demote only arithmetic failures.
            try:
                with np.errstate(all="ignore"):
                    v = apply_unop(e.op, np_dtype(e.x.type)(e.x.value))
            except (ArithmeticError, ValueError):
                return None
            if e.op == "not":
                return AtomExp(Const(bool(v), BOOL))
            return AtomExp(Const(v.item() if hasattr(v, "item") else v, e.x.type))
        if e.op == "neg" and isinstance(e.x, Var):
            d = self.defs.get(e.x.name)
            if isinstance(d, UnOp) and d.op == "neg":
                return AtomExp(d.x)
        return None

    def _fold_select(self, e: Select) -> Optional[Exp]:
        if isinstance(e.c, Const):
            return AtomExp(e.t if e.c.value else e.f)
        if e.t == e.f:
            return AtomExp(e.t)
        return None

    def _fold_cast(self, e: Cast) -> Optional[Exp]:
        if isinstance(e.x, Const):
            # Via the executors' own ``cast_to`` (ndarray ``astype``), not a
            # scalar-constructor call: ``np.int64(inf)`` raises where the
            # runtime's astype quietly produces a platform value — the fold
            # must compute exactly what execution would.
            try:
                with np.errstate(all="ignore"):
                    v = cast_to(np_dtype(e.x.type)(e.x.value), np_dtype(e.to))[()]
            except (ArithmeticError, ValueError):
                return None
            return AtomExp(Const(v.item() if e.to is not BOOL else bool(v), e.to))
        if e.x.type == e.to:
            return AtomExp(e.x)
        return None

    def _fold_size(self, e: Size) -> Optional[Exp]:
        """``length`` of a value whose definition states its extent.  The
        reduce/replicate AD rules take ``length`` of a re-executed forward
        ``map``; reading the extent off the map's *argument* instead is what
        lets DCE drop that forward sweep (§4.1)."""
        if e.dim != 0 or isinstance(e.arr.type, AccType):
            return None
        d = self.defs.get(e.arr.name)
        if isinstance(d, Map) and d.arrs:
            return Size(d.arrs[0], 0)
        if isinstance(d, (Iota, Replicate)):
            return AtomExp(d.n)
        if isinstance(d, ZerosLike) and isinstance(d.x, Var):
            return Size(d.x, 0)
        return None

    # -- traversal --------------------------------------------------------------

    def exp(self, e: Exp, m: Dict[str, Atom]) -> Exp:
        e = subst_exp(e, m)
        if isinstance(e, BinOp):
            return self._fold_binop(e) or e
        if isinstance(e, UnOp):
            return self._fold_unop(e) or e
        if isinstance(e, Select):
            return self._fold_select(e) or e
        if isinstance(e, Cast):
            return self._fold_cast(e) or e
        if isinstance(e, Size):
            return self._fold_size(e) or e
        # Sibling scopes reuse names (AD's redundant execution does): a name
        # that is a parameter here must not keep the definition an earlier
        # sibling's *statement* gave it.
        for binders, _ in scopes(e):
            self._unbind(binders)
        return map_bodies(e, self.body)

    def _unbind(self, params) -> None:
        for p in params:
            self.defs.pop(p.name, None)

    def body(self, body: Body) -> Body:
        m: Dict[str, Atom] = {}
        stms = []
        for stm in body.stms:
            e = self.exp(stm.exp, m)
            # Constant-condition ifs: splice the taken branch.
            if isinstance(e, If) and isinstance(e.cond, Const):
                branch = e.then if e.cond.value else e.els
                branch = refresh_body(branch)
                stms.extend(branch.stms)
                for v, r in zip(stm.pat, branch.result):
                    m[v.name] = r
                continue
            if isinstance(e, AtomExp) and len(stm.pat) == 1:
                m[stm.pat[0].name] = e.x
                continue
            for v in stm.pat:
                self.defs[v.name] = e
            stms.append(with_exp(stm, e))
        result = tuple(m.get(a.name, a) if isinstance(a, Var) else a for a in body.result)
        return same_body(body, stms, result)


def simplify_body(body: Body) -> Body:
    return _Simplifier().body(body)


def simplify_fun(fun: Fun) -> Fun:
    return with_body(fun, simplify_body(fun.body))
