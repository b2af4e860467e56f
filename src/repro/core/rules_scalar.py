"""Scalar derivative rules shared by forward and reverse mode.

Each rule emits, via a ``Builder``, the partial derivative of a primitive
with respect to one operand, *at the primal point* — i.e. the local Jacobian
entries of Fig. 1's rewrite rules.  Both ``jvp`` (tangent = Σ ∂f/∂aᵢ · ȧᵢ)
and ``vjp`` (āᵢ += ∂f/∂aᵢ · v̄) are assembled from the same table, which
keeps the two modes consistent by construction.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

from ..ir.ast import Atom
from ..ir.builder import Builder, const_like
from ..ir.types import is_float
from ..util import ADError

__all__ = ["unop_partial", "binop_partials", "minmax_takes_x", "is_diff_atom"]


def is_diff_atom(a: Atom) -> bool:
    """Does this atom carry derivatives (float element type)?"""
    return is_float(a.type)


def unop_partial(b: Builder, op: str, x: Atom, primal: Atom) -> Optional[Atom]:
    """∂(op x)/∂x as an atom, or None if identically zero.

    ``primal`` is the bound result of the unop, reusable per the redundant
    execution guarantee (the forward sweep brought it into scope).
    """
    one = const_like(1.0, x)
    if op == "neg":
        return b.neg(one, "d")
    if op == "sin":
        return b.unop("cos", x, "d")
    if op == "cos":
        s = b.unop("sin", x, "d")
        return b.neg(s, "d")
    if op == "tan":
        t2 = b.mul(primal, primal, "d")
        return b.add(one, t2, "d")
    if op == "exp":
        return primal
    if op == "log":
        return b.div(one, x, "d")
    if op == "sqrt":
        two = const_like(2.0, x)
        den = b.mul(two, primal, "d")
        return b.div(one, den, "d")
    if op == "abs":
        return b.unop("sgn", x, "d")
    if op == "sgn":
        return None
    if op == "tanh":
        t2 = b.mul(primal, primal, "d")
        return b.sub(one, t2, "d")
    if op == "sigmoid":
        omt = b.sub(one, primal, "d")
        return b.mul(primal, omt, "d")
    if op == "floor":
        return None
    if op == "erf":
        # d/dx erf(x) = 2/sqrt(pi) * exp(-x^2)
        x2 = b.mul(x, x, "d")
        nx2 = b.neg(x2, "d")
        ex = b.unop("exp", nx2, "d")
        c = const_like(2.0 / math.sqrt(math.pi), x)
        return b.mul(c, ex, "d")
    if op == "not":
        return None
    raise ADError(f"no derivative rule for unary op {op!r}")


def minmax_takes_x(b: Builder, op: str, x: Atom, y: Atom) -> Atom:
    """Whether ``x `op` y`` (``min``/``max``) returned ``x``: it wins ties, and
    a NaN ``x`` is what the operator propagated.  Derivatives follow that
    operand, so a left fold routes them to the first extremal element — the
    first NaN, if any — as the reduce rule does (``rules_fold``)."""
    c = b.binop("le" if op == "min" else "ge", x, y, "d")
    return b.binop("or", c, b.binop("ne", x, x, "nan"), "d")


def binop_partials(
    b: Builder, op: str, x: Atom, y: Atom, primal: Atom
) -> Tuple[Optional[Atom], Optional[Atom]]:
    """(∂/∂x, ∂/∂y) of ``x op y`` as atoms (None where identically zero)."""
    one = const_like(1.0, x) if is_float(x.type) else None
    if op == "add":
        return one, one
    if op == "sub":
        none = b.neg(one, "d")
        return one, none
    if op == "mul":
        return y, x
    if op == "div":
        dx = b.div(one, y, "d")
        # ∂(x/y)/∂y = -x/y² = -primal/y
        q = b.div(primal, y, "d")
        dy = b.neg(q, "d")
        return dx, dy
    if op == "pow":
        # ∂/∂x = y·x^(y-1);  ∂/∂y = x^y·ln(x)
        ym1 = b.sub(y, one, "d")
        xp = b.binop("pow", x, ym1, "d")
        dx = b.mul(y, xp, "d")
        lx = b.unop("log", x, "d")
        dy = b.mul(primal, lx, "d")
        return dx, dy
    if op in ("min", "max"):
        c = minmax_takes_x(b, op, x, y)
        zero = const_like(0.0, x)
        dx = b.select(c, one, zero, "d")
        dy = b.select(c, zero, one, "d")
        return dx, dy
    if op == "mod":
        # x mod y = x - floor(x/y)·y  ⇒  ∂/∂x = 1, ∂/∂y = -floor(x/y)
        q = b.div(x, y, "d")
        fq = b.unop("floor", q, "d")
        dy = b.neg(fq, "d")
        return one, dy
    if op in ("lt", "le", "gt", "ge", "eq", "ne", "and", "or"):
        return None, None
    raise ADError(f"no derivative rule for binary op {op!r}")
