"""Reverse AD of ``reduce`` (paper §5.1).

The general rule computes, for every i, the prefix ``l_i = a_0 ⊙ … ⊙ a_{i-1}``
and suffix ``r_i = a_{i+1} ⊙ … ⊙ a_{n-1}`` with two exclusive scans, then
applies the core rewrite rule to ``y = l_i ⊙ a_i ⊙ r_i``:

    ā_i += ∂(l_i ⊙ a_i ⊙ r_i)/∂a_i · ȳ

The special cases (§5.1.1) replace this 5-pass pipeline:

* ``+``   : ā += ȳ (broadcast);
* ``*``   : forward sweep counts zeros and multiplies non-zeros; the return
  sweep distributes ``ȳ·(y/aᵢ)`` / ``ȳ·p`` according to the zero count;
* ``min``/``max`` : ``y`` stays the canonical reduce; the forward sweep adds
  the first index holding ``y`` (``first_index``: a bulk map and an integer
  ``reduce min``, no tuple operator), and only that element — the *hot
  lane* ``iy`` — receives ``ȳ``.  A free array of an enclosing map gets one
  accumulator update at ``iy``.  In value mode, when the array is a ``map``
  result of this scope that the reduce alone reads, the adjoint stays
  sparse: the rule records ``(iy, ȳ)`` on the ``AdjScope`` and
  ``rules_map.rev_map`` differentiates that one element of the map.
  Otherwise it is the dense one-hot map ``adjoint.one_hot``.  ``jvp`` lifts
  the operator, whose tangent follows the same element
  (``rules_scalar.minmax_takes_x``).
"""
from __future__ import annotations

from typing import Tuple

from ..ir.analysis import recognize_binop_lambda
from ..ir.ast import AtomExp, Atom, Const, Iota, Lambda, Reduce, Size, Stm, Var
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars
from ..ir.types import I64, elem_type, is_float, rank_of
from ..util import ADError, fresh
from .adjoint import AdjScope, inline_lambda, one_hot

__all__ = ["fwd_reduce", "rev_reduce", "lifted_op", "op_lambda", "first_hit",
           "first_index", "require_const_nes", "NO_INDEX"]

#: Neutral element of a first-index reduce: past the end of any array.
NO_INDEX = 2**62


def lifted_op(lam: Lambda) -> Lambda:
    """Forward-mode lift of a binary scalar operator ``λ a b → z`` into
    ``λ a b ȧ ḃ → (z, ż)`` — used to evaluate ∂⊙/∂a and ∂⊙/∂b at a point."""
    from .jvp import _JVP, _dvar

    a, b_ = lam.params
    j = _JVP()
    da, db = _dvar(a), _dvar(b_)
    j.tan[a.name] = da
    j.tan[b_.name] = db
    bb = Builder()
    prim, tans = j.body(lam.body, bb)
    body = bb.finish(tuple(prim) + tuple(tans))
    return Lambda((a, b_, da, db), body)


def op_lambda(op: str, ty) -> Lambda:
    """The canonical operator ``\\a b -> a `op` b`` on scalars of type ``ty``."""
    a, b_ = Var(fresh("a"), ty), Var(fresh("b"), ty)
    lb = Builder()
    return Lambda((a, b_), lb.finish([lb.binop(op, a, b_, "r")]))


def require_const_nes(e, what: str) -> None:
    """The reverse rules of reduce/scan/hist treat neutral elements as
    constants: a computed float one would get no adjoint, so refuse it
    rather than return a silently wrong derivative (``jvp`` handles it)."""
    if any(is_float(ne.type) and not isinstance(ne, Const) for ne in e.nes):
        raise ADError(
            f"reverse AD of {what} with an input-dependent float neutral "
            "element is not supported: the rules of paper §5.1–5.2 assume a "
            "constant one (fold the value in after the reduction, or use jvp)"
        )


def first_hit(b: Builder, v: Atom, y: Atom, i: Atom) -> Var:
    """``i`` if element ``v`` is the extremum ``y`` or is NaN, else
    ``NO_INDEX``: a ``reduce min`` over these is the first index holding the
    extremum.  min/max propagate NaN, so a NaN extremum routes to the first
    NaN, as ``np.argmin`` does."""
    eq = b.binop("eq", v, y, "eq")
    nan = b.binop("ne", v, v, "nan")
    hit = b.binop("or", eq, nan, "hit")
    return b.select(hit, i, const(NO_INDEX, I64), "hi")


def first_index(b: Builder, arr: Var, y: Atom) -> Tuple[Var, Var]:
    """``(iota n, iy)``: ``iy`` is the first index of ``arr`` holding its
    extremum ``y``, ``NO_INDEX`` for an empty ``arr``.  A bulk ``map`` and an
    integer ``reduce min``, which lower to ufunc/redomap, not to a fold."""
    idxs = b.emit1(Iota(b.emit1(Size(arr), "n")), "is")
    v, i = Var(fresh("v"), elem_type(arr.type)), Var(fresh("i"), I64)
    hb = Builder()
    hi = first_hit(hb, v, y, i)
    (hits,) = b.map(Lambda((v, i), hb.finish([hi])), [arr, idxs], names=["hits"])
    (iy,) = b.reduce(op_lambda("min", I64), [const(NO_INDEX, I64)], [hits], names=["iy"])
    return idxs, iy


def fwd_reduce(vjp, stm: Stm, e: Reduce, b: Builder):
    """Forward sweep; special operators compute extra bookkeeping."""
    op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
    if op is None or not is_float(stm.pat[0].type):
        b.emit_into(stm.pat, e)
        return {"kind": "general" if len(e.nes) == 1 else "tuple"}
    arr = e.arrs[0]
    et = elem_type(arr.type)
    if op == "add":
        b.emit_into(stm.pat, e)
        return {"kind": "add"}
    if op == "mul":
        # One map-reduce pass: count zeros, multiply the non-zeros into the
        # neutral element (which need not be 1).
        x = Var(fresh("x"), et)
        xb = Builder()
        isz = xb.binop("eq", x, const(0.0, et), "isz")
        zf = xb.select(isz, const(1, I64), const(0, I64), "zf")
        nzv = xb.select(isz, const(1.0, et), x, "nzv")
        lam = Lambda((x,), xb.finish([zf, nzv]))
        zflags, nzvals = b.map(lam, [arr], names=["zf", "nzv"])

        c1, c2, x1, x2 = (Var(fresh(n), t) for n, t in
                          (("c1", I64), ("p1", et), ("c2", I64), ("p2", et)))
        ob = Builder()
        cs = ob.add(c1, x1, "cs")
        ps = ob.mul(c2, x2, "ps")
        op2 = Lambda((c1, c2, x1, x2), ob.finish([cs, ps]))
        nz, p = b.reduce(op2, [const(0, I64), e.nes[0]], [zflags, nzvals], names=["nz", "p"])
        has0 = b.binop("eq", nz, const(0, I64), "has0")
        y = b.select(has0, p, const(0.0, et), "y")
        b.emit_into(stm.pat, AtomExp(y))
        return {"kind": "mul", "nz": nz, "p": p}
    b.emit_into(stm.pat, e)
    idxs, iy = first_index(b, arr, stm.pat[0])
    return {"kind": op, "idxs": idxs, "iy": iy}


def rev_reduce(vjp, stm: Stm, e: Reduce, aux, sc: AdjScope) -> None:
    require_const_nes(e, "reduce")
    b = sc.b
    kind = aux["kind"]
    if kind == "tuple":
        raise ADError(
            "reverse AD of tuple-valued reduces with a general operator is "
            "not supported (specialise the operator or use jvp)"
        )
    arr = e.arrs[0]
    et = elem_type(arr.type)
    ybar = sc.lookup(stm.pat[0])

    if kind == "add":
        # ∂(l+a+r)/∂a · ȳ = ȳ for every element (derived automatically from
        # the general rule by the simplifier; hardwired here as in §5.1.1).
        sc.add(arr, ybar)
        return

    if kind == "mul":
        nz, p = aux["nz"], aux["p"]
        a = Var(fresh("a"), et)
        ab = Builder()
        c0 = ab.binop("eq", nz, const(0, I64), "c0")
        c1 = ab.binop("eq", nz, const(1, I64), "c1")
        az = ab.binop("eq", a, const(0.0, et), "az")
        pa = ab.div(p, a, "pa")
        v0 = ab.mul(ybar, pa, "v0")
        v1 = ab.mul(ybar, p, "v1")
        one0 = ab.binop("and", c1, az, "one0")
        inner = ab.select(one0, v1, const(0.0, et), "inner")
        r = ab.select(c0, v0, inner, "r")
        lam = Lambda((a,), ab.finish([r]))
        (contrib,) = b.map(lam, [arr], names=["c"])
        sc.add(arr, contrib)
        return

    if kind in ("min", "max"):
        # Only the first element holding y receives ȳ.
        idxs, iy = aux["idxs"], aux["iy"]
        if arr.name in sc.acc_env:
            # A free array of an enclosing map: one update of its accumulator,
            # of 0 when no element holds y (a non-identity neutral element).
            # An empty array has no slot to update and fails loudly.
            n = b.emit1(Size(arr), "n")
            inb = b.binop("lt", iy, n, "inb")
            safe = b.binop("min", iy, b.sub(n, const(1, I64), "nm1"), "safe")
            sc.add_at(arr, (safe,), b.select(inb, ybar, const(0.0, et), "cv"))
            return
        # Value mode.  A map result only this reduce reads keeps its adjoint
        # sparse, for ``rev_map`` to differentiate the hot lane alone;
        # anything else gets the one-hot map.
        if rank_of(arr.type) == 1 and sc.sole_map_read(arr):
            sc.defer_one_hot(arr, idxs, iy, ybar)
        else:
            sc.add(arr, one_hot(b, idxs, iy, ybar))
        return

    # ----- general rule: two exclusive scans + a map of the local vjp -------
    lam = e.lam
    if any(is_float(v.type) for v in free_vars(lam).values()):
        raise ADError(
            "reverse AD of reduce with a free-variable-capturing operator is "
            "not supported (paper §5.1 assumes ⊙ has no free variables)"
        )
    ne = e.nes[0]
    n = b.emit1(Size(arr), "n")

    # ls: forward exclusive scan.
    (incl,) = b.scan(lam, [ne], [arr], names=["incl"])
    idxs = b.emit1(Iota(n), "is")
    i1 = Var(fresh("i"), I64)
    sb = Builder()
    is0 = sb.binop("eq", i1, const(0, I64), "is0")
    im1 = sb.sub(i1, const(1, I64), "im1")
    safe = sb.binop("max", im1, const(0, I64), "safe")
    prev = sb.index(incl, (safe,), "prev")
    lv = sb.select(is0, ne, prev, "lv")
    (ls,) = b.map(Lambda((i1,), sb.finish([lv])), [idxs], names=["ls"])

    # rs: reversed exclusive scan with the flipped operator.
    pa, pb_ = lam.params
    fb = Builder()
    fres = inline_lambda(fb, lam, (pb_, pa))
    flip = Lambda((pa, pb_), fb.finish(fres))
    rarr = b.reverse(arr, "ra")
    (rincl,) = b.scan(flip, [ne], [rarr], names=["rincl"])
    i2 = Var(fresh("i"), I64)
    rb = Builder()
    is02 = rb.binop("eq", i2, const(0, I64), "is0")
    im12 = rb.sub(i2, const(1, I64), "im1")
    safe2 = rb.binop("max", im12, const(0, I64), "safe")
    prev2 = rb.index(rincl, (safe2,), "prev")
    rv = rb.select(is02, ne, prev2, "rv")
    (rs_rev,) = b.map(Lambda((i2,), rb.finish([rv])), [idxs], names=["rsrev"])
    rs = b.reverse(rs_rev, "rs")

    # ā_i += ∂(l ⊙ a ⊙ r)/∂a · ȳ, computed with the lifted operator.
    lift = lifted_op(lam)
    lp = Var(fresh("l"), et)
    ap = Var(fresh("a"), et)
    rp = Var(fresh("r"), et)
    mb = Builder()
    one = const(1.0, et)
    zero = const(0.0, et)
    # t = l ⊙ a with ∂t/∂a;  y = t ⊙ r with ∂y/∂t;  chain them.
    t, dt = inline_lambda(mb, lift, (lp, ap, zero, one))
    _y, dy = inline_lambda(mb, lift, (t, rp, one, zero))
    dya = mb.mul(dy, dt, "dya")
    cv = mb.mul(dya, ybar, "cv")
    mlam = Lambda((lp, ap, rp), mb.finish([cv]))
    (contrib,) = b.map(mlam, [ls, arr, rs], names=["c"])
    sc.add(arr, contrib)
