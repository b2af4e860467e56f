"""Reverse AD of the fold family: ``reduce`` (paper §5.1), ``reduce_by_index``
(§5.1.2) and ``scan`` (§5.2), each rule written once.

The general rule of ``reduce`` computes, for every i, the prefix
``l_i = a_0 ⊙ … ⊙ a_{i-1}`` and suffix ``r_i = a_{i+1} ⊙ … ⊙ a_{n-1}`` with
two exclusive scans (``exclusive_scan``), then applies the core rewrite rule
(``core_rule``) to ``y = l_i ⊙ a_i ⊙ r_i``:

    ā_i += ∂(l_i ⊙ a_i ⊙ r_i)/∂a_i · ȳ

``reduce_by_index`` mirrors it per bin: a stable counting sort groups the
elements by bin, the two scans are segmented, and ȳ is the bin's h̄.  (The
paper reports this rule as work in progress; it is an extension here.)  An
element reads its bin through ``bin_guard``: out-of-range ones get nothing.

The special operators (§5.1.1) replace that pipeline:

* ``+``   : ā += ȳ; per bin ās[i] += h̄[inds[i]];
* ``*``   : the forward sweep counts zeros and multiplies the non-zeros into
  the neutral element (``zero_split``, per bin for a histogram); the return
  sweep distributes ``ȳ·(p/aᵢ)`` / ``ȳ·p`` by the zero count (``mul_adjoint``);
* ``min``/``max`` : ``y`` stays the canonical fold; the forward sweep adds the
  first index holding ``y`` (``first_index``: a bulk map and an integer
  ``reduce min``, no tuple operator; per bin, an integer ``min`` histogram),
  and only that element, the *hot lane* ``iy``, receives ȳ.  An accumulator
  gets one ``upd`` at ``iy`` in a loop of ``iy < n ? 1 : 0`` trips
  (``rules_map._lane_trips``): when no element holds ``y`` (there is none, or
  none equals a constant neutral element) nothing is updated.  In value mode,
  when the array is a ``map`` result of this scope that the reduce alone
  reads, the adjoint stays sparse: the rule records ``(iy, ȳ)`` on the
  ``AdjScope`` and ``rules_map.rev_map`` differentiates that one element of
  the map.  Otherwise it is the dense one-hot map ``adjoint.one_hot``.
  ``jvp`` lifts the operator, whose tangent follows the same element
  (``rules_scalar.minmax_takes_x``).

``scan`` specialises ``+`` alone: ``ās += reverse (scan (+) 0 (reverse ȳs))``.
Otherwise its adjoint obeys the backward linear recurrence

    r̄s[i] = ȳs[i] + c_i · r̄s[i+1],   c_i = ∂(rs[i] ⊙ as[i+1])/∂rs[i]

solved with a scan whose operator is linear-function composition (Blelloch's
trick): step ``i`` is the affine map ``x ↦ ȳs[i] + c_i·x`` and the last one
the constant ``ȳs[n-1]``, so the composed maps' constant terms *are* ``r̄s``
and the rule is total for ``n = 0``.  The element contributions follow with
one map:

    ās[i] += (i == 0 ? 1 : ∂(rs[i-1] ⊙ as[i])/∂as[i]) · r̄s[i]

The rules take the neutral elements as constants (``require_const_nes``) and
the general ones a single-valued operator with no free float variable
(``require_plain_op``); anything else is refused, naming its section.
"""
from __future__ import annotations

from typing import Optional, Tuple

from ..ir.analysis import recognize_binop_lambda
from ..ir.ast import (
    AtomExp,
    Atom,
    Const,
    Iota,
    Lambda,
    Reduce,
    ReduceByIndex,
    Scan,
    ScratchLike,
    Size,
    Stm,
    Var,
    ZerosLike,
)
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars
from ..ir.types import I64, ArrayType, elem_type, is_float, rank_of
from ..util import ADError, fresh
from .adjoint import AdjScope, inline_lambda, one_hot
from .rules_map import _lane_trips, _value, _with_local_accs

__all__ = ["fwd_fold", "rev_fold", "lifted_op", "op_lambda", "first_hit",
           "first_index", "require_const_nes", "require_plain_op", "NO_INDEX"]

#: Neutral element of a first-index reduce: past the end of any array.
NO_INDEX = 2**62

#: The construct and the paper section whose rules every refusal names.
_SECTION = {Reduce: ("reduce", "§5.1"), ReduceByIndex: ("reduce_by_index", "§5.1.2"),
            Scan: ("scan", "§5.2")}


# ---------------------------------------------------------------------------
# Operators and refusals
# ---------------------------------------------------------------------------


def lifted_op(lam: Lambda) -> Lambda:
    """Forward-mode lift of a binary scalar operator ``λ a b → z`` into
    ``λ a b ȧ ḃ → (z, ż)`` — used to evaluate ∂⊙/∂a and ∂⊙/∂b at a point."""
    from .jvp import _JVP

    j = _JVP()
    dparams = j.dparams(lam.params)
    return Lambda(tuple(lam.params) + tuple(dparams), j.sub_body(lam.body))


def op_lambda(op: str, ty) -> Lambda:
    """The canonical operator ``\\a b -> a `op` b`` on scalars of type ``ty``."""
    a, b_ = Var(fresh("a"), ty), Var(fresh("b"), ty)
    lb = Builder()
    return Lambda((a, b_), lb.finish([lb.binop(op, a, b_, "r")]))


def _refuse(e, what: str, assume: str, instead: str) -> None:
    name, section = _SECTION[type(e)]
    raise ADError(f"reverse AD of {name} with {what} is not supported: the rules "
                  f"of paper {section} assume {assume} ({instead})")


def require_const_nes(e) -> None:
    """The rules treat neutral elements as constants: a computed float one
    would get no adjoint, so refuse it rather than return a silently wrong
    derivative (``jvp`` handles it)."""
    if any(is_float(ne.type) and not isinstance(ne, Const) for ne in e.nes):
        _refuse(e, "an input-dependent float neutral element", "a constant one",
                "fold the value in after the reduction, or use jvp")


def require_plain_op(e) -> None:
    """The general rules differentiate one scalar operator with no free
    float variable, whose adjoint they would have to accumulate."""
    if len(e.nes) != 1:
        _refuse(e, "a tuple-valued general operator", "a single-valued ⊙",
                "specialise the operator, or use jvp")
    if any(is_float(v.type) for v in free_vars(e.lam).values()):
        _refuse(e, "a free float variable in its operator", "⊙ has no free variables",
                "hoist it out of the operator, or use jvp")


def fold_kind(stm: Stm, e) -> str:
    """The rule of the fold's operator: ``add`` / ``mul`` / ``min`` / ``max``
    for one float recognised operator (a scan specialises ``add`` alone),
    else ``general``."""
    op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 and is_float(stm.pat[0].type) else None
    return "general" if op is None or (isinstance(e, Scan) and op != "add") else op


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def bin_guard(b: Builder, ix: Atom, m: Atom) -> Tuple[Var, Var]:
    """``(0 ≤ ix < m, clamp(ix, 0, m-1))``: whether an element lands in a
    bin, and a bin index that is safe to read either way."""
    lo = b.binop("ge", ix, const(0, I64), "lo")
    hi = b.binop("lt", ix, m, "hi")
    ok = b.binop("and", lo, hi, "ok")
    mm1 = b.sub(m, const(1, I64), "mm1")
    s0 = b.binop("max", ix, const(0, I64), "s0")
    return ok, b.binop("min", s0, mm1, "safe")


def zero_split(b: Builder, arr: Var) -> Tuple[Var, Var]:
    """``(zero flags, values with the zeros made 1)`` of ``arr``: the forward
    sweep of ``*`` counts the first and multiplies the second."""
    et = elem_type(arr.type)
    x = Var(fresh("x"), et)
    xb = Builder()
    isz = xb.binop("eq", x, const(0.0, et), "isz")
    zf = xb.select(isz, const(1, I64), const(0, I64), "zf")
    nzv = xb.select(isz, const(1.0, et), x, "nzv")
    zflags, nzvals = b.map(Lambda((x,), xb.finish([zf, nzv])), [arr], names=["zf", "nzv"])
    return zflags, nzvals


def mul_adjoint(b: Builder, nz: Atom, p: Atom, a: Var, ybar: Atom) -> Var:
    """``∂y/∂a · ȳ`` of a product ``y`` with ``nz`` zeros and non-zero
    product ``p``: ``ȳ·p/a`` with no zero, ``ȳ·p`` for the one zero, else 0."""
    et = a.type
    c0 = b.binop("eq", nz, const(0, I64), "c0")
    c1 = b.binop("eq", nz, const(1, I64), "c1")
    az = b.binop("eq", a, const(0.0, et), "az")
    pa = b.div(p, a, "pa")
    v0 = b.mul(ybar, pa, "v0")
    v1 = b.mul(ybar, p, "v1")
    one0 = b.binop("and", c1, az, "one0")
    inner = b.select(one0, v1, const(0.0, et), "inner")
    return b.select(c0, v0, inner, "r")


def exclusive_scan(b: Builder, lam: Lambda, ne: Atom, vals: Var,
                   starts: Optional[Var] = None, reverse: bool = False) -> Var:
    """``out[i] = vals[0] ⊙ … ⊙ vals[i-1]`` (``ne`` at 0), or with ``reverse``
    the suffix ``vals[i+1] ⊙ … ⊙ vals[n-1]`` (``ne`` at n-1).  With
    ``starts``, segmented: ``starts[i] == 1`` where a segment begins (with
    ``reverse``, ends), which restarts the combination at ``ne``."""
    idxs = b.emit1(Iota(b.emit1(Size(vals), "n")), "is")
    if reverse:
        pa, pb = lam.params
        fb = Builder()
        lam = Lambda((pa, pb), fb.finish(inline_lambda(fb, lam, (pb, pa))))
        vals = b.reverse(vals, "rv")
        starts = None if starts is None else b.reverse(starts, "rf")
    if starts is None:
        (incl,) = b.scan(lam, [ne], [vals], names=["incl"])
    else:
        # ((f1,v1) ⊕ (f2,v2)) = (f1 max f2, f2 ? v2 : v1 ⊙ v2), associative.
        et = elem_type(vals.type)
        f1, v1, f2, v2 = (Var(fresh(n), t) for n, t in
                          (("f1", I64), ("v1", et), ("f2", I64), ("v2", et)))
        ob = Builder()
        nf = ob.binop("max", f1, f2, "nf")
        (comb,) = inline_lambda(ob, lam, (v1, v2))
        isstart = ob.binop("eq", f2, const(1, I64), "st")
        nv = ob.select(isstart, v2, comb, "nv")
        seg_op = Lambda((f1, v1, f2, v2), ob.finish([nf, nv]))
        _fs, incl = b.scan(seg_op, [const(0, I64), ne], [starts, vals], names=["fs", "incl"])
    i = Var(fresh("i"), I64)
    sb = Builder()
    restart = sb.binop("eq", i, const(0, I64), "is0")
    if starts is not None:
        at_start = sb.binop("eq", sb.index(starts, (i,), "f"), const(1, I64), "ats")
        restart = sb.binop("or", at_start, restart, "g")
    im1 = sb.sub(i, const(1, I64), "im1")
    prev = sb.index(incl, (sb.binop("max", im1, const(0, I64), "safe"),), "prev")
    v = sb.select(restart, ne, prev, "v")
    (out,) = b.map(Lambda((i,), sb.finish([v])), [idxs], names=["excl"])
    return b.reverse(out, "rex") if reverse else out


def core_rule(b: Builder, lift: Lambda, l: Atom, a: Atom, r: Atom, ybar: Atom) -> Var:
    """``∂(l ⊙ a ⊙ r)/∂a · ȳ`` with the lifted operator ``lift``:
    ``t = l ⊙ a`` with ∂t/∂a, then ``t ⊙ r`` with ∂/∂t, chained."""
    et = a.type
    one, zero = const(1.0, et), const(0.0, et)
    t, dt = inline_lambda(b, lift, (l, a, zero, one))
    _y, dy = inline_lambda(b, lift, (t, r, one, zero))
    return b.mul(b.mul(dy, dt, "dya"), ybar, "cv")


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


def upd_hit(b: Builder, acc: Var, iy: Atom, arr: Var, v: Atom) -> Var:
    """``acc[iy] += v`` when ``iy`` indexes ``arr``, else nothing: a loop of
    ``iy < n ? 1 : 0`` trips, which no lane that lacks a winner enters."""
    accp = Var(fresh(acc.name), acc.type)
    lb = Builder()
    body = lb.finish([lb.upd_acc(accp, (iy,), v, "acc")])
    (out,) = b.loop((accp,), (acc,), Var(fresh("lane"), I64), _lane_trips(b, iy, arr), body,
                    names=[acc.name])
    return out


# ---------------------------------------------------------------------------
# Forward sweep
# ---------------------------------------------------------------------------


def fwd_fold(stm: Stm, e, b: Builder):
    """The fold, plus the bookkeeping its operator's return sweep reads
    (``*`` and ``min``/``max`` of a reduce or a histogram)."""
    kind = fold_kind(stm, e)
    aux = {"kind": kind}
    if kind not in ("mul", "min", "max"):
        b.emit_into(stm.pat, e)
        return aux
    arr = e.arrs[0]
    et = elem_type(arr.type)
    hist = isinstance(e, ReduceByIndex)
    if kind == "mul":
        zflags, nzvals = zero_split(b, arr)
        if hist:
            (nz,) = b.reduce_by_index(e.num_bins, op_lambda("add", I64), [const(0, I64)],
                                      e.inds, [zflags], names=["nz"])
            (p,) = b.reduce_by_index(e.num_bins, op_lambda("mul", et), [e.nes[0]],
                                     e.inds, [nzvals], names=["p"])
            c, pp = Var(fresh("c"), I64), Var(fresh("p"), et)
            hb = Builder()
            c0 = hb.binop("eq", c, const(0, I64), "c0")
            hv = hb.select(c0, pp, const(0.0, et), "hv")
            (y,) = b.map(Lambda((c, pp), hb.finish([hv])), [nz, p], names=["h"])
        else:
            # One map-reduce pass: count zeros, multiply the non-zeros.
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
        aux.update(nz=nz, p=p)
        return aux
    b.emit_into(stm.pat, e)
    if not hist:
        aux["idxs"], aux["iy"] = first_index(b, arr, stm.pat[0])
        return aux
    # Per bin, the first index holding the bin's extremum: a bulk map and an
    # integer ``min`` histogram (out-of-range elements are dropped by both).
    idxs = b.emit1(Iota(b.emit1(Size(arr), "n")), "is")
    ix, v, i = Var(fresh("ix"), elem_type(e.inds.type)), Var(fresh("v"), et), Var(fresh("i"), I64)
    hb = Builder()
    _ok, safe = bin_guard(hb, ix, e.num_bins)
    hit = first_hit(hb, v, hb.index(stm.pat[0], (safe,), "y"), i)
    (hits,) = b.map(Lambda((ix, v, i), hb.finish([hit])), [e.inds, arr, idxs], names=["hits"])
    (aux["iy"],) = b.reduce_by_index(e.num_bins, op_lambda("min", I64), [const(NO_INDEX, I64)],
                                     e.inds, [hits], names=["hi"])
    return aux


# ---------------------------------------------------------------------------
# Return sweep
# ---------------------------------------------------------------------------


def rev_fold(vjp, stm: Stm, e, aux, sc: AdjScope) -> None:
    """The return sweep of a reduce, scan or histogram: its operator's rule."""
    require_const_nes(e)
    kind = aux["kind"]
    if kind == "general":
        require_plain_op(e)
    _RULES[kind](vjp, stm, e, aux, sc, _value(sc, stm.pat[0]))


def _rev_add(vjp, stm: Stm, e, aux, sc: AdjScope, ybar: Var) -> None:
    b = sc.b
    et = elem_type(e.arrs[0].type)
    if isinstance(e, Reduce):
        # ∂(l+a+r)/∂a · ȳ = ȳ for every element (derived automatically from
        # the general rule by the simplifier; hardwired here as in §5.1.1).
        contrib = ybar
    elif isinstance(e, Scan):
        (cum,) = b.scan(op_lambda("add", et), [const(0.0, et)], [b.reverse(ybar, "ry")],
                        names=["cum"])
        contrib = b.reverse(cum, "c")
    else:
        ix = Var(fresh("ix"), elem_type(e.inds.type))
        gb = Builder()
        ok, safe = bin_guard(gb, ix, e.num_bins)
        cv = gb.select(ok, gb.index(ybar, (safe,), "hv"), const(0.0, et), "cv")
        (contrib,) = b.map(Lambda((ix,), gb.finish([cv])), [e.inds], names=["c"])
    sc.add(e.arrs[0], contrib)


def _rev_mul(vjp, stm: Stm, e, aux, sc: AdjScope, ybar: Var) -> None:
    arr = e.arrs[0]
    nz, p = aux["nz"], aux["p"]
    a = Var(fresh("a"), elem_type(arr.type))
    gb = Builder()
    if isinstance(e, Reduce):
        cv = mul_adjoint(gb, nz, p, a, ybar)
        params, arrs = (a,), [arr]
    else:
        ix = Var(fresh("ix"), elem_type(e.inds.type))
        ok, safe = bin_guard(gb, ix, e.num_bins)
        r = mul_adjoint(gb, gb.index(nz, (safe,), "cb"), gb.index(p, (safe,), "pb"), a,
                        gb.index(ybar, (safe,), "hb"))
        cv = gb.select(ok, r, const(0.0, a.type), "cv")
        params, arrs = (ix, a), [e.inds, arr]
    (contrib,) = sc.b.map(Lambda(params, gb.finish([cv])), arrs, names=["c"])
    sc.add(arr, contrib)


def _rev_minmax(vjp, stm: Stm, e, aux, sc: AdjScope, ybar: Var) -> None:
    """Only the first element holding ``y`` (per bin: the bin's) receives ȳ."""
    b = sc.b
    arr, iy = e.arrs[0], aux["iy"]
    if isinstance(e, ReduceByIndex):
        # A map over the bins, each updating its winner's accumulator: a
        # fresh ``withacc`` around it in value mode, else the inherited one.
        def bins(bb: Builder, accs):
            bi = Var(fresh("b"), I64)
            accp = Var(fresh("acc"), accs[0].type)
            ib = Builder()
            na = upd_hit(ib, accp, ib.index(iy, (bi,), "wi"), arr, ib.index(ybar, (bi,), "hv"))
            return bb.map(Lambda((bi, accp), ib.finish([na])),
                          [bb.emit1(Iota(e.num_bins), "bs")], accs, names=["acc"])

        inherited = [arr] if arr.name in sc.acc_env else []
        local = [] if inherited else [arr]
        _with_local_accs(vjp, sc, local, [_value(sc, a) for a in local], inherited, bins,
                         [arr.name + "_acc"])
    elif arr.name in sc.acc_env:
        # A free array of an enclosing map: one update of its accumulator.
        sc.acc_env[arr.name] = upd_hit(b, sc.acc_env[arr.name], iy, arr, ybar)
    elif rank_of(arr.type) == 1 and sc.sole_map_read(arr):
        # A map result only this reduce reads keeps its adjoint sparse, for
        # ``rev_map`` to differentiate the hot lane alone.
        sc.defer_one_hot(arr, aux["idxs"], iy, ybar)
    else:
        sc.add(arr, one_hot(b, aux["idxs"], iy, ybar))


def _rev_general(vjp, stm: Stm, e, aux, sc: AdjScope, ybar: Var) -> None:
    b = sc.b
    arr, lam, ne = e.arrs[0], e.lam, e.nes[0]
    et = elem_type(arr.type)
    lift = lifted_op(lam)
    if isinstance(e, Reduce):
        ls = exclusive_scan(b, lam, ne, arr)
        rs = exclusive_scan(b, lam, ne, arr, reverse=True)
        lp, ap, rp = Var(fresh("l"), et), Var(fresh("a"), et), Var(fresh("r"), et)
        mb = Builder()
        cv = core_rule(mb, lift, lp, ap, rp, ybar)
        (contrib,) = b.map(Lambda((lp, ap, rp), mb.finish([cv])), [ls, arr, rs], names=["c"])
    elif isinstance(e, Scan):
        contrib = _rev_scan_general(b, e, stm.pat[0], lift, ybar)
    else:
        contrib = _rev_hist_general(b, e, lift, ybar)
    sc.add(arr, contrib)


def _rev_scan_general(b: Builder, e: Scan, rs: Var, lift: Lambda, ysbar: Var) -> Var:
    """The adjoint of ``as`` given that of the scan's result ``rs``."""
    arr = e.arrs[0]
    et = elem_type(arr.type)
    n = b.emit1(Size(arr), "n")
    nm1 = b.sub(n, const(1, I64), "nm1")
    idxs = b.emit1(Iota(n), "is")
    one, zero = const(1.0, et), const(0.0, et)

    # (ds, cs): ds_i = ȳs[i], cs_i = ∂(rs[i] ⊙ as[i+1])/∂rs[i]; the last
    # element is the constant map (ȳs[n-1], 0).
    i1 = Var(fresh("i"), I64)
    mb = Builder()
    last = mb.binop("eq", i1, nm1, "last")
    safe = mb.binop("min", mb.add(i1, const(1, I64), "ip1"), nm1, "safe")
    _t, dr = inline_lambda(mb, lift, (mb.index(rs, (i1,), "r_i"), mb.index(arr, (safe,), "a_n"),
                                      one, zero))
    ds_v = mb.index(ysbar, (i1,), "ds")
    cs_v = mb.select(last, zero, dr, "cs")
    ds, cs = b.map(Lambda((i1,), mb.finish([ds_v, cs_v])), [idxs], names=["ds", "cs"])

    # Scan with linear-function composition over the reversed sequence.
    d1, c1, d2, c2 = (Var(fresh(n), et) for n in ("d1", "c1", "d2", "c2"))
    lb = Builder()
    nd = lb.add(d2, lb.mul(c2, d1, "t"), "nd")
    nc = lb.mul(c2, c1, "nc")
    lin_o = Lambda((d1, c1, d2, c2), lb.finish([nd, nc]))
    sd, _scn = b.scan(lin_o, [zero, one], [b.reverse(ds, "rds"), b.reverse(cs, "rcs")],
                      names=["sd", "sc"])
    rsbar = b.reverse(sd, "rsbar")

    # ās[i] += (i == 0 ? 1 : ∂(rs[i-1] ⊙ as[i])/∂as[i]) · r̄s[i]
    i2 = Var(fresh("i"), I64)
    qb = Builder()
    is0 = qb.binop("eq", i2, const(0, I64), "is0")
    safe2 = qb.binop("max", qb.sub(i2, const(1, I64), "im1"), const(0, I64), "safe")
    _t2, da = inline_lambda(qb, lift, (qb.index(rs, (safe2,), "r_p"), qb.index(arr, (i2,), "a_i"),
                                       zero, one))
    rb_i = qb.index(rsbar, (i2,), "rb_i")
    cv = qb.mul(qb.select(is0, one, da, "da"), rb_i, "cv")
    (contrib,) = b.map(Lambda((i2,), qb.finish([cv])), [idxs], names=["c"])
    return contrib


def _rev_hist_general(b: Builder, e: ReduceByIndex, lift: Lambda, hbar: Var) -> Var:
    """Group the elements by bin with a stable counting sort, take the
    segmented prefix ``ls`` and suffix ``rs`` of each sorted position, and
    gather ``∂(l ⊙ a ⊙ r)/∂a · h̄[bin]`` back.  The sort's position
    assignment is a sequential O(n) loop (Futhark would use a radix sort to
    stay parallel); the rest is maps, scans and scatters."""
    arr, inds, m, ne = e.arrs[0], e.inds, e.num_bins, e.nes[0]
    et = elem_type(arr.type)
    n = b.emit1(Size(arr), "n")
    idxs = b.emit1(Iota(n), "is")

    # Per-bin counts and their offsets (a histogram drops out-of-range ones).
    ones = b.replicate(n, const(1, I64), "ones")
    (counts,) = b.reduce_by_index(m, op_lambda("add", I64), [const(0, I64)], inds, [ones],
                                  names=["cnt"])
    offsets = exclusive_scan(b, op_lambda("add", I64), const(0, I64), counts)

    # Stable counting-sort positions; invalid elements park at n (dropped).
    curp = Var(fresh("cur"), ArrayType(I64, 1))
    posp = Var(fresh("pos"), ArrayType(I64, 1))
    li = Var(fresh("i"), I64)
    lb = Builder()
    ok, sfi = bin_guard(lb, lb.index(inds, (li,), "ind"), m)
    slot = lb.index(curp, (sfi,), "slot")
    posn = lb.update(posp, (li,), lb.select(ok, slot, n, "p"), "pos")
    nslot = lb.select(ok, lb.add(slot, const(1, I64), "ns"), slot, "nse")
    curn = lb.update(curp, (sfi,), nslot, "cur")
    pos0 = b.emit1(ScratchLike(n, const(0, I64)), "pos0")
    _cur, positions = b.loop((curp, posp), (b.copy(offsets, "cur0"), pos0), li, n,
                             lb.finish([curn, posn]), names=["cur", "positions"])

    # Sorted values, and flags at each segment's start (the element whose
    # position is its bin's offset; positions are unique) and end.
    sorted_vals = b.scatter(b.emit1(ZerosLike(arr), "zv"), positions, arr, "svals")
    fi = Var(fresh("i"), I64)
    fb = Builder()
    fok, fsf = bin_guard(fb, fb.index(inds, (fi,), "ind"), m)
    isfirst = fb.binop("eq", fb.index(positions, (fi,), "fpos"), fb.index(offsets, (fsf,), "offv"),
                       "isf")
    fl = fb.select(fb.binop("and", fok, isfirst, "both"), const(1, I64), const(0, I64), "fl")
    (flags_src,) = b.map(Lambda((fi,), fb.finish([fl])), [idxs], names=["flsrc"])
    flags = b.scatter(b.emit1(ZerosLike(flags_src), "zf"), positions, flags_src, "flags")
    ri = Var(fresh("i"), I64)
    rb = Builder()
    nm1 = rb.sub(n, const(1, I64), "nm1")
    at_end = rb.binop("eq", ri, nm1, "ae")
    nxt = rb.index(flags, (rb.binop("min", rb.add(ri, const(1, I64), "rp1"), nm1, "sfr"),), "nxt")
    ise = rb.binop("or", at_end, rb.binop("eq", nxt, const(1, I64), "n1"), "ise")
    rf = rb.select(ise, const(1, I64), const(0, I64), "rf")
    (end_flags,) = b.map(Lambda((ri,), rb.finish([rf])), [idxs], names=["eflags"])

    ls = exclusive_scan(b, e.lam, ne, sorted_vals, flags)
    rs = exclusive_scan(b, e.lam, ne, sorted_vals, end_flags, reverse=True)

    # The core rule at each element's sorted position.
    gi = Var(fresh("i"), I64)
    gb = Builder()
    gok, gsf = bin_guard(gb, gb.index(inds, (gi,), "ind"), m)
    gpos = gb.binop("min", gb.index(positions, (gi,), "p"), gb.sub(n, const(1, I64), "nm1"), "ps")
    cv = core_rule(gb, lift, gb.index(ls, (gpos,), "l"), gb.index(arr, (gi,), "a"),
                   gb.index(rs, (gpos,), "r"), gb.index(hbar, (gsf,), "hb"))
    cv = gb.select(gok, cv, const(0.0, et), "cv")
    (contrib,) = b.map(Lambda((gi,), gb.finish([cv])), [idxs], names=["c"])
    return contrib


#: The return-sweep rule of each operator kind (``fold_kind``).
_RULES = {"add": _rev_add, "mul": _rev_mul, "min": _rev_minmax, "max": _rev_minmax,
          "general": _rev_general}
