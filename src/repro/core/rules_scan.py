"""Reverse AD of ``scan`` (paper §5.2).

The adjoint of an inclusive scan obeys the backward linear recurrence

    r̄s[i] = ȳs[i] + c_i · r̄s[i+1],   c_i = ∂(rs[i] ⊙ as[i+1])/∂rs[i]

which is solved with a scan whose operator is linear-function composition
(Blelloch's classic trick): step ``i`` is the affine map ``x ↦ ȳs[i] + c_i·x``
and the last one the constant ``ȳs[n-1]``, so the composed maps' constant
terms *are* ``r̄s`` — nothing reads ``ȳs[n-1]`` on its own, and the rule is
total for ``n = 0``.  The element contributions follow with one map:

    ās[i] += (i == 0 ? 1 : ∂(rs[i-1] ⊙ as[i])/∂as[i]) · r̄s[i]

The special case ``scan (+)`` needs no derivatives at all:
``ās += reverse (scan (+) 0 (reverse ȳs))``.
"""
from __future__ import annotations

from ..ir.analysis import recognize_binop_lambda
from ..ir.ast import Iota, Lambda, Scan, Size, Stm, Var
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars
from ..ir.types import I64, elem_type, is_float
from ..util import ADError, fresh
from .adjoint import AdjScope, inline_lambda
from .rules_reduce import lifted_op, require_const_nes

__all__ = ["rev_scan"]


def rev_scan(vjp, stm: Stm, e: Scan, sc: AdjScope) -> None:
    if len(e.nes) != 1:
        raise ADError("reverse AD of tuple-valued scans is not supported")
    require_const_nes(e, "scan")
    b = sc.b
    arr = e.arrs[0]
    et = elem_type(arr.type)
    rs = stm.pat[0]  # the scan's result array (in scope: forward sweep ran)
    if not is_float(rs.type):
        return
    ysbar = sc.lookup(rs)
    if not isinstance(ysbar, Var):
        ysbar = b.copy(ysbar, "ysbar")

    op = recognize_binop_lambda(e.lam)
    if op == "add":
        rev_y = b.reverse(ysbar, "ry")
        a1 = Var(fresh("a"), et)
        a2 = Var(fresh("b"), et)
        ab = Builder()
        s = ab.add(a1, a2, "s")
        addl = Lambda((a1, a2), ab.finish([s]))
        (cum,) = b.scan(addl, [const(0.0, et)], [rev_y], names=["cum"])
        contrib = b.reverse(cum, "c")
        sc.add(arr, contrib)
        return

    if any(is_float(v.type) for v in free_vars(e.lam).values()):
        raise ADError(
            "reverse AD of scan with a free-variable-capturing operator is "
            "not supported (paper §5.2 assumes ⊙ has no free variables)"
        )

    lift = lifted_op(e.lam)
    n = b.emit1(Size(arr), "n")
    nm1 = b.sub(n, const(1, I64), "nm1")
    idxs = b.emit1(Iota(n), "is")
    one = const(1.0, et)
    zero = const(0.0, et)

    # (ds, cs): ds_i = ȳs[i], cs_i = ∂(rs[i] ⊙ as[i+1])/∂rs[i]; the last
    # element is the constant map (ȳs[n-1], 0).
    i1 = Var(fresh("i"), I64)
    mb = Builder()
    last = mb.binop("eq", i1, nm1, "last")
    ip1 = mb.add(i1, const(1, I64), "ip1")
    safe = mb.binop("min", ip1, nm1, "safe")
    r_i = mb.index(rs, (i1,), "r_i")
    a_n = mb.index(arr, (safe,), "a_n")
    _t, dr = inline_lambda(mb, lift, (r_i, a_n, one, zero))
    ds_v = mb.index(ysbar, (i1,), "ds")
    cs_v = mb.select(last, zero, dr, "cs")
    ds, cs = b.map(Lambda((i1,), mb.finish([ds_v, cs_v])), [idxs], names=["ds", "cs"])

    # Scan with linear-function composition over the reversed sequence.
    d1 = Var(fresh("d1"), et)
    c1 = Var(fresh("c1"), et)
    d2 = Var(fresh("d2"), et)
    c2 = Var(fresh("c2"), et)
    lb = Builder()
    t1 = lb.mul(c2, d1, "t")
    nd = lb.add(d2, t1, "nd")
    nc = lb.mul(c2, c1, "nc")
    lin_o = Lambda((d1, c1, d2, c2), lb.finish([nd, nc]))
    rds = b.reverse(ds, "rds")
    rcs = b.reverse(cs, "rcs")
    sd, _scn = b.scan(lin_o, [zero, one], [rds, rcs], names=["sd", "sc"])
    rsbar = b.reverse(sd, "rsbar")

    # ās[i] += (i == 0 ? rs_bar[0] : ∂(rs[i-1] ⊙ as[i])/∂as[i] · rs_bar[i])
    i2 = Var(fresh("i"), I64)
    qb = Builder()
    is0 = qb.binop("eq", i2, const(0, I64), "is0")
    im1 = qb.sub(i2, const(1, I64), "im1")
    safe2 = qb.binop("max", im1, const(0, I64), "safe")
    r_p = qb.index(rs, (safe2,), "r_p")
    a_i = qb.index(arr, (i2,), "a_i")
    _t2, da = inline_lambda(qb, lift, (r_p, a_i, zero, one))
    rb_i = qb.index(rsbar, (i2,), "rb_i")
    da_eff = qb.select(is0, const(1.0, et), da, "da")
    cv = qb.mul(da_eff, rb_i, "cv")
    (contrib,) = b.map(Lambda((i2,), qb.finish([cv])), [idxs], names=["c"])
    sc.add(arr, contrib)
