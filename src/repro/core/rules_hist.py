"""Reverse AD of ``reduce_by_index`` / generalised histograms (paper §5.1.2).

The specialised operators mirror the reduce rules, per bin, with the
histogram adjoint gathered through the index array:

* ``+``   : ās[i] += h̄[inds[i]] (a gather, guarded for out-of-range);
* ``min``/``max`` : the forward sweep adds per bin the first index holding
  the bin's extremum; the return sweep scatters each bin's adjoint to that
  element (a map over bins accumulating into ās);
* ``*``   : the forward sweep keeps per-bin zero counts and non-zero
  products; the return sweep distributes like reduce-``*``.

The fully-general case uses the sort + segmented-scan construction the
paper reports as work in progress — implemented here as an extension (see
``_rev_hist_general``).
"""
from __future__ import annotations

from ..ir.analysis import recognize_binop_lambda
from ..ir.ast import (
    AtomExp,
    Iota,
    Lambda,
    ReduceByIndex,
    Size,
    Stm,
    Var,
)
from ..ir.builder import Builder, const
from ..ir.types import AccType, I64, elem_type, is_float, rank_of
from ..util import fresh
from .adjoint import AdjScope
from .rules_reduce import NO_INDEX, first_hit, op_lambda, require_const_nes

__all__ = ["fwd_hist", "rev_hist"]


def fwd_hist(vjp, stm: Stm, e: ReduceByIndex, b: Builder):
    op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
    if op is None or not is_float(stm.pat[0].type):
        b.emit_into(stm.pat, e)
        return {"kind": "general"}
    arr = e.arrs[0]
    et = elem_type(arr.type)
    if op == "add":
        b.emit_into(stm.pat, e)
        return {"kind": "add"}
    if op == "mul":
        x = Var(fresh("x"), et)
        xb = Builder()
        isz = xb.binop("eq", x, const(0.0, et), "isz")
        zf = xb.select(isz, const(1, I64), const(0, I64), "zf")
        nzv = xb.select(isz, const(1.0, et), x, "nzv")
        zflags, nzvals = b.map(Lambda((x,), xb.finish([zf, nzv])), [arr], names=["zf", "nzv"])
        (nz,) = b.reduce_by_index(
            e.num_bins, op_lambda("add", I64), [const(0, I64)], e.inds, [zflags], names=["nz"]
        )
        (p,) = b.reduce_by_index(
            e.num_bins, op_lambda("mul", et), [e.nes[0]], e.inds, [nzvals], names=["p"]
        )
        c = Var(fresh("c"), I64)
        pp = Var(fresh("p"), et)
        hb = Builder()
        c0 = hb.binop("eq", c, const(0, I64), "c0")
        hv = hb.select(c0, pp, const(0.0, et), "hv")
        (h,) = b.map(Lambda((c, pp), hb.finish([hv])), [nz, p], names=["h"])
        b.emit_into(stm.pat, AtomExp(h))
        return {"kind": "mul", "nz": nz, "p": p}
    # min / max: the canonical histogram, then per bin the first index
    # holding the bin's extremum (a bulk map and an integer ``min`` histogram;
    # out-of-range elements are dropped by both).
    b.emit_into(stm.pat, e)
    n = b.emit1(Size(arr), "n")
    idxs = b.emit1(Iota(n), "is")
    ix, v, i = Var(fresh("ix"), elem_type(e.inds.type)), Var(fresh("v"), et), Var(fresh("i"), I64)
    hb = Builder()
    mm1 = hb.sub(e.num_bins, const(1, I64), "mm1")
    safe = hb.binop("min", hb.binop("max", ix, const(0, I64), "s0"), mm1, "safe")
    hit = first_hit(hb, v, hb.index(stm.pat[0], (safe,), "y"), i)
    (hits,) = b.map(Lambda((ix, v, i), hb.finish([hit])), [e.inds, arr, idxs], names=["hits"])
    (hi,) = b.reduce_by_index(
        e.num_bins, op_lambda("min", I64), [const(NO_INDEX, I64)], e.inds, [hits], names=["hi"]
    )
    return {"kind": op, "hi": hi, "n": n}


def rev_hist(vjp, stm: Stm, e: ReduceByIndex, aux, sc: AdjScope) -> None:
    require_const_nes(e, "reduce_by_index")
    b = sc.b
    kind = aux["kind"]
    if kind == "general":
        # The sort + segmented-scan construction (reported as work in
        # progress in the paper) — implemented here as an extension.
        return _rev_hist_general(vjp, stm, e, sc)
    arr = e.arrs[0]
    et = elem_type(arr.type)
    hbar = sc.lookup(stm.pat[0])
    if not isinstance(hbar, Var):
        hbar = b.copy(hbar, "hbar")
    m = e.num_bins

    if kind == "add":
        # ās[i] += h̄[inds[i]] for in-range indices.
        ix = Var(fresh("ix"), elem_type(e.inds.type))
        gb = Builder()
        lo = gb.binop("ge", ix, const(0, I64), "lo")
        hi = gb.binop("lt", ix, m, "hi")
        ok = gb.binop("and", lo, hi, "ok")
        mm1 = gb.sub(m, const(1, I64), "mm1")
        safe0 = gb.binop("max", ix, const(0, I64), "s0")
        safe = gb.binop("min", safe0, mm1, "safe")
        hv = gb.index(hbar, (safe,), "hv")
        cv = gb.select(ok, hv, const(0.0, et), "cv")
        (contrib,) = b.map(Lambda((ix,), gb.finish([cv])), [e.inds], names=["c"])
        sc.add(arr, contrib)
        return

    if kind == "mul":
        nz, p = aux["nz"], aux["p"]
        ix = Var(fresh("ix"), elem_type(e.inds.type))
        a = Var(fresh("a"), et)
        gb = Builder()
        lo = gb.binop("ge", ix, const(0, I64), "lo")
        hi = gb.binop("lt", ix, m, "hi")
        ok = gb.binop("and", lo, hi, "ok")
        mm1 = gb.sub(m, const(1, I64), "mm1")
        safe0 = gb.binop("max", ix, const(0, I64), "s0")
        safe = gb.binop("min", safe0, mm1, "safe")
        cb = gb.index(nz, (safe,), "cb")
        pb_ = gb.index(p, (safe,), "pb")
        hb = gb.index(hbar, (safe,), "hb")
        c0 = gb.binop("eq", cb, const(0, I64), "c0")
        c1 = gb.binop("eq", cb, const(1, I64), "c1")
        az = gb.binop("eq", a, const(0.0, et), "az")
        pa = gb.div(pb_, a, "pa")
        v0 = gb.mul(hb, pa, "v0")
        v1 = gb.mul(hb, pb_, "v1")
        one0 = gb.binop("and", c1, az, "one0")
        inner = gb.select(one0, v1, const(0.0, et), "inner")
        r0 = gb.select(c0, v0, inner, "r")
        cv = gb.select(ok, r0, const(0.0, et), "cv")
        (contrib,) = b.map(Lambda((ix, a), gb.finish([cv])), [e.inds, arr], names=["c"])
        sc.add(arr, contrib)
        return

    # min / max: scatter each bin's adjoint to its winning element.
    hi_arr, n = aux["hi"], aux["n"]

    def emit_bin_map(bb: Builder, acc: Var) -> Var:
        bi = Var(fresh("b"), I64)
        accp = Var(fresh("acc"), acc.type)
        ib = Builder()
        wi = ib.index(hi_arr, (bi,), "wi")
        ok = ib.binop("lt", wi, n, "ok")
        nm1 = ib.sub(n, const(1, I64), "nm1")
        safe = ib.binop("min", wi, nm1, "safe")
        hv = ib.index(hbar, (bi,), "hv")
        cv = ib.select(ok, hv, const(0.0, et), "cv")
        na = ib.upd_acc(accp, (safe,), cv, "acc")
        lam = Lambda((bi, accp), ib.finish([na]))
        it = bb.emit1(Iota(m), "bs")
        (out,) = bb.map(lam, [it], [acc], names=["acc"])
        return out

    if arr.name in vjp.acc_env:
        acc = vjp.acc_env[arr.name]
        vjp.acc_env[arr.name] = emit_bin_map(b, acc)
    else:
        cur = sc.lookup(arr)
        if not isinstance(cur, Var):
            cur = b.copy(cur, arr.name + "_bar")
        wa_acc = Var(fresh(arr.name + "_wacc"), AccType(et, rank_of(arr.type)))
        wb = Builder()
        out = emit_bin_map(wb, wa_acc)
        wa_lam = Lambda((wa_acc,), wb.finish([out]))
        (new_adj,) = b.with_acc([cur], wa_lam, names=[arr.name + "_bar"])
        sc.set(arr, new_adj)


# ---------------------------------------------------------------------------
# General operators: the sort + segmented-scan construction (§5.1.2)
# ---------------------------------------------------------------------------
#
# The paper reports this rule as work in progress; we implement it as an
# extension.  The plan (paper's own sketch): group the contributing elements
# by bin (a stable counting sort), compute per-element prefix (ls) and suffix
# (rs) products *within each segment* with segmented exclusive scans, and
# apply the core rewrite rule  ās[i] += ∂(l ⊙ a ⊙ r)/∂a · h̄[bin(i)].
#
# The counting sort's position assignment is a sequential O(n) loop here
# (Futhark would use a radix sort to stay parallel); everything else is maps,
# scans and scatters.  Work is O(n·cost(⊙)); correctness is what the tests
# check — see ``test_hist_general_operator`` variants.


def _seg_exclusive_scan(b, lam_op, ne, vals, flags, reverse_dir: bool):
    """Segmented *exclusive* scan of ``vals`` (segment starts where
    ``flags``==1), optionally right-to-left.  Returns the per-position
    prefix/suffix combination (ne at segment boundaries)."""
    from ..ir.ast import Iota, Size
    from .adjoint import inline_lambda

    et = elem_type(vals.type)
    work_vals = b.reverse(vals, "rv") if reverse_dir else vals
    work_flags = b.reverse(flags, "rf") if reverse_dir else flags

    # Segmented inclusive scan with the classic flag-carrying operator:
    # ((f1,v1) ⊕ (f2,v2)) = (f1 max f2, f2 ? v2 : v1 ⊙ v2)  — associative.
    f1 = Var(fresh("f1"), I64)
    v1 = Var(fresh("v1"), et)
    f2 = Var(fresh("f2"), I64)
    v2 = Var(fresh("v2"), et)
    ob = Builder()
    nf = ob.binop("max", f1, f2, "nf")
    (comb,) = inline_lambda(ob, lam_op, (v1, v2))
    isstart = ob.binop("eq", f2, const(1, I64), "st")
    nv = ob.select(isstart, v2, comb, "nv")
    seg_op = Lambda((f1, v1, f2, v2), ob.finish([nf, nv]))
    fs, incl = b.scan(seg_op, [const(0, I64), ne], [work_flags, work_vals], names=["fs", "incl"])

    # Exclusive shift within segments: boundary positions get ne.
    n = b.emit1(Size(vals), "n")
    idxs = b.emit1(Iota(n), "is")
    i = Var(fresh("i"), I64)
    sb = Builder()
    fcur = sb.index(work_flags, (i,), "f")
    at_start = sb.binop("eq", fcur, const(1, I64), "ats")
    im1 = sb.sub(i, const(1, I64), "im1")
    safe = sb.binop("max", im1, const(0, I64), "safe")
    prev = sb.index(incl, (safe,), "prev")
    first = sb.binop("eq", i, const(0, I64), "first")
    from ..ir.ast import BinOp

    guard = sb.binop("or", at_start, first, "g")
    v = sb.select(guard, ne, prev, "v")
    (out,) = b.map(Lambda((i,), sb.finish([v])), [idxs], names=["excl"])
    if reverse_dir:
        out = b.reverse(out, "rex")
    return out


def _rev_hist_general(vjp, stm, e: ReduceByIndex, sc: AdjScope) -> None:
    from ..ir.ast import Iota, Loop, Scatter, Size, Update, ZerosLike
    from ..ir.builder import as_atom
    from ..ir.traversal import free_vars
    from ..ir.types import ArrayType, is_float as _isf
    from .adjoint import inline_lambda
    from .rules_reduce import lifted_op
    from ..util import ADError as _ADError

    if len(e.nes) != 1:
        raise _ADError("reverse AD of tuple-valued general histograms is unsupported")
    lam = e.lam
    if any(_isf(v.type) for v in free_vars(lam).values()):
        raise _ADError(
            "reverse AD of reduce_by_index with a free-variable-capturing "
            "operator is not supported"
        )
    b = sc.b
    arr = e.arrs[0]
    inds = e.inds
    et = elem_type(arr.type)
    ne = e.nes[0]
    m = e.num_bins
    hbar = sc.lookup(stm.pat[0])
    if not isinstance(hbar, Var):
        hbar = b.copy(hbar, "hbar")

    n = b.emit1(Size(arr), "n")
    idxs = b.emit1(Iota(n), "is")

    # -- validity masks and per-bin counts --------------------------------
    ix = Var(fresh("ix"), elem_type(inds.type))
    vb = Builder()
    lo = vb.binop("ge", ix, const(0, I64), "lo")
    hi = vb.binop("lt", ix, m, "hi")
    ok = vb.binop("and", lo, hi, "ok")
    one = vb.select(ok, const(1, I64), const(0, I64), "one")
    (ones,) = b.map(Lambda((ix,), vb.finish([one])), [inds], names=["ones"])
    a1 = Var(fresh("a"), I64)
    a2 = Var(fresh("b"), I64)
    ab = Builder()
    s0 = ab.add(a1, a2, "s")
    addl = Lambda((a1, a2), ab.finish([s0]))
    (counts,) = b.reduce_by_index(m, addl, [const(0, I64)], inds, [ones], names=["cnt"])

    # offsets = exclusive scan of counts
    (cincl,) = b.scan(addl, [const(0, I64)], [counts], names=["cincl"])
    bi = Var(fresh("b"), I64)
    ob2 = Builder()
    is0 = ob2.binop("eq", bi, const(0, I64), "is0")
    bm1 = ob2.sub(bi, const(1, I64), "bm1")
    sfb = ob2.binop("max", bm1, const(0, I64), "sfb")
    pv = ob2.index(cincl, (sfb,), "pv")
    ov = ob2.select(is0, const(0, I64), pv, "ov")
    bidx = b.emit1(Iota(m), "bs")
    (offsets,) = b.map(Lambda((bi,), ob2.finish([ov])), [bidx], names=["off"])

    # -- stable counting-sort positions (sequential cursor loop) ------------
    cur0 = b.copy(offsets, "cur0")
    from ..ir.ast import ScratchLike as _SL

    pos_init = b.emit1(_SL(n, const(0, I64)), "pos0")
    curp = Var(fresh("cur"), ArrayType(I64, 1))
    posp = Var(fresh("pos"), ArrayType(I64, 1))
    li = Var(fresh("i"), I64)
    lb = Builder()
    ind_i = lb.index(inds, (li,), "ind")
    lo2 = lb.binop("ge", ind_i, const(0, I64), "lo")
    hi2 = lb.binop("lt", ind_i, m, "hi")
    ok2 = lb.binop("and", lo2, hi2, "ok")
    mm1 = lb.sub(m, const(1, I64), "mm1")
    sfi0 = lb.binop("max", ind_i, const(0, I64), "s0")
    sfi = lb.binop("min", sfi0, mm1, "sfi")
    slot = lb.index(curp, (sfi,), "slot")
    p_i = lb.select(ok2, slot, n, "p")  # invalid elements park at n (dropped)
    posn = lb.update(posp, (li,), p_i, "pos")
    nslot = lb.add(slot, const(1, I64), "ns")
    nslot_eff = lb.select(ok2, nslot, slot, "nse")
    curn = lb.update(curp, (sfi,), nslot_eff, "cur")
    loop_body = lb.finish([curn, posn])
    fresh("si")
    _cur_out, positions = b.loop(
        (curp, posp), (cur0, pos_init), li, n, loop_body, names=["cur", "positions"]
    )

    # -- sort values / bins / flags by position ------------------------------
    zvals = b.emit1(ZerosLike(arr), "zv")
    sorted_vals = b.scatter(zvals, positions, arr, "svals")
    # flags: 1 at each segment start (the element whose position equals its
    # bin's offset); scatter is safe (positions are unique).
    fi = Var(fresh("i"), I64)
    fb = Builder()
    find = fb.index(inds, (fi,), "ind")
    flo = fb.binop("ge", find, const(0, I64), "lo")
    fhi = fb.binop("lt", find, m, "hi")
    fok = fb.binop("and", flo, fhi, "ok")
    fmm1 = fb.sub(m, const(1, I64), "mm1")
    fsf0 = fb.binop("max", find, const(0, I64), "s0")
    fsf = fb.binop("min", fsf0, fmm1, "sf")
    offv = fb.index(offsets, (fsf,), "offv")
    fpos = fb.index(positions, (fi,), "fpos")
    isfirst = fb.binop("eq", fpos, offv, "isf")
    both = fb.binop("and", fok, isfirst, "both")
    fl = fb.select(both, const(1, I64), const(0, I64), "fl")
    (flags_src,) = b.map(Lambda((fi,), fb.finish([fl])), [idxs], names=["flsrc"])
    zflags = b.emit1(ZerosLike(flags_src), "zf")
    flags = b.scatter(zflags, positions, flags_src, "flags")
    # reversed-direction flags: segment *ends* become starts.
    ri = Var(fresh("i"), I64)
    rb = Builder()
    nm1 = rb.sub(n, const(1, I64), "nm1")
    at_end = rb.binop("eq", ri, nm1, "ae")
    rp1 = rb.add(ri, const(1, I64), "rp1")
    sfr = rb.binop("min", rp1, nm1, "sfr")
    nxt = rb.index(flags, (sfr,), "nxt")
    nxt1 = rb.binop("eq", nxt, const(1, I64), "n1")
    ise = rb.binop("or", at_end, nxt1, "ise")
    rf = rb.select(ise, const(1, I64), const(0, I64), "rf")
    (end_flags,) = b.map(Lambda((ri,), rb.finish([rf])), [idxs], names=["eflags"])

    # -- segmented exclusive prefix/suffix products ---------------------------
    ls = _seg_exclusive_scan(b, lam, ne, sorted_vals, flags, reverse_dir=False)
    rs = _seg_exclusive_scan(b, lam, ne, sorted_vals, end_flags, reverse_dir=True)

    # -- core rewrite rule at each sorted position, gathered back --------------
    lift = lifted_op(lam)
    gi = Var(fresh("i"), I64)
    gb = Builder()
    gind = gb.index(inds, (gi,), "ind")
    glo = gb.binop("ge", gind, const(0, I64), "lo")
    ghi = gb.binop("lt", gind, m, "hi")
    gok = gb.binop("and", glo, ghi, "ok")
    gmm1 = gb.sub(m, const(1, I64), "mm1")
    gsf0 = gb.binop("max", gind, const(0, I64), "s0")
    gsf = gb.binop("min", gsf0, gmm1, "sf")
    gpos0 = gb.index(positions, (gi,), "p")
    gnm1 = gb.sub(n, const(1, I64), "nm1")
    gpos = gb.binop("min", gpos0, gnm1, "ps")
    l_i = gb.index(ls, (gpos,), "l")
    r_i = gb.index(rs, (gpos,), "r")
    a_i = gb.index(arr, (gi,), "a")
    one_c = const(1.0, et)
    zero_c = const(0.0, et)
    t1, dt = inline_lambda(gb, lift, (l_i, a_i, zero_c, one_c))
    _y, dy = inline_lambda(gb, lift, (t1, r_i, one_c, zero_c))
    dya = gb.mul(dy, dt, "dya")
    hb_i = gb.index(hbar, (gsf,), "hb")
    cv0 = gb.mul(dya, hb_i, "cv0")
    cv = gb.select(gok, cv0, zero_c, "cv")
    (contrib,) = b.map(Lambda((gi,), gb.finish([cv])), [idxs], names=["c"])
    sc.add(arr, contrib)
