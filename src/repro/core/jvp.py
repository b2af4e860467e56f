"""Forward-mode AD as a program transformation (paper §3).

Tangent statements are interleaved with primal statements; tangent variables
are associated with primal variables by an environment (the paper's "simple
mapping"), and SOAC arguments/results bundle tangents with their primal
counterparts.  The transform supports the full language — including the
accumulator constructs produced by reverse AD, which is what makes
``jvp ∘ vjp`` (the k-means Hessian trick, §7.4) work.

Conventions for bundling (all "float positions" in order, primals first):

* ``Fun``:    params ``(p..., ṗ_float...)``, results ``(r..., ṙ_float...)``;
* ``Map``:    arrays ``(a..., ȧ...)``, accumulators ``(acc..., acċ...)``,
  lambda results ``(acc..., acċ..., r..., ṙ...)``;
* ``Reduce/Scan/Hist``: the operator is lifted to dual numbers — params
  ``(acc..., acċ..., x..., ẋ...)`` — which preserves associativity because
  differentiation commutes with composition (a min/max ``reduce`` keeps its
  canonical primal beside the lifted fold);
* ``Loop/While/If``: state/result tuples are extended with tangents.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.ast import (
    AtomExp,
    Atom,
    BinOp,
    Body,
    Cast,
    Concat,
    Const,
    Exp,
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
    Stm,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
)
from ..ir.analysis import recognize_binop_lambda
from ..ir.builder import Builder, const
from ..ir.traversal import refresh_lambda
from ..ir.typecheck import check_fun
from ..ir.validate import validate_fun
from ..ir.types import is_float
from ..util import ADError, fresh
from .rules_scalar import binop_partials, minmax_takes_x, unop_partial

__all__ = ["jvp_fun"]


def _dvar(v: Var) -> Var:
    return Var(fresh(v.name + "_dot"), v.type)


class _JVP:
    """Forward-mode transformer; ``tan`` maps primal names to tangent atoms."""

    def __init__(self) -> None:
        self.tan: Dict[str, Atom] = {}

    # -- tangents ----------------------------------------------------------------

    def tangent(self, a: Atom) -> Atom:
        """Tangent of a float atom."""
        if isinstance(a, Const):
            return Const(0.0, a.type)
        t = self.tan.get(a.name)
        if t is None:
            raise ADError(f"no tangent recorded for {a.name} : {a.type}")
        return t

    # -- bodies -----------------------------------------------------------------

    def body(self, body: Body, b: Builder) -> Tuple[Tuple[Atom, ...], Tuple[Atom, ...]]:
        """Emit transformed statements into ``b``; return (primal results,
        tangent results of the float results)."""
        for stm in body.stms:
            self.stm(stm, b)
        prim = body.result
        tans = tuple(self.tangent(a) for a in prim if is_float(a.type))
        return prim, tans

    def sub_body(self, body: Body) -> Body:
        b = Builder()
        prim, tans = self.body(body, b)
        return b.finish(tuple(prim) + tans)

    # -- statements --------------------------------------------------------------

    def stm(self, stm: Stm, b: Builder) -> None:
        e = stm.exp
        handler = getattr(self, "_jvp_" + type(e).__name__, None)
        if handler is None:
            raise ADError(f"jvp: unsupported construct {type(e).__name__}")
        handler(stm, e, b)

    def _bind(self, stm: Stm, b: Builder) -> None:
        """Emit the primal statement unchanged."""
        b.emit_into(stm.pat, stm.exp)

    def _set_tan(self, v: Var, t: Optional[Atom], b: Builder) -> None:
        if not is_float(v.type):
            return
        if t is None:
            t = b.zeros_like(v)
        self.tan[v.name] = t

    # -- scalar-ish expressions -------------------------------------------------------

    def _jvp_AtomExp(self, stm: Stm, e: AtomExp, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        self._set_tan(v, self.tangent(e.x) if is_float(v.type) else None, b)

    def _jvp_UnOp(self, stm: Stm, e: UnOp, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if not is_float(v.type):
            return
        d = unop_partial(b, e.op, e.x, v)
        if d is None:
            self._set_tan(v, None, b)
        else:
            self._set_tan(v, b.mul(d, self.tangent(e.x), v.name + "_dot"), b)

    def _jvp_BinOp(self, stm: Stm, e: BinOp, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if not is_float(v.type):
            return
        if e.op in ("min", "max"):
            # Select the winner's tangent rather than weighting both by 0/1
            # masks: 0·inf would poison the result with the loser's tangent.
            c = minmax_takes_x(b, e.op, e.x, e.y)
            dt = b.select(c, self.tangent(e.x), self.tangent(e.y), v.name + "_dot")
            self._set_tan(v, dt, b)
            return
        dx, dy = binop_partials(b, e.op, e.x, e.y, v)
        terms: List[Atom] = []
        if dx is not None:
            terms.append(b.mul(dx, self.tangent(e.x), "t"))
        if dy is not None:
            terms.append(b.mul(dy, self.tangent(e.y), "t"))
        if not terms:
            self._set_tan(v, None, b)
        elif len(terms) == 1:
            self._set_tan(v, terms[0], b)
        else:
            self._set_tan(v, b.add(terms[0], terms[1], v.name + "_dot"), b)

    def _jvp_Select(self, stm: Stm, e: Select, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            dt = b.select(e.c, self.tangent(e.t), self.tangent(e.f), v.name + "_dot")
            self._set_tan(v, dt, b)

    def _jvp_Cast(self, stm: Stm, e: Cast, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            if is_float(e.x.type):
                self._set_tan(v, b.cast(self.tangent(e.x), e.to, v.name + "_dot"), b)
            else:
                self._set_tan(v, None, b)

    # -- array expressions ---------------------------------------------------------

    def _jvp_Index(self, stm: Stm, e: Index, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            darr = self.tangent(e.arr)
            assert isinstance(darr, Var)
            self._set_tan(v, b.index(darr, e.idx, v.name + "_dot"), b)

    def _jvp_Update(self, stm: Stm, e: Update, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            darr = self.tangent(e.arr)
            assert isinstance(darr, Var)
            dv = self.tangent(e.val)
            self._set_tan(v, b.update(darr, e.idx, dv, v.name + "_dot"), b)

    def _jvp_Iota(self, stm: Stm, e: Iota, b: Builder) -> None:
        self._bind(stm, b)

    def _jvp_Size(self, stm: Stm, e: Size, b: Builder) -> None:
        self._bind(stm, b)

    def _jvp_Replicate(self, stm: Stm, e: Replicate, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            dv = self.tangent(e.v)
            self._set_tan(v, b.replicate(e.n, dv, v.name + "_dot"), b)

    def _jvp_ZerosLike(self, stm: Stm, e: ZerosLike, b: Builder) -> None:
        # The same zeros, shaped by ẋ rather than by x: a zero tangent must
        # not keep a primal array alive that only it reads.
        self._bind(stm, b)
        v = stm.pat[0]
        dx = self.tan.get(e.x.name) if isinstance(e.x, Var) and is_float(e.x.type) else None
        self._set_tan(v, b.zeros_like(dx, v.name + "_dot") if isinstance(dx, Var) else None, b)

    def _jvp_ScratchLike(self, stm: Stm, e: ScratchLike, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            self._set_tan(v, b.scratch_like(e.n, e.x, v.name + "_dot"), b)

    def _jvp_Reverse(self, stm: Stm, e: Reverse, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            darr = self.tangent(e.x)
            assert isinstance(darr, Var)
            self._set_tan(v, b.reverse(darr, v.name + "_dot"), b)

    def _jvp_Concat(self, stm: Stm, e: Concat, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            dx, dy = self.tangent(e.x), self.tangent(e.y)
            assert isinstance(dx, Var) and isinstance(dy, Var)
            self._set_tan(v, b.concat(dx, dy, v.name + "_dot"), b)

    # -- SOACs -------------------------------------------------------------------------

    def _float_tangents_of(self, atoms: Sequence[Atom]) -> List[Atom]:
        return [self.tangent(a) for a in atoms if is_float(a.type)]

    def _jvp_Map(self, stm: Stm, e: Map, b: Builder) -> None:
        n_arr, n_acc = len(e.arrs), len(e.accs)
        arr_params = e.lam.params[:n_arr]
        acc_params = e.lam.params[n_arr:]

        darrs = [self.tangent(a) for a in e.arrs if is_float(a.type)]
        daccs = [self.tangent(a) for a in e.accs]
        darr_params = []
        for p, a in zip(arr_params, e.arrs):
            if is_float(a.type):
                dp = _dvar(p)
                self.tan[p.name] = dp
                darr_params.append(dp)
        dacc_params = []
        for p in acc_params:
            dp = _dvar(p)
            self.tan[p.name] = dp
            dacc_params.append(dp)

        lb = Builder()
        prim, _ = self.body(e.lam.body, lb)
        accs_res = list(prim[:n_acc])
        daccs_res = [self.tangent(a) for a in accs_res]
        outs = list(prim[n_acc:])
        douts = [self.tangent(a) for a in outs if is_float(a.type)]
        lam_body = lb.finish(tuple(accs_res) + tuple(daccs_res) + tuple(outs) + tuple(douts))
        new_params = tuple(arr_params) + tuple(darr_params) + tuple(acc_params) + tuple(dacc_params)
        new_lam = Lambda(new_params, lam_body)

        new_arrs = tuple(e.arrs) + tuple(darrs)  # type: ignore[arg-type]
        new_accs = tuple(e.accs) + tuple(daccs)  # type: ignore[arg-type]
        names = (
            [v.name for v in stm.pat[:n_acc]]
            + [v.name + "_dot" for v in stm.pat[:n_acc]]
            + [v.name for v in stm.pat[n_acc:]]
            + [v.name + "_dot" for v, a in zip(stm.pat[n_acc:], outs) if is_float(a.type)]
        )
        vs = b.map(new_lam, new_arrs, new_accs, names=names)
        # Rebind: accs, dacc tangents, primal outs, out tangents.
        res_accs = vs[:n_acc]
        res_daccs = vs[n_acc : 2 * n_acc]
        rest = vs[2 * n_acc :]
        res_outs = rest[: len(outs)]
        res_douts = rest[len(outs) :]
        for v_old, v_new in zip(stm.pat[:n_acc], res_accs):
            self._alias(v_old, v_new, b)
        for v_old, dv in zip(stm.pat[:n_acc], res_daccs):
            self.tan[v_old.name] = dv
        j = 0
        for v_old, v_new, a in zip(stm.pat[n_acc:], res_outs, outs):
            self._alias(v_old, v_new, b)
            if is_float(a.type):
                self.tan[v_old.name] = res_douts[j]
                j += 1

    def _alias(self, old: Var, new: Var, b: Builder) -> None:
        """Bind the original pattern name to the new result."""
        b.emit_into((old,), AtomExp(new))

    def _lift_operator(
        self, lam: Lambda, nes: Tuple[Atom, ...], b: Builder
    ) -> Tuple[Lambda, Tuple[Atom, ...], List[bool]]:
        """Lift an associative k-ary operator to dual numbers."""
        k = len(nes)
        accs, elems = lam.params[:k], lam.params[k:]
        floats = [is_float(ne.type) for ne in nes]
        daccs, delems = [], []
        for p, fl in zip(accs, floats):
            if fl:
                dp = _dvar(p)
                self.tan[p.name] = dp
                daccs.append(dp)
        for p, fl in zip(elems, floats):
            if fl:
                dp = _dvar(p)
                self.tan[p.name] = dp
                delems.append(dp)
        lb = Builder()
        prim, _ = self.body(lam.body, lb)
        dres = [self.tangent(a) for a, fl in zip(prim, floats) if fl]
        body = lb.finish(tuple(prim) + tuple(dres))
        new_lam = Lambda(tuple(accs) + tuple(daccs) + tuple(elems) + tuple(delems), body)
        # A neutral element's tangent is its own: 0 for a constant, and for
        # a computed one whatever the input moves it by (``sum_leading_axis``'s
        # zero row is ``zeros_like`` of the tangent rows, not of the primal).
        dnes = [self.tangent(ne) for ne, fl in zip(nes, floats) if fl]
        return new_lam, tuple(nes) + tuple(dnes), floats

    def _jvp_Reduce(self, stm: Stm, e: Reduce, b: Builder) -> None:
        y = stm.pat[0]
        if (len(e.nes) == 1 and is_float(y.type)
                and recognize_binop_lambda(e.lam) in ("min", "max")):
            # y stays the canonical reduce and ẏ gets its own lifted fold:
            # where only y is used (the first-index reduce of a vjp), DCE
            # drops the fold and no element-at-a-time reduce is left.
            self._bind(stm, b)
            new_lam, new_nes, _ = self._lift_operator(refresh_lambda(e.lam), e.nes, b)
            darr = self.tangent(e.arrs[0])
            _, dy = b.reduce(new_lam, new_nes, (e.arrs[0], darr), names=[y.name, y.name + "_dot"])
            self.tan[y.name] = dy
            return
        new_lam, new_nes, floats = self._lift_operator(e.lam, e.nes, b)
        darrs = [self.tangent(a) for a, fl in zip(e.arrs, floats) if fl]
        new_arrs = tuple(e.arrs) + tuple(darrs)  # type: ignore[arg-type]
        names = [v.name for v in stm.pat] + [v.name + "_dot" for v, fl in zip(stm.pat, floats) if fl]
        vs = b.reduce(new_lam, new_nes, new_arrs, names=names)
        k = len(e.nes)
        j = k
        for v_old, v_new, fl in zip(stm.pat, vs[:k], floats):
            self._alias(v_old, v_new, b)
            if fl:
                self.tan[v_old.name] = vs[j]
                j += 1

    def _jvp_Scan(self, stm: Stm, e: Scan, b: Builder) -> None:
        new_lam, new_nes, floats = self._lift_operator(e.lam, e.nes, b)
        darrs = [self.tangent(a) for a, fl in zip(e.arrs, floats) if fl]
        new_arrs = tuple(e.arrs) + tuple(darrs)  # type: ignore[arg-type]
        names = [v.name for v in stm.pat] + [v.name + "_dot" for v, fl in zip(stm.pat, floats) if fl]
        vs = b.scan(new_lam, new_nes, new_arrs, names=names)
        k = len(e.nes)
        j = k
        for v_old, v_new, fl in zip(stm.pat, vs[:k], floats):
            self._alias(v_old, v_new, b)
            if fl:
                self.tan[v_old.name] = vs[j]
                j += 1

    def _jvp_ReduceByIndex(self, stm: Stm, e: ReduceByIndex, b: Builder) -> None:
        new_lam, new_nes, floats = self._lift_operator(e.lam, e.nes, b)
        dvals = [self.tangent(a) for a, fl in zip(e.vals, floats) if fl]
        new_vals = tuple(e.vals) + tuple(dvals)  # type: ignore[arg-type]
        names = [v.name for v in stm.pat] + [v.name + "_dot" for v, fl in zip(stm.pat, floats) if fl]
        vs = b.reduce_by_index(e.num_bins, new_lam, new_nes, e.inds, new_vals, names=names)
        k = len(e.nes)
        j = k
        for v_old, v_new, fl in zip(stm.pat, vs[:k], floats):
            self._alias(v_old, v_new, b)
            if fl:
                self.tan[v_old.name] = vs[j]
                j += 1

    def _jvp_Scatter(self, stm: Stm, e: Scatter, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        if is_float(v.type):
            ddest = self.tangent(e.dest)
            dvals = self.tangent(e.vals)
            assert isinstance(ddest, Var) and isinstance(dvals, Var)
            self._set_tan(v, b.scatter(ddest, e.inds, dvals, v.name + "_dot"), b)

    # -- control flow ----------------------------------------------------------------

    def _jvp_Loop(self, stm: Stm, e: Loop, b: Builder) -> None:
        floats = [is_float(p.type) for p in e.params]
        dparams = []
        for p, fl in zip(e.params, floats):
            if fl:
                dp = _dvar(p)
                self.tan[p.name] = dp
                dparams.append(dp)
        dinits = [self.tangent(i) for i, fl in zip(e.inits, floats) if fl]
        lb = Builder()
        prim, _ = self.body(e.body, lb)
        dres = [self.tangent(a) for a, fl in zip(prim, floats) if fl]
        body = lb.finish(tuple(prim) + tuple(dres))
        names = [v.name for v in stm.pat] + [v.name + "_dot" for v, fl in zip(stm.pat, floats) if fl]
        vs = b.loop(
            tuple(e.params) + tuple(dparams),
            tuple(e.inits) + tuple(dinits),
            e.ivar,
            e.n,
            body,
            names=names,
            stripmine=e.stripmine,
        )
        k = len(e.params)
        j = k
        for v_old, v_new, fl in zip(stm.pat, vs[:k], floats):
            self._alias(v_old, v_new, b)
            if fl:
                self.tan[v_old.name] = vs[j]
                j += 1

    def _jvp_WhileLoop(self, stm: Stm, e: WhileLoop, b: Builder) -> None:
        floats = [is_float(p.type) for p in e.params]
        dparams = []
        for p, fl in zip(e.params, floats):
            if fl:
                dp = _dvar(p)
                self.tan[p.name] = dp
                dparams.append(dp)
        dinits = [self.tangent(i) for i, fl in zip(e.inits, floats) if fl]
        lb = Builder()
        prim, _ = self.body(e.body, lb)
        dres = [self.tangent(a) for a, fl in zip(prim, floats) if fl]
        body = lb.finish(tuple(prim) + tuple(dres))
        new_params = tuple(e.params) + tuple(dparams)
        # The condition reads only primal state; extend its parameter list.
        cond_extra = tuple(_dvar(p) for p in dparams)
        m = {p.name: np_ for p, np_ in zip(e.cond.params, e.params)}
        from ..ir.traversal import subst

        cond_body = subst(Lambda(e.cond.params, e.cond.body), m).body
        new_cond = Lambda(new_params, cond_body)
        names = [v.name for v in stm.pat] + [v.name + "_dot" for v, fl in zip(stm.pat, floats) if fl]
        vs = b.while_loop(
            new_params,
            tuple(e.inits) + tuple(dinits),
            new_cond,
            body,
            bound=e.bound,
            names=names,
        )
        k = len(e.params)
        j = k
        for v_old, v_new, fl in zip(stm.pat, vs[:k], floats):
            self._alias(v_old, v_new, b)
            if fl:
                self.tan[v_old.name] = vs[j]
                j += 1

    def _jvp_If(self, stm: Stm, e: If, b: Builder) -> None:
        floats = [is_float(v.type) for v in stm.pat]
        then = self.sub_body(e.then)
        els = self.sub_body(e.els)
        names = [v.name for v in stm.pat] + [v.name + "_dot" for v, fl in zip(stm.pat, floats) if fl]
        vs = b.if_(e.cond, then, els, names=names)
        k = len(stm.pat)
        j = k
        for v_old, v_new, fl in zip(stm.pat, vs[:k], floats):
            self._alias(v_old, v_new, b)
            if fl:
                self.tan[v_old.name] = vs[j]
                j += 1

    # -- accumulators ------------------------------------------------------------------

    def _jvp_WithAcc(self, stm: Stm, e: WithAcc, b: Builder) -> None:
        n = len(e.arrs)
        darrs = [self.tangent(a) for a in e.arrs]
        dacc_params = []
        for p in e.lam.params:
            dp = _dvar(p)
            self.tan[p.name] = dp
            dacc_params.append(dp)
        lb = Builder()
        prim, _ = self.body(e.lam.body, lb)
        accs_res = list(prim[:n])
        dacc_res = [self.tangent(a) for a in accs_res]
        extra = list(prim[n:])
        dextra = [self.tangent(a) for a in extra if is_float(a.type)]
        body = lb.finish(tuple(accs_res) + tuple(dacc_res) + tuple(extra) + tuple(dextra))
        new_lam = Lambda(tuple(e.lam.params) + tuple(dacc_params), body)
        new_arrs = tuple(e.arrs) + tuple(darrs)  # type: ignore[arg-type]
        names = (
            [v.name for v in stm.pat[:n]]
            + [v.name + "_dot" for v in stm.pat[:n]]
            + [v.name for v in stm.pat[n:]]
            + [v.name + "_dot" for v, a in zip(stm.pat[n:], extra) if is_float(a.type)]
        )
        vs = b.with_acc(new_arrs, new_lam, names=names)
        res_arrs = vs[:n]
        res_darrs = vs[n : 2 * n]
        rest = vs[2 * n :]
        for v_old, v_new in zip(stm.pat[:n], res_arrs):
            self._alias(v_old, v_new, b)
        for v_old, dv in zip(stm.pat[:n], res_darrs):
            self.tan[v_old.name] = dv
        res_extra = rest[: len(extra)]
        res_dextra = rest[len(extra) :]
        j = 0
        for v_old, v_new, a in zip(stm.pat[n:], res_extra, extra):
            self._alias(v_old, v_new, b)
            if is_float(a.type):
                self.tan[v_old.name] = res_dextra[j]
                j += 1

    def _jvp_UpdAcc(self, stm: Stm, e: UpdAcc, b: Builder) -> None:
        self._bind(stm, b)
        v = stm.pat[0]
        dacc = self.tangent(e.acc)
        assert isinstance(dacc, Var)
        dv = self.tangent(e.v)
        self.tan[v.name] = b.upd_acc(dacc, e.idx, dv, v.name + "_dot")


def jvp_fun(fun: Fun) -> Fun:
    """Forward-mode transform: params gain tangent seeds for every float
    parameter; results gain tangents of every float result.

    The input is unfused first: the reduce/scan/hist rules assume canonical
    associative operators, not the fusion engine's redomap shapes.
    """
    from ..opt.fusion import unfuse_fun

    fun = unfuse_fun(fun)
    j = _JVP()
    dparams = []
    for p in fun.params:
        if is_float(p.type):
            dp = _dvar(p)
            j.tan[p.name] = dp
            dparams.append(dp)
    b = Builder()
    prim, tans = j.body(fun.body, b)
    body = b.finish(tuple(prim) + tuple(tans))
    out = Fun(fun.name + "_jvp", tuple(fun.params) + tuple(dparams), body)
    check_fun(out)
    validate_fun(out)
    from ..ir.verify import maybe_verify_fun

    return maybe_verify_fun(out, where="jvp")
