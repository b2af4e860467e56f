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

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..ir.ast import (
    AtomExp,
    Atom,
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
    Replicate,
    Reverse,
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
from ..ir.builder import Builder
from ..ir.traversal import refresh_lambda, subst
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

    def sub_body(self, body: Body, n_acc: int = 0) -> Body:
        """``body`` transformed in a builder of its own, its results laid out
        as ``_bind_dual`` binds them: the leading ``n_acc`` (accumulators)
        and their tangents, then the rest and the float ones' tangents."""
        b = Builder()
        prim, _ = self.body(body, b)
        res: List[Atom] = []
        for group in (prim[:n_acc], prim[n_acc:]):
            res += [*group, *(self.tangent(a) for a in group if is_float(a.type))]
        return b.finish(tuple(res))

    def dparams(self, params) -> List[Var]:
        """A tangent parameter per float parameter, recorded as its tangent."""
        out = []
        for p in params:
            if is_float(p.type):
                self.tan[p.name] = dp = _dvar(p)
                out.append(dp)
        return out

    def _bind_dual(self, pat, b: Builder, emit, n_acc: int = 0) -> None:
        """``emit(names)`` binds ``pat``'s leading ``n_acc`` results
        (accumulators) and their tangents, then the rest and the float ones'
        tangents; alias ``pat`` to the primal results and record the
        tangents."""
        groups = (pat[:n_acc], pat[n_acc:])
        names = [n for g in groups for n in
                 [v.name for v in g] + [v.name + "_dot" for v in g if is_float(v.type)]]
        out = iter(emit(names))
        for g in groups:
            for v_old, v_new in zip(g, [next(out) for _ in g]):
                self._alias(v_old, v_new, b)
            for v_old in g:
                if is_float(v_old.type):
                    self.tan[v_old.name] = next(out)

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

    def _jvp_Map(self, stm: Stm, e: Map, b: Builder) -> None:
        n_arr, n_acc = len(e.arrs), len(e.accs)
        arr_params = e.lam.params[:n_arr]
        acc_params = e.lam.params[n_arr:]
        darrs = [self.tangent(a) for a in e.arrs if is_float(a.type)]
        daccs = [self.tangent(a) for a in e.accs]
        darr_params = self.dparams(arr_params)
        dacc_params = self.dparams(acc_params)
        new_params = tuple(arr_params) + tuple(darr_params) + tuple(acc_params) + tuple(dacc_params)
        new_lam = Lambda(new_params, self.sub_body(e.lam.body, n_acc))
        new_arrs = tuple(e.arrs) + tuple(darrs)  # type: ignore[arg-type]
        new_accs = tuple(e.accs) + tuple(daccs)  # type: ignore[arg-type]
        self._bind_dual(stm.pat, b, lambda names: b.map(new_lam, new_arrs, new_accs, names=names),
                       n_acc)

    def _alias(self, old: Var, new: Var, b: Builder) -> None:
        """Bind the original pattern name to the new result."""
        b.emit_into((old,), AtomExp(new))

    def _lift_operator(self, lam: Lambda, nes: Tuple[Atom, ...]) -> Tuple[Lambda, Tuple[Atom, ...]]:
        """Lift an associative k-ary operator to dual numbers."""
        k = len(nes)
        accs, elems = lam.params[:k], lam.params[k:]
        daccs = self.dparams(accs)
        delems = self.dparams(elems)
        new_lam = Lambda(tuple(accs) + tuple(daccs) + tuple(elems) + tuple(delems),
                         self.sub_body(lam.body))
        # A neutral element's tangent is its own: 0 for a constant, and for
        # a computed one whatever the input moves it by (``sum_leading_axis``'s
        # zero row is ``zeros_like`` of the tangent rows, not of the primal).
        dnes = [self.tangent(ne) for ne in nes if is_float(ne.type)]
        return new_lam, tuple(nes) + tuple(dnes)

    def _jvp_Reduce(self, stm: Stm, e: Reduce, b: Builder) -> None:
        y = stm.pat[0]
        if (len(e.nes) == 1 and is_float(y.type)
                and recognize_binop_lambda(e.lam) in ("min", "max")):
            # y stays the canonical reduce and ẏ gets its own lifted fold:
            # where only y is used (the first-index reduce of a vjp), DCE
            # drops the fold and no element-at-a-time reduce is left.
            self._bind(stm, b)
            new_lam, new_nes = self._lift_operator(refresh_lambda(e.lam), e.nes)
            darr = self.tangent(e.arrs[0])
            _, dy = b.reduce(new_lam, new_nes, (e.arrs[0], darr), names=[y.name, y.name + "_dot"])
            self.tan[y.name] = dy
            return
        self._jvp_fold(stm, e, b)

    def _jvp_fold(self, stm: Stm, e, b: Builder) -> None:
        """A reduce, scan or histogram over its operator lifted to dual
        numbers, its tangent arrays after its own."""
        new_lam, new_nes = self._lift_operator(e.lam, e.nes)
        arrs = tuple(e.arrs) + tuple(self.tangent(a) for a in e.arrs if is_float(a.type))
        self._bind_dual(stm.pat, b, lambda names: b.emit(
            replace(e, lam=new_lam, nes=new_nes, arrs=arrs), names))

    _jvp_Scan = _jvp_ReduceByIndex = _jvp_fold

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
        params = tuple(e.params) + tuple(self.dparams(e.params))
        inits = tuple(e.inits) + tuple(self.tangent(i) for i in e.inits if is_float(i.type))
        body = self.sub_body(e.body)
        self._bind_dual(stm.pat, b, lambda names: b.loop(
            params, inits, e.ivar, e.n, body, names=names, stripmine=e.stripmine))

    def _jvp_WhileLoop(self, stm: Stm, e: WhileLoop, b: Builder) -> None:
        params = tuple(e.params) + tuple(self.dparams(e.params))
        inits = tuple(e.inits) + tuple(self.tangent(i) for i in e.inits if is_float(i.type))
        body = self.sub_body(e.body)
        # The condition reads only primal state; extend its parameter list.
        m = {p.name: np_ for p, np_ in zip(e.cond.params, e.params)}
        cond = Lambda(params, subst(Lambda(e.cond.params, e.cond.body), m).body)
        self._bind_dual(stm.pat, b, lambda names: b.while_loop(
            params, inits, cond, body, bound=e.bound, names=names))

    def _jvp_If(self, stm: Stm, e: If, b: Builder) -> None:
        then, els = self.sub_body(e.then), self.sub_body(e.els)
        self._bind_dual(stm.pat, b, lambda names: b.if_(e.cond, then, els, names=names))

    # -- accumulators ------------------------------------------------------------------

    def _jvp_WithAcc(self, stm: Stm, e: WithAcc, b: Builder) -> None:
        n = len(e.arrs)
        arrs = tuple(e.arrs) + tuple(self.tangent(a) for a in e.arrs)
        params = tuple(e.lam.params) + tuple(self.dparams(e.lam.params))
        new_lam = Lambda(params, self.sub_body(e.lam.body, n))
        self._bind_dual(stm.pat, b, lambda names: b.with_acc(arrs, new_lam, names=names), n)

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
    dparams = j.dparams(fun.params)
    out = Fun(fun.name + "_jvp", tuple(fun.params) + tuple(dparams), j.sub_body(fun.body))
    check_fun(out)
    validate_fun(out)
    from ..ir.verify import maybe_verify_fun

    return maybe_verify_fun(out, where="jvp")
