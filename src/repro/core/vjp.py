"""Reverse-mode AD by redundant execution (paper §4).

The transform follows Fig. 3:

* ``transform_scope`` (the paper's ``vjp_body``) first emits the **forward
  sweep** — the scope's original statements, re-executed so that every
  variable the return sweep may need is in scope (this is the "tape": the
  in-scope variables themselves) — then seeds the result adjoints and emits
  the **return sweep** in reverse statement order;
* sequential loops are the only construct that checkpoints (loop-variant
  values are saved per iteration, Fig. 3/4);
* inside ``map``, free-array adjoints become **accumulators** (§5.4);
  free-scalar adjoints are returned per iteration and summed;
* the parallel operators use the rewrite rules of §5 (``rules_reduce``,
  ``rules_scan``, ``rules_hist``, ``rules_scatter``, ``rules_map``,
  ``rules_loop``).

Re-execution overhead is bounded by the nesting depth; the redundant forward
sweeps of perfect nests become dead code that ``opt.dce`` removes (§4.1),
which ``tests/test_opt_dce.py`` checks structurally on the paper's Fig. 2.
"""
from __future__ import annotations

from numbers import Integral
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
from ..ir.builder import Builder, const, const_like
from ..ir.traversal import free_vars
from ..ir.typecheck import check_fun
from ..ir.validate import validate_fun
from ..ir.types import elem_type, is_float, rank_of
from ..util import ADError, fresh
from .adjoint import AdjScope
from .rules_scalar import binop_partials, minmax_takes_x, unop_partial

__all__ = ["vjp_fun", "VJP"]


class VJP:
    """Reverse-mode transformer.

    ``acc_env`` maps original variable names to their current accumulator
    variable wherever the adjoint is in accumulator mode; it is shared down
    nested scopes (accumulators are ordinary values threaded through maps,
    loops and branches).
    """

    def __init__(self, nodiff: Optional[set] = None) -> None:
        self.acc_env: Dict[str, Var] = {}
        self.nodiff: set = nodiff if nodiff is not None else set()

    # ------------------------------------------------------------------ scopes

    def transform_scope(
        self,
        body: Body,
        seeds: Sequence[Optional[Atom]],
        want: Sequence[Var],
        b: Builder,
        init_adj: Optional[Dict[str, Atom]] = None,
    ) -> List[Atom]:
        """Fig. 3's ``vjp_body``: forward sweep, seed, return sweep.

        ``seeds[i]`` is the adjoint of ``body.result[i]`` (None for
        non-float results).  Returns the final adjoints of ``want``.
        """
        aux_list = []
        for stm in body.stms:
            aux_list.append((stm, self.fwd_stm(stm, b)))
        sc = AdjScope(b, self.acc_env, init_adj, nodiff=self.nodiff, body=body)
        for a, s in zip(body.result, seeds):
            if s is not None and isinstance(a, Var) and is_float(a.type):
                sc.add(a, s)
        for stm, aux in reversed(aux_list):
            self.rev_stm(stm, aux, sc)
        return [sc.final(w) for w in want]

    # ------------------------------------------------------------- forward sweep

    def fwd_stm(self, stm: Stm, b: Builder):
        """Emit the forward-sweep version of ``stm``; return rule-specific
        auxiliary data for the return sweep."""
        e = stm.exp
        if isinstance(e, Loop):
            from .rules_loop import fwd_loop

            return fwd_loop(self, stm, e, b)
        if isinstance(e, Reduce):
            from .rules_reduce import fwd_reduce

            return fwd_reduce(self, stm, e, b)
        if isinstance(e, ReduceByIndex):
            from .rules_hist import fwd_hist

            return fwd_hist(self, stm, e, b)
        if isinstance(e, (WithAcc, UpdAcc)):
            raise ADError(
                "reverse AD of accumulator constructs is not supported; "
                "compute higher-order derivatives as jvp(vjp(f)) (paper §7.4)"
            )
        b.emit_into(stm.pat, e)
        return None

    # ------------------------------------------------------------- return sweep

    def rev_stm(self, stm: Stm, aux, sc: AdjScope) -> None:
        # A statement whose bound float results were never used by the
        # return sweep so far has all-zero result adjoints and contributes
        # nothing (its own operand adjoints stay untouched).
        if not any(is_float(v.type) and sc.has(v) for v in stm.pat):
            return
        e = stm.exp
        handler = getattr(self, "_rev_" + type(e).__name__, None)
        if handler is None:
            raise ADError(f"vjp: unsupported construct {type(e).__name__}")
        handler(stm, e, aux, sc)

    # -- scalar / simple array rules ------------------------------------------------

    def _ybar(self, stm: Stm, sc: AdjScope) -> Atom:
        return sc.lookup(stm.pat[0])

    def _rev_AtomExp(self, stm: Stm, e: AtomExp, aux, sc: AdjScope) -> None:
        sc.add(e.x, self._ybar(stm, sc))

    def _rev_UnOp(self, stm: Stm, e: UnOp, aux, sc: AdjScope) -> None:
        if not is_float(stm.pat[0].type):
            return
        ybar = self._ybar(stm, sc)
        d = unop_partial(sc.b, e.op, e.x, stm.pat[0])
        if d is not None:
            sc.add(e.x, sc.b.mul(d, ybar, "c"))

    def _rev_BinOp(self, stm: Stm, e: BinOp, aux, sc: AdjScope) -> None:
        if not is_float(stm.pat[0].type):
            return
        ybar = self._ybar(stm, sc)
        if e.op in ("min", "max"):
            # Route the adjoint to the winner (as ``_jvp_BinOp`` routes the
            # tangent) rather than weighting it by 0/1 masks: 0·inf would
            # hand the loser a nan.
            c = minmax_takes_x(sc.b, e.op, e.x, e.y)
            zero = const_like(0.0, stm.pat[0])
            if isinstance(e.x, Var):
                sc.add(e.x, sc.b.select(c, ybar, zero, "c"))
            if isinstance(e.y, Var):
                sc.add(e.y, sc.b.select(c, zero, ybar, "c"))
            return
        dx, dy = binop_partials(sc.b, e.op, e.x, e.y, stm.pat[0])
        if dx is not None and is_float(e.x.type):
            sc.add(e.x, sc.b.mul(dx, ybar, "c"))
        if dy is not None and is_float(e.y.type):
            sc.add(e.y, sc.b.mul(dy, ybar, "c"))

    def _rev_Select(self, stm: Stm, e: Select, aux, sc: AdjScope) -> None:
        if not is_float(stm.pat[0].type):
            return
        ybar = self._ybar(stm, sc)
        zero = const_like(0.0, e.t)
        if isinstance(e.t, Var):
            sc.add(e.t, sc.b.select(e.c, ybar, zero, "c"))
        if isinstance(e.f, Var):
            sc.add(e.f, sc.b.select(e.c, zero, ybar, "c"))

    def _rev_Cast(self, stm: Stm, e: Cast, aux, sc: AdjScope) -> None:
        if is_float(stm.pat[0].type) and is_float(e.x.type):
            ybar = self._ybar(stm, sc)
            sc.add(e.x, sc.b.cast(ybar, elem_type(e.x.type), "c"))

    def _rev_Index(self, stm: Stm, e: Index, aux, sc: AdjScope) -> None:
        if is_float(stm.pat[0].type):
            sc.add_at(e.arr, e.idx, self._ybar(stm, sc))

    def _rev_Update(self, stm: Stm, e: Update, aux, sc: AdjScope) -> None:
        if not is_float(stm.pat[0].type):
            return
        ybar = self._ybar(stm, sc)
        if not isinstance(ybar, Var):
            raise ADError("update: array adjoint must be a variable")
        # v̄ += ȳ[idx]
        if isinstance(e.val, Var):
            sc.add(e.val, sc.b.index(ybar, e.idx, "c"))
        # ā += ȳ with [idx] <- 0  (the overwritten slot contributed nothing)
        z = sc.b.zeros_like(e.val)
        sc.add(e.arr, sc.b.update(ybar, e.idx, z, "c"))

    def _rev_Iota(self, stm: Stm, e: Iota, aux, sc: AdjScope) -> None:
        pass

    def _rev_Size(self, stm: Stm, e: Size, aux, sc: AdjScope) -> None:
        pass

    def _rev_ZerosLike(self, stm: Stm, e: ZerosLike, aux, sc: AdjScope) -> None:
        pass

    def _rev_ScratchLike(self, stm: Stm, e: ScratchLike, aux, sc: AdjScope) -> None:
        pass

    def _rev_Replicate(self, stm: Stm, e: Replicate, aux, sc: AdjScope) -> None:
        if is_float(stm.pat[0].type) and isinstance(e.v, Var):
            # Adjoint of a broadcast is the sum over the new axis; sc.add
            # performs the leading-axis reduction.
            sc.add(e.v, self._ybar(stm, sc))

    def _rev_Reverse(self, stm: Stm, e: Reverse, aux, sc: AdjScope) -> None:
        if is_float(stm.pat[0].type):
            ybar = self._ybar(stm, sc)
            assert isinstance(ybar, Var)
            sc.add(e.x, sc.b.reverse(ybar, "c"))

    def _rev_Concat(self, stm: Stm, e: Concat, aux, sc: AdjScope) -> None:
        if not is_float(stm.pat[0].type):
            return
        ybar = self._ybar(stm, sc)
        assert isinstance(ybar, Var)
        b = sc.b
        nx = b.emit1(Size(e.x), "nx")
        ny = b.emit1(Size(e.y), "ny")
        # x̄ += ȳ[0:nx];  ȳ̄ += ȳ[nx:nx+ny] — expressed as gathers.
        i = Var(fresh("i"), elem_type(nx.type))
        ib = Builder()
        el = ib.index(ybar, (i,), "el")
        xs_part = b.map(Lambda((i,), ib.finish([el])), [b.emit1(Iota(nx), "is")], names=["c"])[0]
        sc.add(e.x, xs_part)
        j = Var(fresh("j"), elem_type(ny.type))
        jb = Builder()
        off = jb.add(j, nx, "off")
        el2 = jb.index(ybar, (off,), "el")
        ys_part = b.map(Lambda((j,), jb.finish([el2])), [b.emit1(Iota(ny), "is")], names=["c"])[0]
        sc.add(e.y, ys_part)

    # -- SOACs and control flow (rules modules) ------------------------------------

    def _rev_Map(self, stm: Stm, e: Map, aux, sc: AdjScope) -> None:
        from .rules_map import rev_map

        rev_map(self, stm, e, sc)

    def _rev_Reduce(self, stm: Stm, e: Reduce, aux, sc: AdjScope) -> None:
        from .rules_reduce import rev_reduce

        rev_reduce(self, stm, e, aux, sc)

    def _rev_Scan(self, stm: Stm, e: Scan, aux, sc: AdjScope) -> None:
        from .rules_scan import rev_scan

        rev_scan(self, stm, e, sc)

    def _rev_ReduceByIndex(self, stm: Stm, e: ReduceByIndex, aux, sc: AdjScope) -> None:
        from .rules_hist import rev_hist

        rev_hist(self, stm, e, aux, sc)

    def _rev_Scatter(self, stm: Stm, e: Scatter, aux, sc: AdjScope) -> None:
        from .rules_scatter import rev_scatter

        rev_scatter(self, stm, e, sc)

    def _rev_Loop(self, stm: Stm, e: Loop, aux, sc: AdjScope) -> None:
        from .rules_loop import rev_loop

        rev_loop(self, stm, e, aux, sc)

    def _rev_WhileLoop(self, stm: Stm, e: WhileLoop, aux, sc: AdjScope) -> None:
        # A while loop reached by the return sweep with live float adjoints
        # cannot be checkpointed (statically-unknown iteration count, §6.2).
        raise ADError(
            "reverse AD of a while loop requires an iteration bound: "
            "annotate it (while_loop(..., bound=n)) or let the while_bound "
            "pass insert an inspector; then it becomes a bounded for-loop"
        )

    def _rev_If(self, stm: Stm, e: If, aux, sc: AdjScope) -> None:
        b = sc.b
        ybars: List[Optional[Atom]] = [
            sc.lookup(v) if is_float(v.type) else None for v in stm.pat
        ]
        # Free variables of either branch that need adjoints.
        fvs = {}
        for bodyx in (e.then, e.els):
            for name, v in free_vars(bodyx).items():
                if is_float(v.type) and name not in self.nodiff:
                    fvs.setdefault(name, v)
        acc_fvs = [v for v in fvs.values() if v.name in self.acc_env]
        val_fvs = [v for v in fvs.values() if v.name not in self.acc_env]

        saved_acc = {v.name: self.acc_env[v.name] for v in acc_fvs}

        def branch(bodyx: Body) -> Body:
            bb = Builder()
            for n, a in saved_acc.items():
                self.acc_env[n] = a
            adjs = self.transform_scope(bodyx, ybars, val_fvs, bb)
            acc_res = [self.acc_env[v.name] for v in acc_fvs]
            return bb.finish(tuple(acc_res) + tuple(adjs))

        then_b = branch(e.then)
        els_b = branch(e.els)
        for n, a in saved_acc.items():
            self.acc_env[n] = a
        names = [v.name + "_acc" for v in acc_fvs] + [v.name + "_bar" for v in val_fvs]
        vs = b.if_(e.cond, then_b, els_b, names=names)
        for v, nv in zip(acc_fvs, vs[: len(acc_fvs)]):
            self.acc_env[v.name] = nv
        for v, contrib in zip(val_fvs, vs[len(acc_fvs):]):
            sc.add(v, contrib)


def _wanted(fun: Fun, wrt) -> Optional[Set[int]]:
    """The parameter indices ``wrt`` selects (None: every float parameter),
    each an in-range index of a float parameter, or ``ADError``."""
    if wrt is None:
        return None
    n = len(fun.params)
    if isinstance(wrt, str) or not isinstance(wrt, Sequence):
        raise ADError(f"vjp: wrt={wrt!r} is not a sequence of indices into {n} parameters")
    for i in wrt:
        if isinstance(i, bool) or not isinstance(i, Integral):
            raise ADError(f"vjp: wrt index {i!r} is not an int ({n} parameters)")
        if not 0 <= i < n:
            raise ADError(f"vjp: wrt index {i} out of range for {n} parameters")
        if not is_float(fun.params[i].type):
            raise ADError(f"vjp: wrt index {i} is not a float parameter ({n} parameters)")
    return set(wrt)


def vjp_fun(fun: Fun, wrt=None) -> Fun:
    """Reverse-mode transform.

    ``vjp(f) : (params..., seeds of float results...) ->
    (results..., adjoints of float params...)`` — the paper's ←P extended
    with the primal results (Fig. 1c returns them too).  ``wrt`` optionally
    restricts which parameters (by index) receive adjoints; the others are
    treated as non-differentiable data (their adjoint code is never built).

    The input is unfused first: the reduce/scan/hist rules assume canonical
    associative operators, not the fusion engine's redomap shapes.
    """
    from ..opt.fusion import unfuse_fun

    wanted = _wanted(fun, wrt)
    fun = unfuse_fun(fun)
    nodiff = set()
    if wanted is not None:
        nodiff = {p.name for i, p in enumerate(fun.params) if i not in wanted}
    v = VJP(nodiff)
    seeds: List[Optional[Atom]] = []
    seed_params: List[Var] = []
    for i, r in enumerate(fun.body.result):
        if is_float(r.type):
            sp = Var(fresh(f"seed{i}"), r.type)
            seed_params.append(sp)
            seeds.append(sp)
        else:
            seeds.append(None)
    want = [
        p
        for i, p in enumerate(fun.params)
        if is_float(p.type) and (wanted is None or i in wanted)
    ]
    b = Builder()
    adjs = v.transform_scope(fun.body, seeds, want, b)
    body = b.finish(tuple(fun.body.result) + tuple(adjs))
    out = Fun(fun.name + "_vjp", tuple(fun.params) + tuple(seed_params), body)
    check_fun(out)
    validate_fun(out)
    from ..ir.verify import maybe_verify_fun

    return maybe_verify_fun(out, where="vjp")
