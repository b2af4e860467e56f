"""Accumulator specialisation (paper §6.1).

Reverse AD turns reads inside ``map`` into accumulator updates, which lower
to atomic adds — correct, but with poor locality (uncoalesced, contended).
This pass rewrites the common shapes back into bulk constructs with
specialised, fast code generation:

* **accs_to_reduce** — an update whose *indices are invariant to the
  enclosing parallel dimension* sums over that dimension.  The nest is
  split: the contribution values are produced by a plain (accumulator-free)
  map nest, summed over the invariant dimension with a dense ``reduce (+)``,
  and written back with a single accumulation over the remaining index
  space.  On the matmul adjoint this reproduces the paper's result: two
  matmul-shaped map-reduce kernels instead of n·m·q scattered atomic adds
  (the ~order-of-magnitude GMM/LSTM lever).

* **accs_to_hist** — a *data-dependent* update directly under one map
  becomes a ``reduce_by_index`` (generalised histogram), which the backend
  implements with specialised histogram code (one ``ufunc.at`` here,
  ``exec/vector.py:_hist_accumulate``; the multi-pass shared-memory
  histograms of [17] on a real GPU).  Of the benchmark programs it fires on
  the GMM gradient (ᾱ) and the BA vjp (w̄), both updates indexed by the
  map's own element.  Dense and sparse k-means never reach it: the min
  rule's hot lane (``core/rules_map.py``) updates the nearest centre two
  levels deep (``upd c̄[iy, j]``), and turning that into a row-valued
  histogram is not done.

The accumulator's consumption path may thread through nested ``withacc``
regions created for other adjoints; those are traversed transparently.
Rewrites are applied top-down and iterated to a fixed point with the
standard simplifier, so chains invariant to several dimensions hoist level
by level; the iteration stops at the first round that rewrote nothing
(``acc_opt_fun``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..ir.ast import (
    AtomExp,
    Atom,
    Body,
    Cast,
    Exp,
    Fun,
    Iota,
    Lambda,
    Map,
    Size,
    Stm,
    UpdAcc,
    Var,
    WithAcc,
)
from ..ir.builder import Builder, const
from ..ir.traversal import free_vars_exp, map_bodies, same_body, with_body, with_exp
from ..ir.types import I64, elem_type, is_integral, rank_of, with_rank
from ..obs import tracing as _obs_tracing
from ..util import fresh

__all__ = ["acc_opt_fun"]


# ---------------------------------------------------------------------------
# Chain analysis
# ---------------------------------------------------------------------------


@dataclass
class _MapStep:
    stm_idx: int
    node: Map
    acc_pos: int
    parent_body: Body  # the body containing this map statement
    stm: Optional[Stm] = None  # the binding statement (None at level 0)


@dataclass
class _WaccStep:
    stm_idx: int
    node: WithAcc
    res_pos: int  # position in the withacc lambda's results (secondary slot)
    stm: Optional[Stm] = None


@dataclass
class _UpdStep:
    stm_idx: int
    node: UpdAcc


Step = Union[_MapStep, _WaccStep, _UpdStep]


@dataclass
class _Chain:
    steps: List[Step]

    @property
    def map_steps(self) -> List[_MapStep]:
        return [s for s in self.steps if isinstance(s, _MapStep)]

    @property
    def upd(self) -> UpdAcc:
        last = self.steps[-1]
        assert isinstance(last, _UpdStep)
        return last.node


def _find_in_body(body: Body, accname: str) -> Optional[Tuple[List[Step], Var]]:
    """Follow ``accname``'s (linear) consumption in ``body``; returns the
    step path and the final accumulator variable bound in this body."""
    consumer: Optional[Tuple[int, Stm]] = None
    for i, stm in enumerate(body.stms):
        if accname in free_vars_exp(stm.exp):
            if consumer is not None:
                return None
            consumer = (i, stm)
    if consumer is None:
        return None
    i, stm = consumer
    e = stm.exp
    if isinstance(e, UpdAcc) and e.acc.name == accname:
        return [_UpdStep(i, e)], stm.pat[0]
    if isinstance(e, Map) and accname in {a.name for a in e.accs}:
        pos = [a.name for a in e.accs].index(accname)
        acc_param = e.lam.params[len(e.arrs) + pos]
        sub = _find_in_body(e.lam.body, acc_param.name)
        if sub is None:
            return None
        substeps, final = sub
        if e.lam.body.result[pos] != final:
            return None
        return [_MapStep(i, e, pos, body, stm)] + substeps, stm.pat[pos]
    if isinstance(e, WithAcc):
        # The accumulator is free inside the region's lambda.
        sub = _find_in_body(e.lam.body, accname)
        if sub is None:
            return None
        substeps, final = sub
        res = e.lam.body.result
        n = len(e.arrs)
        pos = None
        for k in range(n, len(res)):
            if res[k] == final:
                pos = k
                break
        if pos is None:
            return None
        return [_WaccStep(i, e, pos, stm)] + substeps, stm.pat[pos]
    return None


def _find_chain(m: Map, pos: int, parent_body: Body) -> Optional[_Chain]:
    acc_param = m.lam.params[len(m.arrs) + pos]
    sub = _find_in_body(m.lam.body, acc_param.name)
    if sub is None:
        return None
    substeps, final = sub
    if m.lam.body.result[pos] != final:
        return None
    return _Chain([_MapStep(-1, m, pos, parent_body)] + substeps)


def _dependents(body: Body, dep: Set[str]) -> Set[str]:
    out = set(dep)
    changed = True
    while changed:
        changed = False
        for stm in body.stms:
            uses = {v.name for v in free_vars_exp(stm.exp).values()}
            if uses & out:
                for v in stm.pat:
                    if v.name not in out:
                        out.add(v.name)
                        changed = True
    return out


def _bodies_on_path(chain: _Chain) -> List[Body]:
    """The lambda bodies traversed by the chain, outermost first."""
    out = []
    for s in chain.steps:
        if isinstance(s, _MapStep):
            out.append(s.node.lam.body)
        elif isinstance(s, _WaccStep):
            out.append(s.node.lam.body)
    return out


def _level0_taint(chain: _Chain) -> Set[str]:
    """Names (along the chain) data-dependent on the level-0 iteration."""
    m0 = chain.map_steps[0].node
    dep = {p.name for p in m0.lam.params[: len(m0.arrs)]}
    for body in _bodies_on_path(chain):
        dep = _dependents(body, dep)
        # Propagate into nested map element params whose arrays are tainted.
        for stm in body.stms:
            if isinstance(stm.exp, Map):
                for a, p in zip(stm.exp.arrs, stm.exp.lam.params):
                    if a.name in dep:
                        dep.add(p.name)
    return dep


def _iota_driven(step: _MapStep, chain: Optional[_Chain] = None) -> bool:
    """Does this level iterate over an ``iota`` (so the element value equals
    the iteration index)?  The defining statement may live in any enclosing
    body along the chain."""
    arr = step.node.arrs[0]
    candidates = [step.parent_body]
    if chain is not None:
        candidates.extend(_bodies_on_path(chain))
    for body in candidates:
        for stm in body.stms:
            if len(stm.pat) == 1 and stm.pat[0].name == arr.name:
                return isinstance(stm.exp, Iota)
    return False


def _rewritable(chain: _Chain) -> bool:
    maps = chain.map_steps
    upd = chain.upd
    taint = _level0_taint(chain)
    if any(isinstance(a, Var) and a.name in taint for a in upd.idx):
        return False
    # Index atoms must be free of the whole nest, or the first element param
    # of an iota-driven inner map level.
    bound: Set[str] = set()
    param_level: Dict[str, int] = {}
    for lvl, ms in enumerate(maps):
        m = ms.node
        for j, p in enumerate(m.lam.params):
            bound.add(p.name)
            if j == 0:
                param_level[p.name] = lvl
    for body in _bodies_on_path(chain):
        for s in body.stms:
            for v in s.pat:
                bound.add(v.name)
    for a in upd.idx:
        if not isinstance(a, Var) or a.name not in bound:
            continue
        lvl = param_level.get(a.name)
        if lvl is None or lvl == 0 or not is_integral(a.type):
            return False
        if not _iota_driven(maps[lvl], chain):
            return False
    return True


# ---------------------------------------------------------------------------
# Stripping the accumulator out of the chain
# ---------------------------------------------------------------------------


def _strip(chain: _Chain) -> Exp:
    """Rebuild the chain's level-0 map without the accumulator; the update
    value becomes a trailing (nested) result array."""
    upd = chain.upd
    et = elem_type(upd.v.type)

    def rebuild_step(si: int):
        """Returns (replacement Stm for this step's slot, extra Var), or for
        level 0 the rebuilt Map expression itself."""
        step = chain.steps[si]
        if isinstance(step, _UpdStep):
            extra = Var(fresh("contrib"), upd.v.type)
            return Stm((extra,), AtomExp(upd.v)), extra
        if isinstance(step, _MapStep):
            m = step.node
            pos = step.acc_pos
            acc_param = m.lam.params[len(m.arrs) + pos]
            inner_stm, inner_extra = rebuild_step(si + 1)
            stms = list(m.lam.body.stms)
            stms[chain.steps[si + 1].stm_idx] = inner_stm
            res = list(m.lam.body.result)
            res.pop(pos)
            res.append(inner_extra)
            new_params = tuple(p for p in m.lam.params if p.name != acc_param.name)
            new_accs = tuple(a for j, a in enumerate(m.accs) if j != pos)
            new_map = Map(
                Lambda(new_params, Body(tuple(stms), tuple(res))), m.arrs, new_accs
            )
            if si == 0:
                return new_map, None
            extra = Var(fresh("vs"), with_rank(et, rank_of(inner_extra.type) + 1))
            new_pat = list(step.stm.pat)
            new_pat.pop(pos)
            new_pat.append(extra)
            return Stm(tuple(new_pat), new_map), extra
        assert isinstance(step, _WaccStep)
        w = step.node
        inner_stm, inner_extra = rebuild_step(si + 1)
        stms = list(w.lam.body.stms)
        stms[chain.steps[si + 1].stm_idx] = inner_stm
        res = list(w.lam.body.result)
        res.pop(step.res_pos)
        res.append(inner_extra)
        new_w = WithAcc(w.arrs, Lambda(w.lam.params, Body(tuple(stms), tuple(res))))
        extra = Var(fresh("vs"), inner_extra.type)
        new_pat = list(step.stm.pat)
        new_pat.pop(step.res_pos)
        new_pat.append(extra)
        return Stm(tuple(new_pat), new_w), extra

    new_map, _ = rebuild_step(0)
    return new_map


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------


def _rewrite_reduce(stm: Stm, chain: _Chain, b: Builder) -> None:
    maps = chain.map_steps
    depth = len(maps)
    upd = chain.upd
    stripped = _strip(chain)

    pos0 = maps[0].acc_pos
    new_pat = list(stm.pat)
    acc_out = new_pat.pop(pos0)
    V = Var(fresh("V"), with_rank(elem_type(upd.v.type), rank_of(upd.v.type) + depth))
    new_pat.append(V)
    b.stms.append(Stm(tuple(new_pat), stripped))

    from ..core.adjoint import sum_leading_axis

    s = sum_leading_axis(b, V)

    acc_in = maps[0].node.accs[pos0]
    idx_map: Dict[str, Atom] = {}

    # Remaining index space: one axis of ``s`` per inner map level, in nest
    # order; if the update indexes exactly those axes in order, the whole
    # accumulation collapses to one whole-array add.
    inner_params = [
        maps[lvl].node.lam.params[0].name for lvl in range(1, depth)
    ]
    idx_names = [a.name if isinstance(a, Var) else None for a in upd.idx]
    if depth >= 1 and idx_names == inner_params:
        out_acc = b.upd_acc(acc_in, (), s, acc_out.name)
        b.stms.append(Stm((acc_out,), AtomExp(out_acc)))
        return

    def rebuild(level: int, sub, acc_v: Var, bb: Builder) -> Var:
        if level == depth:
            idx = tuple(
                idx_map.get(a.name, a) if isinstance(a, Var) else a for a in upd.idx
            )
            return bb.upd_acc(acc_v, idx, sub, acc_v.name)
        n = bb.emit1(Size(sub), "n")
        it = bb.emit1(Iota(n), "is")
        q = Var(fresh("q"), I64)
        accp = Var(fresh("acc"), acc_v.type)
        for p in maps[level].node.lam.params[: len(maps[level].node.arrs)]:
            idx_map[p.name] = q
        ib = Builder()
        row = ib.index(sub, (q,), "row")
        out = rebuild(level + 1, row, accp, ib)
        lam = Lambda((q, accp), ib.finish([out]))
        (res,) = bb.map(lam, [it], [acc_v], names=["acc"])
        return res

    if depth == 1:
        out_acc = b.upd_acc(acc_in, tuple(upd.idx), s, acc_out.name)
    else:
        out_acc = rebuild(1, s, acc_in, b)
    b.stms.append(Stm((acc_out,), AtomExp(out_acc)))


def _rewrite_hist(stm: Stm, chain: _Chain, b: Builder) -> bool:
    maps = chain.map_steps
    if len(maps) != 1 or len(chain.steps) != 2:
        return False
    e = maps[0].node
    pos = maps[0].acc_pos
    upd = chain.upd
    if len(upd.idx) != 1:
        return False
    acc_t = e.accs[pos].type
    if rank_of(upd.v.type) != acc_t.rank - 1:
        return False
    taint = _level0_taint(chain)
    iv = upd.idx[0]
    if not (isinstance(iv, Var) and iv.name in taint):
        return False
    lam = e.lam
    acc_param = lam.params[len(e.arrs) + pos]
    ivar = Var(fresh("hidx"), I64)
    vvar = Var(fresh("hval"), upd.v.type)
    stms: List[Stm] = []
    upd_idx = chain.steps[1].stm_idx
    for i, s in enumerate(lam.body.stms):
        if i == upd_idx:
            if elem_type(iv.type) is not I64:
                stms.append(Stm((ivar,), Cast(iv, I64)))
            else:
                stms.append(Stm((ivar,), AtomExp(iv)))
            stms.append(Stm((vvar,), AtomExp(upd.v)))
            continue
        stms.append(s)
    res = list(lam.body.result)
    res.pop(pos)
    res.extend([ivar, vvar])
    new_params = tuple(p for p in lam.params if p.name != acc_param.name)
    new_accs = tuple(a for j, a in enumerate(e.accs) if j != pos)
    stripped = Map(Lambda(new_params, Body(tuple(stms), tuple(res))), e.arrs, new_accs)

    new_pat = list(stm.pat)
    acc_out = new_pat.pop(pos)
    Ivar = Var(fresh("His"), with_rank(I64, 1))
    Vvar = Var(fresh("Hvs"), with_rank(elem_type(upd.v.type), rank_of(upd.v.type) + 1))
    new_pat.extend([Ivar, Vvar])
    b.stms.append(Stm(tuple(new_pat), stripped))

    acc_in = e.accs[pos]
    mext = b.emit1(Size(acc_in), "m")
    et = elem_type(upd.v.type)
    vrank = rank_of(upd.v.type)
    a1 = Var(fresh("a"), with_rank(et, vrank))
    a2 = Var(fresh("b"), with_rank(et, vrank))
    ab = Builder()
    ssum = ab.add(a1, a2, "s")
    addl = Lambda((a1, a2), ab.finish([ssum]))
    if vrank == 0:
        ne: Atom = const(0.0, et)
    else:
        r0 = b.index(Vvar, (const(0, I64),), "r0")
        ne = b.zeros_like(r0)
    (h,) = b.reduce_by_index(mext, addl, [ne], Ivar, [Vvar], names=["h"])
    out_acc = b.upd_acc(acc_in, (), h, acc_out.name)
    b.stms.append(Stm((acc_out,), AtomExp(out_acc)))
    return True


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _try_rewrites(stm: Stm, e: Exp, parent_body: Body, b: Builder, fired: List[str]) -> bool:
    """If ``e`` is a map with a rewritable accumulator, emit the rewritten
    ``stm`` into ``b`` and record which rewrite fired."""
    if not (isinstance(e, Map) and e.accs):
        return False
    for pos in range(len(e.accs)):
        chain = _find_chain(e, pos, parent_body)
        if chain is None:
            continue
        if _rewritable(chain):
            # Identity one-level chains (upd acc[q] += s[q] over all q) are
            # already optimal; skip to avoid rewriting our own output.
            if _is_identity_chain(chain):
                continue
            _rewrite_reduce(stm, chain, b)
            fired.append("reduce")
            return True
        if _rewrite_hist(stm, chain, b):
            fired.append("hist")
            return True
    return False


def _is_identity_chain(chain: _Chain) -> bool:
    """A one-level iota-driven chain whose update index is exactly the map
    parameter — the residual form our own rebuilds produce."""
    maps = chain.map_steps
    if len(maps) != 1 or len(chain.steps) != 2:
        return False
    m = maps[0].node
    if len(m.arrs) != 1 or not _iota_driven(maps[0], chain):
        return False
    upd = chain.upd
    p0 = m.lam.params[0]
    return (
        len(upd.idx) == 1
        and isinstance(upd.idx[0], Var)
        and upd.idx[0].name == p0.name
    )


def _opt_body(body: Body, fired: List[str]) -> Body:
    """One sweep; ``fired`` gains an entry per rewrite, and a body without
    one (at any depth) comes back as the object it was."""
    b = Builder()
    for stm in body.stms:
        # Top-down: hoisting at the outermost invariant level sums over the
        # biggest dimension; later rounds revisit what remains inside.  A
        # map whose nest was rewritten below gets a second look right away.
        e = stm.exp
        if _try_rewrites(stm, e, body, b, fired):
            continue
        inner = map_bodies(e, lambda bd: _opt_body(bd, fired))
        if inner is not e and _try_rewrites(stm, inner, body, b, fired):
            continue
        b.stms.append(with_exp(stm, inner))
    return same_body(body, b.stms, body.result)


def acc_opt_fun(fun: Fun, rounds: int = 6) -> Fun:
    """Apply the accumulator rewrites to a fixed point, simplifying between
    rounds so newly-exposed patterns fire.

    Only the AD-safe passes run between rounds: acc_opt output may be
    differentiated again (``hessian_diag``'s jvp-of-vjp), and the fusion
    pass's redomap shapes would break both the chain recognition here and
    the AD rules downstream.  Callers that only execute the result fuse it
    at ``Compiled`` construction instead.

    Termination: a round is a sweep plus the simplifier.  A sweep that
    rewrote nothing hands back the ``Fun`` it was given, and if that is
    already the simplifier's output ``optimize_fun`` answers from its memo
    with the same object — at which point nothing can change any more, so
    the loop ends after one sweep more than the rounds that rewrote.
    """
    from .pipeline import AD_SAFE_PASSES, optimize_fun

    fired: List[str] = []
    n = 0
    with _obs_tracing.span("acc_opt", cat="compile", fun=fun.name) as sp:
        for n in range(1, rounds + 1):
            out = optimize_fun(
                with_body(fun, _opt_body(fun.body, fired)), passes=AD_SAFE_PASSES
            )
            if out is fun:
                break
            fun = out
        sp.note(rounds=n, rewrites=len(fired))
    return fun
