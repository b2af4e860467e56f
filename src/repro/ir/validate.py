"""Structural validation beyond typechecking: the accumulator discipline.

The paper's §5.4 invariants for accumulators, checked as a region/escape
analysis over the SSA program:

* every ``withacc`` opens a fresh *region*; the accumulators handed to its
  lambda belong to that region, and while the region is live the underlying
  arrays may not be read (the accumulator is the only view);
* accumulators may not *escape* their region: the lambda's leading results
  must be the region's own accumulators, and any accumulator appearing among
  the secondary results must belong to a still-live *enclosing* region
  (inherited pass-through — how nested ``withacc``s thread an outer
  accumulator straight through);
* accumulators are consumed *linearly*: within one scope each accumulator
  value is used at most once (``UpdAcc``, threading through ``Map``/``Loop``/
  ``If``, or being returned all count as the single use);
* loop-carried accumulators thread through regions: a ``Loop``/``WhileLoop``
  accumulator parameter inherits the region of its init and the body must
  return an accumulator of the same region in that position;
* accumulators never cross the function boundary (no acc params/results) and
  only accumulator-producing expressions (``withacc``/``upd``/threading) may
  bind one.

``validate_fun`` raises ``IRError`` on the first violation.  It is invoked on
the trace and post-AD paths and by the pass-boundary verifier
(``ir/verify.py``).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..util import IRError
from .ast import (
    AtomExp,
    Body,
    Exp,
    Fun,
    If,
    Lambda,
    Loop,
    Map,
    Size,
    Stm,
    UpdAcc,
    Var,
    WhileLoop,
    WithAcc,
)
from .traversal import exp_atoms, exp_lambdas
from .types import AccType

__all__ = ["validate_fun"]


class _Regions:
    """Region state threaded through one validation walk."""

    __slots__ = ("region", "active", "frozen", "next_rid")

    def __init__(self) -> None:
        #: accumulator variable name -> id of its originating withacc region
        self.region: Dict[str, int] = {}
        #: region ids whose withacc is still open
        self.active: Set[int] = set()
        #: underlying array name -> region id freezing it against reads
        self.frozen: Dict[str, int] = {}
        self.next_rid = 0


def _use_acc(v: Var, used: Dict[str, int], st: _Regions) -> None:
    used[v.name] = used.get(v.name, 0) + 1
    if used[v.name] > 1:
        raise IRError(
            f"accumulator {v.name} used more than once (non-linear use)"
        )
    rid = st.region.get(v.name)
    if rid is not None and rid not in st.active:
        raise IRError(f"accumulator {v.name} escapes its withacc region")


def _region_of(a, st: _Regions, ctx: str) -> Optional[int]:
    """The region of an accumulator-typed atom; raises if it has none."""
    if not (isinstance(a, Var) and isinstance(a.type, AccType)):
        return None
    rid = st.region.get(a.name)
    if rid is None:
        raise IRError(f"accumulator {a.name} has no originating withacc ({ctx})")
    return rid


def _bind_acc(v: Var, rid: Optional[int], st: _Regions, ctx: str) -> None:
    if not isinstance(v.type, AccType):
        return
    if rid is None:
        raise IRError(f"{ctx} cannot bind accumulator {v.name}")
    st.region[v.name] = rid


def _walk_body(body: Body, used: Dict[str, int], st: _Regions) -> None:
    for stm in body.stms:
        _walk_stm(stm, used, st)
    for a in body.result:
        if isinstance(a, Var):
            if isinstance(a.type, AccType):
                _use_acc(a, used, st)
            elif a.name in st.frozen:
                raise IRError(
                    f"array {a.name} returned while an accumulator view "
                    f"of it is live"
                )


def _read_atoms(e: Exp, used: Dict[str, int], st: _Regions) -> None:
    if isinstance(e, Size):
        # A length observation is not a consumption: linearity governs the
        # accumulator's *write view*, and the extent of an accumulator is
        # its array's, fixed when the region opens — reading it reads no
        # element and orders no update.  (Likewise harmless on a frozen
        # array.)
        a = e.arr
        if isinstance(a.type, AccType):
            rid = st.region.get(a.name)
            if rid is not None and rid not in st.active:
                raise IRError(
                    f"accumulator {a.name} escapes its withacc region"
                )
        return
    for a in exp_atoms(e):
        if isinstance(a, Var):
            if isinstance(a.type, AccType):
                _use_acc(a, used, st)
            elif a.name in st.frozen:
                raise IRError(
                    f"array {a.name} read while an accumulator view of it "
                    f"is live (inside its withacc region)"
                )


def _walk_plain_lambda(lam: Lambda, used: Dict[str, int], st: _Regions) -> None:
    inner = dict(used)
    for p in lam.params:
        if isinstance(p.type, AccType):
            inner.setdefault(p.name, 0)
    _walk_body(lam.body, inner, st)


def _walk_stm(stm: Stm, used: Dict[str, int], st: _Regions) -> None:
    e = stm.exp
    if isinstance(e, WithAcc):
        _read_atoms(e, used, st)
        _walk_withacc(stm, e, used, st)
        return
    _read_atoms(e, used, st)

    if isinstance(e, UpdAcc):
        rid = _region_of(e.acc, st, "upd")
        for v in stm.pat:
            _bind_acc(v, rid, st, "upd")
    elif isinstance(e, AtomExp):
        rid = (
            _region_of(e.x, st, "copy")
            if isinstance(e.x, Var) and isinstance(e.x.type, AccType)
            else None
        )
        for v in stm.pat:
            _bind_acc(v, rid, st, "copy")
    elif isinstance(e, Map):
        _walk_map(stm, e, used, st)
    elif isinstance(e, Loop):
        _walk_loop_like(stm, e.params, e.inits, e.body, used, st, extra=(e.ivar,))
    elif isinstance(e, WhileLoop):
        rids = _walk_loop_like(stm, e.params, e.inits, e.body, used, st)
        # The cond lambda shares the loop's parameters (same binders).
        inner = dict(used)
        for p in e.cond.params:
            if isinstance(p.type, AccType):
                st.region.setdefault(p.name, rids.get(p.name, -1))
                inner.setdefault(p.name, 0)
        _walk_body(e.cond.body, inner, st)
    elif isinstance(e, If):
        then_r = _walk_branch(e.then, used, st)
        els_r = _walk_branch(e.els, used, st)
        for i, v in enumerate(stm.pat):
            if isinstance(v.type, AccType):
                rt = then_r[i] if i < len(then_r) else None
                re_ = els_r[i] if i < len(els_r) else None
                if rt is None or rt != re_:
                    raise IRError(
                        f"if branches return accumulators of different "
                        f"regions in position {i}"
                    )
                _bind_acc(v, rt, st, "if")
    else:
        for lam in exp_lambdas(e):
            _walk_plain_lambda(lam, used, st)
        for v in stm.pat:
            if isinstance(v.type, AccType):
                raise IRError(
                    f"{type(e).__name__} cannot produce accumulator {v.name}"
                )


def _walk_branch(body: Body, used: Dict[str, int], st: _Regions) -> List[Optional[int]]:
    # Each branch may consume the same accumulators (only one runs), so each
    # walks a private copy of the linear-use counts.
    _walk_body(body, dict(used), st)
    return [
        st.region.get(a.name)
        if isinstance(a, Var) and isinstance(a.type, AccType)
        else None
        for a in body.result
    ]


def _walk_map(stm: Stm, e: Map, used: Dict[str, int], st: _Regions) -> None:
    n_acc = len(e.accs)
    rids = [_region_of(a, st, "map acc") for a in e.accs]
    lam = e.lam
    inner = dict(used)
    # Lambda params are (elem..., acc...): the trailing n_acc params inherit
    # the regions of the threaded accumulators (§5.4 implicit conversion).
    acc_params = lam.params[len(lam.params) - n_acc :] if n_acc else ()
    for p, rid in zip(acc_params, rids):
        if isinstance(p.type, AccType) and rid is not None:
            st.region[p.name] = rid
        inner.setdefault(p.name, 0)
    _walk_body(lam.body, inner, st)
    # Leading lambda results re-emerge as the threaded accumulators and must
    # stay in their regions.
    for i, rid in enumerate(rids):
        if i < len(lam.body.result):
            r = lam.body.result[i]
            if _region_of(r, st, "map result") != rid:
                raise IRError(
                    f"map lambda result {i} does not return the threaded "
                    f"accumulator's region"
                )
    for v, rid in zip(stm.pat[:n_acc], rids):
        _bind_acc(v, rid, st, "map")
    for v in stm.pat[n_acc:]:
        if isinstance(v.type, AccType):
            raise IRError(
                f"map binds accumulator {v.name} outside its threaded "
                f"accumulator results"
            )


def _walk_loop_like(
    stm: Stm,
    params,
    inits,
    body: Body,
    used: Dict[str, int],
    st: _Regions,
    extra=(),
) -> Dict[str, int]:
    """Loop/while: acc params inherit their init's region; the body must
    return an accumulator of the same region in that position (linear
    threading of loop-carried accumulators)."""
    rids: Dict[str, int] = {}
    for i, (p, init) in enumerate(zip(params, inits)):
        if isinstance(p.type, AccType):
            rid = _region_of(init, st, "loop init")
            if rid is None:
                raise IRError(
                    f"loop accumulator parameter {p.name} must be "
                    f"initialised from an accumulator"
                )
            st.region[p.name] = rid
            rids[p.name] = rid
    inner = dict(used)
    for p in params:
        if isinstance(p.type, AccType):
            inner.setdefault(p.name, 0)
    _walk_body(body, inner, st)
    for i, p in enumerate(params):
        if isinstance(p.type, AccType) and i < len(body.result):
            r = body.result[i]
            if _region_of(r, st, "loop result") != rids.get(p.name):
                raise IRError(
                    f"loop-carried accumulator {p.name} is not threaded "
                    f"linearly (body result {i} left its region)"
                )
    for i, v in enumerate(stm.pat):
        if isinstance(v.type, AccType):
            if i >= len(params) or params[i].name not in rids:
                raise IRError(
                    f"loop binds accumulator {v.name} in a non-accumulator "
                    f"position"
                )
            _bind_acc(v, rids[params[i].name], st, "loop")
    return rids


def _walk_withacc(stm: Stm, e: WithAcc, used: Dict[str, int], st: _Regions) -> None:
    rid = st.next_rid
    st.next_rid += 1
    st.active.add(rid)
    n = len(e.arrs)
    for a in e.arrs:
        if a.name in st.frozen:
            raise IRError(
                f"array {a.name} already has a live accumulator "
                f"(nested withacc over the same array)"
            )
        st.frozen[a.name] = rid
    lam = e.lam
    for p in lam.params:
        if isinstance(p.type, AccType):
            st.region[p.name] = rid
    inner = dict(used)
    for p in lam.params:
        inner.setdefault(p.name, 0)
    _walk_body(lam.body, inner, st)
    # The withacc lambda runs exactly once, so consumption of *outer*
    # accumulators inside it counts in the enclosing scope too (that is how
    # an inherited accumulator threads through a nested region).
    for k in list(used):
        if inner.get(k, 0) > used[k]:
            used[k] = inner[k]
    # Leading results: the region's own accumulators, returned to die here.
    for i in range(min(n, len(lam.body.result))):
        r = lam.body.result[i]
        if _region_of(r, st, "withacc result") != rid:
            raise IRError(
                f"withacc lambda result {i} must return this region's own "
                f"accumulator"
            )
    # Secondary results: accumulators may only pass through if they belong
    # to a still-live enclosing region — the region's own accs escaping here
    # is exactly the §5.4 escape violation.
    sec_rids: List[Optional[int]] = []
    for r in lam.body.result[n:]:
        if isinstance(r, Var) and isinstance(r.type, AccType):
            r_rid = _region_of(r, st, "withacc secondary result")
            if r_rid == rid:
                raise IRError(
                    f"accumulator {r.name} escapes its withacc region via "
                    f"a secondary result"
                )
            if r_rid not in st.active:
                raise IRError(
                    f"accumulator {r.name} escapes its withacc region "
                    f"(region already closed)"
                )
            sec_rids.append(r_rid)
        else:
            sec_rids.append(None)
    st.active.discard(rid)
    for a in e.arrs:
        st.frozen.pop(a.name, None)
    for v in stm.pat[:n]:
        if isinstance(v.type, AccType):
            raise IRError(
                f"withacc result {v.name} must be the updated array, not an "
                f"accumulator"
            )
    for v, r_rid in zip(stm.pat[n:], sec_rids):
        if isinstance(v.type, AccType):
            _bind_acc(v, r_rid, st, "withacc secondary")


def validate_fun(fun: Fun) -> None:
    """Raise IRError on accumulator-discipline violations (paper §5.4)."""
    for p in fun.params:
        if isinstance(p.type, AccType):
            raise IRError("function parameters may not be accumulators")
    for r in fun.body.result:
        if isinstance(r.type, AccType):
            raise IRError("function results may not be accumulators")
    _walk_body(fun.body, {}, _Regions())
