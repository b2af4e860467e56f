"""Plan backend — closure emission + runtime over the shared plan IR.

For the paper's workloads a differentiated program is evaluated thousands of
times on same-shaped inputs, so everything that can be decided once is
decided once, and the per-call work is the NumPy calls themselves.  The plan
family is layered:

* ``exec/lower.py`` turns an optimised ``Fun`` into an explicit linear,
  shape-generic **plan IR** — slot allocation, fused scalar runs, SOAC
  fast-path selection and the memory plan all decided there, once, for every
  emitter;
* this module **emits** that IR as a flat sequence of Python closures, one
  per instruction, over a slot-indexed register file (the interpreter
  emitter), and hosts the runtime (``_Engine``) plus the plan cache shared
  by all plan-family emitters;
* ``exec/codegen.py`` emits the same IR as the source of a single Python
  function (``backend="codegen"``) — no per-instruction dispatch at all.

Plans execute on the ``BV`` batched-value representation, masking discipline
and helper machinery of ``exec/vector.py``, so SIMT-style divergence,
accumulators and lane-varying loops behave the same on both emitters (the
test suite runs every program on ``ref``, ``plan`` and ``codegen`` and
asserts agreement).

Caching
-------

``plan_for(fun, args, batched=..., emitter=...)`` memoises plans in one
module-level, lock-guarded LRU keyed by ``(ir_hash(fun), emitter, batched
flags, rank/dtype signature)``.  The key leads with the alpha-invariant
content hash (``ir.analysis.ir_hash``), so alpha-equivalent ``Fun`` bodies
— retraced derivatives, re-optimised copies — share one lowering instead
of one per object identity.  Concrete extents are not part of the key:
plans are shape-generic, so one lowering serves a whole problem-size sweep
(GMM D0→D6, BA camera counts) instead of re-lowering per shape and
churning the LRU.  The emitter dimension separates closure plans from
codegen code objects.

Repeat calls on same-rank arguments skip tracing, optimisation, and
lowering entirely; ``PLAN_STATS`` counts hits/misses/evictions and the
fused-statement total, and ``EMITTER_STATS`` breaks plan construction down
per emitter, so callers can assert cache behaviour.  The LRU is bounded by
``REPRO_PLAN_CACHE_SIZE`` entries (default 512, ``0`` unbounded);
``clear_plan_cache`` drops everything eagerly (plans are derived purely from
immutable ``Fun`` values, so entries never go stale).  All cache and counter
state is mutated under one re-entrant lock — users may call one
``Compiled`` from several of their own threads.

Batched seeds
-------------

``Plan.run_batched(args, batched, batch_size)`` evaluates the plan with the
flagged arguments carrying one extra leading batch axis — the batched
multi-seed driver used by ``jacobian``: all n/m basis vectors evaluate in a
single pass, stacked on the leading axis, instead of n/m separate runs.
"""
from __future__ import annotations

import os
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import ir_hash
from ..ir.ast import Fun
from ..ir.types import np_dtype
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..util import BoundedLRU, ExecError, env_capacity
from . import values as _values
from .lower import IntRef, PlanIR, Ref, lower_fun, plan_schedules
from .prims import _BINOPS, _UNOPS, apply_binop, apply_unop, cast_to
from .values import coerce_arg
from .vector import (
    _STATS_LOCK,
    _UFUNC,
    INDEX_STATS,
    MEM_STATS,
    AccBV,
    BV,
    _align,
    _batch_args,
    _combine_mask,
    _elem,
    _elem_into,
    _expand,
    _gather,
    _grids,
    _index,
    _neutral_of,
    _owned,
    _uniform_int,
    _upd_acc,
    _where,
)

__all__ = [
    "Plan",
    "plan_for",
    "register_emitter",
    "run_fun_plan",
    "run_fun_plan_batched",
    "PLAN_STATS",
    "EMITTER_STATS",
    "plan_cache_stats",
    "clear_plan_cache",
    "reset_plan_cache_stats",
    "profile_enabled",
]

_span = _obs_tracing.span


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


class _Engine:
    """Mutable per-call state: register file, batch stack, predication mask."""

    __slots__ = ("regs", "bstack", "mask")

    def __init__(self, nslots: int) -> None:
        self.regs: List[object] = [None] * nslots
        self.bstack: List[int] = []
        self.mask: Optional[BV] = None


def _run_body(eng: _Engine, code) -> Tuple[object, ...]:
    instrs, res = code
    for ins in instrs:
        ins(eng)
    regs = eng.regs
    return tuple(r(regs) for r in res)


# The masking/elementwise/index/SOAC-entry primitives (_combine_mask, _elem,
# _where, _gather, _index, _upd_acc, _uniform_int, _batch_args) are imported
# from exec/vector.py — one shared copy is what guarantees the backends
# cannot drift semantically.


def _map_args_rt(eng: _Engine, readers) -> Tuple[List[BV], int]:
    regs = eng.regs
    return _batch_args(eng, [rd(regs) for rd in readers])


# ---------------------------------------------------------------------------
# Closure emission over the plan IR
# ---------------------------------------------------------------------------


def _reader(ref: Ref) -> Callable:
    """A ``regs -> BV`` accessor for a lowered atom."""
    if ref.slot is not None:
        i, name = ref.slot, ref.name

        def rd(regs, _i=i, _n=name):
            v = regs[_i]
            if v is None:
                raise ExecError(f"unbound variable {_n}")
            return v

        return rd
    bv = ref.bv
    return lambda regs, _bv=bv: _bv


def _int_reader(iref: IntRef) -> Callable:
    """Accessor for a lane-uniform integer (iota/replicate/hist extents):
    a literal, or a register read validated for lane-uniformity per call."""
    if iref.const is not None:
        n = iref.const
        return lambda eng, _n=n: _n
    rd = _reader(iref.ref)
    return lambda eng, _rd=rd, _w=iref.what: _uniform_int(_rd(eng.regs), _w)


def _run_operand(x) -> Callable:
    """A ``(regs, loc) -> BV`` accessor: run-local values (``int`` indices)
    read from the closure-local list, everything else from the register
    file."""
    if isinstance(x, int):
        return lambda regs, loc, _i=x: loc[_i]
    base = _reader(x)
    return lambda regs, loc, _b=base: _b(regs)


def _emit_run_op(o) -> Callable:
    fn = _emit_run_fn(o)
    if not o.release:
        return fn
    dead = o.release

    def releasing(regs, loc, _fn=fn, _dead=dead):
        v = _fn(regs, loc)
        for i in _dead:
            loc[i] = None
        return v

    return releasing


def _emit_run_fn(o) -> Callable:
    kind = o.kind
    if kind == "atom":
        return _run_operand(o.xs[0])
    if o.donate:
        # unop/binop on an out=-capable ufunc (``INPLACE_OPS``), some operand
        # a dead run-local temporary: compute into it when that is safe.
        rx = _run_operand(o.xs[0])
        if kind == "unop":
            return lambda regs, loc, _rx=rx, _uf=_UNOPS[o.op], _don=o.donate: (
                _elem_into(_uf, _don, _rx(regs, loc))
            )
        ry = _run_operand(o.xs[1])
        return lambda regs, loc, _rx=rx, _ry=ry, _uf=_BINOPS[o.op], _don=o.donate: (
            _elem_into(_uf, _don, _rx(regs, loc), _ry(regs, loc))
        )
    if kind == "unop":
        rx = _run_operand(o.xs[0])
        op = o.op
        return lambda regs, loc, _rx=rx, _op=op: _elem(
            lambda d: apply_unop(_op, d), _rx(regs, loc)
        )
    if kind == "binop":
        rx, ry = _run_operand(o.xs[0]), _run_operand(o.xs[1])
        op = o.op
        return lambda regs, loc, _rx=rx, _ry=ry, _op=op: _elem(
            lambda a, b: apply_binop(_op, a, b), _rx(regs, loc), _ry(regs, loc)
        )
    if kind == "select":
        rc, rt, rf = (_run_operand(x) for x in o.xs)
        return lambda regs, loc, _rc=rc, _rt=rt, _rf=rf: _where(
            _rc(regs, loc), _rt(regs, loc), _rf(regs, loc)
        )
    if kind == "cast":
        rx = _run_operand(o.xs[0])
        dt = o.dtype

        def cast_fn(regs, loc, _rx=rx, _dt=dt):
            v = _rx(regs, loc)
            return BV(cast_to(v.data, _dt), v.bdims)

        return cast_fn
    if kind == "index":
        ra = _run_operand(o.xs[0])
        ris = tuple(_run_operand(x) for x in o.xs[1:])
        if o.affine is None:
            return lambda regs, loc, _ra=ra, _ris=ris: _gather(
                _ra(regs, loc), [r(regs, loc) for r in _ris]
            )
        return lambda regs, loc, _ra=ra, _ris=ris, _aff=o.affine: _index(
            _ra(regs, loc), [r(regs, loc) for r in _ris], _aff
        )
    if kind == "zeroslike":
        rx = _run_operand(o.xs[0])

        def zl_fn(regs, loc, _rx=rx):
            v = _rx(regs, loc)
            return BV(np.zeros_like(np.asarray(v.data)), v.bdims)

        return zl_fn
    raise ExecError(f"plan emit: unexpected run op {kind!r}")


def _assign_single(fn: Callable, e) -> Callable:
    """The instruction closure of single-output ``e``: bind ``fn``'s value,
    then clear the slots ``e`` releases (no loop emitted when there are
    none — dispatch-bound plans must not pay for the memory plan)."""
    s0 = e.out[0]
    if not e.release:
        def ins(eng, _fn=fn, _s=s0):
            eng.regs[_s] = _fn(eng)

        return ins
    dead = tuple(s for s, _ in e.release)

    def ins_rel(eng, _fn=fn, _s=s0, _dead=dead):
        regs = eng.regs
        regs[_s] = _fn(eng)
        for s in _dead:
            regs[s] = None

    return ins_rel


def _assign_multi(fn: Callable, e) -> Callable:
    slots = tuple(s for s, _ in e.outs)
    if not e.release:
        def ins(eng, _fn=fn, _slots=slots):
            vals = _fn(eng)
            regs = eng.regs
            for s, v in zip(_slots, vals):
                regs[s] = v

        return ins
    dead = tuple(s for s, _ in e.release)

    def ins_rel(eng, _fn=fn, _slots=slots, _dead=dead):
        vals = _fn(eng)
        regs = eng.regs
        for s, v in zip(_slots, vals):
            regs[s] = v
        for s in _dead:
            regs[s] = None

    return ins_rel


class _ClosureEmitter:
    """The interpreter emitter: one Python closure per plan-IR instruction.

    Every compile-time decision already lives in the IR — this class only
    binds readers/writers and transliterates each instruction into the
    closure that executes it (the NumPy call sequences are shared verbatim
    with the codegen emitter, which is what keeps the two bitwise equal)."""

    # -- bodies ---------------------------------------------------------------

    def emit_body(self, pbody) -> tuple:
        instrs = tuple(self._emit_ins(i) for i in pbody.instrs)
        res = tuple(_reader(r) for r in pbody.result)
        return instrs, res

    def _emit_ins(self, ins) -> Callable:
        return getattr(self, "_emit_" + ins.kind)(ins)

    # -- fused scalar runs ----------------------------------------------------

    def _emit_run(self, ins) -> Callable:
        ops = tuple(_emit_run_op(o) for o in ins.ops)
        dead = tuple(s for s, _ in ins.release)
        if len(ops) == 1 and not dead:
            # A standalone scalar statement: one export, no locals.
            (_, s0, _n) = ins.exports[0]
            op = ops[0]

            def one(eng, _op=op, _s=s0):
                eng.regs[_s] = _op(eng.regs, ())

            return one
        exports = tuple((li, s) for li, s, _n in ins.exports)
        k = len(ops)

        def run(eng, _ops=ops, _exports=exports, _k=k, _dead=dead):
            regs = eng.regs
            loc = [None] * _k
            for x, op in enumerate(_ops):
                loc[x] = op(regs, loc)
            for li, s in _exports:
                regs[s] = loc[li]
            for s in _dead:
                regs[s] = None

        return run

    # -- simple expressions ---------------------------------------------------

    def _emit_update(self, e) -> Callable:
        ra = _reader(e.arr)
        ris = tuple(_reader(i) for i in e.idx)
        rv = _reader(e.val)

        def fn(eng, _ra=ra, _ris=ris, _rv=rv):
            regs = eng.regs
            arr = _ra(regs)
            idxs = [r(regs) for r in _ris]
            val = _rv(regs)
            k = max([arr.bdims, val.bdims] + [i.bdims for i in idxs])
            if eng.mask is not None:
                k = max(k, eng.mask.bdims)
            bshape = tuple(eng.bstack[:k])
            ad = _expand(arr, k)
            ad = np.broadcast_to(ad, bshape + ad.shape[k:]).copy()
            sel = _grids(bshape) + tuple(
                np.clip(_expand(i, k), 0, max(ad.shape[k + a] - 1, 0))
                for a, i in enumerate(idxs)
            )
            vd = _expand(val, k)
            if eng.mask is None:
                ad[sel] = vd
            else:
                old = ad[sel]
                md = _expand(eng.mask, k)
                md = md.reshape(md.shape + (1,) * (old.ndim - md.ndim))
                ad[sel] = np.where(md, vd, old)
            return BV(ad, k)

        return _assign_single(fn, e)

    def _emit_iota(self, e) -> Callable:
        rn = _int_reader(e.n)
        dt = e.dtype

        def fn(eng, _rn=rn, _dt=dt):
            return BV(np.arange(_rn(eng), dtype=_dt), 0)

        return _assign_single(fn, e)

    def _emit_replicate(self, e) -> Callable:
        rn = _int_reader(e.n)
        rv = _reader(e.v)

        def fn(eng, _rn=rn, _rv=rv):
            n = _rn(eng)
            v = _rv(eng.regs)
            d = np.asarray(v.data)
            d2 = np.expand_dims(d, axis=v.bdims)
            shape = d.shape[: v.bdims] + (n,) + d.shape[v.bdims:]
            return BV(np.broadcast_to(d2, shape).copy(), v.bdims)

        return _assign_single(fn, e)

    def _emit_scratch(self, e) -> Callable:
        rn = _reader(e.n)
        rx = _reader(e.x)

        def fn(eng, _rn=rn, _rx=rx):
            nd = np.asarray(_rn(eng.regs).data)
            n = 0 if nd.size == 0 else int(nd.max())
            v = _rx(eng.regs)
            bshape = tuple(eng.bstack)
            dt = np.asarray(v.data).dtype
            return BV(np.zeros(bshape + (n,) + v.pshape(), dtype=dt), len(bshape))

        return _assign_single(fn, e)

    def _emit_size(self, e) -> Callable:
        rd = _reader(e.arr)
        dim = e.dim

        def fn(eng, _rd=rd, _dim=dim):
            v = _rd(eng.regs)
            if isinstance(v, AccBV):
                shape = v.data.shape[v.bdims:]
                return BV(np.asarray(np.int64(shape[_dim])), 0)
            return BV(np.asarray(np.int64(v.pshape()[_dim])), 0)

        return _assign_single(fn, e)

    def _emit_reverse(self, e) -> Callable:
        rd = _reader(e.x)

        def fn(eng, _rd=rd):
            v = _rd(eng.regs)
            return BV(np.flip(np.asarray(v.data), axis=v.bdims).copy(), v.bdims)

        return _assign_single(fn, e)

    def _emit_concat(self, e) -> Callable:
        rx = _reader(e.x)
        ry = _reader(e.y)

        def fn(eng, _rx=rx, _ry=ry):
            regs = eng.regs
            (dx, dy), k, _ = _align([_rx(regs), _ry(regs)])
            bx = np.broadcast_shapes(dx.shape[:k], dy.shape[:k])
            dx = np.broadcast_to(dx, bx + dx.shape[k:])
            dy = np.broadcast_to(dy, bx + dy.shape[k:])
            return BV(np.concatenate([dx, dy], axis=k), k)

        return _assign_single(fn, e)

    # -- SOACs ----------------------------------------------------------------

    def _emit_map(self, e) -> Callable:
        arr_rds = tuple(_reader(a) for a in e.arrs)
        acc_rds = tuple(_reader(a) for a in e.accs)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)
        n_acc = e.n_acc
        chunk = getattr(e, "chunk", 0)

        if chunk > 1 and not e.accs and n_acc == 0:
            # ``sequential(chunk)`` schedule: run the (acc-free) map in
            # in-order chunks and concatenate.  ``_batch_args`` guarantees
            # every param's data has extent exactly ``n`` on the batch axis,
            # so slicing at axis 0 is exact, and elementwise NumPy ops on
            # slices are bitwise-equal to the bulk evaluation.  The chunked
            # path only fires at top level (no batch axis, no mask) — the
            # same plan may also serve batched runs, which fall back to the
            # bulk path below.
            def fn_chunked(eng, _arrs=arr_rds, _ps=pslots, _code=code,
                           _chunk=chunk):
                d = len(eng.bstack)
                params, n = _map_args_rt(eng, _arrs)
                regs = eng.regs

                def one(vals, m):
                    for s, v in zip(_ps, vals):
                        regs[s] = v
                    eng.bstack.append(m)
                    try:
                        res = _run_body(eng, _code)
                    finally:
                        eng.bstack.pop()
                    out = []
                    for r in res:
                        rd = _expand(r, d + 1)
                        if rd.shape[d] != m:
                            rd = np.broadcast_to(
                                rd, rd.shape[:d] + (m,) + rd.shape[d + 1:]
                            )
                        out.append(rd)
                    return out

                if d == 0 and eng.mask is None and n > _chunk:
                    parts = [
                        one([BV(p.data[lo:lo + _chunk], p.bdims)
                             for p in params],
                            min(_chunk, n - lo))
                        for lo in range(0, n, _chunk)
                    ]
                    return tuple(
                        BV(np.ascontiguousarray(
                            np.concatenate([p[j] for p in parts], axis=0)), 0)
                        for j in range(len(parts[0]))
                    )
                return tuple(
                    BV(_owned(np.ascontiguousarray(rd)), d) for rd in one(params, n)
                )

            return _assign_multi(fn_chunked, e)

        def fn(eng, _arrs=arr_rds, _accs=acc_rds, _ps=pslots, _code=code, _na=n_acc):
            d = len(eng.bstack)
            params, n = _map_args_rt(eng, _arrs)
            regs = eng.regs
            vals = params + [rd(regs) for rd in _accs]
            for s, v in zip(_ps, vals):
                regs[s] = v
            eng.bstack.append(n)
            try:
                res = _run_body(eng, _code)
            finally:
                eng.bstack.pop()
            out: List[object] = []
            for r in res[:_na]:
                if not isinstance(r, AccBV):
                    raise ExecError("map: accumulator results must lead")
                out.append(r)
            for r in res[_na:]:
                rd = _expand(r, d + 1)
                if rd.shape[d] != n:
                    rd = np.broadcast_to(rd, rd.shape[:d] + (n,) + rd.shape[d + 1:])
                out.append(BV(_owned(np.ascontiguousarray(rd)), d))
            return tuple(out)

        return _assign_multi(fn, e)

    def _emit_map_part(self, params, body) -> Callable:
        """Emit a redomap map part; returns ``(eng, batched_args, n) ->
        ndarray`` yielding the mapped payload with extent ``n`` on the
        current batch axis."""
        pslots = tuple(s for s, _ in params)
        code = self.emit_body(body)

        def run(eng, args, n, _ps=pslots, _code=code):
            d = len(eng.bstack)
            regs = eng.regs
            for s, v in zip(_ps, args):
                regs[s] = v
            eng.bstack.append(n)
            try:
                (r,) = _run_body(eng, _code)
            finally:
                eng.bstack.pop()
            rd = _expand(r, d + 1)
            if rd.shape[d] != n:
                rd = np.broadcast_to(rd, rd.shape[:d] + (n,) + rd.shape[d + 1:])
            return rd

        return run

    def _emit_reduce(self, e) -> Callable:
        arr_rds = tuple(_reader(a) for a in e.arrs)
        ne_rds = tuple(_reader(ne) for ne in e.nes)
        if e.strategy == "ufunc":
            ufunc = _UFUNC[e.op]
            fold = e.fold

            def fast(eng, _arrs=arr_rds, _ne=ne_rds[0], _uf=ufunc, _fold=fold):
                d = len(eng.bstack)
                args, _n = _map_args_rt(eng, _arrs)
                data = np.asarray(args[0].data)
                if data.shape[d] == 0:
                    nd = _expand(_ne(eng.regs), d)
                    shape = data.shape[:d] + data.shape[d + 1:]
                    return (BV(np.broadcast_to(nd, shape).copy(), d),)
                red = _uf.reduce(data, axis=d)
                if _fold:
                    red = _uf(_expand(_ne(eng.regs), d), red)
                return (BV(red, d),)

            return _assign_multi(fast, e)
        if e.strategy == "redomap":
            ufunc = _UFUNC[e.op]
            fold = e.fold
            mp = self._emit_map_part(e.mparams, e.mbody)

            def fused(eng, _arrs=arr_rds, _ne=ne_rds[0], _mp=mp, _uf=ufunc, _fold=fold):
                d = len(eng.bstack)
                args, n = _map_args_rt(eng, _arrs)
                if n == 0:
                    nd = _expand(_ne(eng.regs), d)
                    bshape = tuple(eng.bstack)
                    return (BV(np.broadcast_to(nd, bshape + nd.shape[d:]).copy(), d),)
                data = _mp(eng, args, n)
                red = _uf.reduce(data, axis=d)
                if _fold:
                    red = _uf(_expand(_ne(eng.regs), d), red)
                return (BV(red, d),)

            return _assign_multi(fused, e)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _arrs=arr_rds, _nes=ne_rds, _ps=pslots, _code=code):
            d = len(eng.bstack)
            args, n = _map_args_rt(eng, _arrs)
            regs = eng.regs
            acc = [rd(regs) for rd in _nes]
            for i in range(n):
                elems = [BV(np.take(np.asarray(a.data), i, axis=d), d) for a in args]
                for s, v in zip(_ps, acc + elems):
                    regs[s] = v
                acc = list(_run_body(eng, _code))
            return tuple(acc)

        return _assign_multi(fn, e)

    def _emit_scan(self, e) -> Callable:
        arr_rds = tuple(_reader(a) for a in e.arrs)
        ne_rds = tuple(_reader(ne) for ne in e.nes)
        if e.strategy == "ufunc":
            ufunc = _UFUNC[e.op]
            fold = e.fold

            def fast(eng, _arrs=arr_rds, _ne=ne_rds[0], _uf=ufunc, _fold=fold):
                d = len(eng.bstack)
                args, _n = _map_args_rt(eng, _arrs)
                data = np.asarray(args[0].data)
                acc = _uf.accumulate(data, axis=d)
                if _fold:
                    nd = np.expand_dims(_expand(_ne(eng.regs), d), axis=d)
                    acc = _uf(nd, acc)
                return (BV(acc, d),)

            return _assign_multi(fast, e)
        if e.strategy == "redomap":
            ufunc = _UFUNC[e.op]
            fold = e.fold
            mp = self._emit_map_part(e.mparams, e.mbody)

            def fused(eng, _arrs=arr_rds, _mp=mp, _uf=ufunc, _nes=ne_rds, _fold=fold):
                d = len(eng.bstack)
                args, n = _map_args_rt(eng, _arrs)
                if n == 0:
                    ne = _nes[0](eng.regs)
                    dt = np.asarray(ne.data).dtype
                    return (BV(np.zeros((0,) * (ne.prank + 1), dtype=dt), 0),)
                data = _mp(eng, args, n)
                acc = _uf.accumulate(data, axis=d)
                if _fold:
                    nd = np.expand_dims(_expand(_nes[0](eng.regs), d), axis=d)
                    acc = _uf(nd, acc)
                return (BV(acc, d),)

            return _assign_multi(fused, e)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _arrs=arr_rds, _nes=ne_rds, _ps=pslots, _code=code):
            d = len(eng.bstack)
            args, n = _map_args_rt(eng, _arrs)
            regs = eng.regs
            acc = [rd(regs) for rd in _nes]
            cols: List[List[np.ndarray]] = [[] for _ in _nes]
            for i in range(n):
                elems = [BV(np.take(np.asarray(a.data), i, axis=d), d) for a in args]
                for s, v in zip(_ps, acc + elems):
                    regs[s] = v
                acc = list(_run_body(eng, _code))
                for j, a in enumerate(acc):
                    cols[j].append(_expand(a, d))
            outs = []
            for j, col in enumerate(cols):
                if n == 0:
                    ne = _nes[j](regs)
                    dt = np.asarray(ne.data).dtype
                    outs.append(BV(np.zeros((0,) * (ne.prank + 1), dtype=dt), 0))
                    continue
                shape = np.broadcast_shapes(*[c.shape for c in col])
                col = [np.broadcast_to(c, shape) for c in col]
                outs.append(BV(np.stack(col, axis=d), d))
            return tuple(outs)

        return _assign_multi(fn, e)

    def _emit_hist(self, e) -> Callable:
        rm = _int_reader(e.num_bins)
        arr_rds = tuple(_reader(a) for a in e.arrs)
        ne_rds = tuple(_reader(ne) for ne in e.nes)
        if e.strategy == "ufunc":
            op = e.op
            ufunc = _UFUNC[op]

            def fast(eng, _rm=rm, _arrs=arr_rds, _ne=ne_rds[0], _op=op, _uf=ufunc):
                d = len(eng.bstack)
                m = _rm(eng)
                args, n = _map_args_rt(eng, _arrs)
                inds, v = args[0], args[1]
                bshape = tuple(eng.bstack)
                idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
                valid = (idata >= 0) & (idata < m)
                if eng.mask is not None:
                    md = _expand(eng.mask, d)
                    md = np.broadcast_to(
                        md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)),
                        valid.shape,
                    )
                    valid = valid & md
                isel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(m - 1, 0)),)
                pe = v.pshape()
                vdata = np.broadcast_to(np.asarray(v.data), bshape + (n,) + pe)
                dt = vdata.dtype
                ne = _ne(eng.regs)
                hist = np.ascontiguousarray(
                    np.broadcast_to(
                        np.expand_dims(_expand(ne, d), axis=d), bshape + (m,) + pe
                    ).astype(dt)
                )
                neutral = _neutral_of(_op, dt)
                w = valid.reshape(valid.shape + (1,) * (vdata.ndim - valid.ndim))
                contrib = np.where(w, vdata, neutral)
                _uf.at(hist, isel, contrib)
                return (BV(hist, d),)

            return _assign_multi(fast, e)
        if e.strategy == "redomap":
            mop = e.op
            ufunc = _UFUNC[mop]
            mp = self._emit_map_part(e.mparams, e.mbody)

            def fused(eng, _rm=rm, _arrs=arr_rds, _ne=ne_rds[0], _mp=mp, _uf=ufunc, _mop=mop):
                d = len(eng.bstack)
                m = _rm(eng)
                args, n = _map_args_rt(eng, _arrs)
                inds, vals = args[0], list(args[1:])
                bshape = tuple(eng.bstack)
                idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
                valid = (idata >= 0) & (idata < m)
                if eng.mask is not None:
                    md = _expand(eng.mask, d)
                    md = np.broadcast_to(
                        md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)),
                        valid.shape,
                    )
                    valid = valid & md
                data = _mp(eng, vals, n)
                pe = data.shape[d + 1:]
                dt = data.dtype
                ne = _ne(eng.regs)
                hist = np.ascontiguousarray(
                    np.broadcast_to(
                        np.expand_dims(_expand(ne, d), axis=d), bshape + (m,) + pe
                    ).astype(dt)
                )
                neutral = _neutral_of(_mop, dt)
                vdata = np.broadcast_to(data, bshape + (n,) + pe)
                w = valid.reshape(valid.shape + (1,) * (vdata.ndim - valid.ndim))
                contrib = np.where(w, vdata, neutral)
                isel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(m - 1, 0)),)
                _uf.at(hist, isel, contrib)
                return (BV(hist, d),)

            return _assign_multi(fused, e)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _rm=rm, _arrs=arr_rds, _nes=ne_rds, _ps=pslots, _code=code):
            d = len(eng.bstack)
            m = _rm(eng)
            args, n = _map_args_rt(eng, _arrs)
            inds, vals = args[0], list(args[1:])
            bshape = tuple(eng.bstack)
            idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
            valid = (idata >= 0) & (idata < m)
            if eng.mask is not None:
                md = _expand(eng.mask, d)
                md = np.broadcast_to(
                    md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)), valid.shape
                )
                valid = valid & md
            regs = eng.regs
            hists = []
            for ne_rd, v in zip(_nes, vals):
                nev = ne_rd(regs)
                pshape = v.pshape()
                dt = np.asarray(v.data).dtype
                h = np.broadcast_to(
                    np.expand_dims(_expand(nev, d), axis=d),
                    bshape + (m,) + pshape,
                ).astype(dt)
                hists.append(np.ascontiguousarray(h))
            gsel = _grids(bshape)
            for i in range(n):
                b = idata[..., i]
                vi = valid[..., i]
                s = gsel + (np.clip(b, 0, max(m - 1, 0)),)
                cur = [BV(h[s], d) for h in hists]
                elems = [BV(np.take(np.asarray(v.data), i, axis=d), d) for v in vals]
                for sl, val in zip(_ps, cur + elems):
                    regs[sl] = val
                new = _run_body(eng, _code)
                for h, nv in zip(hists, new):
                    nd = _expand(nv, d)
                    old = h[s]
                    w = vi.reshape(vi.shape + (1,) * (old.ndim - vi.ndim))
                    h[s] = np.where(w, np.broadcast_to(nd, old.shape), old)
            return tuple(BV(h, d) for h in hists)

        return _assign_multi(fn, e)

    def _emit_scatter(self, e) -> Callable:
        rdest = _reader(e.dest)
        arr_rds = (_reader(e.inds), _reader(e.vals))

        def fn(eng, _rd=rdest, _arrs=arr_rds):
            d = len(eng.bstack)
            dest = _rd(eng.regs)
            args, n = _map_args_rt(eng, _arrs)
            inds, vals = args
            bshape = tuple(eng.bstack)
            dd = _expand(dest, d)
            dd = np.broadcast_to(dd, bshape + dd.shape[d:]).copy()
            ln = dd.shape[d]
            idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
            pe = vals.pshape()
            vdata = np.broadcast_to(np.asarray(vals.data), bshape + (n,) + pe)
            valid = (idata >= 0) & (idata < ln)
            if eng.mask is not None:
                md = _expand(eng.mask, d)
                md = np.broadcast_to(
                    md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)), valid.shape
                )
                valid = valid & md
            sel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(ln - 1, 0)),)
            old = dd[sel]
            w = valid.reshape(valid.shape + (1,) * (old.ndim - valid.ndim))
            dd[sel] = np.where(w, np.broadcast_to(vdata, old.shape), old)
            return BV(dd, d)

        return _assign_single(fn, e)

    # -- control flow ---------------------------------------------------------

    def _emit_if(self, e) -> Callable:
        rc = _reader(e.cond)
        then_code = self.emit_body(e.then)
        els_code = self.emit_body(e.els)

        def fn(eng, _rc=rc, _then=then_code, _els=els_code):
            c = _rc(eng.regs)
            cd = np.asarray(c.data)
            if cd.size == 1 and eng.mask is None:
                return _run_body(eng, _then if bool(cd.reshape(-1)[0]) else _els)
            saved = eng.mask
            notc = BV(np.logical_not(cd), c.bdims)
            eng.mask = _combine_mask(saved, c)
            tvals = _run_body(eng, _then)
            eng.mask = _combine_mask(saved, notc)
            fvals = _run_body(eng, _els)
            eng.mask = saved
            return tuple(_where(c, t, f) for t, f in zip(tvals, fvals))

        return _assign_multi(fn, e)

    def _emit_loop(self, e) -> Callable:
        rn = _reader(e.n)
        init_rds = tuple(_reader(i) for i in e.inits)
        islot = e.ivar[0]
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _rn=rn, _inits=init_rds, _is=islot, _ps=pslots, _code=code):
            regs = eng.regs
            nv = _rn(regs)
            nd = np.asarray(nv.data)
            nmax = 0 if nd.size == 0 else int(nd.max())
            state = [rd(regs) for rd in _inits]
            uniform = nd.size == 1 or (nd.size > 0 and nd.min() == nd.max())
            saved = eng.mask
            for i in range(nmax):
                regs[_is] = BV(np.asarray(np.int64(i)), 0)
                if not uniform:
                    active = BV(i < nd, nv.bdims)
                    eng.mask = _combine_mask(saved, active)
                for s, v in zip(_ps, state):
                    regs[s] = v
                new = list(_run_body(eng, _code))
                if uniform:
                    state = new
                else:
                    active = BV(i < nd, nv.bdims)
                    state = [
                        s2 if isinstance(s2, AccBV) else _where(active, s2, s)
                        for s, s2 in zip(state, new)
                    ]
                    eng.mask = saved
            eng.mask = saved
            return tuple(
                BV(_owned(s.data), s.bdims) if isinstance(s, BV) else s for s in state
            )

        return _assign_multi(fn, e)

    def _emit_while(self, e) -> Callable:
        init_rds = tuple(_reader(i) for i in e.inits)
        cslots = tuple(s for s, _ in e.cparams)
        cond_code = self.emit_body(e.cbody)
        pslots = tuple(s for s, _ in e.params)
        body_code = self.emit_body(e.body)

        def fn(eng, _inits=init_rds, _cs=cslots, _cc=cond_code, _ps=pslots, _bc=body_code):
            regs = eng.regs
            state = [rd(regs) for rd in _inits]
            saved = eng.mask
            limit = _values.WHILE_FUEL
            fuel = limit
            while True:
                for s, v in zip(_cs, state):
                    regs[s] = v
                (c,) = _run_body(eng, _cc)
                active = _combine_mask(saved, c)
                if not np.any(np.asarray(active.data)):
                    break
                eng.mask = active
                for s, v in zip(_ps, state):
                    regs[s] = v
                new = list(_run_body(eng, _bc))
                state = [
                    s2 if isinstance(s2, AccBV) else _where(active, s2, s)
                    for s, s2 in zip(state, new)
                ]
                eng.mask = saved
                fuel -= 1
                if fuel <= 0:
                    raise ExecError(
                        f"while loop exceeded iteration fuel ({limit} iterations)"
                    )
            eng.mask = saved
            return tuple(state)

        return _assign_multi(fn, e)

    # -- accumulators ---------------------------------------------------------

    def _emit_withacc(self, e) -> Callable:
        arr_rds = tuple(_reader(a) for a in e.arrs)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)
        n_acc = e.n_acc

        def fn(eng, _arrs=arr_rds, _ps=pslots, _code=code, _na=n_acc):
            d = len(eng.bstack)
            bshape = tuple(eng.bstack)
            regs = eng.regs
            accs = []
            for rd in _arrs:
                v = rd(regs)
                ad = _expand(v, d)
                ad = np.broadcast_to(ad, bshape + ad.shape[d:]).copy()
                accs.append(AccBV(ad, d))
            for s, acc in zip(_ps, accs):
                regs[s] = acc
            res = _run_body(eng, _code)
            out: List[object] = []
            for r in res[:_na]:
                if not isinstance(r, AccBV):
                    raise ExecError("withacc: lambda must return its accumulators")
                out.append(BV(r.data, r.bdims))
            out.extend(res[_na:])
            return tuple(out)

        return _assign_multi(fn, e)

    def _emit_updacc(self, e) -> Callable:
        racc = _reader(e.acc)
        rv = _reader(e.v)
        ris = tuple(_reader(i) for i in e.idx)

        def fn(eng, _racc=racc, _rv=rv, _ris=ris, _aff=e.affine):
            regs = eng.regs
            return _upd_acc(eng, _racc(regs), [r(regs) for r in _ris], _rv(regs), _aff)

        return _assign_single(fn, e)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """An executable lowering of one ``Fun``: flat instruction closures over
    slots, emitted from the shared plan IR (``exec/lower.py``).  Plans are
    shape-generic: one serves every concrete shape of a rank/dtype
    signature."""

    #: ``EMITTER_STATS`` bucket and span label; subclasses (the profile
    #: emitter) override it so their constructions are attributed apart.
    emitter_name = "plan"

    def __init__(self, fun: Fun, ir: Optional[PlanIR] = None) -> None:
        with _obs_tracing.timed(
            "emit", cat="compile", fun=fun.name, emitter=self.emitter_name
        ) as tm:
            if ir is None:
                ir = lower_fun(fun)
            self.fun = fun
            em = _ClosureEmitter()
            self.param_slots = ir.param_slots
            self.param_types = ir.param_types
            self.code = em.emit_body(ir.body)
            self.nslots = ir.nslots
            #: Distinct active schedules of the top-level SOAC/loop
            #: statements, for the execute span.
            self.schedule_str = plan_schedules(ir)
            #: Statements collapsed into fused scalar-run closures (recursive).
            self.fused_stms = ir.fused
        with _LOCK:
            _count_plan(ir)
            st = EMITTER_STATS.setdefault(self.emitter_name, {"plans": 0, "emit_s": 0.0})
            st["plans"] += 1
            st["emit_s"] += tm.seconds

    def __repr__(self) -> str:
        return (
            f"<Plan {self.fun.name}: {len(self.code[0])} instrs, "
            f"{self.nslots} slots, {self.fused_stms} fused>"
        )

    def run(self, args: Sequence[object]) -> Tuple[object, ...]:
        if len(args) != len(self.param_slots):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_slots)} arguments, "
                f"got {len(args)}"
            )
        with _span("execute", cat="exec", fun=self.fun.name, emitter=self.emitter_name,
                   schedule=self.schedule_str or None):
            eng = _Engine(self.nslots)
            regs = eng.regs
            for s, a, t in zip(self.param_slots, args, self.param_types):
                regs[s] = BV(np.asarray(coerce_arg(a, t)), 0)
            with np.errstate(all="ignore"):
                res = _run_body(eng, self.code)
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = np.asarray(r.data)
                out.append(d if d.ndim else d[()])
            return tuple(out)

    def run_batched(
        self, args: Sequence[object], batched: Sequence[bool], batch_size: int
    ) -> Tuple[object, ...]:
        """Evaluate once with the flagged arguments batched on a leading axis.

        Execution starts with one pre-pushed batch level of extent
        ``batch_size`` — exactly the state of evaluating a ``map`` over the
        batch — so batched arguments are ``BV``s with one batch dim, shared
        arguments broadcast, and every statement runs as a single bulk NumPy
        op over all batch members.  Every result is returned with a leading
        ``batch_size`` axis.
        """
        if len(args) != len(self.param_slots):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_slots)} arguments, "
                f"got {len(args)}"
            )
        if len(batched) != len(args):
            raise ExecError("run_batched: batched flags must match arguments")
        with _span("execute", cat="exec", fun=self.fun.name, emitter=self.emitter_name,
                   batched=True, schedule=self.schedule_str or None):
            b = int(batch_size)
            eng = _Engine(self.nslots)
            eng.bstack.append(b)
            regs = eng.regs
            for s, a, t, flag in zip(self.param_slots, args, self.param_types, batched):
                if flag:
                    arr = np.asarray(a)
                    if arr.ndim == 0 or arr.shape[0] != b:
                        raise ExecError(
                            f"batched argument: leading axis {arr.shape[:1]} does "
                            f"not match batch size {b}"
                        )
                    regs[s] = BV(np.ascontiguousarray(arr, dtype=np_dtype(t)), 1)
                else:
                    regs[s] = BV(np.asarray(coerce_arg(a, t)), 0)
            with np.errstate(all="ignore"):
                res = _run_body(eng, self.code)
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = _expand(r, 1)
                out.append(np.ascontiguousarray(np.broadcast_to(d, (b,) + d.shape[1:])))
            return tuple(out)


# ---------------------------------------------------------------------------
# Emitter registry
# ---------------------------------------------------------------------------

#: Plan emitters by name: ``build(fun)`` returns a plan-like object
#: (``run``/``run_batched``).  The closure
#: interpreter registers as ``"plan"`` here; ``exec/codegen.py`` registers
#: ``"codegen"`` on import (resolved lazily below so the plan backend never
#: pays for the codegen module).
_EMITTERS: Dict[str, Callable] = {}


def register_emitter(name: str, build: Callable) -> None:
    """Register a plan-family emitter (``build(fun)``)."""
    _EMITTERS[name] = build


register_emitter("plan", Plan)


def _resolve_emitter(name: str) -> Callable:
    build = _EMITTERS.get(name)
    if build is None and name == "codegen":
        from . import codegen  # noqa: F401  (registers itself on import)

        build = _EMITTERS.get(name)
    if build is None and name == "profile":
        from ..obs import profiler  # noqa: F401  (registers itself on import)

        build = _EMITTERS.get(name)
    if build is None:
        raise ExecError(
            f"unknown plan emitter {name!r} (have {sorted(_EMITTERS)})"
        )
    return build


def profile_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` routes default plan-backend executions
    through the per-instruction ``"profile"`` emitter.  Any non-falsy
    value enables it; a value with a path separator or ``.json`` suffix
    is additionally the report file written at interpreter exit (see
    ``obs/profiler.py``)."""
    return os.environ.get("REPRO_PROFILE", "").lower() not in ("", "0", "off", "false", "no")


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

#: Counters for the module-level plan cache (reset on clear).  Every
#: ``plan_for`` call increments exactly one of ``misses`` (a lowering — by
#: construction one per rank/dtype signature) or ``hits``; ``evictions``
#: counts LRU drops and ``fused_stms`` scalar statements collapsed into fused
#: run closures.  ``specialized_hits`` and ``promotions`` are always 0: the
#: tier they counted is gone, and ``bench/workloads.py:cache_delta`` still
#: indexes both keys.
PLAN_STATS = _obs_metrics.counter_group(
    "plan_cache",
    {
        "hits": 0,
        "misses": 0,
        "specialized_hits": 0,
        "promotions": 0,
        "evictions": 0,
        "fused_stms": 0,
    },
)

#: Per-emitter construction counters (``plans`` built, ``emit_s`` wall-clock
#: spent lowering+emitting; the codegen emitter adds ``code_objects``,
#: ``source_bytes`` and ``compile_s``).  Mutated under ``_LOCK``; snapshot
#: via ``plan_cache_stats()["emitters"]``; reset by ``clear_plan_cache``.
EMITTER_STATS: Dict[str, Dict[str, object]] = {}

#: The cache (key: see ``plan_for``).  Mutated only under ``_LOCK`` together
#: with the stats dicts (a ``Compiled`` may be called from several threads).
_CACHE = BoundedLRU()
_LOCK = threading.RLock()
_MISS = object()

_DEFAULT_CACHE_SIZE = 512


def _sig_of(args: Sequence[object]) -> tuple:
    """The cache signature: per-arg rank and dtype — concrete extents
    dropped, so a D0→D6 shape sweep shares one entry."""
    sig = []
    for a in args:
        arr = np.asarray(a)
        sig.append((arr.ndim, arr.dtype.str))
    return tuple(sig)


def plan_for(
    fun: Fun,
    args: Sequence[object],
    batched: Optional[Sequence[bool]] = None,
    emitter: Optional[str] = None,
):
    """The cached plan for ``fun`` given ``args``' ranks/dtypes, keyed by
    ``(ir_hash(fun), emitter, batched flags, rank/dtype signature)``
    (module docstring, "Caching": why the content hash, and why no extents).

    ``emitter`` picks how the lowered IR executes — ``"plan"`` (closure
    interpreter, the default; ``"profile"`` under ``REPRO_PROFILE``) or
    ``"codegen"`` (compiled source).  The whole lookup — cache mutation,
    counters, and any lowering — runs under one re-entrant lock, so
    concurrent callers can never corrupt the LRU order or lose stat
    increments (and a plan is lowered once, not once per racing thread).
    """
    if emitter is None:
        emitter = "profile" if profile_enabled() else "plan"
    build = _resolve_emitter(emitter)
    flags = tuple(batched) if batched is not None else None
    key = (ir_hash(fun), emitter, flags, _sig_of(args))
    cap = env_capacity("REPRO_PLAN_CACHE_SIZE", _DEFAULT_CACHE_SIZE)
    with _LOCK:
        plan = _CACHE.get(key, _MISS)
        if plan is _MISS:
            PLAN_STATS["misses"] += 1
            plan = build(fun)
            PLAN_STATS["evictions"] += _CACHE.put(key, plan, cap)
        else:
            PLAN_STATS["hits"] += 1
        return plan


def _count_plan(ir: PlanIR) -> None:
    """Add one emitted plan's static totals to the counters (under ``_LOCK``)."""
    PLAN_STATS["fused_stms"] += ir.fused
    with _STATS_LOCK:
        for k, n in ir.mem.items():
            MEM_STATS[k] += n
        for k, n in ir.index.items():
            INDEX_STATS[k] += n


def plan_cache_stats() -> Dict[str, object]:
    """A snapshot of the cache counters plus the current entry count
    (``entries``) and the per-emitter construction breakdown
    (``emitters``)."""
    from ..ir.verify import verify_mode, VERIFY_STATS

    with _LOCK:
        return {
            **PLAN_STATS,
            "entries": len(_CACHE),
            "emitters": {k: dict(v) for k, v in EMITTER_STATS.items()},
            # The memory plan (exec/lower.py): static sizes summed over the
            # plans emitted, and the donations that fell back at run time.
            "mem": dict(MEM_STATS),
            # Index provenance (exec/lower.py): indexed reads/updates on the
            # view path and reads left as gathers, summed over the plans
            # emitted, and the view ops that fell back at run time.
            "index": dict(INDEX_STATS),
            # Verification is per *lowering*, never per call: cache hits
            # reuse the verified PlanIR, so these counters stand still on
            # the hot path (asserted by the A9 overhead guard).
            "verify": {
                "mode": verify_mode(),
                "plan_checks": VERIFY_STATS["plan_checks"],
                "codegen_checks": VERIFY_STATS["codegen_checks"],
            },
        }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset all counters.

    This clears ``EMITTER_STATS`` too — the per-emitter construction
    totals describe the plans being dropped, so they go with them.  To
    zero the counters while *keeping* cached plans, use
    ``reset_plan_cache_stats``.
    """
    with _LOCK:
        _CACHE.clear()
        reset_plan_cache_stats()


def reset_plan_cache_stats() -> None:
    """Zero ``PLAN_STATS`` and ``EMITTER_STATS`` without dropping cached
    plans — the ``reset_*`` counterpart of the other stats surfaces,
    registered with ``obs.reset_all()``."""
    with _LOCK:
        PLAN_STATS.reset()
        EMITTER_STATS.clear()
        with _STATS_LOCK:
            MEM_STATS.update(dict.fromkeys(MEM_STATS, 0))
            INDEX_STATS.update(dict.fromkeys(INDEX_STATS, 0))


_obs_metrics.register_source("plan_cache", plan_cache_stats, reset_plan_cache_stats)


def run_fun_plan(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    """Evaluate ``fun`` via the (cached) plan backend."""
    return plan_for(fun, args).run(args)


def run_fun_plan_batched(
    fun: Fun, args: Sequence[object], batched: Sequence[bool], batch_size: int
) -> Tuple[object, ...]:
    """Evaluate ``fun`` once with batched arguments via the plan backend."""
    return plan_for(fun, args, batched).run_batched(args, batched, batch_size)
