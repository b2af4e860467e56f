"""Plan backend — closure emission + runtime over the shared plan IR.

For the paper's workloads a differentiated program is evaluated thousands of
times on same-shaped inputs, so everything that can be decided once is
decided once, and the per-call work is the NumPy calls themselves.  The plan
family is layered:

* ``exec/lower.py`` turns an optimised ``Fun`` into an explicit linear,
  shape-generic **plan IR** — slot allocation, fused scalar runs, SOAC
  fast-path selection and the memory plan all decided there, once, for every
  emitter;
* ``exec/vector.py`` holds what each instruction of that IR *computes*: one
  kernel per instruction over the ``BV`` batched-value representation and
  its masking discipline (SIMT-style divergence, accumulators, lane-varying
  loops);
* this module **emits** the IR as a flat sequence of Python closures, one
  per instruction, over a slot-indexed register file — each closure reads
  operands, calls the kernel and assigns/releases slots, or runs a nested
  body (the interpreter emitter) — and hosts the runtime (``_Engine``), the
  one ``run``/``run_batched`` driver and the plan cache shared by all
  plan-family emitters;
* ``exec/codegen.py`` emits the same IR as the source of a single Python
  function (``backend="codegen"``) — no per-instruction dispatch at all.

Both emitters call the same kernels, so for instruction semantics they agree
by construction; the test suite runs every program on ``ref``, ``plan`` and
``codegen``, where agreement with ``ref`` checks the kernels and the bitwise
``plan`` ↔ ``codegen`` assertion checks binding, releases and control flow.

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
per emitter, so callers can assert cache behaviour.  The LRU holds at most
``_DEFAULT_CACHE_SIZE`` entries;
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
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import ir_hash
from ..ir.ast import Fun
from ..ir.types import np_dtype
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..util import BoundedLRU, ExecError
from . import values as _values, vector as _vector
from .lower import IntRef, PlanIR, Ref, lower_fun
from .prims import _BINOPS, cast_to, unop_fn
from .values import coerce_arg
from .vector import (
    _STATS_LOCK,
    INDEX_STATS,
    MEM_STATS,
    REDOMAP_TAILS,
    AccBV,
    BV,
    _acc_of,
    _acc_value,
    _batch_args,
    _branch,
    _combine_mask,
    _elem,
    _elem_into,
    _elems_at,
    _expand,
    _gather,
    _give,
    _hist_accumulate,
    _hist_enter,
    _hist_get,
    _hist_open,
    _hist_put,
    _index,
    _map_acc,
    _map_result,
    _out_of_fuel,
    _owned,
    _pool,
    _stack_columns,
    _uniform_int,
    _where,
    clear_pool,
    leaf_kernel,
    pool_bytes,
)

__all__ = [
    "Plan",
    "plan_for",
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
    """Mutable per-call state: register file, batch stack, predication mask —
    and the lane extent ``lanes`` (the product of ``bstack``, kept in step
    where a body is entered and left) with ``floor``, the extent from which
    one float per lane is a buffer worth recycling: a fused run compares the
    two once and only then runs its pool-aware ops (``exec/vector.py``, "the
    free list").  ``out`` is the calling thread's count of pool-served
    buffers this call has out, by key: while it is empty nothing a release
    offers the free list would be admitted, so nothing is offered."""

    __slots__ = ("regs", "bstack", "mask", "lanes", "floor", "out")

    def __init__(self, nslots: int) -> None:
        self.regs: List[object] = [None] * nslots
        self.bstack: List[int] = []
        self.mask: Optional[BV] = None
        self.lanes = 1
        self.floor = -(-_vector._DONATE_MIN_BYTES // 8)
        self.out = _pool().out


def _run_body(eng: _Engine, code) -> Tuple[object, ...]:
    instrs, res = code
    for ins in instrs:
        ins(eng)
    regs = eng.regs
    return tuple(r(regs) for r in res)


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


def _operand(x) -> Callable:
    """A ``regs -> value`` accessor for an instruction operand: a ``Ref``
    reads a ``BV``, a tuple of ``Ref``s a list of them, an ``IntRef`` a
    lane-uniform integer (a literal, or a register read validated per
    call)."""
    if isinstance(x, tuple):
        rds = tuple(_reader(r) for r in x)
        return lambda regs, _rds=rds: [rd(regs) for rd in _rds]
    if not isinstance(x, IntRef):
        return _reader(x)
    if x.const is not None:
        return lambda regs, _n=x.const: _n
    return lambda regs, _rd=_reader(x.ref), _w=x.what: _uniform_int(_rd(regs), _w)


def _scalar_fn(o):
    """The NumPy function of a ``unop``/``binop`` run op, resolved when the
    plan is emitted — an unknown operator fails there, not on first call."""
    try:
        return unop_fn(o.op) if o.kind == "unop" else _BINOPS[o.op]
    except KeyError:
        what = "unary" if o.kind == "unop" else "binary"
        raise ExecError(f"unknown {what} op {o.op!r}") from None


def _run_operand(x) -> Callable:
    """A ``(regs, loc) -> BV`` accessor: run-local values (``int`` indices)
    read from the closure-local list, everything else from the register
    file."""
    if isinstance(x, int):
        return lambda regs, loc, _i=x: loc[_i]
    base = _reader(x)
    return lambda regs, loc, _b=base: _b(regs)


def _emit_run_op(o, pooled: bool = False) -> Callable:
    """The closure of run op ``o``; ``pooled``: the one a run uses when its
    lane extent reaches the size floor — a taker may compute into a free-list
    buffer and recyclable values go there when they die."""
    fn = _emit_run_fn(o, pooled and o.take)
    if not o.release:
        return fn
    dead = o.release
    if not (pooled and o.recycle):
        def releasing(regs, loc, _fn=fn, _dead=dead):
            v = _fn(regs, loc)
            for i in _dead:
                loc[i] = None
            return v

        return releasing
    # Everything else goes first: a value is only kept once nobody holds it.
    dead = tuple(i for i in dead if i not in o.recycle)

    def recycling(regs, loc, _fn=fn, _dead=dead, _rec=o.recycle):
        v = _fn(regs, loc)
        for i in _dead:
            loc[i] = None
        for i in _rec:
            d = loc[i]
            loc[i] = None
            _give(d)
        return v

    return recycling


def _emit_run_fn(o, take: bool = False) -> Callable:
    kind = o.kind
    if kind == "atom":
        return _run_operand(o.xs[0])
    if kind in ("unop", "binop"):
        # ``donate``: an out=-capable ufunc (``INPLACE_OPS``) with some operand
        # a dead run-local temporary computes into it when that is safe;
        # ``take``: failing that, into a buffer from the free list.
        uf, don = _scalar_fn(o), o.donate
        into = partial(_elem_into, take=True) if take else _elem_into
        rx = _run_operand(o.xs[0])
        if kind == "unop":
            if don or take:
                return lambda regs, loc, _rx=rx, _uf=uf, _don=don, _into=into: (
                    _into(_uf, _don, _rx(regs, loc))
                )
            return lambda regs, loc, _rx=rx, _uf=uf: _elem(_uf, _rx(regs, loc))
        ry = _run_operand(o.xs[1])
        if don or take:
            return lambda regs, loc, _rx=rx, _ry=ry, _uf=uf, _don=don, _into=into: (
                _into(_uf, _don, _rx(regs, loc), _ry(regs, loc))
            )
        return lambda regs, loc, _rx=rx, _ry=ry, _uf=uf: _elem(
            _uf, _rx(regs, loc), _ry(regs, loc)
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


def _recycle(regs, dead, rec) -> None:
    """Release the slots ``dead``, offering those in ``rec`` to the free list
    — last, because a value is only kept once nobody else holds it.  Callers
    come here only while the call has a pool-served buffer out (``eng.out``):
    until then nothing offered would be admitted, so a plan whose values
    never reach the size floor clears its slots exactly as it always has."""
    for s in dead:
        if s not in rec:
            regs[s] = None
    for s in rec:
        v = regs[s]
        regs[s] = None
        _give(v)


def _assign_single(fn: Callable, s0: int, e) -> Callable:
    """The instruction closure binding ``fn``'s value to slot ``s0``, then
    clearing the slots ``e`` releases (no loop emitted when there are none —
    dispatch-bound plans must not pay for the memory plan) or offering them
    to the free list."""
    if not e.release:
        def ins(eng, _fn=fn, _s=s0):
            eng.regs[_s] = _fn(eng)

        return ins
    dead, rec = tuple(s for s, _ in e.release), e.recycle

    def ins_rel(eng, _fn=fn, _s=s0, _dead=dead, _rec=rec):
        regs = eng.regs
        regs[_s] = _fn(eng)
        if _rec and eng.out:
            _recycle(regs, _dead, _rec)
        else:
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
    dead, rec = tuple(s for s, _ in e.release), e.recycle

    def ins_rel(eng, _fn=fn, _slots=slots, _dead=dead, _rec=rec):
        vals = _fn(eng)
        regs = eng.regs
        for s, v in zip(_slots, vals):
            regs[s] = v
        if _rec and eng.out:
            _recycle(regs, _dead, _rec)
        else:
            for s in _dead:
                regs[s] = None

    return ins_rel


def _out_slot(ins) -> int:
    """The slot of the one output of a ``LEAF_KERNELS`` instruction."""
    return ins.out[0] if hasattr(ins, "out") else ins.outs[0][0]


class _ClosureEmitter:
    """The interpreter emitter: one Python closure per plan-IR instruction.

    Every compile-time decision already lives in the IR and every NumPy call
    sequence in a ``vector.py`` kernel — this class binds readers and
    writers, and builds the control flow around nested bodies: binding lambda
    parameters, pushing and popping the batch stack, ``for``/``while``,
    saving and restoring the mask."""

    # -- bodies ---------------------------------------------------------------

    def emit_body(self, pbody) -> tuple:
        instrs = tuple(self._emit_ins(i) for i in pbody.instrs)
        res = tuple(_reader(r) for r in pbody.result)
        return instrs, res

    def _emit_ins(self, ins) -> Callable:
        leaf = leaf_kernel(ins)
        if leaf is None:
            return getattr(self, "_emit_" + ins.kind)(ins)
        kernel, operands, statics = leaf
        reads = tuple(_operand(getattr(ins, f)) for f in operands)
        consts = tuple(getattr(ins, f) for f in statics)

        def fn(eng, _k=kernel, _reads=reads, _consts=consts):
            regs = eng.regs
            return _k(eng, *[rd(regs) for rd in _reads], *_consts)

        return _assign_single(fn, _out_slot(ins), ins)

    def _emit_lanes(self, params, body) -> Callable:
        """Emit a SOAC lambda; returns ``(eng, vals, n) -> results``: bind
        the parameters, run the body one batch level (of extent ``n``)
        down."""
        pslots = tuple(s for s, _ in params)
        code = self.emit_body(body)

        def lanes(eng, vals, n, _ps=pslots, _code=code):
            regs = eng.regs
            for s, v in zip(_ps, vals):
                regs[s] = v
            eng.bstack.append(n)
            outer = eng.lanes
            eng.lanes = outer * n
            try:
                return _run_body(eng, _code)
            finally:
                eng.bstack.pop()
                eng.lanes = outer

        return lanes

    # -- fused scalar runs ----------------------------------------------------

    def _emit_run(self, ins) -> Callable:
        run_ops = ins.ops  # (not ``ins``: its provenance would pin the source IR)
        ops = tuple(_emit_run_op(o) for o in run_ops)
        marked = any(o.take or o.recycle for o in run_ops)
        # The ops of the run as it executes where one float per lane is a
        # buffer worth recycling — decided per run entry, from the lane
        # extent, and emitted when that first happens: a plan whose values
        # never reach the size floor carries one set of closures, as ever.
        big: List[tuple] = []

        def pooled():
            if not big:
                big.append(tuple(
                    _emit_run_op(o, True) if o.take or o.recycle else op
                    for o, op in zip(run_ops, ops)
                ))
            return big[0]

        dead, rec = tuple(s for s, _ in ins.release), ins.recycle
        if len(ops) == 1 and not dead:
            # A standalone scalar statement: one export, no locals.
            (_, s0, _n) = ins.exports[0]
            op = ops[0]
            if not marked:
                def one(eng, _op=op, _s=s0):
                    eng.regs[_s] = _op(eng.regs, ())

                return one

            def one_of(eng, _op=op, _s=s0):
                if eng.lanes >= eng.floor:
                    _op = pooled()[0]
                eng.regs[_s] = _op(eng.regs, ())

            return one_of
        exports = tuple((li, s) for li, s, _n in ins.exports)
        k = len(ops)

        def run(eng, _ops=ops, _marked=marked, _exports=exports, _k=k, _dead=dead, _rec=rec):
            regs = eng.regs
            loc = [None] * _k
            if _marked and eng.lanes >= eng.floor:
                _ops = pooled()
            for x, op in enumerate(_ops):
                loc[x] = op(regs, loc)
            for li, s in _exports:
                regs[s] = loc[li]
            if _rec and eng.out:
                _recycle(regs, _dead, _rec)
            else:
                for s in _dead:
                    regs[s] = None

        return run

    # -- SOACs ----------------------------------------------------------------

    def _emit_map(self, e) -> Callable:
        arrs, accs = _operand(e.arrs), _operand(e.accs)
        lanes = self._emit_lanes(e.params, e.body)

        def fn(eng, _arrs=arrs, _accs=accs, _lanes=lanes, _na=e.n_acc):
            regs = eng.regs
            params, n = _batch_args(eng, _arrs(regs))
            res = _lanes(eng, params + _accs(regs), n)
            return [_map_acc(eng, r) for r in res[:_na]] + [
                _map_result(eng, r, n) for r in res[_na:]
            ]

        return _assign_multi(fn, e)

    def _emit_reduce(self, e) -> Callable:
        """``redomap`` and ``generic`` reduces and scans (``ufunc`` ones are
        leaf kernels)."""
        if e.strategy != "redomap":
            return self._emit_fold_loop(e)
        empty, tail = REDOMAP_TAILS[e.kind]
        arrs, ne = _operand(e.arrs), _reader(e.nes[0])
        lanes = self._emit_lanes(e.mparams, e.mbody)

        def fused(eng, _arrs=arrs, _ne=ne, _lanes=lanes, _op=e.op, _fold=e.fold):
            regs = eng.regs
            args, n = _batch_args(eng, _arrs(regs))
            if n == 0:
                return (empty(eng, _ne(regs)),)
            (r,) = _lanes(eng, args, n)
            return (tail(eng, _op, _fold, _ne(regs), r, n),)

        return _assign_multi(fused, e)

    _emit_scan = _emit_reduce

    def _emit_fold_loop(self, e) -> Callable:
        """The generic element-at-a-time fold shared by reduce and scan."""
        arrs, nes = _operand(e.arrs), _operand(e.nes)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _arrs=arrs, _nes=nes, _ps=pslots, _code=code, _scan=e.kind == "scan"):
            d = len(eng.bstack)
            regs = eng.regs
            args, n = _batch_args(eng, _arrs(regs))
            acc = nes = _nes(regs)
            cols: List[List[BV]] = [[] for _ in nes] if _scan else []
            for i in range(n):
                for s, v in zip(_ps, acc + _elems_at(args, i, d)):
                    regs[s] = v
                acc = list(_run_body(eng, _code))
                if _scan:
                    for col, a in zip(cols, acc):
                        col.append(a)
            if not _scan:
                return acc
            return [_stack_columns(eng, col, ne) for col, ne in zip(cols, nes)]

        return _assign_multi(fn, e)

    def _emit_hist(self, e) -> Callable:
        """``redomap`` and ``generic`` histograms."""
        rm, arrs, nes = _operand(e.num_bins), _operand(e.arrs), _operand(e.nes)
        if e.strategy == "redomap":
            lanes = self._emit_lanes(e.mparams, e.mbody)

            def fused(eng, _rm=rm, _arrs=arrs, _nes=nes, _lanes=lanes, _op=e.op):
                regs = eng.regs
                args, n, hs = _hist_enter(eng, _rm(regs), _arrs(regs))
                (r,) = _lanes(eng, args[1:], n)
                return (_hist_accumulate(eng, _op, _nes(regs)[0], hs, r),)

            return _assign_multi(fused, e)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _rm=rm, _arrs=arrs, _nes=nes, _ps=pslots, _code=code):
            d = len(eng.bstack)
            regs = eng.regs
            args, n, hs = _hist_enter(eng, _rm(regs), _arrs(regs))
            vals = args[1:]
            st = _hist_open(eng, _nes(regs), hs, vals)
            for i in range(n):
                sel, cur = _hist_get(eng, st, i)
                for s, v in zip(_ps, cur + _elems_at(vals, i, d)):
                    regs[s] = v
                _hist_put(eng, st, i, sel, _run_body(eng, _code))
            return st[0]

        return _assign_multi(fn, e)

    # -- control flow ---------------------------------------------------------

    def _emit_if(self, e) -> Callable:
        rc = _reader(e.cond)
        then_fn = partial(_run_body, code=self.emit_body(e.then))
        else_fn = partial(_run_body, code=self.emit_body(e.els))

        def fn(eng, _rc=rc, _then=then_fn, _els=else_fn):
            return _branch(eng, _rc(eng.regs), _then, _els)

        return _assign_multi(fn, e)

    def _emit_loop(self, e) -> Callable:
        rn, inits = _reader(e.n), _operand(e.inits)
        islot = e.ivar[0]
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _rn=rn, _inits=inits, _is=islot, _ps=pslots, _code=code):
            regs = eng.regs
            nv = _rn(regs)
            nd = np.asarray(nv.data)
            nmax = 0 if nd.size == 0 else int(nd.max())
            state = _inits(regs)
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
        inits = _operand(e.inits)
        cslots = tuple(s for s, _ in e.cparams)
        cond_code = self.emit_body(e.cbody)
        pslots = tuple(s for s, _ in e.params)
        body_code = self.emit_body(e.body)

        def fn(eng, _inits=inits, _cs=cslots, _cc=cond_code, _ps=pslots, _bc=body_code):
            regs = eng.regs
            state = _inits(regs)
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
                    raise _out_of_fuel(limit)
            eng.mask = saved
            return tuple(state)

        return _assign_multi(fn, e)

    # -- accumulators ---------------------------------------------------------

    def _emit_withacc(self, e) -> Callable:
        arrs = _operand(e.arrs)
        pslots = tuple(s for s, _ in e.params)
        code = self.emit_body(e.body)

        def fn(eng, _arrs=arrs, _ps=pslots, _code=code, _na=e.n_acc):
            regs = eng.regs
            for s, v in zip(_ps, _arrs(regs)):
                regs[s] = _acc_of(eng, v)
            res = _run_body(eng, _code)
            return [_acc_value(eng, r) for r in res[:_na]] + list(res[_na:])

        return _assign_multi(fn, e)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """An executable lowering of one ``Fun``: flat instruction closures over
    slots, emitted from the shared plan IR (``exec/lower.py``).  Plans are
    shape-generic: one serves every concrete shape of a rank/dtype
    signature.

    This class is also the one driver of the plan family: argument checking
    and coercion, ``errstate``, the execute span and result unwrapping live in
    ``run``/``run_batched``; an emitter subclass (``CodegenPlan``, the
    profiler's ``ProfilePlan``) supplies ``_emit``/``_compile`` — what it
    builds from the IR — and ``_invoke`` — how that runs."""

    #: ``EMITTER_STATS`` bucket and span label; subclasses override it so
    #: their constructions are attributed apart.
    emitter_name = "plan"

    def __init__(self, fun: Fun, ir: Optional[PlanIR] = None) -> None:
        with _obs_tracing.timed(
            "emit", cat="compile", fun=fun.name, emitter=self.emitter_name
        ) as tm:
            if ir is None:
                ir = lower_fun(fun)
            self.fun = fun
            self.param_slots = ir.param_slots
            self.param_types = ir.param_types
            self.nslots = ir.nslots
            #: Statements collapsed into fused scalar runs (recursive).
            self.fused_stms = ir.fused
            self._emit(ir)
        built = {"plans": 1, "emit_s": tm.seconds, **self._compile()}
        with _LOCK:
            _count_plan(ir)
            st = EMITTER_STATS.setdefault(self.emitter_name, {})
            for k, v in built.items():
                st[k] = st.get(k, 0) + v

    def _emit(self, ir: PlanIR) -> None:
        self.code = _ClosureEmitter().emit_body(ir.body)

    def _compile(self) -> Dict[str, object]:
        """Whatever turns the emitted form into a callable; returns what it
        adds to this emitter's ``EMITTER_STATS`` row (closures: nothing)."""
        return {}

    def _invoke(self, eng: _Engine, vals: List[BV]) -> Tuple[object, ...]:
        """Run the emitted body on the parameter values ``vals``."""
        regs = eng.regs
        for s, v in zip(self.param_slots, vals):
            regs[s] = v
        return _run_body(eng, self.code)

    def __repr__(self) -> str:
        return (
            f"<Plan {self.fun.name}: {len(self.code[0])} instrs, "
            f"{self.nslots} slots, {self.fused_stms} fused>"
        )

    def run(self, args: Sequence[object]) -> Tuple[object, ...]:
        return self._run(args, None, 0)

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
        return self._run(args, batched, int(batch_size))

    def _run(self, args, batched: Optional[Sequence[bool]], b: int) -> Tuple[object, ...]:
        if len(args) != len(self.param_slots):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_slots)} arguments, "
                f"got {len(args)}"
            )
        how = {}
        if batched is not None:
            if len(batched) != len(args):
                raise ExecError("run_batched: batched flags must match arguments")
            how["batched"] = True
        with _span("execute", cat="exec", fun=self.fun.name,
                   emitter=self.emitter_name, **how):
            eng = _Engine(self.nslots)
            if batched is not None:
                eng.bstack.append(b)
                eng.lanes = b
            flags = (False,) * len(args) if batched is None else batched
            vals = []
            for a, t, flag in zip(args, self.param_types, flags):
                if flag:
                    arr = np.asarray(a)
                    if arr.ndim == 0 or arr.shape[0] != b:
                        raise ExecError(
                            f"batched argument: leading axis {arr.shape[:1]} does "
                            f"not match batch size {b}"
                        )
                    vals.append(BV(np.ascontiguousarray(arr, dtype=np_dtype(t)), 1))
                else:
                    vals.append(BV(np.asarray(coerce_arg(a, t)), 0))
            try:
                with np.errstate(all="ignore"):
                    res = self._invoke(eng, vals)
            finally:
                # What the call took and did not give back (a result, a
                # refused value) is nobody's to return any more.
                eng.out.clear()
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                if batched is None:
                    d = np.asarray(r.data)
                    out.append(d if d.ndim else d[()])
                else:
                    d = _expand(r, 1)
                    out.append(np.ascontiguousarray(np.broadcast_to(d, (b,) + d.shape[1:])))
            return tuple(out)


def _emitter_class(name: str):
    """The plan class of emitter ``name``.  Both imports are local because
    the modules import this one; ``codegen`` is loaded with the package
    (``exec/__init__``), ``obs.profiler`` on first use."""
    if name == "plan":
        return Plan
    if name == "codegen":
        from .codegen import CodegenPlan

        return CodegenPlan
    if name == "profile":
        from ..obs.profiler import ProfilePlan

        return ProfilePlan
    raise ExecError(
        f"unknown plan emitter {name!r} (have 'plan', 'codegen', 'profile')"
    )


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
    build = _emitter_class(emitter)
    flags = tuple(batched) if batched is not None else None
    key = (ir_hash(fun), emitter, flags, _sig_of(args))
    with _LOCK:
        plan = _CACHE.get(key, _MISS)
        if plan is _MISS:
            PLAN_STATS["misses"] += 1
            plan = build(fun)
            PLAN_STATS["evictions"] += _CACHE.put(key, plan, _DEFAULT_CACHE_SIZE)
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
            # plans emitted, the donations that fell back at run time, and the
            # free list (exec/vector.py): large results served from it or
            # not, recyclable values it refused, bytes it holds now.
            "mem": {**MEM_STATS, "pool_bytes": pool_bytes()},
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
    """Drop every cached plan, hand the free list's buffers back to the
    allocator and reset all counters.

    This clears ``EMITTER_STATS`` too — the per-emitter construction
    totals describe the plans being dropped, so they go with them.  To
    zero the counters while *keeping* cached plans, use
    ``reset_plan_cache_stats``.
    """
    with _LOCK:
        _CACHE.clear()
        clear_pool()
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
