"""Plan backend — closure emission + runtime over the shared plan IR.

For the paper's workloads a differentiated program is evaluated thousands of
times on same-shaped inputs, so everything that can be decided once is
decided once, and the per-call work is the NumPy calls themselves.  The plan
family is layered:

* ``exec/lower.py`` turns an optimised ``Fun`` into an explicit linear,
  shape-generic **plan IR** — slot allocation, fused scalar runs, SOAC
  fast-path selection and the memory plan all decided there, once;
* ``exec/vector.py`` holds what each instruction of that IR *computes*: one
  kernel per instruction over the ``BV`` batched-value representation and
  its masking discipline (SIMT-style divergence, accumulators, lane-varying
  loops) — nested bodies included, which reach it as callables;
* this module **emits** the IR as a flat sequence of Python closures, one
  per instruction, over a slot-indexed register file — each closure reads
  operands, calls the kernel (a nested body passed as a closure that binds
  its parameter slots and runs its own instructions) and assigns/releases
  slots, or runs a fused scalar run — and hosts the runtime (``_Engine``),
  the ``run`` driver and the plan cache.  What emission knows is bound into
  the closures, not redone per call: each kernel call is bound per operand
  arity, a tuple operand's or a body's result slots are read in one pass,
  and a fused run reads each register once and computes on arrays, making a
  ``BV`` per export only.  A run with two or more float64
  ops a C loop may compute is emitted as a kernel run: from the plan's
  ``HOT_CALLS``-th call on, that arithmetic is one compiled C call
  (``exec/kernels.py``), the loops of all its runs built in one compiler
  call, and so is each unmasked float64 ``upd``.
  Under ``REPRO_PROFILE`` it passes every closure it
  emits, at every depth, through ``obs/profiler.py:timer``.

The test suite runs every program on ``ref`` and ``plan``: agreement with
``ref`` checks the kernels, binding, releases and fused runs, and
``exec/verify_plan.py`` checks the plan IR the closures are emitted from.

Caching
-------

``plan_for(fun, args)`` memoises plans in one module-level, lock-guarded
LRU keyed by ``(ir_hash(fun), profile, rank/dtype signature)``.  The key leads with the alpha-invariant
content hash (``ir.analysis.ir_hash``), so alpha-equivalent ``Fun`` bodies
— retraced derivatives, re-optimised copies — share one lowering instead
of one per object identity.  Concrete extents are not part of the key:
plans are shape-generic, so one lowering serves a whole problem-size sweep
(GMM D0→D6, BA camera counts) instead of re-lowering per shape and
churning the LRU.  ``profile`` (``REPRO_PROFILE`` set) separates timed
closures from plain ones.

Repeat calls on same-rank arguments skip tracing, optimisation, and
lowering entirely; ``PLAN_STATS`` counts hits/misses/evictions and the
fused-statement total, so callers can assert cache behaviour (each emission
opens an ``emit`` span).  The LRU holds at most
``_DEFAULT_CACHE_SIZE`` entries;
``clear_plan_cache`` drops everything eagerly (plans are derived purely from
immutable ``Fun`` values, so entries never go stale).  All cache and counter
state is mutated under one re-entrant lock — users may call one
``Compiled`` from several of their own threads.

Batched seeds
-------------

A batched multi-seed call is no separate mode: ``Compiled.call_batched``
runs ``frontend.function.batched_fun`` — the function as one ``map`` over
its flagged parameters — through ``run`` like any other program, so the
seed axis is the map's batch level.  ``Plan.run_batched`` is a bench-only
residue of that path (``bench/staged.py`` calls it on its staged plans).
"""
from __future__ import annotations

import itertools
import threading
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import ir_hash
from ..ir.ast import Fun
from ..ir.verify import verify_mode
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..obs.profiler import profile_enabled, timer
from ..util import BoundedLRU, ExecError
from .lower import IntRef, Layout, PlanIR, Ref, layout, lower_fun, outer_release
from .prims import _BINOPS, cast_to, unop_fn
from .values import coerce_arg
from .vector import (
    INDEX_STATS,
    MEM_STATS,
    AccBV,
    BV,
    _elem_into,
    _gather,
    _index,
    _uniform_int,
    kernel_of,
)

__all__ = [
    "Plan",
    "plan_for",
    "run_fun_plan",
    "PLAN_STATS",
    "plan_cache_stats",
    "clear_plan_cache",
    "reset_plan_cache_stats",
]

_span = _obs_tracing.span


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


class _Engine:
    """Mutable per-call state: register file, batch stack, predication mask,
    whether the plan's kernel runs call their kernels (from the call before
    the hot one, which queues their input patterns), the C ``updacc`` a hot
    call's ``upd``s try and their ``[NumPy, C]`` count.  Nothing outlives it."""

    __slots__ = ("regs", "bstack", "mask", "hot", "updacc", "upd_calls")

    def __init__(self, nslots: int, hot: bool = False, updacc=None) -> None:
        self.regs: List[object] = [None] * nslots
        self.bstack: List[int] = []
        self.mask: Optional[BV] = None
        self.hot = hot
        self.updacc, self.upd_calls = updacc, [0, 0]


def _run_body(eng: _Engine, code) -> list:
    instrs, res = code
    for ins in instrs:
        ins(eng)
    return res(eng.regs)


# ---------------------------------------------------------------------------
# Closure emission over the plan IR
# ---------------------------------------------------------------------------


def _unbound(regs, refs) -> ExecError:
    """The error of reading the first of ``refs`` whose slot is not bound."""
    name = next(r.name for r in refs if r.slot is not None and regs[r.slot] is None)
    return ExecError(f"unbound variable {name}")


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


def _refs_reader(refs) -> Callable:
    """A ``regs -> list`` accessor for a tuple of operands: one read of all
    their slots when each is a register ``Ref``."""
    if not all(type(r) is Ref and r.slot is not None for r in refs):
        rds = tuple(_operand(r) for r in refs)
        return lambda regs: [rd(regs) for rd in rds]
    slots = tuple(r.slot for r in refs)

    def rd_all(regs):
        vals = list(map(regs.__getitem__, slots))
        if None in vals:
            raise _unbound(regs, refs)
        return vals

    return rd_all


def _operand(x) -> Callable:
    """A ``regs -> value`` accessor for an instruction operand: a ``Ref``
    reads a ``BV``, an ``IntRef`` a lane-uniform integer (a literal, or a
    register read validated per call), a tuple of operands a list of
    theirs."""
    if isinstance(x, tuple):
        return _refs_reader(x)
    if not isinstance(x, IntRef):
        return _reader(x)
    if x.const is not None:
        return lambda regs, _n=x.const: _n
    return lambda regs, _rd=_reader(x.ref), _w=x.what: _uniform_int(_rd(regs), _w)


def _bind(kernel, reads, consts) -> Callable:
    """``eng -> kernel(eng, *operands, *consts)``, bound per operand arity:
    no list of operands is built per call."""
    if len(reads) == 1:
        (a,) = reads
        return lambda eng: kernel(eng, a(eng.regs), *consts)
    if len(reads) == 2:
        a, b = reads

        def fn2(eng):
            regs = eng.regs
            return kernel(eng, a(regs), b(regs), *consts)

        return fn2
    if len(reads) == 3:
        a, b, c = reads

        def fn3(eng):
            regs = eng.regs
            return kernel(eng, a(regs), b(regs), c(regs), *consts)

        return fn3
    a, b, c, e = reads  # a contraction's four

    def fn4(eng):
        regs = eng.regs
        return kernel(eng, a(regs), b(regs), c(regs), e(regs), *consts)

    return fn4


def _scalar_fn(o):
    """The NumPy function of a ``unop``/``binop``/``select`` run op, resolved
    when the plan is emitted — an unknown operator fails there, not on first
    call."""
    if o.kind == "select":
        return np.where
    try:
        return unop_fn(o.op) if o.kind == "unop" else _BINOPS[o.op]
    except KeyError:
        what = "unary" if o.kind == "unop" else "binary"
        raise ExecError(f"unknown {what} op {o.op!r}") from None


#: A fused run works on data: each op's value at its own index of a local
#: list, the constants' data after them and the registers' last, read once per
#: call (``_run_inputs``); ``BV``s are made for its exports only.
_DATA = attrgetter("data")


def _run_inputs(ops) -> tuple:
    """``(at, blank, slots, refs)`` of run ``ops``: ``at(x)`` the local index
    of operand ``x``, ``blank`` the local list a call starts from (constants
    filled in), and the registers it appends, by slot and as ``Ref``s."""
    consts: Dict[int, Ref] = {}
    regs: Dict[int, Ref] = {}
    for o in ops:
        for x in o.xs:
            if isinstance(x, int):
                continue
            if x.slot is None:
                consts.setdefault(id(x), x)
            else:
                regs.setdefault(x.slot, x)
    n, c = len(ops), len(consts)
    cpos = {key: n + i for i, key in enumerate(consts)}
    rpos = {key: n + c + i for i, key in enumerate(regs)}

    def at(x) -> int:
        if isinstance(x, int):
            return x
        return cpos[id(x)] if x.slot is None else rpos[x.slot]

    return (at, [None] * n + [r.bv.data for r in consts.values()], tuple(regs),
            tuple(regs.values()))


def _run_exports(ins, los, keep) -> tuple:
    """The exports of run ``ins`` that ``keep`` selects as ``(local index,
    slot, batch depth)``, and as ``(register, slot)`` those of an atom that
    hands a register on as it is (an accumulator stays one)."""
    exports, forwards = [], []
    for li, s, _n in ins.exports:
        y = li
        while isinstance(y, int) and ins.ops[y].kind == "atom":
            y = ins.ops[y].xs[0]
        if not keep(li):
            continue
        if isinstance(y, int) or y.slot is None:
            exports.append((li, s, los[li].k))
        else:
            forwards.append((y.slot, s))
    return tuple(exports), tuple(forwards)


def _run_data(p: int, sel) -> Callable:
    """A ``loc -> ndarray`` accessor of the run operand at local index ``p``,
    lined up by its static selector ``sel`` (``exec/lower.py``: ``layout``)."""
    if sel is None:
        return itemgetter(p)
    return lambda loc: loc[p][sel]


def _emit_run_fn(o, lo, don, at) -> Callable:
    """``loc -> ndarray``: op ``o`` at layout ``lo`` as one direct NumPy call,
    every operand (local index ``at(x)``) lined up by its static selector,
    the result at depth ``lo.k`` (into a dead operand ``don``)."""
    kind, k = o.kind, lo.k
    if kind == "atom":
        return itemgetter(at(o.xs[0]))
    if kind in ("unop", "binop", "select"):
        rds = tuple(_run_data(at(x), s) for x, s in zip(o.xs, lo.sels))
        uf = _scalar_fn(o)
        if kind == "select":
            rc, rt, rf = rds
            return lambda loc: uf(rc(loc), rt(loc), rf(loc))
        # ``donate``: an out=-capable ufunc (``INPLACE_OPS``) with some operand
        # a dead run-local temporary computes into it when that is safe.
        rx = rds[0]
        if kind == "unop":
            if don:
                return lambda loc: _elem_into(uf, don, k, [rx(loc)]).data
            if k + o.pranks[0] == 0:  # a 0-d result: ufuncs return a scalar
                return lambda loc: np.asarray(uf(rx(loc)))
            return lambda loc: uf(rx(loc))
        ry = rds[1]
        if don:
            return lambda loc: _elem_into(uf, don, k, [rx(loc), ry(loc)]).data
        if k + max(o.pranks) == 0:
            return lambda loc: np.asarray(uf(rx(loc), ry(loc)))
        return lambda loc: uf(rx(loc), ry(loc))
    if kind == "cast":
        p, dt = at(o.xs[0]), o.dtype
        return lambda loc: cast_to(loc[p], dt)
    if kind == "index":
        a, ii, sels, view = at(o.xs[0]), tuple(at(x) for x in o.xs[1:]), lo.sels, lo.view
        if o.affine is None:
            rows = view == "rows"
            return lambda loc: _gather(loc[a], list(map(loc.__getitem__, ii)), k, sels, rows).data
        return lambda loc: _index(loc[a], list(map(loc.__getitem__, ii)), k, sels, view)
    if kind == "zeroslike":
        p = at(o.xs[0])
        return lambda loc: np.zeros_like(np.asarray(loc[p]))
    raise ExecError(f"plan emit: unexpected run op {kind!r}")


def _assign_single(fn: Callable, s0: int, e) -> Callable:
    """The instruction closure binding ``fn``'s value to slot ``s0``, then
    clearing the slots ``e`` releases (no loop emitted when there are none —
    dispatch-bound plans must not pay for the memory plan)."""
    dead = outer_release(e)
    if not dead:
        def ins(eng, _fn=fn, _s=s0):
            eng.regs[_s] = _fn(eng)

        return ins

    def ins_rel(eng, _fn=fn, _s=s0, _dead=dead):
        regs = eng.regs
        regs[_s] = _fn(eng)
        for s in _dead:
            regs[s] = None

    return ins_rel


def _assign_multi(fn: Callable, e) -> Callable:
    slots = tuple(s for s, _ in e.outs)
    dead = outer_release(e)
    if not dead:
        def ins(eng, _fn=fn, _slots=slots):
            vals = _fn(eng)
            regs = eng.regs
            for s, v in zip(_slots, vals):
                regs[s] = v

        return ins

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

    Every compile-time decision already lives in the IR and its ``Layout``,
    and every NumPy call sequence, control flow included, in a ``vector.py``
    kernel — this class binds readers and writers, turns each nested body
    into a callable for its kernel, and runs fused scalar runs, one direct
    NumPy call per op."""

    def __init__(self, lay: Layout, wrap: Optional[Callable] = None) -> None:
        self.lay = lay
        #: ``obs/profiler.py:timer``'s hook, applied to every instruction
        #: closure at every depth (``depth``: of the body being emitted).
        self.wrap = wrap
        self.depth = 0
        #: Each kernel run emitted -> its ``kernels.split_run`` partition.
        self.kernel_runs: Dict[object, object] = {}
        #: The input patterns the kernel runs wait to have built (``kernels.kernel``).
        self.queue: list = []
        #: Some ``upd`` was emitted (it tries C from the hot call on).
        self.upds = False

    def emit_body(self, pbody) -> tuple:
        instrs = tuple(self._emit_ins(i) for i in pbody.instrs)
        if self.wrap is not None:
            instrs = tuple(self.wrap(c, i, self.depth) for c, i in zip(instrs, pbody.instrs))
        return instrs, _refs_reader(pbody.result)

    def _emit_ins(self, ins) -> Callable:
        if ins.kind == "run":
            return self._emit_run(ins)
        kernel, operands, statics, bodies = kernel_of(ins)
        reads = tuple(_operand(getattr(ins, f)) for f in operands)
        consts = tuple(self.lay.static(ins, f) for f in statics)
        consts += tuple(self._emit_callable(ins, fields) for fields in bodies)
        fn = _bind(kernel, reads, consts)
        if not hasattr(ins, "out"):
            return _assign_multi(fn, ins)
        assign = _assign_single(fn, ins.out[0], ins)
        if ins.kind != "updacc":
            return assign
        self.upds = True

        def upd(eng, _a=assign):  # whether it ran in C, as a kernel run says (profile rows)
            n = eng.upd_calls[1]
            _a(eng)
            return eng.upd_calls[1] != n

        return upd if self.wrap else assign

    def _emit_callable(self, ins, fields) -> Optional[Callable]:
        """A nested body (``fields``: its parameter fields, then its own) as
        ``body(eng, vals) -> results``: bind ``vals`` to the parameter slots,
        run, and clear the slots the body left bound — a frame of its own.
        ``None`` for no body (a ``ufunc`` fold's map part)."""
        *params, pbody = (getattr(ins, f) for f in fields)
        if pbody is None:
            return None
        pslots = tuple(s for ps in params for s, _ in ps)
        self.depth += 1
        code = self.emit_body(pbody)
        self.depth -= 1
        instrs, res = code
        bound = tuple(s for s, _ in pbody.bound)

        def body(eng, vals):
            regs = eng.regs
            for s, v in zip(pslots, vals):
                regs[s] = v
            for i in instrs:
                i(eng)
            out = res(regs)
            for s in bound:
                regs[s] = None
            return out

        return body

    # -- fused scalar runs ----------------------------------------------------

    def _emit_run(self, ins) -> Callable:
        run_ops = ins.ops  # (not ``ins``: its provenance would pin the source IR)
        los = tuple(self.lay.ops[o] for o in run_ops)
        dead = tuple(s for s, _ in ins.release)
        from . import kernels

        kr = kernels.split_run(ins, self.lay)
        if kr is not None:
            self.kernel_runs[ins] = kr
            return self._emit_kernel_run(ins, kr, los, dead)
        at, blank, slots, refs = _run_inputs(run_ops)
        ops = tuple((x, _emit_run_fn(o, lo, o.donate, at), o.release)
                    for x, (o, lo) in enumerate(zip(run_ops, los)))
        exports, forwards = _run_exports(ins, los, lambda li: True)

        def run(eng):
            regs = eng.regs
            try:
                loc = blank + list(map(_DATA, map(regs.__getitem__, slots)))
            except AttributeError:
                raise _unbound(regs, refs) from None
            for x, op, rel in ops:
                loc[x] = op(loc)
                for i in rel:
                    loc[i] = None
            for li, s, k in exports:
                regs[s] = BV(loc[li], k)
            for r, s in forwards:
                regs[s] = regs[r]
            for s in dead:
                regs[s] = None

        return run

    def _emit_kernel_run(self, ins, kr, los, dead) -> Callable:
        """``ins``'s NumPy part (no release or donation: the kernel reads after it), then its
        C part ``kr`` as one kernel call (``_Engine.hot``) or its NumPy closures; returns if
        the kernel ran."""
        from .kernels import kernel

        cpart = kr.cpart
        at, blank, slots, refs = _run_inputs(ins.ops)
        ops = [(x, _emit_run_fn(o, lo, o.donate if cpart[x] else (), at),
                o.release if cpart[x] else ()) for x, (o, lo) in enumerate(zip(ins.ops, los))]
        np_part, c_part = (tuple(p for p in ops if cpart[p[0]] == c) for c in (False, True))
        inputs = tuple(at(x) for x, _b in kr.inputs)
        np_exports, forwards = _run_exports(ins, los, lambda li: not cpart[li])
        c_exports, call = kr.exports, kernel(kr, self.queue)
        nones = (None,) * len(c_exports)

        def run(eng):
            regs = eng.regs
            try:
                loc = blank + list(map(_DATA, map(regs.__getitem__, slots)))
            except AttributeError:
                raise _unbound(regs, refs) from None
            for x, op, _rel in np_part:
                loc[x] = op(loc)
            outs = call(list(map(loc.__getitem__, inputs))) if eng.hot else None
            for x, op, rel in c_part if outs is None else ():
                loc[x] = op(loc)
                for i in rel:
                    loc[i] = None
            for (li, s, k), d in zip(c_exports, outs or nones):
                regs[s] = BV(loc[li] if d is None else d, k)
            for li, s, k in np_exports:
                regs[s] = BV(loc[li], k)
            for r, s in forwards:
                regs[s] = regs[r]
            for s in dead:
                regs[s] = None
            return outs is not None

        return run


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """An executable lowering of one ``Fun``: flat instruction closures over
    slots, emitted from the shared plan IR (``exec/lower.py``).  Plans are
    shape-generic: one serves every concrete shape of a rank/dtype
    signature.  It keeps one ``body``, emitted from the IR and its static
    ``layout``.

    Argument checking and coercion, ``errstate``, the execute span and
    result unwrapping live in ``run``.  With ``profile``
    every closure this class emits, nested ones included, is timed by
    ``obs/profiler.py:timer``.  Its kernel runs (``exec/kernels.py``) run
    compiled from its ``HOT_CALLS``-th execution on: the execution before
    queues their input patterns, and each execution that finds patterns
    queued first builds their loops, all in one compiler call; its ``upd``s
    try the launcher's ``updacc``.  No compiler runs before."""

    def __init__(self, fun: Fun, ir: Optional[PlanIR] = None, profile: bool = False) -> None:
        with _obs_tracing.span("emit", cat="compile", fun=fun.name):
            if ir is None:
                ir = lower_fun(fun)
            self.fun = fun
            self.profile = profile
            self.param_slots = ir.param_slots
            self.param_types = ir.param_types
            self.nslots = ir.nslots
            #: Statements collapsed into fused scalar runs (recursive).
            self.fused_stms = ir.fused
            lay = layout(ir)
            em = _ClosureEmitter(lay, timer(fun) if profile else None)
            self.body = em.emit_body(ir.body)
            #: The plan has kernel runs or ``upd``s; ``_calls`` counts its executions.
            self.kernels, self._calls = bool(em.kernel_runs) or em.upds, itertools.count()
            self._queue, self._upds, self._updacc = em.queue, em.upds, None
            if em.kernel_runs and verify_mode() != "off":
                from .verify_plan import verify_layout

                verify_layout(ir, lay, "kernels", em.kernel_runs)
        with _LOCK:
            _count_plan(ir)

    def __repr__(self) -> str:
        return (
            f"<Plan {self.fun.name}: {len(self.body[0])} instrs, "
            f"{self.nslots} slots, {self.fused_stms} fused>"
        )

    def run(self, args: Sequence[object]) -> Tuple[object, ...]:
        if len(args) != len(self.param_slots):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_slots)} arguments, "
                f"got {len(args)}"
            )
        with _span("execute", cat="exec", fun=self.fun.name):
            n = next(self._calls)
            if n == HOT_CALLS - 1 and self.kernels:
                PLAN_STATS.add("promotions")
                from .kernels import updacc

                self._updacc = updacc() if self._upds else None
            if self._queue and n >= HOT_CALLS - 1:
                from .kernels import build

                build(self._queue)
            eng = _Engine(self.nslots, n >= HOT_CALLS - 2, self._updacc)
            regs = eng.regs
            for s, a, t in zip(self.param_slots, args, self.param_types):
                regs[s] = BV(np.asarray(coerce_arg(a, t)), 0)
            with np.errstate(all="ignore"):
                res = _run_body(eng, self.body)
            if eng.updacc is not None:
                PLAN_STATS.add("upd_fallbacks", eng.upd_calls[0])
                PLAN_STATS.add("upd_kernel_calls", eng.upd_calls[1])
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = np.asarray(r.data)
                out.append(d if d.ndim else d[()])
            return tuple(out)

    def run_batched(self, args, batched, batch_size) -> Tuple[object, ...]:
        """Bench-only residue (``bench/staged.py``): ``call_batched`` on ``self.fun``."""
        from ..frontend.function import checked_batched_fun

        return plan_for(checked_batched_fun(self.fun, args, batched, batch_size), args).run(args)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

#: Counters for the module-level plan cache (reset on clear).  Every
#: ``plan_for`` call increments exactly one of ``misses`` (a lowering — by
#: construction one per rank/dtype signature) or ``hits``; ``evictions``
#: counts LRU drops and ``fused_stms`` scalar statements collapsed into fused
#: run closures; ``promotions`` plans with kernel runs or ``upd``s that got hot, ``kernels`` /
#: ``kernel_vector_loops`` / ``kernel_builds`` / ``kernel_compile_s`` loops compiled,
#: loops gcc vectorised, compiler calls and their seconds, ``kernel_fallbacks`` hot
#: kernel-run calls that ran NumPy with no build queued, ``upd_kernel_calls`` /
#: ``upd_fallbacks`` a hot plan's ``upd``s that ran in C / NumPy (``_Engine``).
#: ``specialized_hits``: always 0 (``bench`` reads it).
PLAN_STATS = _obs_metrics.counter_group(
    "plan_cache",
    {
        "hits": 0,
        "misses": 0,
        "specialized_hits": 0,
        "promotions": 0,
        "evictions": 0,
        "fused_stms": 0,
        "kernels": 0, "kernel_vector_loops": 0, "kernel_builds": 0, "kernel_compile_s": 0.0,
        "kernel_fallbacks": 0, "upd_kernel_calls": 0, "upd_fallbacks": 0,
    },
)

#: The cache (key: see ``plan_for``).  Mutated only under ``_LOCK`` together
#: with the stats dicts (a ``Compiled`` may be called from several threads).
_CACHE = BoundedLRU()
_LOCK = threading.RLock()
_MISS = object()

_DEFAULT_CACHE_SIZE = 512
HOT_CALLS = 3  # the execution from which a plan's kernel runs run compiled (``Plan``)


def _sig_of(args: Sequence[object]) -> tuple:
    """The cache signature: per-arg rank and dtype — concrete extents
    dropped, so a D0→D6 shape sweep shares one entry."""
    sig = []
    for a in args:
        arr = np.asarray(a)
        sig.append((arr.ndim, arr.dtype.str))
    return tuple(sig)


def plan_for(fun: Fun, args: Sequence[object]) -> Plan:
    """The cached plan for ``fun`` given ``args``' ranks/dtypes, keyed by
    ``(ir_hash(fun), profile, rank/dtype signature)`` (module
    docstring, "Caching": why the content hash, and why no extents;
    ``profile``: under ``REPRO_PROFILE`` the closures are timed at every
    depth).

    The whole lookup — cache mutation, counters, and any lowering — runs
    under one re-entrant lock, so concurrent callers can never corrupt the
    LRU order or lose stat increments (and a plan is lowered once, not once
    per racing thread).
    """
    profile = profile_enabled()
    key = (ir_hash(fun), profile, _sig_of(args))
    with _LOCK:
        plan = _CACHE.get(key, _MISS)
        if plan is _MISS:
            PLAN_STATS["misses"] += 1
            plan = Plan(fun, profile=profile)
            PLAN_STATS["evictions"] += _CACHE.put(key, plan, _DEFAULT_CACHE_SIZE)
        else:
            PLAN_STATS["hits"] += 1
        return plan


def _count_plan(ir: PlanIR) -> None:
    """Add one emitted plan's static totals to the counters (under ``_LOCK``)."""
    PLAN_STATS["fused_stms"] += ir.fused
    for k, n in ir.mem.items():
        MEM_STATS.add(k, n)
    for k, n in ir.index.items():
        INDEX_STATS.add(k, n)


def plan_cache_stats() -> Dict[str, object]:
    """A snapshot of the cache counters plus the current entry count
    (``entries``)."""
    with _LOCK:
        return {
            **PLAN_STATS,
            "entries": len(_CACHE),
            # The memory plan (exec/lower.py): static sizes summed over the
            # plans emitted, and the donations that fell back at run time.
            "mem": dict(MEM_STATS),
            # Index provenance (exec/lower.py): indexed reads/updates on the
            # view path and reads left as gathers, summed over the plans
            # emitted, and the view ops that fell back at run time.
            "index": dict(INDEX_STATS),
        }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset all counters.  To zero the counters
    while *keeping* cached plans, use ``reset_plan_cache_stats``."""
    with _LOCK:
        _CACHE.clear()
        reset_plan_cache_stats()


def reset_plan_cache_stats() -> None:
    """Zero the counters without dropping cached plans — the ``reset_*``
    counterpart of the other stats surfaces, registered with
    ``obs.reset_all()``."""
    with _LOCK:
        PLAN_STATS.reset()
        MEM_STATS.reset()
        INDEX_STATS.reset()


_obs_metrics.register_source("plan_cache", plan_cache_stats, reset_plan_cache_stats)


def run_fun_plan(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    """Evaluate ``fun`` via the (cached) plan backend."""
    return plan_for(fun, args).run(args)
