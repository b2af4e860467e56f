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
  loops) — nested bodies included, which reach it as callables;
* this module **emits** the IR as a flat sequence of Python closures, one
  per instruction, over a slot-indexed register file — each closure reads
  operands, calls the kernel (a nested body passed as a closure that binds
  its parameter slots and runs its own instructions) and assigns/releases
  slots, or runs a fused scalar run (the interpreter emitter) — and hosts
  the runtime (``_Engine``), the one ``run``/``run_batched`` driver and the
  plan cache shared by both emitters.  Under ``REPRO_PROFILE`` it passes
  every closure it emits, at every depth, through ``obs/profiler.py:timer``;
* ``exec/codegen.py`` emits the same IR as the source of a single Python
  function (``backend="codegen"``) — no per-instruction dispatch at all.

Both emitters call the same kernels, so for instruction semantics they agree
by construction; the test suite runs every program on ``ref``, ``plan`` and
``codegen``, where agreement with ``ref`` checks the kernels and the bitwise
``plan`` ↔ ``codegen`` assertion checks binding, releases and fused runs.

Caching
-------

``plan_for(fun, args, batched=..., emitter=...)`` memoises plans in one
module-level, lock-guarded LRU keyed by ``(ir_hash(fun), emitter, profile,
batched flags, rank/dtype signature)``.  The key leads with the alpha-invariant
content hash (``ir.analysis.ir_hash``), so alpha-equivalent ``Fun`` bodies
— retraced derivatives, re-optimised copies — share one lowering instead
of one per object identity.  Concrete extents are not part of the key:
plans are shape-generic, so one lowering serves a whole problem-size sweep
(GMM D0→D6, BA camera counts) instead of re-lowering per shape and
churning the LRU.  The emitter dimension separates closure plans from
codegen code objects, and ``profile`` (``REPRO_PROFILE`` set, ``plan``
only) timed closures from plain ones.

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

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import ir_hash
from ..ir.ast import Fun
from ..ir.types import np_dtype
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..obs.profiler import profile_enabled, timer
from ..util import BoundedLRU, ExecError
from .lower import IntRef, Layout, PlanIR, Ref, layout, lower_fun, outer_release
from .prims import _BINOPS, cast_to, unop_fn
from .values import coerce_arg
from .vector import (
    _STATS_LOCK,
    INDEX_STATS,
    MEM_STATS,
    AccBV,
    BV,
    _elem_into,
    _expand,
    _gather,
    _index,
    _uniform_int,
    kernel_of,
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
]

_span = _obs_tracing.span


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


class _Engine:
    """Mutable per-call state: register file, batch stack, predication mask.
    Nothing outlives the call."""

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
    reads a ``BV``, an ``IntRef`` a lane-uniform integer (a literal, or a
    register read validated per call), a tuple of operands a list of
    theirs."""
    if isinstance(x, tuple):
        rds = tuple(_operand(r) for r in x)
        return lambda regs, _rds=rds: [rd(regs) for rd in _rds]
    if not isinstance(x, IntRef):
        return _reader(x)
    if x.const is not None:
        return lambda regs, _n=x.const: _n
    return lambda regs, _rd=_reader(x.ref), _w=x.what: _uniform_int(_rd(regs), _w)


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


def _run_operand(x) -> Callable:
    """A ``(regs, loc) -> BV`` accessor: run-local values (``int`` indices)
    read from the closure-local list, everything else from the register
    file."""
    if isinstance(x, int):
        return lambda regs, loc, _i=x: loc[_i]
    base = _reader(x)
    return lambda regs, loc, _b=base: _b(regs)


def _run_data(x, sel) -> Callable:
    """A ``(regs, loc) -> ndarray`` accessor of a run operand's data, lined
    up by its static selector ``sel`` (``exec/lower.py``: ``layout``)."""
    if isinstance(x, int):
        if sel is None:
            return lambda regs, loc, _i=x: loc[_i].data
        return lambda regs, loc, _i=x, _s=sel: loc[_i].data[_s]
    if x.slot is None:
        d = x.bv.data if sel is None else x.bv.data[sel]
        return lambda regs, loc, _d=d: _d
    base = _reader(x)
    if sel is None:
        return lambda regs, loc, _b=base: _b(regs).data
    return lambda regs, loc, _b=base, _s=sel: _b(regs).data[_s]


def _emit_run_op(o, lo) -> Callable:
    """The closure of run op ``o`` at layout ``lo``, clearing the run-local
    values that die at it."""
    fn = _emit_run_fn(o, lo)
    if not o.release:
        return fn

    def releasing(regs, loc, _fn=fn, _dead=o.release):
        v = _fn(regs, loc)
        for i in _dead:
            loc[i] = None
        return v

    return releasing


def _emit_run_fn(o, lo) -> Callable:
    """One direct NumPy call per op: every operand's data lined up by its
    static selector, the result at the op's static batch depth ``lo.k``."""
    kind, k = o.kind, lo.k
    if kind == "atom":
        return _run_operand(o.xs[0])
    if kind in ("unop", "binop", "select"):
        rds = tuple(_run_data(x, s) for x, s in zip(o.xs, lo.sels))
        uf, don = _scalar_fn(o), o.donate
        if kind == "select":
            rc, rt, rf = rds
            return lambda regs, loc, _rc=rc, _rt=rt, _rf=rf, _uf=uf, _k=k: BV(
                _uf(_rc(regs, loc), _rt(regs, loc), _rf(regs, loc)), _k)
        # ``donate``: an out=-capable ufunc (``INPLACE_OPS``) with some operand
        # a dead run-local temporary computes into it when that is safe.
        rx = rds[0]
        if kind == "unop":
            if don:
                return lambda regs, loc, _rx=rx, _uf=uf, _don=don, _k=k: (
                    _elem_into(_uf, _don, _k, [_rx(regs, loc)]))
            if k + o.pranks[0] == 0:  # a 0-d result: ufuncs return a scalar
                return lambda regs, loc, _rx=rx, _uf=uf, _a=np.asarray: BV(
                    _a(_uf(_rx(regs, loc))), 0)
            return lambda regs, loc, _rx=rx, _uf=uf, _k=k: BV(_uf(_rx(regs, loc)), _k)
        ry = rds[1]
        if don:
            return lambda regs, loc, _rx=rx, _ry=ry, _uf=uf, _don=don, _k=k: (
                _elem_into(_uf, _don, _k, [_rx(regs, loc), _ry(regs, loc)]))
        if k + max(o.pranks) == 0:
            return lambda regs, loc, _rx=rx, _ry=ry, _uf=uf, _a=np.asarray: BV(
                _a(_uf(_rx(regs, loc), _ry(regs, loc))), 0)
        return lambda regs, loc, _rx=rx, _ry=ry, _uf=uf, _k=k: BV(
            _uf(_rx(regs, loc), _ry(regs, loc)), _k)
    if kind == "cast":
        return lambda regs, loc, _rx=_run_data(o.xs[0], None), _dt=o.dtype, _k=k: BV(
            cast_to(_rx(regs, loc), _dt), _k)
    if kind == "index":
        ra = _run_data(o.xs[0], None)
        ris = tuple(_run_data(x, None) for x in o.xs[1:])
        if o.affine is None:
            return lambda regs, loc, _ra=ra, _ris=ris, _k=k, _s=lo.sels: _gather(
                _ra(regs, loc), [r(regs, loc) for r in _ris], _k, _s)
        return lambda regs, loc, _ra=ra, _ris=ris, _k=k, _s=lo.sels, _v=lo.view: _index(
            _ra(regs, loc), [r(regs, loc) for r in _ris], _k, _s, _v)
    if kind == "zeroslike":
        return lambda regs, loc, _rx=_run_data(o.xs[0], None), _k=k: BV(
            np.zeros_like(np.asarray(_rx(regs, loc))), _k)
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

    def emit_body(self, pbody) -> tuple:
        instrs = tuple(self._emit_ins(i) for i in pbody.instrs)
        if self.wrap is not None:
            instrs = tuple(self.wrap(c, i, self.depth) for c, i in zip(instrs, pbody.instrs))
        res = tuple(_reader(r) for r in pbody.result)
        return instrs, res

    def _emit_ins(self, ins) -> Callable:
        if ins.kind == "run":
            return self._emit_run(ins)
        kernel, operands, statics, bodies = kernel_of(ins)
        reads = tuple(_operand(getattr(ins, f)) for f in operands)
        consts = tuple(self.lay.static(ins, f) for f in statics)
        consts += tuple(self._emit_callable(ins, fields) for fields in bodies)

        def fn(eng, _k=kernel, _reads=reads, _consts=consts):
            regs = eng.regs
            return _k(eng, *[rd(regs) for rd in _reads], *_consts)

        if hasattr(ins, "out"):
            return _assign_single(fn, ins.out[0], ins)
        return _assign_multi(fn, ins)

    def _emit_callable(self, ins, fields) -> Callable:
        """A nested body (``fields``: its parameter fields, then its own) as
        ``body(eng, vals) -> results``: bind ``vals`` to the parameter slots,
        run, and clear the slots the body left bound — a frame of its own, as
        a nested ``def`` is in ``exec/codegen.py``."""
        *params, pbody = (getattr(ins, f) for f in fields)
        pslots = tuple(s for ps in params for s, _ in ps)
        self.depth += 1
        code = self.emit_body(pbody)
        self.depth -= 1
        bound = tuple(s for s, _ in pbody.bound)

        def body(eng, vals, _ps=pslots, _code=code, _bound=bound):
            regs = eng.regs
            for s, v in zip(_ps, vals):
                regs[s] = v
            res = _run_body(eng, _code)
            for s in _bound:
                regs[s] = None
            return res

        return body

    # -- fused scalar runs ----------------------------------------------------

    def _emit_run(self, ins) -> Callable:
        run_ops = ins.ops  # (not ``ins``: its provenance would pin the source IR)
        los = tuple(self.lay.ops[o] for o in run_ops)
        ops = tuple(_emit_run_op(o, lo) for o, lo in zip(run_ops, los))
        dead = tuple(s for s, _ in ins.release)
        if len(ops) == 1 and not dead:
            # A standalone scalar statement: one export, no locals.
            (_, s0, _n) = ins.exports[0]

            def one(eng, _op=ops[0], _s=s0):
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


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class Plan:
    """An executable lowering of one ``Fun``: flat instruction closures over
    slots, emitted from the shared plan IR (``exec/lower.py``).  Plans are
    shape-generic: one serves every concrete shape of a rank/dtype
    signature.  What is emitted depends on the batched-argument flags
    (``None`` for ``run``) through the IR's static ``layout``, so a plan
    keeps one emitted body per flags tuple: the one it was built for
    (``flags``), and any other the first time it runs with it.

    This class is also the one driver of the plan family: argument checking
    and coercion, ``errstate``, the execute span and result unwrapping live in
    ``run``/``run_batched``; the emitter subclass ``CodegenPlan`` supplies
    ``_emit`` — what it builds from the IR and a layout — and ``_invoke`` —
    how that runs.  With ``profile`` every closure this class emits, nested
    ones included, is timed by ``obs/profiler.py:timer``."""

    #: ``EMITTER_STATS`` bucket and span label; subclasses override it so
    #: their constructions are attributed apart.
    emitter_name = "plan"

    def __init__(self, fun: Fun, ir: Optional[PlanIR] = None,
                 flags: Optional[Sequence[bool]] = None, profile: bool = False) -> None:
        with _obs_tracing.timed(
            "emit", cat="compile", fun=fun.name, emitter=self.emitter_name
        ) as tm:
            if ir is None:
                ir = lower_fun(fun)
            self.fun = fun
            self.profile = profile
            self.param_slots = ir.param_slots
            self.param_types = ir.param_types
            self.nslots = ir.nslots
            #: Statements collapsed into fused scalar runs (recursive).
            self.fused_stms = ir.fused
            #: flags (``None``: unbatched) -> the body emitted for them.
            self.bodies: Dict[Optional[Tuple[bool, ...]], object] = {}
            built = self._add_body(ir, _flags_key(flags))
        with _LOCK:
            _count_plan(ir)
            self._count(plans=1, emit_s=tm.seconds, **built)

    def _count(self, **built) -> None:
        """Add ``built`` to this emitter's ``EMITTER_STATS`` row (under ``_LOCK``)."""
        st = EMITTER_STATS.setdefault(self.emitter_name, {})
        for k, v in built.items():
            st[k] = st.get(k, 0) + v

    def _add_body(self, ir: PlanIR, flags: Optional[Tuple[bool, ...]]) -> Dict[str, object]:
        body, built = self._emit(ir, layout(ir, flags))
        self.bodies.setdefault(flags, body)
        return built

    def _body(self, flags: Optional[Tuple[bool, ...]]):
        """The body emitted for ``flags``, emitted now — from a fresh lowering:
        a plan keeps its bodies, not the IR — if this is the first call with
        them."""
        body = self.bodies.get(flags)
        if body is not None:
            return body
        with _obs_tracing.timed(
            "emit", cat="compile", fun=self.fun.name, emitter=self.emitter_name
        ) as tm:
            built = self._add_body(lower_fun(self.fun), flags)
        with _LOCK:
            self._count(emit_s=tm.seconds, **built)
        return self.bodies[flags]

    def _emit(self, ir: PlanIR, lay: Layout) -> Tuple[object, Dict[str, object]]:
        """The body this emitter builds from ``ir`` under ``lay``, and what
        building it adds to the emitter's ``EMITTER_STATS`` row (closures:
        nothing)."""
        wrap = timer(self.fun) if self.profile else None
        return _ClosureEmitter(lay, wrap).emit_body(ir.body), {}

    def _invoke(self, body, eng: _Engine, vals: List[BV]) -> Tuple[object, ...]:
        """Run the emitted ``body`` on the parameter values ``vals``."""
        regs = eng.regs
        for s, v in zip(self.param_slots, vals):
            regs[s] = v
        return _run_body(eng, body)

    def __repr__(self) -> str:
        return (
            f"<Plan {self.fun.name}: {len(next(iter(self.bodies.values()))[0])} instrs, "
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
        body = self._body(_flags_key(batched))
        with _span("execute", cat="exec", fun=self.fun.name,
                   emitter=self.emitter_name, **how):
            eng = _Engine(self.nslots)
            if batched is not None:
                eng.bstack.append(b)
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
            with np.errstate(all="ignore"):
                res = self._invoke(body, eng, vals)
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


def _flags_key(flags: Optional[Sequence[bool]]) -> Optional[Tuple[bool, ...]]:
    return None if flags is None else tuple(bool(f) for f in flags)


def _emitter_class(name: str):
    """The plan class of emitter ``name``.  The import is local because
    ``codegen`` imports this module; it is loaded with the package
    (``exec/__init__``)."""
    if name == "plan":
        return Plan
    if name == "codegen":
        from .codegen import CodegenPlan

        return CodegenPlan
    raise ExecError(f"unknown plan emitter {name!r} (have 'plan', 'codegen')")


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
    ``(ir_hash(fun), emitter, profile, batched flags, rank/dtype signature)``
    (module docstring, "Caching": why the content hash, and why no extents).

    ``emitter`` picks how the lowered IR executes — ``"plan"`` (closure
    interpreter, the default; ``profile``: its closures timed at every depth,
    under ``REPRO_PROFILE``) or ``"codegen"`` (compiled source).  The whole
    lookup — cache mutation, counters, and any lowering — runs under one
    re-entrant lock, so concurrent callers can never corrupt the LRU order
    or lose stat increments (and a plan is lowered once, not once per racing
    thread).
    """
    emitter = emitter or "plan"
    build = _emitter_class(emitter)
    profile = emitter == "plan" and profile_enabled()
    flags = tuple(batched) if batched is not None else None
    key = (ir_hash(fun), emitter, profile, flags, _sig_of(args))
    with _LOCK:
        plan = _CACHE.get(key, _MISS)
        if plan is _MISS:
            PLAN_STATS["misses"] += 1
            plan = build(fun, flags=flags, profile=profile)
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
                "layout_checks": VERIFY_STATS["layout_checks"],
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
