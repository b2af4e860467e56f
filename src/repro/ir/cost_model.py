"""Static work / span / memory-traffic cost model over the IR.

The dynamic cost model (``exec/cost.py``) *measures* a reference-interpreted
execution; this module *predicts* the same machine-independent quantities by
walking the IR once, without running it.  The prediction is what turns the
system's optimisation heuristics into decisions:

* ``opt/fusion.py`` fuses a producer/consumer pair only when the estimate
  says the fused SOAC carries less memory traffic and no more work
  (``REPRO_FUSE_COST``);
* ``exec/shard.py`` picks its shard point by estimated per-element SOAC
  work and sizes chunks so each pool task carries roughly
  ``REPRO_COST_TASK_GRAIN`` work units (the old
  ``REPRO_SHARD_MIN_CHUNK``/``REPRO_SHARD_MAX_TASKS`` knobs remain as
  overrides, not the policy).

Shape facts come from ``ir.analysis.infer_static_shapes`` when concrete
argument shapes are available; otherwise every unknown array dimension is
assumed to have ``REPRO_COST_DEFAULT_EXTENT`` elements and unknown loop trip
counts ``REPRO_COST_LOOP_TRIP`` iterations, so the estimator degrades to a
*relative* model: exact extents cancel when two candidate rewrites of the
same program are compared (the fusion gate), and matter only for absolute
predictions (validated against ``CostRecorder`` on the fuzz corpus by the
property-test suite — constant-factor agreement and rank-order consistency).

The estimate mirrors ``CostRecorder``'s accounting: ``work`` counts scalar
operations (a bulk op over m elements costs m), ``span`` the work-depth
critical path (map iterations in parallel, reduce/scan combine in
``O(log n)`` levels, loops sequentially), ``mem`` the global-memory element
traffic (array reads + writes; scalars live in registers).  ``If`` branches
are estimated as the componentwise maximum of the two branches plus the
condition — the static model cannot know which branch runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import StaticInfo, infer_static_shapes
from .ast import (
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
from .types import rank_of
from ..util import env_capacity

__all__ = [
    "Estimate",
    "ZERO",
    "CostModel",
    "estimate_fun",
    "estimate_stm",
    "estimate_stms",
    "estimate_exp",
    "soac_estimates",
    "stm_work",
    "soac_elem_cost",
    "schedule_candidates",
    "score_schedule",
    "choose_schedule",
    "PARALLEL_TASK_OVERHEAD",
    "fusion_wins",
    "default_extent",
    "task_grain",
    "SOAC_OVERHEAD",
]


# ---------------------------------------------------------------------------
# Calibration constants (env-overridable; defaults documented in README)
# ---------------------------------------------------------------------------


def default_extent() -> int:
    """Assumed extent of an array dimension of unknown size
    (``REPRO_COST_DEFAULT_EXTENT``)."""
    return max(1, env_capacity("REPRO_COST_DEFAULT_EXTENT", 64))


def default_trip() -> int:
    """Assumed trip count of a loop with unknown bound
    (``REPRO_COST_LOOP_TRIP``)."""
    return max(1, env_capacity("REPRO_COST_LOOP_TRIP", 16))


def task_grain() -> int:
    """Estimated work+traffic units one shard pool task should carry
    (``REPRO_COST_TASK_GRAIN``).  Calibrated so a task amortises its
    dispatch overhead (a plan-cache lookup plus a pool future, ~tens of
    microseconds) against bulk NumPy throughput (~a few ns per element-op):
    2**17 units is a few hundred microseconds of useful work."""
    return max(1, env_capacity("REPRO_COST_TASK_GRAIN", 1 << 17))


#: Fixed work charged per SOAC *launch* — the per-dispatch constant that
#: makes horizontally fusing two sibling maps strictly cheaper than running
#: them separately even though their element work is unchanged.
SOAC_OVERHEAD = 8.0


# ---------------------------------------------------------------------------
# Estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """A static prediction of ``exec.cost.Cost``'s counters (floats — the
    model multiplies assumed extents, so fractional confidence-weighted
    contributions are allowed)."""

    work: float = 0.0
    span: float = 0.0
    mem_reads: float = 0.0
    mem_writes: float = 0.0

    @property
    def mem(self) -> float:
        return self.mem_reads + self.mem_writes

    @property
    def total(self) -> float:
        """One scalar decision metric: work plus memory traffic."""
        return self.work + self.mem

    def __add__(self, other: "Estimate") -> "Estimate":
        return Estimate(
            self.work + other.work,
            self.span + other.span,
            self.mem_reads + other.mem_reads,
            self.mem_writes + other.mem_writes,
        )

    def scaled(self, k: float, span_k: float = 1.0) -> "Estimate":
        """``k`` copies of this estimate; ``span_k`` scales the span
        separately (parallel copies keep their span, sequential ones
        multiply it)."""
        return Estimate(
            self.work * k, self.span * span_k, self.mem_reads * k, self.mem_writes * k
        )

    def cost(self):
        """The ``exec.cost.Cost``-compatible integer snapshot."""
        from ..exec.cost import Cost

        return Cost(
            work=int(round(self.work)),
            span=int(round(self.span)),
            mem_reads=int(round(self.mem_reads)),
            mem_writes=int(round(self.mem_writes)),
        )


ZERO = Estimate()


def _emax(a: Estimate, b: Estimate) -> Estimate:
    return Estimate(
        max(a.work, b.work),
        max(a.span, b.span),
        max(a.mem_reads, b.mem_reads),
        max(a.mem_writes, b.mem_writes),
    )


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------


class CostModel:
    """A one-pass estimator over a scope's (possibly partial) shape facts.

    ``shapes`` maps SSA names to known physical shapes, ``ints`` names of
    statically known integers (both as produced by
    ``ir.analysis.infer_static_shapes`` — missing names fall back to the
    assumed ``default_extent``/``default_trip``).  The model is purely
    syntactic otherwise: it never executes anything.
    """

    def __init__(self, info: Optional[StaticInfo] = None) -> None:
        self.shapes: Dict[str, Tuple[int, ...]] = dict(info.shapes) if info else {}
        self.ints: Dict[str, int] = dict(info.ints) if info else {}
        self._dflt = default_extent()
        self._trip = default_trip()

    # -- shape/size queries ---------------------------------------------------

    def elems_of(self, a: Atom) -> float:
        """Estimated element count of an atom's value."""
        if isinstance(a, Const):
            return 1.0
        s = self.shapes.get(a.name)
        if s is not None:
            return float(max(1, _prod(s)))
        r = rank_of(a.type)
        return float(self._dflt ** r) if r > 0 else 1.0

    def is_array(self, a: Atom) -> bool:
        return isinstance(a, Var) and rank_of(a.type) > 0

    def extent_of(self, arrs: Sequence[Var]) -> float:
        """Estimated leading extent shared by a SOAC's input arrays."""
        for a in arrs:
            s = self.shapes.get(a.name)
            if s is not None and len(s) >= 1:
                return float(s[0])
        return float(self._dflt)

    def int_of(self, a: Atom, fallback: Optional[float] = None) -> float:
        if isinstance(a, Const):
            try:
                return float(max(0, int(a.value)))
            except (TypeError, ValueError):
                pass
        elif a.name in self.ints:
            return float(max(0, self.ints[a.name]))
        return float(self._dflt if fallback is None else fallback)

    def out_elems(self, pat: Sequence[Var], fallback: float) -> float:
        """Estimated total element count of a statement's results."""
        total = 0.0
        for v in pat:
            s = self.shapes.get(v.name)
            if s is not None:
                total += float(max(1, _prod(s)))
            elif rank_of(v.type) > 0:
                total += fallback
            else:
                total += 1.0
        return total

    # -- bodies ---------------------------------------------------------------

    def body(self, body: Body) -> Estimate:
        est = ZERO
        for stm in body.stms:
            est = est + self.stm(stm)
        return est

    def stm(self, stm: Stm) -> Estimate:
        return self.exp(stm.exp, stm.pat)

    # -- expressions ----------------------------------------------------------

    def exp(self, e: Exp, pat: Sequence[Var] = ()) -> Estimate:
        if isinstance(e, AtomExp):
            return ZERO  # a rename: copy-propagated away by every executor
        if isinstance(e, (UnOp, BinOp, Select, Cast)):
            ops = [e.x] if isinstance(e, (UnOp, Cast)) else (
                [e.x, e.y] if isinstance(e, BinOp) else [e.c, e.t, e.f]
            )
            n = max(self.elems_of(a) for a in ops)
            reads = sum(self.elems_of(a) for a in ops if self.is_array(a))
            writes = n if any(self.is_array(a) for a in ops) else 0.0
            return Estimate(work=n, span=1.0, mem_reads=reads, mem_writes=writes)
        if isinstance(e, Index):
            n = self.out_elems(pat, self.elems_of(e.arr))
            return Estimate(span=1.0, mem_reads=n)
        if isinstance(e, Update):
            n = self.elems_of(e.val)
            return Estimate(span=1.0, mem_writes=n)
        if isinstance(e, Iota):
            n = self.int_of(e.n)
            return Estimate(span=1.0, mem_writes=n)
        if isinstance(e, Replicate):
            n = self.int_of(e.n) * self.elems_of(e.v)
            return Estimate(span=1.0, mem_writes=n)
        if isinstance(e, ZerosLike):
            n = self.elems_of(e.x)
            return Estimate(span=1.0, mem_writes=n if self.is_array(e.x) else 0.0)
        if isinstance(e, ScratchLike):
            n = self.int_of(e.n) * self.elems_of(e.x)
            return Estimate(span=1.0, mem_writes=n)
        if isinstance(e, Size):
            return Estimate(work=1.0, span=1.0)
        if isinstance(e, Reverse):
            n = self.elems_of(e.x)
            return Estimate(span=1.0, mem_reads=n, mem_writes=n)
        if isinstance(e, Concat):
            n = self.elems_of(e.x) + self.elems_of(e.y)
            return Estimate(span=1.0, mem_reads=n, mem_writes=n)
        if isinstance(e, Scatter):
            n = self.elems_of(e.inds) + self.elems_of(e.vals)
            return Estimate(
                work=self.elems_of(e.inds),
                span=1.0,
                mem_reads=n,
                mem_writes=self.elems_of(e.vals),
            )
        if isinstance(e, UpdAcc):
            n = self.elems_of(e.v)
            return Estimate(work=n, span=1.0, mem_reads=n, mem_writes=n)

        if isinstance(e, Map):
            n = self.extent_of(e.arrs) if e.arrs else 1.0
            inner = self.body(e.lam.body)
            reads = sum(self.elems_of(a) for a in e.arrs)
            writes = self.out_elems(pat, n)
            return Estimate(
                work=inner.work * n + SOAC_OVERHEAD,
                span=inner.span + 1.0,  # parallel iterations
                mem_reads=inner.mem_reads * n + reads,
                mem_writes=inner.mem_writes * n + writes,
            )
        if isinstance(e, (Reduce, Scan)):
            n = self.extent_of(e.arrs)
            inner = self.body(e.lam.body)
            levels = max(1.0, math.ceil(math.log2(max(n, 2.0))))
            reads = sum(self.elems_of(a) for a in e.arrs)
            writes = self.out_elems(pat, n if isinstance(e, Scan) else 1.0)
            return Estimate(
                work=inner.work * n + SOAC_OVERHEAD,
                span=inner.span * levels + 1.0,  # balanced combine tree
                mem_reads=inner.mem_reads * n + reads,
                mem_writes=inner.mem_writes * n + writes,
            )
        if isinstance(e, ReduceByIndex):
            n = self.extent_of((e.inds,) + e.vals)
            m = self.int_of(e.num_bins)
            inner = self.body(e.lam.body)
            reads = self.elems_of(e.inds) + sum(self.elems_of(v) for v in e.vals)
            return Estimate(
                work=inner.work * n + SOAC_OVERHEAD,
                span=inner.span * max(1.0, math.ceil(math.log2(max(n, 2.0)))) + 1.0,
                mem_reads=inner.mem_reads * n + reads + n,  # atomic RMW reads
                mem_writes=inner.mem_writes * n + n + m,  # RMW writes + init
            )

        if isinstance(e, Loop):
            n = self.int_of(e.n, fallback=self._trip)
            inner = self.body(e.body)
            return inner.scaled(n, span_k=n) + Estimate(span=1.0)
        if isinstance(e, WhileLoop):
            n = self.int_of(e.bound, fallback=self._trip) if e.bound is not None else float(self._trip)
            inner = self.body(e.body) + self.body(e.cond.body)
            return inner.scaled(n, span_k=n) + Estimate(span=1.0)
        if isinstance(e, If):
            branch = _emax(self.body(e.then), self.body(e.els))
            return branch + Estimate(work=1.0, span=1.0)
        if isinstance(e, WithAcc):
            init = sum(self.elems_of(a) for a in e.arrs)
            return self.body(e.lam.body) + Estimate(span=1.0, mem_writes=init)

        return ZERO  # unknown/extension node: contributes nothing


def _prod(s: Sequence[int]) -> int:
    p = 1
    for x in s:
        p *= int(x)
    return p


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunEstimate:
    """Per-function estimate: the total plus per-top-level-statement and
    per-SOAC breakdowns (SOACs keyed by ``(kind, first pattern name)``)."""

    total: Estimate
    stms: Tuple[Tuple[Stm, Estimate], ...]
    soacs: Tuple[Tuple[str, str, Estimate], ...]


def _model_for(fun: Fun, arg_shapes) -> CostModel:
    if arg_shapes is None:
        arg_shapes = [None] * len(fun.params)
    return CostModel(infer_static_shapes(fun, arg_shapes))


def estimate_fun(
    fun: Fun,
    arg_shapes: Optional[Sequence[Optional[Tuple[int, ...]]]] = None,
) -> FunEstimate:
    """Statically estimate ``fun``, optionally under concrete argument
    payload shapes (``None`` entries/arg_shapes mean unknown)."""
    model = _model_for(fun, arg_shapes)
    stms: List[Tuple[Stm, Estimate]] = []
    soacs: List[Tuple[str, str, Estimate]] = []
    total = ZERO
    for stm in fun.body.stms:
        est = model.stm(stm)
        stms.append((stm, est))
        if isinstance(stm.exp, (Map, Reduce, Scan, ReduceByIndex, Scatter)):
            soacs.append((type(stm.exp).__name__.lower(), stm.pat[0].name, est))
        total = total + est
    return FunEstimate(total=total, stms=tuple(stms), soacs=tuple(soacs))


def estimate_stm(stm: Stm, model: Optional[CostModel] = None) -> Estimate:
    """Estimate one statement (a fresh shape-agnostic model by default)."""
    return (model or CostModel()).stm(stm)


def estimate_stms(stms: Sequence[Stm], model: Optional[CostModel] = None) -> Estimate:
    """The summed estimate of a statement group — one fused run's worth of
    source statements, as recorded in plan-IR instruction provenance.  The
    profile emitter (``obs/profiler.py``) ranks these against measured
    per-instruction wall-clock."""
    m = model or CostModel()
    est = ZERO
    for s in stms:
        est = est + m.stm(s)
    return est


def estimate_exp(e: Exp, pat: Sequence[Var] = (), model: Optional[CostModel] = None) -> Estimate:
    return (model or CostModel()).exp(e, pat)


def soac_estimates(
    fun: Fun,
    arg_shapes: Optional[Sequence[Optional[Tuple[int, ...]]]] = None,
) -> Tuple[Tuple[str, str, Estimate], ...]:
    """The per-top-level-SOAC estimates of ``estimate_fun`` alone."""
    return estimate_fun(fun, arg_shapes).soacs


def stm_work(stm: Stm) -> float:
    """Shape-agnostic decision weight of one statement (work + traffic) —
    the shard-point selector's replacement for the syntactic statement
    count."""
    est = estimate_stm(stm)
    return est.total


def soac_elem_cost(e: Exp) -> Optional[float]:
    """Estimated per-element cost (work + traffic) of one SOAC's lambda —
    what one extent unit of the sharded axis costs a chunk.  ``None`` for
    non-SOAC expressions."""
    if not isinstance(e, (Map, Reduce, Scan, ReduceByIndex)):
        return None
    model = CostModel()
    inner = model.body(e.lam.body)
    arrs = e.vals if isinstance(e, ReduceByIndex) else e.arrs
    # Each element costs the lambda body plus reading one element per input
    # array and writing one result element.
    per = inner.work + inner.mem + len(arrs) + 1.0
    return max(1.0, per)


# ---------------------------------------------------------------------------
# Decision 0: schedule selection (ir/schedule.py, exec/shard.py, A10)
# ---------------------------------------------------------------------------


#: Fixed cost charged per shard pool task: a plan-cache lookup, a future,
#: and the result hand-back.  Scaled in the same work+traffic units as
#: ``Estimate.total`` so ``score_schedule`` can trade it against the
#: parallel speedup.
PARALLEL_TASK_OVERHEAD = 256.0


def schedule_candidates(stm: Stm):
    """The legal candidate schedules for one statement, default first."""
    from .schedule import (
        Parallel,
        SCHEDULABLE,
        Sequential,
        Vectorized,
        check_schedule,
        default_schedule,
    )

    e = stm.exp
    if not isinstance(e, SCHEDULABLE):
        return ()
    cands = [default_schedule(e)]
    for sched in (
        (Parallel(), Vectorized()),
        (Sequential(default_extent()), Vectorized()),
        (Sequential(),),
    ):
        if sched in cands:
            continue
        if check_schedule(e, sched, n_pat=len(stm.pat)) is None:
            cands.append(sched)
    return tuple(cands)


def score_schedule(
    stm: Stm, sched, workers: Optional[int] = None,
    model: Optional[CostModel] = None,
) -> float:
    """Predicted cost (work+traffic units) of running ``stm`` under
    ``sched``.  Mirrors the shard runtime's own chunking: a ``parallel``
    directive splits the estimated total into ``task_grain()``-sized tasks
    (never more than the dispatch cap) and charges each task its pool
    overhead; a chunked ``sequential`` directive charges one extra SOAC
    launch per chunk.  Lower is better."""
    import os as _os

    from .schedule import Parallel, Sequential, _as_schedule

    total = estimate_stm(stm, model).total
    score = float(total)
    for d in _as_schedule(sched):
        if isinstance(d, Parallel):
            w = d.workers or workers or (_os.cpu_count() or 1)
            ntasks = max(1, min(int(total // task_grain()), 16))
            if ntasks <= 1:
                # Too small to split: the probe itself is pure overhead.
                score += PARALLEL_TASK_OVERHEAD
            else:
                score = (score / max(1, min(w, ntasks))
                         + ntasks * PARALLEL_TASK_OVERHEAD)
        elif isinstance(d, Sequential) and d.chunk > 1:
            score += SOAC_OVERHEAD * max(
                1.0, default_extent() / float(d.chunk)
            )
    return score


def choose_schedule(
    stm: Stm, workers: Optional[int] = None,
    model: Optional[CostModel] = None,
):
    """The cost model's schedule pick for one statement: the cheapest legal
    candidate under ``score_schedule``.  This is what the shard runtime's
    split inference and ablation A10's per-row 'chosen' column report."""
    cands = schedule_candidates(stm)
    if not cands:
        return ()
    return min(cands, key=lambda s: score_schedule(stm, s, workers, model))


# ---------------------------------------------------------------------------
# Decision 1: the fusion gate (opt/fusion.py)
# ---------------------------------------------------------------------------


def fusion_wins(
    before: Sequence[Stm], after: Sequence[Stm], model: Optional[CostModel] = None
) -> bool:
    """True when replacing ``before`` with ``after`` is predicted to reduce
    memory traffic without increasing work.

    This is the cost gate ``REPRO_FUSE_COST=on`` puts in front of every
    vertical/horizontal fusion step: vertical fusion eliminates the
    intermediate array's write+read (traffic strictly drops, work is
    unchanged — the producer still runs once per element thanks to the
    engine's single-use requirement), and horizontal fusion saves one SOAC
    launch.  The 5% work headroom absorbs the model's If-branch
    over-approximation differing across the two shapes of the same program.
    """
    m = model or CostModel()
    eb = ZERO
    for s in before:
        eb = eb + m.stm(s)
    ea = ZERO
    for s in after:
        ea = ea + m.stm(s)
    return ea.total <= eb.total and ea.work <= eb.work * 1.05 + 1.0
