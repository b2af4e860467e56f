"""Static work / span / memory-traffic cost model over the IR.

The dynamic cost model (``exec/cost.py``) *measures* a reference-interpreted
execution; this module *predicts* the same machine-independent quantities by
walking the IR once, without running it.  It is an estimator with two
readers and makes no decision of its own:

* ``ir/schedule.py``'s ``apply_schedule(strict=True)`` attaches a
  ``schedule=`` to the statement with the largest estimated work
  (``stm_work``);
* ``obs/profiler.py`` prints the estimate next to each instruction's
  measured time (the ``est_work`` column).

Shape facts come from ``ir.analysis.infer_static_shapes`` when concrete
argument shapes are available (``estimate_fun(fun, arg_shapes)``); otherwise
every unknown array dimension is assumed to have ``DEFAULT_EXTENT`` elements
and unknown loop trip counts ``DEFAULT_TRIP`` iterations, so the estimator
degrades to a *relative* model: exact extents cancel when two statements of
the same program are ranked, and matter only for absolute predictions
(validated against ``CostRecorder`` on the fuzz corpus by the property-test
suite — constant-factor agreement and rank-order consistency).

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
    "DEFAULT_EXTENT",
    "DEFAULT_TRIP",
    "SOAC_OVERHEAD",
]


# ---------------------------------------------------------------------------
# Calibration constants
# ---------------------------------------------------------------------------

#: Assumed extent of an array dimension of unknown size.
DEFAULT_EXTENT = 64

#: Assumed trip count of a loop with unknown bound.
DEFAULT_TRIP = 16

#: Fixed work charged per SOAC *launch* — the per-dispatch constant that
#: makes two sibling maps cost more than their horizontally fused form even
#: though the element work is unchanged.
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
        """One scalar ranking metric: work plus memory traffic."""
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
    assumed ``DEFAULT_EXTENT``/``DEFAULT_TRIP``).  The model is purely
    syntactic otherwise: it never executes anything.
    """

    def __init__(self, info: Optional[StaticInfo] = None) -> None:
        self.shapes: Dict[str, Tuple[int, ...]] = dict(info.shapes) if info else {}
        self.ints: Dict[str, int] = dict(info.ints) if info else {}

    # -- shape/size queries ---------------------------------------------------

    def elems_of(self, a: Atom) -> float:
        """Estimated element count of an atom's value."""
        if isinstance(a, Const):
            return 1.0
        s = self.shapes.get(a.name)
        if s is not None:
            return float(max(1, _prod(s)))
        r = rank_of(a.type)
        return float(DEFAULT_EXTENT ** r) if r > 0 else 1.0

    def is_array(self, a: Atom) -> bool:
        return isinstance(a, Var) and rank_of(a.type) > 0

    def extent_of(self, arrs: Sequence[Var]) -> float:
        """Estimated leading extent shared by a SOAC's input arrays."""
        for a in arrs:
            s = self.shapes.get(a.name)
            if s is not None and len(s) >= 1:
                return float(s[0])
        return float(DEFAULT_EXTENT)

    def int_of(self, a: Atom, fallback: Optional[float] = None) -> float:
        if isinstance(a, Const):
            try:
                return float(max(0, int(a.value)))
            except (TypeError, ValueError):
                pass
        elif a.name in self.ints:
            return float(max(0, self.ints[a.name]))
        return float(DEFAULT_EXTENT if fallback is None else fallback)

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
            n = self.int_of(e.n, fallback=DEFAULT_TRIP)
            inner = self.body(e.body)
            return inner.scaled(n, span_k=n) + Estimate(span=1.0)
        if isinstance(e, WhileLoop):
            n = (self.int_of(e.bound, fallback=DEFAULT_TRIP)
                 if e.bound is not None else float(DEFAULT_TRIP))
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
    """Shape-agnostic weight of one statement (work + traffic) — how
    ``apply_schedule(strict=True)`` finds the dominant statement."""
    return estimate_stm(stm).total
