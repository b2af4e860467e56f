"""Backend-neutral lowering: ``Fun`` → linear, shape-generic plan IR.

Every compile-time decision of the plan family (slot allocation, scalar-run
fusion, SOAC fast-path recognition, the memory plan) is made here, once.
The **plan IR** is a flat sequence of instruction records
over a slot-numbered register space, with every statically resolvable choice
already made — and none that depends on a concrete extent, so one lowering
serves every shape of a rank/dtype signature:

* atoms resolve to slots (``Ref`` with a slot index) or prebuilt scalar
  ``BV`` constants;
* runs of ≥2 adjacent scalar statements (``_RUN_FUSIBLE``) collapse into one
  ``IRun`` whose interior temporaries never touch the register file (what
  a run exports comes from ONE last-use pass per body);
* a reduce, scan or histogram is one ``IFold``; its operator is recognised
  (``recognize_redomap_lambda``) and the chosen strategy recorded on it —
  redomap (a recognised operator after a map part), ufunc (the redomap
  with an identity map part, run with none) or generic fold;
* the **memory plan**: every instruction lists the slots to ``release``
  after it, every ``RunOp`` the run-local values that die at it and which of
  those it may compute into (``donate``) — see ``_Lowerer.lower_body`` and
  ``_plan_run_memory``.  The liveness comes from the same last-use pass
  that finds the run exports;
* **index provenance**: which reads are gathers.  An integer name is
  *lane-affine* when it is a ``map``/redomap/hist map-part parameter bound
  to an ``iota``-defined array, or such a name ``±`` an integer literal
  (also through copies); *uniform* when it is an integer literal, a loop
  counter, a ``length`` or a binary operation on those.  An ``index`` or
  ``upd_acc`` all of whose index operands are one or the other carries
  ``affine`` flags and takes the view path of ``exec/vector.py``
  (``_index`` / ``_upd_acc``); any other stays a clipped gather /
  scatter-add through one linear index (``np.take`` / ``np.add.at``, see
  ``vector._linear``).  The facts are scoped to the binding body (sibling
  scopes reuse names) — see ``_Lowerer.facts``.  A redomap over ``add``
  from 0, or an accumulator map, over ``iota``s and replicates that only
  multiplies such reads and lane scalars is an ``IContract`` (matrix
  products; ``contract_terms``), the map (part) its exact fallback;
* **layout**: every value's payload rank and dtype are in its IR type
  (``RunOp.pranks``, ``RunOp.dtype``) and its batch depth is where it is
  computed in the flattening nest, so all are fixed when a plan is emitted.
  ``layout(ir)`` — one pass, a fixpoint over loop bodies — gives every
  fused-run op its depth, its operands' depths and static selectors
  (``selector``, ``lift``; view-path ``index`` ops their view template), and
  every join (``if``, loop state, generic fold, ``update``) the depth its
  kernel raises its values to; every contract its subscripts and view
  templates (``contract_layout``).  The emitter calls NumPy directly on the
  selected operands, or splits a hot run for ``exec/kernels.py`` by them;
  ``verify_plan.verify_layout`` re-derives the facts.

``exec/plan.py`` consumes the IR and its layout without re-deciding
anything: it emits one Python closure per instruction.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import (
    ne_is_identity,
    offset_step,
    recognize_binop_lambda,
    recognize_redomap_lambda,
)
from ..ir.ast import (
    Atom,
    AtomExp,
    BinOp,
    Body,
    Cast,
    Concat,
    Const,
    Exp,
    FOLDS,
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
from ..ir.traversal import exp_free_vars
from ..ir.types import is_float, is_integral, np_dtype, rank_of
from ..ir.verify import verify_mode
from ..obs import tracing as _tracing
from ..util import ExecError
from .prims import INPLACE_OPS
from .vector import BV, _contract_view, _upd_table, _view_template

__all__ = [
    "Ref",
    "IntRef",
    "RunOp",
    "PBody",
    "PlanIR",
    "lower_fun",
    "layout",
    "Layout",
    "OpLayout",
    "selector",
    "lift",
    "run_atoms",
    "nested_bodies",
    "outer_release",
    "plan_counts",
    "IRun",
    "IUpdate",
    "IIota",
    "IReplicate",
    "IScratch",
    "ISize",
    "IReverse",
    "IConcat",
    "IMap",
    "IFold",
    "IScatter",
    "ILoop",
    "IWhile",
    "IIf",
    "IWithAcc",
    "IUpdAcc",
    "IContract",
    "contract_terms",
    "contract_layout",
    "_RUN_FUSIBLE",
]


#: Statement expressions eligible for scalar-run fusion: pure, single-result,
#: independent of the engine's mask/batch state (they only read operands).
_RUN_FUSIBLE = (AtomExp, UnOp, BinOp, Select, Cast, Index, ZerosLike)

#: The plan-IR ``kind`` of each fold of the IR (``IFold``).
_FOLD_KINDS = {Reduce: "reduce", Scan: "scan", ReduceByIndex: "hist"}

#: Run-op kinds whose result is always a freshly allocated array (``atom``
#: forwards its operand, ``index`` may return a view).
_ALLOCATING = ("unop", "binop", "select", "cast", "zeroslike")


class Ref:
    """A resolved atom: a register slot (``slot is not None``) or a prebuilt
    scalar constant ``BV`` (shared — consumers never mutate scalar BVs)."""

    __slots__ = ("slot", "name", "bv")

    def __init__(self, slot=None, name=None, bv=None):
        self.slot = slot
        self.name = name
        self.bv = bv


class IntRef:
    """A lane-uniform integer extent: a literal ``const`` or a ``ref``
    validated for lane-uniformity per call."""

    __slots__ = ("const", "ref", "what")

    def __init__(self, const=None, ref=None, what=""):
        self.const = const
        self.ref = ref
        self.what = what


class RunOp:
    """One scalar op inside a fused run.  ``xs`` operands are run-local
    indices (``int`` — the value of a previous op in the same run) or
    ``Ref``s.  ``op`` names the scalar operator (unop/binop); ``dtype`` is
    the NumPy dtype of its result, from the IR type (a cast's target).

    ``release`` lists the run-local values whose last read is this op (never
    an exported one); ``donate`` the operand positions among them whose
    buffer the op may write its result into — the value is a fresh array
    nobody else can see (see ``_plan_run_memory``).

    ``affine`` (``index`` ops) is ``None`` for a gather, else one flag per
    index operand — lane-affine (True) or uniform (False): the op takes the
    view path (module docstring, "index provenance").  ``row``: a gather
    whose last operand is the lane itself, from 0 (``vector._gather``).

    ``pranks`` is the payload rank of each operand, from its IR type: the
    half of an operand's layout that no batching changes (``layout`` adds
    the other)."""

    __slots__ = ("kind", "op", "xs", "dtype", "release", "donate", "affine", "row", "pranks")

    def __init__(self, kind, xs, op=None, affine=None, row=False):
        self.kind = kind
        self.xs = xs
        self.op = op
        self.dtype: Optional[np.dtype] = None
        self.release: Tuple[int, ...] = ()
        self.donate: Tuple[int, ...] = ()
        self.affine: Optional[Tuple[bool, ...]] = affine
        self.row = row
        self.pranks: Tuple[int, ...] = ()


class PBody:
    """A lowered body: instruction records plus result refs.  ``bound`` lists
    the ``(slot, name)`` pairs still bound when the body has run — its
    binders (lambda/loop parameters, ``ivar``) and the results it defined
    itself; everything else it defined was released inside it.  They die
    with the body: the emitter runs a body as a frame of its own (a closure
    that clears them on return)."""

    __slots__ = ("instrs", "result", "bound")

    def __init__(self, instrs, result, bound=()):
        self.instrs = instrs
        self.result = result
        self.bound = bound


class _Instr:
    kind = "?"
    #: Source provenance: the ``ir.Stm``s this instruction executes, set by
    #: ``_Lowerer.lower_body`` at every depth.  The profiler
    #: (``obs/profiler.py``) labels its per-instruction timings with these
    #: statements; everything else ignores them.
    prov: tuple = ()
    #: The memory plan: ``(slot, name)`` pairs to clear once this instruction
    #: has completed — slots of the enclosing body whose last read (nested
    #: bodies included) is this instruction, then the ``bound`` slots of its
    #: own nested bodies (``outer_release``: which of them the enclosing body
    #: clears itself).  Never a slot the enclosing body returns.
    release: tuple = ()


class IRun(_Instr):
    """A fused run of scalar statements.  ``exports`` lists the run-local
    values live after the run as ``(local_index, slot, name)``; interior
    temporaries stay run-local."""

    kind = "run"
    __slots__ = ("ops", "exports")

    def __init__(self, ops, exports):
        self.ops = ops
        self.exports = exports


class IUpdate(_Instr):
    kind = "update"
    __slots__ = ("arr", "idx", "val", "out")

    def __init__(self, arr, idx, val, out):
        self.arr, self.idx, self.val, self.out = arr, idx, val, out


class IIota(_Instr):
    kind = "iota"
    __slots__ = ("n", "dtype", "out")

    def __init__(self, n, dtype, out):
        self.n, self.dtype, self.out = n, dtype, out


class IReplicate(_Instr):
    kind = "replicate"
    __slots__ = ("n", "v", "out")

    def __init__(self, n, v, out):
        self.n, self.v, self.out = n, v, out


class IScratch(_Instr):
    kind = "scratch"
    __slots__ = ("n", "x", "out")

    def __init__(self, n, x, out):
        self.n, self.x, self.out = n, x, out


class ISize(_Instr):
    kind = "size"
    __slots__ = ("arr", "dim", "out")

    def __init__(self, arr, dim, out):
        self.arr, self.dim, self.out = arr, dim, out


class IReverse(_Instr):
    kind = "reverse"
    __slots__ = ("x", "out")

    def __init__(self, x, out):
        self.x, self.out = x, out


class IConcat(_Instr):
    kind = "concat"
    __slots__ = ("x", "y", "out")

    def __init__(self, x, y, out):
        self.x, self.y, self.out = x, y, out


class IMap(_Instr):
    kind = "map"
    __slots__ = ("arrs", "accs", "params", "body", "n_acc", "outs")

    def __init__(self, arrs, accs, params, body, n_acc, outs):
        self.arrs, self.accs, self.params = arrs, accs, params
        self.body, self.n_acc, self.outs = body, n_acc, outs


class IFold(_Instr):
    """A reduce, scan or histogram (``kind``); a histogram's ``arrs`` lead
    with its indices, ``num_bins`` its size.  ``strategy`` ∈ {"ufunc",
    "redomap", "generic"}: a redomap folds with the recognised operator
    ``op`` (``fold``: the neutral element must still be folded in, never
    for a histogram) what its map part ``mparams`` / ``mbody`` computes;
    ``ufunc`` is a redomap with an identity map part (none: ``mbody`` is
    ``None``); generic runs the full lambda ``params`` / ``body`` element
    at a time."""

    __slots__ = (
        "kind", "strategy", "num_bins", "arrs", "nes", "op", "fold",
        "mparams", "mbody", "params", "body", "outs",
    )

    def __init__(self, kind, arrs, nes, outs, num_bins=None):
        self.kind, self.arrs, self.nes, self.outs = kind, arrs, nes, outs
        self.num_bins, self.strategy, self.op, self.fold = num_bins, "generic", None, False
        self.mparams = self.mbody = self.params = self.body = None


class IScatter(_Instr):
    kind = "scatter"
    __slots__ = ("dest", "inds", "vals", "out")

    def __init__(self, dest, inds, vals, out):
        self.dest, self.inds, self.vals, self.out = dest, inds, vals, out


class ILoop(_Instr):
    """``ivar``: the counter's ``(slot, name)``, a one-pair tuple like the
    parameters it is bound with."""

    kind = "loop"
    __slots__ = ("n", "inits", "ivar", "params", "body", "outs")

    def __init__(self, n, inits, ivar, params, body, outs):
        self.n, self.inits, self.ivar = n, inits, ivar
        self.params, self.body, self.outs = params, body, outs


class IWhile(_Instr):
    kind = "while"
    __slots__ = ("inits", "cparams", "cbody", "params", "body", "outs")

    def __init__(self, inits, cparams, cbody, params, body, outs):
        self.inits, self.cparams, self.cbody = inits, cparams, cbody
        self.params, self.body, self.outs = params, body, outs


class IIf(_Instr):
    kind = "if"
    __slots__ = ("cond", "then", "els", "outs")

    def __init__(self, cond, then, els, outs):
        self.cond, self.then, self.els, self.outs = cond, then, els, outs


class IWithAcc(_Instr):
    kind = "withacc"
    __slots__ = ("arrs", "params", "body", "n_acc", "outs")

    def __init__(self, arrs, params, body, n_acc, outs):
        self.arrs, self.params, self.body = arrs, params, body
        self.n_acc, self.outs = n_acc, outs


class IUpdAcc(_Instr):
    """``affine``: as on an ``index`` ``RunOp`` (``None``: scatter path, and
    always for an update without indices)."""

    kind = "updacc"
    __slots__ = ("acc", "idx", "v", "out", "affine")

    def __init__(self, acc, idx, v, out, affine=None):
        self.acc, self.idx, self.v, self.out = acc, idx, v, out
        self.affine = affine


class IContract(_Instr):
    """A ``+∘*`` nest as matrix products (``vector._contract``): a redomap
    (``nes``) or an accumulator map (``accs``), its sums ``xs`` / ``terms``
    (``contract_terms``), ``params`` / ``body`` the map (part) it falls
    back to.  ``arrs`` are its arguments, each an ``iota`` (``lanes``) or a
    replicate — the ``(count, value)`` of one only it reads
    (``_drop_replicates``)."""

    kind = "contract"
    __slots__ = ("arrs", "lanes", "nes", "accs", "xs", "terms", "params", "body", "outs")

    def __init__(self, arrs, lanes, nes, accs, found, params, body, outs):
        self.arrs, self.lanes, self.nes, self.accs = arrs, lanes, nes, accs
        self.xs, self.terms = found
        self.params, self.body, self.outs = params, body, outs


class PlanIR:
    """The lowered form of one ``Fun``: a flat slot space, parameter slots,
    and a ``PBody`` of instruction records.  ``fused`` counts statements
    collapsed into runs, ``mem`` the size of the memory plan and ``index`` how
    its indexed reads and updates execute (``plan_counts`` of the whole body)
    — all surfaced via ``plan_cache_stats``."""

    __slots__ = ("fun", "param_slots", "param_types", "body", "nslots",
                 "fused", "mem", "index")

    def __init__(self, fun, param_slots, param_types, body, nslots, fused):
        self.fun = fun
        self.param_slots = param_slots
        self.param_types = param_types
        self.body = body
        self.nslots = nslots
        self.fused = fused
        self.mem, self.index = plan_counts(body.instrs)


def nested_bodies(ins) -> Tuple[PBody, ...]:
    """The bodies instruction ``ins`` executes (none for leaf instructions)."""
    kind = ins.kind
    if kind in ("map", "loop", "withacc", "contract"):
        return (ins.body,)
    if kind in ("reduce", "scan", "hist"):
        return tuple(b for b in (ins.mbody, ins.body) if b is not None)
    if kind == "if":
        return (ins.then, ins.els)
    if kind == "while":
        return (ins.cbody, ins.body)
    return ()


def outer_release(ins) -> Tuple[int, ...]:
    """The slots of ``ins.release`` the body holding ``ins`` clears: not the
    ones its nested bodies left bound, which go with the body's own frame —
    the emitter runs a body as a callable of its own (``PBody``)."""
    framed = {s for b in nested_bodies(ins) for s, _ in b.bound}
    return tuple(s for s, _ in ins.release if s not in framed)


def plan_counts(instrs) -> Tuple[Dict[str, int], Dict[str, int]]:
    """``(mem, index)`` under ``instrs``, nested bodies included, in one walk.
    ``mem`` is the size of the memory plan: register slots released,
    run-local values released, and scalar ops that may compute into a dead
    operand.  ``index`` is how the indexed reads and accumulator updates
    execute: ``index`` ops and indexed ``upd_acc``s on the view path,
    ``index`` ops left as gathers, and contractions (``IContract``; what
    they fall back to is counted too)."""
    mem = {"released_slots": 0, "run_local_releases": 0, "donating_ops": 0}
    index = {"view_index_ops": 0, "view_updacc_ops": 0, "gather_index_ops": 0,
             "contract_ops": 0}

    def walk(instrs) -> None:
        for ins in instrs:
            mem["released_slots"] += len(ins.release)
            if ins.kind == "run":
                for o in ins.ops:
                    mem["run_local_releases"] += len(o.release)
                    mem["donating_ops"] += bool(o.donate)
                    if o.kind == "index":
                        view = o.affine is not None
                        index["view_index_ops" if view else "gather_index_ops"] += 1
            elif ins.kind == "updacc":
                index["view_updacc_ops"] += ins.affine is not None
            index["contract_ops"] += ins.kind == "contract"
            for b in nested_bodies(ins):
                walk(b.instrs)

    walk(instrs)
    return mem, index


def _run_handed_on(ops: Sequence[RunOp]) -> set:
    """The run-local values some op of the run may hand on unchanged or as a
    view (``atom``; ``index`` on its array operand)."""
    return {
        o.xs[0] for o in ops
        if o.kind in ("atom", "index") and isinstance(o.xs[0], int)
    }


def contract_terms(body: PBody, params, lanes: Sequence[bool], n_acc: int):
    """``(xs, terms)`` if the map (part) ``body`` (``params``: its arguments',
    an ``iota``'s where ``lanes``, then ``n_acc`` accumulators) only
    multiplies scalar view-path reads and scalars into the product it
    returns, or into updates of its accumulators at view-path indices.
    A term ``(acc, ids, affine, factors)`` is ``upd accs[acc][ids] += Π
    factors`` (``acc`` ``None``: the redomap's sum), a factor ``(src, ids,
    affine)`` the read ``src[ids]`` or (``ids`` ``None``) the scalar
    ``src``: argument ``src``, or ``xs[src - len(lanes)]`` from outside."""
    nargs = len(lanes)
    arg = {s: q for q, (s, _n) in enumerate(params[:nargs])}
    cur = {s: j for j, (s, _n) in enumerate(params[nargs:])}  # accumulator versions
    prods: Dict[int, tuple] = {}  # slot -> the factors of the product it holds
    xs: List[Ref] = []

    def src(r, scalar: bool) -> Optional[int]:
        if isinstance(r, int) or r.slot in prods or r.slot in cur:
            return None
        q = arg.get(r.slot)
        if q is not None:
            return q if lanes[q] != scalar else None
        xs.append(r)
        return nargs + len(xs) - 1

    def factors(x, loc) -> Optional[tuple]:
        if isinstance(x, int) or x.slot in prods:
            return loc[x] if isinstance(x, int) else prods[x.slot]
        s = src(x, True)
        return None if s is None else ((s, None, None),)

    terms: list = []
    for ins in body.instrs:
        if ins.kind == "run":
            loc: List[tuple] = []
            for o in ins.ops:
                f: Optional[tuple] = None
                if o.kind == "index" and o.affine is not None and o.pranks[0] == len(o.xs) - 1:
                    a = src(o.xs[0], True)
                    ids = tuple(src(i, False) for i in o.xs[1:])
                    if a is not None and a >= nargs and None not in ids:
                        f = ((a, ids, o.affine),)
                elif o.kind == "binop" and o.op == "mul" and not any(o.pranks):
                    fx, fy = (factors(x, loc) for x in o.xs)
                    if fx is not None and fy is not None:
                        f = fx + fy
                if f is None:
                    return None
                loc.append(f)
            for li, s, _n in ins.exports:
                prods[s] = loc[li]
        elif ins.kind == "updacc" and ins.affine is not None and ins.acc.slot in cur \
                and ins.v.slot in prods:
            ids = tuple(src(i, False) for i in ins.idx)
            if None in ids:
                return None
            j = cur.pop(ins.acc.slot)
            cur[ins.out[0]] = j
            terms.append((j, ids, ins.affine, prods[ins.v.slot]))
        else:
            return None
    res = body.result
    if n_acc:
        if [r.slot for r in res] != sorted(cur, key=cur.get):  # the final versions
            return None
    elif len(res) == 1 and res[0].slot in prods:
        terms.append((None, None, None, prods[res[0].slot]))
    else:
        return None
    own = [any(ids and min(ids) < nargs for _s, ids, _a in t[3]) for t in terms]
    return (tuple(xs), tuple(terms)) if terms and all(own) else None  # a sum over its lane


def _drop_replicates(instrs, uses: Dict[str, int], last: Dict[str, int]) -> list:
    """``instrs`` without each replicate only a contract reads (``uses``,
    ``last``: ``lower_body``'s), the contract taking its ``(count, value)``
    — unless an instruction in between last reads (releases) one of them."""
    at = {ins.out[0]: y for y, ins in enumerate(instrs) if ins.kind == "replicate"}
    gone = set()
    for x, ins in enumerate(instrs):
        for a in ins.arrs if ins.kind == "contract" else ():
            y = at.get(a.slot) if isinstance(a, Ref) else None
            if y is None or y in gone or uses.get(a.name) != 1 or last.get(a.name) != x:
                continue
            rep = instrs[y]
            if any(r is not None and y < last.get(r.name, y) < x for r in (rep.n.ref, rep.v)):
                continue
            ins.arrs = tuple((rep.n, rep.v) if isinstance(b, Ref) and b.slot == a.slot else b
                             for b in ins.arrs)
            ins.release = tuple(p for p in ins.release if p[0] != a.slot) + rep.release
            ins.prov += rep.prov
            gone.add(y)
    return [ins for y, ins in enumerate(instrs) if y not in gone]


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def run_atoms(e: Exp) -> Tuple[Atom, ...]:
    """The operands of a fusible statement, in ``RunOp.xs`` order."""
    if isinstance(e, (AtomExp, UnOp, Cast, ZerosLike)):
        return (e.x,)
    if isinstance(e, BinOp):
        return (e.x, e.y)
    if isinstance(e, Select):
        return (e.c, e.t, e.f)
    if isinstance(e, Index):
        return (e.arr,) + tuple(e.idx)
    raise ExecError(f"plan run lower: unexpected {type(e).__name__}")


def _plan_run_memory(ops: Sequence[RunOp], exported, run: Sequence[Stm]) -> None:
    """The memory plan of one fused run (``ops[y]`` lowers ``run[y]``):
    release every run-local value at the op that reads it last, and let that
    op compute into it (``donate``) when the value is a float buffer no one
    else can see — produced by an op that allocates its result
    (``_ALLOCATING``), read by no op that may hand it on unchanged or as a
    view (``atom``; ``index`` on its array operand), and not exported.  Only
    ops on ``INPLACE_OPS`` ufuncs can take ``out=``.  Values no op reads stay
    until the run ends."""
    last: Dict[int, int] = {}
    for x, o in enumerate(ops):
        for y in o.xs:
            if isinstance(y, int):
                last[y] = x
    shared = _run_handed_on(ops)
    for y, x in last.items():
        if y in exported:
            continue
        o = ops[x]
        o.release += (y,)
        if (
            o.kind in ("unop", "binop") and o.op in INPLACE_OPS
            and ops[y].kind in _ALLOCATING
            and y not in shared
            and is_float(run[y].pat[0].type)
        ):
            o.donate += tuple(p for p, z in enumerate(o.xs) if z == y)[:1]


class _Lowerer:
    """One-shot lowering of a ``Fun`` body to plan IR.

    All SSA names in a program are globally unique, so a single flat slot
    space serves every scope (exactly the flat-environment invariant the
    interpreters rely on).
    """

    def __init__(self) -> None:
        self.slots: Dict[str, int] = {}
        self.fused = 0
        #: Index provenance of the names in scope (module docstring): an
        #: ``iota``-defined array is ``"iota"``, a lane-affine integer
        #: ``"lane"`` (``"lane0"``: the lane itself, from 0), a uniform one
        #: ``"uni"``, a replicate ``"rep"``.  Each body works on its own
        #: copy (``lower_body``), so a fact never outlives its binding scope
        #: (and SSA rules out shadowing within one); ``_lower_stm`` and
        #: ``_lower_run_exp`` record them as they meet the defining statement.
        self.facts: Dict[str, str] = {}

    # -- atoms ----------------------------------------------------------------

    def slot(self, name: str) -> int:
        s = self.slots.get(name)
        if s is None:
            s = len(self.slots)
            self.slots[name] = s
        return s

    def ref(self, a: Atom) -> Ref:
        if isinstance(a, Var):
            return Ref(slot=self.slot(a.name), name=a.name)
        return Ref(bv=BV(np.asarray(np_dtype(a.type)(a.value)), 0))

    def refs(self, xs) -> Tuple[Ref, ...]:
        return tuple(self.ref(a) for a in xs)

    def int_ref(self, a: Atom, what: str) -> IntRef:
        if isinstance(a, Const):
            return IntRef(const=int(a.value), what=what)
        return IntRef(ref=self.ref(a), what=what)

    def pslots(self, params) -> Tuple[Tuple[int, str], ...]:
        return tuple((self.slot(p.name), p.name) for p in params)

    def outs_of(self, stm: Stm, expected: int) -> Tuple[Tuple[int, str], ...]:
        if len(stm.pat) != expected:
            raise ExecError(
                f"statement binds {len(stm.pat)} vars, got {expected}"
            )
        return tuple((self.slot(v.name), v.name) for v in stm.pat)

    def out_of(self, stm: Stm) -> Tuple[int, str]:
        if len(stm.pat) != 1:
            raise ExecError("statement binds multiple vars, got 1 value")
        v = stm.pat[0]
        return (self.slot(v.name), v.name)

    # -- bodies ---------------------------------------------------------------

    def lower_body(self, body: Body, binders: Sequence[Var] = (),
                   bind: Optional[Dict[str, str]] = None) -> PBody:
        """Lower ``body``; ``binders`` are the variables the enclosing
        instruction binds before running it (their slots are already
        allocated), ``bind`` what is known of them as indices."""
        outer = self.facts
        self.facts = {**outer, **bind} if bind else dict(outer)
        stms = body.stms
        n = len(stms)
        # Instruction boundaries: runs of >= 2 adjacent fusible statements,
        # every other statement on its own.
        bounds = []
        i = 0
        while i < n:
            j = i
            while (
                j < n
                and isinstance(stms[j].exp, _RUN_FUSIBLE)
                and len(stms[j].pat) == 1
            ):
                j += 1
            j = j if j - i >= 2 else i + 1
            bounds.append((i, j))
            i = j
        # ONE pass over the body's free variables (walking the whole tail per
        # instruction would make lowering quadratic in body size) records the
        # last instruction that reads each name, nested bodies included;
        # what the body returns is read after all of them.  That decides both
        # what a run must export and which of the slots this body writes die
        # where.
        last: Dict[str, int] = {}
        uses: Dict[str, int] = {}
        for x, (i, j) in enumerate(bounds):
            for s in stms[i:j]:
                for a in exp_free_vars(s.exp):
                    last[a.name] = x
                    uses[a.name] = uses.get(a.name, 0) + 1
        for a in body.result:
            if isinstance(a, Var):
                last[a.name] = len(bounds)
        own: Dict[str, int] = {}  # name -> the instruction that writes its slot
        for x, (i, j) in enumerate(bounds):
            for s in stms[i:j]:
                for v in s.pat:
                    # Only what is read after a run reaches a slot.
                    if j - i == 1 or last.get(v.name, x) > x:
                        own[v.name] = x
        dying: Dict[int, List[str]] = {}
        for nm, x in own.items():
            dying.setdefault(max(x, last.get(nm, x)), []).append(nm)
        instrs: List[_Instr] = []
        for x, (i, j) in enumerate(bounds):
            if j - i > 1:
                ins = self._lower_run(stms[i:j], own)
                self.fused += j - i
            else:
                ins = self._lower_stm(stms[i])
            ins.prov = tuple(stms[i:j])
            release = {self.slot(nm): nm for nm in dying.get(x, ())}
            for b in nested_bodies(ins):
                release.update(b.bound)
            if release:
                ins.release = tuple(release.items())
            instrs.append(ins)
        if any(ins.kind == "contract" for ins in instrs):
            instrs = _drop_replicates(instrs, uses, last)
        result = self.refs(body.result)
        bound = {self.slot(v.name): v.name for v in binders}
        bound.update(
            (r.slot, r.name) for r in result if r.slot is not None and r.name in own
        )
        self.facts = outer
        return PBody(tuple(instrs), result, tuple(bound.items()))

    # -- index provenance -----------------------------------------------------

    def _fact(self, a: Atom) -> Optional[str]:
        if type(a) is Var:
            return self.facts.get(a.name)
        return "uni" if is_integral(a.type) else None

    def _note_binop(self, e: BinOp, name: str) -> None:
        """What ``name = e`` is as an index."""
        step = offset_step(e)
        if self._fact(e.x) == "uni" and self._fact(e.y) == "uni":
            self.facts[name] = "uni"  # whatever the operator: no operand has a lane
        elif step and self._fact(step[0]) in ("lane", "lane0"):
            self.facts[name] = "lane"  # i ± c, c + i

    def _index_flags(self, idx: Sequence[Atom]) -> Optional[Tuple[bool, ...]]:
        """The ``affine`` flags of an ``index``/``upd_acc`` with operands
        ``idx``; ``None`` (gather) unless every one is lane-affine or
        uniform."""
        get = self.facts.get
        flags = []
        for a in idx:
            f = get(a.name) if type(a) is Var else self._fact(a)
            if f in ("lane", "lane0"):
                flags.append(True)
            elif f == "uni":
                flags.append(False)
            else:
                return None
        return tuple(flags) if flags else None

    def _lanes_of(self, params: Sequence[Var], arrs: Sequence[Atom]) -> Dict[str, str]:
        """The parameters of a map (part) that run over an ``iota``."""
        return {
            p.name: "lane0" for p, a in zip(params, arrs) if self._fact(a) == "iota"
        }

    # -- fused scalar runs ----------------------------------------------------

    def _run_operand(self, a: Atom, local_of: Dict[str, int]):
        if isinstance(a, Var) and a.name in local_of:
            return local_of[a.name]
        return self.ref(a)

    def _lower_run_exp(self, e: Exp, xs: tuple, name: str) -> RunOp:
        """Lower scalar statement ``name = e`` over its resolved operands
        ``xs`` (``run_atoms`` order); copies and integer arithmetic hand
        their operands' index provenance on to ``name``."""
        if isinstance(e, AtomExp):
            fact = self._fact(e.x)
            if fact:
                self.facts[name] = fact
            return RunOp("atom", xs)
        if isinstance(e, UnOp):
            return RunOp("unop", xs, op=e.op)
        if isinstance(e, BinOp):
            self._note_binop(e, name)
            return RunOp("binop", xs, op=e.op)
        if isinstance(e, Select):
            return RunOp("select", xs)
        if isinstance(e, Cast):
            return RunOp("cast", xs)
        if isinstance(e, Index):
            affine = self._index_flags(e.idx)
            row = affine is None and len(e.idx) > 1 and self._fact(e.idx[-1]) == "lane0"
            return RunOp("index", xs, affine=affine, row=row)
        return RunOp("zeroslike", xs)

    def _lower_run_stm(self, s: Stm, local_of: Dict[str, int]) -> RunOp:
        """Lower scalar statement ``s``."""
        atoms = run_atoms(s.exp)
        o = self._lower_run_exp(
            s.exp, tuple(self._run_operand(a, local_of) for a in atoms), s.pat[0].name)
        o.pranks = tuple(rank_of(a.type) for a in atoms)
        o.dtype = np.dtype(np_dtype(s.pat[0].type))
        return o

    def _lower_run(self, run: Sequence[Stm], used_after) -> IRun:
        local_of: Dict[str, int] = {}
        ops = []
        exports = []
        for idx, s in enumerate(run):
            name = s.pat[0].name
            ops.append(self._lower_run_stm(s, local_of))
            local_of[name] = idx
            if name in used_after:
                exports.append((idx, self.slot(name), name))
        _plan_run_memory(ops, {idx for idx, _s, _n in exports}, run)
        return IRun(tuple(ops), tuple(exports))

    # -- statements -----------------------------------------------------------

    def _lower_stm(self, stm: Stm) -> _Instr:
        e = stm.exp
        if isinstance(e, _RUN_FUSIBLE):
            # A standalone scalar statement is a fused run of length 1 with
            # one export (shared scalar handlers in the emitter).
            op = self._lower_run_stm(stm, {})
            out = self.out_of(stm)
            return IRun((op,), ((0,) + out,))
        if isinstance(e, Update):
            return IUpdate(self.ref(e.arr), self.refs(e.idx), self.ref(e.val),
                           self.out_of(stm))
        if isinstance(e, Iota):
            self.facts[stm.pat[0].name] = "iota"
            return IIota(self.int_ref(e.n, "iota length"), np_dtype(e.elem),
                         self.out_of(stm))
        if isinstance(e, Replicate):
            self.facts[stm.pat[0].name] = "rep"
            return IReplicate(self.int_ref(e.n, "replicate count"),
                              self.ref(e.v), self.out_of(stm))
        if isinstance(e, ScratchLike):
            return IScratch(self.ref(e.n), self.ref(e.x), self.out_of(stm))
        if isinstance(e, Size):
            self.facts[stm.pat[0].name] = "uni"
            return ISize(self.ref(e.arr), e.dim, self.out_of(stm))
        if isinstance(e, Reverse):
            return IReverse(self.ref(e.x), self.out_of(stm))
        if isinstance(e, Concat):
            return IConcat(self.ref(e.x), self.ref(e.y), self.out_of(stm))
        if isinstance(e, Map):
            return self._lower_map(e, stm)
        if isinstance(e, FOLDS):
            return self._lower_fold(e, stm)
        if isinstance(e, Scatter):
            return IScatter(self.ref(e.dest), self.ref(e.inds),
                            self.ref(e.vals), self.out_of(stm))
        if isinstance(e, Loop):
            return ILoop(
                self.ref(e.n), self.refs(e.inits), self.pslots((e.ivar,)),
                self.pslots(e.params),
                self.lower_body(e.body, e.params + (e.ivar,),
                                {e.ivar.name: "uni"}),
                self.outs_of(stm, len(e.params)),
            )
        if isinstance(e, WhileLoop):
            return IWhile(
                self.refs(e.inits),
                self.pslots(e.cond.params),
                self.lower_body(e.cond.body, e.cond.params),
                self.pslots(e.params), self.lower_body(e.body, e.params),
                self.outs_of(stm, len(e.params)),
            )
        if isinstance(e, If):
            if len(e.then.result) != len(e.els.result):
                raise ExecError("if: branch result arity mismatch")
            return IIf(self.ref(e.cond), self.lower_body(e.then),
                       self.lower_body(e.els),
                       self.outs_of(stm, len(e.then.result)))
        if isinstance(e, WithAcc):
            return IWithAcc(
                self.refs(e.arrs), self.pslots(e.lam.params),
                self.lower_body(e.lam.body, e.lam.params), len(e.arrs),
                self.outs_of(stm, len(e.lam.body.result)),
            )
        if isinstance(e, UpdAcc):
            return IUpdAcc(self.ref(e.acc), self.refs(e.idx), self.ref(e.v),
                           self.out_of(stm), self._index_flags(e.idx))
        raise ExecError(f"plan lower: unknown expression {type(e).__name__}")

    # -- SOACs ----------------------------------------------------------------

    def _lower_map(self, e: Map, stm: Stm) -> _Instr:
        return self._contracted(e.arrs, IMap(
            self.refs(e.arrs), self.refs(e.accs), self.pslots(e.lam.params),
            self.lower_body(e.lam.body, e.lam.params,
                            self._lanes_of(e.lam.params, e.arrs)),
            len(e.accs), self.outs_of(stm, len(e.lam.body.result)),
        ))

    def _contracted(self, atoms, ins) -> _Instr:
        """``ins``, a map or a ``+`` redomap from 0 over ``atoms``, as an
        ``IContract`` if it is one (``contract_terms``)."""
        red = ins.kind == "reduce"
        params, body, accs = (ins.mparams, ins.mbody, ()) if red else (
            ins.params, ins.body, ins.accs)
        facts = [self._fact(a) for a in atoms]
        lanes = tuple(f == "iota" for f in facts)
        found = (red or accs) and all(f in ("iota", "rep") for f in facts) \
            and contract_terms(body, params, lanes, len(accs))
        if not found:
            return ins
        return IContract(ins.arrs, lanes, ins.nes if red else (), accs, found, params, body,
                         ins.outs)

    def _lower_map_part(self, mlam: Lambda, arrs: Sequence[Atom]):
        return self.pslots(mlam.params), self.lower_body(
            mlam.body, mlam.params, self._lanes_of(mlam.params, arrs)
        )

    def _lower_fold(self, e, stm: Stm) -> _Instr:
        """A reduce, scan or histogram: ``redomap`` when its operator is one
        (``recognize_redomap_lambda``), ``ufunc`` when that one's map part
        is the identity, else ``generic``."""
        kind = _FOLD_KINDS[type(e)]
        hist = kind == "hist"
        num_bins = self.int_ref(e.num_bins, "histogram size") if hist else None
        ins = IFold(kind, self.refs(((e.inds,) if hist else ()) + e.arrs), self.refs(e.nes),
                    self.outs_of(stm, len(e.nes)), num_bins)
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is None:
            ins.params = self.pslots(e.lam.params)
            ins.body = self.lower_body(e.lam.body, e.lam.params)
            return ins
        ins.op, mlam = rm
        ins.fold = not hist and not ne_is_identity(ins.op, e.nes[0])
        if recognize_binop_lambda(e.lam) is not None:
            ins.strategy = "ufunc"
            return ins
        # Fused (redomap-shaped) operator: bulk-map the element function,
        # then fold with the ufunc — fusion keeps the fast path.
        ins.strategy = "redomap"
        ins.mparams, ins.mbody = self._lower_map_part(mlam, e.arrs)
        if kind == "reduce" and ins.op == "add" and not ins.fold:
            return self._contracted(e.arrs, ins)
        return ins


def lower_fun(fun: Fun) -> PlanIR:
    """Lower ``fun`` to shape-generic plan IR."""
    with _tracing.span("lower", cat="compile", fun=fun.name):
        lo = _Lowerer()
        param_slots = tuple(lo.slot(p.name) for p in fun.params)
        param_types = tuple(p.type for p in fun.params)
        body = lo.lower_body(fun.body)
        ir = PlanIR(fun, param_slots, param_types, body, len(lo.slots), lo.fused)
    # Layer-2 verification happens here, once per lowering — cached plans
    # (exec/plan.py) reuse the verified PlanIR and never re-check.  The
    # verifier is imported only when it runs.
    if verify_mode() == "off":
        return ir
    from .verify_plan import verify_plan_ir

    return verify_plan_ir(ir)


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


def selector(b: int, p: int, k: int, pmax: int):
    """The static selector of an operand of batch depth ``b`` and payload
    rank ``p`` of an elementwise op at depth ``k`` and payload rank
    ``pmax``: ``None`` where NumPy's implicit left-padding already lines it
    up (no batch axes, or none missing and the full rank), else the index
    that inserts the missing batch axes after its own, then the missing
    payload axes — as singleton axes, a view."""
    if b == 0 or (b == k and p == pmax):
        return None
    return (slice(None),) * b + (None,) * (k - b + pmax - p) + (Ellipsis,)


def lift(b: int, k: int):
    """The selector raising a value of batch depth ``b`` to ``k`` even when
    it has no batch axes (a gather's array and indices: their batch axes
    must line up, not their payloads); ``None`` when ``b == k``."""
    return None if b == k else (slice(None),) * b + (None,) * (k - b) + (Ellipsis,)


class OpLayout:
    """The layout of one fused-run op: the batch depth ``k`` of its result,
    its operands' batch depths ``bs``, each operand's static selector
    (``sels``: ``selector`` for an elementwise op or ``select``, ``lift``
    for an ``index``'s array and indices, which a gather reads at depth
    ``k``) and a view-path ``index``'s ``vector._view_template`` (``view``;
    ``None``: no call can read it as a view; ``"rows"``: a ``row`` gather)."""

    __slots__ = ("k", "bs", "sels", "view")

    def __init__(self, k: int, bs: tuple, sels: tuple, view=None) -> None:
        self.k, self.bs, self.sels, self.view = k, bs, sels, view


class Layout:
    """The static layout of a ``PlanIR``, what ``layout`` found: ``ops``
    maps each fused-run op to its ``OpLayout``, ``outs`` each instruction
    to the batch depths of its outputs, and ``kernel`` each instruction
    whose kernel takes a ``"layout"`` static (``vector.KERNELS``) to it —
    the depth an ``update``'s result is raised to, the depths the results
    or state of an ``if`` / ``loop`` / ``while`` / generic reduce or scan
    are raised to (the joins), an ``upd_acc``'s depth, view template and C
    table (``vector._upd_table``), a contract's ``contract_layout``."""

    __slots__ = ("ops", "outs", "kernel")

    def __init__(self) -> None:
        self.ops: Dict[RunOp, OpLayout] = {}
        self.outs: Dict[_Instr, Tuple[int, ...]] = {}
        self.kernel: Dict[_Instr, object] = {}

    def static(self, ins, field: str):
        """The value of static ``field`` of ``ins``'s kernel."""
        return self.kernel[ins] if field == "layout" else getattr(ins, field)


#: What ``layout`` knows of a value: its batch depth, and whether it is an
#: accumulator (threaded as it is, never raised, whatever joins it).
_Fact = Tuple[int, bool]


def _matmul_form(labels, out):
    """``(f0, t0, f1, t1)`` when summing two factors with batch levels
    ``labels`` to ``out`` is ``op[f0] @ op[f1]``, ``.T`` where ``t``."""
    if len(labels) != 2 or len(out) != 2 or any(len(ls) != 2 for ls in labels):
        return None
    m, n = out
    shared = set(labels[0]) & set(labels[1])
    if len(shared) != 1 or shared & {m, n}:
        return None
    (k,) = shared
    f0 = 0 if m in labels[0] else 1
    if n not in labels[1 - f0]:
        return None
    return f0, labels[f0] != (m, k), 1 - f0, labels[1 - f0] != (k, n)


def contract_layout(ins: IContract, fact, d: int):
    """The static half of ``vector._contract`` at batch depth ``d`` (the
    map's lanes are level ``d``): per term its reads ``(src, ids,
    template)``, ``np.einsum`` subscripts (a letter per level) and their
    ``_matmul_form``, the selector adding levels no factor has, and the
    target ``(acc, ids, template)`` and the ``spread`` levels ``(level,
    ((factor, axis), ..))``; ``None`` if a read is no view (below)."""
    deps = [d + 1 if lane else fact(a[1] if isinstance(a, tuple) else a)[0]
            for a, lane in zip(ins.arrs, ins.lanes)] + [fact(x)[0] for x in ins.xs]
    terms: list = []
    for j, ids, affine, factors in ins.terms:
        reads: list = []
        labels: List[tuple] = []
        for s, fids, faff in factors:
            v = (None, tuple(range(deps[s]))) if fids is None else \
                _contract_view(deps[s], [deps[i] for i in fids], faff)
            if v is None:
                return None
            reads.append((s, fids, v[0]))
            labels.append(v[1])
        target, out = None, tuple(range(d))
        if j is not None:
            v = _contract_view(fact(ins.accs[j])[0], [deps[i] for i in ids], affine)
            if v is None:
                return None
            target, out = (j, ids, v[0]), v[1]
        have = {t for ls in labels for t in ls}
        got = tuple(t for t in out if t in have)
        sub = ["".join(chr(97 + t) for t in ls) for ls in labels + [got]]
        spec = ",".join(sub[:-1]) + "->" + sub[-1]
        osel = None if got == out else tuple(slice(None) if t in have else None for t in out)
        # Only a read's slice surely spans its level: a batch axis may be a
        # lane-uniform value's extent 1, and a sum over it would count a
        # product once instead of once per lane.  A summed enclosing level
        # no read slices is ``spread``: the kernel checks its extents per
        # call.  The map's own lane (level ``d``) has to be sliced.
        sliced = {t for (_s, _i, vt), ls in zip(reads, labels) if vt for t in ls[vt[0]:]}
        summed = [t for t in range(d + 1) if t not in out and t not in sliced]
        if d in summed or any(t not in have for t in summed):
            return None
        spread = tuple((t, tuple((f, ls.index(t)) for f, ls in enumerate(labels) if t in ls))
                       for t in summed)
        terms.append((tuple(reads), spec, _matmul_form(labels, got), osel, target, spread))
    return tuple(terms)


class _LayoutPass:
    """The walk behind ``layout``.  ``env`` maps each slot to the ``_Fact``
    of its current binding — one flat map: slots are single-assignment
    along every path, and a body walked again (a loop's fixpoint) rewrites
    what it binds."""

    def __init__(self, lay: Layout, env: Dict[int, _Fact]) -> None:
        self.lay = lay
        self.env = env

    def fact(self, r) -> _Fact:
        return self.env[r.slot] if r.slot is not None else (0, False)

    def depth(self, r) -> int:
        return self.fact(r)[0]

    def bind(self, pslots, facts: Sequence[_Fact]) -> None:
        for (s, _n), f in zip(pslots, facts):
            self.env[s] = f

    def body(self, pbody: PBody, depth: int, masked: int) -> List[_Fact]:
        """Walk ``pbody`` at batch depth ``depth``, under masks of depth at
        most ``masked``; returns its results' facts."""
        for ins in pbody.instrs:
            if ins.kind == "run":
                self.run(ins)
                continue
            facts = self.instr(ins, depth, masked)
            self.bind((ins.out,) if hasattr(ins, "out") else ins.outs, facts)
            self.lay.outs[ins] = tuple(b for b, _ in facts)
        return [self.fact(r) for r in pbody.result]

    def run(self, ins: IRun) -> None:
        local: List[_Fact] = []
        for o in ins.ops:
            facts = [local[x] if isinstance(x, int) else self.fact(x) for x in o.xs]
            bs = tuple(b for b, _ in facts)
            kind = o.kind
            if kind in ("atom", "cast", "zeroslike"):
                lo = OpLayout(bs[0], bs, (None,))
            elif kind == "index":
                k = max(bs)
                view = None
                if o.affine is not None:
                    view = _view_template(bs[0], bs[1:], o.affine, k)
                elif o.row and bs[0] == 0 and bs[-1] == k > max(bs[1:-1]):
                    view = "rows"  # ``vector._gather``'s ``rows``
                lo = OpLayout(k, bs, tuple(lift(b, k) for b in bs), view)
            else:
                k, pmax = max(bs), max(o.pranks)
                lo = OpLayout(k, bs, tuple(selector(b, p, k, pmax) for b, p in zip(bs, o.pranks)))
            self.lay.ops[o] = lo
            local.append(facts[0] if kind == "atom" else (lo.k, False))
        self.lay.outs[ins] = tuple(local[li][0] for li, _s, _n in ins.exports)
        for li, s, _n in ins.exports:
            self.env[s] = local[li]

    def state(self, inits: Sequence[_Fact], floor: int, walk) -> List[_Fact]:
        """The fixpoint of loop-carried state: each value that is not an
        accumulator at the join of its initial value, ``floor`` and what
        ``walk(state)`` (one walk of the body) hands back for it."""
        st = [f if f[1] else (max(f[0], floor), False) for f in inits]
        while True:
            res = walk(st)
            new = [f if f[1] else (max(f[0], r[0]), False) for f, r in zip(st, res)]
            if new == st:
                return st
            st = new

    def instr(self, ins, depth: int, masked: int) -> List[_Fact]:
        """The facts of ``ins``'s outputs (nested bodies walked)."""
        kind, lay, dep = ins.kind, self.lay, self.depth
        if kind == "update":
            k = max([dep(ins.arr), dep(ins.val), masked] + [dep(i) for i in ins.idx])
            lay.kernel[ins] = k
            return [(k, False)]
        if kind in ("iota", "size"):
            return [(0, False)]
        if kind == "replicate":
            return [(dep(ins.v), False)]
        if kind == "reverse":
            return [(dep(ins.x), False)]
        if kind == "concat":
            return [(max(dep(ins.x), dep(ins.y)), False)]
        if kind in ("scratch", "scatter"):
            return [(depth, False)]
        if kind == "updacc":
            acc = self.fact(ins.acc)
            bs = [dep(i) for i in ins.idx]
            k = max([acc[0], dep(ins.v)] + bs)
            view = None if ins.affine is None else _view_template(acc[0], bs, ins.affine, k)
            lay.kernel[ins] = (k, view, _upd_table(k, acc[0], dep(ins.v), bs, ins.affine, view))
            return [acc]
        if kind == "map":
            self.bind(ins.params, [(depth + 1, False)] * len(ins.arrs)
                      + [self.fact(r) for r in ins.accs])
            res = self.body(ins.body, depth + 1, masked)
            return res[:ins.n_acc] + [(depth, False)] * (len(res) - ins.n_acc)
        if kind == "contract":
            accs = [self.fact(r) for r in ins.accs]
            self.bind(ins.params, [(depth + 1, False)] * len(ins.arrs) + accs)
            self.body(ins.body, depth + 1, masked)
            lay.kernel[ins] = contract_layout(ins, self.fact, depth)
            return accs or [(depth, False)]
        if kind in ("reduce", "scan", "hist"):
            if ins.mbody is not None:
                self.bind(ins.mparams, [(depth + 1, False)] * len(ins.mparams))
                self.body(ins.mbody, depth + 1, masked)
            outs = [(depth, False)] * len(ins.outs)
            if ins.body is None:
                return outs
            if kind == "hist":
                # Bins and elements at the lanes' depth; the kernel raises
                # what the operator returns to it.
                self.bind(ins.params, [(depth, False)] * len(ins.params))
                self.body(ins.body, depth, masked)
                return outs
            elems = [(depth, False)] * (len(ins.params) - len(ins.nes))

            def fold(st):
                self.bind(ins.params, st + elems)
                return self.body(ins.body, depth, masked)

            accs = self.state([self.fact(r) for r in ins.nes], 0, fold)
            lay.kernel[ins] = tuple(b for b, _ in accs)
            return accs if kind == "reduce" else outs
        if kind == "withacc":
            self.bind(ins.params, [(depth, True)] * len(ins.params))
            res = self.body(ins.body, depth, masked)
            return [(depth, False)] * ins.n_acc + res[ins.n_acc:]
        if kind == "if":
            c = dep(ins.cond)
            m = max(masked, c)
            then = self.body(ins.then, depth, m)
            els = self.body(ins.els, depth, m)
            outs = [t if t[1] else (max(c, t[0], e[0]), False) for t, e in zip(then, els)]
        elif kind == "loop":
            n = dep(ins.n)

            def step(st):
                self.bind(ins.ivar + ins.params, [(0, False)] + st)
                return self.body(ins.body, depth, max(masked, n))

            outs = self.state([self.fact(r) for r in ins.inits], n, step)
        elif kind == "while":
            def turn(st):
                self.bind(ins.cparams, st)
                (c,) = self.body(ins.cbody, depth, masked)
                self.bind(ins.params, st)
                res = self.body(ins.body, depth, max(masked, c[0]))
                return [(max(r[0], c[0]), r[1]) for r in res]

            outs = self.state([self.fact(r) for r in ins.inits], masked, turn)
        else:
            raise ExecError(f"plan layout: unknown instruction kind {kind!r}")
        lay.kernel[ins] = tuple(b for b, _ in outs)
        return outs


def layout(ir: PlanIR) -> Layout:
    """The static layout of ``ir``.  Every value's payload rank is in its IR
    type (``RunOp.pranks``); its batch depth is fixed by where it is
    computed — the flattening nest of §4.1:

    * a parameter, a constant, ``iota`` and ``size`` at depth 0;
    * a SOAC body's parameters at the enclosing depth + 1 (a generic fold's
      accumulators and elements, and a histogram operator's, at the
      enclosing depth), every SOAC, ``scratch``, ``scatter`` and
      ``withacc`` result at the enclosing depth (accumulators at their own);
    * an elementwise op, ``select``, ``index`` or ``concat`` at the deepest
      of its operands; ``replicate``, ``reverse``, ``cast``, ``atom`` and
      ``zeroslike`` at their operand's.

    Where the kernel used to pick a depth from extents, the fact is the join
    of everything that can flow in and the kernel raises its values to it
    (``vector._raise``: singleton axes, never a copy): ``if`` results (the
    condition's depth included — the masked path selects per lane);
    ``loop`` and ``while`` state, a fixpoint over the body (the trip count's
    or condition's depth included, and for ``while`` the enclosing masks');
    a generic fold's accumulators; an ``update``'s result (the enclosing
    masks' depth included).  So a value's batch depth at run time always
    equals its fact here, and the emitter lines up every fused-run operand
    with a static selector instead of aligning per call."""
    with _tracing.span("layout", cat="compile", fun=ir.fun.name):
        lay = Layout()
        _LayoutPass(lay, {s: (0, False) for s in ir.param_slots}).body(ir.body, 0, 0)
    if verify_mode() == "off":
        return lay
    from .verify_plan import verify_layout

    return verify_layout(ir, lay)
