"""Layer-2 static verifier: plan-IR well-formedness.

The plan compiler (``exec/lower.py``) flattens SSA names onto a single slot
space; the closure emitter (``exec/plan.py``) relies on a set of structural
invariants this module checks once per lowering:

* **slot def-before-use** — every ``Ref``/``IntRef`` read is dominated by a
  write to its slot (function parameter, loop/lambda parameter binding,
  instruction output, or fused-run export).  Values defined inside a nested
  body never leak into the enclosing scope's defined set: inner temporaries
  are dead after the instruction completes;
* **static single-assignment of slots** — each slot has exactly one static
  writer site (a ``WhileLoop``'s condition parameters alias the loop
  parameters by construction and count as one);
* **fused-run integrity** — run-local integer operands only reference
  earlier ops in the same run, and only the declared ``exports`` escape to
  slots;
* **structural arities** — loop bodies return one value per loop parameter,
  ``if`` branches agree with the instruction's outputs, the while condition
  returns a single value;
* **the memory plan** — no slot is read after an instruction released it, on
  any path (a body's results included), and an instruction releases only
  what its own body wrote or its nested bodies left bound, never a slot
  bound outside (a loop body would read it again next iteration); inside a
  fused run no op reads a released run-local value, and a ``donate`` mark
  sits only on an ``out=``-capable op whose operand is run-local, owned
  (produced by an allocating op, never handed on by ``atom``/``index``),
  dead at that op and unexported;
* **index provenance** — an ``affine`` flag on an ``index`` or ``upd_acc``
  operand licenses the executor to read the operand as a unit-stride slice
  without looking at more than its two ends, so the checker re-derives the
  fact on its own, from the plan IR alone: the operand's definition chain
  must end at a map (part) parameter bound to an ``iota`` result, through
  copies and ``add``/``sub`` of an integer constant only, all within the
  scope that binds the parameter.  A flag on anything else — a
  data-dependent index, a loop-carried integer, a name a sibling scope
  re-bound, ``2 * i`` — is rejected, naming the op and the operand.  (The
  unflagged operands of such an op are only *hints* of lane-uniformity;
  the executor checks those per call.)
* **contractions** — a ``contract``'s terms are re-derived from the body
  it falls back to (``lower.contract_terms``), its layout from batch
  depths: a read through a gather, a sum into another accumulator, an
  argument no ``iota`` / replicate or swapped subscripts is rejected; a
  replicate it dropped is never written, so a read of it is undefined.

Their callers run them only when ``REPRO_VERIFY`` is on (see
``ir/verify.py``; with it off this module is not even imported), at
*compile* time only — cached-plan reuse never re-verifies (the ``verify``
section of ``plan_cache_stats()`` counts checks per lowering).
"""
from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..ir.types import rank_of
from ..ir.verify import VERIFY_STATS, VerifyError
from ..obs import tracing as _tracing
from .lower import (
    _ALLOCATING,
    IContract,
    IIf,
    ILoop,
    IMap,
    IntRef,
    IReduce,
    IRun,
    IWhile,
    IWithAcc,
    Layout,
    PBody,
    PlanIR,
    Ref,
    contract_layout,
    contract_terms,
    lift,
    run_atoms,
    selector,
)
from .prims import INPLACE_OPS
from .vector import _view_template

__all__ = ["verify_plan_ir", "verify_layout"]


def _stm_of(instr) -> Optional[object]:
    prov = getattr(instr, "prov", ())
    return prov[0] if prov else None


class _PlanChecker:
    def __init__(self, ir: PlanIR, where: str):
        self.ir = ir
        self.where = where
        #: slot -> name of everything some instruction released (for telling
        #: a read-after-release from a plain undefined read).
        self.released: Dict[int, str] = {}
        #: slot -> ``"iota"`` (the result of an ``iota``) / ``"lane"`` (a
        #: lane-affine integer) / ``"rep"`` (a replicate), for the slot's
        #: *current* binding: every ``write`` forgets what the previous one
        #: established.
        self.facts: Dict[int, str] = {}

    def fail(self, msg: str, instr=None) -> None:
        raise VerifyError(f"plan IR: {msg}", self.where, _stm_of(instr))

    # -- write/read primitives ---------------------------------------------

    def write(self, slot: int, name: str, defined: Set[int], instr=None) -> None:
        if not (0 <= slot < self.ir.nslots):
            self.fail(f"slot {slot} ({name!r}) outside register space", instr)
        # Slot SSA along every execution path: a live slot is never
        # re-assigned (sibling scopes may reuse a slot — the earlier value
        # is dead by then — mirroring the name-reuse the Fun verifier
        # accepts across sibling lambdas).
        if slot in defined:
            self.fail(
                f"slot {slot} ({name!r}) assigned twice along one "
                f"execution path (slot SSA violation)",
                instr,
            )
        defined.add(slot)
        self.facts.pop(slot, None)

    def read(self, r, defined: Set[int], instr=None, what: str = "") -> None:
        if isinstance(r, IntRef):
            if r.const is None:
                self.read(r.ref, defined, instr, what or r.what)
            return
        if isinstance(r, Ref) and r.slot is not None:
            if r.slot not in defined:
                state = "released" if r.slot in self.released else "undefined"
                self.fail(
                    f"read of {state} slot {r.slot} ({r.name or what!r})",
                    instr,
                )

    def reads(self, refs, defined: Set[int], instr=None) -> None:
        for r in refs or ():
            self.read(r, defined, instr)

    def bind_params(self, pslots, defined: Set[int], instr, arrs=()) -> None:
        """Bind lambda/loop parameters; those of a map (part) running over
        an ``iota`` result (``arrs``: the mapped arrays) are lane-affine."""
        for slot, name in pslots or ():
            self.write(slot, name, defined, instr)
        for (slot, _), arr in zip(pslots or (), arrs):
            if self.facts.get(arr.slot) == "iota":
                self.facts[slot] = "lane"

    # -- index provenance -----------------------------------------------------

    def operand_fact(self, x, local: Dict[int, str]) -> Optional[str]:
        """``"lane"``/``"iota"``/``"const"`` (an integer constant) or None."""
        if isinstance(x, int):
            return local.get(x)
        if x.slot is not None:
            return self.facts.get(x.slot)
        return "const" if x.bv.data.dtype.kind in "iu" else None

    def run_op_fact(self, op, local: Dict[int, str]) -> Optional[str]:
        """What a run op's result is, given its operands' facts."""
        if op.kind == "atom":
            return self.operand_fact(op.xs[0], local)
        if op.kind == "binop" and op.op in ("add", "sub"):
            fx, fy = (self.operand_fact(x, local) for x in op.xs)
            if fx == "lane" and fy == "const":
                return "lane"
            if op.op == "add" and fx == "const" and fy == "lane":
                return "lane"
        return None

    def check_affine(self, flags, idx, local: Dict[int, str], what: str, instr) -> None:
        if flags is None:
            return
        if len(flags) != len(idx):
            self.fail(f"{what} carries {len(flags)} affine flags for "
                      f"{len(idx)} index operands", instr)
        for p, (flag, x) in enumerate(zip(flags, idx)):
            if flag and self.operand_fact(x, local) != "lane":
                name = f"run-local value {x}" if isinstance(x, int) else (
                    f"slot {x.slot} ({x.name!r})" if x.slot is not None
                    else "a constant")
                self.fail(
                    f"{what} flags index operand {p} ({name}) lane-affine, but "
                    f"its definition does not end at a map parameter bound to "
                    f"an iota through copies and +/- constants",
                    instr,
                )

    # -- bodies -------------------------------------------------------------

    def check_body(self, body: PBody, defined: Set[int]) -> None:
        """``defined`` holds what is bound on entry (binders included)."""
        entry = frozenset(defined)
        for instr in body.instrs:
            left = self.check_instr(instr, defined)
            self.check_release(instr, defined, entry, left)
        self.reads(body.result, defined)

    def check_release(self, instr, defined: Set[int], entry, left: Set[int]) -> None:
        """Apply ``instr.release``: ``left`` are the slots its nested bodies
        left bound (invisible to this body, so clearing them is always
        sound); anything else must be a slot this body wrote itself."""
        for slot, name in instr.release:
            if slot in left:
                continue
            if slot in entry:
                self.fail(
                    f"release of slot {slot} ({name!r}) bound outside the "
                    f"releasing body",
                    instr,
                )
            if slot not in defined:
                self.fail(f"release of unbound slot {slot} ({name!r})", instr)
            defined.discard(slot)
            self.released[slot] = name

    def check_run_memory(self, instr: IRun) -> None:
        ops = instr.ops
        exported = {idx: (slot, name) for idx, slot, name in instr.exports}

        def local(x: int) -> str:
            prov = instr.prov
            name = prov[x].pat[0].name if len(prov) == len(ops) else "?"
            return f"run-local value {x} ({name!r})"

        # run-local value -> an op that may return it unchanged or as a view
        handed_on = {
            o.xs[0]: q for q, o in enumerate(ops)
            if o.kind in ("atom", "index") and isinstance(o.xs[0], int)
        }
        gone: Dict[int, int] = {}
        for pos, op in enumerate(ops):
            for x in op.xs:
                if isinstance(x, int) and x in gone:
                    self.fail(
                        f"run op {pos} reads {local(x)} released by op {gone[x]}",
                        instr,
                    )
            for x in op.release:
                if not (isinstance(x, int) and 0 <= x < pos):
                    self.fail(f"run op {pos} releases {x!r}, not an earlier op", instr)
                if x in exported:
                    slot, name = exported[x]
                    self.fail(
                        f"run op {pos} releases {local(x)} exported to slot "
                        f"{slot} ({name!r})",
                        instr,
                    )
                gone[x] = pos
            for p in op.donate:
                x = op.xs[p] if 0 <= p < len(op.xs) else None
                if isinstance(x, Ref):
                    what = (
                        f"register operand slot {x.slot} ({x.name!r})"
                        if x.slot is not None else "a constant operand"
                    )
                    self.fail(
                        f"run op {pos} donates {what}: only run-local "
                        f"temporaries may be written",
                        instr,
                    )
                if not isinstance(x, int):
                    self.fail(f"run op {pos} donates operand {p}, which it lacks", instr)
                if op.kind not in ("unop", "binop") or op.op not in INPLACE_OPS:
                    self.fail(
                        f"run op {pos} ({op.kind} {op.op!r}) donates {local(x)} "
                        f"but cannot compute in place",
                        instr,
                    )
                if x in exported:
                    slot, name = exported[x]
                    self.fail(
                        f"run op {pos} donates {local(x)} exported to slot "
                        f"{slot} ({name!r})",
                        instr,
                    )
                if ops[x].kind not in _ALLOCATING:
                    self.fail(
                        f"run op {pos} donates {local(x)} produced by "
                        f"{ops[x].kind!r}, which does not own its buffer",
                        instr,
                    )
                if x not in op.release:
                    self.fail(
                        f"run op {pos} donates {local(x)}, which is not dead there",
                        instr,
                    )
                if x in handed_on:
                    q = handed_on[x]
                    self.fail(
                        f"run op {pos} donates {local(x)}, which op {q} "
                        f"({ops[q].kind}) hands on",
                        instr,
                    )

    def check_instr(self, instr, defined: Set[int]) -> Set[int]:
        """Check one instruction; returns the slots its nested bodies left
        bound (they never join ``defined``)."""
        kind = instr.kind
        left: Set[int] = set()
        if isinstance(instr, IRun):
            local: Dict[int, str] = {}
            for pos, op in enumerate(instr.ops):
                for x in op.xs:
                    if isinstance(x, int):
                        if not (0 <= x < pos):
                            self.fail(
                                f"run op {pos} references run-local value "
                                f"{x} not computed earlier in the run",
                                instr,
                            )
                    else:
                        self.read(x, defined, instr)
                if op.kind == "index":
                    self.check_affine(op.affine, op.xs[1:], local,
                                      f"run op {pos} (index)", instr)
                fact = self.run_op_fact(op, local)
                if fact:
                    local[pos] = fact
            for idx, slot, name in instr.exports:
                if not (0 <= idx < len(instr.ops)):
                    self.fail(
                        f"run export {name!r} references op {idx} outside "
                        f"the run",
                        instr,
                    )
                self.write(slot, name, defined, instr)
                if idx in local:
                    self.facts[slot] = local[idx]
            self.check_run_memory(instr)
        elif kind == "update":
            self.read(instr.arr, defined, instr)
            self.reads(instr.idx, defined, instr)
            self.read(instr.val, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "iota":
            self.read(instr.n, defined, instr)
            self.write(*instr.out, defined, instr)
            self.facts[instr.out[0]] = "iota"
        elif kind == "replicate":
            self.read(instr.n, defined, instr)
            self.read(instr.v, defined, instr)
            self.write(*instr.out, defined, instr)
            self.facts[instr.out[0]] = "rep"
        elif kind == "scratch":
            self.read(instr.n, defined, instr)
            self.read(instr.x, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "size":
            self.read(instr.arr, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "reverse":
            self.read(instr.x, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "concat":
            self.read(instr.x, defined, instr)
            self.read(instr.y, defined, instr)
            self.write(*instr.out, defined, instr)
        elif isinstance(instr, IMap):
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.accs, defined, instr)
            inner = set(defined)
            self.bind_params(instr.params, inner, instr, instr.arrs)
            self.check_body(instr.body, inner)
            left = inner - defined
            if len(instr.outs) != len(instr.body.result):
                self.fail(
                    f"map binds {len(instr.outs)} outputs for "
                    f"{len(instr.body.result)} lambda results",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IContract):
            for x in (*instr.arrs, instr.nes, instr.accs, instr.xs):
                self.reads(x if isinstance(x, tuple) else (x,), defined, instr)
            inner = set(defined)
            refs = [a if isinstance(a, Ref) else a[1] for a in instr.arrs]
            self.bind_params(instr.params, inner, instr, refs)
            self.check_body(instr.body, inner)
            left = inner - defined
            self.check_contract(instr)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IReduce):  # also IScan (subclass)
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.nes, defined, instr)
            left = self._check_operator_part(instr, defined)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif kind == "hist":
            self.read(instr.num_bins, defined, instr)
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.nes, defined, instr)
            left = self._check_operator_part(instr, defined)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif kind == "scatter":
            self.read(instr.dest, defined, instr)
            self.read(instr.inds, defined, instr)
            self.read(instr.vals, defined, instr)
            self.write(*instr.out, defined, instr)
        elif isinstance(instr, ILoop):
            self.read(instr.n, defined, instr)
            self.reads(instr.inits, defined, instr)
            if len(instr.inits) != len(instr.params):
                self.fail(
                    f"loop has {len(instr.inits)} inits for "
                    f"{len(instr.params)} parameters",
                    instr,
                )
            inner = set(defined)
            self.bind_params(instr.params + instr.ivar, inner, instr)
            self.check_body(instr.body, inner)
            left = inner - defined
            if len(instr.body.result) != len(instr.params):
                self.fail(
                    f"loop body returns {len(instr.body.result)} values "
                    f"for {len(instr.params)} carried parameters",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IWhile):
            self.reads(instr.inits, defined, instr)
            inner = set(defined)
            pset = {slot for slot, _ in instr.params}
            self.bind_params(instr.params, inner, instr)
            for slot, name in instr.cparams:
                # Condition params alias the loop params by construction;
                # a disjoint condition binder is its own write site.
                if slot not in pset:
                    self.write(slot, name, inner, instr)
            self.check_body(instr.cbody, inner)
            if len(instr.cbody.result) != 1:
                self.fail(
                    f"while condition returns {len(instr.cbody.result)} "
                    f"values (expected 1)",
                    instr,
                )
            self.check_body(instr.body, inner)
            left = inner - defined
            if len(instr.body.result) != len(instr.params):
                self.fail(
                    f"while body returns {len(instr.body.result)} values "
                    f"for {len(instr.params)} carried parameters",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IIf):
            self.read(instr.cond, defined, instr)
            then_scope = set(defined)
            self.check_body(instr.then, then_scope)
            els_scope = set(defined)
            self.check_body(instr.els, els_scope)
            left = (then_scope | els_scope) - defined
            if len(instr.then.result) != len(instr.outs) or len(
                instr.els.result
            ) != len(instr.outs):
                self.fail(
                    f"if branches return "
                    f"{len(instr.then.result)}/{len(instr.els.result)} "
                    f"values for {len(instr.outs)} outputs",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif isinstance(instr, IWithAcc):
            self.reads(instr.arrs, defined, instr)
            inner = set(defined)
            self.bind_params(instr.params, inner, instr)
            self.check_body(instr.body, inner)
            left = inner - defined
            if len(instr.outs) != len(instr.body.result):
                self.fail(
                    f"withacc binds {len(instr.outs)} outputs for "
                    f"{len(instr.body.result)} lambda results",
                    instr,
                )
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr)
        elif kind == "updacc":
            self.read(instr.acc, defined, instr)
            self.reads(instr.idx, defined, instr)
            self.read(instr.v, defined, instr)
            self.check_affine(instr.affine, instr.idx, {}, "upd_acc", instr)
            self.write(*instr.out, defined, instr)
        else:  # pragma: no cover - exhaustiveness guard
            self.fail(f"unknown instruction kind {kind!r}", instr)
        return left

    def check_contract(self, instr: IContract) -> None:
        """What the kernel takes on trust: each argument is what ``lanes``
        says, and the terms are what its fallback body computes."""
        for q, (a, lane) in enumerate(zip(instr.arrs, instr.lanes)):
            if ("rep" if isinstance(a, tuple) else self.facts.get(a.slot)) != (
                    "iota" if lane else "rep"):
                self.fail(f"contract argument {q} is no {'iota' if lane else 'replicate'}",
                          instr)
        found = contract_terms(instr.body, instr.params, instr.lanes, len(instr.accs))
        if found is None:
            self.fail("contract falls back to a body that is no +∘* nest", instr)
        elif (found[1], list(map(id, found[0]))) != (instr.terms, list(map(id, instr.xs))):
            self.fail(f"contract records terms {instr.terms}, its body computes "
                      f"{found[1]}", instr)

    def _check_operator_part(self, instr, defined: Set[int]) -> Set[int]:
        """The fused map part / generic lambda of a reduce/scan/hist;
        returns the slots they left bound."""
        left: Set[int] = set()
        if instr.mparams is not None or instr.mbody is not None:
            inner = set(defined)
            # The map part runs over the folded arrays (a hist's: its values).
            arrs = instr.arrs[1:] if instr.kind == "hist" else instr.arrs
            self.bind_params(instr.mparams, inner, instr, arrs)
            self.check_body(instr.mbody, inner)
            left |= inner - defined
        if instr.params is not None or instr.body is not None:
            inner = set(defined)
            self.bind_params(instr.params, inner, instr)
            self.check_body(instr.body, inner)
            left |= inner - defined
        return left


def verify_plan_ir(ir: PlanIR, where: str = "lower") -> PlanIR:
    """Check the plan-IR invariants; returns ``ir`` unchanged on success."""
    with _tracing.span(
        "verify", cat="verify", fun=ir.fun.name, where=where, layer="plan"
    ):
        VERIFY_STATS["plan_checks"] += 1
        try:
            ck = _PlanChecker(ir, where)
            defined: Set[int] = set()
            seen_params: Set[int] = set()
            for slot, p in zip(ir.param_slots, ir.fun.params):
                if slot in seen_params:
                    ck.fail(f"parameter slot {slot} ({p.name!r}) duplicated")
                seen_params.add(slot)
                ck.write(slot, p.name, defined)
            ck.check_body(ir.body, defined)
        except VerifyError:
            VERIFY_STATS["failures"] += 1
            raise
    return ir


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


class _LayoutChecker:
    """Checks a ``Layout`` against the plan IR it was computed for, walking
    every body once: a loop's, a fold's and an ``if``'s join facts are taken
    as given and checked to hold everything that flows into them."""

    def __init__(self, lay: Layout, where: str) -> None:
        self.lay = lay
        self.where = where
        #: slot -> (batch depth, accumulator?) of its current binding.
        self.env: Dict[int, Tuple[int, bool]] = {}
        #: The kernel runs to check (``verify_layout``).
        self.kernel_runs: Dict[IRun, object] = {}

    def fail(self, msg: str, instr=None) -> None:
        raise VerifyError(f"plan layout: {msg}", self.where, _stm_of(instr))

    def fact(self, r) -> Tuple[int, bool]:
        return self.env[r.slot] if r.slot is not None else (0, False)

    def depth(self, r) -> int:
        return self.fact(r)[0]

    def bind(self, pslots, facts) -> None:
        for (s, _n), f in zip(pslots, facts):
            self.env[s] = f

    def recorded(self, table, ins, what: str):
        got = table.get(ins)
        if got is None:
            self.fail(f"no {what} for this {ins.kind}", ins)
        return got

    def body(self, pbody: PBody, depth: int, masked: int) -> List[Tuple[int, bool]]:
        for ins in pbody.instrs:
            if ins.kind == "run":
                self.run(ins)
                continue
            want = self.instr(ins, depth, masked)
            got = self.recorded(self.lay.outs, ins, "output facts")
            if tuple(b for b, _ in want) != got:
                self.fail(f"output batch depths {got}, expected "
                          f"{tuple(b for b, _ in want)}", ins)
            self.bind((ins.out,) if hasattr(ins, "out") else ins.outs, want)
        return [self.fact(r) for r in pbody.result]

    def run(self, ins: IRun) -> None:
        prov = ins.prov if len(ins.prov) == len(ins.ops) else ()
        local: List[Tuple[int, bool]] = []
        for pos, o in enumerate(ins.ops):
            what = f"run op {pos} ({o.kind})"
            if prov:
                types = tuple(rank_of(a.type) for a in run_atoms(prov[pos].exp))
                if o.pranks != types:
                    self.fail(f"{what} records payload ranks {o.pranks}, its "
                              f"operands' types give {types}", ins)
            facts = [local[x] if isinstance(x, int) else self.fact(x) for x in o.xs]
            bs = tuple(b for b, _ in facts)
            lo = self.recorded(self.lay.ops, o, f"layout of {what}")
            if o.kind in ("atom", "cast", "zeroslike"):
                k, sels, view = bs[0], (None,), None
            elif o.kind == "index":
                k = max(bs)
                sels = tuple(lift(b, k) for b in bs)
                view = (None if o.affine is None
                        else _view_template(bs[0], bs[1:], o.affine, k))
            else:
                k, pmax = max(bs), max(o.pranks)
                sels = tuple(selector(b, p, k, pmax) for b, p in zip(bs, o.pranks))
                view = None
            if lo.k != k or lo.bs != bs:
                self.fail(f"{what} is at batch depth {lo.k} over operands at "
                          f"{lo.bs}, its operands {bs} put it at {k}", ins)
            if repr((lo.sels, lo.view)) != repr((sels, view)):
                self.fail(f"{what}: selectors and view {(lo.sels, lo.view)!r}, its "
                          f"operands' batch depths {bs} and payload ranks "
                          f"{o.pranks} give {(sels, view)!r}", ins)
            local.append(facts[0] if o.kind == "atom" else (k, False))
        got = self.recorded(self.lay.outs, ins, "output facts")
        if got != tuple(local[li][0] for li, _s, _n in ins.exports):
            self.fail(f"run exports recorded at batch depths {got}", ins)
        for li, s, _n in ins.exports:
            self.env[s] = local[li]
        if ins in self.kernel_runs:
            self.kernel(ins, self.kernel_runs[ins], local)

    def kernel(self, ins: IRun, kr, local) -> None:
        from .kernels import split_run

        if getattr(split_run(ins, self.lay), "cpart", None) != kr.cpart:
            self.fail("kernel partition is not the one its ops give", ins)
        for x, o in enumerate(ins.ops):
            if not kr.cpart[x] and any(isinstance(y, int) and kr.cpart[y] for y in o.xs):
                self.fail(f"NumPy-part op {x} ({o.kind}) reads a C value", ins)
        for what, j, y, got in [("input", j, y, b) for j, (y, b) in enumerate(kr.inputs)] + [
                ("export", li, li, k) for li, _s, k in kr.exports]:
            want = local[y][0] if isinstance(y, int) else self.depth(y)
            if want != got:
                self.fail(f"kernel {what} {j} declared at batch depth {got}, its "
                          f"layout puts it at {want}", ins)

    def join(self, ins, incoming, depth: int) -> Tuple[Tuple[int, bool], ...]:
        """The join facts recorded for ``ins``, checked against what flows
        in: ``incoming[j]`` lists the facts reaching output ``j``, plus the
        depth of a condition or trip count, which only values join."""
        ks = self.recorded(self.lay.kernel, ins, "join facts")
        if ins.kind == "update":
            ks = (ks,)
        if len(ks) != len(incoming):
            self.fail(f"{len(ks)} join facts for {len(incoming)} values", ins)
        out = []
        for j, (k, (facts, cond)) in enumerate(zip(ks, incoming)):
            if any(a for _, a in facts):
                if any(f != (k, True) for f in facts):
                    self.fail(f"value {j} joins accumulator facts {facts} at {k}", ins)
                out.append((k, True))
                continue
            low = max([b for b, _ in facts] + [cond])
            if not low <= k <= depth:
                self.fail(f"value {j} joins at batch depth {k}, below what flows "
                          f"in ({low}) or beyond its nest ({depth})", ins)
            out.append((k, False))
        return tuple(out)

    def instr(self, ins, depth: int, masked: int) -> List[Tuple[int, bool]]:
        kind, dep = ins.kind, self.depth
        if kind == "update":
            (f,) = self.join(ins, [([self.fact(ins.arr), self.fact(ins.val)]
                                     + [self.fact(i) for i in ins.idx], masked)], depth)
            return [f]
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
            got = self.recorded(self.lay.kernel, ins, "depth and view")
            if repr(got) != repr((k, view)):
                self.fail(f"upd_acc recorded at {got!r}, its operands give "
                          f"{(k, view)!r}", ins)
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
            want = contract_layout(ins, self.fact, depth)
            if ins not in self.lay.kernel or repr(self.lay.kernel[ins]) != repr(want):
                self.fail(f"contract recorded as {self.lay.kernel.get(ins)!r}, its "
                          f"operands give {want!r}", ins)
            return accs or [(depth, False)]
        if kind in ("reduce", "scan", "hist"):
            if ins.mbody is not None:
                self.bind(ins.mparams, [(depth + 1, False)] * len(ins.mparams))
                self.body(ins.mbody, depth + 1, masked)
            outs = [(depth, False)] * len(ins.outs)
            if ins.body is None:
                return outs
            if kind == "hist":
                self.bind(ins.params, [(depth, False)] * len(ins.params))
                self.body(ins.body, depth, masked)
                return outs
            nes = [self.fact(r) for r in ins.nes]
            ks = self.join(ins, [([f], 0) for f in nes], depth)
            self.bind(ins.params, ks + ((depth, False),) * (len(ins.params) - len(nes)))
            self.join(ins, [([f, r], 0) for f, r in
                            zip(nes, self.body(ins.body, depth, masked))], depth)
            return list(ks) if kind == "reduce" else outs
        if kind == "withacc":
            self.bind(ins.params, [(depth, True)] * len(ins.params))
            res = self.body(ins.body, depth, masked)
            return [(depth, False)] * ins.n_acc + res[ins.n_acc:]
        if kind == "if":
            c = dep(ins.cond)
            then = self.body(ins.then, depth, max(masked, c))
            els = self.body(ins.els, depth, max(masked, c))
            return list(self.join(ins, [([t, e], c) for t, e in zip(then, els)], depth))
        if kind == "loop":
            n = dep(ins.n)
            inits = [self.fact(r) for r in ins.inits]
            ks = self.join(ins, [([f], n) for f in inits], depth)
            self.bind(ins.ivar + ins.params, ((0, False),) + ks)
            res = self.body(ins.body, depth, max(masked, n))
            self.join(ins, [([f, r], n) for f, r in zip(inits, res)], depth)
            return list(ks)
        if kind == "while":
            inits = [self.fact(r) for r in ins.inits]
            ks = self.join(ins, [([f], masked) for f in inits], depth)
            self.bind(ins.cparams, ks)
            (c,) = self.body(ins.cbody, depth, masked)
            self.bind(ins.params, ks)
            res = self.body(ins.body, depth, max(masked, c[0]))
            self.join(ins, [([f, r], max(masked, c[0])) for f, r in zip(inits, res)], depth)
            return list(ks)
        self.fail(f"unknown instruction kind {kind!r}", ins)
        return []


def verify_layout(ir: PlanIR, lay: Layout, where: str = "layout", kernel_runs=None) -> Layout:
    """Check ``lay`` against ``ir``: each fused-run op's depth is the one
    its operands give (the deepest; an ``atom`` / ``cast`` / ``zeroslike``
    its operand's), each selector and view template the one ``(bdims,
    prank)`` gives, each payload rank the one its IR type gives, each join
    (``if``, ``loop``, ``while``, generic fold, ``update``) at least as deep
    as every value flowing in and no deeper than its nest, and every other
    output at the depth its kernel puts it.  With ``kernel_runs`` (a hot
    plan's ``IRun`` -> ``kernels.split_run`` partition) each is the
    partition its ops give, no NumPy-part op reads a C value, and every
    kernel input and export is at its layout depth.  Returns ``lay``."""
    with _tracing.span("verify", cat="verify", fun=ir.fun.name, where=where,
                       layer="layout"):
        VERIFY_STATS["kernel_checks" if kernel_runs else "layout_checks"] += 1
        try:
            ck = _LayoutChecker(lay, where)
            ck.kernel_runs = kernel_runs or {}
            ck.bind(((s, "") for s in ir.param_slots), [(0, False)] * len(ir.param_slots))
            ck.body(ir.body, 0, 0)
        except VerifyError:
            VERIFY_STATS["failures"] += 1
            raise
    return lay
