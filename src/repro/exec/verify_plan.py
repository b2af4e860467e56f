"""Layer-2 static verifier: plan-IR well-formedness and codegen sanity.

The plan compiler (``exec/lower.py``) flattens SSA names onto a single slot
space; both emitters (closure interpreter and source codegen) rely on a set
of structural invariants this module checks once per lowering:

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
  dead at that op and unexported.  The ``recycle`` and ``take`` marks only
  say where the executor's reference-count check is worth making, but they
  are what keeps it off every other release point, so they are re-derived
  here from the plan IR alone: a recycled value is released by the marked
  op or instruction itself, was written in the releasing body by a kernel
  that allocates its result (an allocating run op; ``update`` / ``replicate``
  / ``scratch`` / …; a ``map`` result; a ``withacc`` accumulator result; a
  bulk reduce) — never a parameter, a view, or a nested body's result other
  than the map part of a reduce / scan / hist, which the fold kernel
  consumes — and sits in no handing-on position anywhere in the plan (an
  ``atom`` operand, a nested body's result, a loop's initial state, a fold's
  neutral element); a taker is an ``out=``-capable op;
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

``verify_codegen_source`` checks the source-codegen emitter's output: the
generated module must parse (``ast.parse``) and must not reference any free
name beyond the injected namespace defaults and a small builtin allowlist
(every helper is passed as a keyword-only default of ``_plan_main``, so a
stray global load means the emitter produced a dangling reference).

Both are gated on ``REPRO_VERIFY`` (see ``ir/verify.py``) and run at
*compile* time only — cached-plan reuse never re-verifies (the ``verify``
section of ``plan_cache_stats()`` counts checks per lowering).
"""
from __future__ import annotations

import ast as _pyast
import dis
from typing import Dict, Optional, Set

from ..ir.verify import VERIFY_STATS, VerifyError, verify_mode
from ..obs import tracing as _tracing
from .lower import (
    _ALLOCATING,
    IIf,
    ILoop,
    IMap,
    IntRef,
    IReduce,
    IRun,
    IWhile,
    IWithAcc,
    PBody,
    PlanIR,
    Ref,
    nested_bodies,
)
from .prims import INPLACE_OPS

__all__ = ["verify_plan_ir", "maybe_verify_plan_ir", "verify_codegen_source"]


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
        #: lane-affine integer), for the slot's *current* binding: every
        #: ``write`` forgets what the previous one established.
        self.facts: Dict[int, str] = {}
        #: Slots whose current binding is an array the writing kernel has
        #: just allocated (every ``write`` says which).
        self.fresh: Set[int] = set()
        #: slot -> what hands its value on as it is, anywhere in the plan.
        self.handed: Dict[int, str] = {}
        self.note_handed(ir.body)

    def note_handed(self, body: PBody) -> None:
        def note(refs, who: str) -> None:
            for r in refs or ():
                if isinstance(r, Ref) and r.slot is not None:
                    self.handed.setdefault(r.slot, who)

        for ins in body.instrs:
            kind = ins.kind
            if kind == "run":
                note([o.xs[0] for o in ins.ops if o.kind == "atom"], "an atom op")
            elif kind in ("loop", "while"):
                note(ins.inits, f"a {kind}'s initial state")
            elif kind in ("reduce", "scan", "hist"):
                note(ins.nes, f"a {kind}'s neutral element")
            for b in nested_bodies(ins):
                # The map part's result goes to the fold kernel and no further.
                if b is not getattr(ins, "mbody", None):
                    note(b.result, f"the result of a {kind} body")
                self.note_handed(b)

    def fail(self, msg: str, instr=None) -> None:
        raise VerifyError(f"plan IR: {msg}", self.where, _stm_of(instr))

    # -- write/read primitives ---------------------------------------------

    def write(self, slot: int, name: str, defined: Set[int], instr=None,
              fresh: bool = False) -> None:
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
        if fresh:
            self.fresh.add(slot)
        else:
            self.fresh.discard(slot)

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
        names = dict(instr.release)
        mbody = getattr(instr, "mbody", None)
        spare = {r.slot for r in mbody.result} if mbody is not None else ()
        for slot in instr.recycle:
            what = f"slot {slot} ({names.get(slot, '?')!r})"
            if slot not in names:
                self.fail(f"recycles {what}, which it does not release", instr)
            if slot in left and slot not in spare:
                self.fail(
                    f"recycles {what}, a parameter or result of its nested body: "
                    f"only the map part of a reduce/scan/hist hands its result "
                    f"to a kernel that consumes it",
                    instr,
                )
            if slot not in self.fresh:
                self.fail(
                    f"recycles {what}, which no allocating kernel produced "
                    f"(a parameter, a view or a forwarded value may be visible "
                    f"elsewhere)",
                    instr,
                )
            if slot in self.handed:
                self.fail(f"recycles {what}, which {self.handed[slot]} hands on", instr)

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

        # The free-list marks (after the donation clauses: a mark left on an
        # op whose kind a rewrite changed breaks those first).
        for pos, op in enumerate(ops):
            if op.take and (op.kind not in ("unop", "binop") or op.op not in INPLACE_OPS):
                self.fail(
                    f"run op {pos} ({op.kind} {op.op!r}) is marked a taker but "
                    f"cannot compute in place",
                    instr,
                )
            for x in op.recycle:
                if x not in op.release:
                    self.fail(
                        f"run op {pos} recycles {x!r}, which it does not release", instr
                    )
                if ops[x].kind not in _ALLOCATING:
                    self.fail(
                        f"run op {pos} recycles {local(x)} produced by "
                        f"{ops[x].kind!r}, which does not own its buffer",
                        instr,
                    )
                if x in handed_on:
                    q = handed_on[x]
                    self.fail(
                        f"run op {pos} recycles {local(x)}, which op {q} "
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
            viewed = {o.xs[0] for o in instr.ops if o.kind in ("atom", "index")}
            for idx, slot, name in instr.exports:
                if not (0 <= idx < len(instr.ops)):
                    self.fail(
                        f"run export {name!r} references op {idx} outside "
                        f"the run",
                        instr,
                    )
                self.write(slot, name, defined, instr,
                           fresh=instr.ops[idx].kind in _ALLOCATING and idx not in viewed)
                if idx in local:
                    self.facts[slot] = local[idx]
            self.check_run_memory(instr)
        elif kind == "update":
            self.read(instr.arr, defined, instr)
            self.reads(instr.idx, defined, instr)
            self.read(instr.val, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
        elif kind == "iota":
            self.read(instr.n, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
            self.facts[instr.out[0]] = "iota"
        elif kind == "replicate":
            self.read(instr.n, defined, instr)
            self.read(instr.v, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
        elif kind == "scratch":
            self.read(instr.n, defined, instr)
            self.read(instr.x, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
        elif kind == "size":
            self.read(instr.arr, defined, instr)
            self.write(*instr.out, defined, instr)
        elif kind == "reverse":
            self.read(instr.x, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
        elif kind == "concat":
            self.read(instr.x, defined, instr)
            self.read(instr.y, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
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
            for j, (slot, name) in enumerate(instr.outs):
                self.write(slot, name, defined, instr, fresh=j >= instr.n_acc)
        elif isinstance(instr, IReduce):  # also IScan (subclass)
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.nes, defined, instr)
            left = self._check_operator_part(instr, defined)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr, fresh=instr.strategy != "generic")
        elif kind == "hist":
            self.read(instr.num_bins, defined, instr)
            self.reads(instr.arrs, defined, instr)
            self.reads(instr.nes, defined, instr)
            left = self._check_operator_part(instr, defined)
            for slot, name in instr.outs:
                self.write(slot, name, defined, instr, fresh=instr.strategy != "generic")
        elif kind == "scatter":
            self.read(instr.dest, defined, instr)
            self.read(instr.inds, defined, instr)
            self.read(instr.vals, defined, instr)
            self.write(*instr.out, defined, instr, fresh=True)
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
            self.bind_params(instr.params, inner, instr)
            self.write(*instr.ivar, inner, instr)
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
            for j, (slot, name) in enumerate(instr.outs):
                self.write(slot, name, defined, instr, fresh=j < instr.n_acc)
        elif kind == "updacc":
            self.read(instr.acc, defined, instr)
            self.reads(instr.idx, defined, instr)
            self.read(instr.v, defined, instr)
            self.check_affine(instr.affine, instr.idx, {}, "upd_acc", instr)
            self.write(*instr.out, defined, instr)
        else:  # pragma: no cover - exhaustiveness guard
            self.fail(f"unknown instruction kind {kind!r}", instr)
        return left

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


def maybe_verify_plan_ir(ir: PlanIR, where: str = "lower") -> PlanIR:
    """``verify_plan_ir`` gated on ``REPRO_VERIFY`` (the lowering hook)."""
    if verify_mode() == "off":
        return ir
    return verify_plan_ir(ir, where=where)


# ---------------------------------------------------------------------------
# Codegen source sanity
# ---------------------------------------------------------------------------

#: Builtins the rendered source may reference as globals.  Everything else
#: must arrive through the injected keyword-only defaults of ``_plan_main``.
_SAFE_BUILTINS = frozenset(
    {
        "range",
        "len",
        "int",
        "float",
        "bool",
        "min",
        "max",
        "abs",
        "slice",
        "tuple",
        "list",
        "zip",
        "enumerate",
        "isinstance",
        "Exception",
        "RuntimeError",
        "ValueError",
    }
)


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def verify_codegen_source(
    fun_name: str, source: str, namespace, where: str = "codegen"
) -> None:
    """Check a rendered codegen module: parses, and no dangling free names."""
    with _tracing.span(
        "verify", cat="verify", fun=fun_name, where=where, layer="codegen"
    ):
        VERIFY_STATS["codegen_checks"] += 1
        try:
            _pyast.parse(source)
        except SyntaxError as err:
            VERIFY_STATS["failures"] += 1
            raise VerifyError(
                f"generated source for {fun_name!r} does not parse: {err}",
                where=where,
            ) from err
        allowed = set(namespace) | _SAFE_BUILTINS
        code = compile(source, f"<verify:{fun_name}>", "exec")
        for co in _code_objects(code):
            for ins in dis.get_instructions(co):
                if ins.opname in ("LOAD_GLOBAL", "LOAD_NAME"):
                    if ins.argval not in allowed:
                        VERIFY_STATS["failures"] += 1
                        raise VerifyError(
                            f"generated source for {fun_name!r} references "
                            f"free name {ins.argval!r} outside the injected "
                            f"namespace",
                            where=where,
                        )


def maybe_verify_codegen_source(fun_name: str, source: str, namespace) -> None:
    """``verify_codegen_source`` gated on ``REPRO_VERIFY``."""
    if verify_mode() == "off":
        return
    verify_codegen_source(fun_name, source, namespace)
