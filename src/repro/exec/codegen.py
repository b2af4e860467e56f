"""Source-codegen emitter — plan IR rendered to one compiled Python function.

The closure interpreter (``exec/plan.py``) executes a lowered plan as a flat
list of Python closures: one indirect call, one argument tuple, and a few
register-file reads per instruction.  For the scalar-heavy bodies AD emits,
that per-instruction dispatch is the remaining interpreter overhead — the
NumPy work inside each closure is often nanoseconds.

This emitter removes the dispatch.  It renders the **same plan IR**
(``exec/lower.py``) to the source of a single Python function:

* register slots become local variables (``s12``) — no register-file
  indexing, no unbound checks on the hot path;
* fused scalar runs become straight-line expressions over locals;
* an instruction without a nested body becomes one call of its
  ``vector.LEAF_KERNELS`` kernel, ufuncs, dtypes and constant ``BV``s
  injected as compile-time constants (``_K3``) through the exec namespace;
* control flow becomes real Python ``for``/``while``/``try`` around the
  inlined lambda bodies — only ``If`` branches get nested ``def``s, which
  ``vector._branch`` calls;
* generic SOAC lambdas inline into Python loops — still element-at-a-time,
  but with zero closure dispatch per statement.

The source is ``compile()``/``exec()``d once per plan and the resulting
code object lives in the ordinary plan cache (same keys —
``plan_for(..., emitter="codegen")``).  Lowering is shared and every NumPy
call sequence is a ``vector.py`` kernel both emitters call, so for what an
instruction computes the two are bitwise identical by construction; what the
test suite's bitwise assertions (parity battery, fuzz corpus) still guard is
what differs — slot binding, releases, control flow and fused runs.

Soundness of the flat local-variable space: SSA names are globally unique
per program, so no two slots alias one local; ``If`` branch ``def``s only
assign names bound inside that branch (never read outside it in scoped
programs) and close over earlier locals by reference.  One deliberate
divergence: reading a genuinely unbound variable raises ``NameError``
instead of the interpreter's ``ExecError`` — valid scoped programs never do
this, and dropping the per-read check is part of the speedup.

``CodegenPlan.source`` is the generated module text.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..ir.ast import Fun
from ..obs import tracing as _obs_tracing
from ..util import ExecError
from . import values as _values
from .lower import IntRef, PlanIR, Ref, nested_bodies
from .plan import Plan, _out_slot, _scalar_fn, plan_for
from .prims import cast_to
from .vector import (
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
    _stack_columns,
    _uniform_int,
    _where,
    leaf_kernel,
)

__all__ = [
    "CodegenPlan",
    "run_fun_codegen",
    "run_fun_codegen_batched",
]


def _ret(res: Sequence[str]) -> str:
    return f"return ({', '.join(res)},)" if res else "return ()"


class _SrcEmitter:
    """Renders one ``PlanIR`` to Python source plus an exec namespace.

    Slots print as ``s{n}`` locals, injected helpers under their own names
    (``use``), other injected objects as ``_K{n}`` constants, temporaries as
    ``_t{n}`` (the counter is global to the program so a name is never reused
    across scopes — nested ``def``s can shadow nothing).  Like the closure
    emitter it binds operands and renders control flow; what an instruction
    computes is a ``vector.py`` kernel call."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.level = 1
        self.n = 0
        #: Every name the rendered function may reference: what the templates
        #: used, nothing kept in step by hand.
        self.ns: Dict[str, object] = {"np": np, "BV": BV, "AccBV": AccBV}
        self._const_names: Dict[int, str] = {}
        #: Temporaries of the instruction being emitted (``emit_body`` clears
        #: them with the instruction's releases: a template's ``args`` would
        #: otherwise pin the arrays the memory plan just let go of).
        self.temps: List[str] = []
        #: The local of the body being emitted that says whether its lane
        #: extent reaches the size floor (``_Engine.lanes`` / ``.floor``):
        #: takers and recyclable run-local releases render under it.
        self.big = ""

    # -- infrastructure -------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def fresh(self, prefix: str = "t") -> str:
        self.n += 1
        nm = f"_{prefix}{self.n}"
        self.temps.append(nm)
        return nm

    def use(self, helper, name: str = "") -> str:
        """Inject ``helper`` under its own name; returns the name."""
        name = name or helper.__name__
        self.ns[name] = helper
        return name

    def const(self, obj) -> str:
        # Uppercase prefix: fresh() temporaries are all lowercase, so an
        # injected constant can never be shadowed by a generated local.
        nm = self._const_names.get(id(obj))
        if nm is None:
            nm = self._const_names[id(obj)] = f"_K{len(self._const_names)}"
            self.ns[nm] = obj
        return nm

    def ref(self, r: Ref) -> str:
        if r.slot is not None:
            return f"s{r.slot}"
        return self.const(r.bv)

    def operand(self, x) -> str:
        """The expression of an instruction operand: a ``Ref``, a tuple of
        them (a list display) or an ``IntRef`` (a literal, or a register read
        validated for lane-uniformity per call)."""
        if isinstance(x, tuple):
            return "[" + ", ".join(self.ref(r) for r in x) + "]"
        if not isinstance(x, IntRef):
            return self.ref(x)
        if x.const is not None:
            return repr(int(x.const))
        return f"{self.use(_uniform_int)}({self.ref(x.ref)}, {x.what!r})"

    def static(self, v) -> str:
        if v is None or isinstance(v, (bool, int, str, tuple)):
            return repr(v)
        return self.const(v)

    def bind(self, slots, vals: str) -> None:
        """Assign the ``(slot, name)`` pairs ``slots`` from sequence ``vals``."""
        for j, (slot, _nm) in enumerate(slots):
            self.w(f"s{slot} = {vals}[{j}]")

    # -- bodies ---------------------------------------------------------------

    def emit_body(self, pbody) -> Tuple[str, ...]:
        """Emit a lowered body at the current indent; returns the names of
        its results."""
        if not pbody.instrs:
            self.w("pass")  # keep indented blocks (try:, def:) syntactically valid
        outer = self.big
        if any(o.take or o.recycle for i in pbody.instrs if i.kind == "run" for o in i.ops):
            self.big = self.fresh("big")
            self.temps.pop()  # a flag pins nothing: no need to clear it
            self.w(f"{self.big} = eng.lanes >= eng.floor")
        for ins in pbody.instrs:
            first = len(self.temps)
            leaf = leaf_kernel(ins)
            if leaf is None:
                getattr(self, "_emit_" + ins.kind)(ins)
            else:
                kernel, operands, statics = leaf
                args = [self.operand(getattr(ins, f)) for f in operands]
                args += [self.static(getattr(ins, f)) for f in statics]
                self.w(f"s{_out_slot(ins)} = {self.use(kernel)}(eng, {', '.join(args)})")
            self._emit_release(ins, self.temps[first:])
            del self.temps[first:]
        self.big = outer
        return tuple(self.ref(r) for r in pbody.result)

    def _emit_release(self, ins, temps) -> None:
        """Clear the locals of the slots ``ins`` releases and the template
        temporaries its emission introduced, then offer the recyclable ones
        to the free list (last: a value is only kept once nobody else holds
        it).  Bodies rendered as nested ``def``s (``if`` branches) keep their
        slots in that ``def``'s frame, which is gone already."""
        dead = [s for s, _ in ins.release if s not in ins.recycle]
        if ins.kind == "if":
            framed = {s for b in nested_bodies(ins) for s, _ in b.bound}
            dead = [s for s in dead if s not in framed]
        names = [f"s{s}" for s in dead] + list(temps)
        if names:
            self.w(" = ".join(names) + " = None")
        if ins.recycle:
            # ``eng.out`` is empty until the call has taken a buffer from the
            # free list: until then nothing offered would be admitted.
            give = self.use(_give)
            self.w("if eng.out: " + "; ".join(f"s{s} = {give}(s{s})" for s in ins.recycle))
            self.w(" = ".join(f"s{s}" for s in ins.recycle) + " = None")

    def _emit_lanes(self, params, body, src, n: str) -> Tuple[str, ...]:
        """Inline a SOAC lambda: bind its params to the ``src(i)``
        expressions, then emit the body one batch level (of extent ``n``)
        down.  Returns the names of its results."""
        for i, (slot, _name) in enumerate(params):
            self.w(f"s{slot} = {src(i)}")
        outer = self.fresh("ln")
        self.temps.pop()  # an int
        self.w(f"eng.bstack.append({n})")
        self.w(f"{outer} = eng.lanes")
        self.w(f"eng.lanes = {outer} * {n}")
        self.w("try:")
        self.level += 1
        res = self.emit_body(body)
        self.level -= 1
        self.w("finally:")
        self.w("    eng.bstack.pop()")
        self.w(f"    eng.lanes = {outer}")
        return res

    def _enter(self, arrs) -> Tuple[str, str]:
        """Emit a SOAC entry; returns the names of its batched arguments and
        their common extent."""
        args, n = self.fresh("a"), self.fresh("n")
        self.w(f"{args}, {n} = {self.use(_batch_args)}(eng, {self.operand(arrs)})")
        return args, n

    # -- fused scalar runs ----------------------------------------------------

    def _run_expr(self, o, names: List[str]) -> str:
        opn = lambda x: names[x] if isinstance(x, int) else self.ref(x)  # noqa: E731
        k = o.kind
        if k == "atom":
            return opn(o.xs[0])
        if k in ("unop", "binop"):
            uf = self.const(_scalar_fn(o))
            args = ", ".join(opn(x) for x in o.xs)
            into = f"{self.use(_elem_into)}({uf}, {o.donate!r}, {args}"
            if o.donate:
                return into + (f", take={self.big})" if o.take else ")")
            plain = f"{self.use(_elem)}({uf}, {args})"
            return f"({into}, take=True) if {self.big} else {plain})" if o.take else plain
        if k == "select":
            c, t, f = (opn(x) for x in o.xs)
            return f"{self.use(_where)}({c}, {t}, {f})"
        if k == "cast":
            x = opn(o.xs[0])
            return f"BV({self.use(cast_to)}({x}.data, {self.const(o.dtype)}), {x}.bdims)"
        if k == "index":
            a = opn(o.xs[0])
            idx = ", ".join(opn(x) for x in o.xs[1:])
            if o.affine is None:
                return f"{self.use(_gather)}({a}, [{idx}])"
            return f"{self.use(_index)}({a}, [{idx}], {o.affine!r})"
        if k == "zeroslike":
            x = opn(o.xs[0])
            return f"BV(np.zeros_like(np.asarray({x}.data)), {x}.bdims)"
        raise ExecError(f"codegen: unexpected run op {k!r}")

    def _emit_run(self, ins) -> None:
        exported = {li: s for li, s, _n in ins.exports}
        names: List[str] = []
        for i, o in enumerate(ins.ops):
            nm = f"s{exported[i]}" if i in exported else self.fresh()
            self.w(f"{nm} = {self._run_expr(o, names)}")
            names.append(nm)
            if o.release:
                dead = [names[y] for y in o.release]  # never an exported one
                if o.recycle:
                    gives = "; ".join(
                        f"{names[y]} = {self.use(_give)}({names[y]})" for y in o.recycle
                    )
                    dead = [names[y] for y in o.release if y not in o.recycle]
                    if dead:
                        self.w(" = ".join(dead) + " = None")
                    self.w(f"if {self.big}: {gives}")
                    dead = [names[y] for y in o.recycle]
                self.w(" = ".join(dead) + " = None")
                for y in o.release:
                    self.temps.remove(names[y])

    # -- SOACs ----------------------------------------------------------------

    def _emit_map(self, e) -> None:
        args, n = self._enter(e.arrs)
        srcs = [f"{args}[{i}]" for i in range(len(e.arrs))] + [self.ref(a) for a in e.accs]
        res = self._emit_lanes(e.params, e.body, srcs.__getitem__, n)
        for j, (slot, _nm) in enumerate(e.outs):
            if j < e.n_acc:
                self.w(f"s{slot} = {self.use(_map_acc)}(eng, {res[j]})")
            else:
                self.w(f"s{slot} = {self.use(_map_result)}(eng, {res[j]}, {n})")

    def _emit_reduce(self, e) -> None:
        """``redomap`` and ``generic`` reduces and scans (``ufunc`` ones are
        leaf kernels)."""
        args, n = self._enter(e.arrs)
        if e.strategy != "redomap":
            self._emit_fold_loop(e, args, n)
            return
        empty, tail = REDOMAP_TAILS[e.kind]
        ne, out = self.ref(e.nes[0]), e.outs[0][0]
        self.w(f"if {n} == 0:")
        self.w(f"    s{out} = {self.use(empty)}(eng, {ne})")
        for s in e.mbody.spare:  # offered to the free list below: bind them here too
            self.w(f"    s{s} = None")
        self.w("else:")
        self.level += 1
        (r,) = self._emit_lanes(e.mparams, e.mbody, lambda i: f"{args}[{i}]", n)
        self.w(f"s{out} = {self.use(tail)}(eng, {e.op!r}, {e.fold!r}, {ne}, {r}, {n})")
        self.level -= 1

    _emit_scan = _emit_reduce

    def _emit_fold_loop(self, e, args: str, n: str) -> None:
        """The generic element-at-a-time fold shared by reduce and scan."""
        scan = e.kind == "scan"
        k = len(e.nes)
        d, acc, i, el = self.fresh("d"), self.fresh("acc"), self.fresh("i"), self.fresh("el")
        self.w(f"{d} = len(eng.bstack)")
        self.w(f"{acc} = {self.operand(e.nes)}")
        if scan:
            cols = self.fresh("cols")
            self.w(f"{cols} = [[] for {self.fresh()} in range({k})]")
        self.w(f"for {i} in range({n}):")
        self.level += 1
        self.w(f"{el} = {self.use(_elems_at)}({args}, {i}, {d})")
        for j, (slot, _nm) in enumerate(e.params):
            self.w(f"s{slot} = {acc}[{j}]" if j < k else f"s{slot} = {el}[{j - k}]")
        res = self.emit_body(e.body)
        self.w(f"{acc} = [{', '.join(res)}]")
        if scan:
            for j in range(k):
                self.w(f"{cols}[{j}].append({acc}[{j}])")
        self.level -= 1
        if not scan:
            self.bind(e.outs, acc)
            return
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(
                f"s{slot} = {self.use(_stack_columns)}"
                f"(eng, {cols}[{j}], {self.ref(e.nes[j])})"
            )

    def _emit_hist(self, e) -> None:
        """``redomap`` and ``generic`` histograms."""
        args, n, hs = self.fresh("a"), self.fresh("n"), self.fresh("hs")
        # num_bins resolves before the arrays batch, as in the closure emitter.
        self.w(
            f"{args}, {n}, {hs} = {self.use(_hist_enter)}"
            f"(eng, {self.operand(e.num_bins)}, {self.operand(e.arrs)})"
        )
        if e.strategy == "redomap":
            (r,) = self._emit_lanes(e.mparams, e.mbody, lambda i: f"{args}[{i + 1}]", n)
            self.w(
                f"s{e.outs[0][0]} = {self.use(_hist_accumulate)}"
                f"(eng, {e.op!r}, {self.ref(e.nes[0])}, {hs}, {r})"
            )
            return
        k = len(e.nes)
        d, vals, st = self.fresh("d"), self.fresh("v"), self.fresh("st")
        i, sel, cur, el = self.fresh("i"), self.fresh("sel"), self.fresh("cur"), self.fresh("el")
        self.w(f"{d} = len(eng.bstack)")
        self.w(f"{vals} = {args}[1:]")
        self.w(f"{st} = {self.use(_hist_open)}(eng, {self.operand(e.nes)}, {hs}, {vals})")
        self.w(f"for {i} in range({n}):")
        self.level += 1
        self.w(f"{sel}, {cur} = {self.use(_hist_get)}(eng, {st}, {i})")
        self.w(f"{el} = {self.use(_elems_at)}({vals}, {i}, {d})")
        for j, (slot, _nm) in enumerate(e.params):
            self.w(f"s{slot} = {cur}[{j}]" if j < k else f"s{slot} = {el}[{j - k}]")
        res = self.emit_body(e.body)
        self.w(f"{self.use(_hist_put)}(eng, {st}, {i}, {sel}, ({', '.join(res)},))")
        self.level -= 1
        self.bind(e.outs, f"{st}[0]")

    # -- control flow ----------------------------------------------------------

    def _emit_if(self, e) -> None:
        # Each branch body is emitted once, into a nested ``def``, and
        # ``_branch`` calls one or both — instead of duplicating branch source
        # 2^depth times.
        bt, bf = self.fresh("brt"), self.fresh("brf")
        for nm, body in ((bt, e.then), (bf, e.els)):
            self.w(f"def {nm}(eng):")
            self.level += 1
            self.w(_ret(self.emit_body(body)))
            self.level -= 1
        vals = self.fresh("vals")
        self.w(f"{vals} = {self.use(_branch)}(eng, {self.ref(e.cond)}, {bt}, {bf})")
        self.bind(e.outs, vals)

    def _emit_loop(self, e) -> None:
        nv = self.ref(e.n)
        nd, nmax, st, uni, sv, i = (
            self.fresh("nd"), self.fresh("nm"), self.fresh("st"),
            self.fresh("uni"), self.fresh("sv"), self.fresh("i"),
        )
        mask, where = self.use(_combine_mask), self.use(_where)
        self.w(f"{nd} = np.asarray({nv}.data)")
        self.w(f"{nmax} = 0 if {nd}.size == 0 else int({nd}.max())")
        self.w(f"{st} = {self.operand(e.inits)}")
        self.w(
            f"{uni} = {nd}.size == 1 or ({nd}.size > 0 "
            f"and {nd}.min() == {nd}.max())"
        )
        self.w(f"{sv} = eng.mask")
        self.w(f"for {i} in range({nmax}):")
        self.level += 1
        self.w(f"s{e.ivar[0]} = BV(np.asarray(np.int64({i})), 0)")
        self.w(f"if not {uni}:")
        self.w(f"    eng.mask = {mask}({sv}, BV({i} < {nd}, {nv}.bdims))")
        self.bind(e.params, st)
        res = self.emit_body(e.body)
        new = ", ".join(res)
        self.w(f"if {uni}:")
        self.w(f"    {st} = [{new}]")
        self.w("else:")
        act, a2, b2 = self.fresh("act"), self.fresh("a"), self.fresh("b")
        self.w(f"    {act} = BV({i} < {nd}, {nv}.bdims)")
        self.w(
            f"    {st} = [{b2} if isinstance({b2}, AccBV) "
            f"else {where}({act}, {b2}, {a2}) "
            f"for {a2}, {b2} in zip({st}, [{new}])]"
        )
        self.w(f"    eng.mask = {sv}")
        self.level -= 1
        self.w(f"eng.mask = {sv}")
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"s{slot} = {st}[{j}]")
            self.w(f"if isinstance(s{slot}, BV):")
            self.w(f"    s{slot} = BV({self.use(_owned)}(s{slot}.data), s{slot}.bdims)")

    def _emit_while(self, e) -> None:
        st, sv, lim, fuel = (self.fresh("st"), self.fresh("sv"), self.fresh("lim"),
                             self.fresh("fu"))
        mask, where = self.use(_combine_mask), self.use(_where)
        self.w(f"{st} = {self.operand(e.inits)}")
        self.w(f"{sv} = eng.mask")
        self.w(f"{fuel} = {lim} = {self.use(_values, '_values')}.WHILE_FUEL")
        self.w("while True:")
        self.level += 1
        self.bind(e.cparams, st)
        (c,) = self.emit_body(e.cbody)
        act = self.fresh("act")
        self.w(f"{act} = {mask}({sv}, {c})")
        self.w(f"if not np.any(np.asarray({act}.data)):")
        self.w("    break")
        self.w(f"eng.mask = {act}")
        self.bind(e.params, st)
        res = self.emit_body(e.body)
        a2, b2 = self.fresh("a"), self.fresh("b")
        self.w(
            f"{st} = [{b2} if isinstance({b2}, AccBV) "
            f"else {where}({act}, {b2}, {a2}) "
            f"for {a2}, {b2} in zip({st}, [{', '.join(res)}])]"
        )
        self.w(f"eng.mask = {sv}")
        self.w(f"{fuel} -= 1")
        self.w(f"if {fuel} <= 0:")
        self.w(f"    raise {self.use(_out_of_fuel)}({lim})")
        self.level -= 1
        self.w(f"eng.mask = {sv}")
        self.bind(e.outs, st)

    # -- accumulators ----------------------------------------------------------

    def _emit_withacc(self, e) -> None:
        for (slot, _nm), arr in zip(e.params, e.arrs):
            self.w(f"s{slot} = {self.use(_acc_of)}(eng, {self.ref(arr)})")
        res = self.emit_body(e.body)
        for j, (slot, _nm) in enumerate(e.outs):
            if j < e.n_acc:
                self.w(f"s{slot} = {self.use(_acc_value)}(eng, {res[j]})")
            else:
                self.w(f"s{slot} = {res[j]}")

    # -- top level -------------------------------------------------------------

    def render(self, ir: PlanIR) -> Tuple[str, Dict[str, object]]:
        # Body first: emitting it populates the namespace.
        self.w(_ret(self.emit_body(ir.body)))
        # Every injected name (helpers + consts) is passed as a keyword-only
        # default: bound once at ``def`` time, then LOAD_FAST in the body —
        # the same trick the closure emitter plays with default args, without
        # which hot loops pay a dict lookup per global reference.  Nested
        # defs reach them through closure cells, equally fast.
        params = "".join(f", s{s}" for s in ir.param_slots)
        injected = "".join(f", {nm}={nm}" for nm in self.ns)
        head = f"def _plan_main(eng{params}, *{injected}):"
        src = "\n".join([head] + self.lines) + "\n"
        return src, self.ns


# ---------------------------------------------------------------------------
# Codegen plans
# ---------------------------------------------------------------------------


class CodegenPlan(Plan):
    """A plan compiled to a single Python code object (``exec/codegen.py``).

    Drop-in equivalent of ``Plan`` — same constructor shape, the same
    ``run``/``run_batched`` driver, same bitwise results — but execution
    is one compiled function call instead of a closure-per-instruction
    interpreter walk."""

    emitter_name = "codegen"

    def _emit(self, ir: PlanIR) -> None:
        self.source, self._ns = _SrcEmitter().render(ir)

    def _compile(self) -> Dict[str, object]:
        fun, src, ns = self.fun, self.source, self._ns
        # Layer-2 codegen sanity (ir/verify knob): the rendered module must
        # parse and reference nothing beyond the injected namespace.  Once
        # per compile; cached plans never re-check.
        from .verify_plan import maybe_verify_codegen_source

        maybe_verify_codegen_source(fun.name, src, ns)
        with _obs_tracing.timed("compile", cat="compile", fun=fun.name, emitter="codegen") as tm:
            exec(compile(src, f"<codegen:{fun.name}>", "exec"), ns)
            self._fn = ns["_plan_main"]
        return {"code_objects": 1, "source_bytes": len(src), "compile_s": tm.seconds}

    def _invoke(self, eng, vals: List[BV]) -> Tuple[object, ...]:
        return self._fn(eng, *vals)

    def __repr__(self) -> str:
        return (
            f"<CodegenPlan {self.fun.name}: {len(self.source)} source "
            f"bytes, {self.nslots} slots, {self.fused_stms} fused>"
        )


def run_fun_codegen(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    """Evaluate ``fun`` via the (cached) codegen backend."""
    return plan_for(fun, args, emitter="codegen").run(args)


def run_fun_codegen_batched(
    fun: Fun, args: Sequence[object], batched: Sequence[bool], batch_size: int
) -> Tuple[object, ...]:
    """Evaluate ``fun`` once with batched arguments via the codegen backend."""
    return plan_for(fun, args, batched, emitter="codegen").run_batched(
        args, batched, batch_size
    )
