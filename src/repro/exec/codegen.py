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
* fused scalar runs become straight-line expressions over locals, each op
  one direct NumPy call on its operands' data, lined up by their static
  selectors (``exec/lower.py``: ``layout``);
* every other instruction becomes one call of its ``vector.KERNELS``
  kernel, ufuncs, dtypes and constant ``BV``s injected as compile-time
  constants (``_K3``) through the exec namespace;
* each nested body — a lambda, a loop or branch body — becomes a nested
  ``def`` rendered once, just before the call, and the kernel calls it:
  the loops, masks and batch levels around a body are the kernel's.

The source is ``compile()``/``exec()``d once per plan and flags tuple (a
``Plan`` keeps one emitted body per flags tuple) and the resulting code
objects live in the ordinary plan cache (same keys —
``plan_for(..., emitter="codegen")``).  Lowering is shared and every NumPy
call sequence is a ``vector.py`` kernel both emitters call, so for what an
instruction computes the two are bitwise identical by construction; what the
test suite's bitwise assertions (parity battery, fuzz corpus) still guard is
what differs — slot binding, releases and fused runs.

Soundness of the flat local-variable space: SSA names are globally unique
per program, so no two slots alias one local; a body's ``def`` only assigns
names bound inside that body (never read outside it in scoped programs) and
closes over earlier locals by reference.  One deliberate divergence:
reading a genuinely unbound variable raises ``NameError`` instead of the
interpreter's ``ExecError`` — valid scoped programs never do this, and
dropping the per-read check is part of the speedup.

``CodegenPlan.source`` is the generated module text.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..ir.ast import Fun
from ..ir.verify import verify_mode
from ..obs import tracing as _obs_tracing
from ..util import ExecError
from .lower import IntRef, Layout, PlanIR, Ref, outer_release
from .plan import Plan, _scalar_fn, plan_for
from .prims import cast_to
from .vector import (
    BV,
    _elem_into,
    _gather,
    _index,
    _uniform_int,
    kernel_of,
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
    emitter it binds operands and hands each nested body to its kernel as a
    callable; what an instruction computes is a ``vector.py`` kernel call."""

    def __init__(self, lay: Layout) -> None:
        self.lay = lay
        self.lines: List[str] = []
        self.level = 1
        self.n = 0
        #: Every name the rendered function may reference: what the templates
        #: used, nothing kept in step by hand.
        self.ns: Dict[str, object] = {"np": np, "BV": BV}
        self._const_names: Dict[int, str] = {}
        #: Selector constants by ``repr`` (slices are unhashable before 3.12).
        self._sel_names: Dict[str, str] = {}
        #: Temporaries of the instruction being emitted (``emit_body`` clears
        #: them with the instruction's releases: a template's ``args`` would
        #: otherwise pin the arrays the memory plan just let go of).
        self.temps: List[str] = []

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
        """The expression of an instruction operand: a ``Ref``, an
        ``IntRef`` (a literal, or a register read validated for
        lane-uniformity per call) or a tuple of operands (a list display)."""
        if isinstance(x, tuple):
            return "[" + ", ".join(self.operand(r) for r in x) + "]"
        if not isinstance(x, IntRef):
            return self.ref(x)
        if x.const is not None:
            return repr(int(x.const))
        return f"{self.use(_uniform_int)}({self.ref(x.ref)}, {x.what!r})"

    def static(self, v) -> str:
        if v is None or isinstance(v, (bool, int, str)) or (
                isinstance(v, tuple) and all(type(x) in (bool, int) for x in v)):
            return repr(v)
        return self.const(v)

    def sel(self, s) -> str:
        """The constant holding selector (or view template) ``s``, one per
        distinct value."""
        key = repr(s)
        nm = self._sel_names.get(key)
        if nm is None:
            nm = self._sel_names[key] = self.const(s)
        return nm

    # -- bodies ---------------------------------------------------------------

    def emit_body(self, pbody) -> Tuple[str, ...]:
        """Emit a lowered body at the current indent; returns the names of
        its results."""
        for ins in pbody.instrs:
            first = len(self.temps)
            if ins.kind == "run":
                self._emit_run(ins)
            else:
                self._emit_call(ins)
            self._emit_release(ins, self.temps[first:])
            del self.temps[first:]
        return tuple(self.ref(r) for r in pbody.result)

    def _emit_call(self, ins) -> None:
        """One call of the instruction's ``vector.KERNELS`` kernel, its
        nested bodies rendered just before it as ``def``s."""
        kernel, operands, statics, bodies = kernel_of(ins)
        args = [self.operand(getattr(ins, f)) for f in operands]
        args += [self.static(self.lay.static(ins, f)) for f in statics]
        args += [self._emit_def(ins, fields) for fields in bodies]
        call = f"{self.use(kernel)}(eng, {', '.join(args)})"
        if hasattr(ins, "out"):
            self.w(f"s{ins.out[0]} = {call}")
        else:
            self.w("".join(f"s{s}, " for s, _ in ins.outs) + f"= {call}" if ins.outs else call)

    def _emit_def(self, ins, fields) -> str:
        """Render a nested body (``fields``: its parameter fields, then its
        own) as ``def _bN(eng, vals)``; returns its name.  Its slots are
        that ``def``'s locals, gone with its frame."""
        *params, pbody = (getattr(ins, f) for f in fields)
        name = self.fresh("b")
        self.temps.pop()  # a function pins no array: no need to clear it
        self.w(f"def {name}(eng, vals):")
        self.level += 1
        slots = [f"s{s}" for ps in params for s, _ in ps]
        if slots:
            self.w(", ".join(slots) + ", = vals")
        self.w(_ret(self.emit_body(pbody)))
        self.level -= 1
        return name

    def _emit_release(self, ins, temps) -> None:
        """Clear the locals of the slots ``ins`` releases and the template
        temporaries its emission introduced.  The slots of its nested bodies
        are locals of their ``def``s, gone already (``outer_release``)."""
        names = [f"s{s}" for s in outer_release(ins)] + list(temps)
        if names:
            self.w(" = ".join(names) + " = None")

    # -- fused scalar runs ----------------------------------------------------

    def _run_expr(self, o, names: List[str]) -> str:
        """One direct NumPy call on the operands' data, each lined up by its
        static selector, wrapped at the op's static batch depth."""
        lo = self.lay.ops[o]
        k = lo.k

        def data(x, s) -> str:
            if isinstance(x, int) or x.slot is not None:
                nm = names[x] if isinstance(x, int) else self.ref(x)
                return f"{nm}.data" if s is None else f"{nm}.data[{self.sel(s)}]"
            return self.const(x.bv.data if s is None else x.bv.data[s])

        kind = o.kind
        if kind == "atom":
            x = o.xs[0]
            return names[x] if isinstance(x, int) else self.ref(x)
        if kind in ("unop", "binop", "select"):
            uf = self.const(_scalar_fn(o))
            args = ", ".join(map(data, o.xs, lo.sels))
            if kind == "select":
                return f"BV({uf}({args}), {k})"
            if o.donate:
                return f"{self.use(_elem_into)}({uf}, {o.donate!r}, {k}, [{args}])"
            call = f"{uf}({args})"
            return f"BV({call if k + max(o.pranks) else f'np.asarray({call})'}, {k})"
        x = data(o.xs[0], None)
        if kind == "cast":
            return f"BV({self.use(cast_to)}({x}, {self.const(o.dtype)}), {k})"
        if kind == "index":
            ids = ", ".join(data(i, None) for i in o.xs[1:])
            if o.affine is None:
                return f"{self.use(_gather)}({x}, [{ids}], {k}, {self.sel(lo.sels)})"
            return (f"{self.use(_index)}({x}, [{ids}], {k}, {self.sel(lo.sels)}, "
                    f"{self.sel(lo.view)})")
        if kind == "zeroslike":
            return f"BV(np.zeros_like(np.asarray({x})), {k})"
        raise ExecError(f"codegen: unexpected run op {kind!r}")

    def _emit_run(self, ins) -> None:
        exported = {li: s for li, s, _n in ins.exports}
        names: List[str] = []
        for i, o in enumerate(ins.ops):
            nm = f"s{exported[i]}" if i in exported else self.fresh()
            self.w(f"{nm} = {self._run_expr(o, names)}")
            names.append(nm)
            if o.release:
                dead = [names[y] for y in o.release]  # never an exported one
                self.w(" = ".join(dead) + " = None")
                for y in o.release:
                    self.temps.remove(names[y])

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

    def _emit(self, ir: PlanIR, lay: Layout):
        fun = self.fun
        src, ns = _SrcEmitter(lay).render(ir)
        if not self.bodies:
            #: The source of the body the plan was built for.
            self.source = src
        # Layer-2 codegen sanity (ir/verify knob): the rendered module must
        # parse and reference nothing beyond the injected namespace.  Once
        # per compile; cached plans never re-check.
        if verify_mode() != "off":
            from .verify_plan import verify_codegen_source

            verify_codegen_source(fun.name, src, ns)
        with _obs_tracing.timed("compile", cat="compile", fun=fun.name, emitter="codegen") as tm:
            exec(compile(src, f"<codegen:{fun.name}>", "exec"), ns)
        built = {"code_objects": 1, "source_bytes": len(src), "compile_s": tm.seconds}
        return ns["_plan_main"], built

    def _invoke(self, body, eng, vals: List[BV]) -> Tuple[object, ...]:
        return body(eng, *vals)

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
