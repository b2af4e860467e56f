"""Source-codegen emitter — plan IR rendered to one compiled Python function.

The closure interpreter (``exec/plan.py``) executes a lowered plan as a flat
list of Python closures: one indirect call, one argument tuple, and a few
register-file reads per instruction.  For the scalar-heavy bodies AD emits,
that per-instruction dispatch is the remaining interpreter overhead — the
NumPy work inside each closure is often nanoseconds.

This emitter removes the dispatch entirely.  It renders the **same plan IR**
(``exec/lower.py``) to the source of a single Python function:

* register slots become local variables (``s12``) — no register-file
  indexing, no unbound checks on the hot path;
* fused scalar runs become straight-line expressions over locals;
* SOAC fast paths become the direct NumPy call sequences, with ufuncs,
  dtypes and constant ``BV``s injected as compile-time
  constants (``_K3``) through the exec namespace;
* control flow becomes real Python ``for``/``while``/``if`` — only ``If``
  branches get nested ``def``s (each branch body is emitted once and the
  scalar fast path and the masked path both call it, instead of duplicating
  branch source 2^depth times);
* generic SOAC lambdas inline into Python loops — still element-at-a-time,
  but with zero closure dispatch per statement.

The source is ``compile()``/``exec()``d once per plan and the resulting
code object lives in the ordinary plan cache (same keys —
``plan_for(..., emitter="codegen")``).  Because lowering
is shared and every instruction template transliterates the interpreter's
closure body, the generated function performs the **same NumPy calls in the
same order** — results are bitwise identical to the plan backend, which the
test suite asserts across the full parity battery and fuzz corpus.

Soundness of the flat local-variable space: SSA names are globally unique
per program, so no two slots alias one local; ``If`` branch ``def``s only
assign names bound inside that branch (never read outside it in scoped
programs) and close over earlier locals by reference.  One deliberate
divergence: reading a genuinely unbound variable raises ``NameError``
instead of the interpreter's ``ExecError`` — valid scoped programs never do
this, and dropping the per-read check is part of the speedup.

Set ``REPRO_CODEGEN_DUMP=<dir>`` to write every generated source file to
``<dir>`` for debugging.
"""
from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import ir_hash
from ..ir.ast import Fun
from ..ir.types import np_dtype
from ..obs import tracing as _obs_tracing
from ..util import ExecError, env_capacity
from . import values as _values
from .lower import IntRef, PlanIR, Ref, lower_fun, nested_bodies, plan_schedules
from .plan import (
    EMITTER_STATS,
    _count_plan,
    _Engine,
    _LOCK,
    plan_for,
    register_emitter,
)
from .prims import _BINOPS, _UNOPS, cast_to
from .vector import (
    _UFUNC,
    AccBV,
    BV,
    _align,
    _batch_args,
    _combine_mask,
    _elem,
    _elem_into,
    _expand,
    _gather,
    _grids,
    _index,
    _neutral_of,
    _owned,
    _uniform_int,
    _upd_acc,
    _where,
)

__all__ = [
    "CodegenPlan",
    "run_fun_codegen",
    "run_fun_codegen_batched",
]


#: Names every generated function can rely on (the shared runtime helpers —
#: one copy with the interpreter backends, which is what pins the semantics).
_BASE_NAMESPACE = {
    "np": np,
    "BV": BV,
    "AccBV": AccBV,
    "ExecError": ExecError,
    "_expand": _expand,
    "_align": _align,
    "_combine_mask": _combine_mask,
    "_elem": _elem,
    "_elem_into": _elem_into,
    "_where": _where,
    "_gather": _gather,
    "_index": _index,
    "_owned": _owned,
    "_upd_acc": _upd_acc,
    "_uniform_int": _uniform_int,
    "_batch_args": _batch_args,
    "_grids": _grids,
    "_neutral_of": _neutral_of,
    "_values": _values,
    "cast_to": cast_to,
}


def _chunked(e) -> bool:
    """Whether map ``e`` renders through ``_emit_map_chunked``."""
    return e.chunk > 1 and not e.accs and e.n_acc == 0


class _SrcEmitter:
    """Renders one ``PlanIR`` to Python source plus an exec namespace.

    Slots print as ``s{n}`` locals, injected Python objects as ``_K{n}``
    namespace constants, temporaries as ``_t{n}`` (the counter is global to
    the program so a name is never reused across scopes — nested branch
    ``def``s can shadow nothing)."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.level = 1
        self.n = 0
        self.consts: List[object] = []
        self._const_names: Dict[int, str] = {}
        #: Temporaries of the instruction being emitted (``emit_body`` clears
        #: them with the instruction's releases: a template's ``args``/``rd``
        #: would otherwise pin the arrays the memory plan just let go of).
        self.temps: List[str] = []

    # -- infrastructure -------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def fresh(self, prefix: str = "t") -> str:
        self.n += 1
        nm = f"_{prefix}{self.n}"
        self.temps.append(nm)
        return nm

    def const(self, obj) -> str:
        # Uppercase prefix: fresh() temporaries are all lowercase, so an
        # injected constant can never be shadowed by a generated local.
        nm = self._const_names.get(id(obj))
        if nm is None:
            nm = f"_K{len(self.consts)}"
            self._const_names[id(obj)] = nm
            self.consts.append(obj)
        return nm

    def ref(self, r: Ref) -> str:
        if r.slot is not None:
            return f"s{r.slot}"
        return self.const(r.bv)

    def int_expr(self, iref: IntRef) -> str:
        if iref.const is not None:
            return repr(int(iref.const))
        return f"_uniform_int({self.ref(iref.ref)}, {iref.what!r})"

    # -- bodies ---------------------------------------------------------------

    def emit_body(self, pbody) -> Tuple[str, ...]:
        """Emit a lowered body at the current indent; returns the names of
        its results."""
        if not pbody.instrs:
            self.w("pass")  # keep indented blocks (try:, def:) syntactically valid
        for ins in pbody.instrs:
            first = len(self.temps)
            getattr(self, "_emit_" + ins.kind)(ins)
            self._emit_release(ins, self.temps[first:])
            del self.temps[first:]
        return tuple(self.ref(r) for r in pbody.result)

    def _emit_release(self, ins, temps) -> None:
        """Clear the locals of the slots ``ins`` releases and the template
        temporaries its emission introduced.  Bodies rendered as nested
        ``def``s (``if`` branches, a chunked map) keep their slots in that
        ``def``'s frame, which is gone already."""
        dead = [s for s, _ in ins.release]
        if ins.kind == "if" or (ins.kind == "map" and _chunked(ins)):
            framed = {s for b in nested_bodies(ins) for s, _ in b.bound}
            dead = [s for s in dead if s not in framed]
        names = [f"s{s}" for s in dead] + list(temps)
        if names:
            self.w(" = ".join(names) + " = None")

    # -- fused scalar runs ----------------------------------------------------

    def _run_expr(self, o, names: List[str]) -> str:
        opn = lambda x: names[x] if isinstance(x, int) else self.ref(x)  # noqa: E731
        k = o.kind
        if k == "atom":
            return opn(o.xs[0])
        if k in ("unop", "binop"):
            try:
                uf = (_UNOPS if k == "unop" else _BINOPS)[o.op]
            except KeyError:
                what = "unary" if k == "unop" else "binary"
                raise ExecError(f"unknown {what} op {o.op!r}") from None
            args = ", ".join(opn(x) for x in o.xs)
            if o.donate:
                return f"_elem_into({self.const(uf)}, {o.donate!r}, {args})"
            return f"_elem({self.const(uf)}, {args})"
        if k == "select":
            c, t, f = (opn(x) for x in o.xs)
            return f"_where({c}, {t}, {f})"
        if k == "cast":
            x = opn(o.xs[0])
            return f"BV(cast_to({x}.data, {self.const(o.dtype)}), {x}.bdims)"
        if k == "index":
            a = opn(o.xs[0])
            idx = ", ".join(opn(x) for x in o.xs[1:])
            if o.affine is None:
                return f"_gather({a}, [{idx}])"
            return f"_index({a}, [{idx}], {o.affine!r})"
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
                self.w(" = ".join(dead) + " = None")
                for nm in dead:
                    self.temps.remove(nm)

    # -- simple expressions ---------------------------------------------------

    def _emit_update(self, e) -> None:
        arr, val = self.ref(e.arr), self.ref(e.val)
        idxs = [self.ref(i) for i in e.idx]
        k, bs, ad, vd = (self.fresh("k"), self.fresh("bs"), self.fresh("ad"),
                         self.fresh("vd"))
        dims = ", ".join([f"{arr}.bdims", f"{val}.bdims"]
                         + [f"{i}.bdims" for i in idxs])
        self.w(f"{k} = max(({dims}))")
        self.w("if eng.mask is not None:")
        self.w(f"    {k} = max({k}, eng.mask.bdims)")
        self.w(f"{bs} = tuple(eng.bstack[:{k}])")
        self.w(f"{ad} = _expand({arr}, {k})")
        self.w(f"{ad} = np.broadcast_to({ad}, {bs} + {ad}.shape[{k}:]).copy()")
        clips = ", ".join(
            f"np.clip(_expand({i}, {k}), 0, max({ad}.shape[{k} + {a}] - 1, 0))"
            for a, i in enumerate(idxs)
        )
        sel = self.fresh("sel")
        tail = f" + ({clips},)" if idxs else ""
        self.w(f"{sel} = _grids({bs}){tail}")
        self.w(f"{vd} = _expand({val}, {k})")
        self.w("if eng.mask is None:")
        self.w(f"    {ad}[{sel}] = {vd}")
        self.w("else:")
        old, md = self.fresh("old"), self.fresh("md")
        self.w(f"    {old} = {ad}[{sel}]")
        self.w(f"    {md} = _expand(eng.mask, {k})")
        self.w(f"    {md} = {md}.reshape({md}.shape + (1,) * ({old}.ndim - {md}.ndim))")
        self.w(f"    {ad}[{sel}] = np.where({md}, {vd}, {old})")
        self.w(f"s{e.out[0]} = BV({ad}, {k})")

    def _emit_iota(self, e) -> None:
        self.w(
            f"s{e.out[0]} = BV(np.arange({self.int_expr(e.n)}, "
            f"dtype={self.const(e.dtype)}), 0)"
        )

    def _emit_replicate(self, e) -> None:
        v = self.ref(e.v)
        n, d, d2 = self.fresh("n"), self.fresh("d"), self.fresh("d2")
        self.w(f"{n} = {self.int_expr(e.n)}")
        self.w(f"{d} = np.asarray({v}.data)")
        self.w(f"{d2} = np.expand_dims({d}, axis={v}.bdims)")
        self.w(
            f"s{e.out[0]} = BV(np.broadcast_to({d2}, {d}.shape[:{v}.bdims] "
            f"+ ({n},) + {d}.shape[{v}.bdims:]).copy(), {v}.bdims)"
        )

    def _emit_scratch(self, e) -> None:
        x = self.ref(e.x)
        nd, n, bs = self.fresh("nd"), self.fresh("n"), self.fresh("bs")
        self.w(f"{nd} = np.asarray({self.ref(e.n)}.data)")
        self.w(f"{n} = 0 if {nd}.size == 0 else int({nd}.max())")
        self.w(f"{bs} = tuple(eng.bstack)")
        self.w(
            f"s{e.out[0]} = BV(np.zeros({bs} + ({n},) + {x}.pshape(), "
            f"dtype=np.asarray({x}.data).dtype), len({bs}))"
        )

    def _emit_size(self, e) -> None:
        v = self.ref(e.arr)
        self.w(f"if isinstance({v}, AccBV):")
        self.w(
            f"    s{e.out[0]} = BV(np.asarray(np.int64("
            f"{v}.data.shape[{v}.bdims:][{e.dim}])), 0)"
        )
        self.w("else:")
        self.w(
            f"    s{e.out[0]} = BV(np.asarray(np.int64({v}.pshape()[{e.dim}])), 0)"
        )

    def _emit_reverse(self, e) -> None:
        x = self.ref(e.x)
        self.w(
            f"s{e.out[0]} = BV(np.flip(np.asarray({x}.data), "
            f"axis={x}.bdims).copy(), {x}.bdims)"
        )

    def _emit_concat(self, e) -> None:
        x, y = self.ref(e.x), self.ref(e.y)
        dx, dy, k, bx = (self.fresh("dx"), self.fresh("dy"), self.fresh("k"),
                         self.fresh("bx"))
        self.w(f"({dx}, {dy}), {k}, {self.fresh()} = _align([{x}, {y}])")
        self.w(f"{bx} = np.broadcast_shapes({dx}.shape[:{k}], {dy}.shape[:{k}])")
        self.w(f"{dx} = np.broadcast_to({dx}, {bx} + {dx}.shape[{k}:])")
        self.w(f"{dy} = np.broadcast_to({dy}, {bx} + {dy}.shape[{k}:])")
        self.w(f"s{e.out[0]} = BV(np.concatenate([{dx}, {dy}], axis={k}), {k})")

    # -- SOAC prologues --------------------------------------------------------

    def _soac_prologue(self, arrs) -> Tuple[str, str, str]:
        """Emit ``d``/``args``/``n`` for a SOAC entry; returns their names."""
        d, args, n = self.fresh("d"), self.fresh("a"), self.fresh("n")
        self.w(f"{d} = len(eng.bstack)")
        lst = ", ".join(self.ref(a) for a in arrs)
        self.w(f"{args}, {n} = _batch_args(eng, [{lst}])")
        return d, args, n

    def _emit_soac_body(self, params, body, bind, n: str) -> Tuple[str, ...]:
        """Bind SOAC lambda params (``bind(i, slot)`` emits one binding),
        push the batch level, and emit the body inside try/finally."""
        for i, (slot, _name) in enumerate(params):
            bind(i, slot)
        self.w(f"eng.bstack.append({n})")
        self.w("try:")
        self.level += 1
        res = self.emit_body(body)
        self.level -= 1
        self.w("finally:")
        self.w("    eng.bstack.pop()")
        return res

    def _emit_map(self, e) -> None:
        if _chunked(e):
            self._emit_map_chunked(e, e.chunk)
            return
        d, args, n = self._soac_prologue(e.arrs)
        na = len(e.arrs)
        accs = [self.ref(a) for a in e.accs]

        def bind(i, slot):
            if i < na:
                self.w(f"s{slot} = {args}[{i}]")
            else:
                self.w(f"s{slot} = {accs[i - na]}")

        res = self._emit_soac_body(e.params, e.body, bind, n)
        for j, (slot, _nm) in enumerate(e.outs):
            if j < e.n_acc:
                self.w(f"if not isinstance({res[j]}, AccBV):")
                self.w('    raise ExecError("map: accumulator results must lead")')
                self.w(f"s{slot} = {res[j]}")
            else:
                rd = self.fresh("rd")
                self.w(f"{rd} = _expand({res[j]}, {d} + 1)")
                self.w(f"if {rd}.shape[{d}] != {n}:")
                self.w(
                    f"    {rd} = np.broadcast_to({rd}, {rd}.shape[:{d}] "
                    f"+ ({n},) + {rd}.shape[{d} + 1:])"
                )
                self.w(f"s{slot} = BV(_owned(np.ascontiguousarray({rd})), {d})")

    def _emit_map_chunked(self, e, chunk: int) -> None:
        """A ``sequential(chunk)`` schedule on an acc-free map: the body is
        emitted once into a nested helper ``def`` (sound: the temp counter is
        global, SSA slots are unique, and nested defs close over enclosing
        locals), which both the in-order chunk loop and the bulk fallback
        call.  The chunked path only fires at top level (no batch axis, no
        mask); slicing is exact because ``_batch_args`` guarantees every
        param has extent exactly ``n`` on the batch axis, so the chunked
        payloads concatenate bitwise-identically to the bulk evaluation."""
        d, args, n = self._soac_prologue(e.arrs)
        body_fn, mv, mn = self.fresh("mapseq"), self.fresh("mv"), self.fresh("mn")
        self.w(f"def {body_fn}({mv}, {mn}):")
        self.level += 1
        res = self._emit_soac_body(
            e.params, e.body,
            lambda i, slot: self.w(f"s{slot} = {mv}[{i}]"), mn,
        )
        outs = []
        for j in range(len(e.outs)):
            rd = self.fresh("rd")
            self.w(f"{rd} = _expand({res[j]}, {d} + 1)")
            self.w(f"if {rd}.shape[{d}] != {mn}:")
            self.w(
                f"    {rd} = np.broadcast_to({rd}, {rd}.shape[:{d}] "
                f"+ ({mn},) + {rd}.shape[{d} + 1:])"
            )
            outs.append(rd)
        self.w(f"return ({', '.join(outs)},)")
        self.level -= 1
        parts, lo, p = self.fresh("parts"), self.fresh("lo"), self.fresh("p")
        self.w(f"if {d} == 0 and eng.mask is None and {n} > {chunk}:")
        self.w(
            f"    {parts} = [{body_fn}([BV({p}.data[{lo}:{lo} + {chunk}], "
            f"{p}.bdims) for {p} in {args}], min({chunk}, {n} - {lo})) "
            f"for {lo} in range(0, {n}, {chunk})]"
        )
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(
                f"    s{slot} = BV(np.ascontiguousarray(np.concatenate("
                f"[{p}[{j}] for {p} in {parts}], axis=0)), 0)"
            )
        self.w("else:")
        self.w(f"    {parts} = {body_fn}({args}, {n})")
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"    s{slot} = BV(_owned(np.ascontiguousarray({parts}[{j}])), {d})")

    def _emit_map_part(self, mparams, mbody, src, d: str, n: str) -> str:
        """Inline a redomap map part: bind params via ``src(i)`` expressions,
        run the body one batch level down, normalise the payload extent.
        Returns the name holding the mapped ndarray."""
        res = self._emit_soac_body(
            mparams, mbody, lambda i, slot: self.w(f"s{slot} = {src(i)}"), n
        )
        rd = self.fresh("md")
        self.w(f"{rd} = _expand({res[0]}, {d} + 1)")
        self.w(f"if {rd}.shape[{d}] != {n}:")
        self.w(
            f"    {rd} = np.broadcast_to({rd}, {rd}.shape[:{d}] + ({n},) "
            f"+ {rd}.shape[{d} + 1:])"
        )
        return rd

    # -- reduce / scan ---------------------------------------------------------

    def _emit_reduce(self, e) -> None:
        d, args, n = self._soac_prologue(e.arrs)
        out = e.outs[0][0]
        if e.strategy == "ufunc":
            ne = self.ref(e.nes[0])
            uf = self.const(_UFUNC[e.op])
            red = self.fresh("red")
            data, nd = self.fresh("dd"), self.fresh("nd")
            self.w(f"{data} = np.asarray({args}[0].data)")
            self.w(f"if {data}.shape[{d}] == 0:")
            self.w(f"    {nd} = _expand({ne}, {d})")
            self.w(
                f"    {red} = np.broadcast_to({nd}, {data}.shape[:{d}] "
                f"+ {data}.shape[{d} + 1:]).copy()"
            )
            self.w("else:")
            self.w(f"    {red} = {uf}.reduce({data}, axis={d})")
            if e.fold:
                self.w(f"    {red} = {uf}(_expand({ne}, {d}), {red})")
            self.w(f"s{out} = BV({red}, {d})")
            return
        if e.strategy == "redomap":
            ne = self.ref(e.nes[0])
            uf = self.const(_UFUNC[e.op])
            red = self.fresh("red")
            src = lambda i, _a=args: f"{_a}[{i}]"  # noqa: E731
            nd = self.fresh("nd")
            self.w(f"if {n} == 0:")
            self.w(f"    {nd} = _expand({ne}, {d})")
            self.w(
                f"    s{out} = BV(np.broadcast_to({nd}, tuple(eng.bstack) "
                f"+ {nd}.shape[{d}:]).copy(), {d})"
            )
            self.w("else:")
            self.level += 1
            data = self._emit_map_part(e.mparams, e.mbody, src, d, n)
            self.w(f"{red} = {uf}.reduce({data}, axis={d})")
            if e.fold:
                self.w(f"{red} = {uf}(_expand({ne}, {d}), {red})")
            self.w(f"s{out} = BV({red}, {d})")
            self.level -= 1
            return
        self._emit_fold_loop(e, d, args, n, scan=False)

    def _emit_scan(self, e) -> None:
        d, args, n = self._soac_prologue(e.arrs)
        out = e.outs[0][0] if len(e.outs) == 1 else None
        if e.strategy == "ufunc":
            ne = self.ref(e.nes[0])
            uf = self.const(_UFUNC[e.op])
            acc, nd = self.fresh("acc"), self.fresh("nd")
            self.w(f"{acc} = {uf}.accumulate(np.asarray({args}[0].data), axis={d})")
            if e.fold:
                self.w(f"{nd} = np.expand_dims(_expand({ne}, {d}), axis={d})")
                self.w(f"{acc} = {uf}({nd}, {acc})")
            self.w(f"s{out} = BV({acc}, {d})")
            return
        if e.strategy == "redomap":
            ne = self.ref(e.nes[0])
            uf = self.const(_UFUNC[e.op])
            acc, nd = self.fresh("acc"), self.fresh("nd")
            src = lambda i, _a=args: f"{_a}[{i}]"  # noqa: E731
            self.w(f"if {n} == 0:")
            self.w(
                f"    s{out} = BV(np.zeros((0,) * ({ne}.prank + 1), "
                f"dtype=np.asarray({ne}.data).dtype), 0)"
            )
            self.w("else:")
            self.level += 1
            data = self._emit_map_part(e.mparams, e.mbody, src, d, n)
            self.w(f"{acc} = {uf}.accumulate({data}, axis={d})")
            if e.fold:
                self.w(f"{nd} = np.expand_dims(_expand({ne}, {d}), axis={d})")
                self.w(f"{acc} = {uf}({nd}, {acc})")
            self.w(f"s{out} = BV({acc}, {d})")
            self.level -= 1
            return
        self._emit_fold_loop(e, d, args, n, scan=True)

    def _emit_fold_loop(self, e, d: str, args: str, n: str, scan: bool) -> None:
        """The generic element-at-a-time fold shared by reduce and scan."""
        k = len(e.nes)
        nes = [self.ref(ne) for ne in e.nes]
        acc, i, el = self.fresh("acc"), self.fresh("i"), self.fresh("el")
        self.w(f"{acc} = [{', '.join(nes)}]")
        if scan:
            cols = self.fresh("cols")
            self.w(f"{cols} = [[] for {self.fresh()} in range({k})]")
        self.w(f"for {i} in range({n}):")
        self.level += 1
        av = self.fresh("av")
        self.w(
            f"{el} = [BV(np.take(np.asarray({av}.data), {i}, axis={d}), {d}) "
            f"for {av} in {args}]"
        )
        for j, (slot, _nm) in enumerate(e.params):
            self.w(f"s{slot} = {acc}[{j}]" if j < k else f"s{slot} = {el}[{j - k}]")
        res = self.emit_body(e.body)
        self.w(f"{acc} = [{', '.join(res)}]")
        if scan:
            j2, a2 = self.fresh("j"), self.fresh("a")
            self.w(f"for {j2}, {a2} in enumerate({acc}):")
            self.w(f"    {cols}[{j2}].append(_expand({a2}, {d}))")
        self.level -= 1
        if not scan:
            for j, (slot, _nm) in enumerate(e.outs):
                self.w(f"s{slot} = {acc}[{j}]")
            return
        outs, j2, nev, sh, c2 = (self.fresh("outs"), self.fresh("j"),
                                 self.fresh("ne"), self.fresh("sh"),
                                 self.fresh("c"))
        self.w(f"{outs} = []")
        self.w(f"for {j2} in range({k}):")
        self.w(f"    if {n} == 0:")
        self.w(f"        {nev} = [{', '.join(nes)}][{j2}]")
        self.w(
            f"        {outs}.append(BV(np.zeros((0,) * ({nev}.prank + 1), "
            f"dtype=np.asarray({nev}.data).dtype), 0))"
        )
        self.w("        continue")
        self.w(
            f"    {sh} = np.broadcast_shapes(*[{c2}.shape "
            f"for {c2} in {cols}[{j2}]])"
        )
        self.w(
            f"    {outs}.append(BV(np.stack([np.broadcast_to({c2}, {sh}) "
            f"for {c2} in {cols}[{j2}]], axis={d}), {d}))"
        )
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"s{slot} = {outs}[{j}]")

    # -- histograms ------------------------------------------------------------

    def _hist_valid(self, d: str, args: str, n: str, m: str) -> Tuple[str, str, str]:
        """Emit the index/valid/mask prologue shared by all hist variants."""
        bs, idata, valid = self.fresh("bs"), self.fresh("id"), self.fresh("vm")
        self.w(f"{bs} = tuple(eng.bstack)")
        self.w(f"{idata} = np.broadcast_to(np.asarray({args}[0].data), {bs} + ({n},))")
        self.w(f"{valid} = ({idata} >= 0) & ({idata} < {m})")
        self.w("if eng.mask is not None:")
        md = self.fresh("md")
        self.w(f"    {md} = _expand(eng.mask, {d})")
        self.w(
            f"    {md} = np.broadcast_to({md}.reshape({md}.shape + (1,) "
            f"* ({valid}.ndim - {md}.ndim)), {valid}.shape)"
        )
        self.w(f"    {valid} = {valid} & {md}")
        return bs, idata, valid

    def _emit_hist(self, e) -> None:
        d, args, n = None, None, None
        m = self.fresh("m")
        # num_bins resolves before the arrays batch in the closure emitter
        # (int_reader runs first inside the instruction) — keep the order.
        out = e.outs[0][0] if len(e.outs) == 1 else None
        if e.strategy == "ufunc":
            dnm = self.fresh("d")
            self.w(f"{dnm} = len(eng.bstack)")
            self.w(f"{m} = {self.int_expr(e.num_bins)}")
            args, n = self.fresh("a"), self.fresh("n")
            lst = ", ".join(self.ref(a) for a in e.arrs)
            self.w(f"{args}, {n} = _batch_args(eng, [{lst}])")
            bs, idata, valid = self._hist_valid(dnm, args, n, m)
            ne = self.ref(e.nes[0])
            uf = self.const(_UFUNC[e.op])
            isel, pe, vdata, dt, hist, w = (
                self.fresh("sel"), self.fresh("pe"), self.fresh("vd"),
                self.fresh("dt"), self.fresh("h"), self.fresh("w"),
            )
            self.w(
                f"{isel} = _grids({bs}, extra=1) "
                f"+ (np.clip({idata}, 0, max({m} - 1, 0)),)"
            )
            self.w(f"{pe} = {args}[1].pshape()")
            self.w(
                f"{vdata} = np.broadcast_to(np.asarray({args}[1].data), "
                f"{bs} + ({n},) + {pe})"
            )
            self.w(f"{dt} = {vdata}.dtype")
            self.w(
                f"{hist} = np.ascontiguousarray(np.broadcast_to("
                f"np.expand_dims(_expand({ne}, {dnm}), axis={dnm}), "
                f"{bs} + ({m},) + {pe}).astype({dt}))"
            )
            self.w(
                f"{w} = {valid}.reshape({valid}.shape + (1,) "
                f"* ({vdata}.ndim - {valid}.ndim))"
            )
            self.w(
                f"{uf}.at({hist}, {isel}, "
                f"np.where({w}, {vdata}, _neutral_of({e.op!r}, {dt})))"
            )
            self.w(f"s{out} = BV({hist}, {dnm})")
            return
        if e.strategy == "redomap":
            dnm = self.fresh("d")
            self.w(f"{dnm} = len(eng.bstack)")
            self.w(f"{m} = {self.int_expr(e.num_bins)}")
            args, n = self.fresh("a"), self.fresh("n")
            lst = ", ".join(self.ref(a) for a in e.arrs)
            self.w(f"{args}, {n} = _batch_args(eng, [{lst}])")
            bs, idata, valid = self._hist_valid(dnm, args, n, m)
            ne = self.ref(e.nes[0])
            uf = self.const(_UFUNC[e.op])
            src = lambda i, _a=args: f"{_a}[{i} + 1]"  # noqa: E731
            data = self._emit_map_part(e.mparams, e.mbody, src, dnm, n)
            pe, dt, hist, vdata, w, isel = (
                self.fresh("pe"), self.fresh("dt"), self.fresh("h"),
                self.fresh("vd"), self.fresh("w"), self.fresh("sel"),
            )
            self.w(f"{pe} = {data}.shape[{dnm} + 1:]")
            self.w(f"{dt} = {data}.dtype")
            self.w(
                f"{hist} = np.ascontiguousarray(np.broadcast_to("
                f"np.expand_dims(_expand({ne}, {dnm}), axis={dnm}), "
                f"{bs} + ({m},) + {pe}).astype({dt}))"
            )
            self.w(f"{vdata} = np.broadcast_to({data}, {bs} + ({n},) + {pe})")
            self.w(
                f"{w} = {valid}.reshape({valid}.shape + (1,) "
                f"* ({vdata}.ndim - {valid}.ndim))"
            )
            self.w(
                f"{isel} = _grids({bs}, extra=1) "
                f"+ (np.clip({idata}, 0, max({m} - 1, 0)),)"
            )
            self.w(
                f"{uf}.at({hist}, {isel}, "
                f"np.where({w}, {vdata}, _neutral_of({e.op!r}, {dt})))"
            )
            self.w(f"s{out} = BV({hist}, {dnm})")
            return
        # generic
        dnm = self.fresh("d")
        self.w(f"{dnm} = len(eng.bstack)")
        self.w(f"{m} = {self.int_expr(e.num_bins)}")
        args, n = self.fresh("a"), self.fresh("n")
        lst = ", ".join(self.ref(a) for a in e.arrs)
        self.w(f"{args}, {n} = _batch_args(eng, [{lst}])")
        bs, idata, valid = self._hist_valid(dnm, args, n, m)
        k = len(e.nes)
        nes = [self.ref(ne) for ne in e.nes]
        hists, nev, v2, h2 = (self.fresh("hs"), self.fresh("ne"),
                              self.fresh("v"), self.fresh("h"))
        self.w(f"{hists} = []")
        self.w(f"for {nev}, {v2} in zip([{', '.join(nes)}], {args}[1:]):")
        self.w(
            f"    {h2} = np.broadcast_to(np.expand_dims(_expand({nev}, {dnm}), "
            f"axis={dnm}), {bs} + ({m},) + {v2}.pshape())"
            f".astype(np.asarray({v2}.data).dtype)"
        )
        self.w(f"    {hists}.append(np.ascontiguousarray({h2}))")
        gsel, i, b, vi, s = (self.fresh("gs"), self.fresh("i"), self.fresh("b"),
                             self.fresh("vi"), self.fresh("s"))
        self.w(f"{gsel} = _grids({bs})")
        self.w(f"for {i} in range({n}):")
        self.level += 1
        self.w(f"{b} = {idata}[..., {i}]")
        self.w(f"{vi} = {valid}[..., {i}]")
        self.w(f"{s} = {gsel} + (np.clip({b}, 0, max({m} - 1, 0)),)")
        el, av = self.fresh("el"), self.fresh("av")
        for j, (slot, _nm) in enumerate(e.params):
            if j < k:
                self.w(f"s{slot} = BV({hists}[{j}][{s}], {dnm})")
        self.w(
            f"{el} = [BV(np.take(np.asarray({av}.data), {i}, axis={dnm}), {dnm}) "
            f"for {av} in {args}[1:]]"
        )
        for j, (slot, _nm) in enumerate(e.params):
            if j >= k:
                self.w(f"s{slot} = {el}[{j - k}]")
        res = self.emit_body(e.body)
        hv, nv, ndv, old, w2 = (self.fresh("h"), self.fresh("nv"),
                                self.fresh("nd"), self.fresh("old"),
                                self.fresh("w"))
        self.w(f"for {hv}, {nv} in zip({hists}, ({', '.join(res)},)):")
        self.w(f"    {ndv} = _expand({nv}, {dnm})")
        self.w(f"    {old} = {hv}[{s}]")
        self.w(
            f"    {w2} = {vi}.reshape({vi}.shape + (1,) "
            f"* ({old}.ndim - {vi}.ndim))"
        )
        self.w(
            f"    {hv}[{s}] = np.where({w2}, "
            f"np.broadcast_to({ndv}, {old}.shape), {old})"
        )
        self.level -= 1
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"s{slot} = BV({hists}[{j}], {dnm})")

    def _emit_scatter(self, e) -> None:
        dest = self.ref(e.dest)
        d, args, n = self._soac_prologue((e.inds, e.vals))
        bs, dd, ln, idata, vdata, valid, sel, old, w = (
            self.fresh("bs"), self.fresh("dd"), self.fresh("ln"),
            self.fresh("id"), self.fresh("vd"), self.fresh("vm"),
            self.fresh("sel"), self.fresh("old"), self.fresh("w"),
        )
        self.w(f"{bs} = tuple(eng.bstack)")
        self.w(f"{dd} = _expand({dest}, {d})")
        self.w(f"{dd} = np.broadcast_to({dd}, {bs} + {dd}.shape[{d}:]).copy()")
        self.w(f"{ln} = {dd}.shape[{d}]")
        self.w(f"{idata} = np.broadcast_to(np.asarray({args}[0].data), {bs} + ({n},))")
        self.w(
            f"{vdata} = np.broadcast_to(np.asarray({args}[1].data), "
            f"{bs} + ({n},) + {args}[1].pshape())"
        )
        self.w(f"{valid} = ({idata} >= 0) & ({idata} < {ln})")
        self.w("if eng.mask is not None:")
        md = self.fresh("md")
        self.w(f"    {md} = _expand(eng.mask, {d})")
        self.w(
            f"    {md} = np.broadcast_to({md}.reshape({md}.shape + (1,) "
            f"* ({valid}.ndim - {md}.ndim)), {valid}.shape)"
        )
        self.w(f"    {valid} = {valid} & {md}")
        self.w(
            f"{sel} = _grids({bs}, extra=1) "
            f"+ (np.clip({idata}, 0, max({ln} - 1, 0)),)"
        )
        self.w(f"{old} = {dd}[{sel}]")
        self.w(
            f"{w} = {valid}.reshape({valid}.shape + (1,) "
            f"* ({old}.ndim - {valid}.ndim))"
        )
        self.w(
            f"{dd}[{sel}] = np.where({w}, "
            f"np.broadcast_to({vdata}, {old}.shape), {old})"
        )
        self.w(f"s{e.out[0]} = BV({dd}, {d})")

    # -- control flow ----------------------------------------------------------

    def _emit_if(self, e) -> None:
        bt, bf = self.fresh("brt"), self.fresh("brf")
        for nm, body in ((bt, e.then), (bf, e.els)):
            self.w(f"def {nm}():")
            self.level += 1
            res = self.emit_body(body)
            self.w(f"return ({', '.join(res)},)" if res else "return ()")
            self.level -= 1
        c = self.ref(e.cond)
        cd, vals = self.fresh("cd"), self.fresh("vals")
        self.w(f"{cd} = np.asarray({c}.data)")
        self.w(f"if {cd}.size == 1 and eng.mask is None:")
        self.w(f"    {vals} = {bt}() if bool({cd}.reshape(-1)[0]) else {bf}()")
        self.w("else:")
        self.level += 1
        sv, nc, tv, fv = (self.fresh("sv"), self.fresh("nc"), self.fresh("tv"),
                          self.fresh("fv"))
        self.w(f"{sv} = eng.mask")
        self.w(f"{nc} = BV(np.logical_not({cd}), {c}.bdims)")
        self.w(f"eng.mask = _combine_mask({sv}, {c})")
        self.w(f"{tv} = {bt}()")
        self.w(f"eng.mask = _combine_mask({sv}, {nc})")
        self.w(f"{fv} = {bf}()")
        self.w(f"eng.mask = {sv}")
        t2, f2 = self.fresh("t"), self.fresh("f")
        self.w(
            f"{vals} = tuple(_where({c}, {t2}, {f2}) "
            f"for {t2}, {f2} in zip({tv}, {fv}))"
        )
        self.level -= 1
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"s{slot} = {vals}[{j}]")

    def _emit_loop(self, e) -> None:
        nv = self.ref(e.n)
        nd, nmax, st, uni, sv, i = (
            self.fresh("nd"), self.fresh("nm"), self.fresh("st"),
            self.fresh("uni"), self.fresh("sv"), self.fresh("i"),
        )
        inits = ", ".join(self.ref(x) for x in e.inits)
        self.w(f"{nd} = np.asarray({nv}.data)")
        self.w(f"{nmax} = 0 if {nd}.size == 0 else int({nd}.max())")
        self.w(f"{st} = [{inits}]")
        self.w(
            f"{uni} = {nd}.size == 1 or ({nd}.size > 0 "
            f"and {nd}.min() == {nd}.max())"
        )
        self.w(f"{sv} = eng.mask")
        self.w(f"for {i} in range({nmax}):")
        self.level += 1
        self.w(f"s{e.ivar[0]} = BV(np.asarray(np.int64({i})), 0)")
        self.w(f"if not {uni}:")
        self.w(f"    eng.mask = _combine_mask({sv}, BV({i} < {nd}, {nv}.bdims))")
        for j, (slot, _nm) in enumerate(e.params):
            self.w(f"s{slot} = {st}[{j}]")
        res = self.emit_body(e.body)
        new = ", ".join(res)
        self.w(f"if {uni}:")
        self.w(f"    {st} = [{new}]")
        self.w("else:")
        act, a2, b2 = self.fresh("act"), self.fresh("a"), self.fresh("b")
        self.w(f"    {act} = BV({i} < {nd}, {nv}.bdims)")
        self.w(
            f"    {st} = [{b2} if isinstance({b2}, AccBV) "
            f"else _where({act}, {b2}, {a2}) "
            f"for {a2}, {b2} in zip({st}, [{new}])]"
        )
        self.w(f"    eng.mask = {sv}")
        self.level -= 1
        self.w(f"eng.mask = {sv}")
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"s{slot} = {st}[{j}]")
            self.w(f"if isinstance(s{slot}, BV):")
            self.w(f"    s{slot} = BV(_owned(s{slot}.data), s{slot}.bdims)")

    def _emit_while(self, e) -> None:
        st, sv, fuel = self.fresh("st"), self.fresh("sv"), self.fresh("fu")
        inits = ", ".join(self.ref(x) for x in e.inits)
        self.w(f"{st} = [{inits}]")
        self.w(f"{sv} = eng.mask")
        self.w(f"{fuel} = _values.WHILE_FUEL")
        self.w("while True:")
        self.level += 1
        for j, (slot, _nm) in enumerate(e.cparams):
            self.w(f"s{slot} = {st}[{j}]")
        (c,) = self.emit_body(e.cbody)
        act = self.fresh("act")
        self.w(f"{act} = _combine_mask({sv}, {c})")
        self.w(f"if not np.any(np.asarray({act}.data)):")
        self.w("    break")
        self.w(f"eng.mask = {act}")
        for j, (slot, _nm) in enumerate(e.params):
            self.w(f"s{slot} = {st}[{j}]")
        res = self.emit_body(e.body)
        a2, b2 = self.fresh("a"), self.fresh("b")
        self.w(
            f"{st} = [{b2} if isinstance({b2}, AccBV) "
            f"else _where({act}, {b2}, {a2}) "
            f"for {a2}, {b2} in zip({st}, [{', '.join(res)}])]"
        )
        self.w(f"eng.mask = {sv}")
        self.w(f"{fuel} -= 1")
        self.w(f"if {fuel} <= 0:")
        self.w(
            '    raise ExecError("while loop exceeded iteration fuel '
            '(%d iterations)" % _values.WHILE_FUEL)'
        )
        self.level -= 1
        self.w(f"eng.mask = {sv}")
        for j, (slot, _nm) in enumerate(e.outs):
            self.w(f"s{slot} = {st}[{j}]")

    # -- accumulators ----------------------------------------------------------

    def _emit_withacc(self, e) -> None:
        d, bs = self.fresh("d"), self.fresh("bs")
        self.w(f"{d} = len(eng.bstack)")
        self.w(f"{bs} = tuple(eng.bstack)")
        for (slot, _nm), arr in zip(e.params, e.arrs):
            ad = self.fresh("ad")
            self.w(f"{ad} = _expand({self.ref(arr)}, {d})")
            self.w(f"{ad} = np.broadcast_to({ad}, {bs} + {ad}.shape[{d}:]).copy()")
            self.w(f"s{slot} = AccBV({ad}, {d})")
        res = self.emit_body(e.body)
        for j, (slot, _nm) in enumerate(e.outs):
            if j < e.n_acc:
                self.w(f"if not isinstance({res[j]}, AccBV):")
                self.w(
                    '    raise ExecError('
                    '"withacc: lambda must return its accumulators")'
                )
                self.w(f"s{slot} = BV({res[j]}.data, {res[j]}.bdims)")
            else:
                self.w(f"s{slot} = {res[j]}")

    def _emit_updacc(self, e) -> None:
        idxs = ", ".join(self.ref(i) for i in e.idx)
        self.w(
            f"s{e.out[0]} = _upd_acc(eng, {self.ref(e.acc)}, [{idxs}], "
            f"{self.ref(e.v)}, {e.affine!r})"
        )

    # -- top level -------------------------------------------------------------

    def render(self, ir: PlanIR) -> Tuple[str, Dict[str, object]]:
        # Body first: emitting it populates the const table.
        res = self.emit_body(ir.body)
        ret = f"return ({', '.join(res)},)" if res else "return ()"
        self.w(ret)
        ns = dict(_BASE_NAMESPACE)
        for i, obj in enumerate(self.consts):
            ns[f"_K{i}"] = obj
        # Every injected name (helpers + consts) is passed as a keyword-only
        # default: bound once at ``def`` time, then LOAD_FAST in the body —
        # the same trick the closure emitter plays with default args, without
        # which hot loops pay a dict lookup per global reference.  Nested
        # ``If``-branch defs reach them through closure cells, equally fast.
        params = "".join(f", s{s}" for s in ir.param_slots)
        injected = "".join(f", {nm}={nm}" for nm in ns)
        head = f"def _plan_main(eng{params}, *{injected}):"
        src = "\n".join([head] + self.lines) + "\n"
        return src, ns


# ---------------------------------------------------------------------------
# Codegen plans
# ---------------------------------------------------------------------------


_DUMP_SEQ = [0]


def _maybe_dump(fun: Fun, src: str) -> None:
    path = os.environ.get("REPRO_CODEGEN_DUMP")
    if not path:
        return
    os.makedirs(path, exist_ok=True)
    with _LOCK:
        seq = _DUMP_SEQ[0]
        _DUMP_SEQ[0] += 1
    fname = f"{seq:04d}_{fun.name}_{ir_hash(fun)[:12]}.py"
    with open(os.path.join(path, fname), "w") as fh:
        fh.write(f"# {fun.name} ir_hash={ir_hash(fun)}\n")
        fh.write(src)


class CodegenPlan:
    """A plan compiled to a single Python code object (``exec/codegen.py``).

    Drop-in equivalent of ``Plan`` — same constructor shape, same
    ``run``/``run_batched`` contract, same bitwise results — but execution
    is one compiled function call instead of a closure-per-instruction
    interpreter walk."""

    def __init__(self, fun: Fun, ir: Optional[PlanIR] = None) -> None:
        with _obs_tracing.timed("emit", cat="compile", fun=fun.name, emitter="codegen") as tem:
            if ir is None:
                ir = lower_fun(fun)
            self.fun = fun
            self.param_slots = ir.param_slots
            self.param_types = ir.param_types
            self.nslots = ir.nslots
            self.fused_stms = ir.fused
            src, ns = _SrcEmitter().render(ir)
            self.source = src
            self.schedule_str = plan_schedules(ir)
        # Layer-2 codegen sanity (ir/verify knob): the rendered module must
        # parse and reference nothing beyond the injected namespace.  Once
        # per compile; cached plans never re-check.
        from .verify_plan import maybe_verify_codegen_source

        maybe_verify_codegen_source(fun.name, src, ns)
        with _obs_tracing.timed("compile", cat="compile", fun=fun.name, emitter="codegen") as tcc:
            code = compile(src, f"<codegen:{fun.name}>", "exec")
            exec(code, ns)
            self._fn = ns["_plan_main"]
        _maybe_dump(fun, src)
        with _LOCK:
            _count_plan(ir)
            st = EMITTER_STATS.setdefault(
                "codegen",
                {"plans": 0, "emit_s": 0.0, "code_objects": 0,
                 "source_bytes": 0, "compile_s": 0.0},
            )
            st["plans"] += 1
            st["emit_s"] += tem.seconds
            st["code_objects"] += 1
            st["source_bytes"] += len(src)
            st["compile_s"] += tcc.seconds

    def __repr__(self) -> str:
        return (
            f"<CodegenPlan {self.fun.name}: {len(self.source)} source "
            f"bytes, {self.nslots} slots, {self.fused_stms} fused>"
        )

    def run(self, args: Sequence[object]) -> Tuple[object, ...]:
        if len(args) != len(self.param_slots):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_slots)} arguments, "
                f"got {len(args)}"
            )
        with _obs_tracing.span("execute", cat="exec", fun=self.fun.name, emitter="codegen",
                               schedule=self.schedule_str or None):
            eng = _Engine(0)
            vals = [
                BV(np.asarray(coerce_arg(a, t)), 0)
                for a, t in zip(args, self.param_types)
            ]
            with np.errstate(all="ignore"):
                res = self._fn(eng, *vals)
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = np.asarray(r.data)
                out.append(d if d.ndim else d[()])
            return tuple(out)

    def run_batched(
        self, args: Sequence[object], batched: Sequence[bool], batch_size: int
    ) -> Tuple[object, ...]:
        """Evaluate once with the flagged arguments batched on a leading axis
        (same contract as ``Plan.run_batched``)."""
        if len(args) != len(self.param_slots):
            raise ExecError(
                f"{self.fun.name}: expected {len(self.param_slots)} arguments, "
                f"got {len(args)}"
            )
        if len(batched) != len(args):
            raise ExecError("run_batched: batched flags must match arguments")
        with _obs_tracing.span("execute", cat="exec", fun=self.fun.name, emitter="codegen",
                               batched=True, schedule=self.schedule_str or None):
            b = int(batch_size)
            eng = _Engine(0)
            eng.bstack.append(b)
            vals = []
            for a, t, flag in zip(args, self.param_types, batched):
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
                res = self._fn(eng, *vals)
            out = []
            for r in res:
                if isinstance(r, AccBV):
                    raise ExecError("accumulator escaped to top level")
                d = _expand(r, 1)
                out.append(np.ascontiguousarray(np.broadcast_to(d, (b,) + d.shape[1:])))
            return tuple(out)


from .values import coerce_arg  # noqa: E402  (placed after class for clarity)


register_emitter("codegen", CodegenPlan)


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
