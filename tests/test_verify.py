"""Mutation corpus for the static verifier (ir/verify, exec/verify_plan).

Each test programmatically corrupts well-formed IR — the exact corruptions a
buggy rewrite pass could produce — and asserts the verifier rejects it with a
``VerifyError`` naming the pass and (where applicable) the offending
statement.  The last section runs the fuzz-program corpus end-to-end under
``REPRO_VERIFY=full`` on both executors and checks the cached-plan /
counter behaviour of the hooks.
"""
import numpy as np
import pytest

import repro as rp
from repro.apps import lstm
from repro.ir import (
    BOOL,
    F64,
    I64,
    Fun,
    Lambda,
    Var,
    VerifyError,
    array,
    verify_fun,
    verify_mode,
    verify_stats,
)
from repro.ir.builder import Builder
from repro.ir.ast import (
    AtomExp,
    BinOp,
    Body,
    Const,
    If,
    Map,
    Loop,
    Reduce,
    Replicate,
    Scatter,
    Stm,
    UnOp,
    UpdAcc,
    WhileLoop,
    WithAcc,
)
from repro.ir.types import AccType
from repro.ir.verify import VERIFY_STATS
from repro.util import ReproError
from repro.exec.lower import (
    ILoop, IMap, IRun, PlanIR, Ref, layout, lower_fun, nested_bodies,
)
from repro.exec.plan import clear_plan_cache, plan_cache_stats, plan_for
from repro.exec.verify_plan import verify_layout, verify_plan_ir
from helpers import run_both
from test_fuzz_programs import _gen_program

A = array(F64)
AI = array(I64)
ACC = AccType(F64, 1)


def _reject(fun, match, *, full=False, where="opt:evil"):
    with pytest.raises(VerifyError, match=match) as exc:
        verify_fun(fun, where=where, full=full)
    assert f"after pass {where!r}" in str(exc.value)
    return exc.value


# ---------------------------------------------------------------------------
# Layer 1: SSA / types / accumulator discipline
# ---------------------------------------------------------------------------


def test_use_before_def_rejected():
    x = Var("x", F64)
    y = Var("y", F64)
    z = Var("z", F64)
    body = Body(
        (Stm((z,), BinOp("add", y, y)), Stm((y,), BinOp("mul", x, x))),
        (z,),
    )
    err = _reject(Fun("f", (x,), body), "use of 'y' before its definition")
    # The error names the statement doing the premature read.
    assert "let (z)" in str(err)


def test_shadowing_rejected():
    xs = Var("xs", A)
    inner = Var("xs", F64)  # a rewrite reusing a live outer name
    ys = Var("ys", A)
    lam = Lambda((inner,), Body((), (inner,)))
    body = Body((Stm((ys,), Map(lam, (xs,))),), (ys,))
    _reject(Fun("f", (xs,), body), "shadows a definition live in an enclosing")


def test_loop_ivar_used_after_the_loop_rejected():
    x, p, r, i = Var("x", F64), Var("p", F64), Var("r", F64), Var("i", I64)
    out, j = Var("out", F64), Var("j", I64)
    loop = Loop((p,), (x,), i, Const(3, I64), Body((Stm((r,), BinOp("mul", p, x)),), (r,)))
    body = Body((Stm((out,), loop), Stm((j,), AtomExp(i))), (out,))  # i died with the loop
    err = _reject(Fun("f", (x,), body), "use of 'i' before its definition")
    assert "let (j)" in str(err)


def test_while_cond_binder_shadowing_an_outer_definition_rejected():
    x, p, c, out = Var("x", F64), Var("p", F64), Var("c", BOOL), Var("out", F64)
    # The condition may re-bind the loop's own parameter ``p``; binding the
    # live outer ``x`` beside it is shadowing like any other.
    cond = Lambda((p, x), Body((Stm((c,), BinOp("lt", p, x)),), (c,)))
    loop = WhileLoop((p,), (x,), cond, Body((), (p,)), None)
    _reject(Fun("f", (x,), Body((Stm((out,), loop),), (out,))),
            "binder 'x' shadows a definition live in an enclosing")
    # ... and the shared name alone is fine as far as SSA goes.
    ok = WhileLoop((p,), (x,), Lambda((p,), cond.body), Body((), (p,)), None)
    verify_fun(Fun("f", (x,), Body((Stm((out,), ok),), (out,))))


def test_if_branch_using_the_other_branchs_binding_rejected():
    x, c, t, u, out = Var("x", F64), Var("c", BOOL), Var("t", F64), Var("u", F64), Var("out", F64)
    then = Body((Stm((t,), UnOp("neg", x)),), (t,))
    els = Body((Stm((u,), BinOp("add", t, x)),), (u,))  # t is the other branch's
    err = _reject(Fun("f", (x, c), Body((Stm((out,), If(c, then, els)),), (out,))),
                  "use of 't' before its definition")
    assert "let (u)" in str(err)


def test_reduce_operator_parameter_used_outside_its_lambda_rejected():
    xs, a, b, s = Var("xs", A), Var("a", F64), Var("b", F64), Var("s", F64)
    r, out = Var("r", F64), Var("out", F64)
    lam = Lambda((a, b), Body((Stm((s,), BinOp("add", a, b)),), (s,)))
    body = Body(
        (Stm((r,), Reduce(lam, (Const(0.0, F64),), (xs,))), Stm((out,), BinOp("mul", r, a))),
        (out,),
    )
    err = _reject(Fun("f", (xs,), body), "use of 'a' before its definition")
    assert "let (out)" in str(err)


def test_type_wrong_rewrite_rejected():
    x = Var("x", F64)
    n = Var("n", I64)
    y = Var("y", F64)
    body = Body((Stm((y,), BinOp("add", x, n)),), (y,))
    _reject(Fun("f", (x, n), body), "element types differ")


def test_duplicated_accumulator_use_rejected():
    a = Var("a", A)
    p = Var("p", ACC)
    u1 = Var("u1", ACC)
    u2 = Var("u2", ACC)
    lam_body = Body(
        (
            Stm((u1,), UpdAcc(p, (Const(0, I64),), Const(1.0, F64))),
            Stm((u2,), UpdAcc(p, (Const(1, I64),), Const(2.0, F64))),
        ),
        (u2,),
    )
    a2 = Var("a2", A)
    body = Body((Stm((a2,), WithAcc((a,), Lambda((p,), lam_body))),), (a2,))
    _reject(Fun("f", (a,), body), "used more than once")


def test_acc_wrong_region_result_rejected():
    # Nested withacc whose lambda returns the *outer* region's accumulator
    # in the leading (own-region) result position — a §5.4 escape.
    a = Var("a", A)
    z = Var("z", A)
    pa = Var("pa", ACC)
    pz = Var("pz", ACC)
    z2 = Var("z2", A)
    sec = Var("sec", ACC)
    inner = Stm((z2, sec), WithAcc((z,), Lambda((pz,), Body((), (pa, pz)))))
    a2 = Var("a2", A)
    body = Body(
        (Stm((a2,), WithAcc((a,), Lambda((pa,), Body((inner,), (pa,))))),),
        (a2,),
    )
    _reject(
        Fun("f", (a, z), body),
        "must return this region's own accumulator",
    )


def test_acc_function_param_rejected():
    p = Var("p", ACC)
    fun = Fun("bad", (p,), Body((), (Const(1.0, F64),)))
    _reject(fun, "function parameters may not be accumulators")


def test_frozen_array_read_rejected():
    a = Var("a", A)
    pa = Var("pa", ACC)
    t = Var("t", A)
    u = Var("u", ACC)
    lam_body = Body(
        (
            Stm((t,), UnOp("neg", a)),  # read of `a` while its acc is live
            Stm((u,), UpdAcc(pa, (), t)),
        ),
        (u, t),
    )
    a2 = Var("a2", A)
    t2 = Var("t2", A)
    body = Body(
        (Stm((a2, t2), WithAcc((a,), Lambda((pa,), lam_body))),), (t2,)
    )
    _reject(Fun("f", (a,), body), "read while an accumulator view")


def test_loop_acc_not_threaded_rejected():
    # A loop-carried accumulator whose body returns a *different* region's
    # accumulator in its position.
    a = Var("a", A)
    b = Var("b", A)
    pa = Var("pa", ACC)
    pb = Var("pb", ACC)
    carried = Var("l", ACC)
    i = Var("i", I64)
    lout = Var("lout", ACC)
    loop = Stm(
        (lout,),
        Loop((carried,), (pb,), i, Const(2, I64), Body((), (pa,))),
    )
    b2 = Var("b2", A)
    inner = Stm((b2,), WithAcc((b,), Lambda((pb,), Body((loop,), (lout,)))))
    a2 = Var("a2", A)
    body = Body(
        (Stm((a2,), WithAcc((a,), Lambda((pa,), Body((inner,), (pa,))))),),
        (a2,),
    )
    _reject(Fun("f", (a, b), body), "not threaded linearly")


def test_scatter_replicated_indices_rejected_in_full():
    dest = Var("dest", A)
    vals = Var("vals", A)
    inds = Var("inds", AI)
    out = Var("out", A)
    body = Body(
        (
            Stm((inds,), Replicate(Const(4, I64), Const(0, I64))),
            Stm((out,), Scatter(dest, inds, vals)),
        ),
        (out,),
    )
    fun = Fun("f", (dest, vals), body)
    verify_fun(fun, where="opt:evil")  # boundary layers cannot see it
    _reject(fun, "replicate a single index", full=True)


def test_forced_fission_of_coupled_argmin_rejected():
    # The mutation a buggy component analysis would produce: the argmin pair
    # (v, i) split into a `v` reduce and an `i` reduce.  Each half still
    # reads the other's operator parameters, which its lambda no longer binds.
    from repro.opt.fission import component_groups, split_soac
    from helpers import argmin_pair_lambda

    xs, idx = Var("xs", A), Var("idx", AI)
    y, iy = Var("y", F64), Var("iy", I64)
    lam = argmin_pair_lambda()
    stm = Stm((y, iy), Reduce(lam, (Const(np.inf, F64), Const(2**62, I64)), (xs, idx)))
    assert component_groups(lam, 2) == [(0, 1)]
    verify_fun(Fun("argmin", (xs, idx), Body((stm,), (y, iy))), where="opt:fission")
    halves = split_soac(stm, [(0,), (1,)])
    i1 = lam.params[1].name
    err = _reject(
        Fun("argmin", (xs, idx), Body(tuple(halves), (y, iy))),
        f"use of {i1!r} before its definition",
        where="opt:fission",
    )
    # the error names the statement inside the `v` half that reads `i1`
    assert "let (ile_" in str(err)


# ---------------------------------------------------------------------------
# Layer 2: plan-IR checker
# ---------------------------------------------------------------------------


def _lowered(prog, args, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "off")  # lower without the hook…
    fun = rp.trace_like(prog, args)
    ir = lower_fun(fun)
    verify_plan_ir(ir)  # …then prove the pristine plan is green
    return ir


def _first_run(ir: PlanIR) -> IRun:
    for instr in ir.body.instrs:
        if isinstance(instr, IRun):
            return instr
    raise AssertionError("no fused run in lowered plan")


def test_plan_slot_double_assign_rejected(monkeypatch):
    ir = _lowered(lambda x: x * x + 1.0, (2.0,), monkeypatch)
    run = _first_run(ir)
    idx, _slot, name = run.exports[0]
    run.exports = ((idx, ir.param_slots[0], name),)  # clobber a live param
    with pytest.raises(VerifyError, match="assigned twice along one"):
        verify_plan_ir(ir)


def test_plan_read_undefined_slot_rejected(monkeypatch):
    ir = _lowered(lambda x: x * x + 1.0, (2.0,), monkeypatch)
    run = _first_run(ir)
    for op in run.ops:
        refs = [x for x in op.xs if isinstance(x, Ref) and x.slot is not None]
        if refs:
            refs[0].slot = 10**6
            break
    else:
        raise AssertionError("no slot-reading op in the run")
    with pytest.raises(VerifyError, match="read of undefined slot"):
        verify_plan_ir(ir)


def test_plan_run_export_out_of_range_rejected(monkeypatch):
    ir = _lowered(lambda x: x * x + 1.0, (2.0,), monkeypatch)
    run = _first_run(ir)
    _idx, slot, name = run.exports[0]
    run.exports = ((len(run.ops) + 7, slot, name),)
    with pytest.raises(VerifyError, match="outside\n?\\s*the run"):
        verify_plan_ir(ir)


def test_plan_loop_arity_rejected(monkeypatch):
    ir = _lowered(
        lambda x: rp.fori_loop(3, lambda i, a: a * x, x), (2.0,), monkeypatch
    )
    loop = next(i for i in ir.body.instrs if isinstance(i, ILoop))
    loop.body.result = ()
    with pytest.raises(VerifyError, match="loop body returns 0 values"):
        verify_plan_ir(ir)


def test_plan_duplicate_param_slot_rejected(monkeypatch):
    ir = _lowered(lambda x, y: x + y, (1.0, 2.0), monkeypatch)
    ir.param_slots = (ir.param_slots[0], ir.param_slots[0])
    with pytest.raises(VerifyError, match="parameter slot .* duplicated"):
        verify_plan_ir(ir)


# -- the memory plan: releases and donations --------------------------------


def _mem_prog(x, v):
    # `a` is read by the first run and again by the map, which therefore
    # carries its release; the run's interior values die inside it, most of
    # them into a donation.
    a = x * x + 1.0
    t = rp.sin(a * x) * rp.cos(a + x) + a
    return rp.sum(rp.map(lambda e: e * t + a, v)) + v[0] * t


def _reads_slot(ins, slot) -> bool:
    from repro.exec.lower import nested_bodies

    refs = [x for o in getattr(ins, "ops", ()) for x in o.xs if isinstance(x, Ref)]
    for attr in ("arrs", "accs", "nes", "inits"):
        refs += list(getattr(ins, attr, ()) or ())
    if any(r.slot == slot for r in refs):
        return True
    return any(
        _reads_slot(sub, slot) or any(r.slot == slot for r in b.result)
        for b in nested_bodies(ins) for sub in b.instrs
    )


def test_plan_release_before_last_read_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    instrs = ir.body.instrs
    # a slot released by the instruction that reads it last, with an earlier
    # reader to move the release to
    for i, ins in enumerate(instrs):
        for slot, name in ins.release:
            earlier = [k for k in range(i) if _reads_slot(instrs[k], slot)]
            if earlier and _reads_slot(ins, slot):
                ins.release = tuple(r for r in ins.release if r[0] != slot)
                instrs[earlier[0]].release += ((slot, name),)
                with pytest.raises(
                    VerifyError, match=rf"read of released slot {slot} \('{name}'\)"
                ):
                    verify_plan_ir(ir)
                return
    raise AssertionError("no release with an earlier reader in the plan")


def test_plan_release_of_body_result_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    res = ir.body.result[0]
    ir.body.instrs[-1].release += ((res.slot, res.name),)
    with pytest.raises(
        VerifyError, match=rf"read of released slot {res.slot} \('{res.name}'\)"
    ):
        verify_plan_ir(ir)
    # ... and of a nested body's result, which its instruction still copies
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    body = next(i for i in ir.body.instrs if i.kind == "map").body
    res = body.result[0]
    body.instrs[-1].release += ((res.slot, res.name),)
    with pytest.raises(VerifyError, match=rf"read of released slot {res.slot} "):
        verify_plan_ir(ir)


def test_plan_release_of_outer_slot_from_a_loop_body_rejected(monkeypatch):
    # the body would read it again on the next iteration
    ir = _lowered(
        lambda x: rp.fori_loop(3, lambda i, a: a * x + 1.0, x), (2.0,), monkeypatch
    )
    loop = next(i for i in ir.body.instrs if isinstance(i, ILoop))
    slot, name = ir.param_slots[0], ir.fun.params[0].name
    loop.body.instrs[-1].release += ((slot, name),)
    with pytest.raises(
        VerifyError, match=rf"release of slot {slot} \('{name}'\) bound outside"
    ):
        verify_plan_ir(ir)


def _donating(run: IRun):
    return next((pos, op) for pos, op in enumerate(run.ops) if op.donate)


def _big_run(ir: PlanIR) -> IRun:
    return max((i for i in ir.body.instrs if isinstance(i, IRun)), key=lambda r: len(r.ops))


def test_plan_donate_exported_local_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    donor = op.xs[op.donate[0]]
    name = run.prov[donor].pat[0].name
    run.exports += ((donor, ir.nslots - 1, name),)
    with pytest.raises(VerifyError, match=rf"exported to slot {ir.nslots - 1} \('{name}'\)"):
        verify_plan_ir(ir)


@pytest.mark.parametrize("kind", ["index", "atom"])
def test_plan_donate_non_owning_local_rejected(kind, monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    donor = op.xs[op.donate[0]]
    run.ops[donor].kind = kind  # the value is now a view / a forwarded operand
    name = run.prov[donor].pat[0].name
    with pytest.raises(
        VerifyError,
        match=rf"donates run-local value {donor} \('{name}'\) produced by '{kind}'",
    ):
        verify_plan_ir(ir)


def test_plan_donate_register_operand_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = next(
        (pos, op) for pos, op in enumerate(run.ops)
        if op.kind == "binop" and any(isinstance(x, Ref) and x.slot is not None for x in op.xs)
    )
    p = next(p for p, x in enumerate(op.xs) if isinstance(x, Ref) and x.slot is not None)
    op.donate = (p,)
    reg = op.xs[p]
    with pytest.raises(
        VerifyError,
        match=rf"donates register operand slot {reg.slot} \('{reg.name}'\)",
    ):
        verify_plan_ir(ir)


def test_plan_donate_live_local_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    donor = op.xs[op.donate[0]]
    # a later op reads the donated value: it is not dead at `pos`
    later = next(o for o in run.ops[pos + 1:] if o.kind == "binop")
    later.xs = (donor,) + tuple(later.xs[1:])
    with pytest.raises(VerifyError, match=rf"reads run-local value {donor} .* released by op {pos}"):
        verify_plan_ir(ir)


def test_plan_donate_on_an_op_without_out_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    op.kind = "select"  # np.where takes no out=
    with pytest.raises(
        VerifyError, match=rf"run op {pos} \(select .* donates .* but cannot compute in place"
    ):
        verify_plan_ir(ir)


def test_plan_release_of_an_unbound_slot_rejected(monkeypatch):
    # the first instruction releases the result, which only the last one writes
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    res = ir.body.result[0]
    ir.body.instrs[0].release += ((res.slot, res.name),)
    with pytest.raises(
        VerifyError, match=rf"release of unbound slot {res.slot} \('{res.name}'\)"
    ):
        verify_plan_ir(ir)


@pytest.mark.parametrize("whom", ["itself", "a later op", "not an op"])
def test_plan_run_release_of_what_is_not_an_earlier_op_rejected(whom, monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    x = {"itself": 2, "a later op": 3, "not an op": -1}[whom]
    run.ops[2].release += (x,)
    with pytest.raises(VerifyError, match=rf"run op 2 releases {x}, not an earlier op"):
        verify_plan_ir(ir)


def test_plan_run_release_of_an_exported_local_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    idx, slot, name = run.exports[0]
    pos = next(p for p in range(idx + 1, len(run.ops)) if idx not in run.ops[p].release)
    run.ops[pos].release += (idx,)
    with pytest.raises(
        VerifyError,
        match=rf"run op {pos} releases run-local value {idx} .* exported to slot {slot} "
              rf"\('{name}'\)",
    ):
        verify_plan_ir(ir)


def test_plan_donate_constant_operand_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op, p = next(
        (pos, op, p) for pos, op in enumerate(run.ops) if op.kind == "binop"
        for p, x in enumerate(op.xs) if isinstance(x, Ref) and x.slot is None
    )
    op.donate = (p,)
    with pytest.raises(VerifyError, match=rf"run op {pos} donates a constant operand"):
        verify_plan_ir(ir)


def test_plan_donate_of_an_operand_the_op_lacks_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    op.donate = (len(op.xs),)
    with pytest.raises(
        VerifyError, match=rf"run op {pos} donates operand {len(op.xs)}, which it lacks"
    ):
        verify_plan_ir(ir)


def test_plan_donate_of_a_local_the_op_does_not_release_rejected(monkeypatch):
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    donor = op.xs[op.donate[0]]
    op.release = tuple(x for x in op.release if x != donor)
    with pytest.raises(
        VerifyError, match=rf"run op {pos} donates run-local value {donor} .* not dead there"
    ):
        verify_plan_ir(ir)


@pytest.mark.parametrize("kind", ["atom", "index"])
def test_plan_donate_of_a_local_another_op_hands_on_rejected(kind, monkeypatch):
    # an ``atom`` forwards its operand, an ``index`` reads a view of it: the
    # donor's buffer lives on in that op's result
    ir = _lowered(_mem_prog, (2.0, np.ones(4)), monkeypatch)
    run = _big_run(ir)
    pos, op = _donating(run)
    donor = op.xs[op.donate[0]]
    q = next(q for q in range(donor + 1, len(run.ops)) if q != pos)
    other = run.ops[q]
    other.kind, other.op, other.affine = kind, None, None
    other.xs = (donor,) + tuple(other.xs[1:])
    with pytest.raises(
        VerifyError,
        match=rf"run op {pos} donates run-local value {donor} .* which op {q} \({kind}\) hands on",
    ):
        verify_plan_ir(ir)


# -- index provenance: the affine flags --------------------------------------


def _index_ops(ir: PlanIR):
    """Every ``index`` run-op of the plan with its run, nested bodies included."""
    out = []

    def walk(instrs):
        for ins in instrs:
            if isinstance(ins, IRun):
                out.extend((ins, pos, op) for pos, op in enumerate(ins.ops) if op.kind == "index")
            for b in nested_bodies(ins):
                walk(b.instrs)

    walk(ir.body.instrs)
    return out


def _reject_flag(ir: PlanIR, ins, pos, op, operand):
    name = ins.prov[pos].exp.idx[operand]
    with pytest.raises(
        VerifyError, match=rf"run op {pos} \(index\) flags index operand {operand} "
    ) as exc:
        verify_plan_ir(ir)
    assert "lane-affine" in str(exc.value) and getattr(name, "name", "") in str(exc.value)


def test_lowering_flags_only_iota_parameters_plus_constants(monkeypatch):
    def prog(a):
        return rp.map(
            lambda i: a[i] + a[i + 1] + a[2 + i] + a[i - 1] + a[1 - i] + a[2 * i] + a[i % 2],
            rp.iota(2),
        )

    ir = _lowered(prog, (np.ones(8),), monkeypatch)
    assert [op.affine for _, _, op in _index_ops(ir)] == (
        [(True,)] * 4 + [None] * 3
    )


def test_plan_affine_flag_on_data_dependent_index_rejected(monkeypatch):
    # the index is a reduce result (an argmin-style selection), not an iota
    def prog(a, inds):
        k = rp.reduce(lambda x, y: rp.minimum(x, y), 3, inds)
        return a[k] * 2.0

    ir = _lowered(prog, (np.ones(4), np.arange(4)), monkeypatch)
    ((ins, pos, op),) = _index_ops(ir)
    assert op.affine is None
    op.affine = (True,)
    _reject_flag(ir, ins, pos, op, 0)


def test_plan_affine_flag_on_loop_carried_integer_rejected(monkeypatch):
    def prog(a):
        return rp.fori_loop(3, lambda t, k, s: (k + 1, s + a[k]), (0, 0.0))

    ir = _lowered(prog, (np.ones(4),), monkeypatch)
    ((ins, pos, op),) = _index_ops(ir)
    op.affine = (True,)
    _reject_flag(ir, ins, pos, op, 0)


def test_plan_affine_flag_on_scaled_iota_rejected(monkeypatch):
    ir = _lowered(
        lambda a: rp.map(lambda i: a[2 * i], rp.iota(2)), (np.ones(4),), monkeypatch
    )
    ((ins, pos, op),) = _index_ops(ir)
    op.affine = (True,)
    _reject_flag(ir, ins, pos, op, 0)


def test_plan_affine_flag_on_name_rebound_in_sibling_scope_rejected(monkeypatch):
    """Two sibling maps bind the same slot: over an ``iota`` in the first,
    over data in the second.  What the first scope proved must not leak."""
    def prog(a, inds):
        return rp.map(lambda i: a[i], rp.iota(4)), rp.map(lambda k: a[k], inds)

    ir = _lowered(prog, (np.ones(4), np.arange(4)), monkeypatch)
    first, second = (i for i in ir.body.instrs if isinstance(i, IMap))
    (_, _, op1), (ins, pos, op2) = _index_ops(ir)
    assert op1.affine == (True,) and op2.affine is None
    old = second.params
    second.params = first.params  # the sibling re-binds the first map's name
    op2.xs = (op2.xs[0], op1.xs[1])
    second.body.bound = first.body.bound
    second.release = tuple(r for r in second.release if r not in old) + first.params
    verify_plan_ir(ir)  # re-binding alone is fine (sibling scopes) …
    op2.affine = (True,)  # … carrying the flag over is not
    with pytest.raises(VerifyError, match=r"flags index operand 0 .*lane-affine"):
        verify_plan_ir(ir)


# ---------------------------------------------------------------------------
# Hook behaviour: modes, counters, cached-plan reuse
# ---------------------------------------------------------------------------


def test_verification_is_on_under_pytest():
    # conftest defaults REPRO_VERIFY to "boundary"; the CI full-verify leg
    # legitimately overrides it to "full" — either way, never "off".
    assert verify_mode() in ("boundary", "full")
    assert verify_stats()["mode"] == verify_mode()


def test_off_mode_runs_no_checks(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "off")
    clear_plan_cache()
    before = dict(VERIFY_STATS)
    fun = rp.trace_like(lambda x: x * 3.0, (1.5,))
    plan_for(fun, (1.5,)).run((1.5,))
    assert dict(VERIFY_STATS) == before


def test_unknown_mode_raises(monkeypatch):
    """A typo in the verifier's own knob must not switch the verifier off."""
    monkeypatch.setenv("REPRO_VERIFY", "paranoid")
    with pytest.raises(ReproError, match=r"REPRO_VERIFY='paranoid'.*off \| boundary \| full"):
        verify_mode()
    monkeypatch.setenv("REPRO_VERIFY", "")
    assert verify_mode() == "off"


def test_cached_plan_reuse_skips_reverification(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "full")
    clear_plan_cache()
    fun = rp.trace_like(lambda x: rp.sum(x) * 2.0, (np.ones(6),))
    before = VERIFY_STATS["plan_checks"]
    p1 = plan_for(fun, (np.ones(6),))
    after_first = VERIFY_STATS["plan_checks"]
    assert after_first == before + 1  # verification happens at lowering…
    p2 = plan_for(fun, (np.ones(6),))
    assert p2 is p1
    p2.run((np.arange(6.0),))
    assert VERIFY_STATS["plan_checks"] == after_first  # …never on reuse

    stats = verify_stats()  # the one view: the plan cache's stats copy none of it
    assert "verify" not in plan_cache_stats() and stats["mode"] == "full"
    assert stats["plan_checks"] >= after_first - before


def test_verify_section_in_metrics_snapshot():
    from repro.obs import metrics

    snap = metrics.snapshot()
    assert "verify" in snap
    assert snap["verify"]["mode"] == verify_mode()


def test_verify_failures_counted():
    x = Var("x", F64)
    y = Var("y", F64)
    z = Var("z", F64)
    bad = Fun(
        "f",
        (x,),
        Body((Stm((z,), BinOp("add", y, y)), Stm((y,), BinOp("mul", x, x))), (z,)),
    )
    before = (VERIFY_STATS["fun_checks"], VERIFY_STATS["failures"])
    with pytest.raises(VerifyError):
        verify_fun(bad, where="opt:evil")
    assert VERIFY_STATS["fun_checks"] == before[0] + 1
    assert VERIFY_STATS["failures"] == before[1] + 1


# -- contractions --------------------------------------------------------------


def _untiled_gates():
    """Two gates at rows ``u`` and ``u + 4`` of one matrix over ``iota(3)``:
    their offsets do not tile, so each gate's adjoint stays an accumulator
    map over a replicate into two accumulators (the LSTM's gates are one
    tiled map since they were hoisted, and have no such map)."""
    def f(w, hs):
        def unit(b, u):
            g1 = rp.sum(rp.map(lambda j: w[u, j] * hs[b, j], rp.iota(4)))
            g2 = rp.sum(rp.map(lambda j: w[u + 4, j] * hs[b, j], rp.iota(4)))
            return rp.tanh(g1) * rp.sigmoid(g2)

        return rp.sum(rp.map(lambda b: rp.sum(rp.map(lambda u: unit(b, u), rp.iota(3))),
                             rp.iota(2)))

    return rp.grad(rp.compile(rp.trace_like(f, (np.ones((7, 4)), np.ones((2, 4)))))).adfun.fun


def _lstm_contracts(monkeypatch, fun=None):
    """The lowered LSTM gradient, or ``fun`` (verified pristine), and its
    contracts, each with the body holding it."""
    monkeypatch.setenv("REPRO_VERIFY", "off")
    if fun is None:
        fun = rp.grad(rp.compile(lstm.build_ir(3, 2, 5, 4)), wrt=[1, 2, 3, 4]).adfun.fun
    ir = lower_fun(fun)
    verify_plan_ir(ir)
    found = []

    def walk(body):
        for ins in body.instrs:
            if ins.kind == "contract":
                found.append((body, ins))
            for b in nested_bodies(ins):
                walk(b)

    walk(ir.body)
    return ir, found


def test_plan_contract_swapped_output_subscripts_rejected(monkeypatch):
    ir, found = _lstm_contracts(monkeypatch)
    lay = layout(ir)
    verify_layout(ir, lay)
    ins = next(ins for _b, ins in found if lay.kernel[ins][0][1].endswith("->ab"))
    (term,) = lay.kernel[ins]
    lay.kernel[ins] = ((term[0], term[1][:-2] + "ba") + term[2:],)
    with pytest.raises(VerifyError, match="contract recorded as"):
        verify_layout(ir, lay)


def test_plan_contract_operand_read_through_a_gather_rejected(monkeypatch):
    ir, found = _lstm_contracts(monkeypatch)
    _body, ins = found[0]
    op = next(o for r in ins.body.instrs if isinstance(r, IRun) for o in r.ops
              if o.kind == "index")
    op.affine = None  # what lowering leaves on a gather
    with pytest.raises(VerifyError, match="contract falls back to a body that is no"):
        verify_plan_ir(ir)


def test_plan_contract_aimed_at_another_accumulator_rejected(monkeypatch):
    ir, found = _lstm_contracts(monkeypatch, _untiled_gates())
    ins = next(ins for _b, ins in found if len(ins.accs) == 2)
    j, *rest = ins.terms[0]
    ins.terms = ((1 - j, *rest),) + ins.terms[1:]
    with pytest.raises(VerifyError, match="contract records terms"):
        verify_plan_ir(ir)


def test_plan_contract_argument_no_replicate_rejected(monkeypatch):
    """The kernel reads a non-lane argument as its lane scalar: it must be
    a replicate, not any array of the right rank."""
    ir, found = _lstm_contracts(monkeypatch, _untiled_gates())
    ins = next(ins for _b, ins in found if not all(ins.lanes) and ins.xs)
    q = ins.lanes.index(False)
    ins.arrs = ins.arrs[:q] + (ins.xs[0],) + ins.arrs[q + 1:]
    with pytest.raises(VerifyError, match=f"contract argument {q} is no replicate"):
        verify_plan_ir(ir)


def test_plan_read_of_a_dropped_replicate_rejected(monkeypatch):
    """``r = replicate 4 s`` feeds a contract and then ``map (\\j c acc ->
    upd acc[j] += c + 1)``, so lowering keeps it.  Dropped anyway (the
    contract takes ``(4, s)``), that map reads a slot nothing wrote."""
    monkeypatch.setenv("REPRO_VERIFY", "off")
    a, wv, s = Var("a", array(F64)), Var("w", array(F64)), Var("s", F64)
    acc0 = Var("acc0", AccType(F64, 1))
    top = Builder()
    r, acc = top.replicate(4, s), acc0
    for q in range(2):
        j, c, acc1 = Var(f"j{q}", I64), Var(f"c{q}", F64), Var(f"acc{q + 1}", AccType(F64, 1))
        inner = Builder()
        v = inner.add(c, 1.0) if q else inner.mul(inner.index(wv, (j,)), c)
        lam = Lambda((j, c, acc1), inner.finish([inner.upd_acc(acc1, (j,), v)]))
        (acc,) = top.map(lam, [top.iota(4), r], [acc])
    b = Builder()
    (out,) = b.with_acc([a], Lambda((acc0,), top.finish([acc])))
    ir = lower_fun(Fun("replicate_read_twice", (a, wv, s), b.finish([out])))
    verify_plan_ir(ir)
    (body,) = [wa.body for wa in ir.body.instrs if wa.kind == "withacc"]
    rep, ins = [i for i in body.instrs if i.kind in ("replicate", "contract")]
    slot, name = rep.out
    ins.arrs = tuple((rep.n, rep.v) if x.slot == slot else x for x in ins.arrs)
    body.instrs = tuple(i for i in body.instrs if i is not rep)
    with pytest.raises(VerifyError, match=rf"read of undefined slot {slot} \('{name}'\)"):
        verify_plan_ir(ir)


# ---------------------------------------------------------------------------
# Fuzz corpus under REPRO_VERIFY=full on both executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 8, 13, 21])
def test_fuzz_corpus_green_under_full_verification(seed, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "full")
    prog = _gen_program(seed)
    xs = np.random.default_rng(seed).standard_normal(6) * 0.8
    fc = rp.compile(rp.trace_like(prog, (xs,)))  # verifies every opt pass
    run_both(fc, xs)  # every backend agrees with ref
    want = fc(xs)
    (got,) = plan_for(fc.fun, (xs,)).run((xs,))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    rp.grad(fc)(xs)  # jvp/vjp boundaries + post-AD optimization under full
