"""Builder + typechecker unit tests."""
import pytest

from repro.ir import (
    Builder,
    F64,
    I64,
    BOOL,
    Fun,
    Lambda,
    Var,
    array,
    check_fun,
    const,
    infer_exp_types,
    pretty,
    validate_fun,
)
from repro.ir.ast import BinOp, If, Index, Iota, Map, Body, AtomExp, UpdAcc
from repro.ir.types import AccType
from repro.util import IRError, TypeError_


def _simple_fun():
    b = Builder()
    x = Var("x", F64)
    y = b.mul(x, x, "y")
    return Fun("sq", (x,), b.finish([y]))


def test_emit_infers_types():
    b = Builder()
    x = Var("x", F64)
    v = b.add(x, const(1.0, F64))
    assert v.type is F64
    c = b.binop("lt", x, const(0.0, F64))
    assert c.type is BOOL


def test_check_simple_fun():
    fun = _simple_fun()
    assert check_fun(fun) == (F64,)
    validate_fun(fun)


def test_unbound_variable_rejected():
    b = Builder()
    x = Var("x", F64)
    ghost = Var("ghost", F64)
    y = b.mul(x, ghost, "y")
    fun = Fun("bad", (x,), b.finish([y]))
    with pytest.raises(TypeError_):
        check_fun(fun)


def test_binop_elem_mismatch_rejected():
    x = Var("x", F64)
    n = Var("n", I64)
    with pytest.raises(TypeError_):
        infer_exp_types(BinOp("add", x, n))


def test_index_rules():
    a = Var("a", array(F64, 2))
    i = Var("i", I64)
    assert infer_exp_types(Index(a, (i,)))[0] == array(F64, 1)
    assert infer_exp_types(Index(a, (i, i)))[0] is F64
    with pytest.raises(TypeError_):
        infer_exp_types(Index(a, (i, i, i)))
    with pytest.raises(TypeError_):
        infer_exp_types(Index(a, (Var("f", F64),)))


def test_map_arity_checked():
    xs = Var("xs", array(F64, 1))
    p = Var("p", F64)
    q = Var("q", F64)
    lam = Lambda((p, q), Body((), (p,)))
    with pytest.raises(TypeError_):
        infer_exp_types(Map(lam, (xs,)))


def test_if_branch_types_must_match():
    c = Var("c", BOOL)
    t = Body((), (const(1.0, F64),))
    f = Body((), (const(1, I64),))
    with pytest.raises(TypeError_):
        infer_exp_types(If(c, t, f))


def test_iota_type():
    assert infer_exp_types(Iota(const(5, I64)))[0] == array(I64, 1)


def test_validate_rejects_nonlinear_acc_use():
    acc = Var("acc", AccType(F64, 1))
    i = Var("i", I64)
    v = const(1.0, F64)
    a1 = Var("a1", AccType(F64, 1))
    a2 = Var("a2", AccType(F64, 1))
    body = Body(
        (
            # acc used twice — non-linear.
            __import__("repro.ir.ast", fromlist=["Stm"]).Stm((a1,), UpdAcc(acc, (i,), v)),
            __import__("repro.ir.ast", fromlist=["Stm"]).Stm((a2,), UpdAcc(acc, (i,), v)),
        ),
        (a1,),
    )
    arr = Var("arr", array(F64, 1))
    lam = Lambda((acc,), body)
    b = Builder()
    b.emit1(AtomExp(const(0, I64)), "i")
    # Build a fun around it; the validator should reject it.
    wb = Builder()
    outs = wb.with_acc([arr], lam, names=["out"])
    fun = Fun("bad", (arr, i), wb.finish([outs[0]]))
    with pytest.raises(IRError):
        validate_fun(fun)


def test_pretty_roundtrippable_text():
    fun = _simple_fun()
    s = pretty(fun)
    assert "fun sq" in s and "x * x" in s
