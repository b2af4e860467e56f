"""Exactness of compile-time constant folding (`opt/simplify.py`).

Folds must compute precisely what the executors would at runtime — under
the same ``np.errstate(all="ignore")`` — so a folded program and its
unoptimised twin agree bitwise on every backend even for div-by-zero,
overflow, and NaN-propagating inputs.  Only arithmetic failures demote a
fold to "don't fold"; anything else (unknown ops, bad types) propagates.
"""
import numpy as np
import pytest

import repro as rp

BACKENDS = ("ref", "vec", "plan")

#: Each case builds constants the tracer cannot evaluate eagerly (via
#: ``x*0``) so the fold happens in ``simplify``, not at trace time.
_FOLD_CASES = [
    ("float_div_zero", lambda x: (x * 0.0 + 1.0) / (x * 0.0)),          # inf
    ("float_neg_div_zero", lambda x: (x * 0.0 - 1.0) / (x * 0.0)),      # -inf
    ("float_zero_div_zero", lambda x: (x * 0.0) / (x * 0.0)),           # nan
    ("overflow_mul", lambda x: (x * 0.0 + 1e308) * 10.0),               # inf
    ("exp_overflow", lambda x: rp.exp(x * 0.0 + 1000.0)),               # inf
    ("log_zero", lambda x: rp.log(x * 0.0)),                            # -inf
    ("log_neg", lambda x: rp.log(x * 0.0 - 1.0)),                       # nan
    ("sqrt_neg", lambda x: rp.sqrt(x * 0.0 - 4.0)),                     # nan
    ("pow_frac_neg", lambda x: (x * 0.0 - 2.0) ** 0.5),                 # nan
    ("nan_propagates_add", lambda x: ((x * 0.0) / (x * 0.0)) + 3.0),    # nan
    ("nan_propagates_mul", lambda x: ((x * 0.0) / (x * 0.0)) * 0.0),    # nan
]


@pytest.mark.parametrize("name,f", _FOLD_CASES, ids=[c[0] for c in _FOLD_CASES])
def test_folds_match_runtime_on_every_backend(name, f):
    fun = rp.trace_like(f, (1.0,))
    fo = rp.compile(fun, optimize=True)
    fr = rp.compile(fun, optimize=False)
    # these folds must actually fire (the old blanket `except Exception`
    # silently demoted several of them to "don't fold")
    assert len(fo.fun.body.stms) == 0, "expected the expression to fold away"
    for be in BACKENDS:
        a = np.asarray(fo(2.0, backend=be))
        b = np.asarray(fr(2.0, backend=be))
        np.testing.assert_array_equal(a, b, err_msg=f"{name} on {be}")


def test_integer_div_and_mod_by_zero_fold_like_runtime():
    for f in (lambda i: (i * 0 + 1) / (i * 0), lambda i: (i * 0 + 1) % (i * 0)):
        fun = rp.trace_like(f, (np.int64(3),))
        fo = rp.compile(fun, optimize=True)
        fr = rp.compile(fun, optimize=False)
        for be in BACKENDS:
            assert fo(np.int64(3), backend=be) == fr(np.int64(3), backend=be)


def test_cast_of_inf_to_int_folds_like_runtime():
    # np.int64(inf) raises, but the executors' astype produces a value: the
    # fold must go through the same astype, not the scalar constructor.
    fun = rp.trace_like(lambda x: rp.astype(x * 0.0 + 1e308 * 10.0, rp.I64), (1.0,))
    fo = rp.compile(fun, optimize=True)
    fr = rp.compile(fun, optimize=False)
    assert len(fo.fun.body.stms) == 0
    for be in BACKENDS:
        assert fo(1.0, backend=be) == fr(1.0, backend=be)


def test_folded_gradients_survive_nonfinite_constants():
    # AD through a program with a folded non-finite constant: both the
    # optimised and raw pipelines must agree (nan/inf included).
    def f(x):
        big = x * 0.0 + 1e308
        return x * x + big * 0.0  # big*0.0 folds to nan? no: 1e308*0.0 == 0.0

    fun = rp.trace_like(f, (1.0,))
    g_opt = rp.grad(rp.compile(fun, optimize=True))(3.0)
    g_raw = rp.grad(rp.compile(fun, optimize=False), optimize=False)(3.0)
    np.testing.assert_allclose(g_opt, g_raw)


def test_unknown_op_errors_still_propagate():
    # The narrowed except must not swallow non-arithmetic failures.
    from repro.exec.prims import apply_binop
    from repro.util import ExecError

    with pytest.raises(ExecError):
        apply_binop("no_such_op", 1.0, 2.0)


# ---------------------------------------------------------------------------
# `length` folds through the definition of its argument
# ---------------------------------------------------------------------------


def _stm_kinds(fun):
    return [type(s.exp).__name__ for s in fun.body.stms]


_SIZE_CASES = [
    # the forward map is only kept alive by `length`: folding through it to
    # the map's argument lets DCE drop the map (§4.1's redundant sweep)
    ("map", lambda xs: rp.size(rp.map(lambda x: rp.exp(x), xs)) + 0, ["Size"]),
    ("iota", lambda xs: rp.size(rp.iota(rp.size(xs) + 2)) + 0, ["Size", "BinOp"]),
    ("replicate", lambda xs: rp.size(rp.replicate(rp.size(xs) * 3, 1.5)) + 0, ["Size", "BinOp"]),
    ("zeros_like", lambda xs: rp.size(rp.zeros_like(xs)) + 0, ["Size"]),
]


@pytest.mark.parametrize("name,f,kinds", _SIZE_CASES, ids=[c[0] for c in _SIZE_CASES])
def test_length_folds_through_definition(name, f, kinds):
    fun = rp.trace_like(f, (np.ones(4),))
    fo = rp.compile(fun, optimize=True)
    fr = rp.compile(fun, optimize=False)
    assert _stm_kinds(fo.fun) == kinds
    for n in (0, 1, 5):
        for be in BACKENDS:
            assert fo(np.ones(n), backend=be) == fr(np.ones(n), backend=be)


def test_length_fold_ignores_a_sibling_scopes_definition_of_the_name():
    # AD's redundant execution reuses binder names across sibling scopes.
    # Here `t` is bound by an `iota 3` statement in the first lambda and is
    # the *parameter* (a row of `m`) of the second: `length t` there must
    # not fold to 3.
    from repro.ir import F64, I64, Fun, Lambda, Var, array
    from repro.ir.ast import Body, Iota, Map, Size, Stm
    from repro.ir.builder import const
    from repro.opt.simplify import simplify_fun

    m = Var("m", array(F64, 2))
    x, n1, t_row, n2 = Var("x", array(F64, 1)), Var("n1", I64), Var("t", array(F64, 1)), Var("n2", I64)
    t_iota = Var("t", array(I64, 1))
    first = Lambda((x,), Body((Stm((t_iota,), Iota(const(3, I64))), Stm((n1,), Size(t_iota))), (n1,)))
    second = Lambda((t_row,), Body((Stm((n2,), Size(t_row)),), (n2,)))
    a, b = Var("a", array(I64, 1)), Var("b", array(I64, 1))
    fun = Fun("f", (m,), Body((Stm((a,), Map(first, (m,))), Stm((b,), Map(second, (m,)))), (a, b)))
    out = simplify_fun(fun)
    assert out.body.stms[0].exp.lam.body.result == (const(3, I64),)
    assert out.body.stms[1].exp.lam.body == second.body
    got = rp.compile(out, optimize=False)(np.ones((2, 5)), backend="ref")
    np.testing.assert_array_equal(got[0], [3, 3])
    np.testing.assert_array_equal(got[1], [5, 5])
