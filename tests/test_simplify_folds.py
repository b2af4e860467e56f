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

BACKENDS = ("ref", "plan")

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


# ---------------------------------------------------------------------------
# `pow` by a float constant 2 is a multiply
# ---------------------------------------------------------------------------


def test_pow_two_becomes_a_multiply_before_ad():
    fo = rp.compile(rp.trace_like(lambda x: x**2.0 + x**1.0, (1.5,)))
    ops = [s.exp.op for s in fo.fun.body.stms]
    assert ops == ["mul", "add"], ops
    assert fo.fun.body.stms[0].exp.x == fo.fun.body.stms[0].exp.y
    # the derivative is 2·x with no pow (and no log) anywhere
    g = rp.grad(fo)
    assert "pow" not in {getattr(s.exp, "op", None) for s in g.adfun.fun.body.stms}
    for x in (1.5, -0.0, np.inf, np.nan):
        for be in BACKENDS:
            np.testing.assert_array_equal(fo(x, backend=be), np.float64(x) * x + x)
            np.testing.assert_array_equal(g(x, backend=be), np.float64(2.0) * x + 1.0)
    # integer bases and other exponents keep their pow
    fi = rp.compile(rp.trace_like(lambda i, x: rp.astype(i**2, rp.F64) + x**3.0, (np.int64(3), 1.5)))
    assert [s.exp.op for s in fi.fun.body.stms if hasattr(s.exp, "op")].count("pow") == 2


def test_pow_rewrite_matches_the_unrewritten_apps(monkeypatch):
    from repro.apps import datagen, gmm, kmeans
    from repro.opt import simplify
    from repro.opt.pipeline import clear_opt_cache

    pts, ctr = datagen.kmeans_instance(3, 40, 4, seed=5)
    ginp = datagen.gmm_instance(16, 4, 3, seed=2)[:4]

    def derive():
        clear_opt_cache()
        fk = rp.compile(kmeans.build_ir(40, 3, 4))
        fg = rp.compile(gmm.build_ir(16, 4, 3))
        pows = sum(
            getattr(s.exp, "op", None) == "pow"
            for s in _all_stms(fk.fun.body)
        )
        return pows, [
            fk(pts, ctr), *rp.grad(fk, wrt=[1])(pts, ctr),
            rp.hessian_diag(fk, wrt=1)(pts, ctr), *rp.grad(fg, wrt=[0, 1, 2])(*ginp),
        ]

    pows_on, on = derive()
    fold = simplify._Simplifier._fold_binop
    monkeypatch.setattr(
        simplify._Simplifier, "_fold_binop",
        lambda self, e: None if e.op == "pow" and simplify._is_const(e.y, 2) else fold(self, e),
    )
    pows_off, off = derive()
    monkeypatch.undo()
    clear_opt_cache()
    assert (pows_on, pows_off) == (0, 1)
    # x·x is correctly rounded, libm's pow(x, 2) to within an ulp: the two
    # programs differ by at most one ulp per squared term they sum.
    for a, b in zip(on, off):
        a, b = np.asarray(a), np.asarray(b)
        np.testing.assert_allclose(a, b, rtol=0, atol=np.finfo(a.dtype).eps * np.abs(b).max() * 8)


def _all_stms(body):
    from repro.ir.ast import If, Loop, WhileLoop
    from repro.ir.traversal import exp_lambdas

    for s in body.stms:
        yield s
        e = s.exp
        subs = [lam.body for lam in exp_lambdas(e)]
        if isinstance(e, (Loop, WhileLoop)):
            subs.append(e.body)
        elif isinstance(e, If):
            subs += [e.then, e.els]
        for b in subs:
            yield from _all_stms(b)


# ---------------------------------------------------------------------------
# `±1.0 · (a + a)` is `±2.0 · a`
# ---------------------------------------------------------------------------

#: ±0, ±inf, NaN of either sign, the smallest and largest subnormals, and a
#: value whose double overflows.
_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                   2.225073858507201e-308, -2.225073858507201e-308, 1e308, -1.5])


@pytest.mark.parametrize("form", ["c*(x+x)", "(x+x)*c"])
def test_unit_times_a_double_folds_to_a_bitwise_equal_double_multiply(form):
    def f(xs):
        def elem(x):
            t = x + x
            return -1.0 * t if form == "c*(x+x)" else t * -1.0
        return rp.map(elem, xs)

    fun = rp.trace_like(f, (_EDGES,))
    fo = rp.compile(fun, optimize=True)
    fr = rp.compile(fun, optimize=False)
    (body,) = [s.exp.lam.body for s in fo.fun.body.stms]
    (mul,) = [s.exp for s in body.stms]
    assert mul.op == "mul" and -2.0 in (getattr(mul.x, "value", None), getattr(mul.y, "value", None))
    for be in ("ref", "plan"):
        assert np.asarray(fo(_EDGES, backend=be)).tobytes() == np.asarray(fr(_EDGES, backend=be)).tobytes()
    # the fold is exactly what doubling then negating does in NumPy
    with np.errstate(over="ignore"):
        want = (-1.0 * (_EDGES + _EDGES)).tobytes()
        assert (-2.0 * _EDGES).tobytes() == want
    assert np.asarray(fo(_EDGES)).tobytes() == want


def test_unit_times_a_sum_of_two_different_values_does_not_fold():
    fo = rp.compile(rp.trace_like(lambda x, y: -1.0 * (x + y), (1.0, 2.0)))
    assert [s.exp.op for s in fo.fun.body.stms] == ["add", "mul"]
