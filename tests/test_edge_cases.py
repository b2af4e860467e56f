"""Edge cases across the stack: empty arrays, singleton extents, degenerate
seeds, masked divergence, dtype preservation, deep nesting."""
import numpy as np
import pytest

import repro as rp
from helpers import LEGS, check_grad, reduce_census, run_both


def test_singleton_map_and_reduce():
    f = rp.compile(rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * 3.0, xs)), (np.ones(1),)))
    assert f(np.array([2.0])) == 6.0
    g = rp.grad(f)
    np.testing.assert_allclose(g(np.array([2.0])), [3.0])


def test_zero_seed_gives_zero_gradient():
    f = rp.compile(rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: rp.exp(x), xs)), (np.ones(3),)))
    rev = rp.vjp(f)
    out = rev(np.ones(3), 0.0)
    np.testing.assert_allclose(out[1], np.zeros(3))


def test_grad_of_constant_output():
    f = rp.compile(rp.trace_like(lambda x: x * 0.0 + 1.0, (1.0,)))
    assert rp.grad(f)(5.0) == 0.0


def test_unused_parameter_zero_adjoint():
    f = rp.compile(rp.trace_like(lambda x, y: x * x, (1.0, 1.0)))
    gx, gy = rp.grad(f)(3.0, 7.0)
    assert gx == 6.0 and gy == 0.0


def test_deeply_nested_maps():
    def f(t):  # rank-3 sum-of-cubes
        return rp.sum(
            rp.map(
                lambda m: rp.sum(rp.map(lambda r: rp.sum(rp.map(lambda x: x**3.0, r)), m)),
                t,
            )
        )

    t = np.random.default_rng(0).standard_normal((2, 3, 4))
    check_grad(f, (t,), tol=1e-3)


def test_scalar_result_dtype_preserved_f32():
    f = rp.compile(rp.trace_like(lambda x: x * x, (np.float32(2.0),)))
    out = f(np.float32(3.0))
    assert out.dtype == np.float32


def test_bool_array_ops_both_backends():
    def f(xs):
        flags = rp.map(lambda x: (x > 0.0) & (x < 1.0), xs)
        return rp.sum(rp.map(lambda b: rp.where(b, 1.0, 0.0), flags))

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    out = run_both(fc, np.array([-1.0, 0.5, 2.0, 0.9]))
    assert out == 2.0


def test_update_row_of_matrix():
    def f(m, row):
        m2 = rp.update(m, 1, row)
        return rp.sum(rp.map(lambda r: rp.sum(r), m2))

    m = np.ones((3, 2))
    row = np.array([5.0, 6.0])
    fc = rp.compile(rp.trace_like(f, (m, row)))
    assert fc(m, row) == 2 + 11 + 2
    check_grad(f, (m, row))


def test_nested_loop_in_loop():
    def f(x):
        def outer(i, a):
            return rp.fori_loop(3, lambda j, b: b * x + 0.01, a)

        return rp.fori_loop(3, outer, 1.0)

    check_grad(f, (np.array(0.9),))


def test_while_loop_zero_iterations_grad():
    def f(x):
        v = rp.while_loop(lambda v: v < 0.0, lambda v: v * 2.0, x, bound=4)
        return v * v

    fc, g = check_grad(f, (np.array(3.0),))
    assert g(np.array(3.0)) == 6.0


def test_masked_log_in_untaken_branch():
    # log of negative values in inactive lanes must not poison results.
    def f(xs):
        return rp.sum(rp.map(lambda x: rp.cond(x > 0.0, lambda: rp.log(x), lambda: x), xs))

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    xs = np.array([2.0, -3.0, 0.5])
    out = run_both(fc, xs)
    assert np.isfinite(out)
    check_grad(f, (xs,))


def test_scatter_empty_indices():
    def f(xs, inds, vals):
        return rp.sum(rp.scatter(xs, inds, vals))

    fc = rp.compile(rp.trace_like(f, (np.ones(4), np.zeros(0, dtype=np.int64), np.zeros(0))))
    assert fc(np.ones(4), np.zeros(0, dtype=np.int64), np.zeros(0)) == 4.0


@pytest.mark.parametrize("nested", [False, True], ids=["top", "in-map"])
def test_scatter_out_of_range_index_does_not_undo_a_valid_write(nested):
    """-4 and 9 are dropped; they used to be clipped onto elements 0 and 3 and
    write the *old* element back there, erasing the valid writes before them
    (found by the kernel-level tests of ``vector._scatter``)."""
    row = lambda d, i, v: rp.scatter(d, i, v)  # noqa: E731
    dest, inds, vals = np.zeros(4), np.array([3, 0, 9, -4]), np.array([5.0, 6.0, 7.0, 8.0])
    args = (dest, inds, vals)
    if nested:
        args = tuple(np.stack([a, a[::-1]]) for a in args)
    fc = rp.compile(rp.trace_like((lambda *a: rp.map(row, *a)) if nested else row, args))
    out = run_both(fc, *args)
    np.testing.assert_array_equal(out[0] if nested else out, [6.0, 0.0, 0.0, 5.0])


def test_hist_empty_input():
    def f(inds, vals):
        return rp.sum(rp.reduce_by_index(3, lambda a, b: a + b, 0.0, inds, vals))

    fc = rp.compile(rp.trace_like(f, (np.zeros(0, dtype=np.int64), np.zeros(0))))
    assert fc(np.zeros(0, dtype=np.int64), np.zeros(0)) == 0.0


@pytest.mark.parametrize("mode", [None, "fwd", "rev"])
@pytest.mark.parametrize("backend", LEGS)
def test_jacobian_of_empty_input_is_the_empty_jacobian(backend, mode):
    """No input (and so no output) element: the ``y.shape + x.shape`` array
    without entries, not a ``ValueError`` from stacking zero seeds."""
    sq = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * x, v), (np.ones(4),)))
    total = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(lambda x: x * x, v)), (np.ones(4),)))
    for fc, shape in ((sq, (0, 0)), (total, (0,))):
        j = rp.jacobian(fc, mode=mode)(np.zeros(0), backend=backend)
        assert j.shape == shape and j.dtype == np.float64


def test_reduce_min_on_all_equal():
    xs = np.full(5, 2.0)
    f = rp.compile(rp.trace_like(lambda v: rp.min(v), (xs,)))
    g = rp.grad(f)(xs)
    assert g.sum() == 1.0  # exactly one winner even with ties


def test_pow_gradient_at_integer_exponent():
    check_grad(lambda x: x**3.0, (np.array(1.7),))


def test_negative_modulo_floor_semantics():
    f = rp.compile(rp.trace_like(lambda n: n % 4, (np.int64(-3),)))
    assert f(np.int64(-3)) == 1  # floor-mod, numpy semantics


def test_gather_grad_duplicated_indices():
    def f(tbl, inds):
        return rp.sum(rp.gather(tbl, inds))

    tbl = np.arange(3.0)
    inds = np.array([1, 1, 1, 0])
    fc = rp.compile(rp.trace_like(f, (tbl, inds)))
    g = rp.grad(fc, wrt=[0])(tbl, inds)
    np.testing.assert_allclose(g, [1.0, 3.0, 0.0])  # contributions accumulate


def test_second_order_nonuniform_hessian():
    # H of sum(exp(x)) is diag(exp(x)); hessian_diag must see it.
    f = rp.compile(rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: rp.exp(x), xs)), (np.ones(3),)))
    x = np.array([0.1, -0.5, 1.2])
    np.testing.assert_allclose(rp.hessian_diag(f)(x), np.exp(x), rtol=1e-10)


# ---------------------------------------------------------------------------
# Extents 0 and 1 on every reduce/scan/reduce_by_index lowering strategy
# ---------------------------------------------------------------------------

_ADD = lambda a, b: a + b  # noqa: E731  (a recognised ufunc operator)
_GEN = lambda a, b: a * b + a + b  # noqa: E731  (associative, neutral 0, no ufunc)
_ELEM = lambda x: rp.sin(x) * x  # noqa: E731  (fuses into the SOAC: redomap)

#: ``(soac, strategy) -> program over one row``; hist rows are (inds, vals).
_EXTENT_PROGRAMS = {
    ("reduce", "ufunc"): lambda v: rp.reduce(_ADD, 0.0, v),
    ("reduce", "ufunc", "folded-ne"): lambda v: rp.reduce(_ADD, 2.0, v),
    ("reduce", "redomap"): lambda v: rp.reduce(_ADD, 0.0, rp.map(_ELEM, v)),
    ("reduce", "generic"): lambda v: rp.reduce(_GEN, 0.0, v),
    ("scan", "ufunc"): lambda v: rp.scan(_ADD, 0.0, v),
    ("scan", "redomap"): lambda v: rp.scan(_ADD, 0.0, rp.map(_ELEM, v)),
    ("scan", "generic"): lambda v: rp.scan(_GEN, 0.0, v),
    ("hist", "ufunc"): lambda i, v: rp.reduce_by_index(3, _ADD, 0.0, i, v),
    ("hist", "redomap"): lambda i, v: rp.reduce_by_index(
        3, _ADD, 0.0, i, rp.map(_ELEM, v)
    ),
    ("hist", "generic"): lambda i, v: rp.reduce_by_index(3, _GEN, 0.0, i, v),
}


@pytest.mark.parametrize("nested", [False, True], ids=["top", "in-map"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("key", list(_EXTENT_PROGRAMS), ids="-".join)
def test_extent_0_and_1_on_every_fold_strategy(key, n, nested):
    """Primal and ``vjp`` of each strategy at extents 0 and 1, at top level
    and under a ``map`` (batch depth 1): ``plan`` equal to ``ref``
    (``run_both``)."""
    row = _EXTENT_PROGRAMS[key]
    f = (lambda *rows: rp.map(row, *rows)) if nested else row
    lead = (2,) if nested else ()
    vals = 0.5 * np.arange(1.0, n * (nested + 1) + 1.0).reshape(lead + (n,))
    args = (vals,)
    if key[0] == "hist":
        args = (np.ones(lead + (n,), dtype=np.int64), vals)
    ex = tuple(np.ones(lead + (3,), dtype=a.dtype) for a in args)
    fc = rp.compile(rp.trace_like(f, ex))
    assert key[:2] in reduce_census(fc.fun)
    out = run_both(fc, *args)
    assert np.shape(out) == {"reduce": lead, "scan": lead + (n,), "hist": lead + (3,)}[key[0]]
    run_both(rp.vjp(fc, wrt=[len(args) - 1]), *args, np.ones_like(out))


# ---------------------------------------------------------------------------
# NaN / +inf / -inf through every fold strategy and operator: equal to ``ref``
# ---------------------------------------------------------------------------

#: ``op -> (recognised spelling, a spelling lowering cannot recognise with
#: exactly the operator's NaN/inf behaviour, neutral element)``.
_FOLD_OPS = {
    "add": (lambda a, b: a + b, lambda a, b: -((-a) - b), 0.0),
    "mul": (lambda a, b: a * b, lambda a, b: -((-a) * b), 1.0),
    "min": (lambda a, b: rp.minimum(a, b), lambda a, b: -rp.maximum(-a, -b), np.inf),
    "max": (lambda a, b: rp.maximum(a, b), lambda a, b: -rp.minimum(-a, -b), -np.inf),
}


@pytest.mark.parametrize("op", list(_FOLD_OPS))
@pytest.mark.parametrize("strategy", ["ufunc", "redomap", "generic"])
@pytest.mark.parametrize("soac", ["reduce", "scan", "hist"])
def test_nan_and_inf_propagate_as_on_ref(soac, strategy, op):
    """Non-finite inputs (alone, together, next to a zero — ``0 * inf``) come
    out of ``plan`` exactly as out of ``ref``, NaN for NaN."""
    plain, opaque, ne = _FOLD_OPS[op]
    fn = opaque if strategy == "generic" else plain
    pre = (lambda v: rp.map(lambda x: x * 2.0, v)) if strategy == "redomap" else (lambda v: v)
    if soac == "hist":
        f = lambda i, v: rp.reduce_by_index(3, fn, ne, i, pre(v))  # noqa: E731
        lead = (np.array([0, 1, 0, 2, 1, 0]),)
    else:
        f = lambda v: getattr(rp, soac)(fn, ne, pre(v))  # noqa: E731
        lead = ()
    ex = lead + (np.ones(6),)
    fc = rp.compile(rp.trace_like(f, ex))
    assert (soac, strategy) in reduce_census(fc.fun)
    base = np.array([1.5, 0.0, -2.0, 0.25, 3.0, -0.5])
    for bad in ([np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [-np.inf, np.nan, np.inf]):
        vals = base.copy()
        vals[2:2 + len(bad)] = bad
        want = np.asarray(fc(*lead, vals, backend="ref"))
        assert not np.isfinite(want).all() or op in ("min", "max")
        got = np.asarray(fc(*lead, vals, backend="plan"))
        np.testing.assert_array_equal(got, want, err_msg=str(bad))


# ---------------------------------------------------------------------------
# A scan over no elements keeps its elements' extents: the neutral element's
# ---------------------------------------------------------------------------


def _array_scan_fun(strategy: str, nested: bool):
    """``scan op z xs`` over ``[n][3]f64`` rows from ``z : [3]f64`` (under a
    ``map`` over ``[2][n][3]f64`` when ``nested``), ``op`` lowered as
    ``strategy``."""
    from repro.ir import F64, Fun, Lambda, Var, array
    from repro.ir.builder import Builder

    a, x = Var("a", array(F64, 1)), Var("x", array(F64, 1))
    ob = Builder()
    if strategy == "ufunc":  # a + x
        r = ob.add(a, x)
    elif strategy == "redomap":  # a + x·x
        r = ob.add(a, ob.mul(x, x))
    else:  # a·x + a: the accumulator read twice
        r = ob.add(ob.mul(a, x), a)
    op = Lambda((a, x), ob.finish([r]))
    z = Var("z", array(F64, 1))
    xs = Var("xs", array(F64, 2))
    sb = Builder()
    (ys,) = sb.scan(op, [z], [xs])
    if not nested:
        return Fun("scan_rows", (xs, z), sb.finish([ys]))
    xss = Var("xss", array(F64, 3))
    b = Builder()
    (out,) = b.map(Lambda((xs,), sb.finish([ys])), [xss])
    return Fun("scan_rows_in_map", (xss, z), b.finish([out]))


@pytest.mark.parametrize("nested", [False, True], ids=["top", "in-map"])
@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("strategy", ["ufunc", "redomap", "generic"])
def test_scan_over_no_elements_keeps_the_neutral_elements_extents(strategy, n, nested):
    """Every element of a scan has the neutral element's extents, also when
    there is none: ``ref`` and every plan strategy return ``(n, 3)`` rows."""
    fc = rp.compile(_array_scan_fun(strategy, nested))
    assert reduce_census(fc.fun) == [("scan", strategy)]
    lead = (2,) if nested else ()
    xs = 0.5 * np.arange(1.0, 1.0 + 2 * n * 3).reshape(2, n, 3)
    args = (xs if nested else xs[0], np.array([1.0, -2.0, 0.25]))
    for backend in ("ref", "plan"):
        assert np.shape(fc(*args, backend=backend)) == lead + (n, 3), backend
    run_both(fc, *args)
