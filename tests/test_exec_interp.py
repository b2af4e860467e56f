"""Reference-interpreter semantics, construct by construct."""
import numpy as np
import pytest

import repro as rp
from repro.exec import run_fun
from repro.util import ExecError


def _run(f, args, **kw):
    fun = rp.trace_like(f, args)
    fc = rp.compile(fun, **kw)
    return fc(*args, backend="ref")


def test_scalar_ops():
    out = _run(lambda x, y: (x + y, x - y, x * y, x / y, x % y, x**2.0), (7.0, 2.0))
    np.testing.assert_allclose(out, (9.0, 5.0, 14.0, 3.5, 1.0, 49.0))


def test_integer_division_floors():
    assert _run(lambda n: n / 2, (np.int64(7),)) == 3
    assert _run(lambda n: n % 3, (np.int64(7),)) == 1


def test_comparisons_and_select():
    assert _run(lambda x: rp.where(x > 0.0, x, -x), (-4.0,)) == 4.0
    assert bool(_run(lambda x: (x > 1.0) | (x < -1.0), (0.5,))) is False


def test_unops():
    x = 0.37
    out = _run(
        lambda v: (rp.sin(v), rp.cos(v), rp.exp(v), rp.log(v), rp.sqrt(v), rp.tanh(v)),
        (x,),
    )
    np.testing.assert_allclose(
        out, (np.sin(x), np.cos(x), np.exp(x), np.log(x), np.sqrt(x), np.tanh(x))
    )


def test_sigmoid_erf():
    out = _run(lambda v: (rp.sigmoid(v), rp.erf(v)), (0.3,))
    from scipy.special import erf as sperf

    np.testing.assert_allclose(out, (1 / (1 + np.exp(-0.3)), sperf(0.3)), rtol=1e-12)


def test_erf_is_looked_up_on_first_use_not_at_import():
    """``scipy.special`` costs more to import than NumPy and serves ``erf``
    alone: neither the package nor the tape baseline may pull it in, and
    ``erf`` must still be ``math.erf`` on every backend once a program asks."""
    import math
    import os
    import subprocess
    import sys

    from repro.exec.prims import INPLACE_OPS

    src = os.path.dirname(os.path.dirname(rp.__file__))
    code = (
        "import sys, repro, repro.baselines.eager\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)[:5]"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": src})
    xs = np.array([-1.2, 0.0, 0.1, 0.5, 3.0])
    fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: rp.erf(x) * x, v), (xs,)))
    for backend in ("ref", "plan"):
        np.testing.assert_allclose(
            fc(xs, backend=backend), [math.erf(x) * x for x in xs], rtol=1e-14, atol=0
        )
    # Never donated into, whether or not SciPy provides a ufunc for it: a
    # plan must not depend on what is installed.
    assert "erf" not in INPLACE_OPS


def test_map_multi_result():
    xs = np.arange(4.0)
    a, b = _run(lambda v: rp.map(lambda x: (x + 1.0, x * 2.0), v), (xs,))
    np.testing.assert_allclose(a, xs + 1)
    np.testing.assert_allclose(b, xs * 2)


def test_map_variadic():
    xs, ys = np.arange(3.0), np.ones(3)
    out = _run(lambda a, b: rp.map(lambda x, y: x * y + 1.0, a, b), (xs, ys))
    np.testing.assert_allclose(out, xs + 1)


def test_map_length_mismatch():
    with pytest.raises(ExecError):
        _run(lambda a, b: rp.map(lambda x, y: x + y, a, b), (np.ones(3), np.ones(4)))


def test_reduce_and_scan():
    xs = np.arange(1.0, 6.0)
    assert _run(lambda v: rp.sum(v), (xs,)) == 15.0
    assert _run(lambda v: rp.prod(v), (xs,)) == 120.0
    out = _run(lambda v: rp.scan(lambda a, b: a + b, 0.0, v), (xs,))
    np.testing.assert_allclose(out, np.cumsum(xs))


def test_tuple_reduce_argmin():
    xs = np.array([3.0, 1.0, 2.0, 1.0])
    def f(v):
        n = rp.size(v)
        def op(v1, i1, v2, i2):
            take1 = (v1 < v2) | ((v1 == v2) & (i1 <= i2))
            return rp.where(take1, v1, v2), rp.where(take1, i1, i2)
        return rp.reduce(op, (np.inf, 2**62), v, rp.iota(n))
    val, idx = _run(f, (xs,))
    assert val == 1.0 and idx == 1  # ties take the first index


def test_reduce_by_index_semantics():
    inds = np.array([0, 1, 0, 5, -1, 1])  # out-of-range ignored
    vals = np.arange(6.0)
    out = _run(
        lambda i, v: rp.reduce_by_index(3, lambda a, b: a + b, 0.0, i, v),
        (inds, vals),
    )
    np.testing.assert_allclose(out, [2.0, 6.0, 0.0])


def test_scatter_out_of_range_ignored():
    out = _run(
        lambda d, i, v: rp.scatter(d, i, v),
        (np.zeros(4), np.array([1, 9, -2]), np.array([5.0, 6.0, 7.0])),
    )
    np.testing.assert_allclose(out, [0.0, 5.0, 0.0, 0.0])


def test_update_functional():
    def f(xs):
        ys = rp.update(xs, 1, 42.0)
        return ys, xs  # xs unchanged (copy-on-write)

    ys, xs = _run(f, (np.zeros(3),))
    np.testing.assert_allclose(ys, [0, 42, 0])
    np.testing.assert_allclose(xs, [0, 0, 0])


def test_loop_and_while():
    assert _run(lambda x: rp.fori_loop(5, lambda i, a: a * x, 1.0), (2.0,)) == 32.0
    def wl(x):
        return rp.while_loop(lambda v: v < 100.0, lambda v: v * 3.0, x)
    assert _run(wl, (2.0,)) == 162.0


def test_iota_replicate_reverse_concat_size():
    def f(xs):
        n = rp.size(xs)
        return (
            rp.iota(n),
            rp.replicate(3, xs[0]),
            rp.reverse(xs),
            rp.concat(xs, xs),
            n,
        )
    i, r, v, c, n = _run(f, (np.array([1.0, 2.0]),))
    np.testing.assert_allclose(i, [0, 1])
    np.testing.assert_allclose(r, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(v, [2.0, 1.0])
    np.testing.assert_allclose(c, [1.0, 2.0, 1.0, 2.0])
    assert n == 2


def test_gather():
    out = _run(
        lambda a, i: rp.gather(a, i), (np.array([10.0, 20.0, 30.0]), np.array([2, 0]))
    )
    np.testing.assert_allclose(out, [30.0, 10.0])


def test_a_negative_read_index_is_an_error_not_a_wrap_around():
    """``xs[i-1]`` at ``i = 0``: NumPy would read ``xs[4]`` (``[4,0,1,2,3]``);
    ``ref`` names the index and the shape.  ``plan`` clips (``[0,0,1,2,3]``)."""
    xs = np.arange(5.0)
    fc = rp.compile(rp.trace_like(lambda a: rp.map(lambda i: a[i - 1], rp.iota(5)), (xs,)))
    with pytest.raises(ExecError, match=r"index \(-1,\) out of bounds for shape \(5,\)"):
        fc(xs, backend="ref")
    np.testing.assert_array_equal(fc(xs, backend="plan"), [0.0, 0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("i", [5, -1])
def test_an_update_out_of_range_is_an_error(i):
    """``update xs 5 9.0`` used to escape as a bare ``IndexError``;
    ``update xs (-1) 9.0`` wrote ``xs[4]`` (``plan`` clips onto ``xs[0]``)."""
    xs = np.arange(5.0)
    fc = rp.compile(rp.trace_like(lambda a, j: rp.update(a, j, 9.0), (xs, np.int64(0))))
    with pytest.raises(ExecError, match=rf"index \({i},\) out of bounds for shape \(5,\)"):
        fc(xs, np.int64(i), backend="ref")
    np.testing.assert_array_equal(fc(xs, np.int64(2), backend="ref"), [0.0, 1.0, 9.0, 3.0, 4.0])


@pytest.mark.parametrize("i", [4, -1])
def test_an_accumulator_update_out_of_range_is_an_error(i):
    """``withacc xs (λp. upd p[j] += 1.0)`` with ``j`` outside ``[0, 4)``."""
    from repro.ir import F64, I64, Fun, Lambda, Var, array
    from repro.ir.ast import Body, Const, Stm, UpdAcc, WithAcc
    from repro.ir.types import AccType

    a, j, out = Var("a", array(F64)), Var("j", I64), Var("out", array(F64))
    p, u = Var("p", AccType(F64, 1)), Var("u", AccType(F64, 1))
    lam = Lambda((p,), Body((Stm((u,), UpdAcc(p, (j,), Const(1.0, F64))),), (u,)))
    fun = Fun("f", (a, j), Body((Stm((out,), WithAcc((a,), lam)),), (out,)))
    with pytest.raises(ExecError, match=rf"index \({i},\) out of bounds for shape \(4,\)"):
        run_fun(fun, (np.zeros(4), np.int64(i)))
    (ok,) = run_fun(fun, (np.zeros(4), np.int64(3)))
    np.testing.assert_array_equal(ok, [0.0, 0.0, 0.0, 1.0])


def test_empty_map_and_reduce():
    out = _run(lambda xs: (rp.map(lambda x: x * 2.0, xs), rp.sum(xs)), (np.zeros(0),))
    assert out[0].shape == (0,)
    assert out[1] == 0.0


def test_empty_map_of_arrays_never_gets_a_wrong_shape():
    # No element computes the inner extent: ref says so instead of returning
    # (0, 0); plan runs the body on zero lanes and sees the 3.
    fc = rp.compile(rp.trace_like(
        lambda c: rp.map(lambda i: rp.map(lambda j: c[i, j] * 2.0, rp.iota(3)),
                         rp.iota(rp.size(c))),
        (np.ones((2, 3)),)))
    c = np.zeros((0, 3))
    with pytest.raises(ExecError, match="zero elements.*extents"):
        fc(c, backend="ref")
    assert fc(c, backend="plan").shape == (0, 3)


def test_matmul_transpose_sugar():
    A = np.arange(6.0).reshape(2, 3)
    B = np.arange(12.0).reshape(3, 4)
    out = _run(lambda a, b: rp.matmul(a, b), (A, B))
    np.testing.assert_allclose(out, A @ B)
    out = _run(lambda a: rp.transpose(a), (A,))
    np.testing.assert_allclose(out, A.T)
