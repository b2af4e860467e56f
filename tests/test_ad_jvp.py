"""Forward-mode AD vs finite differences, construct by construct."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro as rp
from repro.core.jvp import jvp_fun

rng = np.random.default_rng(2)


def _jvp_check(f, args, tol=1e-5, eps=1e-7):
    fun = rp.trace_like(f, args)
    fc = rp.compile(fun)
    fwd = rp.jvp(fc)
    floats = [i for i, a in enumerate(args) if np.asarray(a).dtype.kind == "f"]
    tangents = [rng.standard_normal(np.asarray(args[i]).shape) for i in floats]
    out = fwd(*args, *tangents)
    out = out if isinstance(out, tuple) else (out,)
    n_out = len(fun.body.result)
    dys = out[n_out:]
    # central differences along the chosen direction
    ap = [np.array(a, dtype=float) if np.asarray(a).dtype.kind == "f" else a for a in args]
    am = [np.array(a, dtype=float) if np.asarray(a).dtype.kind == "f" else a for a in args]
    for slot, i in enumerate(floats):
        ap[i] = ap[i] + eps * tangents[slot]
        am[i] = am[i] - eps * tangents[slot]
    rp_ = fc(*ap)
    rm_ = fc(*am)
    rp_ = rp_ if isinstance(rp_, tuple) else (rp_,)
    rm_ = rm_ if isinstance(rm_, tuple) else (rm_,)
    fd = [(np.asarray(a) - np.asarray(b)) / (2 * eps) for a, b in zip(rp_, rm_)
          if np.asarray(a).dtype.kind == "f"]
    for d, n in zip(dys, fd):
        np.testing.assert_allclose(np.asarray(d), n, rtol=tol, atol=tol)


def test_jvp_scalar_chain():
    _jvp_check(lambda x0, x1: (x1 * rp.sin(x0), x0 * x1), (0.5, 0.7))


def test_jvp_all_unops():
    _jvp_check(
        lambda x: rp.sin(x) + rp.cos(x) + rp.exp(x) + rp.tanh(x) + rp.sigmoid(x) + rp.erf(x),
        (0.3,),
    )
    _jvp_check(lambda x: rp.log(x) + rp.sqrt(x), (1.7,))


def test_jvp_binops():
    _jvp_check(lambda x, y: x / y + x**y + rp.minimum(x, y) + rp.maximum(x, y), (1.3, 2.1))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_jvp_min_max_select_the_winning_tangent(bad):
    # The tangent of min/max is the *selected* operand's tangent.  Weighting
    # both tangents by 0/1 masks computed 0·inf = nan whenever the
    # unselected side carried a non-finite tangent.
    for op, x, y in ((rp.minimum, 1.0, 2.0), (rp.maximum, 2.0, 1.0)):
        fwd = rp.jvp(rp.compile(rp.trace_like(lambda a, b: op(a, b), (x, y))))
        for be in ("ref", "plan"):
            assert fwd(x, y, 1.0, bad, backend=be)[-1] == 1.0
            assert fwd(y, x, bad, 1.0, backend=be)[-1] == 1.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_jvp_min_reduce_ignores_non_finite_tangents_of_losers(bad):
    xs = np.array([3.0, 0.5, 2.0, 4.0])
    dxs = np.array([bad, -1.5, bad, bad])
    fwd = rp.jvp(rp.compile(rp.trace_like(lambda v: rp.min(v), (xs,))))
    for be in ("ref", "plan"):
        y, dy = fwd(xs, dxs, backend=be)
        assert (y, dy) == (0.5, -1.5)


def test_jvp_map_reduce():
    _jvp_check(lambda xs: rp.sum(rp.map(lambda x: x * x * x, xs)), (rng.standard_normal(6),))


def test_jvp_scan_hist_scatter():
    def f(xs, inds):
        s = rp.scan(lambda a, b: a + b, 0.0, xs)
        h = rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, xs)
        sc = rp.scatter(rp.zeros_like(xs), inds, s)
        return rp.sum(s) + 2.0 * rp.sum(h) + rp.sum(sc)

    _jvp_check(f, (rng.standard_normal(5), np.array([0, 1, 2, 3, 1])))


def test_jvp_loop_if():
    def f(xs):
        def step(x):
            y = rp.cond(x > 0.0, lambda: rp.exp(x), lambda: x * x)
            return rp.fori_loop(3, lambda i, a: a * 0.5 + y, y)

        return rp.sum(rp.map(step, xs))

    _jvp_check(f, (rng.standard_normal(6),))


def test_jvp_general_reduce_operator():
    _jvp_check(
        lambda xs: rp.reduce(lambda a, b: a * b + a + b, 0.0, xs),
        (rng.standard_normal(5) * 0.3,),
    )


def test_jvp_while_loop():
    def f(x):
        v, s = rp.while_loop(
            lambda v, s: v < 10.0, lambda v, s: (v * 1.5, s + v), (x, 0.0)
        )
        return s

    _jvp_check(f, (0.7,))


def test_jvp_update_index():
    def f(xs):
        ys = rp.update(xs, 1, xs[0] * 3.0)
        return rp.sum(rp.map(lambda y: y * y, ys))

    _jvp_check(f, (rng.standard_normal(4),))


def test_jvp_result_count_and_types():
    fun = rp.trace_like(lambda x, n: (x * 2.0, n + 1), (1.0, np.int64(3)))
    out = jvp_fun(fun)
    # params: x, n, dx; results: y, m, dy
    assert len(out.params) == 3
    assert len(out.body.result) == 3


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_jvp_linearity_property(seed, n):
    """jvp is linear in the tangent: f'(x)(a·u) = a·f'(x)(u)."""
    r = np.random.default_rng(seed)
    xs = r.standard_normal(n)
    u = r.standard_normal(n)
    f = lambda v: rp.sum(rp.map(lambda x: rp.tanh(x) * x, v))
    fwd = rp.jvp(rp.compile(rp.trace_like(f, (xs,))))
    _, d1 = fwd(xs, u)
    _, d2 = fwd(xs, 2.5 * u)
    np.testing.assert_allclose(2.5 * d1, d2, rtol=1e-12)
