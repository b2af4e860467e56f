"""Regression tests for ``core/api.py`` calling-convention fixes:
``value_and_grad`` tuple normalisation, ``hessian_diag`` tangent
ordering and the ``wrt`` checks."""
import re

import numpy as np
import pytest

import repro as rp
from repro.util import ADError

rng = np.random.default_rng(3)


# ---------------------------------------------------------------------------
# value_and_grad
# ---------------------------------------------------------------------------


def test_value_and_grad_single_adjoint():
    # One float parameter -> a single adjoint; value_and_grad must apply the
    # same tuple normalisation as grad on every backend.
    def f(xs):
        return rp.sum(rp.map(lambda x: x * x * 0.5, xs))

    fc = rp.compile(rp.trace_like(f, (np.ones(5),)))
    vg = rp.value_and_grad(fc)
    g = rp.grad(fc)
    xs = rng.standard_normal(5)
    for backend in ("ref", "plan"):
        val, adj = vg(xs, backend=backend)
        np.testing.assert_allclose(val, 0.5 * (xs * xs).sum(), rtol=1e-12)
        np.testing.assert_allclose(np.asarray(adj), xs, rtol=1e-12)
        np.testing.assert_allclose(
            np.asarray(adj), np.asarray(g(xs, backend=backend)), rtol=1e-12
        )


def test_value_and_grad_multi_adjoint_matches_grad():
    def f(xs, ys):
        return rp.sum(rp.map(lambda x, y: x * y, xs, ys))

    fc = rp.compile(rp.trace_like(f, (np.ones(4), np.ones(4))))
    vg = rp.value_and_grad(fc)
    xs, ys = rng.standard_normal(4), rng.standard_normal(4)
    val, (gx, gy) = vg(xs, ys)
    np.testing.assert_allclose(val, xs @ ys, rtol=1e-12)
    np.testing.assert_allclose(np.asarray(gx), ys, rtol=1e-12)
    np.testing.assert_allclose(np.asarray(gy), xs, rtol=1e-12)


# ---------------------------------------------------------------------------
# hessian_diag
# ---------------------------------------------------------------------------


def _quad(w, x, b):
    # f(w, x, b) = sum(w * x^2 + b * x); d2f/dx2 = 2w (diagonal Hessian).
    return rp.sum(rp.map(lambda wi, xi, bi: wi * xi * xi + bi * xi, w, x, b))


def test_hessian_diag_wrt_middle_float_param():
    # Float parameters both before and after wrt: the tangent ordering must
    # be derived from the transformed parameter list, not assumed.
    fc = rp.compile(rp.trace_like(_quad, (np.ones(4), np.ones(4), np.ones(4))))
    h = rp.hessian_diag(fc, wrt=1)
    w, x, b = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
    for backend in ("ref", "plan"):
        np.testing.assert_allclose(
            h(w, x, b, backend=backend), 2.0 * w, rtol=1e-10, atol=1e-10
        )


def test_hessian_diag_wrt_first_with_trailing_float_params():
    def f(x, w):
        return rp.sum(rp.map(lambda xi, wi: wi * xi * xi, x, w))

    fc = rp.compile(rp.trace_like(f, (np.ones(3), np.ones(3))))
    h = rp.hessian_diag(fc, wrt=0)
    x, w = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(h(x, w), 2.0 * w, rtol=1e-10, atol=1e-10)


def test_hessian_diag_with_int_param_mixed_in():
    # Non-float parameters get no tangent slot; ordering must still line up.
    def f(idx, x):
        return rp.sum(rp.map(lambda i: x[i] * x[i], idx))

    fc = rp.compile(rp.trace_like(f, (np.array([0, 1, 2]), np.ones(4))))
    h = rp.hessian_diag(fc, wrt=1)
    idx = np.array([0, 2, 2])
    x = rng.standard_normal(4)
    expect = np.zeros(4)
    for i in idx:
        expect[i] += 2.0
    np.testing.assert_allclose(h(idx, x), expect, rtol=1e-10, atol=1e-10)


def test_hessian_diag_rejects_out_of_range_wrt():
    fc = rp.compile(rp.trace_like(_quad, (np.ones(4), np.ones(4), np.ones(4))))
    with pytest.raises(ADError, match="out of range"):
        rp.hessian_diag(fc, wrt=-1)  # would silently return zeros otherwise
    with pytest.raises(ADError, match="out of range"):
        rp.hessian_diag(fc, wrt=3)


@pytest.mark.parametrize("entry", [rp.vjp, rp.grad, rp.value_and_grad])
@pytest.mark.parametrize("wrt, match", [
    (0, "wrt=0 is not a sequence"),
    ("0", "wrt='0' is not a sequence"),
    ([0.5], "index 0.5 is not an int"),
    ([True], "index True is not an int"),
    ([3], "index 3 out of range for 3 parameters"),
    ([-1], "index -1 out of range for 3 parameters"),
    ([0, 2], "index 2 is not a float parameter"),
])
def test_bad_wrt_is_rejected(entry, wrt, match):
    # Each used to return no adjoint (or raise a bare TypeError).
    fc = rp.compile(rp.trace_like(
        lambda w, x, n: _quad(w, x, x) * rp.astype(n, rp.F64),
        (np.ones(4), np.ones(4), np.int64(2))))
    with pytest.raises(ADError, match=re.escape(match)):
        entry(fc, wrt=wrt)


def test_good_wrt_forms_agree():
    fc = rp.compile(rp.trace_like(_quad, (np.ones(4), np.ones(4), np.ones(4))))
    args = [rng.standard_normal(4) for _ in range(3)]
    want = rp.grad(fc, wrt=[1])(*args)
    for wrt in ((1,), range(1, 2), [np.int64(1)]):
        np.testing.assert_array_equal(rp.grad(fc, wrt=wrt)(*args), want)


def test_hessian_diag_wrong_arity_fails_loudly():
    fc = rp.compile(rp.trace_like(_quad, (np.ones(4), np.ones(4), np.ones(4))))
    h = rp.hessian_diag(fc, wrt=1)
    with pytest.raises(ADError, match="expected 3 arguments"):
        h(np.ones(4), np.ones(4))
    with pytest.raises(ADError, match="expected 3 arguments"):
        h(np.ones(4), np.ones(4), np.ones(4), np.ones(4))


def test_hessian_diag_against_dense_jacobian_of_grad():
    # Cross-check H·1 against finite differences of the gradient.
    fc = rp.compile(rp.trace_like(_quad, (np.ones(4), np.ones(4), np.ones(4))))
    h = rp.hessian_diag(fc, wrt=1)
    g = rp.grad(fc, wrt=[1])
    w, x, b = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
    eps = 1e-6
    fd = np.zeros(4)
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd[i] = (np.asarray(g(w, xp, b))[i] - np.asarray(g(w, xm, b))[i]) / (2 * eps)
    np.testing.assert_allclose(h(w, x, b), fd, rtol=1e-5, atol=1e-5)
