"""Reverse-mode AD: scalar rules, simple arrays, Fig. 1 sanity."""
import math

import numpy as np
import pytest

import repro as rp
from helpers import check_grad, check_jvp_vjp_consistency

rng = np.random.default_rng(3)


def test_fig1_example():
    """The paper's running example: f(x0,x1) = (x1·sin x0, x0·x1)."""
    def P(x0, x1):
        c0 = rp.sin(x0)
        return x1 * c0, x0 * x1

    fun = rp.trace_like(P, (0.5, 0.7))
    rev = rp.vjp(rp.compile(fun))
    y0, y1, x0b, x1b = rev(0.5, 0.7, 1.0, 0.0)
    assert abs(x0b - 0.7 * math.cos(0.5)) < 1e-12
    assert abs(x1b - math.sin(0.5)) < 1e-12
    # seed the second output
    _, _, x0b, x1b = rev(0.5, 0.7, 0.0, 1.0)
    assert abs(x0b - 0.7) < 1e-12 and abs(x1b - 0.5) < 1e-12


def test_grad_scalar_chain():
    check_grad(lambda x0, x1: x1 * rp.sin(x0) + x0 * x1, (np.array(0.5), np.array(0.7)))


def test_grad_unops():
    check_grad(
        lambda x: rp.sin(x) + rp.cos(x) + rp.exp(x) + rp.tanh(x) + rp.sigmoid(x) + rp.erf(x),
        (np.array(0.3),),
    )
    check_grad(lambda x: rp.log(x) * rp.sqrt(x), (np.array(1.7),))
    check_grad(lambda x: abs(x) + (-x), (np.array(-0.4),))


def test_grad_binops():
    check_grad(lambda x, y: x / y + x**y, (np.array(1.3), np.array(2.1)))
    check_grad(lambda x, y: rp.minimum(x, y) * rp.maximum(x, y), (np.array(1.0), np.array(2.0)))
    check_grad(lambda x, y: x % y, (np.array(7.3), np.array(2.1)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_vjp_min_max_route_the_adjoint_to_the_winner(bad):
    # The adjoint of min/max goes to the *selected* operand.  Weighting it by
    # 0/1 masks handed the loser 0·inf = nan (the jvp side: test_ad_jvp.py).
    for op, x, y in ((rp.minimum, 1.0, 2.0), (rp.maximum, 2.0, 1.0)):
        rev = rp.vjp(rp.compile(rp.trace_like(lambda a, b: op(a, b), (x, y))))
        for be in ("ref", "plan"):
            _, xb, yb = rev(x, y, bad, backend=be)
            assert yb == 0.0 and (xb == bad or (np.isnan(bad) and np.isnan(xb)))
            _, yb, xb = rev(y, x, bad, backend=be)
            assert yb == 0.0 and (xb == bad or (np.isnan(bad) and np.isnan(xb)))


def test_grad_select():
    check_grad(lambda x: rp.where(x > 0.0, x * x, -x), (np.array(1.5),))
    check_grad(lambda x: rp.where(x > 0.0, x * x, -x), (np.array(-1.5),))


def test_grad_index_update():
    def f(xs):
        ys = rp.update(xs, 1, xs[0] * 3.0)
        return rp.sum(rp.map(lambda y: y * y, ys))

    check_grad(f, (rng.standard_normal(4),))


def test_grad_cast_int_barrier():
    # Gradients don't flow through int casts.
    def f(x):
        i = rp.astype(rp.floor(x), rp.I64)
        return x * rp.astype(i, rp.F64)

    fc, g = check_grad(f, (np.array(2.7),))


def test_multiple_uses_accumulate():
    # x used thrice: adjoint contributions must sum (Fig. 1c's repeated +=).
    check_grad(lambda x: x * x + rp.sin(x) * x, (np.array(0.8),))


def test_vjp_returns_primal_too():
    f = rp.compile(rp.trace_like(lambda x: x * x, (3.0,)))
    rev = rp.vjp(f)
    y, xb = rev(3.0, 1.0)
    assert y == 9.0 and xb == 6.0


def test_jvp_vjp_dot_consistency_simple():
    check_jvp_vjp_consistency(
        lambda xs: rp.map(lambda x: rp.tanh(x) * x, xs), (rng.standard_normal(5),)
    )


def test_grad_wrt_subsets():
    f = rp.compile(rp.trace_like(lambda x, y: x * y, (2.0, 3.0)))
    g = rp.grad(f, wrt=[0])
    assert g(2.0, 3.0) == 3.0
    g = rp.grad(f, wrt=[1])
    assert g(2.0, 3.0) == 2.0


def test_value_and_grad():
    f = rp.compile(rp.trace_like(lambda x: x * x * x, (2.0,)))
    v, g = rp.value_and_grad(f)(2.0)
    assert v == 8.0 and g == 12.0


def test_jacobian_both_modes():
    f = rp.compile(rp.trace_like(lambda xs: rp.map(lambda x: x * x, xs), (np.ones(3),)))
    x = np.array([1.0, 2.0, 3.0])
    for mode in ("fwd", "rev", None):
        J = rp.jacobian(f, mode=mode)(x)
        np.testing.assert_allclose(J, np.diag(2 * x))
