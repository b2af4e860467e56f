"""Hypothesis property tests on core invariants."""
import numpy as np
from hypothesis import given, settings, strategies as st

import repro as rp
from helpers import check_jvp_vjp_consistency, run_both

_finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(st.lists(_finite, min_size=1, max_size=10), st.integers(0, 10**6))
def test_grad_sum_is_ones(vals, seed):
    xs = np.array(vals)
    f = rp.compile(rp.trace_like(lambda v: rp.sum(v), (xs,)))
    np.testing.assert_allclose(rp.grad(f)(xs), np.ones_like(xs))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_jvp_vjp_consistency_random_pipeline(n, seed):
    r = np.random.default_rng(seed)
    xs = r.standard_normal(n) * 0.7
    check_jvp_vjp_consistency(
        lambda v: rp.sum(rp.map(lambda x: rp.sin(x) * x + rp.exp(-x * x), v)),
        (xs,),
        seed=seed,
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 10**6))
def test_matmul_adjoint_property(n, m, seed):
    """⟨S, A·B⟩ gradients: dA = S·Bᵀ, dB = Aᵀ·S — for random shapes."""
    r = np.random.default_rng(seed)
    A = r.standard_normal((n, 3))
    B = r.standard_normal((3, m))
    S = r.standard_normal((n, m))
    f = rp.compile(rp.trace_like(lambda a, b: rp.matmul(a, b), (A, B)))
    _, dA, dB = rp.vjp(f)(A, B, S)
    np.testing.assert_allclose(dA, S @ B.T, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(dB, A.T @ S, rtol=1e-9, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9), st.integers(2, 5), st.integers(0, 10**6))
def test_hist_grad_equals_gather(n, m, seed):
    """∂/∂v Σ h(v)² = 2·h[inds] for in-range indices."""
    r = np.random.default_rng(seed)
    vals = r.standard_normal(n)
    inds = r.integers(0, m, n)

    def f(i, v):
        h = rp.reduce_by_index(m, lambda a, b: a + b, 0.0, i, v)
        return rp.sum(rp.map(lambda x: x * x, h))

    fc = rp.compile(rp.trace_like(f, (inds, vals)))
    g = rp.grad(fc, wrt=[1])(inds, vals)
    h = np.zeros(m)
    np.add.at(h, inds, vals)
    np.testing.assert_allclose(g, 2 * h[inds], rtol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6))
def test_scan_add_grad_property(n, seed):
    """∂/∂x_j Σ_i scan(x)_i = n - j (each x_j appears in n-j prefixes)."""
    r = np.random.default_rng(seed)
    xs = r.standard_normal(n)
    f = rp.compile(rp.trace_like(lambda v: rp.sum(rp.scan(lambda a, b: a + b, 0.0, v)), (xs,)))
    g = rp.grad(f)(xs)
    np.testing.assert_allclose(g, np.arange(n, 0, -1).astype(float))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(0, 10**6),
)
def test_backend_equivalence_random_programs(n, k, seed):
    r = np.random.default_rng(seed)
    mat = r.standard_normal((n, k))

    def f(m):
        def row(rr):
            t = rp.sum(rp.map(lambda x: rp.tanh(x) * x, rr))
            u = rp.fori_loop(3, lambda i, a: a * 0.7 + t, t)
            return rp.cond(u > 0.0, lambda: u, lambda: u * u)

        return rp.map(row, m)

    fc = rp.compile(rp.trace_like(f, (mat,)))
    run_both(fc, mat)


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_optimization_pipeline_preserves_gradients(n, seed):
    """grad with and without the optimisation pipeline must agree."""
    r = np.random.default_rng(seed)
    xs = r.standard_normal(n) * 0.5

    def f(v):
        s = rp.scan(lambda a, b: a + b, 0.0, v)
        return rp.sum(rp.map(lambda x: rp.exp(-x * x), s))

    fun = rp.trace_like(f, (xs,))
    g_opt = rp.grad(rp.compile(fun, optimize=True))(xs)
    g_raw = rp.grad(rp.compile(fun, optimize=False), optimize=False)(xs)
    np.testing.assert_allclose(g_opt, g_raw, rtol=1e-10)
