"""The SIMT execution model (masks, lane-varying loops, batched seeds) on the
plan-family executors vs the reference interpreter."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro as rp
from helpers import run_both
from repro.exec import get_backend
from repro.util import ExecError

rng = np.random.default_rng(0)


def test_nested_map_if_loop_equivalence():
    def f(m):
        def row(r):
            s = rp.sum(rp.map(lambda x: x * x, r))
            t = rp.cond(s > 10.0, lambda: s * 2.0, lambda: s + 1.0)
            return rp.fori_loop(3, lambda i, a: a * 0.5 + t, t)

        return rp.map(row, m)

    fc = rp.compile(rp.trace_like(f, (np.ones((3, 4)),)))
    run_both(fc, rng.standard_normal((5, 4)))


def test_lane_varying_loop_counts():
    def f(ns, xs):
        def per(n, x):
            return rp.fori_loop(n, lambda i, a: a + x, 0.0)

        return rp.map(per, ns, xs)

    fc = rp.compile(rp.trace_like(f, (np.array([1, 2]), np.ones(2))))
    ns = np.array([0, 3, 7, 2])
    xs = rng.standard_normal(4)
    out = run_both(fc, ns, xs)
    np.testing.assert_allclose(out, ns * xs)


def test_while_loop_divergent_lanes():
    def f(xs):
        def per(x):
            return rp.while_loop(lambda v: v < 10.0, lambda v: v * 2.0, x)

        return rp.map(per, xs)

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    run_both(fc, np.array([0.5, 3.0, 20.0, 9.99]))


def test_masked_branch_side_effect_free():
    # Division by zero in the untaken branch must not corrupt results.
    def f(xs):
        return rp.map(
            lambda x: rp.cond(x > 0.0, lambda: 1.0 / x, lambda: -x), xs
        )

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    out = run_both(fc, np.array([2.0, 0.0, -3.0]))
    np.testing.assert_allclose(out, [0.5, 0.0, 3.0])


def test_indirect_indexing_batched():
    def f(tbl, idx):
        return rp.map(lambda i: tbl[i] * 2.0, idx)

    fc = rp.compile(rp.trace_like(f, (np.ones(4), np.array([0, 1]))))
    run_both(fc, rng.standard_normal(6), np.array([5, 0, 3, 3]))


def test_hist_and_scatter_batched_agree():
    def f(inds, vals):
        h = rp.reduce_by_index(5, lambda a, b: a + b, 0.0, inds, vals)
        s = rp.scatter(rp.zeros_like(vals), inds, vals)
        return h, s

    fc = rp.compile(rp.trace_like(f, (np.array([0, 1]), np.ones(2))))
    run_both(fc, np.array([1, 4, 2, 4, 0, 7]), rng.standard_normal(6))


def test_hist_min_max_mul_backends():
    inds = np.array([0, 1, 0, 2, 1, 0])
    vals = rng.standard_normal(6) + 2.0
    for op, ne in ((rp.maximum, -np.inf), (rp.minimum, np.inf)):
        def f(i, v, op=op, ne=ne):
            return rp.reduce_by_index(3, lambda a, b: op(a, b), ne, i, v)

        fc = rp.compile(rp.trace_like(f, (inds, vals)))
        run_both(fc, inds, vals)
    def fm(i, v):
        return rp.reduce_by_index(3, lambda a, b: a * b, 1.0, i, v)

    fc = rp.compile(rp.trace_like(fm, (inds, vals)))
    run_both(fc, inds, vals)


def test_general_scan_op_batched():
    def f(m):
        return rp.map(lambda row: rp.scan(lambda a, b: a * b + a + b, 0.0, row), m)

    fc = rp.compile(rp.trace_like(f, (np.ones((2, 3)),)))
    run_both(fc, rng.standard_normal((3, 5)) * 0.3)


def test_irregular_iota_rejected_by_plan_and_codegen():
    def f(ns):
        return rp.map(lambda n: rp.sum(rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(n))), ns)

    fc = rp.compile(rp.trace_like(f, (np.array([1, 2]),)))
    for be in ("plan", "codegen"):
        with pytest.raises(ExecError, match="varies across parallel lanes"):
            fc(np.array([1, 2, 3]), backend=be)
    # The reference interpreter handles irregularity fine.
    out = fc(np.array([1, 2, 3]), backend="ref")
    np.testing.assert_allclose(out, [0.0, 1.0, 3.0])


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_run_batched_matches_looped_runs(backend):
    # The batched-seed driver must agree with one run per seed.
    be = get_backend(backend)

    def f(x, s):
        return rp.sum(rp.map(lambda a, b: rp.sin(a) * b, x, s)), rp.map(
            lambda a, b: a + b * b, x, s
        )

    fc = rp.compile(rp.trace_like(f, (np.ones(4), np.ones(4))))
    x = rng.standard_normal(4)
    seeds = rng.standard_normal((6, 4))
    batched = be.run_batched(fc.fun, (x, seeds), (False, True), 6)
    assert all(np.asarray(r).shape[0] == 6 for r in batched)
    for i in range(6):
        row = be.run(fc.fun, (x, seeds[i]))
        for got, want in zip(batched, row):
            np.testing.assert_allclose(
                np.asarray(got)[i], np.asarray(want), rtol=1e-12, atol=1e-12
            )


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_run_batched_rejects_bad_batch_axis(backend):
    def f(x):
        return rp.map(lambda a: a * 2.0, x)

    fc = rp.compile(rp.trace_like(f, (np.ones(4),)))
    with pytest.raises(ExecError, match="does not match batch size 5"):
        get_backend(backend).run_batched(fc.fun, (np.ones((3, 4)),), (True,), 5)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
def test_property_nested_pipeline_equivalence(n, m, seed):
    r = np.random.default_rng(seed)
    mat = r.standard_normal((n, m))

    def f(mm):
        def row(rr):
            s = rp.scan(lambda a, b: a + b, 0.0, rr)
            t = rp.sum(rp.map(lambda x: rp.tanh(x), s))
            return rp.cond(t > 0.0, lambda: t, lambda: t * t)

        return rp.map(row, mm)

    fc = rp.compile(rp.trace_like(f, (mat,)))
    run_both(fc, mat)
