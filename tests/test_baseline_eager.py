"""Eager tape-AD baseline tests (the PyTorch/Tapenade comparator must itself
be correct for the benchmark ratios to mean anything)."""
import numpy as np

from repro.baselines import eager as eg

rng = np.random.default_rng(8)


def _fd(f, args, k, eps=1e-6):
    a = np.array(args[k], dtype=float)
    out = np.zeros_like(a)
    it = np.nditer(a, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        ap = [np.array(x, dtype=float) for x in args]
        am = [np.array(x, dtype=float) for x in args]
        ap[k][idx] += eps
        am[k][idx] -= eps
        out[idx] = (f(*[eg.T(x) for x in ap]).data - f(*[eg.T(x) for x in am]).data) / (2 * eps)
    return out


def check(f, args, tol=1e-5):
    g = eg.grad(lambda *ts: f(*ts))
    gs = g(*args)
    gs = gs if isinstance(gs, tuple) else (gs,)
    for k in range(len(args)):
        np.testing.assert_allclose(gs[k], _fd(f, args, k), rtol=tol, atol=tol)


def test_elementwise_and_broadcast():
    check(lambda x, y: (x * y + x / (y + 2.0)).sum(), (rng.standard_normal(5), rng.standard_normal(5)))
    # broadcasting with unbroadcast in backward
    check(lambda x, y: (x.reshape(3, 1) * y.reshape(1, 4)).sum(), (rng.standard_normal(3), rng.standard_normal(4)))


def test_matmul():
    check(lambda a, b: (a @ b).sum(), (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))))


def test_unops():
    x = np.abs(rng.standard_normal(4)) + 0.5
    check(lambda v: (eg.log(v) + eg.sqrt(v) + eg.exp(v) + eg.tanh(v)).sum(), (x,))
    check(lambda v: (eg.sigmoid(v) + eg.erf(v) + eg.sin(v) * eg.cos(v)).sum(), (x,))


def test_reductions_max_min():
    x = rng.standard_normal(6)
    check(lambda v: v.max() * 2.0, (x,))
    check(lambda v: v.min() * 2.0, (x,))


def test_indexing_and_scatter_add():
    idx = np.array([0, 2, 1, 0])
    check(lambda v: (v[idx] * v[idx]).sum(), (rng.standard_normal(3),))
    def f(v):
        h = eg.scatter_add(eg.T(np.zeros(3)), idx, v * v)
        return (h * h).sum()
    check(f, (rng.standard_normal(4),))


def test_logsumexp_stable():
    x = rng.standard_normal(5) + 500.0  # would overflow a naive exp
    g = eg.grad(lambda v: eg.logsumexp(v))
    gs = g(x)
    sm = np.exp(x - x.max())
    np.testing.assert_allclose(gs, sm / sm.sum(), rtol=1e-8)


def test_where_stack_concat():
    c = np.array([True, False, True])
    check(lambda a, b: eg.where(c, a, b).sum(), (rng.standard_normal(3), rng.standard_normal(3)))
    check(lambda a, b: (eg.concat([a, b]) ** 2).sum(), (rng.standard_normal(2), rng.standard_normal(3)))


def test_tape_memory_instrumented():
    eg.tape.reset()
    x = eg.T(np.ones(1000), requires_grad=True)
    ((x * 2.0) + 1.0) * x
    assert eg.tape.peak_tape_bytes >= 3 * 8000  # every intermediate retained
