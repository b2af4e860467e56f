"""Work / span / memory cost-model tests."""
import numpy as np

import repro as rp


def _cost(f, args):
    fc = rp.compile(rp.trace_like(f, args))
    return fc, fc.cost(*args)


def test_map_work_linear_span_constant():
    f = lambda xs: rp.map(lambda x: x * x + 1.0, xs)
    _, c1 = _cost(f, (np.ones(64),))
    fc, c2 = _cost(f, (np.ones(1024),))
    assert c2.work >= 16 * c1.work * 0.9
    assert c2.span == c1.span  # map iterations are parallel


def test_reduce_span_logarithmic():
    f = lambda xs: rp.sum(xs)
    _, c1 = _cost(f, (np.ones(2**6),))
    _, c2 = _cost(f, (np.ones(2**12),))
    assert c2.work > 50 * c1.work / 2
    # span grows like log2: 12/6 = 2x (+/- constant)
    assert c2.span <= 2 * c1.span + 4


def test_loop_span_linear():
    f = lambda x: rp.fori_loop(64, lambda i, a: a * x, 1.0)
    _, c1 = _cost(f, (1.0,))
    f2 = lambda x: rp.fori_loop(128, lambda i, a: a * x, 1.0)
    _, c2 = _cost(f2, (1.0,))
    assert 1.8 <= c2.span / c1.span <= 2.2


def test_scatter_adjoint_work_proportional_to_m_not_n():
    """Paper §5.3: the scatter rule's work is O(m), not O(n)."""
    def make(n, m):
        def f(xs, inds, vals):
            ys = rp.scatter(xs, inds, vals)
            return rp.sum(rp.map(lambda v: v * v, ys))

        xs = np.zeros(n)
        inds = np.arange(m)
        vals = np.ones(m)
        g = rp.grad(rp.compile(rp.trace_like(f, (xs, inds, vals))), wrt=[2])
        from repro.exec.cost import CostRecorder
        from repro.exec.interp import RefInterp

        rec = CostRecorder()
        RefInterp(rec).run(g.adfun.fun, [xs, inds, vals, 1.0])
        return rec.snapshot().work

    w_big_n = make(10_000, 16)
    # The sum over ys is O(n) regardless; isolate the scatter part by
    # comparing growth: work grows ~linearly in n only through the summap,
    # so doubling m at fixed n must add only O(m).
    w_mbig = make(10_000, 32)
    assert w_mbig - w_big_n < 1000  # the extra 16 writes cost O(m), not O(n)


def test_memory_counts_arrays_only():
    f = lambda xs: rp.sum(rp.map(lambda x: x * 2.0, xs))
    _, c = _cost(f, (np.ones(100),))
    assert c.mem_reads >= 100
    # scalar ops inside the lambda don't touch "global memory"
    assert c.mem_reads + c.mem_writes < 500


def test_checkpoint_alloc_tracked():
    def f(x):
        return rp.fori_loop(50, lambda i, a: rp.sin(a) * x, x)

    g = rp.grad(rp.compile(rp.trace_like(f, (1.0,))))
    from repro.exec.cost import CostRecorder
    from repro.exec.interp import RefInterp

    rec = CostRecorder()
    RefInterp(rec).run(g.adfun.fun, [1.0, 1.0])
    assert rec.snapshot().peak_alloc >= 50  # the loop checkpoint tape
