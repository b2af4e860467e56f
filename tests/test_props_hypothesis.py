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


# ---------------------------------------------------------------------------
# Indexed kernels: the scatter-add of ``_upd_acc`` and the histogram of
# ``_hist_accumulate`` address their buffer through one linear index
# (``exec/vector.py:_linear``).  Both must be bitwise what ``ufunc.at``
# through open grids and a tuple of clipped index arrays gave — the same
# additions in the same order — on duplicate-heavy inputs whose sums depend
# on that order.  Each property is a checker so the mutants below can show it
# bites.
# ---------------------------------------------------------------------------

from types import SimpleNamespace  # noqa: E402

import pytest  # noqa: E402

from repro.exec import vector as V  # noqa: E402
from repro.exec.vector import AccBV, BV  # noqa: E402


def _grid_index(bshape, k, extra, idx, m):
    """The tuple index the kernels used before the linear one: open grids
    over the first ``k`` batch axes (``extra`` trailing singleton axes),
    then the clipped index array."""
    grids = tuple(np.arange(s).reshape((1,) * a + (s,) + (1,) * (len(bshape) - 1 - a + extra))
                  for a, s in enumerate(bshape[:k]))
    return grids + (np.clip(idx, 0, max(m - 1, 0)),)


def _summands(rng, shape, dt):
    """Values over six decades: their float sum depends on its order."""
    return (rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)).astype(dt)


def _eng(rng, bshape, masked):
    mask = BV(rng.random(bshape) < 0.7, len(bshape)) if masked else None
    return SimpleNamespace(bstack=list(bshape), mask=mask)


def _scatter_add_matches(dt, bshape, ka, m, row, varies, masked, seed) -> bool:
    """``upd acc[i] += v`` on the scatter path, ``acc`` with ``ka`` batch
    axes; the index varies along the lane axes flagged in ``varies``."""
    rng = np.random.default_rng(seed)
    k = len(bshape)
    eng = _eng(rng, bshape, masked)
    start = _summands(rng, bshape[:ka] + (m,) + row, dt)
    idx = rng.integers(-1, m + 1, tuple(s if v else 1 for s, v in zip(bshape, varies)))
    v = _summands(rng, bshape + row, dt)
    acc = AccBV(start.copy(), ka)
    V._upd_acc(eng, acc, [BV(idx, k)], BV(v, k), None, (k, None))
    if masked:
        v = np.where(eng.mask.data.reshape(bshape + (1,) * len(row)), v, dt(0))
    want = start.copy()
    np.add.at(want, _grid_index(bshape, ka, 0, np.broadcast_to(idx, bshape), m), v)
    return acc.data.tobytes() == want.tobytes()


def _hist_matches(dt, op, bshape, m, n, row, masked, seed) -> bool:
    """A ``hist:ufunc`` of ``n`` row values per lane into ``m`` bins."""
    rng = np.random.default_rng(seed)
    d = len(bshape)
    eng = _eng(rng, bshape, masked)
    inds = rng.integers(-1, m + 1, bshape + (n,))
    vals = _summands(rng, bshape + (n,) + row, dt)
    ne = V._neutral_of(op, np.dtype(dt))
    args, _n, hs = V._hist_enter(eng, m, [BV(inds, d), BV(vals, d)])
    got = V._hist_accumulate(eng, op, BV(np.full(row, ne, dt), 0), hs, args[1])
    valid = hs[2].reshape(hs[2].shape + (1,) * len(row))
    want = np.full(bshape + (m,) + row, ne, dt)
    V._UFUNC[op].at(want, _grid_index(bshape, d, 1, inds, m), np.where(valid, vals, ne))
    return got.data.tobytes() == want.tobytes()


_dtypes = st.sampled_from([np.float32, np.float64])
_bshapes = st.lists(st.integers(1, 4), max_size=2).map(tuple)
_rows = st.sampled_from([(), (2,)])


@settings(max_examples=60, deadline=None)
@given(_dtypes, _bshapes, st.data(), st.integers(1, 3), _rows, st.booleans(),
       st.integers(0, 10**6))
def test_scatter_add_is_bitwise_the_tuple_index_add_at(dt, bshape, data, m, row, masked, seed):
    ka = data.draw(st.integers(0, len(bshape)))
    varies = data.draw(st.lists(st.booleans(), min_size=len(bshape), max_size=len(bshape)))
    assert _scatter_add_matches(dt, bshape, ka, m, row, varies, masked, seed)


@settings(max_examples=60, deadline=None)
@given(_dtypes, st.sampled_from(["add", "max"]), _bshapes, st.integers(1, 3),
       st.integers(0, 24), _rows, st.booleans(), st.integers(0, 10**6))
def test_histogram_is_bitwise_the_tuple_index_ufunc_at(dt, op, bshape, m, n, row, masked, seed):
    assert _hist_matches(dt, op, bshape, m, n, row, masked, seed)


# -- mutants the two properties must catch --------------------------------------

_linear = V._linear


def _skips_a_uniform_lane(shape, k, idxs, elems=False):
    """Mutant: a batch axis the index does not vary along (extent 1 in the
    index) is skipped, stride and all, as if the array were shared along it
    too — every lane then adds into batch row 0."""
    flat = tuple(1 if a < k and all(np.shape(i)[a] == 1 for i in idxs) else s
                 for a, s in enumerate(shape))
    return _linear(flat, k, idxs, elems)


class _ReversedAt:
    """A ufunc whose ``at`` visits its (1-D) index last to first."""

    def __init__(self, uf):
        self.uf = uf

    def at(self, buf, lin, vals):
        self.uf.at(buf, lin[::-1], vals[::-1])

    def __getattr__(self, name):
        return getattr(self.uf, name)


class _NumpyWithReversedAdd:
    add = _ReversedAt(np.add)

    def __getattr__(self, name):
        return getattr(np, name)


# Duplicate-heavy: 48 float32 lanes onto 2 bins.
_DUPS = dict(dt=np.float32, bshape=(3, 16), m=2, row=(), masked=False, seed=3)


def test_a_mutant_that_skips_a_lane_uniform_batch_axis_is_caught(monkeypatch):
    case = dict(_DUPS, ka=1, varies=(False, True))
    assert _scatter_add_matches(**case)
    monkeypatch.setattr(V, "_linear", _skips_a_uniform_lane)
    assert not _scatter_add_matches(**case)


def test_a_mutant_that_reverses_the_visiting_order_is_caught(monkeypatch):
    scatter = dict(_DUPS, ka=0, varies=(True, True))
    hist = dict(dt=np.float32, op="add", bshape=(2,), m=2, n=40, row=(2,), masked=True, seed=4)
    assert _scatter_add_matches(**scatter) and _hist_matches(**hist)
    monkeypatch.setattr(V, "np", _NumpyWithReversedAdd())
    monkeypatch.setattr(V, "_UFUNC", {**V._UFUNC, "add": _ReversedAt(np.add)})
    assert not _scatter_add_matches(**scatter)
    assert not _hist_matches(**hist)


# ---------------------------------------------------------------------------
# Static layout: a fused run lines its operands up with selectors fixed when
# the plan is emitted (``exec/lower.py``: ``selector``, ``lift``).  They must
# be bitwise what the per-call rule they replace gave: raise every operand to
# the deepest batch depth ``k`` by singleton batch axes after its own, then to
# the widest payload rank ``pmax`` by singleton axes after the batch axes.
# ---------------------------------------------------------------------------

from repro.exec.lower import lift, selector  # noqa: E402


def _reshape_oracle(d, b, k, pmax):
    """The old per-call alignment, written out."""
    d = d.reshape(d.shape[:b] + (1,) * (k - b) + d.shape[b:])
    p = d.ndim - k
    return d.reshape(d.shape[:k] + (1,) * (pmax - p) + d.shape[k:])


_ELEMENTWISE = {1: np.negative, 2: np.subtract, 3: lambda c, t, f: np.where(c > 0, t, f)}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), nops=st.integers(1, 3), depth=st.integers(0, 3), rank=st.integers(0, 2),
       seed=st.integers(0, 2**16))
def test_static_selectors_are_bitwise_the_reshape_oracle(data, nops, depth, rank, seed):
    """Operands ``(bdims, shape)`` of one batch nest and payload, any of
    their axes of extent 1 (a lane-uniform batch axis, a broadcast payload
    axis), any of them without batch axes or payload."""
    rng = np.random.default_rng(seed)
    extents = st.lists(st.integers(1, 3), min_size=depth + rank, max_size=depth + rank)
    full = data.draw(extents)
    ops = []
    for _ in range(nops):
        b = data.draw(st.integers(0, depth))
        p = data.draw(st.sampled_from([0, rank]))
        keep = data.draw(st.lists(st.booleans(), min_size=b + p, max_size=b + p))
        axes = full[:b] + full[depth:depth + p]
        shape = tuple(e if k else 1 for e, k in zip(axes, keep))
        ops.append((rng.standard_normal(shape), b, p))
    k, pmax = max(b for _, b, _ in ops), max(p for _, _, p in ops)
    lined = [d if s is None else d[s]
             for d, b, p in ops for s in [selector(b, p, k, pmax)]]
    oracle = [_reshape_oracle(d, b, k, pmax) for d, b, _ in ops]
    got, want = _ELEMENTWISE[nops](*lined), _ELEMENTWISE[nops](*oracle)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for d, b, _ in ops:  # a gather's operands: batch axes lined up, not payloads
        s = lift(b, k)
        raised = d if s is None else d[s]
        assert raised.shape == V._expand(BV(d, b), k).shape
        assert not raised.size or np.shares_memory(raised, d)  # a view, never a copy
