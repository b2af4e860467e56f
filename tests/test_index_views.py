"""Indexing by a map's own iota is a slice, not a gather.

``exec/lower.py`` flags the index operands that are lane-affine (a map
parameter bound to an ``iota``, plus or minus a constant) or uniform;
``exec/vector.py`` turns such an ``index`` into a basic-indexing view and
such an ``upd_acc`` into a strided ``+=``, falling back to the clipped
gather / ``np.add.at`` whenever a per-call fact fails.  This file is the
hostile-input battery for that selection: every program runs on every
backend against ``ref`` (``run_both``: ``plan`` and ``codegen`` bitwise),
as a value and under ``vjp``/``jvp``, and a deterministic call census pins
which path each case takes — including the cached LSTM / GMM / k-means
gradients, whose gathers must never silently come back.
"""
import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.apps import datagen, gmm, kmeans, lstm
from repro.ir import F64, I64, Fun, Lambda, Var, array
from repro.ir.builder import Builder
from repro.ir.types import AccType
from repro.exec.plan import clear_plan_cache, plan_cache_stats
from repro.obs import profiler
from helpers import numpy_call_census, run_both

N, M = 5, 4


def _all_modes(f, args, ex=None):
    """Value, ``vjp`` and ``jvp`` of ``f`` on every backend (``run_both``);
    returns the compiled primal."""
    rng = np.random.default_rng(0)
    fc = rp.compile(rp.trace_like(f, ex or args))
    out = run_both(fc, *args)
    outs = out if isinstance(out, tuple) else (out,)
    floats = [np.asarray(a) for a in args if np.asarray(a).dtype.kind == "f"]
    seeds = [rng.standard_normal(np.shape(o)) for o in outs]
    run_both(rp.vjp(fc), *args, *seeds)
    run_both(rp.jvp(fc), *args, *[rng.standard_normal(a.shape).astype(a.dtype) for a in floats])
    return fc


def _census(f, *args, backend="plan"):
    f(*args, backend=backend)  # compile and cache first: count one cached call
    return numpy_call_census(lambda: f(*args, backend=backend))


def _mat(n=N, m=M):
    return np.arange(1.0, n * m + 1.0).reshape(n, m) / 7.0


# ---------------------------------------------------------------------------
# Which reads are views
# ---------------------------------------------------------------------------


def _rows(a):
    return rp.map(lambda i: rp.map(lambda j: a[i, j] * 2.0, rp.iota(M)), rp.iota(N))


def _transposed(a):
    return rp.map(lambda i: rp.map(lambda j: a[j, i] * 2.0, rp.iota(N)), rp.iota(M))


def _diagonal(a):
    return rp.map(lambda i: a[i, i] * 2.0, rp.iota(M))


def _block_offset(a):
    return rp.map(lambda i: rp.map(lambda j: a[2 + i, j] + a[i + 1, j], rp.iota(M)), rp.iota(3))


def _loop_counter(a):
    return rp.fori_loop(
        N, lambda t, acc: acc + rp.sum(rp.map(lambda j: a[t, j] * a[N - 1 - t, j], rp.iota(M))),
        0.0,
    )


def _partial(a):
    # a[i] is a row: the payload axis stays, the lane becomes a slice.
    return rp.map(lambda i: rp.sum(rp.map(lambda x: x * x, a[i])), rp.iota(N))


@pytest.mark.parametrize(
    "prog, gathers",
    [(_rows, 0), (_transposed, 0), (_block_offset, 0), (_loop_counter, 0),
     (_partial, 0), (_diagonal, 1)],
    ids=lambda p: getattr(p, "__name__", str(p)),
)
def test_lane_affine_reads_are_views(prog, gathers):
    """``a[i, j]``, ``a[j, i]`` (one transpose), ``a[c+i, j]`` and a uniform
    loop counter read without a gather; ``a[i, i]`` names one lane twice —
    a diagonal is not a slice — and stays one."""
    a = _mat()
    fc = _all_modes(prog, (a,))
    for be in ("plan", "codegen"):
        assert _census(fc, a, backend=be)["gather"] == gathers


def test_out_of_range_only_in_masked_lanes():
    """``if i+1 < n then a[i+1]``: the lane-affine index leaves the axis in a
    lane the mask switches off.  The end-of-axis fact fails, the read runs
    as the clipped gather it always was, and the result is ``ref``'s."""
    a = np.arange(1.0, N + 1.0)

    def nxt(a):
        return rp.map(lambda i: rp.cond(i + 1 < N, lambda: a[i + 1] * 3.0, lambda: 0.0), rp.iota(N))

    def prev(a):
        return rp.map(lambda i: rp.cond(i >= 1, lambda: a[i - 1] * 3.0, lambda: 0.0), rp.iota(N))

    for prog in (nxt, prev):
        before = plan_cache_stats()["index"]["view_fallbacks"]
        fc = _all_modes(prog, (a,))
        assert _census(fc, a)["gather"] == 1
        assert plan_cache_stats()["index"]["view_fallbacks"] > before


def test_out_of_range_in_an_active_lane_clips_as_before():
    """No mask: the parent clipped the index (``ref`` raises instead, so this
    one is pinned against NumPy); the view path must not change that."""
    a = np.arange(1.0, N + 1.0)
    fc = rp.compile(rp.trace_like(lambda a: rp.map(lambda i: a[i + 1] * 1.0, rp.iota(N)), (a,)))
    want = a[np.minimum(np.arange(N) + 1, N - 1)]
    got = {be: fc(a, backend=be) for be in ("plan", "codegen")}
    for be, r in got.items():
        np.testing.assert_array_equal(r, want, err_msg=be)


@pytest.mark.parametrize("n", [0, 1])
def test_extent_0_and_1_maps(n):
    def f(a):
        return rp.map(lambda i: a[i] * 2.0, rp.iota(rp.size(a)))

    _all_modes(f, (np.arange(1.0, n + 1.0),), ex=(np.ones(3),))


# ---------------------------------------------------------------------------
# Batched seeds: arrays with and without their own batch axis
# ---------------------------------------------------------------------------


def test_call_batched_with_batched_and_unbatched_arrays():
    """``w`` carries a seed axis, ``a`` does not: the lane-affine index of the
    batched array sits behind its own batch axis (``w[:, s:e]``)."""
    a, ws = np.arange(1.0, N + 1.0), np.arange(3.0 * N).reshape(3, N) / 5.0
    fc = rp.compile(rp.trace_like(
        lambda a, w: rp.map(lambda i: a[i] * w[i] + w[N - 1] , rp.iota(N)), (a, ws[0])))
    want = np.stack([fc(a, w, backend="ref") for w in ws])
    outs = {}
    for be in ("plan", "codegen"):
        (outs[be],) = fc.call_batched((a, ws), (False, True), 3, backend=be)
        np.testing.assert_allclose(outs[be], want, rtol=1e-12, err_msg=be)
    np.testing.assert_array_equal(outs["plan"], outs["codegen"])
    assert numpy_call_census(
        lambda: fc.call_batched((a, ws), (False, True), 3, backend="plan"))["gather"] == 0


# ---------------------------------------------------------------------------
# Input layouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["float32", "non-contiguous", "fortran", "read-only"])
def test_input_layouts(layout):
    a = _mat()
    if layout == "float32":
        a = a.astype(np.float32)
    elif layout == "non-contiguous":
        a = np.repeat(_mat(), 2, axis=1)[:, ::2]
        assert not a.flags.c_contiguous
    elif layout == "fortran":
        a = np.asfortranarray(a)
    else:
        a.setflags(write=False)
    keep = a.copy()
    for prog in (_rows, _transposed, _block_offset):
        fc = rp.compile(rp.trace_like(prog, (a,)))
        out = run_both(fc, a)
        run_both(rp.vjp(fc), a, np.ones(np.shape(out), dtype=a.dtype))
    np.testing.assert_array_equal(a, keep)  # views were read, never written


# ---------------------------------------------------------------------------
# Map results own their memory
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_map_results_do_not_alias_the_indexed_array(backend):
    """``map (\\i -> a[i]) (iota n)`` is a view of ``a`` inside the map; what
    the map returns is the caller's own array (as on ``ref``)."""
    v, a = np.arange(1.0, N + 1.0), _mat()
    one = rp.compile(rp.trace_like(lambda v: rp.map(lambda i: v[i], rp.iota(N)), (v,)))
    two = rp.compile(rp.trace_like(
        lambda a: rp.map(lambda i: rp.map(lambda j: a[i, j], rp.iota(M)), rp.iota(N)), (a,)))
    rows = rp.compile(rp.trace_like(lambda a: rp.map(lambda i: a[i], rp.iota(N)), (a,)))
    for fc, x in ((one, v), (two, a), (rows, a)):
        out = fc(x, backend=backend)
        np.testing.assert_array_equal(out, x)
        assert not np.shares_memory(out, x)
        out[...] = -1.0  # the caller may scribble on its result
        np.testing.assert_array_equal(fc(x, backend=backend), x)


# ---------------------------------------------------------------------------
# upd_acc: strided += or np.add.at
# ---------------------------------------------------------------------------


def _vjp_census(f, args, seed):
    fc = rp.compile(rp.trace_like(f, args))
    v = rp.vjp(fc)
    run_both(v, *args, seed)
    return {be: _census(v, *args, seed, backend=be) for be in ("plan", "codegen")}


def test_upd_acc_at_the_maps_own_indices_is_a_strided_add():
    a = _mat()
    for c in _vjp_census(_rows, (a,), np.ones((N, M))).values():
        assert c["scatter"] == 0 and c["gather"] == 0


def test_upd_acc_sums_over_the_lanes_no_index_varies_along():
    """``upd acc[j] += v`` under maps over ``i`` and ``j``: lane ``i`` is absent
    from the index, every ``i`` hits the same cell — the value is summed
    over that axis first, then added along the slice."""
    b, a = np.arange(1.0, N + 1.0), np.arange(1.0, M + 1.0) / 3.0

    def f(a, b):
        return rp.map(lambda i: rp.map(lambda j: a[j] * b[i], rp.iota(M)), rp.iota(N))

    for c in _vjp_census(f, (a, b), np.ones((N, M))).values():
        assert c["scatter"] == 0


def test_upd_acc_with_a_lane_uniform_value_takes_add_at():
    """``upd acc[j] += s`` with a free scalar ``s`` under maps over ``i`` and
    ``j``: the value is not materialised along lane ``i``, so summing it over
    that axis would count it once, not ``N`` times.  That update stays
    ``np.add.at`` (which broadcasts the value to every lane); AD never emits
    the shape — adjoints arrive through map parameters — so the program is
    built by hand."""
    a, s = Var("a", array(F64)), Var("s", F64)
    acc_t = AccType(F64, 1)
    i, j = Var("i", I64), Var("j", I64)
    acc0, acc1, acc2 = (Var(f"acc{x}", acc_t) for x in range(3))
    inner = Builder()
    upd = inner.upd_acc(acc2, (j,), s)
    mid = Builder()
    is_m = mid.iota(M)
    (acc_m,) = mid.map(Lambda((j, acc2), inner.finish([upd])), [is_m], [acc1])
    top = Builder()
    is_n = top.iota(N)
    (acc_n,) = top.map(Lambda((i, acc1), mid.finish([acc_m])), [is_n], [acc0])
    b = Builder()
    (out,) = b.with_acc([a], Lambda((acc0,), top.finish([acc_n])))
    fc = rp.compile(Fun("lane_uniform_upd", (a, s), b.finish([out])), optimize=False)
    av = np.arange(1.0, M + 1.0)
    np.testing.assert_array_equal(run_both(fc, av, 0.5), av + N * 0.5)
    before = plan_cache_stats()["index"]["view_fallbacks"]
    assert _census(fc, av, 0.5)["scatter"] == 1
    assert plan_cache_stats()["index"]["view_fallbacks"] == before + 2


def test_upd_acc_under_a_mask_takes_add_at():
    """The read sits inside the branch, so its adjoint update does too: under
    an active mask the inactive lanes must contribute zero."""
    a = _mat()

    def f(a):
        return rp.map(
            lambda i: rp.map(
                lambda j: rp.cond((i + j) % 2 == 0, lambda: a[i, j] * a[i, j], lambda: 0.0),
                rp.iota(M)),
            rp.iota(N))

    fc = rp.compile(rp.trace_like(f, (a,)))
    v = rp.vjp(fc)
    run_both(v, a, np.ones((N, M)))
    assert _census(v, a, np.ones((N, M)))["scatter"] == 1


# ---------------------------------------------------------------------------
# The regression this must never silently lose: call counts of the cached
# benchmark gradients at CI size (bench/workloads.py's reduced sizes)
# ---------------------------------------------------------------------------


def _lstm_grad():
    bs, n, d, h = 2, 3, 4, 4
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(bs, n, d, h, 0)
    g = rp.grad(rp.compile(lstm.build_ir(n, bs, d, h)), wrt=[1, 2, 3, 4])
    return g, (xs, wx, wh, b, wy, tg)


def _gmm_grad():
    n, d, k = 16, 4, 3
    inp = datagen.gmm_instance(n, d, k, 0)[:4]
    return rp.grad(rp.compile(gmm.build_ir(n, d, k)), wrt=[0, 1, 2]), inp


def _kmeans_newton():
    k, n, d = 3, 40, 4
    inp = datagen.kmeans_instance(k, n, d, 0)
    fc = rp.compile(kmeans.build_ir(n, k, d))
    g, h = rp.grad(fc, wrt=[1]), rp.hessian_diag(fc, wrt=1)

    def step(*inp, backend):
        return g(*inp, backend=backend), h(*inp, backend=backend)

    return step, inp


@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_cached_gradient_call_counts(backend):
    """Exact, timing-free: the LSTM and GMM gradients gather and scatter
    nothing.  GMM's logsumexp ``argmax`` reads ``vals`` twice, so its adjoint
    stays a one-hot map over the first extremal index.  A k-means Newton
    step differentiates only the nearest centre of each point (its hot
    lane): per derivative one ``np.add.at`` into the centres' accumulator at
    ``[iy, j]``; the gradient gathers ``centres[iy, j]``, the Hessian that
    and the centres' tangent."""
    want = {"_lstm_grad": (0, 0), "_gmm_grad": (0, 0), "_kmeans_newton": (3, 2)}
    for build in (_lstm_grad, _gmm_grad, _kmeans_newton):
        f, inp = build()
        c = _census(f, *inp, backend=backend)
        assert (c["gather"], c["scatter"]) == want[build.__name__], build.__name__


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_index_counters_and_profile_marks(monkeypatch):
    clear_plan_cache()
    a = _mat()
    fc = rp.compile(rp.trace_like(_rows, (a,)))
    dg = rp.compile(rp.trace_like(_diagonal, (a,)))
    fc(a, backend="plan")
    ix = plan_cache_stats()["index"]
    assert ix == {"view_index_ops": 1, "view_updacc_ops": 0, "gather_index_ops": 0,
                  "view_fallbacks": 0}
    v = rp.vjp(fc)
    v(a, np.ones((N, M)), backend="plan")
    assert plan_cache_stats()["index"]["view_updacc_ops"] == 1
    before = plan_cache_stats()["index"]["view_fallbacks"]
    dg(a, backend="plan")  # lowered as a view (both operands lane-affine) …
    dg(a, backend="plan")
    assert plan_cache_stats()["index"]["view_fallbacks"] == before + 2  # … refused per call
    assert obs.snapshot()["plan_cache"]["index"] == plan_cache_stats()["index"]

    profiler.reset_profile()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    clear_plan_cache()
    fc(a, backend="plan")
    rep = profiler.profile_report()
    (entry,) = [e for e in rep["entries"] if e["kind"] == "map"]
    assert entry["index"] == {"view_index_ops": 1, "view_updacc_ops": 0, "gather_index_ops": 0}
    assert "view/gather" in profiler.format_profile_report(rep)
    profiler.reset_profile()
