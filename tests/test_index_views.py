"""Indexing by a map's own iota is a slice, not a gather.

``exec/lower.py`` flags the index operands that are lane-affine (a map
parameter bound to an ``iota``, plus or minus a constant) or uniform;
``exec/vector.py`` turns such an ``index`` into a basic-indexing view and
such an ``upd_acc`` into a strided ``+=``, falling back to the clipped
gather / ``np.add.at`` whenever a per-call fact fails.  This file is the
hostile-input battery for that selection: every program runs on every
backend against ``ref`` (``run_both``),
as a value and under ``vjp``/``jvp``, and a deterministic call census pins
which path each case takes — including the cached LSTM / GMM / k-means
gradients, whose gathers must never silently come back.
"""
import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.apps import datagen, gmm, hand, kmeans, kmeans_sparse, lstm
from repro.ir import F64, I64, Fun, Lambda, Var, array
from repro.ir.builder import Builder
from repro.ir.types import AccType
from repro.exec.lower import lower_fun, nested_bodies
from repro.exec.plan import clear_plan_cache, plan_cache_stats
from repro.obs import profiler
from helpers import PLAN_LEGS, numpy_call_census, run_both

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
    assert _census(fc, a)["gather"] == gathers


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
    np.testing.assert_array_equal(fc(a, backend="plan"), want)


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
    (out,) = fc.call_batched((a, ws), (False, True), 3, backend="plan")
    np.testing.assert_allclose(out, want, rtol=1e-12)
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


@pytest.mark.parametrize("backend", PLAN_LEGS)
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
    return _census(v, *args, seed)


def test_upd_acc_at_the_maps_own_indices_is_a_strided_add():
    a = _mat()
    c = _vjp_census(_rows, (a,), np.ones((N, M)))
    assert c["scatter"] == 0 and c["gather"] == 0


def test_upd_acc_sums_over_the_lanes_no_index_varies_along():
    """``upd acc[j] += v`` under maps over ``i`` and ``j``: lane ``i`` is absent
    from the index, every ``i`` hits the same cell — the value is summed
    over that axis first, then added along the slice."""
    b, a = np.arange(1.0, N + 1.0), np.arange(1.0, M + 1.0) / 3.0

    def f(a, b):
        return rp.map(lambda i: rp.map(lambda j: a[j] * b[i], rp.iota(M)), rp.iota(N))

    assert _vjp_census(f, (a, b), np.ones((N, M)))["scatter"] == 0


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


@pytest.mark.parametrize("backend", PLAN_LEGS)
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
                  "contract_ops": 0, "view_fallbacks": 0}
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
    # the outer map (depth 0) counts the read of its nested map (depth 1)
    (entry,) = [e for e in rep["entries"] if e["kind"] == "map" and e["depth"] == 0]
    assert entry["index"] == {"view_index_ops": 1, "view_updacc_ops": 0, "gather_index_ops": 0,
                              "contract_ops": 0}
    (inner,) = [e for e in rep["entries"] if e["kind"] == "map" and e["depth"] == 1]
    assert inner["index"] == entry["index"]
    assert "view/gather" in profiler.format_profile_report(rep)
    profiler.reset_profile()


# ---------------------------------------------------------------------------
# Contractions: ``+∘*`` nests as one matmul / einsum
# ---------------------------------------------------------------------------


def _contracts_of(f, *args, backend="plan"):
    """``contract_ops`` of the plans ``f``'s first call lowers."""
    clear_plan_cache()
    f(*args, backend=backend)
    return plan_cache_stats()["index"]["contract_ops"]


def test_contract_counts_and_profile_label(monkeypatch):
    """The LSTM gradient's products contract; the HAND Jacobian and dense
    k-means have none (their plans are the uncontracted ones).  A contract
    has no ``strategy``: counters keyed by reduce strategy never see it."""
    g, inp = _lstm_grad()
    assert _contracts_of(g, *inp) > 0
    step, kin = _kmeans_newton()
    assert _contracts_of(step, *kin) == 0
    fwd = rp.jvp(rp.compile(hand.build_ir(3, 8)))
    hin = datagen.hand_instance(3, 8, 0)
    assert _contracts_of(lambda *a, backend: hand.jacobian_fwd_ad(fwd, *a, backend=backend),
                         *hin) == 0

    def walk(body):
        for ins in body.instrs:
            yield ins
            for b in nested_bodies(ins):
                yield from walk(b)

    contracts = [ins for ins in walk(lower_fun(g.adfun.fun).body) if ins.kind == "contract"]
    assert contracts and not any(hasattr(ins, "strategy") for ins in contracts)

    a, b = _mat(), np.arange(1.0, M + 1.0)
    fc = rp.compile(rp.trace_like(lambda a, b: rp.sum(rp.map(lambda j: a[1, j] * b[j],
                                                             rp.iota(M))), (a, b)))
    profiler.reset_profile()
    monkeypatch.setenv("REPRO_PROFILE", "1")
    clear_plan_cache()
    fc(a, b, backend="plan")
    (entry,) = [e for e in profiler.profile_report()["entries"] if e["kind"] == "contract"]
    assert entry["label"].startswith("contract ") and entry["index"]["contract_ops"] == 1
    profiler.reset_profile()


def _oracle_programs():
    """The contracted programs: LSTM at the compile-cold / reduced bench size
    and at sizes where no two of ``bs``, ``d``, ``h`` agree, GMM and sparse
    k-means (``helpers.cold_programs`` sizes)."""
    def lstm_at(bs, n, d, h):
        xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(bs, n, d, h, 1)
        return lambda: lstm.build_ir(n, bs, d, h), (xs, wx, wh, b, wy, tg)

    return {
        "lstm": lstm_at(2, 3, 4, 4),
        "lstm_odd": lstm_at(3, 2, 5, 4),
        "gmm": (lambda: gmm.build_ir(16, 4, 3), datagen.gmm_instance(16, 4, 3, 1)[:4]),
        "kmeans_sparse": (lambda: kmeans_sparse.build_ir(20, 3, 12),
                          datagen.sparse_kmeans_instance(20, 12, 3, 3, 1)),
    }


@pytest.mark.parametrize("backend", PLAN_LEGS)
@pytest.mark.parametrize("name", sorted(_oracle_programs()))
def test_contracted_programs_against_independent_oracles(name, backend):
    """Every contracted program against oracles that share nothing with it:
    the dot-product identity ⟨w, J·v⟩ = ⟨Jᵀ·w, v⟩ between the forward and
    the reverse program at seeded random ``v`` and ``w``, to 1e-9 relative
    — both sides sum the same float64 products, and a contraction only
    reorders sums (BLAS order, not left to right), which moves them by a
    few ulps; central differences along ``v`` (eps 1e-6 on O(1) values: 1e-5
    relative); and the reference interpreter (``run_both``, 1e-10)."""
    build, args = _oracle_programs()[name]
    fc = rp.compile(build())
    rev = rp.vjp(fc)
    floats = [k for k, a in enumerate(args) if np.asarray(a).dtype.kind == "f"]
    rng = np.random.default_rng(7)
    v = [rng.standard_normal(np.shape(args[k])) for k in floats]
    w = rng.standard_normal()
    assert _contracts_of(rev, *args, w, backend=backend) > 0
    run_both(rev, *args, w)
    jv = rp.jvp(fc)(*args, *v, backend=backend)[1]
    xbar = rev(*args, w, backend=backend)[1:]
    lhs, rhs = w * float(jv), sum(float((xb * d).sum()) for xb, d in zip(xbar, v))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (lhs, rhs)

    def at(s):
        moved = list(args)
        for k, d in zip(floats, v):
            moved[k] = args[k] + s * 1e-6 * d
        return float(fc(*moved, backend=backend))

    fd = w * (at(1.0) - at(-1.0)) / 2e-6
    np.testing.assert_allclose(rhs, fd, rtol=1e-5, atol=1e-6)


def _shifted_read(a, c):
    """``a[i + 1, j]`` under ``if i + 1 < N``: the contract's view of ``a``
    starts at 1 and runs past the last row, so every call falls back."""
    return rp.map(
        lambda i: rp.cond(i + 1 < N,
                          lambda: rp.sum(rp.map(lambda j: a[i + 1, j] * c[i, j], rp.iota(M))),
                          lambda: 0.0),
        rp.iota(N))


def _empty_sum(a, c):
    return rp.map(lambda i: rp.sum(rp.map(lambda j: a[i, j] * c[i, j], rp.iota(0))),
                  rp.iota(N))


def _masked_products(a, c):
    """The products sit in a branch, so their adjoint accumulator map runs
    under a mask: inactive lanes must add nothing."""
    return rp.map(
        lambda i: rp.cond(i % 2 == 0,
                          lambda: rp.sum(rp.map(lambda j: a[i, j] * c[i, j], rp.iota(M))),
                          lambda: 0.0),
        rp.iota(N))


@pytest.mark.parametrize("prog,shape", [(_shifted_read, (N, M)), (_empty_sum, (N, 0)),
                                        (_masked_products, (N, M))],
                         ids=["view_fails", "zero_extent", "masked"])
def test_contract_hazards_fall_back_exactly(prog, shape):
    """Each hazard equals ``ref`` as a value and under ``vjp``/``jvp``, its
    contract falling back at run time (counted in ``view_fallbacks``): the
    read's, the empty sum's, and the masked adjoint update's."""
    a = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7.0
    c = np.linspace(0.5, 2.0, int(np.prod(shape))).reshape(shape)
    fc = _all_modes(prog, (a, c))
    cached, args = (rp.vjp(fc), (a, c, np.ones(N))) if prog is _masked_products else (fc, (a, c))
    assert _contracts_of(cached, *args) > 0
    before = plan_cache_stats()["index"]["view_fallbacks"]
    cached(*args, backend="plan")
    assert plan_cache_stats()["index"]["view_fallbacks"] > before


def test_contract_with_a_lane_uniform_factor_counts_it_once_per_lane():
    """``upd acc[j] += w[j] * s`` under maps over ``i`` and ``j``: no factor
    varies along the summed lane ``i``, so one product would count ``w[j]
    * s`` once instead of ``N`` times.  The contract falls back to the map,
    whose update takes ``np.add.at`` (``test_upd_acc_with_a_lane_uniform_
    value_takes_add_at``'s hazard)."""
    a, wv, s = Var("a", array(F64)), Var("w", array(F64)), Var("s", F64)
    acc_t = AccType(F64, 1)
    i, j = Var("i", I64), Var("j", I64)
    acc0, acc1, acc2 = (Var(f"acc{k}", acc_t) for k in range(3))
    inner = Builder()
    upd = inner.upd_acc(acc2, (j,), inner.mul(inner.index(wv, (j,)), s))
    mid = Builder()
    is_m = mid.iota(M)
    (acc_m,) = mid.map(Lambda((j, acc2), inner.finish([upd])), [is_m], [acc1])
    top = Builder()
    is_n = top.iota(N)
    (acc_n,) = top.map(Lambda((i, acc1), mid.finish([acc_m])), [is_n], [acc0])
    b = Builder()
    (out,) = b.with_acc([a], Lambda((acc0,), top.finish([acc_n])))
    fc = rp.compile(Fun("lane_uniform_product", (a, wv, s), b.finish([out])), optimize=False)
    av, w = np.arange(1.0, M + 1.0), np.linspace(0.5, 2.0, M)
    np.testing.assert_allclose(run_both(fc, av, w, 0.5), av + N * w * 0.5, rtol=1e-12)
    assert _contracts_of(fc, av, w, 0.5) == 1
    before = plan_cache_stats()["index"]["view_fallbacks"]
    fc(av, w, 0.5, backend="plan")
    assert plan_cache_stats()["index"]["view_fallbacks"] > before


@pytest.mark.parametrize("sv", [0.5, -0.5], ids=["raised", "materialised"])
def test_contract_spreads_a_raised_lane_uniform_factor(sv):
    """``upd acc[j] += w[j] * c`` under maps over the rows of ``X`` and
    ``j``, ``c = if s > 0 then s else x[0]``: ``c`` is at the rows' depth,
    but when ``s`` wins it is ``s`` raised there, of extent 1.  The summed
    row level is checked per call (a ``spread`` level of
    ``contract_layout``): the factor is broadcast to the row count, so the
    product counts once per row, and the contract never falls back.  When
    ``x[0]`` wins, ``c`` has a row each and nothing is broadcast."""
    a, X, wv, s = Var("a", array(F64)), Var("X", array(F64, 2)), Var("w", array(F64)), Var("s", F64)
    acc_t = AccType(F64, 1)
    x, j = Var("x", array(F64)), Var("j", I64)
    acc0, acc1, acc2 = (Var(f"acc{k}", acc_t) for k in range(3))
    mid, then, els = Builder(), Builder(), Builder()
    (c,) = mid.if_(mid.binop("gt", s, 0.0), then.finish([s]), els.finish([els.index(x, (0,))]))
    inner = Builder()
    upd = inner.upd_acc(acc2, (j,), inner.mul(inner.index(wv, (j,)), c))
    (acc_m,) = mid.map(Lambda((j, acc2), inner.finish([upd])), [mid.iota(M)], [acc1])
    top = Builder()
    (acc_n,) = top.map(Lambda((x, acc1), mid.finish([acc_m])), [X], [acc0])
    b = Builder()
    (out,) = b.with_acc([a], Lambda((acc0,), top.finish([acc_n])))
    fc = rp.compile(Fun("raised_factor", (a, X, wv, s), b.finish([out])), optimize=False)
    av, w = np.arange(1.0, M + 1.0), np.linspace(0.5, 2.0, M)
    xv = np.linspace(-1.0, 1.0, N * M).reshape(N, M)
    total = N * sv if sv > 0 else xv[:, 0].sum()
    np.testing.assert_allclose(run_both(fc, av, xv, w, sv), av + w * total, rtol=1e-12)
    assert _contracts_of(fc, av, xv, w, sv) == 1
    before = plan_cache_stats()["index"]["view_fallbacks"]
    fc(av, xv, w, sv, backend="plan")
    assert plan_cache_stats()["index"]["view_fallbacks"] == before


@pytest.mark.parametrize("backend", PLAN_LEGS)
def test_contract_under_batched_seeds_matches_ref_per_seed(backend):
    """A seed batch adds a level under every contraction, and a batched
    array an own batch axis to its reads: each seed still equals ``ref``."""
    def matvec(w, x):
        return rp.map(lambda i: rp.sum(rp.map(lambda j: w[i, j] * x[j], rp.iota(M))),
                      rp.iota(N))

    rng = np.random.default_rng(3)
    w, x = rng.standard_normal((N, M)), rng.standard_normal(M)
    ws, seeds = rng.standard_normal((3, N, M)), rng.standard_normal((3, N))
    v = rp.vjp(rp.compile(rp.trace_like(matvec, (w, x))))
    assert _contracts_of(v, w, x, seeds[0], backend=backend) > 0
    for flags, arrs in (((False, False, True), (w, x, seeds)),
                        ((True, False, True), (ws, x, seeds))):
        out = v.call_batched(arrs, flags, 3, backend=backend)
        for s in range(3):
            one = v(*[a[s] if f else a for a, f in zip(arrs, flags)], backend="ref")
            for got, want in zip(out, one):
                np.testing.assert_allclose(np.asarray(got)[s], want, rtol=1e-12, atol=1e-12)


def _replicate_map(with_acc_body):
    """``with_acc [a] (\\acc0 -> ...)`` over ``with_acc_body(top, acc0)``,
    compiled unoptimised (the program keeps its exact shape): a function of
    ``a``, ``w`` and the scalar ``s``."""
    a, wv, s = Var("a", array(F64)), Var("w", array(F64)), Var("s", F64)
    acc0 = Var("acc0", AccType(F64, 1))
    top = Builder()
    b = Builder()
    (out,) = b.with_acc([a], Lambda((acc0,), top.finish([with_acc_body(top, wv, s, acc0)])))
    return rp.compile(Fun("replicate_map", (a, wv, s), b.finish([out])), optimize=False)


def _replicates_kept(fc) -> int:
    """The ``replicate`` instructions left in ``fc``'s lowered plan."""
    def walk(body):
        return sum((ins.kind == "replicate") + sum(walk(b) for b in nested_bodies(ins))
                   for ins in body.instrs)
    return walk(lower_fun(fc.fun).body)


@pytest.mark.parametrize("verify", ["off", "full"])
def test_contract_reads_a_replicate_it_maps_twice(monkeypatch, verify):
    """``map (\\j c1 c2 -> upd acc[j] += w[j] * c1 * c2) (iota m) r r``: one
    replicate is two arguments of one contract, which drops it once."""
    monkeypatch.setenv("REPRO_VERIFY", verify)

    def body(top, wv, s, acc0):
        j, c1, c2 = Var("j", I64), Var("c1", F64), Var("c2", F64)
        acc1 = Var("acc1", AccType(F64, 1))
        inner = Builder()
        upd = inner.upd_acc(acc1, (j,), inner.mul(inner.mul(inner.index(wv, (j,)), c1), c2))
        r = top.replicate(M, s)
        (acc_m,) = top.map(Lambda((j, c1, c2, acc1), inner.finish([upd])),
                           [top.iota(M), r, r], [acc0])
        return acc_m

    fc = _replicate_map(body)
    av, w = np.arange(1.0, M + 1.0), np.linspace(0.5, 2.0, M)
    np.testing.assert_allclose(run_both(fc, av, w, 0.5), av + w * 0.25, rtol=1e-12)
    assert _contracts_of(fc, av, w, 0.5) == 1
    assert _replicates_kept(fc) == 0


@pytest.mark.parametrize("verify", ["off", "full"])
def test_contract_replicate_whose_value_dies_before_the_map(monkeypatch, verify):
    """``s2 = s * 1; r = replicate m s2; t = s2 + 1; map .. r``: ``s2``'s
    last reader sits between the replicate and the contract, so ``s2`` is
    released before the contract runs: the contract keeps the replicate
    rather than take ``s2``.  ``t`` is added in so it stays live."""
    monkeypatch.setenv("REPRO_VERIFY", verify)

    def body(top, wv, s, acc0):
        j, c = Var("j", I64), Var("c", F64)
        acc1 = Var("acc1", AccType(F64, 1))
        s2 = top.mul(s, 1.0)
        r = top.replicate(M, s2)
        t = top.add(s2, 1.0)
        inner = Builder()
        upd = inner.upd_acc(acc1, (j,), inner.mul(inner.index(wv, (j,)), c))
        (acc_m,) = top.map(Lambda((j, c, acc1), inner.finish([upd])), [top.iota(M), r], [acc0])
        j2, acc2 = Var("j2", I64), Var("acc2", AccType(F64, 1))
        inner2 = Builder()
        upd2 = inner2.upd_acc(acc2, (j2,), t)
        (acc_t,) = top.map(Lambda((j2, acc2), inner2.finish([upd2])), [top.iota(M)], [acc_m])
        return acc_t

    fc = _replicate_map(body)
    av, w = np.arange(1.0, M + 1.0), np.linspace(0.5, 2.0, M)
    np.testing.assert_allclose(run_both(fc, av, w, 0.5), av + w * 0.5 + 1.5, rtol=1e-12)
    assert _contracts_of(fc, av, w, 0.5) == 1
    assert _replicates_kept(fc) == 1
