"""The plan executor's memory plan (`exec/lower.py`: releases and donations),
attacked through the public API on both emissions of a plan: plain and
timed (``REPRO_PROFILE``).

A released slot that is read again raises ``unbound variable``; a donation that hits
memory someone else can see changes a result or raises on a read-only
array.  So the tests below only have to *run* hostile inputs and compare
results.
"""
import gc
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import repro as rp
from repro.apps import ba, datagen, gmm, hand, kmeans, kmeans_sparse, lstm, rsbench, xsbench
from repro.exec import plan_cache_stats, vector
from helpers import PLAN_LEGS, peak_mb
from test_fuzz_programs import _gen_program

#: ``plan``, and ``plan`` with every closure timed (``helpers.PROFILED``).
EMITTERS = PLAN_LEGS


NEVER = 1 << 62
SHIPPED = vector._DONATE_MIN_BYTES


@pytest.fixture(params=[0, None], ids=["donate-all", "donate-large"])
def donation_floor(request, monkeypatch):
    """Run once with every donation attempted (CI-sized temporaries sit far
    below the production size floor) and once as shipped.
    Yields a setter for the floor and the initial value."""
    def set_floor(nbytes):
        monkeypatch.setattr(vector, "_DONATE_MIN_BYTES", nbytes)

    if request.param is not None:
        set_floor(request.param)
    return set_floor, request.param


def _flat(res):
    if isinstance(res, (tuple, list)):
        return [a for r in res for a in _flat(r)]
    return [np.asarray(res)]


def _assert_bitwise(got, want, what):
    got, want = _flat(got), _flat(want)
    assert len(got) == len(want), what
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, what
        assert g.tobytes() == w.tobytes(), what


# ---------------------------------------------------------------------------
# Every app, CI size: (inputs, IR, derivative call as a user writes it)
# ---------------------------------------------------------------------------


def _lstm_case():
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 3, 4, 4, 1)
    return (xs, wx, wh, b, wy, tg), lstm.build_ir(3, 2, 4, 4), (
        lambda fc, inp, be: rp.grad(fc, wrt=[1, 2, 3, 4])(*inp, backend=be))


def _ba_case():
    cams, pts, ws, obs_cam, obs_pt, feats = datagen.ba_instance(4, 8, 16, 1)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, obs_cam, obs_pt)
    return (gc, gp, gw, feats), ba.build_ir(16), (
        lambda fc, inp, be: ba.jacobian_ad(rp.vjp(fc, wrt=[0, 1, 2]), *inp, backend=be))


def _kmeans_case():
    return datagen.kmeans_instance(3, 40, 4, 1), kmeans.build_ir(40, 3, 4), (
        lambda fc, inp, be: (rp.grad(fc, wrt=[1])(*inp, backend=be),
                             rp.hessian_diag(fc, wrt=1)(*inp, backend=be)))


def _xs_case():
    inp = datagen.xs_instance(30, 6, 16, 1)
    return inp, xsbench.build_ir(30, 6, 16, inp[3].shape[1]), (
        lambda fc, inp, be: rp.grad(fc, wrt=[1, 4])(*inp, backend=be))


_APPS = {
    "gmm": lambda: (
        datagen.gmm_instance(16, 4, 3, 1)[:4], gmm.build_ir(16, 4, 3),
        lambda fc, inp, be: rp.grad(fc, wrt=[0, 1, 2])(*inp, backend=be)),
    "kmeans": _kmeans_case,
    "kmeans_sparse": lambda: (
        datagen.sparse_kmeans_instance(20, 12, 3, 3, 1), kmeans_sparse.build_ir(20, 3, 12),
        lambda fc, inp, be: rp.grad(fc, wrt=[3])(*inp, backend=be)),
    "lstm": _lstm_case,
    "hand": lambda: (
        datagen.hand_instance(3, 8, 1), hand.build_ir(3, 8),
        lambda fc, inp, be: hand.jacobian_fwd_ad(rp.jvp(fc), *inp, backend=be)),
    "ba": _ba_case,
    "xsbench": _xs_case,
    "rsbench": lambda: (
        datagen.rs_instance(40, 12, 4, 1), rsbench.build_ir(40, 4, 12),
        lambda fc, inp, be: rp.grad(fc, wrt=[2, 3])(*inp, backend=be)),
}


def _app(name):
    inp, ir, call = _APPS[name]()
    return tuple(np.asarray(a) for a in inp), rp.compile(ir), call


@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize("name", sorted(_APPS))
def test_apps_never_write_their_inputs(name, emitter, donation_floor):
    inp, fc, call = _app(name)
    want = (fc(*inp, backend=emitter), call(fc, inp, emitter))
    frozen = tuple(a.copy() for a in inp)
    for a in frozen:
        a.setflags(write=False)
    got = (fc(*frozen, backend=emitter), call(fc, frozen, emitter))
    _assert_bitwise(got, want, f"{name}: read-only inputs change the result")
    _assert_bitwise(frozen, inp, f"{name}: inputs were written")
    set_floor, floor = donation_floor
    if floor == 0:
        # ...and computing into dead temporaries changes no bit
        set_floor(NEVER)
        plain = (fc(*inp, backend=emitter), call(fc, inp, emitter))
        _assert_bitwise(got, plain, f"{name}: donation changed a result")


@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize("name", ["gmm", "kmeans", "lstm", "ba"])
def test_results_are_the_callers_to_overwrite(name, emitter, donation_floor):
    # Scribbling over a returned derivative must not reach a buffer the next
    # call reads or computes into.
    inp, fc, call = _app(name)
    first = call(fc, inp, emitter)
    keep = [a.copy() for a in _flat(first)]
    for a in _flat(first):
        if a.ndim and a.flags.writeable:
            a.fill(np.nan)
    _assert_bitwise(call(fc, inp, emitter), keep, f"{name}: second call differs")


@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize("name", ["gmm", "kmeans", "lstm", "ba"])
def test_nothing_a_call_allocates_outlives_it_but_its_results(name, emitter, donation_floor):
    # A cached plan keeps no buffer across calls: once its results are
    # dropped, no array data a call allocated is still alive.  (NumPy traces
    # array data in a domain of its own; Python objects are not counted.)
    inp, fc, call = _app(name)
    for _ in range(2):
        call(fc, inp, emitter)  # lowered, cached, every lazy table built
    arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    gc.collect()
    tracemalloc.start()
    try:
        res = call(fc, inp, emitter)
        held = sum(a.nbytes for a in _flat(res))
        during = tracemalloc.take_snapshot().filter_traces(arrays)
        del res
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(arrays)
    finally:
        tracemalloc.stop()
    assert sum(t.size for t in during.traces) >= held > 0
    left = sum(t.size for t in after.traces)
    assert left == 0, f"{name}: {left} bytes of array data outlived the call"


# ---------------------------------------------------------------------------
# Control flow with releases on: re-entered bodies, masks, folds
# ---------------------------------------------------------------------------


def _while_prog(xs):
    def per(x):
        v, s = rp.while_loop(
            lambda v, s: v < 6.0, lambda v, s: (v * 1.5 + 0.1, s + rp.sin(v) * v), (x * x + 0.2, 0.0))
        return s + v

    return rp.sum(rp.map(per, xs))


def _masked_if_prog(xs):
    def per(x):
        y = x * x - 0.3
        return rp.cond(y > 0.2, lambda: rp.exp(-y) * x + y, lambda: rp.cond(
            x > 0.0, lambda: y - x, lambda: rp.tanh(y) * y))

    return rp.sum(rp.map(per, xs))


def _generic_fold_prog(xs):
    # a coupled (value, index) fold stays on the generic strategy
    idx = rp.map(lambda i: rp.astype(i, rp.F64), rp.iota(rp.size(xs)))
    v, i = rp.reduce(
        lambda a, ai, b, bi: (rp.minimum(a, b), rp.where(a <= b, ai, bi)),
        (np.inf, -1.0), rp.map(lambda x: rp.sin(x) * x, xs), idx)
    return v * 2.0 + i


def _loop_prog(xs):
    def per(x):
        return rp.fori_loop(4, lambda i, a: rp.tanh(a * 0.8 + x) + a * x, x)

    return rp.sum(rp.map(per, xs))


def _array_map_prog(xs):
    return rp.map(lambda x: rp.sin(x) * x + rp.exp(-x * x), xs)


#: name -> (program, derivative).  The coupled fold has no reverse
#: rule and the map returns an array: those two differentiate forward.
_CONTROL = {
    "while": (_while_prog, rp.grad),
    "masked_if": (_masked_if_prog, rp.grad),
    "generic_fold": (_generic_fold_prog, rp.jvp),
    "loop": (_loop_prog, rp.grad),
    "array_map": (_array_map_prog, rp.jvp),
    **{f"fuzz{seed}": (_gen_program(seed), rp.grad) for seed in (0, 1, 2, 3, 5, 8)},
}


@pytest.mark.parametrize("name", sorted(_CONTROL))
def test_control_flow_with_releases_matches_ref(name, donation_floor):
    prog, transform = _CONTROL[name]
    xs = np.random.default_rng(7).standard_normal(11) * 0.9
    fc = rp.compile(rp.trace_like(prog, (xs,)))
    args = (xs, np.cos(xs)) if transform is rp.jvp else (xs,)
    deriv = transform(fc)
    want, dwant = fc(xs, backend="ref"), deriv(*args, backend="ref")
    np.testing.assert_allclose(fc(xs, backend="plan"), want, rtol=1e-12, atol=1e-12)
    for got, ref in zip(_flat(deriv(*args, backend="plan")), _flat(dwant)):
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Donation: every way a dead-looking buffer can still be visible
# ---------------------------------------------------------------------------


def _map_result_is_body_array(xs):
    ys = rp.map(lambda x: rp.sin(x) * x, xs)  # the body's own array becomes `ys`
    zs = rp.map(lambda y: y * y + 1.0, ys)  # ... and must not serve this map
    return rp.sum(zs) * ys[1], ys


def _index_view_outlives_array(m):
    a = rp.map(lambda r: rp.map(lambda e: rp.exp(e) * 0.5, r), m)
    row = a[1]  # last read of `a`: its slot dies, its memory lives on in `row`
    b = rp.map(lambda r: rp.map(lambda e: e * e + 1.0, r), m)
    return rp.sum(rp.map(lambda e, f: e * f, row, b[0])), row


def _if_forwards_branch_value(xs, c):
    ys = rp.map(lambda x: x * 2.0 + 1.0, xs)
    zs = rp.cond(c > 0.0, lambda: ys, lambda: rp.map(lambda x: x - 1.0, xs))
    ws = rp.map(lambda z: rp.cos(z) * z, zs)
    return rp.sum(ws) + rp.sum(ys), zs


def _loop_state(xs, **how):
    out = rp.fori_loop(
        4, lambda i, a: rp.map(lambda e, x: rp.tanh(e * 0.9 + x) + e * x, a, xs), xs, **how)
    return rp.sum(rp.map(lambda e: e * e, out))


def _slot_loop(xs):
    # Proved free of false dependencies: reverse AD re-installs the final state.
    step = lambda i, acc: rp.update(acc, i + 1, rp.sin(acc[i]) + xs[i])  # noqa: E731
    return rp.sum(rp.fori_loop(11, step, xs))


def _input_returned(xs):
    return xs, rp.sum(rp.map(lambda x: rp.exp(x) * x, xs))


def _scatter_add(ws, idx, xs):
    return rp.sum(rp.map(lambda i, x: rp.sin(ws[i] * x) * ws[i], idx, xs))


_XS = np.random.default_rng(11).standard_normal(12) * 0.8
_IDX = np.random.default_rng(12).integers(0, 5, 12)

#: name -> (program, inputs, what to call on the compiled function)
_HAZARDS = {
    "map_result_is_body_array": (_map_result_is_body_array, (_XS,), None),
    "withacc_result": (_scatter_add, (_XS[:5], _IDX, _XS), lambda fc: rp.grad(fc, wrt=[0])),
    "index_view_outlives_array": (_index_view_outlives_array, (_XS.reshape(3, 4),), None),
    "if_forwards_then": (_if_forwards_branch_value, (_XS, 1.0), None),
    "if_forwards_else": (_if_forwards_branch_value, (_XS, -1.0), None),
    "if_forwards_grad": (_if_forwards_branch_value, (_XS, 1.0),
                         lambda fc: rp.vjp(fc, wrt=[0])),
    "loop_state": (_loop_state, (_XS,), rp.grad),
    "loop_state_stripmined": (lambda xs: _loop_state(xs, stripmine=2), (_XS,), rp.grad),
    "loop_state_entry_checkpoint": (_slot_loop, (_XS,), rp.grad),
    "input_returned": (_input_returned, (_XS,), None),
}


def _hazard_call(name, emitter):
    prog, args, derive = _HAZARDS[name]
    fc = rp.compile(rp.trace_like(prog, args))
    f = fc if derive is None else derive(fc)
    if name == "if_forwards_grad":
        args = args + (1.0, np.ones_like(_XS))
    frozen = tuple(np.array(a) for a in args)
    for a in frozen:
        if a.ndim:
            a.setflags(write=False)
    return lambda: f(*frozen, backend=emitter), frozen


@pytest.mark.parametrize("emitter", EMITTERS)
@pytest.mark.parametrize("name", sorted(_HAZARDS))
def test_donation_never_reaches_a_visible_buffer(name, emitter, donation_floor):
    set_floor, floor = donation_floor
    call, frozen = _hazard_call(name, emitter)
    args = [a.copy() for a in frozen]
    # Results of earlier calls are held while later calls run: a later call
    # must never compute into one.
    held = [call() for _ in range(4)]
    snap = [[a.copy() for a in _flat(r)] for r in held]
    set_floor(NEVER)
    want = call()
    set_floor(SHIPPED if floor is None else floor)
    for r, kept in zip(held, snap):
        _assert_bitwise(r, want, f"{name}: donation changed a result")
        _assert_bitwise(r, kept, f"{name}: a later call wrote an earlier result")
    _assert_bitwise(frozen, args, f"{name}: inputs were written")
    if name == "input_returned":
        assert held[0][0] is frozen[0]  # handed back as it came


@pytest.mark.parametrize("emitter", EMITTERS)
def test_threads_run_one_plan_concurrently(emitter, donation_floor):
    # Threads in one plan never see each other's buffers, whatever the
    # interleaving.  More threads than cores, a short switch interval.
    set_floor, floor = donation_floor
    g = rp.grad(rp.compile(rp.trace_like(_loop_state, (_XS,))))
    inputs = [_XS, _XS[::-1].copy(), _XS * 0.5]
    rounds = 20
    for x in inputs:
        g(x, backend=emitter)  # lowered and cached before the race
    got = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def work(k):
        start.wait(timeout=60)
        for _ in range(rounds):
            got[k].append(g(inputs[k], backend=emitter))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    set_floor(NEVER)
    want = [g(x, backend=emitter) for x in inputs]
    set_floor(SHIPPED if floor is None else floor)
    for k in range(len(inputs)):
        assert len(got[k]) == rounds
        for r in got[k]:
            _assert_bitwise(r, want[k], f"thread {k} saw another's buffer")


def test_a_cached_calls_traced_peak_is_its_whole_working_set():
    # Nothing a call allocates outlives it but its results, so `tracemalloc`
    # sees every buffer of every call: three cached calls at a shape this
    # process has not run yet peak alike.  (A store kept across calls would
    # serve calls 2 and 3 from buffers tracing never sees: the per-thread
    # free list did, for temporaries of 128 KiB and up; here the (n, k, d)
    # ones are 240 KiB.)
    pts, ctr = datagen.kmeans_instance(4, 200, 32, 0)
    h = rp.hessian_diag(rp.compile(kmeans.build_ir(200, 4, 32)), wrt=1)
    h(pts, ctr, backend="plan")  # lowered and cached at n = 200
    new_pts = datagen.kmeans_instance(4, 240, 32, 1)[0]
    misses = plan_cache_stats()["misses"]
    peaks, results = [], []
    for _ in range(3):
        tracemalloc.start()
        try:
            results.append(h(new_pts, ctr, backend="plan"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert plan_cache_stats()["misses"] == misses  # shape-generic: cache hits
    assert max(peaks) <= 1.01 * min(peaks), peaks
    for r in results[1:]:
        _assert_bitwise(r, results[0], "cached calls differ")
    want = h(new_pts, ctr, backend="ref")
    for g, w in zip(_flat(results[0]), _flat(want)):
        np.testing.assert_allclose(g, w, rtol=1e-10, atol=1e-10)


def test_a_large_dead_temporary_is_computed_into():
    # Above the size floor the shipped configuration donates: the chain below
    # allocates its first product and then works in that one buffer.
    xs = np.random.default_rng(0).standard_normal(64 * 1024)
    fc = rp.compile(rp.trace_like(
        lambda v: rp.map(lambda x: rp.sin(x * x + 1.0) * x - x * 0.5, v), (xs,)))
    want = fc(xs, backend="ref")
    fc(xs, backend="plan")  # lowered and cached
    before = plan_cache_stats()["mem"]["donation_fallbacks"]
    tracemalloc.start()
    try:
        got = fc(xs, backend="plan")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert plan_cache_stats()["mem"]["donation_fallbacks"] == before
    # x*x, x*0.5 and the result: three live arrays at most, not six
    assert peak < 3.5 * xs.nbytes, peak / xs.nbytes


# ---------------------------------------------------------------------------
# Deterministic memory guard (no timer): peak traced allocation of one call
# ---------------------------------------------------------------------------


def test_kmeans_hessian_call_peaks_under_16_mb():
    # (k, n, d) = (8, 1000, 32) is the `kmeans_newton` benchmark size: one
    # (n, k, d) float64 temporary is 1.95 MB.  The register file used to keep
    # every one of them until the call returned (32.6 MB).
    pts, ctr = datagen.kmeans_instance(8, 1000, 32, 0)
    h = rp.hessian_diag(rp.compile(kmeans.build_ir(1000, 8, 32)), wrt=1)
    assert peak_mb(lambda: h(pts, ctr)) <= 16.0


def test_lstm_gradient_call_peak_no_higher_than_before_the_memory_plan():
    # (bs, n, d, h) = (16, 12, 10, 16), the `lstm_grad` benchmark size; the
    # executor without a memory plan peaked at 1.66 MB here (0.35 with).
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(16, 12, 10, 16, 0)
    g = rp.grad(rp.compile(lstm.build_ir(12, 16, 10, 16)), wrt=[1, 2, 3, 4])
    assert peak_mb(lambda: g(xs, wx, wh, b, wy, tg)) <= 1.66
