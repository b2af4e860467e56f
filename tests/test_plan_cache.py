"""The plan cache: one shape-generic lowering per rank/dtype signature
(including for batched calls), the
multi-thread hammers under the locked cache, the
``BoundedLRU`` stored-``None`` regression, and the registry-level default
backend."""
import sys
import threading

import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.exec.plan import clear_plan_cache, plan_cache_stats, plan_for
from repro.util import BoundedLRU, ReproError
from helpers import PLAN_LEGS

rng = np.random.default_rng(11)


def _sum_kernel():
    def f(v):
        return rp.sum(rp.map(lambda x: rp.sin(x) * x, v)) + rp.astype(
            rp.size(v), rp.F64
        )

    return rp.compile(rp.trace_like(f, (np.ones(4),)))


# ---------------------------------------------------------------------------
# Lowerings are per rank/dtype signature, not per shape
# ---------------------------------------------------------------------------


def test_shape_sweep_one_generic_lowering_per_signature():
    fc = _sum_kernel()
    clear_plan_cache()
    for n in (3, 4, 5, 6, 7):  # five concrete shapes, one signature
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            fc(x, backend="plan"), fc(x, backend="ref"), rtol=1e-12, atol=1e-12
        )
    st = plan_cache_stats()
    assert st["misses"] == 1, f"sweep re-lowered the plan: {st}"
    assert st["hits"] == 4
    assert st["entries"] == 1
    # The one plan got hot once across the sweep (its fused run compiles),
    # not once per shape.
    assert st["promotions"] == 1 and st["specialized_hits"] == 0
    assert "specialized_entries" not in st and "spec_folds" not in st
    # A different dtype is a different rank/dtype signature: one more miss,
    # and still only one regardless of how many float32 extents follow.
    for n in (3, 4, 5):
        fc(rng.standard_normal(n).astype(np.float32), backend="plan")
    st2 = plan_cache_stats()
    assert st2["misses"] == 2, st2


def test_sweep_hits_grow_and_misses_stay_flat_on_derivatives():
    fc = _sum_kernel()
    g = rp.grad(fc)
    clear_plan_cache()
    for n in (4, 6, 8, 10, 12):
        x = rng.standard_normal(n)
        np.testing.assert_allclose(
            g(x, backend="plan"), g(x, backend="ref"), rtol=1e-10, atol=1e-10
        )
    st = plan_cache_stats()
    assert st["misses"] == 1, st  # one derivative Fun, one lowering
    assert st["hits"] == 4


# ---------------------------------------------------------------------------
# Batched calls ride the same cache
# ---------------------------------------------------------------------------


def test_repeated_batched_calls_hit_the_cache_bitwise():
    def f(m):
        return rp.map(lambda r: rp.sum(rp.map(lambda x: rp.tanh(x * x), r)), m)

    fc = rp.compile(rp.trace_like(f, (np.ones((3, 4)),)))
    j = rp.jacobian(fc)
    x = rng.standard_normal((3, 4))
    clear_plan_cache()
    ref = j(x, backend="ref")
    first = j(x, backend="plan")
    misses = plan_cache_stats()["misses"]
    for _ in range(3):
        np.testing.assert_array_equal(first, j(x, backend="plan"))
    np.testing.assert_allclose(first, ref, rtol=1e-10, atol=1e-10)
    st = plan_cache_stats()
    assert st["misses"] == misses and st["hits"] >= 3


def test_a_second_call_batched_with_the_same_flags_is_one_cache_hit():
    """The batched function is memoised per flags tuple on the ``Fun``, so a
    repeat ``call_batched`` is one plan-cache hit: no lowering, no emission."""
    from repro.frontend.function import batched_fun

    fc = _sum_kernel()
    fwd = rp.jvp(fc)
    args, flags = (rng.standard_normal(5), rng.standard_normal((3, 5))), (False, True)
    clear_plan_cache()
    first = fwd.call_batched(args, flags, 3, backend="plan")
    st, emits = plan_cache_stats(), _emits()
    assert st["misses"] == 1 and st["hits"] == 0, st
    again = fwd.call_batched(args, list(flags), 3, backend="plan")
    st = plan_cache_stats()
    assert st["misses"] == 1 and st["hits"] == 1 and _emits() == emits, st
    assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
    assert batched_fun(fwd.fun, flags) is batched_fun(fwd.fun, [0, 1])


# ---------------------------------------------------------------------------
# Thread safety: users may call one ``Compiled`` from their own threads
# ---------------------------------------------------------------------------


def _emits():
    """Plan bodies emitted so far: ``plan_for`` is the only emitter in these
    tests, and it emits once per miss, under its lock."""
    return plan_cache_stats()["misses"]


@pytest.mark.parametrize("backend", PLAN_LEGS)
def test_compiled_called_from_user_threads(backend):
    """6 user threads (more than cores, short switch interval) x 20 calls of
    one ``Compiled``: every result is bitwise equal to a quiet call, the
    plan is lowered once, and no cache or dispatch counter increment is
    lost."""

    def f(v):
        return rp.sum(rp.map(lambda x: rp.exp(x) * x, v))

    fc = rp.compile(rp.trace_like(f, (np.ones(8),)))
    xs = {n: rng.standard_normal(n) for n in (33, 47, 61)}
    expected = {n: np.asarray(fc(x, backend=backend)).tobytes() for n, x in xs.items()}
    clear_plan_cache()
    dispatched = obs.snapshot()["backend_calls"][backend]
    emits = _emits()
    nthreads, niter = 6, 20
    errors = []
    barrier = threading.Barrier(nthreads)

    def worker(t):
        try:
            barrier.wait(timeout=30)
            for i in range(niter):
                n = sorted(xs)[(t + i) % len(xs)]
                if np.asarray(fc(xs[n], backend=backend)).tobytes() != expected[n]:
                    errors.append((t, i, n))
        except Exception as e:  # pragma: no cover - surfaced by the assert
            errors.append(repr(e))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors[:3]
    st = plan_cache_stats()
    assert st["misses"] == 1, st  # one rank/dtype signature -> one lowering
    assert st["hits"] + st["misses"] == nthreads * niter, st
    assert obs.snapshot()["backend_calls"][backend] - dispatched == nthreads * niter
    assert _emits() - emits == 1


def test_plan_cache_thread_hammer():
    """8 threads x 40 calls racing one cache: with the lock, every call is
    accounted for exactly once and the sweep still lowers one plan."""
    fc = _sum_kernel()
    fun = fc.fun
    sizes = (3, 4, 5, 6, 7, 8)
    xs = {n: np.arange(float(n)) for n in sizes}
    expected = {n: float(np.asarray(fc(xs[n], backend="ref"))) for n in sizes}
    clear_plan_cache()
    nthreads, niter = 8, 40
    errors = []
    barrier = threading.Barrier(nthreads)

    def worker(t):
        try:
            barrier.wait()
            for i in range(niter):
                n = sizes[(t + i) % len(sizes)]
                (r,) = plan_for(fun, (xs[n],)).run((xs[n],))
                if not np.isclose(float(np.asarray(r)), expected[n]):
                    errors.append((t, i, n))
        except Exception as e:  # pragma: no cover - surfaced by the assert
            errors.append(repr(e))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(nthreads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors, errors[:3]
    st = plan_cache_stats()
    total = nthreads * niter
    assert st["hits"] + st["misses"] == total, st
    assert st["misses"] == 1, st  # one rank/dtype signature -> one lowering


# ---------------------------------------------------------------------------
# BoundedLRU: a stored None is a hit, not a miss (regression)
# ---------------------------------------------------------------------------


def test_bounded_lru_stored_none_is_a_hit_and_refreshes():
    lru = BoundedLRU()
    miss = object()
    lru.put("a", None, 10)
    assert lru.get("a", miss) is None  # present, not the default
    lru.put("b", 1, 10)
    assert lru.get("a", miss) is None  # refreshes "a" as most-recent
    lru.put("c", 2, 2)  # capacity 2: evicts LRU "b", keeps refreshed "a"
    assert lru.get("a", miss) is None
    assert lru.get("b", miss) is miss
    assert lru.get("c", miss) == 2


def test_bounded_lru_default_is_returned_on_miss():
    lru = BoundedLRU()
    assert lru.get("nope") is None
    sentinel = object()
    assert lru.get("nope", sentinel) is sentinel


# ---------------------------------------------------------------------------
# The backend selector: ``backend=``, ``None`` meaning the plan compiler
# ---------------------------------------------------------------------------


def _entry_points():
    def f(v):
        return rp.sum(rp.map(lambda x: x * x, v))

    fc = rp.compile(rp.trace_like(f, (np.ones(3),)))
    j = rp.jacobian(rp.compile(rp.trace_like(lambda v: rp.map(lambda a: a * a, v), (np.ones(3),))))
    return fc, rp.grad(fc), rp.hessian_diag(fc), j


def test_all_entry_points_share_the_default():
    fc, g, h, j = _entry_points()
    x = np.arange(3.0)
    for call in (fc, g, h, j):
        with pytest.raises(ReproError, match="registered backends"):
            call(x, backend="not-a-backend")
    np.testing.assert_allclose(fc(x, backend="ref"), 5.0)
    np.testing.assert_allclose(g(x, backend="ref"), 2 * x)
    np.testing.assert_allclose(h(x, backend="ref"), 2 * np.ones(3))
    np.testing.assert_allclose(j(x, backend="ref"), np.diag(2 * x))
    np.testing.assert_allclose(fc(x), 5.0)
    np.testing.assert_allclose(g(x), 2 * x)
    np.testing.assert_allclose(h(x), 2 * np.ones(3))


def test_repro_backend_in_the_environment_is_ignored(monkeypatch):
    """``backend=`` is the one selector: with ``REPRO_BACKEND=ref`` set,
    ``backend=None`` still runs ``plan`` at every entry point."""
    fc, g, h, j = _entry_points()
    x = np.arange(3.0)
    monkeypatch.setenv("REPRO_BACKEND", "ref")
    clear_plan_cache()
    before = obs.snapshot()["backend_calls"]
    for call in (fc, g, h, j, rp.value_and_grad(fc)):
        call(x)
    calls = obs.delta(before, obs.snapshot()["backend_calls"])
    assert calls.get("plan", 0) >= 5 and not calls.get("ref"), calls
    assert plan_cache_stats()["misses"] >= 5
