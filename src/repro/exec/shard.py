"""Sharded parallel executor — the ``parallel`` schedule directive's runtime.

The plan backend (``exec/plan.py``) runs a whole program as one sequence of
NumPy closures — fast, but single-threaded: one ufunc loop at a time.  This
module is the multi-core layer above it, realising the ``parallel``
directive of the schedule IR (``ir/schedule.py``): the leading axis of the
program's dominant data-parallel SOAC becomes a *parallel* loop over a
persistent worker pool, and each chunk still executes as bulk *vectorized*
plan code — the ``parallel(w)·vectorized`` split of JAX's ``gmap``.

Execution model
---------------

``run_fun_shard(fun, args)`` consults the schedule-legality analysis
(``ir.analysis.parallel_split``, memoised per function).  An explicit
``parallel`` directive on a statement (attached via ``schedule=`` or
``REPRO_SCHEDULE``) pins the split point and — when it names a worker
count — the pool size for that call; otherwise the heaviest legal
statement is chosen by estimated work:

* **shardable** — the body splits into prefix / shard point / suffix.  The
  prefix runs once in the parent (plan backend); the shard point's input
  arrays are partitioned along the leading axis into worker-count-independent
  chunks; each chunk executes the pre-lowered chunk plan on the pool; the
  chunk results are recombined (concatenation for a ``map`` shard point, one
  associative combine for a ``reduce``/redomap) and the suffix runs once in
  the parent.  Chunk boundaries depend only on the extent, the static cost
  estimate of the shard point (each chunk targets ~``REPRO_COST_TASK_GRAIN``
  estimated work; ``REPRO_SHARD_MIN_CHUNK`` overrides with a fixed floor)
  and the env knobs — *never* on the worker count — so results are
  identical at 1 and N workers.
* **not shardable** (scans, data-dependent loops, scalar programs, extents
  below the derived/overridden chunk floor) — falls back to the plan
  backend, counted in ``shard_stats()["fallback_calls"]``.

``run_fun_shard_batched`` shards the *batch* axis of a batched multi-seed
call instead — no analysis needed, the axis is parallel by construction.
This is how sharding composes with batched AD: ``jacobian``'s stacked basis
seeds become the shard axis, so multi-seed forward/reverse passes (GMM, BA,
HAND) spread across workers.

Workers
-------

``REPRO_SHARD_WORKERS`` (default: the machine's CPU count) sizes a lazy,
persistent pool; ``REPRO_SHARD_MODE`` selects it:

* ``thread`` (default) — a ``ThreadPoolExecutor``.  Chunk inputs are
  zero-copy NumPy views of the parent's arrays (outputs are fresh per-chunk
  arrays the parent recombines by concatenation), and NumPy releases the
  GIL inside the bulk ufunc loops where the time goes.  Each worker
  resolves its chunk plan through the (thread-safe) plan cache: chunks of
  every extent share one shape-generic lowering, and ``Plan.run`` keeps all
  mutable state per call, so concurrent runs are safe.  Chunks run codegen-
  compiled exactly when the session backend is ``codegen``.
* ``process`` — a spawn-based ``ProcessPoolExecutor`` for workloads whose
  Python-side dispatch would serialise on the GIL.  ndarray inputs/outputs
  travel through ``multiprocessing.shared_memory`` segments (pickled inline
  below ``REPRO_SHARD_SHM_MIN`` bytes); each worker caches built plans by
  the dispatched program's ``ir_hash`` so a function ships per call but is
  built once per worker.  With a ``codegen`` session backend the parent
  ships generated source plus the injected constants instead of pickled IR,
  and workers ``compile()`` it
  (``exec/codegen.py``'s ``ShippedCodegenPlan``).  A pool-infrastructure
  failure (a broken worker, spawn unavailable, an unpicklable environment)
  is counted in ``shard_stats()["pool_errors"]`` and degrades the call to
  the thread path (serial in-process when one worker is configured) — but
  the degradation is *bounded*, not sticky: after
  ``REPRO_SHARD_RETRY_AFTER`` degraded calls (the interval doubling on
  each consecutive failure, capped at 8x) the pool is re-probed, and
  ``reset_shard_degradation()`` re-arms it immediately.  Errors a chunk
  program actually raised propagate unchanged.

``shard_stats()`` mirrors ``plan_cache_stats()``: call/chunk/fallback/pool
counters (including degraded-call and retry counts) plus the configured
workers, mode and live degradation flag; ``reset_shard_stats()``,
``reset_shard_degradation()`` and ``shutdown_shard_pool()`` are the test
hooks.
"""
from __future__ import annotations

import atexit
import math
import os
import pickle
import threading
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import ParallelSplit, ir_hash, parallel_split
from ..ir.ast import Fun
from ..ir.cost_model import soac_elem_cost, task_grain
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..util import BoundedLRU, ReproError, env_capacity
from .plan import Plan, plan_for, profile_enabled, run_fun_plan, run_fun_plan_batched
from .vector import _UFUNC

__all__ = [
    "run_fun_shard",
    "run_fun_shard_batched",
    "SHARD_STATS",
    "shard_stats",
    "reset_shard_stats",
    "reset_shard_degradation",
    "shard_workers",
    "shard_mode",
    "shutdown_shard_pool",
]


# ---------------------------------------------------------------------------
# Configuration (read per call so tests/benchmarks can flip env vars)
# ---------------------------------------------------------------------------


def shard_workers() -> int:
    """Worker-pool size: ``REPRO_SHARD_WORKERS`` or the CPU count."""
    return max(1, env_capacity("REPRO_SHARD_WORKERS", os.cpu_count() or 1))


def shard_mode() -> str:
    """``REPRO_SHARD_MODE``: ``thread`` (default) or ``process``."""
    mode = os.environ.get("REPRO_SHARD_MODE", "thread")
    if mode not in ("thread", "process"):
        raise ReproError(
            f"REPRO_SHARD_MODE={mode!r}: expected 'thread' or 'process'"
        )
    return mode


def _min_chunk() -> int:
    """Smallest worthwhile chunk extent (``REPRO_SHARD_MIN_CHUNK``).

    With the cost model in charge this knob is an *override*: when the env
    var is set, chunk counts derive from it exactly as before the model
    existed; when unset, ``_chunk_bounds`` derives the chunk size from the
    estimated per-element cost of the shard point instead.
    """
    return max(1, env_capacity("REPRO_SHARD_MIN_CHUNK", 1024))


def _min_chunk_overridden() -> bool:
    return "REPRO_SHARD_MIN_CHUNK" in os.environ


def _max_tasks() -> int:
    """Chunk-count ceiling per call (``REPRO_SHARD_MAX_TASKS``)."""
    return max(1, env_capacity("REPRO_SHARD_MAX_TASKS", 16))


def _shm_min() -> int:
    """Bytes below which process-mode values travel by pickle, not shm."""
    return env_capacity("REPRO_SHARD_SHM_MIN", 16384)


def _chunk_emitter() -> str:
    """Which plan-family emitter shard chunks compile with.

    Chunks follow the session default — codegen-compiled when the
    session backend is ``codegen``, profile-instrumented when
    ``REPRO_PROFILE`` is on (so sharded execute time stays attributed),
    closure plans otherwise.  Process-mode workers honour ``codegen`` by
    compiling shipped generated source (``exec/codegen.py``'s
    ``ShippedCodegenPlan`` — closure code objects do not pickle, source
    text does); the ``profile`` emitter is thread-side only, so process
    workers map it to plain ``Plan``s.
    """
    if os.environ.get("REPRO_BACKEND") == "codegen":
        return "codegen"
    return "profile" if profile_enabled() else "plan"


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

#: Counters mirroring ``plan_cache_stats``: sharded/batched/fallback call
#: counts, total dispatched chunks, pool (re)builds, infrastructure
#: failures, and process-degradation bookkeeping (calls served by the
#: thread path while degraded; pool re-probe attempts).  ``shard_stats()``
#: adds the live worker/mode/degradation configuration.
SHARD_STATS = _obs_metrics.counter_group(
    "shard",
    {
        "sharded_calls": 0,
        "batched_calls": 0,
        "fallback_calls": 0,
        "chunks": 0,
        "pool_builds": 0,
        "pool_errors": 0,
        "process_degraded_calls": 0,
        "process_retries": 0,
    },
)

_span = _obs_tracing.span


def shard_stats() -> Dict[str, object]:
    """A snapshot of the shard counters plus the current configuration."""
    return {
        **SHARD_STATS,
        "workers": shard_workers(),
        "mode": shard_mode(),
        "process_degraded": _DEGRADED,
        "analysis_entries": len(_SPLITS),
    }


def reset_shard_stats() -> None:
    """Zero every counter (configuration values are env-derived, untouched)
    and re-arm process mode after a pool failure."""
    SHARD_STATS.reset()
    reset_shard_degradation()


_obs_metrics.register_source("shard", shard_stats, reset_shard_stats)


# ---------------------------------------------------------------------------
# Shardability memo
# ---------------------------------------------------------------------------

_SPLITS = BoundedLRU()
_SPLITS_CAP = 1024


def _split_for(fun: Fun) -> Tuple[Optional[ParallelSplit], Optional[float]]:
    """``(parallel_split(fun), estimated per-element cost of the split
    point)``, memoised by identity.  The element cost drives
    ``_chunk_bounds``' derived chunk sizing; it is computed once per
    function, not per call."""
    ent = _SPLITS.get(id(fun))
    if ent is not None and ent[0] is fun:
        return ent[1], ent[2]
    split = parallel_split(fun)
    elem_cost = None
    if split is not None:
        elem_cost = soac_elem_cost(split.chunk_fun.body.stms[0].exp)
    _SPLITS.put(id(fun), (fun, split, elem_cost), _SPLITS_CAP)
    return split, elem_cost


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

_POOL = None
_POOL_KEY = None
_POOL_LOCK = threading.Lock()

#: Bounded degrade: once the process pool proves broken (spawn unavailable,
#: unpicklable environment), later calls go straight to the thread path
#: instead of paying a doomed pool construction per call — but not forever.
#: After ``REPRO_SHARD_RETRY_AFTER`` degraded calls (the interval doubling
#: on each consecutive failure, capped at 8x) the next call re-probes the
#: pool; ``reset_shard_degradation()`` re-arms it immediately.
_DEGRADE_LOCK = threading.Lock()
_DEGRADED = False
_DEGRADED_CALLS = 0
_RETRY_AT = 0
_RETRY_BACKOFF = 0


def _retry_after() -> int:
    """Degraded calls before process mode is re-probed
    (``REPRO_SHARD_RETRY_AFTER``)."""
    return max(1, env_capacity("REPRO_SHARD_RETRY_AFTER", 64))


def reset_shard_degradation() -> None:
    """Forget a process-pool failure: the next process-mode call probes the
    pool again, with the retry backoff reset (also invoked by
    ``reset_shard_stats``)."""
    global _DEGRADED, _DEGRADED_CALLS, _RETRY_AT, _RETRY_BACKOFF
    with _DEGRADE_LOCK:
        _DEGRADED = False
        _DEGRADED_CALLS = 0
        _RETRY_AT = 0
        _RETRY_BACKOFF = 0


def _process_degraded() -> bool:
    """True while this call should skip the process pool.

    Counts the calls served by the thread path while degraded; once the
    backoff interval has elapsed, the next call re-probes the pool
    (returns False once, counted as a retry)."""
    global _DEGRADED, _DEGRADED_CALLS
    with _DEGRADE_LOCK:
        if not _DEGRADED:
            return False
        _DEGRADED_CALLS += 1
        SHARD_STATS["process_degraded_calls"] += 1
        if _DEGRADED_CALLS >= _RETRY_AT:
            SHARD_STATS["process_retries"] += 1
            _DEGRADED = False
            _DEGRADED_CALLS = 0
            return False
        return True


def _degrade_process() -> None:
    global _DEGRADED, _DEGRADED_CALLS, _RETRY_AT, _RETRY_BACKOFF
    with _DEGRADE_LOCK:
        _DEGRADED = True
        _DEGRADED_CALLS = 0
        _RETRY_BACKOFF = min(_RETRY_BACKOFF + 1, 4)
        _RETRY_AT = _retry_after() * (2 ** (_RETRY_BACKOFF - 1))


def _note_process_ok() -> None:
    global _DEGRADED, _DEGRADED_CALLS, _RETRY_AT, _RETRY_BACKOFF
    with _DEGRADE_LOCK:
        _DEGRADED = False
        _DEGRADED_CALLS = 0
        _RETRY_AT = 0
        _RETRY_BACKOFF = 0


def _get_pool(mode: str, workers: int):
    """The pool for ``(mode, workers)``, built/replaced under a lock so
    concurrent shard calls cannot race construction against teardown and
    leak an executor.  A caller can still lose its pool to a concurrent
    reconfiguration between lookup and submit — submission sites treat the
    resulting RuntimeError as 'run this call in-process' rather than an
    error (correctness never depends on the pool)."""
    global _POOL, _POOL_KEY
    key = (mode, workers)
    with _POOL_LOCK:
        if _POOL is not None and _POOL_KEY == key:
            return _POOL
        _shutdown_pool_locked()
        if mode == "process":
            import multiprocessing as mp

            _POOL = ProcessPoolExecutor(
                max_workers=workers, mp_context=mp.get_context("spawn")
            )
        else:
            _POOL = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-shard"
            )
        _POOL_KEY = key
        SHARD_STATS["pool_builds"] += 1
        return _POOL


def _shutdown_pool_locked() -> None:
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None


def shutdown_shard_pool() -> None:
    """Tear down the worker pool (it is rebuilt lazily on next use)."""
    with _POOL_LOCK:
        _shutdown_pool_locked()


atexit.register(shutdown_shard_pool)


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------


def _edges(n: int, nchunks: int) -> List[Tuple[int, int]]:
    """Near-even ``[lo, hi)`` bounds covering ``[0, n)`` — at most
    ``nchunks`` of them, and never an empty chunk: a ``(k, k)`` chunk would
    do no map work but *would* contribute a spurious neutral-element
    partial to the reduce kind's fixed combine tree (``linspace`` emits
    such duplicates whenever ``nchunks > n``)."""
    nchunks = max(1, min(nchunks, n)) if n > 0 else 1
    edges = np.linspace(0, n, nchunks + 1).astype(np.int64)
    return [
        (int(edges[i]), int(edges[i + 1]))
        for i in range(nchunks)
        if edges[i + 1] > edges[i]
    ] or [(0, n)]


def _chunk_bounds(n: int, elem_cost: Optional[float] = None) -> List[Tuple[int, int]]:
    """Chunk bounds for a shard extent of ``n``.

    Depends only on ``n``, the estimated per-element cost of the shard
    point, and the env knobs — never on the worker count — which is what
    makes sharded results identical at 1 and N workers even for the reduce
    kind (the partial-combine tree is fixed).

    The chunk count is derived from the cost model: each chunk should carry
    roughly ``REPRO_COST_TASK_GRAIN`` work+traffic units
    (``ir.cost_model.task_grain``), so statement-heavy shard points split
    into more, smaller chunks than trivial maps at the same extent.
    Setting ``REPRO_SHARD_MIN_CHUNK`` overrides the derivation with the old
    fixed-extent floor; ``REPRO_SHARD_MAX_TASKS`` caps the count either
    way.  ``n == 0`` yields one empty chunk (run in-process by the
    dispatcher); ``n > 0`` never yields an empty chunk.
    """
    if n <= 0:
        return [(0, n)]
    if elem_cost is not None and not _min_chunk_overridden():
        per = max(1, int(math.ceil(task_grain() / max(elem_cost, 1.0))))
        nchunks = n // per
    else:
        nchunks = n // _min_chunk()
    nchunks = min(_max_tasks(), nchunks, n)
    if nchunks <= 1:
        return [(0, n)]
    return _edges(n, nchunks)


# ---------------------------------------------------------------------------
# Process-mode plumbing (shared-memory transport + worker-side plan cache)
# ---------------------------------------------------------------------------


def _new_segment(arr: np.ndarray):
    """Copy ``arr`` into a fresh shared-memory segment.

    Returns ``(shm handle, wire spec)`` — the one place the wire format for
    ``_decode_arg``/``_decode_result`` is produced, shared by both transport
    directions (parent→worker inputs and worker→parent outputs).
    """
    from multiprocessing import shared_memory

    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
    return shm, ("shm", shm.name, arr.shape, arr.dtype.str)


def _shm_export(arr: np.ndarray, holds: list):
    """Parent-side export: the handle is appended to ``holds`` so the caller
    closes and unlinks every segment once all futures have resolved."""
    shm, spec = _new_segment(arr)
    holds.append(shm)
    return spec


def _encode_arg(a, memo: dict, holds: list):
    """Value -> wire spec.  ndarrays above the shm threshold go through
    shared memory (deduplicated by object identity, so a broadcast argument
    is exported once per call, not once per chunk)."""
    if isinstance(a, np.ndarray) and a.nbytes >= max(1, _shm_min()):
        spec = memo.get(id(a))
        if spec is None:
            spec = _shm_export(a, holds)
            memo[id(a)] = spec
        return spec
    return ("raw", a)


#: Worker-side cache of built plans, keyed ``f"{ir_hash(fun)}:{kind}"`` —
#: the dispatched program's content hash (schedule bytes included) plus the
#: plan kind, so a worker-lowered ``Plan`` and a codegen-shipped build of
#: the same program never collide.  A true LRU (shared ``util.BoundedLRU``,
#: like every other cache in the system) so a long session cycling through
#: many functions evicts cold plans one at a time instead of wiping the
#: hot set.
_WORKER_PLANS = BoundedLRU()
_WORKER_PLANS_CAP = 128


def _decode_arg(spec, opened: list):
    tag = spec[0]
    if tag == "raw":
        return spec[1]
    from multiprocessing import shared_memory

    # NB: attaching registers with the resource tracker on 3.8-3.12, but
    # spawn children share the parent's tracker process and its cache is a
    # set, so the duplicate registration is harmless: each segment is
    # unlinked (and so unregistered) exactly once by its final owner.
    _, name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    opened.append(shm)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _encode_result(r):
    arr = np.asarray(r)
    if arr.nbytes >= max(1, _shm_min()) and arr.ndim:
        # Ownership passes to the parent, which attaches, copies out, and
        # unlinks; the shared resource tracker sees one register (deduped
        # across processes) and one unregister via that unlink.
        shm, spec = _new_segment(arr)
        shm.close()
        return spec
    return ("raw", r)


def _process_task(payload):
    """Worker entry: decode args, run the (cached) plan, encode results.

    ``kind`` selects how the blob becomes a runnable plan: ``"plan"`` ships
    pickled IR and lowers worker-side; ``"codegen"`` ships generated source
    plus injected constants and ``compile()``s it — no IR, no lowering."""
    key, kind, blob, specs, batched, batch_n = payload
    plan = _WORKER_PLANS.get(key)
    if plan is None:
        if kind == "codegen":
            from .codegen import ShippedCodegenPlan

            plan = ShippedCodegenPlan(blob)
        else:
            plan = Plan(pickle.loads(blob))
        _WORKER_PLANS.put(key, plan, _WORKER_PLANS_CAP)
    opened: list = []
    try:
        args = [_decode_arg(s, opened) for s in specs]
        if batched is None:
            res = plan.run(args)
        else:
            res = plan.run_batched(args, batched, batch_n)
        out = []
        try:
            for r in res:
                out.append(_encode_result(r))
        except BaseException:
            # A half-encoded result set would leak its segments: the parent
            # never learns their names.  Unlink what was already exported.
            from multiprocessing import shared_memory

            for spec in out:
                if spec[0] == "shm":
                    try:
                        seg = shared_memory.SharedMemory(name=spec[1])
                        seg.close()
                        seg.unlink()
                    except Exception:
                        pass
            raise
        return out
    finally:
        for shm in opened:
            shm.close()


def _decode_result(spec):
    if spec[0] == "raw":
        return spec[1]
    from multiprocessing import shared_memory

    _, name, shape, dtype = spec
    shm = shared_memory.SharedMemory(name=name)
    out = np.array(np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf))
    shm.close()
    shm.unlink()
    return out


def _shm_spec_bytes(specs) -> int:
    """Shared-memory bytes a chunk's wire specs reference (the shipped
    volume; broadcast segments are deduplicated across chunks by
    ``_encode_arg`` but each chunk still maps and reads them)."""
    total = 0
    for s in specs:
        if s[0] == "shm":
            _, _, shape, dtype = s
            total += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    return total


def _dispatch_process(
    fun: Fun,
    arg_lists: Sequence[Sequence[object]],
    batched,
    batch_ns,
    workers: int,
    bounds=None,
    schedule: str = "",
):
    pool = _get_pool("process", workers)
    kind = "codegen" if _chunk_emitter() == "codegen" else "plan"
    if kind == "codegen":
        from .codegen import codegen_payload

        blob = codegen_payload(fun)
    else:
        blob = pickle.dumps(fun)
    key = f"{ir_hash(fun)}:{kind}"
    memo: dict = {}
    holds: list = []
    try:
        futs = []
        for i, args in enumerate(arg_lists):
            specs = [_encode_arg(a, memo, holds) for a in args]
            # The span covers encode+submit (worker compute is not
            # parent-visible); its payload — chunk extent and shm bytes
            # shipped — is what chunk-placement analysis needs.
            with _span(
                "shard:chunk",
                cat="shard",
                fun=fun.name,
                mode="process",
                chunk=i,
                extent=(bounds[i][1] - bounds[i][0]) if bounds is not None else None,
                bytes=_shm_spec_bytes(specs),
                schedule=schedule or None,
            ):
                futs.append(
                    pool.submit(
                        _process_task,
                        (
                            key,
                            kind,
                            blob,
                            specs,
                            batched,
                            batch_ns[i] if batch_ns is not None else None,
                        ),
                    )
                )
        results = []
        err = None
        for f in futs:
            try:
                specs = f.result()
            except BaseException as e:  # drain the rest before raising
                if err is None:
                    err = e
                continue
            if err is None:
                results.append(tuple(_decode_result(s) for s in specs))
            else:
                for s in specs:  # orphaned outputs of post-failure chunks
                    if s[0] == "shm":
                        try:
                            _decode_result(s)
                        except Exception:
                            pass
        if err is not None:
            raise err
        return results
    finally:
        for shm in holds:
            shm.close()
            shm.unlink()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _dispatch(
    fun: Fun,
    arg_lists: Sequence[Sequence[object]],
    batched=None,
    batch_ns=None,
    bounds=None,
    workers: Optional[int] = None,
    schedule: str = "",
) -> List[Tuple[object, ...]]:
    """Run ``fun`` over every chunk argument list, in order.

    ``workers`` overrides the env-derived pool size (an explicit
    ``parallel(w)`` directive); ``schedule`` is the active schedule string
    stamped on every ``shard:chunk`` span.

    Thread mode (and the in-process fallback for a broken process pool)
    resolves the chunk plan *per chunk* through the plan cache — chunks of
    every extent share one shape-generic entry (``plan_for`` is thread-safe,
    so pool workers resolve concurrently).  Process mode ships
    the pickled ``Fun`` plus shm descriptors to ``_process_task``.  Results
    always come back in chunk order.
    """
    workers = workers or shard_workers()
    SHARD_STATS["chunks"] += len(arg_lists)
    if shard_mode() == "process" and not _process_degraded():
        try:
            res = _dispatch_process(
                fun, arg_lists, batched, batch_ns, workers,
                bounds=bounds, schedule=schedule,
            )
            _note_process_ok()
            return res
        except (
            BrokenExecutor,
            CancelledError,
            RuntimeError,
            OSError,
            ImportError,
            pickle.PicklingError,
        ):
            # Pool-infrastructure failure (spawn unavailable, broken worker,
            # unpicklable environment): degrade to the thread path below.
            # Program-level errors — ReproError and anything else a chunk
            # actually raised — propagate unchanged.
            SHARD_STATS["pool_errors"] += 1
            shutdown_shard_pool()
            _degrade_process()

    emitter = _chunk_emitter()

    def run_chunk(i, args, bn=None):
        extent = bounds[i][1] - bounds[i][0] if bounds is not None else bn
        # Runs on the pool worker, so the span's tid/worker name attribute
        # the chunk to the thread that actually executed it.
        with _span(
            "shard:chunk",
            cat="shard",
            fun=fun.name,
            mode="thread",
            chunk=i,
            extent=extent,
            worker=threading.current_thread().name,
            schedule=schedule or None,
        ):
            plan = plan_for(fun, args, batched, backend="shard", emitter=emitter)
            if batched is None:
                return plan.run(args)
            return plan.run_batched(args, batched, bn)

    def serially():
        if batched is None:
            return [run_chunk(i, args) for i, args in enumerate(arg_lists)]
        return [run_chunk(i, args, batch_ns[i]) for i, args in enumerate(arg_lists)]

    if workers <= 1 or len(arg_lists) <= 1:
        return serially()
    try:
        pool = _get_pool("thread", workers)
        if batched is None:
            futs = [pool.submit(run_chunk, i, args) for i, args in enumerate(arg_lists)]
        else:
            futs = [
                pool.submit(run_chunk, i, args, batch_ns[i])
                for i, args in enumerate(arg_lists)
            ]
    except RuntimeError:
        # The pool was shut down under us by a concurrent reconfiguration;
        # chunk results don't depend on where they run, so run in-process.
        SHARD_STATS["pool_errors"] += 1
        return serially()
    try:
        return [f.result() for f in futs]
    except CancelledError:
        # Queued chunks were cancelled by a concurrent pool teardown — rerun
        # in-process.  Program errors (anything a chunk actually *raised*,
        # RuntimeError subclasses included) propagate from result() as-is.
        SHARD_STATS["pool_errors"] += 1
        return serially()


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _fallback(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    SHARD_STATS["fallback_calls"] += 1
    return run_fun_plan(fun, args)


def run_fun_shard(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    """Evaluate ``fun`` with its dominant SOAC sharded across the pool.

    Falls back to the plan backend when the shardability analysis rejects
    the program outright.  A shardable program whose extent is below the
    chunking threshold still runs through the prefix/chunk/suffix plans —
    as one in-process chunk, so the already-evaluated prefix is never
    thrown away and re-executed — and is counted as a fallback call.
    """
    split, elem_cost = _split_for(fun)
    if split is None:
        return _fallback(fun, args)
    pre = run_fun_plan(split.prefix_fun, args)
    shard_vals = [np.asarray(pre[i]) for i in split.sharded_src]
    if not shard_vals or shard_vals[0].ndim == 0:
        return _fallback(fun, args)
    n = shard_vals[0].shape[0]
    if any(v.ndim == 0 or v.shape[0] != n for v in shard_vals):
        return _fallback(fun, args)
    bounds = _chunk_bounds(n, elem_cost)
    bcast = [pre[i] for i in split.chunk_broadcast]
    arg_lists = [[v[lo:hi] for v in shard_vals] + bcast for lo, hi in bounds]
    outs = _dispatch(
        split.chunk_fun, arg_lists, bounds=bounds,
        workers=split.workers or None, schedule=split.schedule_str,
    )
    if split.kind == "map":
        combined = [
            np.concatenate([np.asarray(o[i]) for o in outs], axis=0)
            for i in range(split.n_outs)
        ]
    else:
        stacked = np.stack([np.asarray(o[0]) for o in outs], axis=0)
        comb = _UFUNC[split.combine_op].reduce(stacked, axis=0)
        if split.ne_src is not None:
            tag, v = split.ne_src
            ne_val = np.asarray(pre[v] if tag == "pre" else v)
            comb = _UFUNC[split.combine_op](ne_val.astype(stacked.dtype), comb)
        combined = [comb]
    SHARD_STATS["sharded_calls" if len(bounds) > 1 else "fallback_calls"] += 1
    if split.suffix_fun is not None:
        sargs = [
            combined[i] if tag == "out" else pre[i]
            for tag, i in split.suffix_src
        ]
        return run_fun_plan(split.suffix_fun, sargs)
    out = []
    for tag, i in split.out_src:
        d = np.asarray(combined[i])
        out.append(d if d.ndim else d[()])
    return tuple(out)


def run_fun_shard_batched(
    fun: Fun, args: Sequence[object], batched: Sequence[bool], batch_size: int
) -> Tuple[object, ...]:
    """Evaluate a batched multi-seed call with the batch axis sharded.

    Batch elements are independent by construction (the axis is a stacked
    seed/vmap axis), so any chunking is sound; chunks are sized to the
    worker count.  Falls back to one plan call when there is a single
    worker or a single batch element.
    """
    b = int(batch_size)
    nchunks = min(shard_workers(), b)
    if nchunks <= 1:
        SHARD_STATS["fallback_calls"] += 1
        return run_fun_plan_batched(fun, args, batched, b)
    bounds = _edges(b, nchunks)
    batched = tuple(bool(f) for f in batched)
    arrs = [np.asarray(a) if f else a for a, f in zip(args, batched)]
    arg_lists = [
        [a[lo:hi] if f else a for a, f in zip(arrs, batched)]
        for lo, hi in bounds
    ]
    batch_ns = [hi - lo for lo, hi in bounds]
    outs = _dispatch(
        fun, arg_lists, batched=batched, batch_ns=batch_ns, bounds=bounds,
        schedule=f"parallel({nchunks})·vectorized",
    )
    SHARD_STATS["batched_calls"] += 1
    return tuple(
        np.concatenate([np.asarray(o[i]) for o in outs], axis=0)
        for i in range(len(outs[0]))
    )
