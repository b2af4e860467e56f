"""Shared benchmark infrastructure.

Workloads are the paper's, scaled down by a documented factor (``SCALE``
notes below) because the executors are NumPy-over-interpreter, not CUDA.
Every table file writes a paper-style text table to
``benchmarks/results/*.txt`` in addition to pytest-benchmark's own report,
and records the paper's reported numbers next to ours.

All "ours" rows run on the plan-compiled backend by default (lowered once,
cached per shape signature — see ``repro.exec.plan``), which is what the
paper's compiled-bulk-code numbers correspond to.  To measure another
backend (``ref``: the interpreter), pass ``backend=`` to the call itself.
"""
from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Optional

import numpy as np

import repro as rp
from repro import obs
from repro.apps import ba, datagen, gmm, hand, kmeans, kmeans_sparse, lstm, rsbench, xsbench
from repro.exec.plan import plan_cache_stats
from repro.exec.registry import DEFAULT_BACKEND
from repro.obs import tracing as obs_tracing

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
os.makedirs(RESULTS_DIR, exist_ok=True)

#: Repo root — ``write_table`` mirrors every JSON artifact here as
#: ``BENCH_<table>.json`` so the cross-PR perf trajectory lives at the top
#: level of the repository (the per-run copy stays in ``results/``).
ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Backend every "ours" measurement runs on (tables 1/3/5 etc.): the library
#: default, the plan compiler.
BENCH_BACKEND = DEFAULT_BACKEND


def on_bench_backend(f: Callable) -> Callable:
    """Pin a compiled/derivative callable to ``BENCH_BACKEND``."""
    return functools.partial(f, backend=BENCH_BACKEND)


def bench_row(name: str, seconds: Optional[float] = None, **extra) -> dict:
    """One machine-readable benchmark row for ``write_table(rows=...)``:
    a measurement name, the benchmark backend, its wall-clock seconds (None
    for rows recording non-time metrics), plus free-form extra fields.

    Timed rows additionally carry the per-phase span breakdown (``phases``:
    lower/emit/compile/execute… seconds) and the obs-counter delta (``obs``)
    of the most recent ``timeit`` measurement."""
    row = {"name": name, "backend": BENCH_BACKEND, "seconds": seconds}
    if seconds is not None and _LAST_MEASUREMENT is not None:
        row.setdefault("phases", _LAST_MEASUREMENT["phases"])
        row.setdefault("obs", _LAST_MEASUREMENT["obs"])
    row.update(extra)
    return row


def write_table(name: str, lines, rows=None) -> None:
    """Write a paper-style text table *and* a machine-readable artifact.

    Every table emits ``results/BENCH_<name>.json`` — and mirrors it to the
    repo root as ``BENCH_<name>.json`` — so the perf trajectory is
    trackable across PRs: the per-row measurements (``bench_row`` dicts
    when the caller passes them), the backend, a snapshot of the plan-cache
    counters at write time, and the human-readable lines.
    """
    path = os.path.join(RESULTS_DIR, name + ".txt")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    payload = {
        "table": name,
        "backend": BENCH_BACKEND,
        "unix_time": time.time(),
        "rows": [dict(r) for r in (rows or [])],
        "plan_cache": plan_cache_stats(),
        "lines": list(lines),
    }
    blob = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    for out_dir in (RESULTS_DIR, ROOT_DIR):
        with open(os.path.join(out_dir, f"BENCH_{name}.json"), "w") as f:
            f.write(blob)
    print("\n" + text)


#: Phase/obs breakdown of the most recent ``timeit`` call (attached to the
#: next ``bench_row`` with a ``seconds`` value; see ``last_measurement``).
_LAST_MEASUREMENT: Optional[dict] = None


def last_measurement() -> Optional[dict]:
    """``{"phases": {span: {count, seconds}}, "obs": counter deltas}`` for
    the most recent ``timeit`` measurement, or None before the first one."""
    return _LAST_MEASUREMENT


def timeit(f: Callable, *args, repeats: int = 3) -> float:
    """Median wall-clock seconds of ``f(*args)``.

    Each measurement runs under span collection (``obs.tracing``), so a
    per-phase time breakdown and the delta of every obs counter across the
    repeats are recorded as a side effect (``last_measurement()``)."""
    global _LAST_MEASUREMENT
    ts = []
    with obs_tracing.collecting():
        p0 = obs_tracing.phase_totals()
        s0 = obs.snapshot()
        for _ in range(repeats):
            t0 = time.perf_counter()
            f(*args)
            ts.append(time.perf_counter() - t0)
        p1 = obs_tracing.phase_totals()
        s1 = obs.snapshot()
    _LAST_MEASUREMENT = {
        "phases": obs.delta(p0, p1),
        "obs": obs.delta(s0, s1),
    }
    return float(np.median(ts))


# ---------------------------------------------------------------------------
# Cached problem setups (trace + AD transform once per session)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gmm_setup(n: int, d: int, K: int, seed: int = 0):
    args = datagen.gmm_instance(n, d, K, seed)[:4]
    fc = rp.compile(gmm.build_ir(n, d, K))
    g = rp.grad(fc, wrt=[0, 1, 2])
    return args, on_bench_backend(fc), on_bench_backend(g)


@functools.lru_cache(maxsize=None)
def kmeans_setup(k: int, n: int, d: int, seed: int = 0):
    pts, ctr = datagen.kmeans_instance(k, n, d, seed)
    fc = rp.compile(kmeans.build_ir(n, k, d))
    g = rp.grad(fc, wrt=[1])
    h = rp.hessian_diag(fc, wrt=1)
    return (pts, ctr), on_bench_backend(fc), on_bench_backend(g), on_bench_backend(h)


@functools.lru_cache(maxsize=None)
def kmeans_sparse_setup(rows: int, cols: int, nnz_row: int, k: int, seed: int = 0):
    data = datagen.sparse_kmeans_instance(rows, cols, nnz_row, k, seed)
    fc = rp.compile(kmeans_sparse.build_ir(rows, k, cols))
    g = rp.grad(fc, wrt=[3])
    return data, on_bench_backend(fc), on_bench_backend(g)


@functools.lru_cache(maxsize=None)
def lstm_setup(bs: int, n: int, d: int, h: int, seed: int = 0):
    """Returns ``(args, loss, grad, raw jvp ADFunction)`` — the raw forward
    function is what ``lstm.grad_fwd_ad`` drives through ``call_batched`` so
    all 4·h bias basis seeds evaluate in one batched pass."""
    xs, wx, wh, b, wy, h0, c0, tg = datagen.lstm_instance(bs, n, d, h, seed)
    # note: datagen signature is (bs, n, d, h) -> xs is (n, bs, d)
    fc = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    g = rp.grad(fc, wrt=[1, 2, 3, 4])
    fwd = rp.jvp(fc)
    return (xs, wx, wh, b, wy, tg), on_bench_backend(fc), on_bench_backend(g), fwd


@functools.lru_cache(maxsize=None)
def ba_setup(n_cams: int, n_pts: int, n_obs: int, seed: int = 0):
    """Returns ``(args, objective, vjp-callable, raw ADFunction)`` — the raw
    function is what ``ba.jacobian_ad`` drives through ``call_batched`` so
    both residual-component seeds evaluate in one batched pass."""
    cams, pts, ws, oc, op, feats = datagen.ba_instance(n_cams, n_pts, n_obs, seed)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, oc, op)
    fc = rp.compile(ba.build_ir(n_obs))
    jv = rp.vjp(fc, wrt=[0, 1, 2])
    return (gc, gp, gw, feats), on_bench_backend(fc), on_bench_backend(jv), jv


@functools.lru_cache(maxsize=None)
def hand_setup(n_bones: int, n_verts: int, seed: int = 0):
    """Returns ``(args, objective, raw jvp ADFunction)`` — the raw function
    is what ``hand.jacobian_fwd_ad`` drives through ``call_batched`` so all
    3·B pose-direction seeds evaluate in one batched pass."""
    args = datagen.hand_instance(n_bones, n_verts, seed)
    fc = rp.compile(hand.build_ir(n_bones, n_verts))
    fwd = rp.jvp(fc)
    return args, on_bench_backend(fc), fwd


@functools.lru_cache(maxsize=None)
def xs_setup(n_lookups: int, n_nuc: int, n_grid: int, seed: int = 0):
    args = datagen.xs_instance(n_lookups, n_nuc, n_grid, seed)
    fc = rp.compile(xsbench.build_ir(n_lookups, n_nuc, n_grid, args[3].shape[1]))
    g = rp.grad(fc, wrt=[1, 4])
    return args, on_bench_backend(fc), on_bench_backend(g)


@functools.lru_cache(maxsize=None)
def rs_setup(n_lookups: int, n_poles: int, n_windows: int, seed: int = 0):
    args = datagen.rs_instance(n_lookups, n_poles, n_windows, seed)
    fc = rp.compile(rsbench.build_ir(n_lookups, n_windows, n_poles))
    g = rp.grad(fc, wrt=[2, 3])
    return args, on_bench_backend(fc), on_bench_backend(g)
