"""Shared test utilities: finite differences, gradient checking, dual-backend
execution, and jvp/vjp consistency checks."""
from __future__ import annotations

import cProfile
import pstats
import tracemalloc

import numpy as np
import pytest

import repro as rp

#: Every registered backend takes part in the parity checks.
BACKENDS = ("ref", "plan")
#: ``plan`` again with every closure it emits timed (``REPRO_PROFILE``; set,
#: and checked to have timed something, by ``conftest.py``): the one other
#: emission of a lowering, which must change no result and no memory-plan
#: property.
PROFILED = pytest.param("plan", marks=pytest.mark.profiled, id="plan-profiled")
#: The backend legs of the backend-parametrised tests.
LEGS = (*BACKENDS, PROFILED)
#: Their ``plan`` legs, for tests of the plan executor alone.
PLAN_LEGS = ("plan", PROFILED)


def cold_programs():
    """``name -> (build_ir, derive)`` of the nine derivative programs the
    benchmark compiles cold, from the eight apps, at its reduced sizes
    (``bench/workloads.py``, third column, restated: tests do not import
    ``bench/``).  ``derive(fc)`` goes through the public API and returns the
    derivative's ``Compiled``."""
    from repro.apps import ba, datagen, gmm, hand, kmeans, kmeans_sparse, lstm, rsbench, xsbench

    def grad(wrt):
        return lambda fc: rp.grad(fc, wrt=wrt).adfun

    n_mats = datagen.xs_instance(30, 6, 16, 0)[3].shape[1]
    return {
        "gmm": (lambda: gmm.build_ir(16, 4, 3), grad([0, 1, 2])),
        "kmeans_grad": (lambda: kmeans.build_ir(40, 3, 4), grad([1])),
        "kmeans_hess": (lambda: kmeans.build_ir(40, 3, 4),
                        lambda fc: rp.hessian_diag(fc, wrt=1).adfun),
        "kmeans_sparse": (lambda: kmeans_sparse.build_ir(20, 3, 12), grad([3])),
        "lstm": (lambda: lstm.build_ir(3, 2, 4, 4), grad([1, 2, 3, 4])),
        "hand": (lambda: hand.build_ir(3, 8), rp.jvp),
        "ba": (lambda: ba.build_ir(16), lambda fc: rp.vjp(fc, wrt=[0, 1, 2])),
        "xsbench": (lambda: xsbench.build_ir(30, 6, 16, n_mats), grad([1, 4])),
        "rsbench": (lambda: rsbench.build_ir(40, 4, 12), grad([2, 3])),
    }


def run_both(fc, *args):
    """Run a compiled function on ``plan`` and assert agreement with the
    reference interpreter."""
    r_ref = fc(*args, backend="ref")
    rr = r_ref if isinstance(r_ref, tuple) else (r_ref,)
    r_plan = fc(*args, backend="plan")
    rv = r_plan if isinstance(r_plan, tuple) else (r_plan,)
    assert len(rr) == len(rv), "backend plan: result arity mismatch"
    for a, b in zip(rr, rv):
        np.testing.assert_allclose(
            np.asarray(a), np.asarray(b), rtol=1e-10, atol=1e-10,
            err_msg="backend plan disagrees with ref",
        )
    return r_ref


def batched_equals_per_seed(fc, args, flags, b, backends=BACKENDS):
    """``call_batched`` on each of ``backends``: every result has a leading
    ``b`` axis, and each seed's row equals (to 1e-12) a ``ref`` call with
    that seed's arguments."""
    wants = []
    for s in range(b):
        want = fc(*[a[s] if f else a for a, f in zip(args, flags)], backend="ref")
        wants.append(want if isinstance(want, tuple) else (want,))
    for backend in backends:
        got = fc.call_batched(args, flags, b, backend=backend)
        assert all(np.shape(g)[:1] == (b,) for g in got), backend
        for s, want in enumerate(wants):
            for g, w in zip(got, want):
                np.testing.assert_allclose(np.asarray(g)[s], w, rtol=1e-12, atol=1e-12,
                                           err_msg=backend)


def looped_jacobian(fc, x, mode: str, backend: str):
    """The dense Jacobian of ``fc`` at ``x`` from one ``jvp`` (``mode="fwd"``,
    a column per input) or ``vjp`` (``"rev"``, a row per output) call per
    basis seed: the per-seed loop ``rp.jacobian``'s one batched pass
    replaces."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(fc(x, backend=backend))
    d = rp.jvp(fc) if mode == "fwd" else rp.vjp(fc)
    like = x if mode == "fwd" else y
    lines = []
    for e in np.eye(like.size):
        out = d(x, e.reshape(like.shape), backend=backend)
        lines.append(np.asarray(out[-1] if isinstance(out, tuple) else out).reshape(-1))
    return np.stack(lines, axis=1 if mode == "fwd" else 0).reshape(y.shape + x.shape)


def argmin_pair_lambda():
    """The coupled ``(v, i)`` argmin operator: ``(v1, i1) ⊙ (v2, i2)`` keeps
    the smaller value, the first index on a tie.  Neither component can be
    computed without the other's parameters (what fission must not split)."""
    from repro.ir import F64, I64, Lambda, Var
    from repro.ir.builder import Builder
    from repro.util import fresh

    v1, i1, v2, i2 = (Var(fresh(n), t) for n, t in
                      (("v1", F64), ("i1", I64), ("v2", F64), ("i2", I64)))
    b = Builder()
    better = b.binop("lt", v1, v2, "bt")
    tie = b.binop("and", b.binop("eq", v1, v2, "eq"), b.binop("le", i1, i2, "ile"), "tie")
    take1 = b.binop("or", better, tie, "take1")
    return Lambda((v1, i1, v2, i2), b.finish([b.select(take1, v1, v2, "v"),
                                               b.select(take1, i1, i2, "i")]))


def reduce_census(fun):
    """``(kind, strategy)`` of every reduce/scan/hist instruction the plan
    lowering emits for ``fun`` (nested bodies included)."""
    from repro.exec.lower import PBody, lower_fun

    out = []

    def walk(body) -> None:
        for ins in body.instrs:
            if getattr(ins, "strategy", None) is not None:
                out.append((ins.kind, ins.strategy))
            for klass in type(ins).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    sub = getattr(ins, slot, None)
                    if isinstance(sub, PBody):
                        walk(sub)

    walk(lower_fun(fun).body)
    return out


def _profiled(fn) -> dict:
    """``pstats`` rows of one ``fn()`` under ``cProfile``.  Deterministic
    (call counts, no timing); counting by profile rather than by patching
    sees the calls however the emitter bound the helper."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return pstats.Stats(prof).stats


def numpy_call_census(fn) -> dict:
    """What indexing cost one ``fn()``: ``gather`` — calls of
    ``exec.vector._gather`` (the clipped row ``take``), ``scatter`` —
    ``ufunc.at`` calls made by ``exec.vector._upd_acc`` (the ``np.add.at``
    update), ``clip`` — every ``np.clip``."""
    out = {"gather": 0, "scatter": 0, "clip": 0}
    for (path, _line, name), (_cc, ncalls, _tt, _ct, callers) in _profiled(fn).items():
        if name == "_gather" and path.endswith("vector.py"):
            out["gather"] += ncalls
        elif name == "clip" and path.endswith("fromnumeric.py"):
            out["clip"] += ncalls
        elif name == "<method 'at' of 'numpy.ufunc' objects>":
            out["scatter"] += sum(
                c[0] for (cpath, _l, cname), c in callers.items()
                if cname == "_upd_acc" and cpath.endswith("vector.py")
            )
    return out


def vector_call_census(fn) -> dict:
    """``{exec/vector.py function: calls}`` of one ``fn()`` — every kernel and
    helper the executed plan reached."""
    return {
        name: ncalls
        for (path, _line, name), (_cc, ncalls, _tt, _ct, _callers) in _profiled(fn).items()
        if path.endswith("exec/vector.py")
    }


def peak_mb(fn) -> float:
    """``tracemalloc`` peak of one cached call of ``fn`` (deterministic: no
    timer)."""
    fn()  # lowered and cached: the measured call is a cached one
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def fd_grad(fc, args, k: int, eps: float = 1e-6):
    """Central-difference gradient of a scalar-valued compiled function with
    respect to float argument ``k``."""
    a = np.array(args[k], dtype=float)
    out = np.zeros_like(a)
    it = np.nditer(a, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        ap = [np.array(x, dtype=float) if np.asarray(x).dtype.kind == "f" else x for x in args]
        am = [np.array(x, dtype=float) if np.asarray(x).dtype.kind == "f" else x for x in args]
        ap[k][idx] += eps
        am[k][idx] -= eps
        out[idx] = (fc(*ap) - fc(*am)) / (2 * eps)
    return out


def check_grad(f, args, tol: float = 1e-4, wrt=None, backends=BACKENDS):
    """Trace ``f``, compute its reverse-mode gradient, and compare against
    central differences on every float argument and both backends."""
    fun = rp.trace_like(f, args)
    fc = rp.compile(fun)
    g = rp.grad(fc, wrt=wrt)
    float_idx = [
        i for i, a in enumerate(args)
        if np.asarray(a).dtype.kind == "f" and (wrt is None or i in wrt)
    ]
    for be in backends:
        ga = g(*args, backend=be)
        ga = ga if isinstance(ga, tuple) else (ga,)
        for slot, k in enumerate(float_idx):
            fd = fd_grad(fc, args, k)
            np.testing.assert_allclose(
                np.asarray(ga[slot]), fd, rtol=tol, atol=tol,
                err_msg=f"grad mismatch: backend={be} arg={k}",
            )
    return fc, g


def check_jvp_vjp_consistency(f, args, seed: int = 0, tol: float = 1e-9):
    """⟨ȳ, J·ẋ⟩ must equal ⟨Jᵀ·ȳ, ẋ⟩ for random ẋ, ȳ."""
    rng = np.random.default_rng(seed)
    fun = rp.trace_like(f, args)
    fc = rp.compile(fun)
    fwd = rp.jvp(fc)
    rev = rp.vjp(fc)
    n_out = len(fun.body.result)
    tangents = [
        rng.standard_normal(np.asarray(a).shape)
        for a in args
        if np.asarray(a).dtype.kind == "f"
    ]
    out_f = fwd(*args, *tangents)
    out_f = out_f if isinstance(out_f, tuple) else (out_f,)
    primals, dys = out_f[:n_out], out_f[n_out:]
    seeds = [
        rng.standard_normal(np.asarray(p).shape)
        for p in primals
        if np.asarray(p).dtype.kind == "f"
    ]
    out_r = rev(*args, *seeds)
    out_r = out_r if isinstance(out_r, tuple) else (out_r,)
    xbars = out_r[n_out:]
    lhs = sum(float((np.asarray(s) * np.asarray(d)).sum()) for s, d in zip(seeds, dys))
    rhs = sum(float((np.asarray(xb) * np.asarray(t)).sum()) for xb, t in zip(xbars, tangents))
    assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs)), (lhs, rhs)
