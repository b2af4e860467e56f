"""Compiled fused runs and accumulator updates (``exec/kernels.py``): bitwise
NumPy's, at NumPy's shapes, and NumPy itself whenever no kernel can take a
call.

The ``hot`` fixture sets ``HOT_CALLS`` and ``MIN_OPS`` (module constants,
not knobs; shipped as 3 and 2) to 1, so that a small program's first call
queues the input pattern of every run a loop can compute, and its second
builds all their loops in one compiler call and runs them compiled.  The
``warm`` fixture counts the compiler calls made past the launcher, which a
process builds once.  The ``twin`` fixture runs every kernel run
beside the plain NumPy closure of the same run, on a copy of the registers,
and records both results of each export.  Every test here also passes with
no ``gcc`` on ``PATH`` (CI runs this file a second time so): then nothing
compiles, and every call falls back to NumPy.
"""
import shutil
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.apps import datagen, gmm, hand, lstm
from repro.exec import kernels
from repro.exec import plan as plan_mod
from repro.exec import vector as V
from repro.exec.lower import layout, lower_fun
from repro.exec.plan import clear_plan_cache, plan_cache_stats
from repro.exec.verify_plan import verify_layout
from repro.ir.verify import VerifyError
from repro.obs import tracing
from test_exec_plan import _BATTERY
from test_fuzz_programs import _gen_program

HAVE_GCC = shutil.which("gcc") is not None


@pytest.fixture
def hot(monkeypatch):
    monkeypatch.setattr(plan_mod, "HOT_CALLS", 1)
    monkeypatch.setattr(kernels, "MIN_OPS", 1)
    clear_plan_cache()
    yield
    clear_plan_cache()


class _Twin(plan_mod._ClosureEmitter):
    seen: list = []

    def _emit_kernel_run(self, ins, kr, los, dead):
        fast = super()._emit_kernel_run(ins, kr, los, dead)
        min_ops, kernels.MIN_OPS = kernels.MIN_OPS, 10**9  # the plain run closure
        try:
            slow = plan_mod._ClosureEmitter(self.lay)._emit_run(ins)
        finally:
            kernels.MIN_OPS = min_ops
        slots = tuple(s for _li, s, _n in ins.exports)

        def run(eng):
            twin = plan_mod._Engine(len(eng.regs))
            twin.regs[:] = eng.regs
            slow(twin)
            ran = fast(eng)
            for s in slots:
                a, b = twin.regs[s], eng.regs[s]
                _Twin.seen.append((ran, np.shape(a.data), np.shape(b.data), a.bdims == b.bdims
                                   and np.asarray(a.data).dtype == np.asarray(b.data).dtype
                                   and np.asarray(a.data).tobytes() == np.asarray(b.data).tobytes()))
            return ran

        return run


@pytest.fixture
def twin(monkeypatch):
    monkeypatch.setattr(plan_mod, "_ClosureEmitter", _Twin)
    _Twin.seen = []
    return _Twin.seen


@pytest.fixture
def upd_twin(monkeypatch):
    """Every ``upd`` the plans emitted from here on run twice: NumPy's code on
    a copy of the accumulator (an engine with no C ``updacc``), then as the
    plan runs it; records whether the second ran in C and whether both left
    the same bits."""
    seen, kernel = [], V._upd_acc

    def twin(state, acc, idxs, v, affine, lay):
        ref = V.AccBV(acc.data.copy(), acc.bdims)
        kernel(SimpleNamespace(bstack=state.bstack, mask=state.mask, updacc=None),
               ref, idxs, v, affine, lay)
        n = state.upd_calls[1]
        out = kernel(state, acc, idxs, v, affine, lay)
        seen.append((state.upd_calls[1] != n, ref.data.tobytes() == acc.data.tobytes()))
        return out

    monkeypatch.setitem(V.KERNELS, "updacc", (twin,) + V.KERNELS["updacc"][1:])
    return seen


def _flat(out):
    if isinstance(out, (tuple, list)):
        return [a for o in out for a in _flat(o)]
    return [np.asarray(out)]


def _bits(calls):
    return [[(a.shape, a.dtype.str, a.tobytes()) for a in _flat(c())] for c in calls]


def _numpy_bits(monkeypatch, calls):
    """``calls``' results on plans with no kernel runs (a fresh cache after)."""
    min_ops = kernels.MIN_OPS
    monkeypatch.setattr(kernels, "MIN_OPS", 10**9)
    clear_plan_cache()
    want = _bits(calls)
    monkeypatch.setattr(kernels, "MIN_OPS", min_ops)
    clear_plan_cache()
    return want


def _numpy_then_hot(calls, monkeypatch):
    """``calls``' results on plans with no kernel runs, then on plans that
    compile every run on their second call (fresh plan caches each time).  In
    between, kernel runs that never get hot (NumPy part first, without its
    releases and donations) must give the first results, and so must the
    first pass of hot plans, which queues their patterns; ``twin`` keeps the
    second pass only."""
    want = _numpy_bits(monkeypatch, calls)
    monkeypatch.setattr(plan_mod, "HOT_CALLS", 10**9)
    clear_plan_cache()
    assert _bits(calls) == want
    _Twin.seen.clear()
    monkeypatch.setattr(plan_mod, "HOT_CALLS", 1)
    clear_plan_cache()
    assert _bits(calls) == want
    _Twin.seen.clear()
    return want, _bits(calls)


def _fuzz_calls(seeds, n=48):
    calls = []
    for seed in seeds:
        xs = np.random.default_rng(seed).standard_normal(n) * 0.8
        fc = rp.compile(rp.trace_like(_gen_program(seed), (xs,), name=f"kfuzz{seed}"))
        g, fwd = rp.grad(fc), rp.jvp(fc)
        calls += [lambda fc=fc, xs=xs: fc(xs), lambda g=g, xs=xs: g(xs),
                  lambda fwd=fwd, xs=xs: fwd(xs, np.cos(xs))]
    return calls


def test_compiled_runs_are_bitwise_numpy_on_the_fuzz_corpus_and_battery(hot, twin, upd_twin,
                                                                         monkeypatch):
    """(a) Every run a loop can compute compiled, and every ``upd`` trying C
    from a plan's first call: the fuzz programs (primal, ``grad``, ``jvp``)
    and the eight ``_BATTERY`` programs give NumPy's bits, export by export,
    update by update and end to end."""
    calls = _fuzz_calls(range(10))
    for _name, f, ex, args in _BATTERY:
        fc = rp.compile(rp.trace_like(f, ex))
        calls.append(lambda fc=fc, args=args: fc(*args))
    want, got = _numpy_then_hot(calls, monkeypatch)
    assert got == want
    assert twin and all(sa == sb and same for _ran, sa, sb, same in twin)
    assert plan_cache_stats()["promotions"] > 0
    verify = obs.snapshot()["verify"]
    if verify["mode"] != "off":
        assert verify["kernel_checks"] > 0
    assert upd_twin and all(same for _ran, same in upd_twin)
    if HAVE_GCC:
        assert sum(ran for ran, *_ in twin) > len(twin) // 2
        assert plan_cache_stats()["kernel_fallbacks"] == 0
        assert any(ran for ran, _same in upd_twin) and plan_cache_stats()["upd_kernel_calls"] > 0


def test_jvp_primal_and_tangent_exports_keep_numpys_shapes(hot, twin, monkeypatch):
    """(b) In a batched jvp a depth-2 primal value is ``(1, n)`` where its
    tangents are ``(m, n)``: the kernel allocates each export at exactly
    the shape NumPy's broadcasting gives it."""
    n_bones, n_verts = 3, 8
    inp = datagen.hand_instance(n_bones, n_verts, 0)
    fwd = rp.jvp(rp.compile(hand.build_ir(n_bones, n_verts)))
    want, got = _numpy_then_hot([lambda: hand.jacobian_fwd_ad(fwd, *inp)], monkeypatch)
    assert got == want
    assert all(sa == sb and same for _ran, sa, sb, same in twin)
    shapes = {sb for ran, _sa, sb, _same in twin if ran or not HAVE_GCC}
    assert {(1, n_verts), (3 * n_bones, n_verts)} <= shapes


def _nested():
    def f(x, y):
        return rp.map(lambda a: rp.sum(rp.map(
            lambda b: rp.sin(a * b) * a + b * b - a / (b + 3.0), y)), x)

    return rp.compile(rp.trace_like(f, (np.ones(3), np.ones(4))))


def test_a_pattern_past_the_variant_cap_runs_numpy(hot, twin, monkeypatch):
    """(c) ``x`` of extent 1 makes the inner run's ``a`` lane-uniform: a
    second input pattern.  With one variant allowed it runs NumPy, bitwise,
    and counts a fallback."""
    monkeypatch.setattr(kernels, "MAX_VARIANTS", 1)
    fc, y = _nested(), np.linspace(0.5, 1.5, 6)
    calls = [lambda: fc(np.linspace(-1.0, 1.0, 5), y), lambda: fc(np.array([0.75]), y)]
    want, got = _numpy_then_hot(calls, monkeypatch)
    assert got == want
    assert all(sa == sb and same for _ran, sa, sb, same in twin)
    assert plan_cache_stats()["kernel_fallbacks"] >= 1
    if HAVE_GCC:
        ran = [r for r, *_ in twin]
        assert ran[0] and not ran[-1]
        assert plan_cache_stats()["kernels"] <= 1


def _upd_only():
    """A gradient whose plan has ``upd``s and no kernel run: ``x[ids]``'s
    adjoint scatter-added, through clipped indices."""
    fc = rp.compile(rp.trace_like(lambda x, ids: rp.sum(rp.map(lambda i: x[i], ids)),
                                  (np.ones(5), np.arange(3))))
    return rp.grad(fc, wrt=[0]), (np.arange(5.0), np.array([1, 4, 1, -2, 7]))


def test_no_compiler_falls_back_to_numpy(hot, twin, monkeypatch):
    """(d) With no ``gcc`` on ``PATH`` (and no kernel built before in the
    process) every run is NumPy's, bitwise, and each call counts."""
    monkeypatch.setenv("PATH", "")
    monkeypatch.setattr(kernels, "_BUILT", {})
    assert kernels.whitelist() == frozenset()
    fc = _nested()
    calls = [lambda: fc(np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 6))] * 3
    want, got = _numpy_then_hot(calls, monkeypatch)
    assert got == want
    assert twin and not any(ran for ran, *_ in twin)
    st = plan_cache_stats()
    assert st["kernels"] == 0 and st["kernel_fallbacks"] > 0
    g, args = _upd_only()  # and every ``upd`` is NumPy's
    want, got = _numpy_then_hot([lambda: g(*args)] * 3, monkeypatch)
    assert got == want and kernels.updacc() is None
    st = plan_cache_stats()
    assert st["promotions"] == 1 and st["upd_kernel_calls"] == st["kernels"] == 0


def test_fresh_plans_never_start_a_compiler(monkeypatch):
    """(e) Three cold compiles of the HAND Jacobian, and a cold LSTM gradient
    whose kernel run sits in a loop body (run 12 times a call): no plan gets
    hot, so no kernel and no ``gcc``.  Each plan called ``HOT_CALLS`` times
    does ask for one."""
    asked = []
    monkeypatch.setattr(kernels, "_gcc", lambda name, src, *flags, **k: asked.append(name))
    monkeypatch.setattr(kernels, "_BUILT", {})
    clear_plan_cache()
    g = rp.grad(rp.compile(lstm.build_ir(12, 4, 10, 16)))
    args = datagen.lstm_instance(4, 12, 10, 16, 0)
    args = args[:5] + args[7:]
    g(*args)
    assert asked == [] and plan_cache_stats()["promotions"] == 0
    for _ in range(plan_mod.HOT_CALLS - 1):
        g(*args)
    assert asked and plan_cache_stats()["promotions"] == 1
    asked.clear()
    monkeypatch.setattr(kernels, "_BUILT", {})
    inp = datagen.hand_instance(8, 128, 0)
    for _ in range(3):
        clear_plan_cache()
        fwd = rp.jvp(rp.compile(hand.build_ir(8, 128)))
        first = hand.jacobian_fwd_ad(fwd, *inp)
        st = plan_cache_stats()
        assert st["promotions"] == st["kernels"] == 0
    assert asked == []
    for _ in range(plan_mod.HOT_CALLS - 1):
        assert np.array_equal(hand.jacobian_fwd_ad(fwd, *inp), first)
    assert plan_cache_stats()["promotions"] == 1 and asked
    asked.clear()  # a plan with ``upd``s and no kernel run asks for the launcher when hot
    monkeypatch.setattr(kernels, "_BUILT", {})
    clear_plan_cache()
    g, args = _upd_only()
    first = g(*args)
    assert asked == [] and plan_cache_stats()["promotions"] == 0
    for _ in range(plan_mod.HOT_CALLS - 1):
        assert np.array_equal(g(*args), first)
    assert plan_cache_stats()["promotions"] == 1 and asked and plan_cache_stats()["kernels"] == 0


def test_the_probe_pins_the_whitelist_and_drops_a_disagreeing_op(monkeypatch):
    """(f) The candidates; ``exp`` / ``log`` / ``tanh`` / ``sigmoid`` are
    never among them (NumPy's SIMD code rounds them its own way); on this
    build every candidate agrees bitwise on the sweep; an op whose NumPy
    result is forced to differ is dropped."""
    assert kernels.CANDIDATES == {"add", "sub", "mul", "div", "neg", "sin", "cos", "sqrt"}
    assert not {"exp", "log", "tanh", "sigmoid"} & kernels.CANDIDATES
    monkeypatch.setattr(kernels, "_BUILT", dict(kernels._BUILT))
    kernels._BUILT.pop("whitelist", None)
    assert kernels.whitelist() == (kernels.CANDIDATES if HAVE_GCC else frozenset())
    del kernels._BUILT["whitelist"]  # probe again with the built probe
    monkeypatch.setitem(kernels._NUMPY, "sin", lambda x: np.nextafter(np.sin(x), np.inf))
    assert kernels.whitelist() == (kernels.CANDIDATES - {"sin"} if HAVE_GCC else frozenset())


def test_transcendentals_and_a_dropped_op_stay_numpy(hot, twin, monkeypatch):
    """(f) No kernel computes ``exp`` / ``log`` / ``tanh`` / ``sigmoid``, nor
    ``sin`` once the probe drops it (a run holding it stays NumPy); results
    are NumPy's either way."""
    monkeypatch.setitem(kernels._BUILT, "whitelist", kernels.CANDIDATES - {"sin"})
    built, build = [], kernels._build

    def recording(items):
        fns = build(items)
        built.extend({op for _x, op, _a in kr.code} for (kr, _p), fn in zip(items, fns) if fn)
        return fns

    monkeypatch.setattr(kernels, "_build", recording)
    calls, xs = [], np.linspace(-2.0, 2.0, 40)
    for trig in (rp.sin, rp.cos):
        f = rp.compile(rp.trace_like(lambda v: rp.sum(rp.map(
            lambda x: rp.exp(x) * x + rp.log(x * x + 1.0) * rp.tanh(x) - trig(x) * x / 3.0
            + rp.sigmoid(x * 2.0) * x, v)), (np.ones(4),)))
        calls += [lambda f=f: f(xs), lambda f=f: rp.grad(f)(xs)]
    want, got = _numpy_then_hot(calls, monkeypatch)
    assert got == want
    assert all(sa == sb and same for _ran, sa, sb, same in twin)
    assert not any({"sin", "exp", "log", "tanh", "sigmoid"} & ops for ops in built)
    assert bool(built) == HAVE_GCC and (not built or "cos" in set().union(*built))


def _refuse(*_a, **_k):
    raise ImportError("cannot load a library from this directory")


def _no_dir(*_a, **_k):
    raise OSError(30, "Read-only file system")


@pytest.mark.parametrize("where,fail", [
    ("importlib.util.module_from_spec", _refuse), ("tempfile.mkdtemp", _no_dir)])
def test_a_kernel_that_will_not_build_or_load_falls_back_asking_once(hot, twin, monkeypatch,
                                                                     where, fail):
    """A launcher that compiles but will not load (as from a ``noexec``
    directory), or a build directory that cannot be made: every run is
    NumPy's, bitwise, each call counts a fallback, and the compiler is asked
    at most once in the process, not once per call."""
    asked, gcc = [], kernels._gcc
    monkeypatch.setattr(kernels, "_gcc", lambda *a, **k: asked.append(a[0]) or gcc(*a, **k))
    monkeypatch.setattr(kernels, "_BUILT", {})
    monkeypatch.setattr(where, fail)
    fc = _nested()
    calls = [lambda: fc(np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 6))] * 3
    want, got = _numpy_then_hot(calls, monkeypatch)
    assert got == want
    assert twin and not any(ran for ran, *_ in twin)
    st = plan_cache_stats()
    assert st["kernels"] == 0 and st["kernel_fallbacks"] >= 3
    assert len(asked) <= 1 and kernels._BUILT["launcher"] is None


def test_kernel_counters_and_profile_rows(hot, monkeypatch):
    """``plan_cache_stats`` and ``obs.snapshot`` carry the kernel counters;
    a profiled run that ran in C says so in its row."""
    from repro.obs import profiler

    for key in ("kernels", "kernel_vector_loops", "kernel_builds", "kernel_compile_s",
                "kernel_fallbacks", "promotions", "upd_kernel_calls", "upd_fallbacks"):
        assert key in plan_cache_stats() and key in obs.snapshot()["plan_cache"]
    monkeypatch.setenv("REPRO_PROFILE", "1")
    profiler.reset_profile()
    fc = _nested()
    for _ in range(2):
        fc(np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 6))
    rows = profiler.profile_report(top_k=10**6)["entries"]
    runs = [e for e in rows if e["kernel_calls"]]
    if HAVE_GCC:
        assert runs and all(e["kind"] == "run" for e in runs)
        assert "/C" in profiler.format_profile_report(top_k=10**6)
    else:
        assert not runs


def test_a_hot_gmm_gradient_adds_its_updates_in_c(monkeypatch):
    """A hot GMM gradient call at the benchmark's size makes 76 ``upd``s,
    all unmasked: 74 lane-summed view adds (the points axis summed, NumPy's
    order) and 2 plain ones.  At least the 74 run in C, with the fallbacks
    counted; profiled, their ``updacc`` rows carry ``kernel_calls`` and the
    report marks them ``/C``.  Results are NumPy's bits."""
    from repro.obs import profiler

    monkeypatch.setenv("REPRO_PROFILE", "1")
    n, d, k = 1024, 8, 8
    g = rp.grad(rp.compile(gmm.build_ir(n, d, k)), wrt=[0, 1, 2])
    args = datagen.gmm_instance(n, d, k, 0)[:4]
    (want,) = _numpy_bits(monkeypatch, [lambda: g(*args)])
    for _ in range(plan_mod.HOT_CALLS):
        assert _bits([lambda: g(*args)]) == [want]
    plan_mod.reset_plan_cache_stats()
    profiler.reset_profile()
    assert _bits([lambda: g(*args)]) == [want]
    st = plan_cache_stats()
    assert st["upd_kernel_calls"] + st["upd_fallbacks"] == (76 if HAVE_GCC else 0)
    rows = [e for e in profiler.profile_report(top_k=10**6)["entries"] if e["kind"] == "updacc"]
    assert sum(e["calls"] for e in rows) == 76
    if HAVE_GCC:
        assert st["upd_kernel_calls"] >= 74
        assert sum(e["kernel_calls"] for e in rows) == st["upd_kernel_calls"]
        assert "updacc/C" in profiler.format_profile_report(top_k=10**6)


def test_threads_share_one_kernel_run(hot, monkeypatch):
    """Several threads call one hot plan at once, through a first compile:
    every result is NumPy's and the run builds one variant, not one per
    thread."""
    fc, xs, y = _nested(), np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 6)
    (want,), _ = _numpy_then_hot([lambda: fc(xs, y)], monkeypatch)
    clear_plan_cache()
    got, switch = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.extend(_bits([lambda: fc(xs, y)] * 5)))
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 30
    assert plan_cache_stats()["kernels"] <= 1 and plan_cache_stats()["promotions"] == 1


def _kernel_runs():
    fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: rp.sin(x) * x + x * 2.0, v),
                                  (np.ones(4),)))
    ir = lower_fun(fc.fun)
    em = plan_mod._ClosureEmitter(layout(ir))
    em.emit_body(ir.body)
    return ir, em.lay, em.kernel_runs


@pytest.mark.parametrize("corrupt", ["export", "input"])
def test_verifier_catches_a_kernel_value_at_the_wrong_depth(corrupt, monkeypatch):
    """``REPRO_VERIFY`` re-derives each kernel run's partition and depths: a
    declared depth off by one is rejected."""
    monkeypatch.setattr(kernels, "MIN_OPS", 1)
    ir, lay, runs = _kernel_runs()
    assert runs
    verify_layout(ir, lay, "kernels", runs)
    run, kr = next(iter(runs.items()))
    if corrupt == "export":
        li, s, k = kr.exports[0]
        runs[run] = kr._replace(exports=((li, s, k + 1),) + kr.exports[1:])
    else:
        y, b = kr.inputs[0]
        runs[run] = kr._replace(inputs=((y, b + 1),) + kr.inputs[1:])
    with pytest.raises(VerifyError, match=f"kernel {corrupt}"):
        verify_layout(ir, lay, "kernels", runs)


@pytest.fixture
def warm(monkeypatch):
    """A process that has built its launcher and probe (once per process) and
    no loop yet; yields the loop count of each compiler call made after."""
    kernels.whitelist()
    monkeypatch.setattr(kernels, "_BUILT", {k: v for k, v in kernels._BUILT.items()
                                            if k in ("launcher", "whitelist", "dir")})
    asked, gcc = [], kernels._gcc
    monkeypatch.setattr(kernels, "_gcc",
                        lambda *a, **k: asked.append(k.get("loops")) or gcc(*a, **k))
    clear_plan_cache()
    yield asked
    clear_plan_cache()


def _gmm_grad():
    n, d, k = 32, 4, 3
    g = rp.grad(rp.compile(gmm.build_ir(n, d, k)), wrt=[0, 1, 2])
    args = datagen.gmm_instance(n, d, k, 0)[:4]
    return g, args


def test_a_hot_gmm_gradient_builds_all_its_loops_in_one_compiler_call(warm, monkeypatch):
    """GMM's gradient has many short kernel runs (its triangular ``Q·(x−μ)``
    loop, in the primal's sweep and beside its adjoint).  Its ``HOT_CALLS``-th
    call compiles every one of their loops in one compiler call, and no
    later call asks again; every call is bitwise NumPy's."""
    g, args = _gmm_grad()
    (want,) = _numpy_bits(monkeypatch, [lambda: g(*args)])
    for i in range(plan_mod.HOT_CALLS + 2):
        assert _bits([lambda: g(*args)]) == [want]
        assert len(warm) == int(HAVE_GCC and i >= plan_mod.HOT_CALLS - 1)
    st = plan_cache_stats()
    assert st["kernel_builds"] == len(warm) and st["promotions"] == 1
    if HAVE_GCC:
        assert warm[0] == st["kernels"] >= 10 and st["kernel_fallbacks"] == 0


def _two_runs():
    def f(x, y):
        def outer(a):
            s = rp.sum(rp.map(lambda b: rp.sin(a * b) * a + b * b, y))
            return rp.sum(rp.map(lambda b: rp.cos(b * s) * a - b / (a + 2.0), y))

        return rp.sum(rp.map(outer, x))

    return rp.compile(rp.trace_like(f, (np.ones(3), np.ones(4))))


def test_a_pattern_first_met_on_a_later_hot_call_costs_one_more_build(warm, monkeypatch):
    """``x`` of extent 1 makes ``a`` lane-uniform in both inner runs of a hot
    plan: that call queues both new patterns, and the next builds them in
    one more compiler call, not one per run."""
    fc, y = _two_runs(), np.linspace(0.5, 1.5, 6)
    calls = [lambda: fc(np.linspace(-1.0, 1.0, 5), y), lambda: fc(np.array([0.75]), y)]
    want = _numpy_bits(monkeypatch, calls)
    for _ in range(plan_mod.HOT_CALLS):
        assert _bits(calls[:1]) == want[:1]
    before = list(warm)
    for _ in range(3):
        assert _bits(calls[::-1]) == want[::-1]
    assert len(warm) == len(before) + int(HAVE_GCC)
    if HAVE_GCC:
        assert warm[-1] == 2 and plan_cache_stats()["kernel_fallbacks"] == 0


def _loops_refused(*_a, **_k):
    raise OSError("cannot load this library")


@pytest.mark.parametrize("fail", ["compile", "load"])
def test_a_plan_build_that_fails_runs_numpy_and_asks_once(warm, monkeypatch, fail):
    """A plan's one build fails, in the compiler or when its library is
    loaded: every call stays bitwise NumPy's, counts its fallbacks, and the
    compiler is asked once, not once per run or per call."""
    g, args = _gmm_grad()
    (want,) = _numpy_bits(monkeypatch, [lambda: g(*args)])
    if fail == "compile":
        gcc = kernels._gcc
        monkeypatch.setattr(kernels, "_gcc", lambda *a, **k: gcc(*a, **k) and None)
    else:
        monkeypatch.setattr("ctypes.CDLL", _loops_refused)
    for _ in range(plan_mod.HOT_CALLS + 3):
        assert _bits([lambda: g(*args)]) == [want]
    st = plan_cache_stats()
    assert len(warm) == int(HAVE_GCC) and st["kernels"] == 0
    assert st["kernel_fallbacks"] > 0 and st["kernel_builds"] == len(warm)


def test_a_traced_hot_call_shows_its_one_build(warm, tmp_path, monkeypatch):
    """A traced ``HOT_CALLS``-th call holds one ``kernel_build`` span
    (``compile``, with its loop count) inside its ``execute``, and
    ``kernel_builds`` counts it in ``plan_cache_stats`` and ``obs.snapshot``."""
    g, args = _gmm_grad()
    for _ in range(plan_mod.HOT_CALLS - 1):
        g(*args)
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "trace.json"))
    tracing.reset()
    g(*args)
    evs = [e for e in tracing.events() if e["ph"] in "BE"]
    builds = [i for i, e in enumerate(evs) if e["name"] == "kernel_build" and e["ph"] == "B"]
    assert len(builds) == int(HAVE_GCC)
    assert obs.snapshot()["plan_cache"]["kernel_builds"] == plan_cache_stats()["kernel_builds"]
    assert plan_cache_stats()["kernel_builds"] == len(builds)
    if builds:
        (b,) = builds
        assert evs[b]["cat"] == "compile" and evs[b]["args"]["loops"] == warm[0] >= 10
        ex = max(i for i, e in enumerate(evs[:b]) if e["name"] == "execute" and e["ph"] == "B")
        assert not any(e["name"] == "execute" for e in evs[ex + 1:b])


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 2.2e-308, 1.7e308,
                     1e22, -4e9, np.pi, 1e-8, -1.0])


def _one_loop(ops, depth):
    """A kernel run computing each of ``ops`` on inputs ``x`` (and ``y``) of
    batch depth ``depth``, every result exported."""
    code = tuple((i, op, (("in", 0), ("in", 1))[:1 + (op in kernels._BINOPS)])
                 for i, op in enumerate(ops))
    return kernels.KernelRun((), ((0, depth), (1, depth)),
                             tuple((i, i, depth) for i in range(len(ops))), code)


def _views(n, depth):
    """Input pairs of extent ``n`` (rows of ``4`` at depth 2): contiguous,
    reversed, a stride-0 broadcast, a stride-24 view (at depth 2 HAND's
    ``(0, 24)`` strides) and one buffer passed as both inputs."""
    rng = np.random.default_rng(n)
    base = np.resize(np.r_[_SPECIAL, rng.standard_normal(3 * n) * 1e3], 3 * n)
    x, y = base[:n], np.resize(np.r_[_SPECIAL[::-1], rng.standard_normal(n)], n)
    pairs = {"contiguous": (x, y), "reversed": (x[::-1], y[::-1]),
             "broadcast": (np.broadcast_to(x[n // 2], (n,)), y), "stride24": (base[::3], y),
             "aliased": (x, x)}
    if depth == 2:
        pairs = {k: (np.broadcast_to(a, (4, n)), np.broadcast_to(b, (4, n)))
                 for k, (a, b) in pairs.items()}
        pairs["aliased"] = (pairs["aliased"][0],) * 2
        pairs["rows"] = (np.broadcast_to(x, (4, n)), rng.standard_normal((4, n))[:, ::-1])
    return pairs


@pytest.mark.parametrize("depth", [1, 2])
def test_vectorised_loops_are_bitwise_numpy_at_every_remainder_and_view(warm, depth):
    """Every candidate in a compiled loop, each extent leaving a different
    vector remainder, through reversed, broadcast, strided and aliased
    inputs: the bits of the NumPy function plans call.  The arithmetic ops
    share one loop, which gcc vectorises (a loop calling ``sin`` / ``cos`` /
    ``sqrt`` it leaves scalar, so those get one loop each)."""
    arith = tuple(sorted(kernels.CANDIDATES - {"sin", "cos", "sqrt"}))
    runs = [arith, ("sin",), ("cos",), ("sqrt",)]
    vector_loops = plan_cache_stats()["kernel_vector_loops"]
    for n in (1, 3, 7, 9, 17, 1000):
        for name, (x, y) in _views(n, depth).items():
            pats = tuple(sum(1 << a for a, e in enumerate(d.shape) if e != 1) for d in (x, y))
            fns = kernels._build([(_one_loop(ops, depth), pats) for ops in runs])
            assert all(fn is not None for fn in fns) == HAVE_GCC
            for ops, fn in zip(runs, fns if HAVE_GCC else ()):
                got = fn([x, y])
                assert got is not None, (n, name, ops)
                with np.errstate(all="ignore"):
                    for op, g in zip(ops, got):
                        want = np.asarray(kernels._NUMPY[op](*(x, y)[:1 + (op in kernels._BINOPS)]))
                        assert g.shape == want.shape, (n, name, op)
                        assert np.array_equal(g.view(np.uint64), want.view(np.uint64)), \
                            (n, name, op)
    if HAVE_GCC:
        assert plan_cache_stats()["kernel_vector_loops"] > vector_loops


def _classes_run():
    """``sin(x)`` along axis 0 (a temporary), times ``y`` along axis 1."""
    return kernels.KernelRun((), ((0, 2), (1, 2)), ((1, 1, 2),),
                             ((0, "sin", (("in", 0),)), (1, "mul", (("op", 0), ("in", 1)))))


def test_a_loop_emitted_before_a_class_it_reads_trips_the_ivdep_premise(monkeypatch):
    """``_loops`` marks each innermost loop ``ivdep``, and asserts the premise:
    a loop reads only buffers that loops over a strict subset of its axes
    wrote before it.  Emitting the classes in reverse breaks it."""
    src, _tables = kernels._loops(_classes_run(), (1, 2))
    assert src.count("#pragma GCC ivdep") == 2
    monkeypatch.setattr(kernels, "sorted", lambda xs, key=None: sorted(xs, key=key, reverse=True),
                        raising=False)
    with pytest.raises(AssertionError):
        kernels._loops(_classes_run(), (1, 2))


@pytest.mark.skipif(not HAVE_GCC, reason="no gcc on PATH: nothing compiles")
def test_a_hot_hand_jvp_runs_vectorised_loops(warm, monkeypatch):
    """HAND's Jacobian is one long fused run over its lanes: gcc reports at
    least one of its loops vectorised, and the results stay NumPy's."""
    inp = datagen.hand_instance(3, 16, 0)
    fwd = rp.jvp(rp.compile(hand.build_ir(3, 16)))
    (want,) = _numpy_bits(monkeypatch, [lambda: hand.jacobian_fwd_ad(fwd, *inp)])
    for _ in range(plan_mod.HOT_CALLS):
        assert _bits([lambda: hand.jacobian_fwd_ad(fwd, *inp)]) == [want]
    st = plan_cache_stats()
    assert st["kernels"] >= 1 and st["kernel_vector_loops"] >= 1


def _c_engine(bstack, c, mask=None):
    eng = plan_mod._Engine(0, True, c)
    eng.bstack[:], eng.mask = list(bstack), mask
    return eng


def _upd_both(acc, ka, idxs, v, affine, mask=None, c=None):
    """``upd acc[idxs] += v`` (``idxs``: ``(data, depth)``; ``v``'s payload
    is ``acc``'s element's) on NumPy's code and through ``c`` (the C
    ``updacc``): both accumulators' bytes, and whether the C one ran in C."""
    bs = [b for _d, b in idxs]
    kv = v.ndim - (acc.ndim - ka - len(idxs))
    k = max([ka, kv] + bs)
    vt = None if affine is None else V._view_template(ka, bs, affine, k)
    lay = (k, vt, V._upd_table(k, ka, kv, bs, affine, vt))
    bstack = [max([1] + [np.shape(d)[t] for d, b in [*idxs, (v, kv)] if t < b]) for t in range(k)]
    out = []
    for fn in (None, c):
        got = V.AccBV(acc.copy(), ka)
        eng = _c_engine(bstack, fn, mask)
        with np.errstate(all="ignore"):
            V._upd_acc(eng, got, [V.BV(d, b) for d, b in idxs], V.BV(v, kv), affine, lay)
        out.append((got.data.tobytes(), eng.upd_calls[1]))
    (a, _), (b, ran) = out
    return a, b, bool(ran)


def _values(rng, shape):
    """A spread over 6 decades, whose sums depend on their order, and in the
    first points signed zeros, NaN, infinities and subnormals."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310]
    x.flat[:7] = special[:x.size]
    return x


def _lane(n, level, depth):
    return np.arange(n).reshape((1,) * level + (n,) + (1,) * (depth - 1 - level))


#: View-path updates: accumulator shape and batch depth, index operands
#: (data, depth; an ``_lane`` or a uniform 0-d), the value's shape (at the
#: update's depth), its lane flags, and whether NumPy sums its lanes in C
#: order (a sum of an innermost axis, or of everything into one element,
#: it makes pairwise: the C path declines).
_VIEW_UPDS = [
    ("gmm", (8, 36), 0, [(_lane(8, 1, 2), 2), (np.array(3), 0)], (1024, 8), (True, False), True),
    ("square", (16, 4), 0, [(_lane(16, 1, 2), 2), (np.array(1), 0)], (16, 16), (True, False), True),
    ("lstm", (64,), 0, [(_lane(64, 1, 2), 2)], (16, 64), (True,), True),
    ("rows", (8, 36), 0, [(_lane(8, 1, 2), 2), (_lane(8, 2, 3), 3)], (1024, 8, 8), (True, True),
     True),
    ("acc-batch", (4, 8), 1, [(_lane(8, 2, 3), 3)], (4, 64, 8), (True,), True),
    ("no-index", (8,), 0, [], (1024, 8), None, True),
    ("plain", (8, 28), 0, [(_lane(8, 0, 1), 1), (_lane(28, 1, 2), 2)], (8, 28), (True, True), True),
    ("inner-sum", (8,), 0, [(_lane(8, 0, 1), 1)], (8, 1024), (True,), False),
    ("column", (1,), 0, [(_lane(1, 1, 2), 2)], (1024, 1), (True,), False),
]


@pytest.mark.parametrize("name,acc,ka,idxs,vshape,affine,seq", _VIEW_UPDS,
                         ids=[u[0] for u in _VIEW_UPDS])
def test_c_updacc_view_path_is_bitwise_numpy(name, acc, ka, idxs, vshape, affine, seq):
    """The C ``updacc``'s view path: a strided add, lanes no index varies
    along summed first, is NumPy's ``sum`` then ``+=``, bitwise, on every
    shape NumPy sums in C order; a shape it sums pairwise (``(8, 1024)``
    over axis 1, ``(1024, 1)`` over axis 0) the C path declines, and the
    result is NumPy's all the same."""
    rng = np.random.default_rng(len(name))
    start = _values(rng, acc)
    start.flat[0] = -0.0  # a sum from +0.0 into -0.0 is +0.0
    a, b, ran = _upd_both(start, ka, idxs, _values(rng, vshape), affine, c=kernels.updacc())
    assert a == b
    assert ran == (HAVE_GCC and seq)


@pytest.mark.parametrize("ka", [0, 1])
@pytest.mark.parametrize("row", [(), (2,)], ids=["scalars", "rows"])
def test_c_updacc_scatter_path_is_bitwise_add_at(ka, row):
    """The C ``updacc``'s scatter path is ``np.add.at``, bitwise: duplicate,
    negative and past-the-end (clipped) indices, one or two index operands,
    signed zeros, NaN of either sign and infinities in the values and the
    accumulator; under a mask it declines."""
    rng = np.random.default_rng(ka + len(row))
    c = kernels.updacc()
    for trial in range(20):
        start = _values(rng, (4,) * ka + (5, 3) + row)
        start.flat[-1] = -np.nan
        i0 = rng.integers(-3, 8, (4, 7))
        i1 = rng.integers(-2, 5, (1, 7)) if trial % 2 else np.array(trial % 4)
        v = _values(rng, (4, 7) + row)
        v.flat[-1] = -np.nan
        a, b, ran = _upd_both(start, ka, [(i0, 2), (i1, i1.ndim)], v, None, c=c)
        assert a == b and ran == HAVE_GCC
    mask = V.BV(rng.random((4, 7)) < 0.5, 2)
    a, b, ran = _upd_both(start, ka, [(i0, 2), (i1, i1.ndim)], v, None, mask, c)
    assert a == b and not ran


#: Mutations of the C lane sum the probe must catch: summing an innermost
#: axis in order (NumPy sums it pairwise), and sums that start from -0.0.
_LANE_SUM_MUTANTS = {
    "innermost-in-order": ("(last >= 0 && E[last])", "0"),
    "from-minus-zero": ("if ((tmp = calloc(K, 8)) == NULL) return PyErr_NoMemory();",
                        "if ((tmp = calloc(K, 8)) == NULL) return PyErr_NoMemory();\n"
                        "            for (npy_intp q = 0; q < K; q++) ((double *)tmp)[q] = -0.0;"),
}


@pytest.mark.skipif(not HAVE_GCC, reason="no gcc on PATH: nothing compiles")
@pytest.mark.parametrize("mutant", sorted(_LANE_SUM_MUTANTS))
def test_the_probe_catches_a_mutated_lane_sum(mutant, monkeypatch):
    """A launcher whose lane sum is not NumPy's fails the probe at load: its
    lane-summed updates run NumPy's code (bitwise), its scatters still C."""
    old, new = _LANE_SUM_MUTANTS[mutant]
    assert kernels._LAUNCHER.count(old) == 1
    monkeypatch.setattr(kernels, "_LAUNCHER", kernels._LAUNCHER.replace(old, new))
    monkeypatch.setattr(kernels, "_BUILT", {})
    c = kernels.updacc()
    assert c.args == (False,)
    assert not kernels._sums_agree(kernels._BUILT["launcher"].updacc)
    _name, acc, ka, idxs, vshape, affine, _seq = _VIEW_UPDS[0]
    rng = np.random.default_rng(0)
    a, b, ran = _upd_both(_values(rng, acc), ka, idxs, _values(rng, vshape), affine, c=c)
    assert a == b and not ran
    i0 = rng.integers(-3, 8, (4, 7))
    a, b, ran = _upd_both(_values(rng, (5, 2)), 0, [(i0, 2)], _values(rng, (4, 7, 2)), None, c=c)
    assert a == b and ran
