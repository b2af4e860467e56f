"""DCE tests — including the paper's headline §4.1 claim: perfectly-nested
scopes introduce NO re-execution because the redundant forward sweeps are
dead code."""
import numpy as np
import pytest

import repro as rp
from repro.frontend.function import Compiled
from repro.ir import count_stms, pretty
from repro.ir.ast import Map
from repro.opt.dce import dce_fun
from repro.opt.pipeline import optimize_fun
from repro.core.vjp import vjp_fun

rng = np.random.default_rng(6)


def _maps_in(fun):
    return pretty(fun).count("map (")


def test_dce_removes_unused_binding():
    def f(x):
        return x * 2.0  # the traced sin is dead

    fun = rp.trace_like(lambda x: (rp.sin(x), x * 2.0)[1], (1.0,))
    d = dce_fun(fun)
    assert count_stms(d) < count_stms(fun)


def test_dce_preserves_semantics():
    def f(xs):
        rp.map(lambda x: rp.exp(x), xs)  # dead
        return rp.sum(rp.map(lambda x: x * x, xs))

    fun = rp.trace_like(f, (np.ones(4),))
    d = dce_fun(fun)
    xs = rng.standard_normal(4)
    assert Compiled(d, passes=())(xs) == Compiled(fun, passes=())(xs)
    assert _maps_in(d) < _maps_in(fun)


def test_dce_shrinks_partially_dead_map():
    def f(xs):
        a, b = rp.map(lambda x: (x * 2.0, rp.exp(x)), xs)
        return rp.sum(a)

    fun = rp.trace_like(f, (np.ones(4),))
    d = dce_fun(fun)
    # the exp column disappears
    assert "exp" not in pretty(d)


def test_perfect_nest_no_reexecution():
    """Paper §4.1 / Fig. 2: after DCE, the differentiated perfect map nest
    contains no re-executed forward-sweep statements — the adjoint program's
    operation count is a small multiple of the primal's."""
    def f(ass):
        return rp.map(lambda as_: rp.map(lambda a: a * a, as_), ass)

    fun = optimize_fun(rp.trace_like(f, (np.ones((3, 4)),)))
    raw = vjp_fun(fun)
    opt = optimize_fun(raw)
    # DCE strips the re-executed inner map of the return sweep:
    assert count_stms(opt) < count_stms(raw)
    # Cost-model check: adjoint work ≤ ~4x primal work (constant, not depth-
    # dependent — the Fig. 2 claim).
    ass = rng.standard_normal((8, 16))
    prim = Compiled(fun, passes=())
    adj = Compiled(opt, passes=())
    cp = prim.cost(ass)
    ca = adj.cost(ass, np.ones((8, 16)))
    assert ca.work <= 6 * cp.work, (ca.work, cp.work)


def test_fig2_structure_if_inside_map():
    """The full Fig. 2 shape: branch inside a map over a nested map."""
    def f(cs, ass):
        def per(c, as_):
            return rp.cond(
                c > 0.0,
                lambda: rp.map(lambda a: a + 1.0, as_),
                lambda: rp.map(lambda a: a * a, as_),
            )

        return rp.map(per, cs, ass)

    fun = optimize_fun(rp.trace_like(f, (np.ones(3), np.ones((3, 4)))))
    raw = vjp_fun(fun)
    opt = optimize_fun(raw)
    assert count_stms(opt) < count_stms(raw)
    # Semantics preserved after DCE:
    cs = rng.standard_normal(3)
    ass = rng.standard_normal((3, 4))
    seed = rng.standard_normal((3, 4))
    r1 = Compiled(raw, passes=())(cs, ass, seed)
    r2 = Compiled(opt, passes=())(cs, ass, seed)
    for a, b in zip(r1, r2):
        np.testing.assert_allclose(np.asarray(a), np.asarray(b))


# ---------------------------------------------------------------------------
# Loop shrinking: a carried parameter nobody reads goes, with its init
# ---------------------------------------------------------------------------


def _loops(fun):
    from repro.ir.ast import Loop
    from repro.ir.traversal import map_bodies

    out = []

    def walk(body):
        for s in body.stms:
            if isinstance(s.exp, Loop):
                out.append(s.exp)
            map_bodies(s.exp, walk)
        return body

    walk(fun.body)
    return out


def _same_on_ref(a, b, *args):
    ra = Compiled(a, passes=())(*args, backend="ref")
    rb = Compiled(b, passes=())(*args, backend="ref")
    for x, y in zip(ra if isinstance(ra, tuple) else (ra,), rb if isinstance(rb, tuple) else (rb,)):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def test_dce_drops_a_dead_loop_parameter_with_its_init():
    def f(x):
        a, dead = rp.fori_loop(5, lambda i, a, b: (a * 0.9 + x, rp.exp(b)), (x, x * 2.0))
        return a

    fun = rp.trace_like(f, (1.0,))
    d = dce_fun(fun)
    (before,), (after,) = _loops(fun), _loops(d)
    assert len(before.params) == 2 and len(after.params) == 1 and len(after.inits) == 1
    assert "exp" not in pretty(d) and "2.0" not in pretty(d)  # next value and init are gone too
    _same_on_ref(fun, d, 0.7)


def test_dce_keeps_a_live_loop_parameter_and_the_annotations():
    def f(x):
        a, b = rp.fori_loop(
            6, lambda i, a, b: (a * 0.9 + x, b + 1.0), (x, x), stripmine=2)
        return a + b

    fun = rp.trace_like(f, (1.0,))
    assert dce_fun(fun) is fun
    # ... and a shrunk loop keeps them
    g = rp.trace_like(
        lambda x: rp.fori_loop(
            6, lambda i, a, b: (a * 0.9 + x, b + 1.0), (x, x), stripmine=2)[0], (1.0,))
    (loop,) = _loops(dce_fun(g))
    assert len(loop.params) == 1 and loop.stripmine == 2


def test_dce_keeps_a_dead_parameter_that_feeds_a_live_one_through_another():
    # c's result is dead, but c feeds b's next value and b feeds a's: both stay;
    # d feeds nothing live and goes.
    def f(x):
        a, b, c, d = rp.fori_loop(
            4,
            lambda i, a, b, c, d: (a + b, b * c, c + 0.5, d * a),
            (x, x, x, x))
        return a

    fun = rp.trace_like(f, (1.0,))
    d = dce_fun(fun)
    (loop,) = _loops(d)
    assert len(loop.params) == 3 and len(loop.body.result) == 3
    _same_on_ref(fun, d, 0.3)


def test_dce_never_drops_an_accumulator_parameter():
    from repro.ir.types import AccType
    from repro.opt.dce import _shrink_loop

    # A loop under a map that reads an outer array: the reverse loop threads
    # that array's accumulator, and its updates are the loop's effect whether
    # or not anything reads the loop's accumulator result.
    def f(xs, ws):
        return rp.sum(rp.map(
            lambda x: rp.fori_loop(3, lambda i, a: a * ws[i] + x, x), xs))

    fun = optimize_fun(rp.trace_like(f, (np.ones(4), np.ones(3))))
    raw = vjp_fun(fun)
    opt = dce_fun(raw)
    accs = lambda g: [  # noqa: E731
        lp for lp in _loops(g) if any(isinstance(p.type, AccType) for p in lp.params)]
    assert accs(raw) and len(accs(opt)) == len(accs(raw))
    _same_on_ref(raw, opt, rng.standard_normal(4), rng.standard_normal(3), 1.0)
    # ... even with every result declared dead
    (loop,) = accs(opt)
    keep = [False] * len(loop.params)
    cut = _shrink_loop(loop, keep)
    assert [p for p in loop.params if isinstance(p.type, AccType)] == [
        p for p in cut.params if isinstance(p.type, AccType)]
    assert [p for p, k in zip(loop.params, keep) if k] == list(cut.params)


def test_gmm_gradient_fills_no_checkpoint_in_its_inner_forward_loop():
    # The loop rule checkpoints every carried value (`scratch` + one whole-array
    # `update` per iteration); where the reverse sweep never reads them the
    # arrays are dead results of the forward loop and go.
    from repro.apps import gmm
    from repro.ir.ast import ScratchLike, Update

    g = rp.grad(rp.compile(gmm.build_ir(16, 4, 3)), wrt=[0, 1, 2]).adfun.fun
    inner = [lp for lp in _loops(g) if not _loops_in_body(lp)]
    forward = [lp for lp in inner if not any(p.name.endswith("_bar") for p in lp.params)]
    assert forward
    for lp in forward:
        assert not any(isinstance(s.exp, (Update, ScratchLike)) for s in lp.body.stms)


def _loops_in_body(loop):
    from repro.ir.ast import Fun

    return _loops(Fun("b", (), loop.body))


def test_dce_is_bitwise_on_ref_for_every_app():
    # The raw reverse-mode program of every app, before and after DCE, on the
    # reference interpreter: identical results, and never more statements.
    from test_mem_plan import _APPS

    for name in sorted(_APPS):
        inp, ir, _call = _APPS[name]()
        fun = optimize_fun(rp.compile(ir).fun)
        raw = vjp_fun(fun)
        cut = dce_fun(raw)
        assert count_stms(cut) <= count_stms(raw), name
        inp = tuple(np.asarray(a) for a in inp)
        res = Compiled(fun, passes=())(*inp, backend="ref")
        seeds = tuple(np.ones_like(np.asarray(r)) for r in (res if isinstance(res, tuple) else (res,)))
        _same_on_ref(raw, cut, *inp, *seeds)


# ---------------------------------------------------------------------------
# Dead accumulators: a dead `withacc` result goes with its whole update chain
# ---------------------------------------------------------------------------


def _acc_nest():
    """``withacc (ā, c̄)`` over a two-level map nest: element ``xss[r, j]``
    adds itself into ``ā[j]`` and its square into ``c̄[j]``; the outer map
    also yields each row's first element, a secondary result of the
    ``withacc``.  Returns ``(c̄, firsts)``: ``ā`` is dead."""
    from repro.ir import F64, I64, AccType, Builder, Fun, Lambda, Var, array, const
    from repro.ir.ast import Size

    acc = AccType(F64, 1)
    xss, a, c = Var("xss", array(F64, 2)), Var("a", array(F64, 1)), Var("c", array(F64, 1))
    x, j, ia, ic = Var("x", F64), Var("j", I64), Var("ia", acc), Var("ic", acc)
    ib = Builder()
    inner = Lambda((x, j, ia, ic), ib.finish([ib.upd_acc(ia, j, x), ib.upd_acc(ic, j, ib.mul(x, x))]))
    xs, oa, oc = Var("xs", array(F64, 1)), Var("oa", acc), Var("oc", acc)
    ob = Builder()
    js = ob.iota(ob.emit1(Size(xs), "n"))
    oa2, oc2 = ob.map(inner, [xs, js], [oa, oc], names=["oa", "oc"])
    outer = Lambda((xs, oa, oc), ob.finish([oa2, oc2, ob.index(xs, (const(0, I64),), "x0")]))
    wa, wc = Var("wa", acc), Var("wc", acc)
    wb = Builder()
    wa2, wc2, firsts = wb.map(outer, [xss], [wa, wc], names=["wa", "wc", "firsts"])
    b = Builder()
    _abar, cbar, fs = b.with_acc(
        [b.zeros_like(a), b.zeros_like(c)], Lambda((wa, wc), wb.finish([wa2, wc2, firsts])),
        names=["abar", "cbar", "fs"])
    return Fun("nest", (xss, a, c), b.finish([cbar, fs]))


def _withaccs(fun):
    from repro.ir.ast import WithAcc

    return [s.exp for s in fun.body.stms if isinstance(s.exp, WithAcc)]


def _as_tuple(r):
    return r if isinstance(r, tuple) else (r,)


def _cut_is_sound(fun, *args):
    """``dce_fun(fun)``, checked: well-typed, the accumulator discipline
    holds, and bitwise-equal to ``fun`` on every backend."""
    from repro.ir import check_fun, validate_fun

    cut = dce_fun(fun)
    check_fun(cut)
    validate_fun(cut)
    for be in ("ref", "plan"):
        want = _as_tuple(Compiled(fun, passes=())(*args, backend=be))
        got = _as_tuple(Compiled(cut, passes=())(*args, backend=be))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), be
    return cut


def test_dce_drops_a_dead_accumulator_through_a_two_level_map_nest():
    fun = _acc_nest()
    cut = _cut_is_sound(fun, rng.standard_normal((3, 4)), rng.standard_normal(4),
                        rng.standard_normal(4))
    (wa,) = _withaccs(cut)
    assert len(wa.arrs) == len(wa.lam.params) == 1 and len(wa.lam.body.result) == 2
    (outer,) = [s for s in wa.lam.body.stms if isinstance(s.exp, Map)]
    (was,) = [s for s in _withaccs(fun)[0].lam.body.stms if isinstance(s.exp, Map)]
    assert len(outer.exp.accs) == 1 and outer.pat == was.pat[1:]  # c̄'s acc and the firsts
    (inner,) = [s.exp for s in outer.exp.lam.body.stms if isinstance(s.exp, Map)]
    assert len(inner.accs) == 1 and len(inner.lam.params) == 3
    assert len(inner.lam.body.stms) == 2  # x*x and the one upd left
    assert "abar" not in pretty(cut) and "zeros_like(a)" not in pretty(cut)


def _chain_through(kind):
    """``withacc`` of two accumulators whose first (dead) one is threaded
    through a ``loop`` or an ``if`` that updates it; the second is live."""
    from repro.ir import BOOL, F64, I64, AccType, Builder, Fun, Lambda, Var, array, const

    acc = AccType(F64, 1)
    a, wa, wc, p, i = Var("a", array(F64, 1)), Var("wa", acc), Var("wc", acc), Var("p", acc), Var("i", I64)
    wb = Builder()
    if kind == "loop":
        lb = Builder()
        step = lb.finish([lb.upd_acc(p, const(0, I64), const(1.0, F64))])
        (la,) = wb.loop([p], [wa], i, const(2, I64), step, names=["la"])
    else:
        tb = Builder()
        then = tb.finish([tb.upd_acc(wa, const(0, I64), const(1.0, F64))])
        (la,) = wb.if_(const(True, BOOL), then, Builder().finish([wa]), names=["la"])
    wc2 = wb.upd_acc(wc, const(0, I64), const(2.0, F64))
    b = Builder()
    _abar, cbar = b.with_acc([b.zeros_like(a), b.zeros_like(a)], Lambda((wa, wc), wb.finish([la, wc2])))
    return Fun(kind + "_chain", (a,), b.finish([cbar]))


def test_dce_drops_a_dead_accumulator_through_a_loop_but_not_an_if():
    # A loop threads an accumulator as a map does (the min/max rule's hot
    # lane runs in one); an ``if`` is not followed.
    cut = _cut_is_sound(_chain_through("loop"), np.ones(3))
    (wa,) = _withaccs(cut)
    assert len(wa.arrs) == 1 and not _loops(cut)
    fun = _chain_through("if")
    assert _cut_is_sound(fun, np.ones(3)) is fun


def test_a_mutant_that_drops_a_live_accumulator_is_caught(monkeypatch):
    from repro.opt import dce
    from repro.util import ReproError

    real = dce._shrink_withacc

    def every_accumulator_dead(e, keep):
        keep[: len(e.arrs)] = [False] * len(e.arrs)
        return real(e, keep)

    args = (np.ones((2, 3)), np.ones(3), np.ones(3))
    _cut_is_sound(_acc_nest(), *args)
    monkeypatch.setattr(dce, "_shrink_withacc", every_accumulator_dead)
    with pytest.raises(ReproError):
        _cut_is_sound(_acc_nest(), *args)


# ---------------------------------------------------------------------------
# A fused reduce/scan/hist drops the element arrays its operator never reads
# ---------------------------------------------------------------------------


def _soac_fun(kind, k, op_body, n_elems):
    """``kind`` ∈ reduce/scan/hist over ``n_elems`` arrays with the ``k``-ary
    operator ``op_body(builder, accs, elems) -> results``, neutral 0.0."""
    from repro.ir import F64, I64, Builder, Fun, Lambda, Var, array, const

    arrs = [Var(f"xs{j}", array(F64, 1)) for j in range(n_elems)]
    inds = Var("inds", array(I64, 1))
    accs = [Var(f"acc{i}", F64) for i in range(k)]
    elems = [Var(f"x{j}", F64) for j in range(n_elems)]
    lb = Builder()
    lam = Lambda(tuple(accs + elems), lb.finish(op_body(lb, accs, elems)))
    nes = [const(0.0, F64)] * k
    b = Builder()
    if kind == "reduce":
        out = b.reduce(lam, nes, arrs)
    elif kind == "scan":
        out = b.scan(lam, nes, arrs)
    else:
        out = b.reduce_by_index(const(3, I64), lam, nes, inds, arrs)
    return Fun(kind, tuple(arrs) + (inds,), b.finish(list(out)))


def _twice_x0(b, accs, elems):
    from repro.ir import F64, const

    return [b.add(accs[0], b.mul(elems[0], const(2.0, F64)))]


def _count(b, accs, elems):
    from repro.ir import F64, const

    return [b.add(accs[0], const(1.0, F64))]


def _soac_args(n_elems):
    return tuple(rng.standard_normal(5) for _ in range(n_elems)) + (np.array([0, 2, 1, 2, 5]),)


@pytest.mark.parametrize("kind", ["reduce", "scan", "hist"])
def test_dce_drops_an_unread_operand_of_a_fused_soac(kind):
    # \acc x0 x1 x2 -> acc + 2·x0: x1 and x2 go; so do both of \acc x0 x1 ->
    # acc + 1.0's, but one array stays for the extent.
    for op_body, n in ((_twice_x0, 3), (_count, 2)):
        fun = _soac_fun(kind, 1, op_body, n)
        e = _cut_is_sound(fun, *_soac_args(n)).body.stms[-1].exp
        assert [a.name for a in e.arrs] == ["xs0"] and len(e.lam.params) == 2


@pytest.mark.parametrize("kind", ["reduce", "scan", "hist"])
def test_dce_leaves_a_canonical_operator_alone(kind):
    # (k+k) operators: an element parameter is the operator's right operand,
    # read or not — \a b -> a + 1.0 and \a1 a2 b1 b2 -> (a1 + b1, a2).
    def pair(b, accs, elems):
        return [b.add(accs[0], elems[0]), b.copy(accs[1])]

    for k, op_body in ((1, _count), (2, pair)):
        fun = _soac_fun(kind, k, op_body, k)
        assert _cut_is_sound(fun, *_soac_args(k)) is fun
