"""Reverse-mode AD of control flow: loops (checkpointing, strip-mining,
entry-only checkpointing proved from the body), branches, while loops
(bounds + inspector), second order."""
import numpy as np
import pytest

import repro as rp
import repro.core.rules_loop as rules_loop
from helpers import BACKENDS, check_grad, fd_grad, peak_mb
from repro.baselines import eager as eg
from repro.ir.analysis import entry_params
from repro.ir.ast import Loop
from repro.ir.pretty import pretty
from repro.ir.types import rank_of
from repro.util import ADError

rng = np.random.default_rng(5)


def test_loop_checkpointing_basic():
    def f(x):
        return rp.fori_loop(6, lambda i, a: rp.sin(a) * x, x)

    check_grad(f, (np.array(0.8),))


def test_loop_with_free_array():
    def f(xs):
        def step(i, acc):
            return acc * rp.sum(rp.map(lambda x: rp.sin(x * acc), xs)) + 0.1

        return rp.fori_loop(4, step, 1.0)

    check_grad(f, (rng.standard_normal(3) * 0.3,))


def test_loop_inside_map():
    def f(xs):
        return rp.sum(rp.map(lambda x: rp.fori_loop(5, lambda i, a: a * x + 0.1, 1.0), xs))

    check_grad(f, (rng.standard_normal(4) * 0.4,))


def test_loop_array_state():
    def f(xs):
        def step(i, arr):
            return rp.map(lambda v: v * xs[i % 3], arr)

        out = rp.fori_loop(4, step, xs)
        return rp.sum(out)

    check_grad(f, (rng.standard_normal(3),))


def test_loop_zero_iterations():
    def f(x):
        return rp.fori_loop(0, lambda i, a: a * x, x * 2.0)

    fc, g = check_grad(f, (np.array(1.5),))
    assert g(np.array(1.5)) == 2.0


def test_stripmine_equivalence():
    def make(sm):
        def f(xs):
            def step(i, a):
                return a * rp.sin(a + xs[i % 5])

            return rp.fori_loop(32, step, 1.0, stripmine=sm)

        return rp.compile(rp.trace_like(f, (np.ones(5),)))

    xs = rng.standard_normal(5)
    g0 = rp.grad(make(0))(xs)
    g4 = rp.grad(make(4))(xs)
    g8 = rp.grad(make(8))(xs)
    np.testing.assert_allclose(g0, g4, rtol=1e-10)
    np.testing.assert_allclose(g0, g8, rtol=1e-10)


def test_stripmine_reduces_checkpoint_memory():
    from repro.exec.cost import CostRecorder
    from repro.exec.interp import RefInterp

    def make(sm):
        def f(x):
            return rp.fori_loop(256, lambda i, a: rp.sin(a) * x, x, stripmine=sm)

        return rp.grad(rp.compile(rp.trace_like(f, (1.0,))))

    def peak(g):
        rec = CostRecorder()
        RefInterp(rec).run(g.adfun.fun, [0.8, 1.0])
        return rec.snapshot().peak_alloc

    p_plain = peak(make(0))
    p_sm = peak(make(16))
    assert p_plain >= 256
    assert p_sm < p_plain / 3  # ~ 16 + 16 vs 256 checkpoint slots


def test_stripmine_cuts_traced_peak_on_the_plan_backend():
    """The §4.3 trial on the executor users run: a 128-iteration loop over
    20,000 floats, ``tracemalloc`` peak of one cached gradient call
    (measured 9.2 vs 58.9 MB), the two gradients bitwise-equal."""

    def make(sm):
        def f(xs):
            def step(i, a):
                return rp.map(lambda v: rp.sin(v) * v + 0.5, a)

            return rp.sum(rp.fori_loop(128, step, xs, stripmine=sm))

        return rp.grad(rp.compile(rp.trace_like(f, (np.ones(4),))))

    xs = np.random.default_rng(0).standard_normal(20_000) * 0.5
    g_plain, g_sm = make(0), make(16)
    p_plain = peak_mb(lambda: g_plain(xs, backend="plan"))
    p_sm = peak_mb(lambda: g_sm(xs, backend="plan"))
    assert p_sm <= p_plain / 4, (p_sm, p_plain)
    assert g_sm(xs, backend="plan").tobytes() == g_plain(xs, backend="plan").tobytes()


@pytest.mark.parametrize("field, value", [("stripmine", -4), ("stripmine", 2.0)])
def test_loop_annotations_refuse_unknown_values(field, value):
    from repro.util import TypeError_

    with pytest.raises(TypeError_, match=f"loop: {field} must be"):
        rp.trace_like(
            lambda x: rp.fori_loop(4, lambda i, a: a * x, x, **{field: value}), (1.0,))


def test_stripmine_0_and_1_both_mean_off():
    from repro.ir.analysis import ir_hash

    def make(sm):
        def f(x):
            return rp.fori_loop(8, lambda i, a: rp.sin(a) * x, x, stripmine=sm)

        return rp.grad(rp.compile(rp.trace_like(f, (1.0,))))

    g0, g1 = make(0), make(1)
    assert g0(0.8) == g1(0.8)
    assert ir_hash(g0.adfun.fun) == ir_hash(g1.adfun.fun)


def test_checkpoint_entry_annotation():
    # The annotation is gone: whether a loop is checkpointed only at entry is
    # proved from its body.  A loop writing disjoint slots (no false
    # dependencies) is proved, and keeps its gradient.
    def f(xs):
        def step(i, acc):
            return rp.update(acc, i, xs[i] * xs[i])

        return rp.sum(rp.fori_loop(4, step, rp.zeros_like(xs)))

    with pytest.raises(TypeError):
        rp.fori_loop(4, lambda i, a: a, 1.0, **{"checkpoint": "entry"})
    fun = rp.trace_like(f, (np.ones(4),))
    (loop,) = [s.exp for s in fun.body.stms if isinstance(s.exp, Loop)]
    assert not hasattr(loop, "checkpoint") and entry_params(loop) == (True,)
    xs = rng.standard_normal(4)
    np.testing.assert_allclose(rp.grad(rp.compile(fun))(xs), 2 * xs, rtol=1e-12)


class _Traced:
    """The language the entry-checkpointing cases are written in, traced."""

    sin, map, sum, update, loop, cond = rp.sin, rp.map, rp.sum, rp.update, rp.fori_loop, rp.cond

    def sq(out):  # Σ out², rank 1 or 2
        sq1 = lambda r: rp.sum(rp.map(lambda a: a * a, r))  # noqa: E731
        return sq1(out) if out.rank == 1 else rp.sum(rp.map(sq1, out))


class _Taped:
    """... and run on the eager tape: loop state is a list of slots."""

    sin = eg.sin

    def map(fn, *xs):  # eager operations act on whole arrays
        return fn(*xs)

    def sum(x):
        return (eg.stack(x) if isinstance(x, list) else x).sum()

    def cond(pred, then_fn, else_fn):
        return then_fn() if pred else else_fn()

    def update(acc, k, v):
        acc = list(acc)
        acc[k] = v
        return acc

    def loop(n, body, init, stripmine=0):
        many = isinstance(init, tuple)
        state = tuple([a[k] for k in range(a.shape[0])] for a in (init if many else (init,)))
        for i in range(n):
            state = body(i, *state) if many else (body(i, *state),)
        outs = tuple(eg.stack(s) for s in state)
        return outs if many else outs[0]

    def sq(out):
        return (out * out).sum()


def _reading_3(m, a0, xs, idx):
    # Iteration i reads slot i + 1 before iteration i + 1 overwrites it.
    return m.sq(m.loop(6, lambda i, acc: m.update(acc, i, m.sin(acc[i + 1]) + xs[i]), a0))


def _slot(c_w, c_r, nested=False, **how):
    """``acc[i + 2 + c_w] = sin(acc[i + 2 + c_r]) + xs[i]``: the 2 keeps a
    read at ``c_r = c_w - 2`` in bounds.  ``nested`` reads inside a map."""
    def prog(m, a0, xs, idx):
        def step(i, acc):
            if nested:
                r = m.sum(m.map(lambda x: x * acc[i + (2 + c_r)], xs))
            else:
                r = acc[i + (2 + c_r)]
            return m.update(acc, i + (2 + c_w), m.sin(r) + xs[i])

        return m.sq(m.loop(6, step, a0, **how))

    return prog


def _two_params(both):
    # `b` is written at i + 2 and read at i + 1 (proved) or i + 3 (not).
    def prog(m, a0, xs, idx):
        def step(i, a, b):
            rb = b[i + 1] if both else b[i + 3]
            return (m.update(a, i + 2, m.sin(a[i + 1]) * rb + xs[i]),
                    m.update(b, i + 2, m.sin(rb) + a[i]))

        a, b = m.loop(6, step, (a0, a0 * 0.5))
        return m.sq(a) + m.sq(b)

    return prog


def _two_links(c2):
    # Two writes per iteration, at i + 3 and i + c2: one write offset iff c2 == 3.
    def prog(m, a0, xs, idx):
        def step(i, acc):
            r = m.sin(acc[i + 2])
            return m.update(m.update(acc, i + 3, r * xs[i]), i + c2, r + xs[i])

        return m.sq(m.loop(6, step, a0))

    return prog


def _whole_array_read(m, a0, xs, idx):
    step = lambda i, acc: m.update(  # noqa: E731
        acc, i + 3, m.sin(acc[i + 2]) + m.sum(acc) * 0.1 + xs[i])
    return m.sq(m.loop(6, step, a0))


def _whole_array_through_cond(m, a0, xs, idx):
    # The whole of `acc` leaves through a branch result, not a read of a slot.
    def step(i, acc):
        s = m.cond(i < 3, lambda: acc, lambda: a0 * 0.5)
        return m.update(acc, i + 3, m.sin(acc[i + 2]) * m.sum(s) * 0.1 + xs[i])

    return m.sq(m.loop(6, step, a0))


def _gathered(m, a0, xs, idx):
    return m.sq(m.loop(6, lambda i, acc: m.update(acc, i + 3, m.sin(acc[idx[i]]) + xs[i]), a0))


def _rows(m, a0, xs, idx):
    step = lambda i, acc: m.update(  # noqa: E731
        acc, i + 3, m.map(lambda a, x: m.sin(a) + x, acc[i + 2], xs[i]))
    return m.sq(m.loop(6, step, a0))


#: name -> (program, the ``entry_params`` of every loop reverse AD sees,
#: shape of the initial state); six iterations, ``xs`` one row each.
_ENTRY_CASES = {
    "reading_3": (_reading_3, (False,), (8,)),
    **{f"slot_w{c_w}_r{c_r}{'_in_map' if nested else ''}": (
        _slot(c_w, c_r, nested), (c_r < c_w,), (12,))
       for c_w in (0, 1) for c_r in range(c_w - 2, c_w + 2) for nested in (False, True)},
    "two_params_both_proved": (_two_params(True), (True, True), (12,)),
    "two_params_one_proved": (_two_params(False), (True, False), (12,)),
    "two_links_one_slot": (_two_links(3), (True,), (12,)),
    "two_links_two_slots": (_two_links(4), (False,), (12,)),
    "whole_array_read": (_whole_array_read, (False,), (12,)),
    "whole_array_through_cond": (_whole_array_through_cond, (False,), (12,)),
    "gathered_index": (_gathered, (False,), (12,)),
    "rank_2_rows": (_rows, (True,), (12, 3)),
    "stripmined": (_slot(1, 0, stripmine=2), (False,), (12,)),
}


def _check_oracles(prog, shape):
    """``grad`` on every backend against central differences and the tape."""
    r = np.random.default_rng(3)
    a0 = r.standard_normal(shape) * 0.8
    xs = r.standard_normal((6,) + shape[1:])
    idx = r.integers(0, shape[0], 6)
    fc = rp.compile(rp.trace_like(lambda a, x, k: prog(_Traced, a, x, k), (a0, xs, idx)))
    g = rp.grad(fc, wrt=[0, 1])
    tape = eg.grad(lambda a, x: prog(_Taped, a, x, idx))(a0, xs)
    fd = [fd_grad(fc, (a0, xs, idx), k) for k in (0, 1)]
    for be in BACKENDS:
        for got, t, d in zip(g(a0, xs, idx, backend=be), tape, fd):
            np.testing.assert_allclose(got, t, rtol=1e-10, atol=1e-12, err_msg=be)
            np.testing.assert_allclose(got, d, rtol=1e-5, atol=1e-6, err_msg=be)


@pytest.mark.parametrize("case", sorted(_ENTRY_CASES))
def test_entry_params_is_proved_and_the_gradient_matches_the_oracles(case, monkeypatch):
    prog, want, shape = _ENTRY_CASES[case]
    seen = []

    def spy(loop):
        seen.append(entry_params(loop))
        return seen[-1]

    monkeypatch.setattr(rules_loop, "entry_params", spy)
    _check_oracles(prog, shape)
    assert seen and set(seen) == {want}, seen  # a strip-mined loop is two loops


def test_a_forced_entry_mask_is_caught(monkeypatch):
    # The mutation: trust every array parameter, as the annotation did.
    monkeypatch.setattr(rules_loop, "entry_params",
                        lambda loop: tuple(rank_of(p.type) > 0 for p in loop.params))
    prog, _, shape = _ENTRY_CASES["reading_3"]
    with pytest.raises(AssertionError):
        _check_oracles(prog, shape)


def _slot_loop_512(a0, xs):
    step = lambda i, acc: rp.update(acc, i + 1, rp.sin(acc[i]) + xs[i])  # noqa: E731
    return rp.sum(rp.fori_loop(512, step, a0))


def test_a_proved_slot_loop_is_checkpointed_only_at_entry():
    """A 512-iteration slot loop over a 20,000-float state, no annotation:
    no per-iteration ``scratch``, and one cached ``plan`` gradient call peaks
    at 0.79 MiB (234.7 MiB and 15 s when every iteration is checkpointed)."""
    g = rp.grad(rp.compile(rp.trace_like(_slot_loop_512, (np.ones(4), np.ones(4)))))
    assert "scratch" not in pretty(g.adfun.fun)
    r = np.random.default_rng(0)
    a0, xs = r.standard_normal(20_000) * 0.5, r.standard_normal(512)
    assert peak_mb(lambda: g(a0, xs, backend="plan")) <= 1.2
    for got, want in zip(g(a0, xs, backend="plan"), g(a0, xs, backend="ref")):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_a_whole_array_loop_keeps_its_per_iteration_checkpoints():
    def f(xs):
        return rp.sum(rp.fori_loop(4, lambda i, a: rp.map(lambda v: rp.sin(v) * v, a), xs))

    assert "scratch" in pretty(rp.grad(rp.compile(rp.trace_like(f, (np.ones(4),)))).adfun.fun)


def test_if_branches():
    for x0 in (1.5, -1.5):
        check_grad(
            lambda x: rp.cond(x > 0.0, lambda: rp.exp(x), lambda: x * x - x),
            (np.array(x0),),
        )


def test_if_inside_map():
    def f(xs):
        return rp.sum(
            rp.map(lambda x: rp.cond(x > 0.0, lambda: rp.exp(x), lambda: x * x - x), xs)
        )

    check_grad(f, (rng.standard_normal(9),))


def test_if_with_free_array_in_one_branch():
    def f(xs, tbl):
        def per(x):
            return rp.cond(x > 0.0, lambda: tbl[0] * x, lambda: x)

        return rp.sum(rp.map(per, xs))

    check_grad(f, (rng.standard_normal(6), rng.standard_normal(2)))


def test_fig2_perfect_nest():
    """The paper's Fig. 2 program: map (\\c as -> if c ... else map (a*a))."""
    def f(cs, ass):
        def per(c, as_):
            return rp.cond(
                c > 0.0,
                lambda: rp.sum(rp.map(lambda a: a + 1.0, as_)),
                lambda: rp.sum(rp.map(lambda a: a * a, as_)),
            )

        return rp.sum(rp.map(per, cs, ass))

    check_grad(f, (rng.standard_normal(3), rng.standard_normal((3, 4))))


def test_while_with_bound():
    def f(x):
        v, s = rp.while_loop(
            lambda v, s: v < 10.0, lambda v, s: (v * 1.5, s + v), (x, 0.0), bound=32
        )
        return s

    check_grad(f, (np.array(0.7),))


def test_while_inspector_no_bound():
    def f(x):
        v, s = rp.while_loop(
            lambda v, s: v < 10.0, lambda v, s: (v * 1.5, s + v), (x, 0.0)
        )
        return s

    check_grad(f, (np.array(0.7),))


def test_second_order_hessian_diag():
    def cube(xs):
        return rp.sum(rp.map(lambda x: x * x * x, xs))

    f = rp.compile(rp.trace_like(cube, (np.ones(4),)))
    x = rng.standard_normal(4)
    np.testing.assert_allclose(rp.hessian_diag(f)(x), 6 * x, atol=1e-8)


def test_vjp_of_vjp_rejected():
    f = rp.compile(rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * xs[0], xs)), (np.ones(3),)))
    g = rp.vjp(f)
    with pytest.raises(ADError):
        rp.vjp(g)
