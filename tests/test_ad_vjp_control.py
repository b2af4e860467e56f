"""Reverse-mode AD of control flow: loops (checkpointing, strip-mining,
entry-mode), branches, while loops (bounds + inspector), second order."""
import numpy as np
import pytest

import repro as rp
from helpers import check_grad, peak_mb
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


@pytest.mark.parametrize("field, value", [
    ("checkpoint", "Entry"), ("checkpoint", "enter"), ("stripmine", -4), ("stripmine", 2.0),
])
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
    # A loop writing disjoint slots (no false dependencies): checkpoint="entry"
    # re-installs the final array; the gradient must match "iters" mode.
    def make(mode):
        def f(xs):
            def step(i, acc):
                return rp.update(acc, i, xs[i] * xs[i])

            out = rp.fori_loop(4, step, rp.zeros_like(xs), checkpoint=mode)
            return rp.sum(out)

        return rp.compile(rp.trace_like(f, (np.ones(4),)))

    xs = rng.standard_normal(4)
    g1 = rp.grad(make("iters"))(xs)
    g2 = rp.grad(make("entry"))(xs)
    np.testing.assert_allclose(g1, g2, rtol=1e-12)
    np.testing.assert_allclose(g1, 2 * xs, rtol=1e-12)


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
