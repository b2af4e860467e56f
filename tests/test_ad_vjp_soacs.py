"""Reverse-mode AD of the parallel combinators (paper §5 rewrite rules)."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro as rp
from helpers import check_grad, check_jvp_vjp_consistency

rng = np.random.default_rng(4)


# ---------------------------------------------------------------------------
# map (§5.4): params, free scalars, free arrays → accumulators
# ---------------------------------------------------------------------------


def test_map_param_adjoints():
    check_grad(lambda xs, ys: rp.sum(rp.map(lambda x, y: x * y, xs, ys)),
               (rng.standard_normal(5), rng.standard_normal(5)))


def test_map_free_scalar():
    check_grad(lambda xs, w: rp.sum(rp.map(lambda x: w * x * x, xs)),
               (rng.standard_normal(5), np.array(0.8)))


def test_map_free_array_gather():
    def f(xs, tbl):
        def body(x):
            i = rp.astype(rp.floor(abs(x)), rp.I64) % 4
            return x * tbl[i]

        return rp.sum(rp.map(body, xs))

    check_grad(f, (rng.standard_normal(7) * 3, rng.standard_normal(4)))


def test_map_array_used_as_arg_and_free():
    # xs appears both as the mapped array and as an indexed free variable.
    def f(xs):
        return rp.sum(rp.map(lambda x: x * xs[0], xs))

    check_grad(f, (rng.standard_normal(4),))


def test_nested_maps_matmul_pattern():
    def f(a, b):
        return rp.sum(rp.map(lambda r: rp.sum(rp.map(
            lambda j: rp.sum(rp.map(lambda k: r[k] * b[k, j], rp.iota(rp.size(b, 0)))),
            rp.iota(rp.size(b, 1)))), a))

    check_grad(f, (rng.standard_normal((3, 4)), rng.standard_normal((4, 2))))


def test_matmul_adjoint_closed_form():
    A = rng.standard_normal((4, 3))
    B = rng.standard_normal((3, 5))
    S = rng.standard_normal((4, 5))
    f = rp.compile(rp.trace_like(lambda a, b: rp.matmul(a, b), (A, B)))
    rev = rp.vjp(f)
    _, dA, dB = rev(A, B, S)
    np.testing.assert_allclose(dA, S @ B.T, rtol=1e-10)
    np.testing.assert_allclose(dB, A.T @ S, rtol=1e-10)


def test_multi_result_map():
    def f(xs):
        a, b = rp.map(lambda x: (x * x, rp.sin(x)), xs)
        return rp.sum(a) + 2.0 * rp.sum(b)

    check_grad(f, (rng.standard_normal(5),))


def test_map_over_data_array_builds_no_adjoint_for_its_rows():
    # `wrt` marks `pts` as data; a row of it (the lambda parameter `p`, which
    # the inner map reads as a free array) is data too.  Its adjoint used to
    # be built anyway: an inner withacc plus one negated copy per
    # contribution, summed into an array nothing reads.
    from repro.core.vjp import vjp_fun
    from repro.ir.ast import Map
    from repro.ir.traversal import all_bound_vars

    def f(pts, c):
        return rp.sum(rp.map(
            lambda p: rp.sum(rp.map(lambda j: (p[j] - c[j]) ** 2.0, rp.iota(rp.size(c)))),
            pts))

    pts, c = rng.standard_normal((5, 3)), rng.standard_normal(3)
    fun = rp.trace_like(f, (pts, c))
    (row,) = [s.exp.lam.params[0] for s in fun.body.stms if isinstance(s.exp, Map)]

    def row_adjoints(wrt):
        bound = all_bound_vars(vjp_fun(fun, wrt=wrt))
        return sorted(n for n in bound if n.startswith(row.name + "_") and n != row.name)

    assert row_adjoints(None), "the unrestricted vjp does differentiate the rows"
    assert row_adjoints([1]) == []
    fc = rp.compile(fun)
    _, g_c = rp.grad(fc)(pts, c)
    np.testing.assert_allclose(rp.grad(fc, wrt=[1])(pts, c), g_c, rtol=1e-12)
    check_grad(f, (pts, c), wrt=[1])


# ---------------------------------------------------------------------------
# reduce (§5.1): special cases and the general two-scan rule
# ---------------------------------------------------------------------------


def test_reduce_add():
    check_grad(lambda xs: rp.sum(xs) * 2.0, (rng.standard_normal(6),))


def test_reduce_mul_no_zeros():
    check_grad(lambda xs: rp.prod(xs), (rng.standard_normal(5) + 2.0,))


def test_reduce_mul_one_zero():
    xs = rng.standard_normal(5) + 2.0
    xs[2] = 0.0
    check_grad(lambda v: rp.prod(v), (xs,))


def test_reduce_mul_two_zeros():
    xs = rng.standard_normal(5) + 2.0
    xs[1] = 0.0
    xs[3] = 0.0
    fc, g = check_grad(lambda v: rp.prod(v), (xs,))
    np.testing.assert_allclose(g(xs), np.zeros(5))  # all adjoints vanish


def test_reduce_min_max():
    check_grad(lambda xs: rp.max(xs) * 2.0, (rng.standard_normal(6),))
    check_grad(lambda xs: rp.min(xs) * 2.0, (rng.standard_normal(6),))


def test_reduce_max_ties_single_winner():
    xs = np.array([1.0, 3.0, 3.0, 0.5])
    f = rp.compile(rp.trace_like(lambda v: rp.max(v), (xs,)))
    g = rp.grad(f)(xs)
    # exactly one element receives the adjoint (the first max)
    np.testing.assert_allclose(g, [0.0, 1.0, 0.0, 0.0])


def test_reduce_general_operator():
    check_grad(
        lambda xs: rp.reduce(lambda a, b: a * b + a + b, 0.0, xs),
        (rng.standard_normal(6) * 0.3,),
    )


def test_reduce_general_matches_special():
    # The general rule specialises to as_bar += ybar for (+).
    xs = rng.standard_normal(8)
    # force general path with an opaque formulation of addition
    f1 = rp.compile(rp.trace_like(lambda v: rp.reduce(lambda a, b: a + b * 1.0, 0.0, v), (xs,)))
    g1 = rp.grad(f1)(xs)
    np.testing.assert_allclose(g1, np.ones(8), rtol=1e-10)


# ---------------------------------------------------------------------------
# scan (§5.2)
# ---------------------------------------------------------------------------


def test_scan_add_special():
    def f(xs):
        return rp.sum(rp.map(lambda v: v * v, rp.scan(lambda a, b: a + b, 0.0, xs)))

    check_grad(f, (rng.standard_normal(6),))


def test_scan_general_linear_recurrence():
    def f(xs):
        s = rp.scan(lambda a, b: a * b + a + b, 0.0, xs)
        return rp.sum(rp.map(lambda v: v * v, s))

    check_grad(f, (rng.standard_normal(6) * 0.2,))


def test_scan_mul():
    def f(xs):
        s = rp.scan(lambda a, b: a * b, 1.0, xs)
        return rp.sum(s)

    check_grad(f, (rng.standard_normal(5) + 1.5,))


def test_scan_length_one():
    check_grad(lambda xs: rp.sum(rp.scan(lambda a, b: a + b, 0.0, xs)), (np.array([2.0]),))


# ---------------------------------------------------------------------------
# reduce_by_index (§5.1.2)
# ---------------------------------------------------------------------------


def test_hist_add():
    def f(xs, inds):
        h = rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, xs)
        return rp.sum(rp.map(lambda v: v * v, h))

    check_grad(f, (rng.standard_normal(8), rng.integers(0, 4, 8)))


def test_hist_add_out_of_range_dropped():
    def f(xs, inds):
        h = rp.reduce_by_index(3, lambda a, b: a + b, 0.0, inds, xs)
        return rp.sum(h)

    inds = np.array([0, 5, 1, -1])
    fc, g = check_grad(f, (rng.standard_normal(4), inds))
    np.testing.assert_allclose(g(rng.standard_normal(4), inds), [1.0, 0.0, 1.0, 0.0])


def test_hist_min_max():
    inds = rng.integers(0, 4, 10)
    def fmax(xs, i):
        h = rp.reduce_by_index(4, lambda a, b: rp.maximum(a, b), -np.inf, i, xs)
        return rp.sum(rp.map(lambda v: rp.where(v > -1e30, v * v, 0.0), h))

    check_grad(fmax, (rng.standard_normal(10), inds))


def test_hist_mul():
    def f(xs, inds):
        h = rp.reduce_by_index(3, lambda a, b: a * b, 1.0, inds, xs)
        return rp.sum(rp.map(lambda v: v * v, h))

    check_grad(f, (rng.standard_normal(8) + 1.5, rng.integers(0, 3, 8)))


def test_hist_general_operator():
    """The sort + segmented-scan rule (paper's 'work in progress', §5.1.2),
    implemented here as an extension: arbitrary associative & commutative
    operators differentiate correctly."""
    def f(xs, inds):
        h = rp.reduce_by_index(3, lambda a, b: a * b + a + b, 0.0, inds, xs)
        return rp.sum(rp.map(lambda v: v * v, h))

    check_grad(f, (rng.standard_normal(8) * 0.4, rng.integers(0, 3, 8)))


def test_hist_general_operator_out_of_range_and_empty_bins():
    def f(xs, inds):
        h = rp.reduce_by_index(4, lambda a, b: a * b + a + b, 0.0, inds, xs)
        return rp.sum(rp.map(lambda v: v * v, h))

    inds = np.array([0, 2, 0, 7, -1, 2])  # bins 1 and 3 empty; 2 dropped
    check_grad(f, (rng.standard_normal(6) * 0.4, inds))


def test_hist_general_matches_special_for_addition():
    # Force the general path with an opaque (+) and compare to the special.
    xs = rng.standard_normal(7)
    inds = rng.integers(0, 3, 7)

    def f_gen(v, i):
        h = rp.reduce_by_index(3, lambda a, b: rp.minimum(a + b, 1e300), 0.0, i, v)
        return rp.sum(rp.map(lambda x: x * x, h))

    def f_spec(v, i):
        h = rp.reduce_by_index(3, lambda a, b: a + b, 0.0, i, v)
        return rp.sum(rp.map(lambda x: x * x, h))

    g1 = rp.grad(rp.compile(rp.trace_like(f_gen, (xs, inds))), wrt=[0])(xs, inds)
    g2 = rp.grad(rp.compile(rp.trace_like(f_spec, (xs, inds))), wrt=[0])(xs, inds)
    np.testing.assert_allclose(g1, g2, rtol=1e-10)


# ---------------------------------------------------------------------------
# scatter (§5.3)
# ---------------------------------------------------------------------------


def test_scatter_adjoints():
    def f(xs, vals, inds):
        ys = rp.scatter(xs, inds, vals)
        return rp.sum(rp.map(lambda v: v * v * 0.5, ys))

    check_grad(f, (rng.standard_normal(6), rng.standard_normal(3), np.array([1, 4, 2])))


def test_scatter_overwritten_slots_zeroed():
    xs = rng.standard_normal(4)
    vals = rng.standard_normal(2)
    inds = np.array([1, 3])
    f = rp.compile(rp.trace_like(lambda x, v, i: rp.sum(rp.scatter(x, i, v)), (xs, vals, inds)))
    rev = rp.vjp(f, wrt=[0, 1])
    _, dxs, dvals = rev(xs, vals, inds, 1.0)
    np.testing.assert_allclose(dxs, [1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(dvals, [1.0, 1.0])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 9))
def test_property_jvp_vjp_consistency_soac_pipeline(seed, n):
    r = np.random.default_rng(seed)
    xs = r.standard_normal(n) * 0.5
    inds = r.integers(0, 3, n)

    def f(v, i):
        h = rp.reduce_by_index(3, lambda a, b: a + b, 0.0, i, v)
        s = rp.scan(lambda a, b: a + b, 0.0, v)
        return rp.sum(rp.map(lambda a, b: a * b, h, rp.map(lambda x: x + 1.0, h))) + rp.sum(s)

    check_jvp_vjp_consistency(f, (xs, inds), seed=seed)


# ---------------------------------------------------------------------------
# Neutral elements: a computed one differentiates forward and is refused in
# reverse; a constant one need not be the identity
# ---------------------------------------------------------------------------

_X, _M, _INDS = np.array([1.0]), np.array([4.0, 5.0]), np.array([0, 2])

#: ``s = soac(x[0]·3, m)``, ``f = s·s`` (summed over a scan's or a
#: histogram's outputs): x₀ = 1 puts the neutral element 3 below both
#: elements, so it is min's winner too, and every ``d f / d x₀`` is non-zero.
_NE_CASES = {
    "reduce_add": lambda x, m, _i: rp.reduce(lambda a, b: a + b, x[0] * 3.0, m),
    "reduce_mul": lambda x, m, _i: rp.reduce(lambda a, b: a * b, x[0] * 3.0, m),
    "reduce_min": lambda x, m, _i: rp.reduce(lambda a, b: rp.minimum(a, b), x[0] * 3.0, m),
    "scan_add": lambda x, m, _i: rp.sum(rp.scan(lambda a, b: a + b, x[0] * 3.0, m)),
    "hist_add": lambda x, m, inds: rp.sum(
        rp.reduce_by_index(3, lambda a, b: a + b, x[0] * 3.0, inds, m)),
}


def _ne_fun(name):
    g = _NE_CASES[name]

    def f(x, m, inds):
        s = g(x, m, inds)
        return s * s

    return rp.compile(rp.trace_like(f, (_X, _M, _INDS)))


@pytest.mark.parametrize("name", list(_NE_CASES))
def test_input_dependent_neutral_element_jvp_matches_central_differences(name):
    from helpers import fd_grad

    fc = _ne_fun(name)
    fd = fd_grad(fc, (_X, _M, _INDS), 0)
    assert abs(fd[0]) > 1.0
    for be in ("ref", "plan"):
        _y, dy = rp.jvp(fc)(_X, _M, _INDS, np.ones(1), np.zeros(2), backend=be)
        np.testing.assert_allclose(dy, fd[0], rtol=1e-6)


#: The paper section of each fold's reverse rules, which its refusals name.
_SECTIONS = {"reduce": "§5.1", "scan": "§5.2", "hist": "§5.1.2"}


def _refusal(fold: str, what: str) -> str:
    name = "reduce_by_index" if fold == "hist" else fold
    return (re.escape(f"reverse AD of {name} with {what}") + ".*"
            + re.escape(f"paper {_SECTIONS[fold]} assume"))


@pytest.mark.parametrize("name", list(_NE_CASES))
def test_input_dependent_neutral_element_vjp_raises(name):
    from repro.util import ADError

    match = _refusal(name.split("_")[0], "an input-dependent float neutral element")
    with pytest.raises(ADError, match=match):
        rp.grad(_ne_fun(name))
    with pytest.raises(ADError, match=match):
        rp.vjp(_ne_fun(name))


def _cmul(a1, a2, b1, b2):
    """Complex multiplication: associative, commutative, and neither
    component of the result splits off."""
    return a1 * b1 - a2 * b2, a1 * b2 + a2 * b1


_FOLDS = {
    "reduce": lambda op, ne, _inds, *xs: rp.reduce(op, ne, *xs),
    "scan": lambda op, ne, _inds, *xs: rp.scan(op, ne, *xs),
    "hist": lambda op, ne, inds, *xs: rp.reduce_by_index(3, op, ne, inds, *xs),
}


#: The general rules' refusals (the neutral elements' are above).
_REFUSED = {"tuple": "a tuple-valued general operator",
            "free_var": "a free float variable in its operator"}


@pytest.mark.parametrize("fold", list(_FOLDS))
@pytest.mark.parametrize("case", list(_REFUSED))
def test_reverse_fold_refusals_name_the_construct_and_its_section(fold, case):
    from repro.util import ADError

    def f(xs, inds):
        if case == "tuple":
            r = _FOLDS[fold](_cmul, (1.0, 0.0), inds, xs, xs * 0.5)[1]
        else:
            s = rp.sum(xs)
            r = _FOLDS[fold](lambda a, b: a * b * s, 1.0, inds, xs)
        return r if fold == "reduce" else rp.sum(r)

    fc = rp.compile(rp.trace_like(f, (rng.standard_normal(4), np.array([0, 2, 1, 0]))))
    with pytest.raises(ADError, match=_refusal(fold, _REFUSED[case])):
        rp.grad(fc, wrt=[0])


def test_product_with_a_constant_non_identity_neutral_element():
    # The forward sweep multiplies the non-zeros into the neutral element:
    # 2·3·5 = 30, not 15, and ∂/∂x = (10, 6).
    for xs in (np.array([3.0, 5.0]), np.array([0.0, 5.0])):
        fc, _g = check_grad(lambda v: rp.reduce(lambda a, b: a * b, 2.0, v), (xs,))
        assert fc(xs) == 2.0 * np.prod(xs) == rp.vjp(fc)(xs, 1.0)[0]
    assert rp.vjp(fc)(np.zeros(0), 1.0)[0] == 2.0

    def hist(xs, inds):
        return rp.sum(rp.map(lambda v: v * v, rp.reduce_by_index(3, lambda a, b: a * b, 2.0, inds, xs)))

    check_grad(hist, (rng.standard_normal(8) + 1.5, rng.integers(0, 3, 8)))
