"""min/max reduces and histograms under AD (§5.1.1): the derivative goes to
the *first* element holding the extremum — the first NaN when there is one,
as ``np.argmin`` reports — on every backend.

``vjp`` finds that element with a bulk first-index reduce
(``rules_reduce.first_index``); ``jvp`` lifts the operator, whose scalar rule
keeps the left operand on a tie and follows a NaN
(``rules_scalar.minmax_takes_x``).  A mutant that breaks ties towards the
last index is caught by the same checks.
"""
import numpy as np
import pytest

import repro as rp
import repro.core.rules_reduce as rules_reduce
from repro.apps import datagen, kmeans, kmeans_sparse
from repro.baselines import eager as eg
from repro.ir import I64, Lambda, Var
from repro.ir.ast import Iota, Size
from repro.ir.builder import Builder, const
from repro.ir.types import elem_type
from repro.util import fresh
from helpers import LEGS

INF, NAN = np.inf, np.nan

#: ``name -> array`` whose ``min`` is the case; ``max`` runs on its negation.
CASES = {
    "ties": np.array([2.0, 0.5, 0.5, 3.0, 0.5]),
    "inf": np.array([INF, -INF, -INF, 1.0]),
    "all_equal": np.full(5, 2.0),
    "length_1": np.array([1.5]),
    "empty": np.zeros(0),
    "nan": np.array([1.0, NAN, 0.0, NAN]),
}


def _operand(case: str, op: str) -> np.ndarray:
    xs = CASES[case]
    return xs if op == "min" else -xs


def _first_index(xs: np.ndarray, op: str):
    """The oracle: the first NaN, else the first extremal element."""
    if xs.size == 0:
        return None
    nans = np.flatnonzero(np.isnan(xs))
    if nans.size:
        return int(nans[0])
    return int(np.flatnonzero(xs == getattr(np, op)(xs))[0])


def _reduce_fun(op: str):
    return rp.compile(rp.trace_like(lambda v: getattr(rp, op)(v), (np.ones(3),)))


def _check_vjp(op: str, xs: np.ndarray, backend: str) -> None:
    y, xbar = rp.vjp(_reduce_fun(op))(xs, 2.0, backend=backend)
    want = np.zeros_like(xs)
    i = _first_index(xs, op)
    if i is not None:
        want[i] = 2.0
    np.testing.assert_array_equal(xbar, want)
    ident = INF if op == "min" else -INF
    np.testing.assert_array_equal(y, getattr(np, op)(xs) if xs.size else ident)


def _check_jvp(op: str, xs: np.ndarray, backend: str) -> None:
    dxs = np.arange(1.0, xs.size + 1.0)  # a distinct tangent per element
    y, dy = rp.jvp(_reduce_fun(op))(xs, dxs, backend=backend)
    i = _first_index(xs, op)
    assert dy == (0.0 if i is None else dxs[i])


@pytest.mark.parametrize("backend", LEGS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("op", ["min", "max"])
def test_vjp_routes_to_the_first_extremal_element(op, case, backend):
    _check_vjp(op, _operand(case, op), backend)


@pytest.mark.parametrize("backend", LEGS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("op", ["min", "max"])
def test_jvp_takes_the_tangent_of_the_first_extremal_element(op, case, backend):
    _check_jvp(op, _operand(case, op), backend)


@pytest.mark.parametrize("backend", LEGS)
def test_vjp_of_an_all_neutral_array_routes_to_its_first_element(backend):
    # The extremum equals the operator's neutral element; an element holds it.
    _check_vjp("min", np.full(3, INF), backend)
    _check_vjp("max", np.full(3, -INF), backend)


@pytest.mark.parametrize("backend", LEGS)
def test_reduces_inside_a_map_and_over_a_free_array(backend):
    rows = np.array([[2.0, 0.5, 0.5], [NAN, 1.0, NAN], [3.0, 3.0, 3.0]])
    # A row's adjoint is local to the map body (value mode) ...
    per_row = rp.compile(rp.trace_like(
        lambda m: rp.sum(rp.map(lambda r: rp.min(r) * 1.5, m)), (np.ones((2, 3)),)))
    want = np.zeros_like(rows)
    for r, row in enumerate(rows):
        want[r, _first_index(row, "min")] = 1.5
    np.testing.assert_array_equal(rp.grad(per_row)(rows, backend=backend), want)
    # ... a free array's adjoint is an accumulator of the map (§5.4).
    xs, ys = np.array([4.0, -1.0, 2.0, -1.0]), np.array([0.5, 2.0, 3.0])
    free = rp.compile(rp.trace_like(
        lambda v, w: rp.sum(rp.map(lambda s: s * rp.max(v), w)), (np.ones(3), np.ones(3))))
    xbar, ybar = rp.grad(free)(-xs, ys, backend=backend)
    np.testing.assert_array_equal(xbar, [0.0, ys.sum(), 0.0, 0.0])
    np.testing.assert_array_equal(ybar, np.full(3, 1.0))


@pytest.mark.parametrize("backend", LEGS)
@pytest.mark.parametrize("op", ["min", "max"])
def test_histogram_routes_each_bin_to_its_first_extremal_element(op, backend):
    inds = np.array([0, 2, 0, 1, 0, 2, 5, 1])  # bin 0: a tie; bin 2: a NaN; 5: dropped
    vals = np.array([1.0, NAN, 1.0, 7.0, 3.0, 0.0, -9.0, 7.0])
    vals = vals if op == "min" else -vals
    fn = rp.minimum if op == "min" else rp.maximum
    ident = INF if op == "min" else -INF
    fc = rp.compile(rp.trace_like(
        lambda i, v: rp.reduce_by_index(3, fn, ident, i, v), (inds, vals)))
    hbar = np.array([1.0, 2.0, 3.0])
    h, vbar = rp.vjp(fc, wrt=[1])(inds, vals, hbar, backend=backend)
    want = np.zeros_like(vals)
    for b in range(3):
        members = np.flatnonzero(inds == b)
        want[members[_first_index(vals[members], op)]] = hbar[b]
    np.testing.assert_array_equal(vbar, want)


@pytest.mark.parametrize("backend", LEGS)
def test_jvp_matches_central_differences(backend):
    rng = np.random.default_rng(3)

    def f(v):
        s = rp.map(lambda x: rp.sin(x) * x, v)
        return rp.min(s) * 2.0 + rp.max(rp.map(lambda x: x * x, v))

    xs, d = rng.standard_normal(9), rng.standard_normal(9)
    fc = rp.compile(rp.trace_like(f, (xs,)))
    eps = 1e-6
    fd = (fc(xs + eps * d, backend="ref") - fc(xs - eps * d, backend="ref")) / (2 * eps)
    _y, dy = rp.jvp(fc)(xs, d, backend=backend)
    np.testing.assert_allclose(dy, fd, rtol=1e-6, atol=1e-7)
    # ... and agrees with the reverse mode: ⟨ȳ, J·d⟩ = ⟨Jᵀ·ȳ, d⟩.
    _y, xbar = rp.vjp(fc)(xs, 1.0, backend=backend)
    np.testing.assert_allclose(dy, xbar @ d, rtol=1e-12)


def _last_index(b, arr, y):
    """Mutant of ``rules_reduce.first_index``: the *last* index holding y."""
    idxs = b.emit1(Iota(b.emit1(Size(arr), "n")), "is")
    v, i = Var(fresh("v"), elem_type(arr.type)), Var(fresh("i"), I64)
    hb = Builder()
    hit = hb.binop("eq", v, y, "hit")
    hi = hb.select(hit, i, const(-1, I64), "hi")
    (hits,) = b.map(Lambda((v, i), hb.finish([hi])), [arr, idxs], names=["hits"])
    (iy,) = b.reduce(rules_reduce.op_lambda("max", I64), [const(-1, I64)], [hits], names=["iy"])
    return idxs, iy


def test_a_last_index_tie_break_is_caught(monkeypatch):
    _check_vjp("min", _operand("ties", "min"), "plan")  # the real rule passes
    monkeypatch.setattr(rules_reduce, "first_index", _last_index)
    for op in ("min", "max"):
        with pytest.raises(AssertionError):
            _check_vjp(op, _operand("ties", op), "plan")


# ---------------------------------------------------------------------------
# The hot lane: a min/max over a map's result differentiates one element of
# that map (rules_map), not all of them
# ---------------------------------------------------------------------------

W = 3  # max-pooling window


def _pool(x, kern, s):
    """Σ over windows of max_w (x[i+w]·kern[w] + s): the window map's only
    reader is the max, so its one-hot adjoint stays sparse.  ``kern`` is an
    argument of that map, ``x`` a free array and ``s`` a free scalar."""
    return rp.sum(rp.map(
        lambda i: rp.max(rp.map(lambda w, k: x[i + w] * k + s, rp.iota(W), kern)),
        rp.iota(rp.size(x) - (W - 1))))


def _pool_fun():
    return rp.compile(rp.trace_like(_pool, (np.ones(6), np.ones(W), 0.5)))


def _pool_first_index(x, kern, s):
    """The oracle: each window's ȳ goes to its first NaN, else its first
    maximum."""
    xbar, kbar, sbar = np.zeros_like(x), np.zeros_like(kern), 0.0
    for i in range(x.size - (W - 1)):
        w = _first_index(x[i:i + W] * kern + s, "max")
        xbar[i + w] += kern[w]
        kbar[w] += x[i + w]
        sbar += 1.0
    return xbar, kbar, sbar


def _pool_tape(x, kern, s):
    idx = np.arange(x.size - (W - 1))[:, None] + np.arange(W)[None, :]
    return eg.grad(lambda xt, kt, st: (xt[idx] * kt + st).max(axis=1).sum())(x, kern, s)


def _exps(fun):
    from repro.ir.traversal import scopes

    def walk(body):
        for s in body.stms:
            yield s.exp
            for _, inner in scopes(s.exp):
                yield from walk(inner)

    return list(walk(fun.body))


def _one_hot_maps(fun):
    """Maps of the form ``map (λi. select(i == iy, ȳ, 0))``: a dense one-hot
    adjoint (``adjoint.one_hot``) nothing fused away."""
    from repro.ir.ast import BinOp, Map, Select

    return [e for e in _exps(fun) if isinstance(e, Map)
            and [type(t.exp) for t in e.lam.body.stms] == [BinOp, Select]]


def _hot_lanes(fun):
    """The loops of a derivative whose primal has none: the hot lanes."""
    from repro.ir.ast import Loop

    return [e for e in _exps(fun) if isinstance(e, Loop)]


@pytest.mark.parametrize("backend", LEGS)
def test_max_pool_vjp_matches_central_differences_and_the_tape(backend):
    rng = np.random.default_rng(5)
    x, kern, s = rng.standard_normal(9), rng.standard_normal(W), 0.25
    fc = _pool_fun()
    grads = rp.grad(fc)(x, kern, s, backend=backend)
    for g, t in zip(grads, _pool_tape(x, kern, s)):
        np.testing.assert_allclose(g, t, rtol=1e-12, atol=1e-12)
    dx, dk, ds = rng.standard_normal(9), rng.standard_normal(W), 0.3
    eps = 1e-6
    fd = (fc(x + eps * dx, kern + eps * dk, s + eps * ds, backend="ref")
          - fc(x - eps * dx, kern - eps * dk, s - eps * ds, backend="ref")) / (2 * eps)
    np.testing.assert_allclose(grads[0] @ dx + grads[1] @ dk + grads[2] * ds, fd, rtol=1e-6)
    assert len(_hot_lanes(rp.vjp(fc).fun)) == 1


def _check_pool_ties_and_nans(backend):
    # Ties in windows 0–2 and 7, a NaN in windows 3–6 (two in 5 and 6).
    x = np.array([1.0, 3.0, 3.0, 2.0, 3.0, NAN, 1.0, NAN, 0.0, 0.0])
    kern, s = np.ones(W), 0.0
    got = rp.grad(_pool_fun())(x, kern, s, backend=backend)
    for g, w in zip(got, _pool_first_index(x, kern, s)):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("backend", LEGS)
def test_max_pool_vjp_routes_ties_to_the_first_index_and_nans_to_the_first_nan(backend):
    _check_pool_ties_and_nans(backend)


def _no_hit_fun():
    # min with a neutral element of 0 over values ≥ 1: no element holds y.
    return rp.compile(rp.trace_like(
        lambda m: rp.sum(rp.map(
            lambda r: rp.reduce(lambda a, b: rp.minimum(a, b), 0.0,
                                rp.map(lambda v: v * v + 1.0, r)), m)),
        (np.ones((2, 3)),)))


def _check_no_hit(backend):
    m = np.arange(1.0, 7.0).reshape(2, 3)
    fc = _no_hit_fun()
    np.testing.assert_array_equal(rp.grad(fc)(m, backend=backend), np.zeros_like(m))
    assert len(_hot_lanes(rp.vjp(fc).fun)) == 1


@pytest.mark.parametrize("backend", LEGS)
def test_no_element_holds_y_nothing_is_read_or_added(backend):
    _check_no_hit(backend)
    # An empty window reads nothing either (no element at all to read).
    xs = np.zeros(0)
    fc = rp.compile(rp.trace_like(
        lambda v: rp.max(rp.map(lambda x: x * x, v)), (np.ones(3),)))
    np.testing.assert_array_equal(rp.vjp(fc)(xs, 1.0, backend=backend)[1], xs)


@pytest.mark.parametrize("backend", LEGS)
def test_an_inf_centre_no_point_picks_gets_a_zero_row(backend):
    # A dense one-hot adjoint multiplied the inf centre's 0 adjoint into
    # (p - inf): its gradient and Hessian rows came out [nan, 0].  Central
    # differences and the manual Hessian give 0 (the manual gradient's
    # 0·inf is nan).
    pts = np.array([[0.0, 0.0], [4.0, 4.0], [1.0, 2.0]])
    ctr = np.array([[0.0, 1.0], [5.0, 5.0], [INF, 0.0]])
    fc = rp.compile(kmeans.build_ir(3, 3, 2))
    g = rp.grad(fc, wrt=[1])(pts, ctr, backend=backend)
    h = rp.hessian_diag(fc, wrt=1)(pts, ctr, backend=backend)
    np.testing.assert_array_equal(g[2], [0.0, 0.0])
    np.testing.assert_array_equal(h[2], [0.0, 0.0])
    with np.errstate(invalid="ignore"):
        gm, hm = kmeans.grad_hess_manual(pts, ctr)
    np.testing.assert_allclose(g[:2], gm[:2])
    np.testing.assert_allclose(h, hm)
    e = np.zeros_like(ctr)
    e[2, 1] = 1e-6
    fd = (fc(pts, ctr + e, backend="ref") - fc(pts, ctr - e, backend="ref")) / 2e-6
    assert fd == g[2, 1] == 0.0


@pytest.mark.parametrize("backend", LEGS)
@pytest.mark.parametrize("n, k", [(0, 3), (5, 0)])
def test_kmeans_with_no_points_or_no_centres_has_zero_derivatives(n, k, backend):
    rng = np.random.default_rng(0)
    pts, ctr = rng.standard_normal((n, 4)), rng.standard_normal((k, 4))
    fc = rp.compile(kmeans.build_ir(n, k, 4))
    for d in (rp.grad(fc, wrt=[1]), rp.hessian_diag(fc, wrt=1)):
        got = d(pts, ctr, backend=backend)
        assert got.shape == ctr.shape
        np.testing.assert_array_equal(got, np.zeros_like(ctr))


@pytest.mark.parametrize("backend", LEGS)
def test_sparse_kmeans_matches_the_manual_gradient(backend):
    # The per-centre reverse loop of the CSR dot product runs once per row.
    data = datagen.sparse_kmeans_instance(30, 12, 4, k=4, seed=2)
    g = rp.grad(rp.compile(kmeans_sparse.build_ir(30, 4, 12)), wrt=[3])
    np.testing.assert_allclose(g(*data, backend=backend),
                               kmeans_sparse.grad_manual(*data), rtol=1e-12, atol=1e-12)


def test_hot_lane_mutants_are_caught(monkeypatch):
    from repro.core import rules_map

    _check_pool_ties_and_nans("plan")
    _check_no_hit("plan")
    with monkeypatch.context() as m:
        m.setattr(rules_reduce, "first_index", _last_index)
        with pytest.raises(AssertionError):
            _check_pool_ties_and_nans("plan")
    with monkeypatch.context() as m:
        m.setattr(rules_map, "_lane_trips", lambda b, iy, arr: const(1, I64))
        with pytest.raises(AssertionError):
            _check_no_hit("plan")
