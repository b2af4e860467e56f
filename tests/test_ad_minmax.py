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
from repro.ir import I64, Lambda, Var
from repro.ir.ast import Iota, Size
from repro.ir.builder import Builder, const
from repro.ir.types import elem_type
from repro.util import fresh
from helpers import BACKENDS

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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("op", ["min", "max"])
def test_vjp_routes_to_the_first_extremal_element(op, case, backend):
    _check_vjp(op, _operand(case, op), backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("op", ["min", "max"])
def test_jvp_takes_the_tangent_of_the_first_extremal_element(op, case, backend):
    _check_jvp(op, _operand(case, op), backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_vjp_of_an_all_neutral_array_routes_to_its_first_element(backend):
    # The extremum equals the operator's neutral element; an element holds it.
    _check_vjp("min", np.full(3, INF), backend)
    _check_vjp("max", np.full(3, -INF), backend)


@pytest.mark.parametrize("backend", BACKENDS)
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


@pytest.mark.parametrize("backend", BACKENDS)
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


@pytest.mark.parametrize("backend", BACKENDS)
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
