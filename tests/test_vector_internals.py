"""Unit tests for the vectorised interpreter's batching machinery."""
import inspect
import math

import numpy as np
import pytest

from repro.exec.lower import lift, selector
from repro.exec.vector import BV, _expand, _neutral_of
from repro.util import ExecError


def test_expand_inserts_singleton_axes():
    v = BV(np.ones((3, 4)), 1)  # one batch axis (3), payload (4,)
    d = _expand(v, 3)
    assert d.shape == (3, 1, 1, 4)


def test_expand_rejects_lowering():
    v = BV(np.ones((3, 4)), 2)
    with pytest.raises(ExecError):
        _expand(v, 1)


def _lined_up(vs, pranks):
    """Operands of an elementwise op lined up by their static selectors."""
    k, pmax = max(v.bdims for v in vs), max(pranks)
    sels = [selector(v.bdims, p, k, pmax) for v, p in zip(vs, pranks)]
    return [v.data if s is None else v.data[s] for v, s in zip(vs, sels)], k


def _elem(f, *vs) -> BV:
    """An elementwise op as a fused run executes it (plain-Python bodies)."""
    datas, k = _lined_up(vs, [np.ndim(v.data) - v.bdims for v in vs])
    return BV(np.asarray(f(*datas)), k)


def test_selectors_line_up_batches_and_payloads():
    a = BV(np.ones((3,)), 1)          # batched scalar
    b = BV(np.ones((5,)), 0)          # unbatched vector payload
    (da, db), k = _lined_up([a, b], [0, 1])
    assert k == 1
    assert da.shape == (3, 1)
    assert db.shape == (5,)  # no batch axes: NumPy's left-padding lines it up
    # The result broadcasts to (3, 5):
    assert (da + db).shape == (3, 5)
    assert selector(1, 1, 1, 1) is None and selector(0, 0, 2, 1) is None
    assert selector(1, 0, 2, 1) == (slice(None), None, None, Ellipsis)
    assert lift(0, 2) == (None, None, Ellipsis) and lift(2, 2) is None


def test_neutral_of_dtypes():
    assert _neutral_of("add", np.dtype(np.float64)) == 0.0
    assert _neutral_of("mul", np.dtype(np.float64)) == 1.0
    assert _neutral_of("min", np.dtype(np.float64)) == np.inf
    assert _neutral_of("max", np.dtype(np.int64)) == np.iinfo(np.int64).min


def test_bv_payload_introspection():
    v = BV(np.zeros((2, 3, 4)), 1)
    assert v.pshape() == (3, 4)


# ---------------------------------------------------------------------------
# Instruction kernels: each against a per-lane Python-loop expectation, at
# batch depth 0, 1 and 2, masked and unmasked.  ``ref`` never imports
# ``vector.py``; these are the kernels' own unit tests.
# ---------------------------------------------------------------------------

from types import SimpleNamespace  # noqa: E402

from repro.exec import lower, values as exec_values, vector as V  # noqa: E402
from repro.exec.vector import AccBV  # noqa: E402

BATCHES = [(), (3,), (2, 3)]
_OPS = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b, "min": min, "max": max}
_NE = {"add": 0.0, "mul": 1.0, "min": np.inf, "max": -np.inf}


def _eng(bshape, masked):
    """An engine state at batch shape ``bshape``; ``masked``: lanes alternate
    active/inactive (depth 0 has one lane, and a mask there is always on)."""
    mask = None
    lanes = int(np.prod(bshape, dtype=int))
    if masked:
        on = np.arange(lanes).reshape(bshape) % 2 == 0
        mask = BV(on, len(bshape))
    return SimpleNamespace(bstack=list(bshape), mask=mask, updacc=None)


def _active(eng, lane) -> bool:
    return eng.mask is None or bool(eng.mask.data[lane])


def _full(out: BV, bshape):
    """A kernel result at full batch extent (batch axes may come back as 1)."""
    d = _expand(out, len(bshape))
    return np.broadcast_to(d, bshape + d.shape[len(bshape):])


def _rand(rng, bshape, *payload):
    return rng.standard_normal(bshape + payload)


both = pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
depths = pytest.mark.parametrize("bshape", BATCHES, ids=["d0", "d1", "d2"])


@both
@depths
@pytest.mark.parametrize("n", [1, 4])
def test_update_kernel(bshape, masked, n):
    """Active lanes write at the clipped index (an out-of-range index is
    memory-safe, not an error); inactive lanes keep the array whatever their
    index holds; the input is never written."""
    rng = np.random.default_rng(0)
    eng, d = _eng(bshape, masked), len(bshape)
    arr, val = _rand(rng, bshape, n, 2), _rand(rng, bshape, 2)
    idx = rng.integers(-3, n + 3, size=bshape)  # in and out of range, every lane kind
    before = arr.copy()
    out = _full(V._update(eng, BV(arr, d), [BV(idx, d)], BV(val, d), d), bshape)
    for lane in np.ndindex(*bshape):
        want = arr[lane].copy()
        if _active(eng, lane):
            want[min(max(int(idx[lane]), 0), n - 1)] = val[lane]
        np.testing.assert_array_equal(out[lane], want)
    np.testing.assert_array_equal(arr, before)
    # A lane-uniform array and value under batched indices: materialised per lane.
    if d:
        out = V._update(eng, BV(arr[(0,) * d], 0), [BV(idx, d)], BV(val[(0,) * d], 0), d)
        assert out.bdims == d and out.data.shape == bshape + (n, 2)


def test_update_kernel_two_indices_on_a_matrix():
    eng = _eng((), False)
    arr = np.arange(12.0).reshape(3, 4)
    idxs = [BV(np.int64(2), 0), BV(np.int64(9), 0)]
    out = V._update(eng, BV(arr, 0), idxs, BV(np.float64(-1), 0), 0)
    want = arr.copy()
    want[2, 3] = -1.0  # column 9 clips to 3
    np.testing.assert_array_equal(out.data, want)


@depths
def test_iota_replicate_scratch_size_reverse_concat_kernels(bshape):
    rng = np.random.default_rng(1)
    eng, d = _eng(bshape, False), len(bshape)
    for n in (0, 1, 3):
        np.testing.assert_array_equal(V._iota(eng, n, np.int64).data, np.arange(n))
        v = _rand(rng, bshape, 2)
        rep = V._replicate(eng, n, BV(v, d))
        assert rep.bdims == d and rep.data.shape == bshape + (n, 2)
        for lane in np.ndindex(*bshape):
            np.testing.assert_array_equal(rep.data[lane], np.broadcast_to(v[lane], (n, 2)))
        x = _rand(rng, bshape, n, 2)
        rev = V._reverse(eng, BV(x, d))
        np.testing.assert_array_equal(rev.data, x[(slice(None),) * d + (slice(None, None, -1),)])
        assert rev.data.flags.owndata
        assert int(V._size(eng, BV(x, d), 0).data) == n
        assert int(V._size(eng, AccBV(x, d), 1).data) == 2
        y = _rand(rng, (), 2, 2)  # lane-uniform second operand
        cat = V._concat(eng, BV(x, d), BV(y, 0))
        assert cat.bdims == d and cat.data.shape == bshape + (n + 2, 2)
        for lane in np.ndindex(*bshape):
            np.testing.assert_array_equal(cat.data[lane], np.concatenate([x[lane], y]))
    # scratch: the largest requested extent over the lanes, zero-filled.
    counts = np.arange(int(np.prod(bshape, dtype=int))).reshape(bshape)
    sc = V._scratch(eng, BV(counts, d), BV(_rand(rng, bshape, 2), d))
    assert sc.bdims == d and sc.data.shape == bshape + (int(counts.max()), 2)
    assert not sc.data.any()
    none = V._scratch(eng, BV(np.zeros(0, dtype=np.int64), 0), BV(np.float64(1), 0))
    assert none.data.shape == bshape + (0,)


@both
@depths
@pytest.mark.parametrize("n", [0, 1, 5])
def test_scatter_kernel(bshape, masked, n):
    rng = np.random.default_rng(2)
    eng, d = _eng(bshape, masked), len(bshape)
    ln = 4
    dest, vals = _rand(rng, bshape, ln, 2), _rand(rng, bshape, n, 2)
    # Distinct targets per lane, out-of-range ones included (-2, -1, 4, 5).
    inds = np.stack([rng.permutation(np.arange(-2, ln + 2))[:n] for _ in np.ndindex(*bshape)])
    inds = inds.reshape(bshape + (n,))
    before = dest.copy()
    out = _full(V._scatter(eng, BV(dest, d), BV(inds, d), BV(vals, d)), bshape)
    for lane in np.ndindex(*bshape):
        want = dest[lane].copy()
        for j in range(n):
            if _active(eng, lane) and 0 <= inds[lane][j] < ln:
                want[inds[lane][j]] = vals[lane][j]
        np.testing.assert_array_equal(out[lane], want)
    np.testing.assert_array_equal(dest, before)


@depths
@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("op", list(_OPS))
@pytest.mark.parametrize("n", [0, 1, 5])
def test_ufunc_reduce_and_scan_run_the_redomap_kernel(bshape, n, op, fold):
    rng = np.random.default_rng(3)
    eng, d = _eng(bshape, False), len(bshape)
    xs = _rand(rng, bshape, n)
    # ``fold``: the neutral element is not the operator's own and is folded in.
    ne = 0.25 if fold else _NE[op]
    # The ``ufunc`` strategy: the redomap kernel with no map part.
    (red,) = V._redomap(eng, [BV(xs, d)], [BV(np.float64(ne), 0)], "reduce", op, fold, None)
    red = _full(red, bshape)
    (scn,) = V._redomap(eng, [BV(xs, d)], [BV(np.float64(ne), 0)], "scan", op, fold, None)
    assert scn.bdims == d
    scn = _full(scn, bshape)
    assert scn.shape == bshape + (n,)
    for lane in np.ndindex(*bshape):
        acc, pre = ne, []
        for x in xs[lane]:
            acc = _OPS[op](acc, x)
            pre.append(acc)
        np.testing.assert_allclose(red[lane], acc, rtol=1e-14)
        np.testing.assert_allclose(scn[lane], pre, rtol=1e-14)


@depths
def test_redomap_tails_broadcast_a_lane_uniform_body_result(bshape):
    """``_lane_payload``: a lambda whose result does not depend on its element
    comes back with fewer batch axes and stands for ``n`` equal lanes."""
    eng, d = _eng(bshape, False), len(bshape)
    r = BV(np.float64(1.5), 0)
    assert V._lane_payload(eng, r, 4).shape == (1,) * d + (4,)
    np.testing.assert_array_equal(_full(V._reduce_lanes(eng, "add", False, r, r, 4), bshape), 6.0)
    np.testing.assert_array_equal(
        _full(V._scan_lanes(eng, "add", True, BV(np.float64(1.0), 0), r, 3), bshape),
        np.broadcast_to([2.5, 4.0, 5.5], bshape + (3,)),
    )
    empty = V._fold_empty(eng, BV(np.float64(7.0), 0))
    assert empty.bdims == d and empty.data.shape == bshape and (empty.data == 7.0).all()
    e2 = V._scan_empty(eng, BV(np.zeros(3, dtype=np.float32), 0))
    assert e2.data.shape == (1,) * d + (0, 3) and e2.data.dtype == np.float32 and e2.bdims == d


def test_map_result_is_owned_contiguous_and_full_extent():
    eng = _eng((2,), False)
    src = np.arange(24.0).reshape(2, 3, 4)
    view = BV(src.transpose(0, 2, 1), 2)  # what ``_index`` may hand a body: a view
    out = V._map_result(eng, view, 4)
    assert out.bdims == 1 and out.data.flags.owndata and out.data.flags.c_contiguous
    np.testing.assert_array_equal(out.data, src.transpose(0, 2, 1))
    assert not np.shares_memory(out.data, src)
    uni = V._map_result(eng, BV(np.float64(2.0), 0), 3)  # lane-uniform result
    assert uni.data.shape == (1, 3) and (uni.data == 2.0).all()


def _hist_want(eng, bshape, m, inds, vals, op, ne):
    want = np.full(bshape + (m,) + vals.shape[len(bshape) + 1:], ne)
    for lane in np.ndindex(*bshape):
        for j in range(inds.shape[-1]):
            b = inds[lane][j]
            if _active(eng, lane) and 0 <= b < m:
                want[lane][b] = V._UFUNC[op](want[lane][b], vals[lane][j])
    return want


@both
@depths
@pytest.mark.parametrize("op", list(_OPS))
@pytest.mark.parametrize("n", [0, 1, 6])
def test_hist_kernels_ufunc_redomap_and_generic(bshape, masked, n, op):
    """One expectation, three routes: the ``hist:redomap`` kernel with no map
    part (the ``ufunc`` strategy) and with an identity one (run once, one
    lane level down — also over no elements), and the element-at-a-time
    ``hist:generic`` one driven by a Python operator body.  Indices run from
    -2 to m+1 in every kind of lane."""
    rng = np.random.default_rng(4)
    eng, d = _eng(bshape, masked), len(bshape)
    m = 3
    inds = rng.integers(-2, m + 2, size=bshape + (n,))
    vals = np.abs(_rand(rng, bshape, n)) + 0.5
    nes = [BV(np.float64(_NE[op]), 0)]
    want = _hist_want(eng, bshape, m, inds, vals, op, _NE[op])
    arrs = [BV(inds, d), BV(vals, d)]
    (got,) = V._hist_redomap(eng, m, arrs, nes, op, None)
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)
    depths_seen = []

    def part(e, vs):
        depths_seen.append(list(e.bstack))
        assert vs[0].bdims == d + 1
        return (vs[0],)

    (got,) = V._hist_redomap(eng, m, arrs, nes, op, part)
    assert depths_seen == [list(bshape) + [n]] and eng.bstack == list(bshape)
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)
    steps = []

    def operator(e, vs):
        cur, el = vs
        assert cur.bdims == el.bdims == d and e.bstack == list(bshape)
        steps.append(1)
        return (_elem(V._UFUNC[op], cur, el),)

    (got,) = V._hist_fold(eng, m, arrs, nes, operator)
    assert len(steps) == n  # over no elements the operator never runs
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)


def test_hist_accumulate_with_a_vector_payload_and_a_lane_uniform_map_result():
    eng = _eng((2,), False)
    inds = np.array([[0, 2, 2], [1, 1, 5]])
    args, n, hs = V._hist_enter(eng, 3, [BV(inds, 1), BV(np.zeros((2, 3, 2)), 1)])
    got = V._hist_accumulate(eng, "add", BV(np.zeros(2), 0), hs, BV(np.array([1.0, 10.0]), 0))
    want = np.array([[[1, 10], [0, 0], [2, 20]], [[0, 0], [2, 20], [0, 0]]], dtype=float)
    np.testing.assert_array_equal(got.data, want)


# ---------------------------------------------------------------------------
# Indexed kernels: one linear index (``_linear``) into the array, checked
# bitwise against per-lane loops — every read, last-writer-wins write and
# ``ufunc.at`` update happens in the order the loop makes it.  Indices run
# negative, past the end and onto one another; a batch axis of extent 1
# meets index lanes of full extent.
# ---------------------------------------------------------------------------


def _clip(i, n):
    return min(max(int(i), 0), n - 1)


def _lane(v: BV, lane):
    """``v``'s value on ``lane``: a batch axis of extent 1 is shared."""
    d = np.asarray(v.data)
    return d[tuple(0 if s == 1 else i for i, s in zip(lane, d.shape[: v.bdims]))]


def _tuple_index(shape, k, idxs):
    """What ``_linear`` replaced: open grids over the batch axes, then the
    clipped index arrays."""
    nd = max([k] + [np.ndim(i) for i in idxs])
    grids = tuple(np.arange(s).reshape((1,) * a + (s,) + (1,) * (nd - 1 - a))
                  for a, s in enumerate(shape[:k]))
    return grids + tuple(np.clip(i, 0, max(shape[k + a] - 1, 0)) for a, i in enumerate(idxs))


@pytest.mark.parametrize("shape,k,idxs", [
    ((1, 3, 5, 2), 2, [np.array([[-2, 0, 4], [5, 9, 0]])]),  # extent-1 batch axis, 2 index lanes
    ((2, 3, 4), 1, [np.array([[0, 3, 3, -1, 7], [2, 2, 0, 1, 4]])]),  # hist-style lane axis
    ((4, 3), 0, [np.array(7)]),  # depth 0: one row
    ((2, 6, 4, 3), 1, [np.array([[1], [9]]), np.array([[-1, 2, 5]])]),  # two operands
    ((0, 4), 1, [np.zeros(1, dtype=np.int64)]),  # a batch axis of extent 0
    ((3, 4, 0), 1, [np.array([0, 1, 5])]),  # rows of extent 0
], ids=["extent1", "hist", "d0", "two", "zero-batch", "zero-rows"])
def test_linear_index_visits_what_the_tuple_index_does(shape, k, idxs):
    a = np.arange(float(math.prod(shape))).reshape(shape)
    want = a[_tuple_index(shape, k, idxs)]
    rows = V._rows(a, k + len(idxs))
    np.testing.assert_array_equal(rows.take(V._linear(shape, k, idxs), axis=0), want)
    elems = V._linear(shape, k, idxs, elems=True)
    np.testing.assert_array_equal(a.reshape(-1)[elems], want)
    assert np.asarray(elems).dtype == np.intp


def _gather(arr: BV, idxs):
    """``_gather`` of batched values: lifted to their deepest batch depth."""
    k = max([arr.bdims] + [i.bdims for i in idxs])
    sels = tuple(lift(v.bdims, k) for v in [arr, *idxs])
    return V._gather(arr.data, [i.data for i in idxs], k, sels)


def test_gather_kernel_lanes_rows_and_sources():
    rng = np.random.default_rng(6)
    # A source shared by one batch axis (extent 1), read by index lanes of full extent.
    src = rng.standard_normal((1, 3, 5, 2))
    idx = np.array([[-2, 0, 4], [5, 9, 0]])
    out = _gather(BV(src, 2), [BV(idx, 2)])
    assert out.bdims == 2 and out.data.shape == (2, 3, 2)
    for lane in np.ndindex(2, 3):
        np.testing.assert_array_equal(out.data[lane], src[0, lane[1], _clip(idx[lane], 5)])
    # A transposed (not C-contiguous) source, two operands of different depth.
    src = rng.standard_normal((4, 6)).T
    i, j = np.array([0, 5, 7, -1]), np.array([[3, 1, -4]])
    out = _gather(BV(src, 0), [BV(i, 1), BV(j, 2)])
    assert out.bdims == 2 and out.data.shape == (4, 3)
    for a, b in np.ndindex(4, 3):
        assert out.data[a, b] == src[_clip(i[a], 6), _clip(j[0, b], 4)]
    # Zero extents: no index lanes; a source batch axis of extent 0.
    none = _gather(BV(np.arange(5.0), 0), [BV(np.zeros(0, dtype=np.int64), 1)])
    assert none.data.shape == (0,) and none.bdims == 1
    none = _gather(BV(np.zeros((0, 5)), 1), [BV(np.int64(2), 0)])
    assert none.data.shape == (0,) and none.bdims == 1
    # Depth 0: one row, a copy.
    src = rng.standard_normal((4, 3))
    one = _gather(BV(src, 0), [BV(np.int64(-3), 0)])
    np.testing.assert_array_equal(one.data, src[0])
    assert not np.shares_memory(one.data, src)


@both
@pytest.mark.parametrize("ka", [0, 1], ids=["acc-d0", "acc-d1"])
def test_upd_acc_scatter_path_against_a_per_lane_loop(masked, ka):
    """``upd acc[i] += v`` with row values into an accumulator with and
    without batch axes; the index has one lane axis of extent 1."""
    rng = np.random.default_rng(7)
    bshape = (3, 4)
    eng = _eng(bshape, masked)
    start = rng.standard_normal(bshape[:ka] + (5, 2))
    idx = np.array([[-2, 6, 3, 3]])
    for v in (BV(rng.standard_normal(bshape + (2,)), 2), BV(rng.standard_normal((1, 4, 2)), 2),
              BV(rng.standard_normal(2), 0)):  # full, extent-1 lane axis, lane-uniform
        acc = AccBV(start.copy(), ka)
        assert V._upd_acc(eng, acc, [BV(idx, 2)], v, None, (2, None, None)) is acc
        want = start.copy()
        for lane in np.ndindex(*bshape):
            if _active(eng, lane):
                want[lane[:ka] + (_clip(idx[0, lane[1]], 5),)] += _lane(v, lane)
        np.testing.assert_array_equal(acc.data, want)
    # No lanes at all: nothing is added.
    acc = AccBV(np.ones((5, 2)), 0)
    V._upd_acc(_eng((0,), False), acc, [BV(np.zeros(0, dtype=np.int64), 1)],
               BV(np.zeros((0, 2)), 1), None, (1, None, None))
    np.testing.assert_array_equal(acc.data, np.ones((5, 2)))


@both
@pytest.mark.parametrize("op", ["add", "max"])
def test_hist_kernels_with_rows_duplicates_and_an_extent_1_batch_axis(masked, op):
    rng = np.random.default_rng(8)
    bshape, m = (1, 3), 3
    eng = _eng(bshape, masked)
    inds = np.array([[[0, 2, 2, -1, 3, 2], [1, 1, 1, 0, 5, -3], [2, 0, 2, 0, 2, 0]]])
    vals = rng.standard_normal(bshape + (6, 2))
    ne = _NE[op]
    want = _hist_want(eng, bshape, m, inds, vals, op, ne)
    args, _n, hs = V._hist_enter(eng, m, [BV(inds, 2), BV(vals, 2)])
    got = V._hist_accumulate(eng, op, BV(np.full(2, ne), 0), hs, args[1])
    np.testing.assert_array_equal(got.data, want)
    (got,) = V._hist_fold(eng, m, [BV(inds, 2), BV(vals, 2)], [BV(np.full(2, ne), 0)],
                          lambda e, vs: (_elem(V._UFUNC[op], *vs),))
    np.testing.assert_array_equal(got.data, want)


@both
def test_scatter_kernel_last_writer_wins_rows_and_a_zero_extent(masked):
    rng = np.random.default_rng(9)
    bshape = (1, 3)
    eng = _eng(bshape, masked)
    dest, vals = rng.standard_normal(bshape + (4, 2)), rng.standard_normal(bshape + (5, 2))
    inds = np.array([[[1, 1, -1, 4, 1], [0, 3, 0, 9, 2], [2, 2, 2, 2, 2]]])
    out = V._scatter(eng, BV(dest, 2), BV(inds, 2), BV(vals, 2))
    for lane in np.ndindex(*bshape):
        want = dest[lane].copy()
        for j in range(5):
            if _active(eng, lane) and 0 <= inds[lane][j] < 4:
                want[inds[lane][j]] = vals[lane][j]
        np.testing.assert_array_equal(out.data[lane], want)
    empty = V._scatter(eng, BV(np.zeros(bshape + (0, 2)), 2), BV(inds, 2), BV(vals, 2))
    assert empty.data.shape == bshape + (0, 2)


@both
def test_update_kernel_rows_an_extent_1_batch_axis_and_a_transposed_source(masked):
    rng = np.random.default_rng(10)
    bshape = (2, 3)
    eng = _eng(bshape, masked)
    arr = rng.standard_normal((1, 3, 4, 2))  # shared by the first batch axis
    idx, val = np.array([[-1, 2, 7], [3, 3, 0]]), rng.standard_normal((1, 1, 2))
    out = V._update(eng, BV(arr, 2), [BV(idx, 2)], BV(val, 2), 2)
    assert out.data.shape == bshape + (4, 2)
    for lane in np.ndindex(*bshape):
        want = arr[0, lane[1]].copy()
        if _active(eng, lane):
            want[_clip(idx[lane], 4)] = val[0, 0]
        np.testing.assert_array_equal(out.data[lane], want)
    src = rng.standard_normal((3, 5)).T  # (5, 3), not C-contiguous
    out = V._update(_eng((), False), BV(src, 0), [BV(np.int64(9), 0), BV(np.int64(1), 0)],
                    BV(np.float64(-1.0), 0), 0)
    want = src.copy()
    want[4, 1] = -1.0
    np.testing.assert_array_equal(out.data, want)


@depths
def test_withacc_entry_and_exit_kernels(bshape):
    eng, d = _eng(bshape, False), len(bshape)
    src = np.arange(3.0)
    seen = []

    def body(e, vals):
        (acc,) = vals
        assert isinstance(acc, AccBV) and acc.bdims == d and acc.data.shape == bshape + (3,)
        acc.data += 1.0
        seen.append(acc)
        return acc, BV(np.float64(5.0), 0)

    out, extra = V._withacc(eng, [BV(src, 0)], 1, body)
    np.testing.assert_array_equal(src, np.arange(3.0))  # a private buffer
    assert isinstance(out, BV) and out.data is seen[0].data and out.bdims == d
    assert (out.data == np.arange(3.0) + 1.0).all() and extra.data == 5.0
    with pytest.raises(ExecError, match="must return its accumulators"):
        V._withacc(eng, [BV(src, 0)], 1, lambda e, vals: (BV(src, 0),))


def test_branch_kernel_scalar_condition_runs_one_branch():
    eng = _eng((), False)
    ran = []
    then_fn = lambda e, vals: ran.append("t") or (BV(np.float64(1.0), 0),)  # noqa: E731
    else_fn = lambda e, vals: ran.append("f") or (BV(np.float64(2.0), 0),)  # noqa: E731
    assert V._branch(eng, BV(np.array(True), 0), (0,), then_fn, else_fn)[0].data == 1.0
    (out,) = V._branch(eng, BV(np.array([False]), 1), (1,), then_fn, else_fn)
    assert out.bdims == 1 and out.data.tolist() == [2.0]  # raised to the join's depth
    assert ran == ["t", "f"] and eng.mask is None


@both
def test_branch_kernel_batched_condition_runs_both_under_complementary_masks(masked):
    eng = _eng((4,), masked)
    outer = np.ones(4, dtype=bool) if eng.mask is None else eng.mask.data.copy()
    saved = eng.mask
    c = np.array([True, False, False, True])
    seen = {}

    def then_fn(e, vals):
        seen["t"] = e.mask.data.copy()
        return BV(np.full(4, 1.0), 1), acc

    def else_fn(e, vals):
        seen["f"] = e.mask.data.copy()
        return BV(np.float64(2.0), 0), acc

    acc = AccBV(np.zeros(4), 1)
    val, acc_out = V._branch(eng, BV(c, 1), (1, 1), then_fn, else_fn)
    np.testing.assert_array_equal(seen["t"], outer & c)
    np.testing.assert_array_equal(seen["f"], outer & ~c)
    np.testing.assert_array_equal(val.data, np.where(c, 1.0, 2.0))
    assert acc_out is acc and eng.mask is saved
    with pytest.raises(ExecError, match="threaded identically"):
        V._branch(eng, BV(c, 1), (1,), lambda e, v: (acc,),
                  lambda e, v: (AccBV(np.zeros(4), 1),))


@depths
def test_stack_columns_and_elems_at(bshape):
    eng, d = _eng(bshape, False), len(bshape)
    ne = BV(np.float64(0.0), 0)
    assert V._stack_columns(eng, [], ne).data.shape == (1,) * d + (0,)
    # Per-iteration values of different batch depth stack on the lane axis.
    col = [BV(np.float64(1.0), 0), BV(np.full(bshape, 2.0), d)]
    out = V._stack_columns(eng, col, ne)
    assert out.bdims == d
    np.testing.assert_array_equal(out.data, np.broadcast_to([1.0, 2.0], bshape + (2,)))
    xs = np.arange(float(np.prod(bshape + (3, 2), dtype=int))).reshape(bshape + (3, 2))
    (el,) = V._elems_at([BV(xs, d + 1)], 1, d)
    assert el.bdims == d
    np.testing.assert_array_equal(el.data, xs[(slice(None),) * d + (1,)])


def test_out_of_fuel_is_the_one_wording():
    err = V._out_of_fuel(25)
    assert isinstance(err, ExecError) and "exceeded iteration fuel (25 iterations)" in str(err)


def test_leaf_kernel_table_names_fields_the_plan_ir_has():
    """``KERNELS`` reads instruction records by field name: every plan-IR
    kind but a fused ``run`` has one entry (one per strategy for the fold
    family, ``IFold``, whose ``ufunc`` runs the redomap kernel), every
    operand, static and body field an entry names is a slot of that
    instruction class (a ``"layout"`` static is the emitting ``Layout``'s
    fact, ``Layout.static``), a body's last field holds the ``PBody`` and the
    kernel takes exactly ``eng`` plus what the entry names."""
    by_kind = {c.kind: c for c in vars(lower).values()
               if isinstance(c, type) and issubclass(c, lower._Instr)
               and c not in (lower._Instr, lower.IFold)}
    by_kind.update(dict.fromkeys(("reduce", "scan", "hist"), lower.IFold))

    def slots_of(cls):
        return {s for k in cls.__mro__ for s in getattr(k, "__slots__", ())}

    strategies = ("ufunc", "redomap", "generic")
    want = {k for k in by_kind if k not in ("run", "reduce", "scan", "hist")}
    want |= {f"{k}:{s}" for k in ("reduce", "scan", "hist") for s in strategies}
    assert set(V.KERNELS) == want
    bodies_of = {}
    for key, (kernel, operands, statics, bodies) in V.KERNELS.items():
        slots = slots_of(by_kind[key.split(":")[0]])
        named = set(operands) | set(statics) - {"layout"} | {f for b in bodies for f in b}
        assert callable(kernel) and named <= slots, key
        assert "out" in slots or "outs" in slots, key
        bodies_of[key] = [b[-1] for b in bodies]
        inspect.signature(kernel).bind(None, *[None] * (len(operands) + len(statics) + len(bodies)))
    assert bodies_of["if"] == ["then", "els"] and bodies_of["while"] == ["cbody", "body"]
    for k in ("reduce", "scan", "hist"):
        assert [bodies_of[f"{k}:{s}"] for s in strategies] == [["mbody"], ["mbody"], ["body"]]
    with pytest.raises(KeyError):
        V.kernel_of(lower.IRun((), ()))


# ---------------------------------------------------------------------------
# Kernels that run nested bodies, driven by plain-Python bodies
# ---------------------------------------------------------------------------


def _scalars(bshape, fn):
    """A body over batched scalars: ``fn`` on the data arrays."""
    d = len(bshape)

    def body(e, vals):
        return tuple(BV(np.asarray(r), d) for r in fn(*[np.broadcast_to(
            _expand(v, d), bshape) for v in vals]))

    return body


@both
def test_map_kernel_runs_its_body_one_lane_level_down(masked):
    eng = _eng((2,), masked)
    xs = np.arange(6.0).reshape(2, 3)
    acc = AccBV(np.zeros(2), 1)
    seen = {}

    def body(e, vals):
        x, a = vals
        seen.update(bstack=list(e.bstack), bdims=x.bdims)
        assert a is acc
        return a, BV(x.data * 2.0, x.bdims)

    a, out = V._map(eng, [BV(xs, 1)], [acc], 1, body)
    assert seen == {"bstack": [2, 3], "bdims": 2}
    assert eng.bstack == [2]
    assert a is acc and out.bdims == 1 and (out.data == xs * 2.0).all()
    with pytest.raises(ExecError, match="accumulator results must lead"):
        V._map(eng, [BV(xs, 1)], [acc], 1, lambda e, vals: (vals[0], vals[1]))
    assert eng.bstack == [2]  # restored on the way out too


@both
@pytest.mark.parametrize("outer", [(), (3,)], ids=["d0", "d1"])
def test_loop_kernel_runs_lane_varying_trip_counts_under_an_outer_mask(outer, masked):
    """Each lane makes its own trip count; the body sees the outer mask
    narrowed to the lanes still running, the lanes that stopped keep their
    state, accumulators are threaded and the results own their memory."""
    eng, d = _eng(outer, masked), len(outer)
    saved = eng.mask
    counts = np.array([2, 0, 3]) if outer else np.array(2)
    x0 = np.array([1.0, 2.0, 3.0]) if outer else np.array(1.0)
    acc = AccBV(np.zeros(outer), d)
    masks = []

    def body(e, vals):
        i, x, a = vals
        masks.append(None if e.mask is None else np.broadcast_to(e.mask.data, outer).copy())
        return BV(x.data * 2.0 + i.data, d), a

    x, a = V._loop(eng, BV(counts, d), [BV(x0, d), acc], (d, d), body)
    assert a is acc and eng.mask is saved
    want = x0.copy()
    for lane in np.ndindex(*outer):
        for i in range(counts[lane]):
            want[lane] = want[lane] * 2.0 + i
    np.testing.assert_array_equal(_full(x, outer), want)
    assert len(masks) == counts.max()
    outer_on = np.ones(outer, bool) if not masked else eng.mask.data
    uniform = counts.size == 1
    for i, m in enumerate(masks):
        if uniform:
            assert m is None if not masked else (m == outer_on).all()
        else:
            np.testing.assert_array_equal(m, outer_on & (i < counts))
    # no trip: the initial state comes back as an array of its own
    view = np.arange(4.0)[1:]
    (y,) = V._loop(eng, BV(np.int64(0), 0), [BV(view, 0)], (0,), body)
    assert y.data.flags.owndata and not np.shares_memory(y.data, view)


@both
def test_while_kernel_under_a_batched_condition_and_out_of_fuel(masked, monkeypatch):
    eng = _eng((4,), masked)
    saved = eng.mask
    outer_on = np.ones(4, bool) if not masked else eng.mask.data.copy()
    limit = np.array([0.0, 3.0, 1.0, 5.0])
    cond = _scalars((4,), lambda x: (x < limit,))
    seen = []

    def body(e, vals):
        seen.append(e.mask.data.copy())
        return (BV(vals[0].data + 1.0, 1),)

    (x,) = V._while(eng, [BV(np.zeros(4), 1)], (1,), cond, body)
    want = np.where(outer_on, limit, 0.0)
    np.testing.assert_array_equal(x.data, want)
    assert len(seen) == int(want.max()) and eng.mask is saved
    for k, m in enumerate(seen):
        np.testing.assert_array_equal(m, outer_on & (k < limit))
    monkeypatch.setattr(exec_values, "WHILE_FUEL", 3)
    forever = _scalars((4,), lambda x: (x == x,))
    with pytest.raises(ExecError, match=r"exceeded iteration fuel \(3 iterations\)"):
        V._while(eng, [BV(np.zeros(4), 1)], (1,), forever, body)


@depths
def test_generic_fold_and_scan_kernels_collect_one_column_per_result(bshape):
    rng = np.random.default_rng(5)
    eng, d = _eng(bshape, False), len(bshape)
    xs, ys = _rand(rng, bshape, 4), _rand(rng, bshape, 4)
    nes = [BV(np.float64(0.5), 0), BV(np.float64(1.0), 0)]

    def op(e, vals):  # (sum of x, running product of y)
        a, b, x, y = vals
        assert x.bdims == d and e.bstack == list(bshape)
        return _elem(np.add, a, x), _elem(np.multiply, b, y)

    red = V._fold(eng, [BV(xs, d), BV(ys, d)], nes, "reduce", (d, d), op)
    scn = V._fold(eng, [BV(xs, d), BV(ys, d)], nes, "scan", (d, d), op)
    want_s = 0.5 + np.cumsum(xs, axis=-1)
    want_p = np.cumprod(ys, axis=-1)
    np.testing.assert_allclose(_full(red[0], bshape), want_s[..., -1], rtol=1e-14)
    np.testing.assert_allclose(_full(red[1], bshape), want_p[..., -1], rtol=1e-14)
    np.testing.assert_allclose(_full(scn[0], bshape), want_s, rtol=1e-14)
    np.testing.assert_allclose(_full(scn[1], bshape), want_p, rtol=1e-14)


@depths
def test_redomap_fold_and_hist_kernels_over_no_elements(bshape):
    """An empty extent: the neutral element on every lane (reduce), an empty
    array (scan), ``m`` bins of it (hist); a redomap's map part and a generic
    operator never run — a hist's map part runs once, on no lanes."""
    eng, d = _eng(bshape, False), len(bshape)
    empty = BV(np.zeros(bshape + (0,)), d)
    ne = BV(np.float64(7.0), 0)
    ran = []

    def body(e, vals):
        ran.append(list(e.bstack))
        return (vals[0],)

    (r,) = V._redomap(eng, [empty], [ne], "reduce", "add", True, body)
    assert r.bdims == d and _full(r, bshape).shape == bshape and (r.data == 7.0).all()
    (sc,) = V._redomap(eng, [empty], [ne], "scan", "add", True, body)
    assert sc.bdims == d and sc.data.shape == (1,) * d + (0,)
    assert V._fold(eng, [empty], [ne], "reduce", (0,), body) == [ne]
    (col,) = V._fold(eng, [empty], [ne], "scan", (0,), body)
    assert col.bdims == d and col.data.shape == (1,) * d + (0,)
    inds = BV(np.zeros(bshape + (0,), dtype=np.int64), d)
    (h,) = V._hist_fold(eng, 2, [inds, empty], [ne], body)
    assert ran == [] and h.data.shape == bshape + (2,) and (h.data == 7.0).all()
    (h,) = V._hist_redomap(eng, 2, [inds, empty], [ne], "add", body)
    assert ran == [list(bshape) + [0]] and h.data.shape == bshape + (2,) and (h.data == 7.0).all()


# ---------------------------------------------------------------------------
# The static layout (``exec/lower.py:layout``): every value's batch depth is
# fixed when the plan is emitted, ``verify_layout`` re-derives it, and at run
# time each value carries exactly that depth.
# ---------------------------------------------------------------------------

import repro as rp  # noqa: E402
from repro.exec.lower import layout, lower_fun  # noqa: E402
from repro.exec import plan as plan_mod  # noqa: E402
from repro.exec.plan import Plan, _ClosureEmitter  # noqa: E402
from repro.exec.verify_plan import verify_layout  # noqa: E402
from repro.frontend.function import batched_fun  # noqa: E402
from repro.ir.verify import VerifyError  # noqa: E402


def _nested(xs, ys):
    """A loop whose state starts as a constant and becomes a lane value, and
    a product of an outer and an inner lane value (a selector with ``None``)."""
    def lane(x):
        acc = rp.fori_loop(3, lambda i, a: a * 0.5 + x, 0.0)
        return rp.sum(rp.map(lambda y: x * y + acc, ys))
    return rp.map(lane, xs)


def _fresh_layout(f=_nested, args=(np.ones(3), np.ones(4))):
    ir = lower_fun(rp.compile(rp.trace_like(f, args)).fun)
    lay = layout(ir)
    verify_layout(ir, lay)  # the unmutated layout holds
    return ir, lay


def _a_lined_up_op(lay):
    return next(o for o, lo in lay.ops.items()
                if o.kind == "binop" and any(s is not None and None in s for s in lo.sels))


def test_layout_mutant_a_run_op_one_level_too_shallow_is_caught():
    ir, lay = _fresh_layout()
    lay.ops[_a_lined_up_op(lay)].k -= 1
    with pytest.raises(VerifyError, match="put it at"):
        verify_layout(ir, lay)


def test_layout_mutant_a_selector_missing_a_none_is_caught():
    ir, lay = _fresh_layout()
    lo = lay.ops[_a_lined_up_op(lay)]
    q = next(q for q, s in enumerate(lo.sels) if s is not None and None in s)
    s = list(lo.sels[q])
    s.remove(None)
    lo.sels = lo.sels[:q] + (tuple(s),) + lo.sels[q + 1:]
    with pytest.raises(VerifyError, match="selector"):
        verify_layout(ir, lay)


def test_layout_mutant_a_loop_state_below_its_body_result_is_caught():
    ir, lay = _fresh_layout()
    loop = next(i for i in lay.kernel if i.kind == "loop")
    assert lay.kernel[loop] == (1,)  # 0.0 flows in, a lane value comes back
    lay.kernel[loop] = lay.outs[loop] = (0,)
    # Caught at the body's first read of the state, or at the join.
    with pytest.raises(VerifyError, match="put it at|below what flows in"):
        verify_layout(ir, lay)


def test_layout_mutant_a_lane_update_recorded_at_depth_zero_is_caught():
    """``_update`` trusts a depth-0 fact to mean every operand is lane-uniform
    (its basic-indexing path): a per-lane update recorded at 0 is refused."""
    ir, lay = _fresh_layout(lambda xs, arr: rp.map(lambda x: rp.sum(rp.update(arr, 1, x)), xs),
                            (np.ones(3), np.arange(4.0)))
    upd = next(i for i in lay.kernel if i.kind == "update")
    assert lay.kernel[upd] == 1  # the value is a lane's element
    lay.kernel[upd], lay.outs[upd] = 0, (0,)
    with pytest.raises(VerifyError, match="below what flows in"):
        verify_layout(ir, lay)


def test_update_at_depth_zero_is_the_clipped_write_in_and_out_of_range():
    """The basic-indexing path of an unmasked depth-0 ``update`` gives the
    clipped scatter's bits; an index out of range takes the clipped write."""
    arr = BV(np.arange(12.0).reshape(3, 4), 0)
    val = BV(np.full(4, -1.0), 0)
    eng = _eng((), False)
    for j in (0, 2, 3, -1):
        got = V._update(eng, arr, [BV(np.asarray(j), 0)], val, 0)
        want = arr.data.copy()
        want[min(max(j, 0), 2)] = -1.0
        assert got.bdims == 0 and got.data.tobytes() == want.tobytes(), j
    assert arr.data[0, 0] == 0.0  # on a copy


def test_layout_mutant_a_wrong_payload_rank_is_caught():
    ir, lay = _fresh_layout()
    op = _a_lined_up_op(lay)
    op.pranks = (op.pranks[0] + 1,) + op.pranks[1:]
    with pytest.raises(VerifyError, match="payload ranks"):
        verify_layout(ir, lay)


class _CheckingEmitter(_ClosureEmitter):
    """Asserts after every instruction, nested bodies included, that each
    value it bound carries the batch depth its layout fact says (run exports
    included)."""

    def _emit_ins(self, ins):
        fn = super()._emit_ins(ins)
        if ins.kind == "run":
            outs = [s for _li, s, _n in ins.exports]
        else:
            outs = [ins.out[0]] if hasattr(ins, "out") else [s for s, _n in ins.outs]
        facts = self.lay.outs[ins]

        def checked(eng):
            fn(eng)
            for s, want in zip(outs, facts):
                v = eng.regs[s]
                if v is not None:  # (an output nobody reads is released at once)
                    assert v.bdims == want, (ins.kind, s, v.bdims, want)
                    assert np.ndim(v.data) >= want

        return checked


def _edge_programs():
    op = lambda a, b: a * b + a  # noqa: E731
    yield (lambda xs, a: rp.map(lambda x: rp.cond(x > 0.0, lambda: x * a, lambda: a), xs),
           (np.array([-0.5]), 2.0), (True, False))
    yield (lambda xs, ns: rp.map(lambda x, n: rp.fori_loop(n, lambda i, a: a * 0.5 + x, 1.0),
                                 xs, ns),
           (np.array([0.5, -1.0]), np.array([2, 2])), (True, False))
    yield (lambda xs, arr: rp.map(lambda x: rp.sum(rp.cond(
        x > 0.0, lambda: rp.update(arr, 1, x), lambda: arr)), xs),
           (np.array([0.5, -1.0]), np.arange(3.0)), (True, False))
    yield (lambda m: rp.map(lambda r: rp.reduce(op, 0.5, r), m), (np.zeros((2, 0)),), (True,))
    yield (lambda m: rp.map(lambda r: rp.scan(op, 0.0, r), m), (np.zeros((2, 0)),), (True,))
    yield (lambda xs: rp.while_loop(lambda a: a < 3.0, lambda a: a + rp.sum(xs), 0.0),
           (np.array([0.5, 1.0]),), (True,))
    yield (_nested, (np.ones(3), np.ones(4)), (True, False))


@pytest.mark.parametrize("case", range(7))
def test_runtime_batch_depth_equals_the_static_fact(case, monkeypatch):
    monkeypatch.setattr(plan_mod, "_ClosureEmitter", _CheckingEmitter)
    f, args, flags = list(_edge_programs())[case]
    fun = rp.compile(rp.trace_like(f, args)).fun
    floats = [np.asarray(a).dtype.kind == "f" for a in args]
    for derived in (fun, rp.jvp(rp.compile(fun)).fun):
        ins, fl = args, flags
        if derived is not fun:  # one tangent per float argument, batched alike
            ins = (*args, *[np.ones_like(a) for a, f_ in zip(args, floats) if f_])
            fl = flags + tuple(b for b, f_ in zip(flags, floats) if f_)
        Plan(derived).run(ins)
        # The batched call's plan: the flagged arguments one map level down.
        Plan(batched_fun(derived, fl)).run([np.stack([a, a]) if f_ else a
                                            for a, f_ in zip(ins, fl)])
