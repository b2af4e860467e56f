"""Unit tests for the vectorised interpreter's batching machinery."""
import numpy as np
import pytest

from repro.exec.vector import BV, _align, _expand, _grids, _neutral_of
from repro.util import ExecError


def test_expand_inserts_singleton_axes():
    v = BV(np.ones((3, 4)), 1)  # one batch axis (3), payload (4,)
    d = _expand(v, 3)
    assert d.shape == (3, 1, 1, 4)


def test_expand_rejects_lowering():
    v = BV(np.ones((3, 4)), 2)
    with pytest.raises(ExecError):
        _expand(v, 1)


def test_align_batches_and_payloads():
    a = BV(np.ones((3,)), 1)          # batched scalar
    b = BV(np.ones((5,)), 0)          # unbatched vector payload
    datas, k, p = _align([a, b])
    assert k == 1 and p == 1
    assert datas[0].shape == (3, 1)
    assert datas[1].shape == (1, 5)
    # The result broadcasts to (3, 5):
    assert (datas[0] + datas[1]).shape == (3, 5)


def test_grids_shapes():
    gs = _grids((2, 3))
    assert gs[0].shape == (2, 1) and gs[1].shape == (1, 3)
    gs = _grids((2,), extra=1)
    assert gs[0].shape == (2, 1)


def test_neutral_of_dtypes():
    assert _neutral_of("add", np.dtype(np.float64)) == 0.0
    assert _neutral_of("mul", np.dtype(np.float64)) == 1.0
    assert _neutral_of("min", np.dtype(np.float64)) == np.inf
    assert _neutral_of("max", np.dtype(np.int64)) == np.iinfo(np.int64).min


def test_bv_payload_introspection():
    v = BV(np.zeros((2, 3, 4)), 1)
    assert v.prank == 2 and v.pshape() == (3, 4)


# ---------------------------------------------------------------------------
# Instruction kernels: each against a per-lane Python-loop expectation, at
# batch depth 0, 1 and 2, masked and unmasked.  ``ref`` never imports
# ``vector.py``; these are the kernels' own unit tests.
# ---------------------------------------------------------------------------

from types import SimpleNamespace  # noqa: E402

from repro.exec import lower, vector as V  # noqa: E402
from repro.exec.vector import AccBV  # noqa: E402

BATCHES = [(), (3,), (2, 3)]
_OPS = {"add": lambda a, b: a + b, "mul": lambda a, b: a * b, "min": min, "max": max}
_NE = {"add": 0.0, "mul": 1.0, "min": np.inf, "max": -np.inf}


def _eng(bshape, masked):
    """An engine state at batch shape ``bshape``; ``masked``: lanes alternate
    active/inactive (depth 0 has one lane, and a mask there is always on)."""
    mask = None
    if masked:
        on = np.arange(int(np.prod(bshape, dtype=int))).reshape(bshape) % 2 == 0
        mask = BV(on, len(bshape))
    return SimpleNamespace(bstack=list(bshape), mask=mask)


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
    out = _full(V._update(eng, BV(arr, d), [BV(idx, d)], BV(val, d)), bshape)
    for lane in np.ndindex(*bshape):
        want = arr[lane].copy()
        if _active(eng, lane):
            want[min(max(int(idx[lane]), 0), n - 1)] = val[lane]
        np.testing.assert_array_equal(out[lane], want)
    np.testing.assert_array_equal(arr, before)
    # A lane-uniform array and value under batched indices: materialised per lane.
    if d:
        out = V._update(eng, BV(arr[(0,) * d], 0), [BV(idx, d)], BV(val[(0,) * d], 0))
        assert out.bdims == d and out.data.shape == bshape + (n, 2)


def test_update_kernel_two_indices_on_a_matrix():
    eng = _eng((), False)
    arr = np.arange(12.0).reshape(3, 4)
    idxs = [BV(np.int64(2), 0), BV(np.int64(9), 0)]
    out = V._update(eng, BV(arr, 0), idxs, BV(np.float64(-1), 0))
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
def test_reduce_and_scan_ufunc_kernels(bshape, n, op, fold):
    rng = np.random.default_rng(3)
    eng, d = _eng(bshape, False), len(bshape)
    xs = _rand(rng, bshape, n)
    # ``fold``: the neutral element is not the operator's own and is folded in.
    ne = 0.25 if fold else _NE[op]
    red = _full(V._reduce_ufunc(eng, [BV(xs, d)], [BV(np.float64(ne), 0)], op, fold), bshape)
    scn = V._scan_ufunc(eng, [BV(xs, d)], [BV(np.float64(ne), 0)], op, fold)
    assert scn.bdims == d and scn.data.shape == bshape + (n,)
    for lane in np.ndindex(*bshape):
        acc, pre = ne, []
        for x in xs[lane]:
            acc = _OPS[op](acc, x)
            pre.append(acc)
        np.testing.assert_allclose(red[lane], acc, rtol=1e-14)
        np.testing.assert_allclose(scn.data[lane], pre, rtol=1e-14)


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
    assert e2.data.shape == (0, 0) and e2.data.dtype == np.float32 and e2.bdims == 0


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
    acc = AccBV(np.zeros(2), 0)
    assert V._map_acc(eng, acc) is acc
    with pytest.raises(ExecError, match="accumulator results must lead"):
        V._map_acc(eng, uni)


def _hist_want(eng, bshape, m, inds, vals, op, ne):
    want = np.full(bshape + (m,) + vals.shape[len(bshape) + 1:], ne)
    for lane in np.ndindex(*bshape):
        for j in range(inds.shape[-1]):
            b = inds[lane][j]
            if _active(eng, lane) and 0 <= b < m:
                want[lane][b] = _OPS[op](want[lane][b], vals[lane][j])
    return want


@both
@depths
@pytest.mark.parametrize("op", list(_OPS))
@pytest.mark.parametrize("n", [0, 1, 6])
def test_hist_kernels_ufunc_redomap_and_generic(bshape, masked, n, op):
    """One expectation, three routes: the ``hist:ufunc`` leaf, ``_hist_enter``
    + ``_hist_accumulate`` (the redomap tail), and the element-at-a-time
    ``_hist_open``/``_hist_get``/``_hist_put`` driven by a Python operator.
    Indices run from -2 to m+1 in every kind of lane."""
    rng = np.random.default_rng(4)
    eng, d = _eng(bshape, masked), len(bshape)
    m = 3
    inds = rng.integers(-2, m + 2, size=bshape + (n,))
    vals = np.abs(_rand(rng, bshape, n)) + 0.5
    nes = [BV(np.float64(_NE[op]), 0)]
    want = _hist_want(eng, bshape, m, inds, vals, op, _NE[op])
    arrs = [BV(inds, d), BV(vals, d)]
    got = V._hist_ufunc(eng, m, arrs, nes, op)
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)
    args, n2, hs = V._hist_enter(eng, m, arrs)
    assert n2 == n and args[1].bdims == d + 1
    got = V._hist_accumulate(eng, op, nes[0], hs, args[1])
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)
    st = V._hist_open(eng, nes, hs, args[1:])
    for i in range(n):
        sel, (cur,) = V._hist_get(eng, st, i)
        (el,) = V._elems_at(args[1:], i, d)
        assert cur.bdims == el.bdims == d
        V._hist_put(eng, st, i, sel, [V._elem(V._UFUNC[op], cur, el)])
    np.testing.assert_allclose(_full(st[0][0], bshape), want, rtol=1e-14)


def test_hist_accumulate_with_a_vector_payload_and_a_lane_uniform_map_result():
    eng = _eng((2,), False)
    inds = np.array([[0, 2, 2], [1, 1, 5]])
    args, n, hs = V._hist_enter(eng, 3, [BV(inds, 1), BV(np.zeros((2, 3, 2)), 1)])
    got = V._hist_accumulate(eng, "add", BV(np.zeros(2), 0), hs, BV(np.array([1.0, 10.0]), 0))
    want = np.array([[[1, 10], [0, 0], [2, 20]], [[0, 0], [2, 20], [0, 0]]], dtype=float)
    np.testing.assert_array_equal(got.data, want)


@depths
def test_withacc_entry_and_exit_kernels(bshape):
    eng, d = _eng(bshape, False), len(bshape)
    src = np.arange(3.0)
    acc = V._acc_of(eng, BV(src, 0))
    assert isinstance(acc, AccBV) and acc.bdims == d and acc.data.shape == bshape + (3,)
    acc.data += 1.0
    np.testing.assert_array_equal(src, np.arange(3.0))  # a private buffer
    out = V._acc_value(eng, acc)
    assert isinstance(out, BV) and out.data is acc.data and out.bdims == d
    with pytest.raises(ExecError, match="must return its accumulators"):
        V._acc_value(eng, out)


def test_branch_kernel_scalar_condition_runs_one_branch():
    eng = _eng((), False)
    ran = []
    then_fn = lambda e: ran.append("t") or (BV(np.float64(1.0), 0),)  # noqa: E731
    else_fn = lambda e: ran.append("f") or (BV(np.float64(2.0), 0),)  # noqa: E731
    assert V._branch(eng, BV(np.array(True), 0), then_fn, else_fn)[0].data == 1.0
    assert V._branch(eng, BV(np.array([False]), 1), then_fn, else_fn)[0].data == 2.0
    assert ran == ["t", "f"] and eng.mask is None


@both
def test_branch_kernel_batched_condition_runs_both_under_complementary_masks(masked):
    eng = _eng((4,), masked)
    outer = np.ones(4, dtype=bool) if eng.mask is None else eng.mask.data.copy()
    saved = eng.mask
    c = np.array([True, False, False, True])
    seen = {}

    def then_fn(e):
        seen["t"] = e.mask.data.copy()
        return BV(np.full(4, 1.0), 1), acc

    def else_fn(e):
        seen["f"] = e.mask.data.copy()
        return BV(np.float64(2.0), 0), acc

    acc = AccBV(np.zeros(4), 1)
    val, acc_out = V._branch(eng, BV(c, 1), then_fn, else_fn)
    np.testing.assert_array_equal(seen["t"], outer & c)
    np.testing.assert_array_equal(seen["f"], outer & ~c)
    np.testing.assert_array_equal(val.data, np.where(c, 1.0, 2.0))
    assert acc_out is acc and eng.mask is saved
    with pytest.raises(ExecError, match="threaded identically"):
        V._branch(eng, BV(c, 1), lambda e: (acc,), lambda e: (AccBV(np.zeros(4), 1),))


@depths
def test_stack_columns_and_elems_at(bshape):
    eng, d = _eng(bshape, False), len(bshape)
    ne = BV(np.float64(0.0), 0)
    assert V._stack_columns(eng, [], ne).data.shape == (0,)
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
    """``LEAF_KERNELS`` reads instruction records by field name: every field
    it names is a slot of that instruction class, and the table plus the
    body-carrying kinds the emitters render themselves cover the plan IR."""
    by_kind = {c.kind: c for c in vars(lower).values()
               if isinstance(c, type) and issubclass(c, lower._Instr) and c is not lower._Instr}

    def slots_of(cls):
        return {s for k in cls.__mro__ for s in getattr(k, "__slots__", ())}

    for key, (kernel, operands, statics) in V.LEAF_KERNELS.items():
        slots = slots_of(by_kind[key.split(":")[0]])
        assert callable(kernel) and set(operands) | set(statics) <= slots, key
        assert "out" in slots or "outs" in slots, key
    covered = {key.split(":")[0] for key in V.LEAF_KERNELS}
    nested = {k for k, c in by_kind.items() if {"body", "then", "cbody", "ops"} & slots_of(c)}
    assert covered | nested == set(by_kind)
    assert covered & nested == {"reduce", "scan", "hist"}  # body-free on ``ufunc`` only


# ---------------------------------------------------------------------------
# The free list: `_buffer` / `_give` / `_elem_into(take=True)` / `_copy`
# ---------------------------------------------------------------------------


@pytest.fixture
def pool(monkeypatch):
    """An empty free list with the size floor at 64 bytes."""
    monkeypatch.setattr(V, "_DONATE_MIN_BYTES", 64)
    V.clear_pool()
    yield V._pool()
    V.clear_pool()


def _offer(v):
    """A release point: the caller's one reference goes to ``_give``."""
    V._give(v)


def test_give_admits_only_against_an_outstanding_take(pool):
    key = ((16,), np.dtype(np.float64))
    _offer(BV(np.ones(16), 0))  # nobody asked for one of these
    assert V.pool_bytes() == 0 and not pool.free
    buf = V._buffer(*key)  # a miss: fresh, and one buffer of this key is out
    assert pool.out[key] == 1 and buf.shape == (16,)
    _offer(BV(np.ones(16), 0))
    assert V.pool_bytes() == 128 and pool.out[key] == 0
    _offer(BV(np.ones(16), 0))  # the debt is paid: this one goes to malloc
    assert V.pool_bytes() == 128
    kept = pool.free[key][0]
    assert V._buffer(*key) is kept and V.pool_bytes() == 0
    _offer(BV(np.ones(4), 0))  # below the floor
    assert V.pool_bytes() == 0
    V._buffer(*key)
    _offer(BV(kept, 0))  # `kept` is ours too: not exclusive
    assert V.pool_bytes() == 0


def test_give_refuses_whatever_someone_else_can_see(pool):
    key = ((16,), np.dtype(np.float64))
    before = V.MEM_STATS["pool_refused"]

    def refused(make):
        V._buffer(*key)  # someone wants one
        pool.out[((4, 4), np.dtype(np.float64))] = 1
        keep = make()  # (value offered, whatever else holds on to it)
        _offer(keep[0])
        return V.pool_bytes() == 0

    base = np.ones(32)
    arr = np.ones(16)
    shared_bv = BV(np.ones(16), 0)
    assert refused(lambda: (BV(arr, 0),))  # the array has another holder (`arr`)
    assert refused(lambda: (shared_bv,))  # the BV has another holder
    assert refused(lambda: (BV(base[:16], 0),))  # a view owns nothing
    v = BV(np.ones(16), 0)
    view = v.data[2:5]
    assert refused(lambda: (v, view))  # a view of it is alive
    del v, view
    assert refused(lambda: (BV(np.asfortranarray(np.ones((4, 4))), 0),))  # not C-contiguous
    ro = np.ones(16)
    ro.setflags(write=False)
    assert refused(lambda: (BV(ro, 0),))
    assert refused(lambda: (V.AccBV(np.ones(16), 0),))  # accumulators are never offered
    assert V.MEM_STATS["pool_refused"] > before
    pool.out[((16,), np.dtype(np.int64))] = 1
    _offer(BV(np.ones(16, dtype=np.int64), 0))  # not float
    assert V.pool_bytes() == 0


def test_a_taker_computes_the_same_bits_into_a_recycled_buffer(pool):
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4, 1, 5)), rng.standard_normal((1, 3, 5))
    want = V._elem(np.multiply, BV(a, 2), BV(b, 2))
    box = [V._elem_into(np.multiply, (), BV(a, 2), BV(b, 2), take=True)]  # a miss
    assert box[0].data.tobytes() == want.data.tobytes() and box[0].bdims == want.bdims
    box[0].data.fill(np.nan)
    _offer(box.pop())
    assert V.pool_bytes() == want.data.nbytes
    again = V._elem_into(np.multiply, (), BV(a, 2), BV(b, 2), take=True)  # a hit
    assert V.pool_bytes() == 0 and again.data.tobytes() == want.data.tobytes()
    # a donor still comes first, mixed dtypes and small results allocate as ever
    t = rng.standard_normal((4, 3, 5))
    out = V._elem_into(np.add, (0,), BV(t, 2), BV(b, 2), take=True)
    assert out.data is t
    mixed = V._elem_into(np.add, (), BV(a, 2), BV(b.astype(np.float32), 2), take=True)
    assert mixed.data.dtype == np.float64 and not pool.out.get(((4, 3, 5), np.dtype(np.float32)))
    small = V._elem_into(np.add, (), BV(np.ones(2), 0), BV(np.ones(2), 0), take=True)
    assert small.data.tolist() == [2.0, 2.0] and ((2,), np.dtype(np.float64)) not in pool.out


def test_copy_and_scratch_serve_large_results_from_the_free_list(pool):
    src = np.broadcast_to(np.arange(4.0), (6, 4))
    dirty = np.full((6, 4), np.nan)
    pool.free[((6, 4), np.dtype(np.float64))] = [dirty]
    out = V._copy(src)
    assert out is dirty and out.flags.c_contiguous and out.tobytes() == src.copy().tobytes()
    assert V._copy(np.arange(3.0)).tolist() == [0.0, 1.0, 2.0]  # small: a plain copy
    dirty2 = np.full((2, 5, 3), np.nan)
    pool.free[((2, 5, 3), np.dtype(np.float64))] = [dirty2]
    eng = _eng((2,), False)
    sc = V._scratch(eng, BV(np.array([5, 3]), 1), BV(np.ones((2, 3)), 1))
    assert sc.data is dirty2 and not sc.data.any()
