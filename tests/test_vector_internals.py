"""Unit tests for the vectorised interpreter's batching machinery."""
import inspect

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
    return SimpleNamespace(bstack=list(bshape), mask=mask, lanes=lanes, out=V._pool().out)


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
    (red,) = V._reduce_ufunc(eng, [BV(xs, d)], [BV(np.float64(ne), 0)], op, fold)
    red = _full(red, bshape)
    (scn,) = V._scan_ufunc(eng, [BV(xs, d)], [BV(np.float64(ne), 0)], op, fold)
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
    """One expectation, three routes: the ``hist:ufunc`` kernel, the
    ``hist:redomap`` one with an identity map part (run once, one lane level
    down — also over no elements) and the element-at-a-time ``hist:generic``
    one driven by a Python operator body.  Indices run from -2 to m+1 in
    every kind of lane."""
    rng = np.random.default_rng(4)
    eng, d = _eng(bshape, masked), len(bshape)
    m = 3
    inds = rng.integers(-2, m + 2, size=bshape + (n,))
    vals = np.abs(_rand(rng, bshape, n)) + 0.5
    nes = [BV(np.float64(_NE[op]), 0)]
    want = _hist_want(eng, bshape, m, inds, vals, op, _NE[op])
    arrs = [BV(inds, d), BV(vals, d)]
    (got,) = V._hist_ufunc(eng, m, arrs, nes, op)
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)
    depths_seen = []

    def part(e, vs):
        depths_seen.append(list(e.bstack))
        assert vs[0].bdims == d + 1
        return (vs[0],)

    (got,) = V._hist_redomap(eng, m, arrs, nes, op, False, part)
    assert depths_seen == [list(bshape) + [n]] and eng.bstack == list(bshape)
    np.testing.assert_allclose(_full(got, bshape), want, rtol=1e-14)
    steps = []

    def operator(e, vs):
        cur, el = vs
        assert cur.bdims == el.bdims == d and e.bstack == list(bshape)
        steps.append(1)
        return (V._elem(V._UFUNC[op], cur, el),)

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

    def then_fn(e, vals):
        seen["t"] = e.mask.data.copy()
        return BV(np.full(4, 1.0), 1), acc

    def else_fn(e, vals):
        seen["f"] = e.mask.data.copy()
        return BV(np.float64(2.0), 0), acc

    acc = AccBV(np.zeros(4), 1)
    val, acc_out = V._branch(eng, BV(c, 1), then_fn, else_fn)
    np.testing.assert_array_equal(seen["t"], outer & c)
    np.testing.assert_array_equal(seen["f"], outer & ~c)
    np.testing.assert_array_equal(val.data, np.where(c, 1.0, 2.0))
    assert acc_out is acc and eng.mask is saved
    with pytest.raises(ExecError, match="threaded identically"):
        V._branch(eng, BV(c, 1), lambda e, v: (acc,), lambda e, v: (AccBV(np.zeros(4), 1),))


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
    """``KERNELS`` reads instruction records by field name: every plan-IR
    kind but a fused ``run`` has one entry (one per strategy for the reduce
    family), every operand, static and body field an entry names is a slot
    of that instruction class, a body's last field holds the ``PBody`` and
    the kernel takes exactly ``eng`` plus what the entry names."""
    by_kind = {c.kind: c for c in vars(lower).values()
               if isinstance(c, type) and issubclass(c, lower._Instr) and c is not lower._Instr}

    def slots_of(cls):
        return {s for k in cls.__mro__ for s in getattr(k, "__slots__", ())}

    strategies = ("ufunc", "redomap", "generic")
    want = {k for k in by_kind if k not in ("run", "reduce", "scan", "hist")}
    want |= {f"{k}:{s}" for k in ("reduce", "scan", "hist") for s in strategies}
    assert set(V.KERNELS) == want
    bodies_of = {}
    for key, (kernel, operands, statics, bodies) in V.KERNELS.items():
        slots = slots_of(by_kind[key.split(":")[0]])
        named = set(operands) | set(statics) | {f for b in bodies for f in b}
        assert callable(kernel) and named <= slots, key
        assert "out" in slots or "outs" in slots, key
        bodies_of[key] = [b[-1] for b in bodies]
        inspect.signature(kernel).bind(None, *[None] * (len(operands) + len(statics) + len(bodies)))
    assert bodies_of["if"] == ["then", "els"] and bodies_of["while"] == ["cbody", "body"]
    for k in ("reduce", "scan", "hist"):
        assert [bodies_of[f"{k}:{s}"] for s in strategies] == [[], ["mbody"], ["body"]]
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
        seen.update(bstack=list(e.bstack), lanes=e.lanes, bdims=x.bdims)
        assert a is acc
        return a, BV(x.data * 2.0, x.bdims)

    a, out = V._map(eng, [BV(xs, 1)], [acc], 1, body)
    assert seen == {"bstack": [2, 3], "lanes": 6, "bdims": 2}
    assert eng.bstack == [2] and eng.lanes == 2
    assert a is acc and out.bdims == 1 and (out.data == xs * 2.0).all()
    with pytest.raises(ExecError, match="accumulator results must lead"):
        V._map(eng, [BV(xs, 1)], [acc], 1, lambda e, vals: (vals[0], vals[1]))
    assert eng.bstack == [2] and eng.lanes == 2  # restored on the way out too


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

    x, a = V._loop(eng, BV(counts, d), [BV(x0, d), acc], body)
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
    (y,) = V._loop(eng, BV(np.int64(0), 0), [BV(view, 0)], body)
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

    (x,) = V._while(eng, [BV(np.zeros(4), 1)], cond, body)
    want = np.where(outer_on, limit, 0.0)
    np.testing.assert_array_equal(x.data, want)
    assert len(seen) == int(want.max()) and eng.mask is saved
    for k, m in enumerate(seen):
        np.testing.assert_array_equal(m, outer_on & (k < limit))
    monkeypatch.setattr(exec_values, "WHILE_FUEL", 3)
    forever = _scalars((4,), lambda x: (x == x,))
    with pytest.raises(ExecError, match=r"exceeded iteration fuel \(3 iterations\)"):
        V._while(eng, [BV(np.zeros(4), 1)], forever, body)


@depths
def test_generic_fold_and_scan_kernels_collect_one_column_per_result(bshape):
    rng = np.random.default_rng(5)
    eng, d = _eng(bshape, False), len(bshape)
    xs, ys = _rand(rng, bshape, 4), _rand(rng, bshape, 4)
    nes = [BV(np.float64(0.5), 0), BV(np.float64(1.0), 0)]

    def op(e, vals):  # (sum of x, running product of y)
        a, b, x, y = vals
        assert x.bdims == d and e.bstack == list(bshape)
        return V._elem(np.add, a, x), V._elem(np.multiply, b, y)

    red = V._fold(eng, [BV(xs, d), BV(ys, d)], nes, op)
    scn = V._fold_scan(eng, [BV(xs, d), BV(ys, d)], nes, op)
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

    (r,) = V._redomap(eng, [empty], [ne], "add", True, False, body)
    assert r.bdims == d and _full(r, bshape).shape == bshape and (r.data == 7.0).all()
    (sc,) = V._redomap_scan(eng, [empty], [ne], "add", True, False, body)
    assert sc.data.shape == (0,)
    assert V._fold(eng, [empty], [ne], body) == [ne]
    (col,) = V._fold_scan(eng, [empty], [ne], body)
    assert col.data.shape == (0,)
    inds = BV(np.zeros(bshape + (0,), dtype=np.int64), d)
    (h,) = V._hist_fold(eng, 2, [inds, empty], [ne], body)
    assert ran == [] and h.data.shape == bshape + (2,) and (h.data == 7.0).all()
    (h,) = V._hist_redomap(eng, 2, [inds, empty], [ne], "add", False, body)
    assert ran == [list(bshape) + [0]] and h.data.shape == bshape + (2,) and (h.data == 7.0).all()


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


def test_redomap_kernels_offer_a_spare_map_part_result_once_folded(pool):
    """``spare``: lowering proved the map part's result a buffer nobody else
    holds, so the kernel hands it to the free list after folding it."""
    key = ((16,), np.dtype(np.float64))
    eng = _eng((), False)
    xs = BV(np.arange(16.0), 0)
    inds = BV(np.zeros(16, dtype=np.int64), 0)
    part = lambda e, vals: (BV(vals[-1].data * 2.0, 1),)  # noqa: E731
    ne = [BV(np.float64(0.0), 0)]
    for run in (
        lambda spare: V._redomap(eng, [xs], ne, "add", False, spare, part),
        lambda spare: V._redomap_scan(eng, [xs], ne, "add", False, spare, part),
        lambda spare: V._hist_redomap(eng, 1, [inds, xs], ne, "add", spare, part),
    ):
        pool.out[key] = 1
        (out,) = run(False)
        assert V.pool_bytes() == 0
        (again,) = run(True)
        assert V.pool_bytes() == 128 and again.data.tobytes() == out.data.tobytes()
        V.clear_pool()
