"""Batched-value helper library of the plan family.

This module is **not an executor**.  It holds the value representation and
the runtime primitives that ``exec/lower.py``, ``exec/plan.py`` and
``exec/codegen.py`` import — one shared copy is what keeps the two emitters
bitwise-equal to each other.

The execution model they implement is the flattening one the paper relies on
(§4.1): entering a ``map`` pushes a batch level, lambda parameters become
whole NumPy arrays with a leading batch axis, and every scalar statement of
the (possibly deeply nested) lambda body executes as one bulk NumPy op over
all iterations at once.  Divergent control flow runs SIMT-style:

* ``If`` under a batched condition runs *both* branches under complementary
  predication masks and selects results with ``where`` — what a GPU warp
  does;
* ``Loop``/``WhileLoop`` with lane-varying trip counts run to the maximum
  trip count with per-lane active masks;
* accumulator updates (``UpdAcc``) become ``np.add.at`` — the moral
  equivalent of the CUDA ``atomicAdd`` the paper lowers accumulators to —
  with inactive lanes contributing zero;
* reads and accumulator updates whose indices ``exec/lower.py`` proved to be
  the enclosing maps' own ``iota`` (plus a constant) or lane-uniform skip
  the gather/scatter: ``_index`` returns a basic-indexing *view* and
  ``_upd_acc`` adds into one (``_basic_view``), falling back to the clipped
  ``_gather`` / ``np.add.at`` whenever a per-call fact fails.

Batched values are ``BV(data, bdims)``: ``data`` carries ``bdims`` leading
batch axes aligned with the engine's batch-size stack.  Batch axes may have
size 1 (kept broadcastable); values are only materialised to full batch
extent where in-place writes require ownership.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..util import ExecError

__all__ = ["BV", "AccBV"]


_UFUNC = {"add": np.add, "mul": np.multiply, "min": np.minimum, "max": np.maximum}


def _neutral_of(op: str, dt: np.dtype):
    """The neutral element of a specialisable op at a concrete dtype."""
    if op == "add":
        return dt.type(0)
    if op == "mul":
        return dt.type(1)
    if dt.kind == "f":
        return dt.type(np.inf if op == "min" else -np.inf)
    info = np.iinfo(dt)
    return dt.type(info.max if op == "min" else info.min)


@dataclass
class BV:
    """A batched value: ``bdims`` leading batch axes, then the payload."""

    data: np.ndarray
    bdims: int

    @property
    def prank(self) -> int:
        return np.asarray(self.data).ndim - self.bdims

    def pshape(self) -> Tuple[int, ...]:
        return np.asarray(self.data).shape[self.bdims:]


@dataclass
class AccBV:
    """A mutable batched accumulator buffer (always fully materialised)."""

    data: np.ndarray
    bdims: int


def _expand(v: BV, k: int) -> np.ndarray:
    """Raise ``v`` to ``k`` batch dims by inserting singleton axes."""
    d = np.asarray(v.data)
    if v.bdims == k:
        return d
    if v.bdims > k:
        raise ExecError("cannot lower batch dims")
    return d.reshape(d.shape[: v.bdims] + (1,) * (k - v.bdims) + d.shape[v.bdims:])


def _align(vs: Sequence[BV]) -> Tuple[List[np.ndarray], int, int]:
    """Expand values to a common batch depth and payload rank so that plain
    NumPy broadcasting implements the IR's elementwise semantics."""
    k = max(v.bdims for v in vs)
    pmax = max(v.prank for v in vs)
    out = []
    for v in vs:
        d = _expand(v, k)
        p = d.ndim - k
        if p < pmax:
            d = d.reshape(d.shape[:k] + (1,) * (pmax - p) + d.shape[k:])
        out.append(d)
    return out, k, pmax


def _grids(prefix: Tuple[int, ...], extra: int = 0) -> Tuple[np.ndarray, ...]:
    """Open index grids over the leading axes, padded with ``extra`` trailing
    singleton dims so they broadcast against deeper index arrays."""
    k = len(prefix)
    gs = []
    for a, s in enumerate(prefix):
        shape = (1,) * a + (s,) + (1,) * (k - 1 - a + extra)
        gs.append(np.arange(s).reshape(shape))
    return tuple(gs)


# ---------------------------------------------------------------------------
# Runtime primitives shared by the emitters (exec/plan.py, exec/codegen.py)
#
# ``state`` is any object with ``bstack``/``mask`` attributes (the plan
# ``_Engine``).  Keeping one copy here is what guarantees the two emitters
# cannot drift semantically.
# ---------------------------------------------------------------------------


def _combine_mask(m: Optional[BV], extra: BV) -> BV:
    if m is None:
        return extra
    datas, k, _ = _align([m, extra])
    return BV(np.logical_and(datas[0], datas[1]), k)


def _mask_where(state, v: np.ndarray, k: int, neutral) -> np.ndarray:
    """Replace inactive lanes' elements of ``v`` (batch depth ``k``) by
    ``neutral``."""
    if state.mask is None:
        return v
    md = _expand(state.mask, k) if state.mask.bdims <= k else np.asarray(state.mask.data)
    md = md.reshape(md.shape + (1,) * (np.asarray(v).ndim - md.ndim))
    return np.where(md, v, neutral)


def _elem(f, *vs) -> BV:
    # Fast path: with no batch axes anywhere, the explicit rank padding
    # ``_align`` performs is exactly NumPy's implicit left-pad broadcasting,
    # so applying ``f`` directly is bitwise identical — and this is the hot
    # case in element-at-a-time generic SOAC loops.
    for v in vs:
        if v.bdims:
            datas, k, _ = _align(list(vs))
            return BV(np.asarray(f(*datas)), k)
    return BV(np.asarray(f(*[np.asarray(v.data) for v in vs])), 0)


#: The memory plan's counters (the ``mem`` section of ``plan_cache_stats``):
#: three static sizes summed over the plans emitted since the last reset, and
#: the one run-time count — donations of a buffer worth reusing whose check
#: failed, so the op allocated.
#: Every mutation holds ``_STATS_LOCK`` (users may run plans from their own threads).
MEM_STATS = {"released_slots": 0, "run_local_releases": 0, "donating_ops": 0,
             "donation_fallbacks": 0}
#: The index counters (the ``index`` section of ``plan_cache_stats``), same
#: discipline: how many ``index`` / indexed ``upd_acc`` ops of the plans
#: emitted take the view path (``exec/lower.py:plan_counts``) and how many
#: reads stay gathers, plus the view ops that fell back at run time.
INDEX_STATS = {"view_index_ops": 0, "view_updacc_ops": 0, "gather_index_ops": 0,
               "view_fallbacks": 0}
_STATS_LOCK = threading.Lock()


def _fits(shape: Tuple[int, ...], into: Tuple[int, ...]) -> bool:
    """Whether ``shape`` broadcasts against ``into`` without enlarging it."""
    return len(shape) <= len(into) and all(
        a == b or a == 1 for a, b in zip(reversed(shape), reversed(into))
    )


#: Smallest buffer worth computing into: glibc's default ``M_MMAP_THRESHOLD``.
#: Below it ``malloc`` hands a just-released temporary's block straight back,
#: so a fresh result costs less than the donation check (measured on the HAND
#: Jacobian, 74 KB temporaries: 49 ms without donation, 53 ms with); from it
#: up a fresh array is mapped, zero-faulted and unmapped by the kernel.
_DONATE_MIN_BYTES = 128 * 1024


def _elem_into(f, donate, *vs) -> BV:
    """``_elem`` for a ufunc ``f`` whose operands at positions ``donate`` are
    dead temporaries of a fused run (``exec/lower.py`` proved nobody else
    holds them): write the result into the first one that is large enough to
    matter and can hold it — float, C-contiguous, of every operand's dtype
    and already of the result's shape, so the outcome is bitwise what a
    fresh array would get — instead of allocating.  Otherwise exactly
    ``_elem``."""
    for v in vs:
        if v.bdims:
            datas, k, _ = _align(list(vs))
            break
    else:
        datas, k = [np.asarray(v.data) for v in vs], 0
    refused = False
    for p in donate:
        out = datas[p]
        if out.nbytes < _DONATE_MIN_BYTES:
            continue
        dt, shape = out.dtype, out.shape
        for d in datas:
            if d.dtype != dt or not (d.shape == shape or _fits(d.shape, shape)):
                break
        else:
            if dt.kind == "f" and out.flags.c_contiguous:
                return BV(f(*datas, out=out), k)
        refused = True
    if refused:
        with _STATS_LOCK:
            MEM_STATS["donation_fallbacks"] += 1
    return BV(np.asarray(f(*datas)), k)


def _where(c: BV, t, f):
    if isinstance(t, AccBV) or isinstance(f, AccBV):
        if t is f:
            return t
        raise ExecError("accumulators must be threaded identically through branches")
    return _elem(np.where, c, t, f)


def _gather(arr: BV, idxs: List[BV]) -> BV:
    k = max([arr.bdims] + [i.bdims for i in idxs])
    ad = _expand(arr, k)
    # Clip for memory safety: inactive/divergent lanes may hold garbage
    # indices; their results are never selected downstream.
    sel = []
    for a, i in enumerate(idxs):
        dim = ad.shape[k + a]
        sel.append(np.clip(_expand(i, k), 0, max(dim - 1, 0)))
    out = ad[_grids(ad.shape[:k]) + tuple(sel)]
    return BV(np.asarray(out), k)


def _basic_view(a: np.ndarray, ka: int, idxs: Sequence[BV], affine, k: int):
    """``a[..., i0, i1, ..]`` (``a`` carries ``ka`` batch axes) at batch depth
    ``k`` as ONE basic-indexing expression — a view, no clip, no grid, no
    copy — or ``None`` when it is not one.

    ``affine[p]`` is lowering's proof that operand ``p`` is an enclosing
    map's ``iota`` parameter plus a constant: unit stride along its own lane
    (batch axis ``bdims - 1``), constant along every other.  What only the
    call knows is checked here in O(1): an operand without batch axes is a
    lane-uniform integer and must be in range; an affine one must span
    exactly its lane (``size == n``), start and end inside the axis (chunked
    maps start past 0; ``a[i+1]`` under ``if i+1 < n`` ends past
    it — that read stays a clipped gather), on a lane no other operand uses
    and no shallower than ``a``'s own batch axes (either would be a
    diagonal).  Each such operand becomes ``slice(start, start + n)`` on its
    lane's position, every batch axis nothing varies along a ``None``."""
    sel = []
    lanes = []
    for p, i in enumerate(idxs):
        d = i.data
        dim = a.shape[ka + p]
        if i.bdims == 0:
            j = d.item()
            if not 0 <= j < dim:
                return None
            sel.append(j)
            continue
        if not affine[p]:
            return None
        lane = i.bdims - 1
        n = d.shape[lane]
        if lane < ka or lane in lanes or n == 0 or d.size != n:
            return None
        lo = d.item(0)
        if lo < 0 or lo + n > dim or d.item(n - 1) != lo + n - 1:
            return None
        sel.append(slice(lo, lo + n))
        lanes.append(lane)
    if lanes == sorted(lanes):
        # Payload order is lane order: interleave the ``None``s.
        tup = [slice(None)] * ka
        cur, nxt = ka, iter(lanes)
        for s in sel:
            if type(s) is slice:
                lane = next(nxt)
                tup += [None] * (lane - cur)
                cur = lane + 1
            tup.append(s)
        tup += [None] * (k - cur)
        return a[tuple(tup) + (Ellipsis,)]
    # ``a[j, i]``: slices first, spare singleton axes after, one transpose.
    m = len(lanes)
    out = a[(slice(None),) * ka + tuple(sel) + (None,) * (k - ka - m) + (Ellipsis,)]
    src = {lane: ka + x for x, lane in enumerate(lanes)}
    spare = iter(range(ka + m, k))
    block = [src[t] if t in src else next(spare) for t in range(ka, k)]
    return out.transpose(list(range(ka)) + block + list(range(k, out.ndim)))


def _view_fell_back() -> None:
    with _STATS_LOCK:
        INDEX_STATS["view_fallbacks"] += 1


def _index(arr: BV, idxs: List[BV], affine: Tuple[bool, ...]) -> BV:
    """``arr[idxs]`` for an ``index`` op lowering routed to the view path
    (every operand lane-affine or lane-uniform by construction): the
    ``_basic_view``, else exactly ``_gather``."""
    k = arr.bdims
    for i in idxs:
        if i.bdims > k:
            k = i.bdims
    out = _basic_view(arr.data, arr.bdims, idxs, affine, k)
    if out is None:
        _view_fell_back()
        return _gather(arr, idxs)
    return BV(out, k)


def _add_view(state, acc: AccBV, idxs: List[BV], v: BV, affine, k: int) -> bool:
    """``acc[idxs] += v`` as a strided in-place add on the ``_basic_view`` of
    the accumulator: distinct lanes on slices cannot collide, and a batch
    axis no index varies along (extent 1 in the view) receives the value
    summed over it — provided the value is materialised along that axis (a
    lane-uniform value would count once instead of once per lane; that case
    takes ``np.add.at``).  False when any fact fails; nothing was written."""
    ka = acc.bdims
    view = _basic_view(acc.data, ka, idxs, affine, k)
    if view is None:
        return False
    vd = _expand(v, k)
    if vd.ndim != view.ndim:
        return False
    extra = []
    for t in range(ka, k):
        if view.shape[t] == 1:
            if vd.shape[t] != state.bstack[t]:
                return False
            extra.append(t)
        elif view.shape[t] != state.bstack[t]:
            return False
    view += vd.sum(axis=tuple(extra), keepdims=True) if extra else vd
    return True


def _upd_acc(state, acc, idxs: List[BV], v: BV, affine) -> AccBV:
    """``upd acc[idxs] += v`` — shared by both emitters.  ``affine`` is
    ``None`` for an update lowering left on the scatter path; masked updates
    always take it (inactive lanes contribute zero)."""
    if not isinstance(acc, AccBV):
        raise ExecError("upd: operand is not an accumulator")
    k = max([v.bdims, acc.bdims] + [i.bdims for i in idxs])
    if state.mask is not None:
        k = max(k, state.mask.bdims)
    elif affine is not None:
        if _add_view(state, acc, idxs, v, affine, k):
            return acc
        _view_fell_back()
    bshape = tuple(state.bstack[:k])
    vd = _expand(v, k)
    vd = np.broadcast_to(vd, bshape + vd.shape[k:])
    vd = _mask_where(state, vd, k, np.zeros((), dtype=vd.dtype))
    if not idxs:
        extra = tuple(range(acc.bdims, k))
        acc.data += vd.sum(axis=extra) if extra else vd
        return acc
    sel = _grids(bshape)[: acc.bdims] + tuple(
        np.clip(
            np.broadcast_to(_expand(i, k), bshape),
            0,
            max(acc.data.shape[acc.bdims + a] - 1, 0),
        )
        for a, i in enumerate(idxs)
    )
    np.add.at(acc.data, sel, vd)
    return acc


def _owned(data):
    """A map/loop result as an array the instruction owns.  A body may
    return a view of memory it did not allocate (``_index``, a parameter
    handed straight on); an array that owns its data is a view of nothing,
    anything else is copied — results never alias inputs."""
    return data if data.flags.owndata else data.copy()


def _uniform_int(v: BV, what: str) -> int:
    """A lane-uniform integer extent (iota/replicate/histogram sizes)."""
    d = np.asarray(v.data)
    if d.size == 0:
        return 0
    u = np.unique(d)
    if u.size != 1:
        raise ExecError(
            f"{what} varies across parallel lanes (irregular nested "
            f"parallelism is not supported by the vectorised backend)"
        )
    return int(u[0])


def _batch_args(state, vs: Sequence[BV]) -> Tuple[List[BV], int]:
    """Enter SOAC arguments: push their leading payload axis to batch depth
    ``len(state.bstack) + 1`` and return the common extent."""
    d = len(state.bstack)
    params: List[BV] = []
    n: Optional[int] = None
    for v in vs:
        dd = _expand(v, d)
        if dd.ndim <= d:
            raise ExecError("map/soac: argument has no payload axis")
        ln = dd.shape[d]
        if n is None:
            n = ln
        elif ln != n:
            raise ExecError(f"map/soac: array length mismatch {n} vs {ln}")
        params.append(BV(dd, d + 1))
    return params, int(n or 0)
