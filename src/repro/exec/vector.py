"""Batched values and the instruction kernels of the plan family.

This module is **not an executor** — it runs no program — but it *is* the
semantics of the plan IR: what every instruction but a fused scalar run
does, control flow included, is written here once, as one function
(``kernel(eng, *operands, *static facts, *bodies) -> BV | sequence``).
``KERNELS`` maps the instruction kinds to theirs.  A nested body reaches its
kernel as a callable ``body(eng, vals) -> results`` the emitter built: it
binds ``vals`` to the body's parameters, runs, and leaves nothing bound.  The
two emitters (``exec/plan.py``, ``exec/codegen.py``) bind operands to slots
and build those callables, so they are bitwise equal to each other by
construction; what a kernel computes is checked against the reference
interpreter and against direct NumPy expectations with plain-Python bodies
(``tests/test_vector_internals.py``), never against the other emitter.

The execution model is the flattening one the paper relies on
(§4.1): entering a ``map`` pushes a batch level, lambda parameters become
whole NumPy arrays with a leading batch axis, and every scalar statement of
the (possibly deeply nested) lambda body executes as one bulk NumPy op over
all iterations at once.  Divergent control flow runs SIMT-style:

* ``If`` under a batched condition runs *both* branches under complementary
  predication masks and selects results with ``where`` — what a GPU warp
  does;
* ``Loop``/``WhileLoop`` with lane-varying trip counts run to the maximum
  trip count with per-lane active masks;
* accumulator updates (``UpdAcc``) become one ``np.add.at`` on the
  flattened accumulator — the moral equivalent of the CUDA ``atomicAdd``
  the paper lowers accumulators to — with inactive lanes contributing zero;
* every indexed kernel (gather, scatter-add, histogram, ``scatter``,
  ``update``) addresses its array through one element-linear ``intp``
  index (``_linear``: batch lanes and clipped index operands times
  their strides), never through index grids and a tuple of index arrays:
  NumPy's ``take`` / ``ufunc.at`` / assignment are fast on a 1-D index and
  slow on a tuple, and a 1-D index visits the elements in the same C order,
  so the results are bitwise the same;
* reads and accumulator updates whose indices ``exec/lower.py`` proved to be
  the enclosing maps' own ``iota`` (plus a constant) or lane-uniform skip
  the gather/scatter: ``_index`` returns a basic-indexing *view* and
  ``_upd_acc`` adds into one (``_basic_view``), falling back to the clipped
  ``_gather`` / scatter-add whenever a per-call fact fails.

Batched values are ``BV(data, bdims)``: ``data`` carries ``bdims`` leading
batch axes aligned with the engine's batch-size stack.  Batch axes may have
size 1 (kept broadcastable); values are only materialised to full batch
extent where in-place writes require ownership.

This module also owns the one piece of state that outlives a call: the
per-thread **free list** of large dead temporaries (``_give`` / ``_buffer``,
"the free list" below).  It never holds a function input or result, only
buffers the executing plans allocated themselves and nobody can see any
more; ``clear_pool`` (``clear_plan_cache``) empties it.
"""
from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass
from sys import getrefcount
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..util import ExecError
from . import values as _values

__all__ = ["BV", "AccBV", "KERNELS", "kernel_of"]


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


def _linear(shape: Tuple[int, ...], k: int, idxs: Sequence[np.ndarray],
            elems: bool = False) -> np.ndarray:
    """The C-order linear index of ``a[batch..., i0, i1, ...]`` into an ``a``
    of ``shape``: ``k`` leading batch axes, one axis per index operand, then
    the *row* axes.  Each batch axis of extent other
    than 1 contributes ``arange · stride``, each operand (batch axes first,
    all of one rank) its clipped value ``· stride``; the sum broadcasts over
    the operands' lanes.  It addresses the rows of ``_rows(a, k +
    len(idxs))``, or with ``elems`` the elements of ``a.reshape(-1)`` (plus
    the ``arange`` of a row, on the row axes).  A C-order walk of it visits
    what the tuple index ``(grids..., *idxs)`` would, in the same order."""
    nd = max([k] + [np.ndim(i) for i in idxs])
    lead = k + len(idxs)
    row = math.prod(shape[lead:]) if elems else 1
    stride = row
    lin = None
    for a in range(lead - 1, -1, -1):
        dim = shape[a]
        if a >= k:
            # Clip for memory safety: inactive/divergent lanes may hold
            # garbage indices; their results are never selected downstream.
            t = np.clip(idxs[a - k], 0, max(dim - 1, 0))
        elif dim != 1:
            t = np.arange(dim).reshape((1,) * a + (dim,) + (1,) * (nd - 1 - a))
        else:
            continue
        if stride != 1:
            t = t * np.intp(stride)
        lin = t if lin is None else lin + t
        stride *= dim
    if elems and lead < len(shape):
        lin = np.add.outer(lin, np.arange(row).reshape(shape[lead:]))
    return lin


def _rows(a: np.ndarray, lead: int) -> np.ndarray:
    """``a`` as one row per element of its ``lead`` leading axes: a view
    when ``a`` is C-contiguous (every buffer the kernels write through), a
    copy at worst."""
    return a.reshape((math.prod(a.shape[:lead]),) + a.shape[lead:])


# ---------------------------------------------------------------------------
# Runtime primitives: masks, elementwise ops, indexed reads and updates
#
# ``state`` / ``eng`` is any object with ``bstack``/``mask`` attributes (the
# plan ``_Engine``; the kernels that run bodies also read and keep ``lanes``
# in step and read ``out``).
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
#: the run-time counts — donations of a buffer worth reusing whose check
#: failed, so the op allocated; large results computed into a free-list
#: buffer (``pool_hits``) or, the list having none of that shape, into a
#: fresh array (``pool_misses``); and recyclable values somebody wanted that
#: failed the exclusivity or layout check at their release (``pool_refused``
#: — an operand an op has just computed into is one: its result holds it).
#: ``pool_bytes`` (held now) is measured, not counted: ``pool_bytes()``.
#: Every mutation holds ``_STATS_LOCK`` (users may run plans from their own threads).
MEM_STATS = {"released_slots": 0, "run_local_releases": 0, "donating_ops": 0,
             "donation_fallbacks": 0, "pool_hits": 0, "pool_misses": 0,
             "pool_refused": 0}
#: The index counters (the ``index`` section of ``plan_cache_stats``), same
#: discipline: how many ``index`` / indexed ``upd_acc`` ops of the plans
#: emitted take the view path (``exec/lower.py:plan_counts``) and how many
#: reads stay gathers, plus the view ops that fell back at run time.
INDEX_STATS = {"view_index_ops": 0, "view_updacc_ops": 0, "gather_index_ops": 0,
               "view_fallbacks": 0}
_STATS_LOCK = threading.Lock()


def _count(stats: Dict[str, int], key: str) -> None:
    with _STATS_LOCK:
        stats[key] += 1


def _fits(shape: Tuple[int, ...], into: Tuple[int, ...]) -> bool:
    """Whether ``shape`` broadcasts against ``into`` without enlarging it."""
    return len(shape) <= len(into) and all(
        a == b or a == 1 for a, b in zip(reversed(shape), reversed(into))
    )


#: Smallest buffer worth computing into or keeping: glibc's default
#: ``M_MMAP_THRESHOLD``.  Below it ``malloc`` hands a just-released
#: temporary's block straight back, so a fresh result costs less than the
#: donation check or the free-list look-up (measured on the HAND Jacobian,
#: 74 KB temporaries: 49 ms without donation, 53 ms with); from it up a fresh
#: array is mapped, zero-faulted and, once dropped, trimmed or unmapped by the
#: kernel — on every op, because nothing in the process holds on to it.
_DONATE_MIN_BYTES = 128 * 1024


# -- the free list ------------------------------------------------------------
#
# Re-execution instead of a tape (the paper's trade) makes a derivative's bulk
# temporaries short-lived: the same few shapes are allocated, used once and
# dropped, call after call.  ``exec/lower.py`` marks where such a value dies
# (*recyclable*) and which ops could write their result into one (*takers*);
# ``_give`` and ``_buffer`` below are the two run-time halves.


class _Pool:
    """One thread's dead buffers, ``(shape, dtype) -> [array, ...]``, and per
    key how many pool-served buffers this call still has out (``out``): a
    dying value is admitted only against one of those, so the list never
    holds more buffers of a key than were live at once."""

    __slots__ = ("free", "out", "__weakref__")

    def __init__(self) -> None:
        self.free: Dict[tuple, List[np.ndarray]] = {}
        self.out: Dict[tuple, int] = {}


_TLS = threading.local()
#: Every live thread's pool (``pool_bytes`` / ``clear_pool`` reach all of
#: them; a pool dies with its thread).  Mutated under ``_STATS_LOCK``.
_POOLS: "weakref.WeakSet[_Pool]" = weakref.WeakSet()


def _pool() -> _Pool:
    try:
        return _TLS.pool
    except AttributeError:
        pool = _TLS.pool = _Pool()
        with _STATS_LOCK:
            _POOLS.add(pool)
        return pool


def _buffer(shape: Tuple[int, ...], dt: np.dtype) -> np.ndarray:
    """An uninitialised C-contiguous array for a large result: a dead one of
    exactly this shape and dtype from the calling thread's free list, else a
    fresh one.  The caller overwrites every element, so what it ends up
    holding is bitwise what ``np.empty`` / ``.copy()`` / ``out=None`` would
    have given it."""
    pool = _pool()
    key = (shape, dt)
    pool.out[key] = pool.out.get(key, 0) + 1
    held = pool.free.get(key)
    if held:
        _count(MEM_STATS, "pool_hits")
        return held.pop()
    _count(MEM_STATS, "pool_misses")
    return np.empty(shape, dt)


def _refs(v: "BV", a: np.ndarray) -> Tuple[int, int]:
    return getrefcount(v), getrefcount(a)


def _sole_refs() -> Tuple[int, int]:
    """What ``_refs`` reports from inside ``_give`` for a ``BV`` only
    ``_give``'s caller holds, wrapping an array only that ``BV`` holds —
    measured, not assumed: how many references a call in flight adds is the
    interpreter's business."""
    def give(v):
        a = v.data
        return _refs(v, a)

    v = BV(np.empty(0), 0)
    return give(v)


_SOLE = _sole_refs()


def _give(v) -> None:
    """The release point of a *recyclable* value (``exec/lower.py``: produced
    by a kernel that allocates, float, handed on by nothing lowering can
    see), the caller holding its one reference to ``v``: keep the buffer for
    the next ``_buffer`` of its shape instead of handing it back to
    ``malloc`` — when it is large enough to matter, some pool-served buffer
    of its key is still out (so the list does not grow past what the program
    needs at once), and nobody else can see it.  The mark is not that
    proof: ``_map_result`` hands on the body's own array, ``_withacc``
    re-wraps the accumulator's buffer, loop state sits in a list.  The
    reference counts are — one holder of the ``BV``, one of the array, and
    an array that owns its data is a view of nothing while every view of it
    would hold a reference to it; O(1), as in NumPy's own temporary
    elision.  Returns ``None`` (so generated code can write ``x =
    _give(x)``)."""
    if type(v) is not BV:
        return
    a = v.data
    if type(a) is not np.ndarray or a.nbytes < _DONATE_MIN_BYTES:
        return
    pool = _pool()
    key = (a.shape, a.dtype)
    out = pool.out.get(key)
    if not out:
        return
    sole = _refs(v, a) == _SOLE  # before ``a.flags``: that object holds ``a`` too
    flags = a.flags
    if not (sole and flags.owndata and flags.c_contiguous and flags.writeable
            and a.dtype.kind == "f"):
        _count(MEM_STATS, "pool_refused")
        return
    pool.out[key] = out - 1
    pool.free.setdefault(key, []).append(a)


def pool_bytes() -> int:
    """Bytes the free lists of all threads hold right now."""
    with _STATS_LOCK:
        pools = list(_POOLS)
    return sum(a.nbytes for p in pools for held in list(p.free.values()) for a in list(held))


def clear_pool() -> None:
    """Hand every held buffer back to the allocator (``clear_plan_cache``)."""
    with _STATS_LOCK:
        pools = list(_POOLS)
    for p in pools:
        p.free.clear()
        p.out.clear()


def _result_buffer(datas: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """A ``_buffer`` for the result of a dtype-preserving ufunc over the
    aligned operands ``datas`` — all of one float dtype, the broadcast result
    large enough to matter — else ``None``."""
    first = datas[0]
    dt, shape = first.dtype, first.shape
    if dt.kind != "f":
        return None
    for d in datas:
        if d.dtype != dt:
            return None
        if d.shape != shape:
            shape = np.broadcast_shapes(*[d.shape for d in datas])
            break
    if math.prod(shape) * dt.itemsize < _DONATE_MIN_BYTES:
        return None
    return _buffer(shape, dt)


def _elem_into(f, donate, *vs, take: bool = False) -> BV:
    """``_elem`` for a ufunc ``f`` whose operands at positions ``donate`` are
    dead temporaries of a fused run (``exec/lower.py`` proved nobody else
    holds them): write the result into the first one that is large enough to
    matter and can hold it — float, C-contiguous, of every operand's dtype
    and already of the result's shape, so the outcome is bitwise what a
    fresh array would get — instead of allocating.  Failing that, ``take``
    (a *taker* op in a body whose lane extent reaches the size floor)
    computes into a ``_buffer``.  Otherwise exactly ``_elem``."""
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
        _count(MEM_STATS, "donation_fallbacks")
    if take:
        out = _result_buffer(datas)
        if out is not None:
            return BV(f(*datas, out=out), k)
    return BV(np.asarray(f(*datas)), k)


def _where(c: BV, t, f):
    if isinstance(t, AccBV) or isinstance(f, AccBV):
        if t is f:
            return t
        raise ExecError("accumulators must be threaded identically through branches")
    return _elem(np.where, c, t, f)


def _gather(arr: BV, idxs: List[BV]) -> BV:
    """``arr[idxs]`` through clipped indices: one ``take`` of rows."""
    k = max([arr.bdims] + [i.bdims for i in idxs])
    ad = _expand(arr, k)
    lin = _linear(ad.shape, k, [_expand(i, k) for i in idxs])
    return BV(_rows(ad, k + len(idxs)).take(lin, axis=0), k)


def _basic_view(a: np.ndarray, ka: int, idxs: Sequence[BV], affine, k: int):
    """``a[..., i0, i1, ..]`` (``a`` carries ``ka`` batch axes) at batch depth
    ``k`` as ONE basic-indexing expression — a view, no clip, no grid, no
    copy — or ``None`` when it is not one.

    ``affine[p]`` is lowering's proof that operand ``p`` is an enclosing
    map's ``iota`` parameter plus a constant: unit stride along its own lane
    (batch axis ``bdims - 1``), constant along every other.  What only the
    call knows is checked here in O(1): an operand without batch axes is a
    lane-uniform integer and must be in range; an affine one must span
    exactly its lane (``size == n``), start and end inside the axis
    (``a[i+2]`` starts past 0; ``a[i+1]`` under ``if i+1 < n`` ends past
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
    _count(INDEX_STATS, "view_fallbacks")


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
    lin = _linear(acc.data.shape, acc.bdims, [_expand(i, k) for i in idxs], elems=True)
    np.add.at(acc.data.reshape(-1), np.broadcast_to(lin, vd.shape).ravel(), vd.ravel())
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


# ---------------------------------------------------------------------------
# Instruction kernels: ``kernel(eng, *operands, *static facts, *bodies)``
# ---------------------------------------------------------------------------


def _copy(src: np.ndarray) -> np.ndarray:
    """``src.copy()`` (C order), a large one into a ``_buffer``."""
    if src.nbytes < _DONATE_MIN_BYTES:
        return src.copy()
    out = _buffer(src.shape, src.dtype)
    np.copyto(out, src)
    return out


def _materialised(eng, v: BV, k: int) -> np.ndarray:
    """A private copy of ``v`` at the full extent of the first ``k`` batch
    levels (what an in-place write needs)."""
    d = _expand(v, k)
    return _copy(np.broadcast_to(d, tuple(eng.bstack[:k]) + d.shape[k:]))


def _update(eng, arr: BV, idxs: List[BV], val: BV) -> BV:
    """``arr with [idxs] <- val`` on a copy, through clipped indices; inactive
    lanes keep the old element."""
    k = max([arr.bdims, val.bdims] + [i.bdims for i in idxs])
    if eng.mask is not None:
        k = max(k, eng.mask.bdims)
    ad = _materialised(eng, arr, k)
    rows = _rows(ad, k + len(idxs))
    lin = _linear(ad.shape, k, [_expand(i, k) for i in idxs])
    vd = _expand(val, k)
    if eng.mask is None:
        rows[lin] = vd
    else:
        old = rows[lin]
        md = _expand(eng.mask, k)
        md = md.reshape(md.shape + (1,) * (old.ndim - md.ndim))
        rows[lin] = np.where(md, vd, old)
    return BV(ad, k)


def _iota(eng, n: int, dt) -> BV:
    return BV(np.arange(n, dtype=dt), 0)


def _replicate(eng, n: int, v: BV) -> BV:
    d = np.asarray(v.data)
    d2 = np.expand_dims(d, axis=v.bdims)
    shape = d.shape[: v.bdims] + (n,) + d.shape[v.bdims:]
    return BV(_copy(np.broadcast_to(d2, shape)), v.bdims)


def _scratch(eng, n: BV, x: BV) -> BV:
    """Zeros shaped ``[max n over lanes] + shape(x)`` per lane."""
    nd = np.asarray(n.data)
    ext = 0 if nd.size == 0 else int(nd.max())
    bshape = tuple(eng.bstack)
    dt = np.asarray(x.data).dtype
    shape = bshape + (ext,) + x.pshape()
    if math.prod(shape) * dt.itemsize < _DONATE_MIN_BYTES:
        return BV(np.zeros(shape, dtype=dt), len(bshape))
    out = _buffer(shape, dt)
    out.fill(0)
    return BV(out, len(bshape))


def _size(eng, v, dim: int) -> BV:
    """Extent ``dim`` of the payload of a value or an accumulator."""
    return BV(np.asarray(np.int64(np.shape(v.data)[v.bdims:][dim])), 0)


def _reverse(eng, v: BV) -> BV:
    return BV(np.flip(np.asarray(v.data), axis=v.bdims).copy(), v.bdims)


def _concat(eng, x: BV, y: BV) -> BV:
    (dx, dy), k, _ = _align([x, y])
    bx = np.broadcast_shapes(dx.shape[:k], dy.shape[:k])
    dx = np.broadcast_to(dx, bx + dx.shape[k:])
    dy = np.broadcast_to(dy, bx + dy.shape[k:])
    return BV(np.concatenate([dx, dy], axis=k), k)


def _valid_lanes(eng, inds: BV, n: int, m: int):
    """The ``n`` indices per lane of a hist/scatter at full batch extent, and
    which of them write: those in ``[0, m)`` on an active lane."""
    d = len(eng.bstack)
    idata = np.broadcast_to(np.asarray(inds.data), tuple(eng.bstack) + (n,))
    valid = (idata >= 0) & (idata < m)
    if eng.mask is not None:
        md = _expand(eng.mask, d)
        md = np.broadcast_to(
            md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)), valid.shape
        )
        valid = valid & md
    return idata, valid


def _scatter(eng, dest: BV, inds: BV, vals: BV) -> BV:
    """``scatter dest inds vals`` on a copy.  Only the in-range indices of
    active lanes are written at all (writing the old element back through a
    clipped index would undo a valid write to that element); among equal
    indices of a lane the last one wins."""
    d = len(eng.bstack)
    (inds, vals), n = _batch_args(eng, [inds, vals])
    dd = _materialised(eng, dest, d)
    idata, valid = _valid_lanes(eng, inds, n, dd.shape[d])
    vdata = np.broadcast_to(np.asarray(vals.data), idata.shape + vals.pshape())
    _rows(dd, d + 1)[_linear(dd.shape, d, [idata])[valid]] = vdata[valid]
    return BV(dd, d)


# -- bodies -------------------------------------------------------------------


def _run_lanes(eng, body, vals, n: int):
    """Run ``body`` on ``vals`` one batch level (of extent ``n``) down."""
    eng.bstack.append(n)
    outer = eng.lanes
    eng.lanes = outer * n
    try:
        return body(eng, vals)
    finally:
        eng.bstack.pop()
        eng.lanes = outer


def _kept(active: BV, old, new) -> List[object]:
    """Loop state after a masked iteration: what the ``active`` lanes
    computed, what the others had (accumulators are threaded, not
    selected)."""
    return [n if isinstance(n, AccBV) else _where(active, n, o) for o, n in zip(old, new)]


# -- map ----------------------------------------------------------------------


def _lane_payload(eng, r: BV, n: int) -> np.ndarray:
    """The result of a lane body (its batch level already popped) as an array
    with extent ``n`` on the lane axis."""
    d = len(eng.bstack)
    rd = _expand(r, d + 1)
    if rd.shape[d] != n:
        rd = np.broadcast_to(rd, rd.shape[:d] + (n,) + rd.shape[d + 1:])
    return rd


def _map_result(eng, r: BV, n: int) -> BV:
    """A map result: contiguous and owned (results never alias inputs) — the
    body's own array when it is both, else a copy."""
    rd = _lane_payload(eng, r, n)
    if not (rd.flags.owndata and rd.flags.c_contiguous):
        rd = _copy(rd)
    return BV(rd, len(eng.bstack))


def _map(eng, arrs: List[BV], accs: List[AccBV], n_acc: int, body) -> List[object]:
    """``map``: the body runs once, one lane level down, on the arguments'
    elements as whole batched arrays and on the accumulators as they are;
    those must lead its results."""
    params, n = _batch_args(eng, arrs)
    res = _run_lanes(eng, body, params + accs, n)
    for r in res[:n_acc]:
        if not isinstance(r, AccBV):
            raise ExecError("map: accumulator results must lead")
    return [*res[:n_acc], *[_map_result(eng, r, n) for r in res[n_acc:]]]


# -- reduce / scan ------------------------------------------------------------


def _fold_empty(eng, ne: BV) -> BV:
    """A reduce over no elements: the neutral element on every lane."""
    d = len(eng.bstack)
    return BV(_materialised(eng, ne, d), d)


def _reduce_lanes(eng, op: str, fold: bool, ne: BV, r: BV, n: int) -> BV:
    """Fold the ``n`` lanes of ``r`` with ``op``; ``fold``: then with ``ne``."""
    d = len(eng.bstack)
    uf = _UFUNC[op]
    red = uf.reduce(_lane_payload(eng, r, n), axis=d)
    if fold:
        red = uf(_expand(ne, d), red)
    return BV(red, d)


def _reduce_ufunc(eng, arrs: List[BV], nes: List[BV], op: str, fold: bool) -> Tuple[BV]:
    d = len(eng.bstack)
    args, n = _batch_args(eng, arrs)
    if n == 0:
        shape = args[0].data.shape
        return (BV(np.broadcast_to(_expand(nes[0], d), shape[:d] + shape[d + 1:]).copy(), d),)
    return (_reduce_lanes(eng, op, fold, nes[0], args[0], n),)


def _scan_empty(eng, ne: BV) -> BV:
    return BV(np.zeros((0,) * (ne.prank + 1), dtype=np.asarray(ne.data).dtype), 0)


def _scan_lanes(eng, op: str, fold: bool, ne: BV, r: BV, n: int) -> BV:
    d = len(eng.bstack)
    uf = _UFUNC[op]
    acc = uf.accumulate(_lane_payload(eng, r, n), axis=d)
    if fold:
        acc = uf(np.expand_dims(_expand(ne, d), axis=d), acc)
    return BV(acc, d)


def _scan_ufunc(eng, arrs: List[BV], nes: List[BV], op: str, fold: bool) -> Tuple[BV]:
    args, n = _batch_args(eng, arrs)
    return (_scan_lanes(eng, op, fold, nes[0], args[0], n),)


def _redomap(eng, arrs: List[BV], nes: List[BV], op: str, fold: bool, spare: bool,
             mbody, scan: bool = False) -> Tuple[BV]:
    """A reduce (``scan``: a scan) whose operator is ``op`` after a map part:
    ``mbody`` runs once, one lane level down, then one ufunc call folds its
    lanes; over no elements it does not run.  ``spare``: its result is a
    buffer it allocated and nothing else holds (``exec/lower.py``), offered
    to the free list once folded — while the call has a pool-served buffer
    out (``eng.out``; until then nothing offered would be admitted)."""
    ne = nes[0]
    args, n = _batch_args(eng, arrs)
    if n == 0:
        return ((_scan_empty if scan else _fold_empty)(eng, ne),)
    (r,) = _run_lanes(eng, mbody, args, n)
    out = (_scan_lanes if scan else _reduce_lanes)(eng, op, fold, ne, r, n)
    if spare and eng.out:
        _give(r)
    return (out,)


def _redomap_scan(eng, arrs, nes, op, fold, spare, mbody) -> Tuple[BV]:
    return _redomap(eng, arrs, nes, op, fold, spare, mbody, scan=True)


def _elems_at(args: Sequence[BV], i: int, d: int) -> List[BV]:
    """Element ``i`` of each argument of an element-at-a-time fold."""
    return [BV(np.take(np.asarray(a.data), i, axis=d), d) for a in args]


def _stack_columns(eng, col: List[BV], ne: BV) -> BV:
    """One result of a generic scan from its per-iteration values."""
    if not col:
        return _scan_empty(eng, ne)
    d = len(eng.bstack)
    col = [_expand(a, d) for a in col]
    shape = np.broadcast_shapes(*[c.shape for c in col])
    return BV(np.stack([np.broadcast_to(c, shape) for c in col], axis=d), d)


def _fold(eng, arrs: List[BV], nes: List[BV], body, scan: bool = False) -> Sequence[BV]:
    """A generic reduce (``scan``: scan), one element at a time: the operator
    ``body`` runs on the accumulators and element ``i`` of every argument."""
    d = len(eng.bstack)
    args, n = _batch_args(eng, arrs)
    acc: Sequence[BV] = nes
    cols: List[List[BV]] = [[] for _ in nes]
    for i in range(n):
        acc = body(eng, [*acc, *_elems_at(args, i, d)])
        if scan:
            for col, a in zip(cols, acc):
                col.append(a)
    if not scan:
        return acc
    return [_stack_columns(eng, col, ne) for col, ne in zip(cols, nes)]


def _fold_scan(eng, arrs, nes, body) -> Sequence[BV]:
    return _fold(eng, arrs, nes, body, scan=True)


# -- histograms ---------------------------------------------------------------


def _hist_enter(eng, m: int, arrs: List[BV]):
    """Enter a histogram's arguments; returns ``(args, n, hs)`` with ``hs`` the
    bin count, the lane indices and which of them write."""
    args, n = _batch_args(eng, arrs)
    return args, n, (m,) + _valid_lanes(eng, args[0], n, m)


def _hist_init(eng, ne: BV, m: int, pe: Tuple[int, ...], dt) -> np.ndarray:
    """``m`` bins of payload shape ``pe`` per lane, each holding ``ne``."""
    d = len(eng.bstack)
    ned = np.expand_dims(_expand(ne, d), axis=d)
    return np.ascontiguousarray(
        np.broadcast_to(ned, tuple(eng.bstack) + (m,) + pe).astype(dt)
    )


def _hist_accumulate(eng, op: str, ne: BV, hs, r: BV) -> BV:
    """The histogram of the lanes of ``r`` under ``op``: one ``ufunc.at``,
    lanes that do not write contributing the neutral element."""
    m, idata, valid = hs
    d = len(eng.bstack)
    bshape = tuple(eng.bstack)
    n = idata.shape[-1]
    data = _lane_payload(eng, r, n)
    pe = data.shape[d + 1:]
    hist = _hist_init(eng, ne, m, pe, data.dtype)
    vdata = np.broadcast_to(data, bshape + (n,) + pe)
    w = valid.reshape(valid.shape + (1,) * (vdata.ndim - valid.ndim))
    vals = np.where(w, vdata, _neutral_of(op, data.dtype))
    lin = _linear(hist.shape, d, [idata], elems=True)
    _UFUNC[op].at(hist.reshape(-1), np.broadcast_to(lin, vals.shape).ravel(), vals.ravel())
    return BV(hist, d)


def _hist_ufunc(eng, m: int, arrs: List[BV], nes: List[BV], op: str) -> Tuple[BV]:
    args, _n, hs = _hist_enter(eng, m, arrs)
    return (_hist_accumulate(eng, op, nes[0], hs, args[1]),)


def _hist_redomap(eng, m: int, arrs: List[BV], nes: List[BV], op: str, spare: bool,
                  mbody) -> Tuple[BV]:
    """A histogram whose operator is ``op`` after a map part, as
    ``_redomap``: ``mbody`` runs once over the values, one lane level down."""
    args, n, hs = _hist_enter(eng, m, arrs)
    (r,) = _run_lanes(eng, mbody, args[1:], n)
    out = _hist_accumulate(eng, op, nes[0], hs, r)
    if spare and eng.out:
        _give(r)
    return (out,)


def _hist_fold(eng, m: int, arrs: List[BV], nes: List[BV], body) -> List[BV]:
    """A generic histogram, one element at a time: the operator ``body`` runs
    on each lane's current bin and element ``i`` of the values, and the lanes
    whose index writes take its results."""
    d = len(eng.bstack)
    args, n, (m, idata, valid) = _hist_enter(eng, m, arrs)
    vals = args[1:]
    outs = [BV(_hist_init(eng, ne, m, v.pshape(), np.asarray(v.data).dtype), d)
            for ne, v in zip(nes, vals)]
    bins = [_rows(o.data, d + 1) for o in outs]
    lin = _linear(tuple(eng.bstack) + (m,), d, [idata])
    for i in range(n):
        s = lin[..., i]
        new = body(eng, [*(BV(b[s], d) for b in bins), *_elems_at(vals, i, d)])
        vi = valid[..., i]
        for b, nv in zip(bins, new):
            old = b[s]
            w = vi.reshape(vi.shape + (1,) * (old.ndim - vi.ndim))
            b[s] = np.where(w, np.broadcast_to(_expand(nv, d), old.shape), old)
    return outs


# -- accumulators and control flow --------------------------------------------


def _withacc(eng, arrs: List[BV], n_acc: int, body) -> List[object]:
    """``withacc``: the body runs on private, fully materialised accumulator
    buffers of ``arrs``, returns them first, and they leave as values."""
    d = len(eng.bstack)
    res = body(eng, [AccBV(_materialised(eng, v, d), d) for v in arrs])
    for r in res[:n_acc]:
        if not isinstance(r, AccBV):
            raise ExecError("withacc: lambda must return its accumulators")
    return [*[BV(r.data, r.bdims) for r in res[:n_acc]], *res[n_acc:]]


def _branch(eng, c: BV, then, els) -> Tuple[object, ...]:
    """``if c``: one branch when the condition is a single unmasked scalar,
    else both under complementary masks, selected per lane."""
    cd = np.asarray(c.data)
    if cd.size == 1 and eng.mask is None:
        return then(eng, ()) if bool(cd.reshape(-1)[0]) else els(eng, ())
    saved = eng.mask
    notc = BV(np.logical_not(cd), c.bdims)
    eng.mask = _combine_mask(saved, c)
    tvals = then(eng, ())
    eng.mask = _combine_mask(saved, notc)
    fvals = els(eng, ())
    eng.mask = saved
    return tuple(_where(c, t, f) for t, f in zip(tvals, fvals))


def _loop(eng, n: BV, inits: List[object], body) -> List[object]:
    """``loop`` ``n`` times, the body running on the counter and the state.
    Lanes with different trip counts run to the largest, each lane masked
    off once it has made its own; the results are owned (never a view of
    an input)."""
    nd = np.asarray(n.data)
    nmax = 0 if nd.size == 0 else int(nd.max())
    uniform = nd.size == 1 or (nd.size > 0 and nd.min() == nd.max())
    saved = eng.mask
    state = inits
    for i in range(nmax):
        it = BV(np.asarray(np.int64(i)), 0)
        if uniform:
            state = body(eng, [it, *state])
            continue
        active = BV(i < nd, n.bdims)
        eng.mask = _combine_mask(saved, active)
        new = body(eng, [it, *state])
        eng.mask = saved
        state = _kept(active, state, new)
    return [BV(_owned(s.data), s.bdims) if isinstance(s, BV) else s for s in state]


def _out_of_fuel(limit: int) -> ExecError:
    return ExecError(f"while loop exceeded iteration fuel ({limit} iterations)")


def _while(eng, inits: List[object], cond, body) -> Sequence[object]:
    """``while cond do body``: a lane stops once its condition fails, the loop
    once every lane has; at most ``values.WHILE_FUEL`` iterations."""
    saved = eng.mask
    limit = fuel = _values.WHILE_FUEL
    state: Sequence[object] = inits
    while True:
        (c,) = cond(eng, state)
        active = _combine_mask(saved, c)
        if not np.any(np.asarray(active.data)):
            return state
        eng.mask = active
        new = body(eng, state)
        eng.mask = saved
        state = _kept(active, state, new)
        fuel -= 1
        if fuel <= 0:
            raise _out_of_fuel(limit)


#: The kernel of every plan-IR instruction but a fused ``run`` (the emitters
#: render those themselves), by ``kind`` (``kind:strategy`` for the reduce
#: family): the kernel, then the instruction fields it takes as operands (a
#: ``Ref``, a tuple of ``Ref``s or an ``IntRef`` each — read per call), as
#: static facts, and as bodies — each body the fields holding its
#: parameters' ``(slot, name)`` pairs, then its ``PBody`` field.  An emitter
#: calls ``kernel(eng, *operands, *statics, *bodies)``, each body a
#: ``body(eng, vals)`` (module docstring), and binds the result to the
#: instruction's ``out``, or its sequence to the instruction's ``outs``.
KERNELS = {
    "update": (_update, ("arr", "idx", "val"), (), ()),
    "iota": (_iota, ("n",), ("dtype",), ()),
    "replicate": (_replicate, ("n", "v"), (), ()),
    "scratch": (_scratch, ("n", "x"), (), ()),
    "size": (_size, ("arr",), ("dim",), ()),
    "reverse": (_reverse, ("x",), (), ()),
    "concat": (_concat, ("x", "y"), (), ()),
    "scatter": (_scatter, ("dest", "inds", "vals"), (), ()),
    "updacc": (_upd_acc, ("acc", "idx", "v"), ("affine",), ()),
    "map": (_map, ("arrs", "accs"), ("n_acc",), (("params", "body"),)),
    "reduce:ufunc": (_reduce_ufunc, ("arrs", "nes"), ("op", "fold"), ()),
    "reduce:redomap": (_redomap, ("arrs", "nes"), ("op", "fold", "spare"),
                       (("mparams", "mbody"),)),
    "reduce:generic": (_fold, ("arrs", "nes"), (), (("params", "body"),)),
    "scan:ufunc": (_scan_ufunc, ("arrs", "nes"), ("op", "fold"), ()),
    "scan:redomap": (_redomap_scan, ("arrs", "nes"), ("op", "fold", "spare"),
                     (("mparams", "mbody"),)),
    "scan:generic": (_fold_scan, ("arrs", "nes"), (), (("params", "body"),)),
    "hist:ufunc": (_hist_ufunc, ("num_bins", "arrs", "nes"), ("op",), ()),
    "hist:redomap": (_hist_redomap, ("num_bins", "arrs", "nes"), ("op", "spare"),
                     (("mparams", "mbody"),)),
    "hist:generic": (_hist_fold, ("num_bins", "arrs", "nes"), (), (("params", "body"),)),
    "withacc": (_withacc, ("arrs",), ("n_acc",), (("params", "body"),)),
    "if": (_branch, ("cond",), (), (("then",), ("els",))),
    "loop": (_loop, ("n", "inits"), (), (("ivar", "params", "body"),)),
    "while": (_while, ("inits",), (), (("cparams", "cbody"), ("params", "body"))),
}


def kernel_of(ins):
    """The ``KERNELS`` entry of instruction ``ins`` (any kind but ``run``)."""
    strategy = getattr(ins, "strategy", None)
    return KERNELS[ins.kind if strategy is None else f"{ins.kind}:{strategy}"]
