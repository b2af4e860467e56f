"""Batched values and the instruction kernels of the plan family.

This module is **not an executor** — it runs no program — but it *is* the
semantics of the plan IR: what every instruction but a fused scalar run
does, control flow included, is written here once, as one function
(``kernel(eng, *operands, *static facts, *bodies) -> BV | sequence``).
``KERNELS`` maps the instruction kinds to theirs.  A nested body reaches its
kernel as a callable ``body(eng, vals) -> results`` the emitter built: it
binds ``vals`` to the body's parameters, runs, and leaves nothing bound.  The
emitter (``exec/plan.py``) binds operands to slots and builds those
callables; what a kernel computes is checked against the reference
interpreter and against direct NumPy expectations with plain-Python bodies
(``tests/test_vector_internals.py``).

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
  ``_upd_acc`` adds into one (``_view``, its template fixed when the plan
  is emitted), falling back to the clipped ``_gather`` / scatter-add
  whenever a per-call fact fails;
* a ``+∘*`` nest over such reads — a redomap of their product, or a map
  adding products into accumulators — is one ``contract`` (``_contract``):
  an ``np.matmul`` / ``np.einsum`` per sum over the views (§6.1's
  "matmul-shaped map-reduce kernels"), the map run only as a fallback.

Batched values are ``BV(data, bdims)``: ``data`` carries ``bdims`` leading
batch axes aligned with the engine's batch-size stack.  Batch axes may have
size 1 (kept broadcastable); values are only materialised to full batch
extent where in-place writes require ownership.  A value's ``bdims`` at run
time always equals the batch depth the plan's static layout gave it
(``exec/lower.py:layout``): every kernel returns its values at the depth
where they are computed, and where control flow joins values of different
depths (``if``, loop state, a generic fold, ``update`` with or without a
mask) it raises them to the join's depth with singleton axes (``_raise``).
That is what lets the emitter line up a fused run's operands with
selectors fixed at emission — one direct NumPy call per op, nothing aligned
per call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import CounterGroup
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


def _raise(v, k: int):
    """``v`` at batch depth ``k``, where control flow joins values of
    different depths (``exec/lower.py``: ``layout``); an accumulator as it
    is."""
    if type(v) is BV and v.bdims != k:
        return BV(_expand(v, k), k)
    return v


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
# plan ``_Engine``).
# ---------------------------------------------------------------------------


def _combine_mask(m: Optional[BV], extra: BV) -> BV:
    if m is None:
        return extra
    k = max(m.bdims, extra.bdims)
    return BV(np.logical_and(_expand(m, k), _expand(extra, k)), k)


def _mask_where(state, v: np.ndarray, k: int, neutral) -> np.ndarray:
    """Replace inactive lanes' elements of ``v`` (batch depth ``k``) by
    ``neutral``."""
    if state.mask is None:
        return v
    md = _expand(state.mask, k) if state.mask.bdims <= k else np.asarray(state.mask.data)
    md = md.reshape(md.shape + (1,) * (np.asarray(v).ndim - md.ndim))
    return np.where(md, v, neutral)


#: The memory plan's counters (the ``mem`` section of ``plan_cache_stats``):
#: three static sizes summed over the plans emitted since the last reset, and
#: one run-time count — donations of a buffer worth reusing whose check
#: failed, so the op allocated.  Unregistered groups: ``plan_cache_stats``
#: shows and resets them.
MEM_STATS = CounterGroup("mem", {"released_slots": 0, "run_local_releases": 0,
                                 "donating_ops": 0, "donation_fallbacks": 0})
#: The index counters (the ``index`` section of ``plan_cache_stats``): how
#: many ``index`` / indexed ``upd_acc`` ops of the plans emitted take the
#: view path (``exec/lower.py:plan_counts``) and how many reads stay gathers
#: and how many are contractions, plus the view ops and contractions that
#: fell back at run time.
INDEX_STATS = CounterGroup("index", {"view_index_ops": 0, "view_updacc_ops": 0,
                                     "gather_index_ops": 0, "contract_ops": 0,
                                     "view_fallbacks": 0})


def _fits(shape: Tuple[int, ...], into: Tuple[int, ...]) -> bool:
    """Whether ``shape`` broadcasts against ``into`` without enlarging it."""
    return len(shape) <= len(into) and all(
        a == b or a == 1 for a, b in zip(reversed(shape), reversed(into))
    )


#: Donation's floor: a run op computes into a dead operand only from more
#: than half of this (glibc's default ``M_MMAP_THRESHOLD``).  Below it the
#: check is not worth its cost: ``malloc`` hands a just-released block
#: straight back, so a fresh result is cheap.  Above it the check is a few
#: attribute reads, the operands being lined up statically, and the donor's
#: cache lines are hot where a fresh block's are cold.  Donation serves the
#: NumPy path.  With ``gcc`` present no hot call donates on the benchmark's
#: four cached workloads (no ``out=`` write in 10 calls after 6 warm-ups):
#: all of it happens in a plan's first two calls, before its kernel runs are
#: compiled (k-means 18 writes, HAND 3,748, in 3 calls).  With no compiler it
#: holds the hot step (bench sizes, 2-core box, medians of 20 alternating
#: rounds, shipped floor vs. a floor above every buffer, shipped faster in
#: 20/20): HAND Jacobian 46.1 vs 49.7 ms, k-means Newton 4.43 vs 8.42 ms.
_DONATE_MIN_BYTES = 128 * 1024


def _elem_into(f, donate, k: int, datas: List[np.ndarray]) -> BV:
    """The elementwise op ``f`` of a fused run at batch depth ``k``, its
    operands' data ``datas`` already lined up by their static selectors
    (``exec/lower.py``: ``layout``), when some of them are dead temporaries
    of the run (positions ``donate``: ``exec/lower.py`` proved nobody else
    holds them): write the result into the first one that is large enough to
    matter and can hold it — float, C-contiguous, of every operand's dtype
    and already of the result's shape, so the outcome is bitwise what a
    fresh array would get — instead of allocating.  Otherwise a fresh
    result."""
    refused = False
    for p in donate:
        out = datas[p]
        if 2 * out.nbytes <= _DONATE_MIN_BYTES:
            continue
        dt, shape = out.dtype, out.shape
        for d in datas:
            if d.dtype != dt or not (d.shape == shape or not d.ndim or _fits(d.shape, shape)):
                break
        else:
            if dt.kind == "f" and out.flags.c_contiguous:
                return BV(f(*datas, out=out), k)
        refused = True
    if refused:
        MEM_STATS.add("donation_fallbacks")
    return BV(np.asarray(f(*datas)), k)


def _where(c: BV, t, f):
    """Per lane, ``t`` where ``c`` holds, else ``f``: where divergent
    control flow joins, ``t`` and ``f`` already raised to the join's batch
    depth (``_raise``), no shallower than ``c``."""
    if isinstance(t, AccBV) or isinstance(f, AccBV):
        if t is f:
            return t
        raise ExecError("accumulators must be threaded identically through branches")
    k = t.bdims
    cd = _expand(c, k)
    td = t.data
    return BV(np.where(cd.reshape(cd.shape + (1,) * (np.ndim(td) - cd.ndim)), td, f.data), k)


def _gather(ad: np.ndarray, ids: List[np.ndarray], k: int, sels) -> BV:
    """``a[ids]`` through clipped indices: one ``take`` of rows.  ``sels``
    are the static selectors (``exec/lower.py``: ``lift``) that raise the
    array's data ``ad`` and each index's data to batch depth ``k``."""
    if sels[0] is not None:
        ad = ad[sels[0]]
    ids = [i if s is None else i[s] for i, s in zip(ids, sels[1:])]
    return BV(_rows(ad, k + len(ids)).take(_linear(ad.shape, k, ids), axis=0), k)


def _contract_view(ka: int, bs: Sequence[int], affine):
    """``_view_template`` without singleton axes or transpose: ``(template,
    labels)``, the batch level of each axis of the view, or ``None``."""
    if _view_template(ka, bs, affine, max([ka, *bs])) is None:
        return None
    tmpl = (slice(None),) * ka + (None,) * len(bs) + (Ellipsis,)
    slots = tuple((ka + p, b - 1 if b else None) for p, b in enumerate(bs))
    return (ka, tmpl, slots, None), tuple(range(ka)) + tuple(b - 1 for b in bs if b)


def _view_template(ka: int, bs: Sequence[int], affine, k: int):
    """The static half of reading ``a[..., i0, i1, ..]`` (``a`` carries
    ``ka`` batch axes, index operand ``p`` ``bs[p]``, the read is at batch
    depth ``k``) as ONE basic-indexing expression — a view, no clip, no grid,
    no copy — or ``None`` when no call can read it so.

    ``affine[p]`` is lowering's proof that operand ``p`` is an enclosing
    map's ``iota`` parameter plus a constant: unit stride along its own lane
    (batch axis ``bs[p] - 1``), constant along every other.  An operand
    without batch axes is a lane-uniform integer and becomes one; an affine
    one becomes a slice on its lane's position, provided no other operand
    uses that lane and it is no shallower than ``a``'s own batch axes (either
    would be a diagonal); every batch axis nothing varies along is a
    ``None``.  Returns ``(ka, tmpl, slots, perm)``: ``tmpl`` that index with
    a placeholder at each operand's position ``slots[p][0]``,
    ``slots[p][1]`` the operand's lane (``None``: uniform), and ``perm`` the
    order of the ``k`` batch axes after the read when the lanes are out of
    payload order (``a[j, i]``: slices first, spare singleton axes after,
    one transpose), else ``None``.  ``_view`` does the per-call half."""
    lanes = []
    for b, aff in zip(bs, affine):
        if b == 0:
            continue
        lane = b - 1
        if not aff or lane < ka or lane in lanes:
            return None
        lanes.append(lane)
    tmpl: List[object] = [slice(None)] * ka
    pos = []
    if lanes == sorted(lanes):
        # Payload order is lane order: interleave the ``None``s.
        cur = ka
        for b in bs:
            if b:
                tmpl += [None] * (b - 1 - cur)
                cur = b
            pos.append(len(tmpl))
            tmpl.append(None)
        tmpl += [None] * (k - cur)
        perm = None
    else:
        m = len(lanes)
        pos = list(range(ka, ka + len(bs)))
        tmpl += [None] * (len(bs) + k - ka - m)
        src = {lane: ka + x for x, lane in enumerate(lanes)}
        spare = iter(range(ka + m, k))
        perm = tuple(range(ka)) + tuple(src[t] if t in src else next(spare)
                                        for t in range(ka, k))
    slots = tuple((q, b - 1 if b else None) for q, b in zip(pos, bs))
    return ka, tuple(tmpl) + (Ellipsis,), slots, perm


def _view(a: np.ndarray, ids: Sequence[np.ndarray], vt) -> Optional[np.ndarray]:
    """The view ``vt`` (``_view_template``) of ``a`` at the index data
    ``ids``, or ``None`` when what only the call knows, checked here in
    O(1), fails: a uniform operand must be in range; an affine one must span
    exactly its lane (``size == n``) and start and end inside the axis
    (``a[i+2]`` starts past 0; ``a[i+1]`` under ``if i+1 < n`` ends past
    it — that read stays a clipped gather).  A ``slice`` is a lane's
    ``range(n)`` (``_contract``)."""
    ka, tmpl, slots, perm = vt
    sel = list(tmpl)
    for p, (q, lane) in enumerate(slots):
        d = ids[p]
        dim = a.shape[ka + p]
        if type(d) is slice:
            if d.stop > dim:
                return None
            sel[q] = d
            continue
        if lane is None:
            j = d.item()
            if not 0 <= j < dim:
                return None
            sel[q] = j
            continue
        n = d.shape[lane]
        if n == 0 or d.size != n:
            return None
        lo = d.item(0)
        if lo < 0 or lo + n > dim or d.item(n - 1) != lo + n - 1:
            return None
        sel[q] = slice(lo, lo + n)
    out = a[tuple(sel)]
    if perm is None:
        return out
    return out.transpose(perm + tuple(range(len(perm), out.ndim)))


def _view_fell_back() -> None:
    INDEX_STATS.add("view_fallbacks")


def _index(ad: np.ndarray, ids: List[np.ndarray], k: int, sels, vt) -> BV:
    """``a[ids]`` for an ``index`` op lowering routed to the view path
    (every operand lane-affine or lane-uniform by construction): the
    ``_view``, else exactly ``_gather``."""
    if vt is not None:
        out = _view(ad, ids, vt)
        if out is not None:
            return BV(out, k)
    _view_fell_back()
    return _gather(ad, ids, k, sels)


def _add_view(state, acc: AccBV, ids: List[np.ndarray], v: BV, vt, k: int) -> bool:
    """``acc[idxs] += v`` as a strided in-place add on the ``_view`` of the
    accumulator: distinct lanes on slices cannot collide, and a batch
    axis no index varies along (extent 1 in the view) receives the value
    summed over it — provided the value is materialised along that axis (a
    lane-uniform value would count once instead of once per lane; that case
    takes ``np.add.at``).  False when any fact fails; nothing was written.

    This is what the paper's §6.1 reduce rewrite buys on a GPU: an update
    whose index is invariant to a parallel lane becomes one sum over that
    lane, not a scatter of contended adds.  Product accumulation maps go
    further, to one ``_contract``; an update under a mask, or with a
    data-dependent index, still takes ``np.add.at``."""
    ka = acc.bdims
    view = _view(acc.data, ids, vt)
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


def _upd_acc(state, acc, idxs: List[BV], v: BV, affine, lay) -> AccBV:
    """``upd acc[idxs] += v``.  ``affine`` is
    ``None`` for an update lowering left on the scatter path; masked updates
    always take it (inactive lanes contribute zero).  ``lay`` is the static
    ``(k, view)``: the batch depth of the update unmasked and its
    ``_view_template``."""
    if not isinstance(acc, AccBV):
        raise ExecError("upd: operand is not an accumulator")
    k, vt = lay
    if state.mask is not None:
        k = max(k, state.mask.bdims)
    elif affine is not None:
        if vt is not None and _add_view(state, acc, [i.data for i in idxs], v, vt, k):
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


def _materialised(eng, v: BV, k: int) -> np.ndarray:
    """A private copy of ``v`` at the full extent of the first ``k`` batch
    levels (what an in-place write needs)."""
    d = _expand(v, k)
    return np.broadcast_to(d, tuple(eng.bstack[:k]) + d.shape[k:]).copy()


def _update(eng, arr: BV, idxs: List[BV], val: BV, depth: int) -> BV:
    """``arr with [idxs] <- val`` on a copy, through clipped indices; inactive
    lanes keep the old element.  The result is raised to ``depth``, its
    static batch depth: a mask, when there is one, adds its own."""
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
    return _raise(BV(ad, k), depth)


def _iota(eng, n: int, dt) -> BV:
    return BV(np.arange(n, dtype=dt), 0)


def _replicate(eng, n: int, v: BV) -> BV:
    d = np.asarray(v.data)
    d2 = np.expand_dims(d, axis=v.bdims)
    shape = d.shape[: v.bdims] + (n,) + d.shape[v.bdims:]
    return BV(np.broadcast_to(d2, shape).copy(), v.bdims)


def _scratch(eng, n: BV, x: BV) -> BV:
    """Zeros shaped ``[max n over lanes] + shape(x)`` per lane."""
    nd = np.asarray(n.data)
    ext = 0 if nd.size == 0 else int(nd.max())
    bshape = tuple(eng.bstack)
    dt = np.asarray(x.data).dtype
    return BV(np.zeros(bshape + (ext,) + x.pshape(), dtype=dt), len(bshape))


def _size(eng, v, dim: int) -> BV:
    """Extent ``dim`` of the payload of a value or an accumulator."""
    return BV(np.asarray(np.int64(np.shape(v.data)[v.bdims:][dim])), 0)


def _reverse(eng, v: BV) -> BV:
    return BV(np.flip(np.asarray(v.data), axis=v.bdims).copy(), v.bdims)


def _concat(eng, x: BV, y: BV) -> BV:
    k = max(x.bdims, y.bdims)
    dx, dy = _expand(x, k), _expand(y, k)
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
    try:
        return body(eng, vals)
    finally:
        eng.bstack.pop()


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
        rd = rd.copy()
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
    """A scan over no elements: no element per lane, at the lanes' depth."""
    d = len(eng.bstack)
    nd = np.asarray(ne.data)
    return BV(np.zeros((1,) * d + (0,) * (nd.ndim - ne.bdims + 1), dtype=nd.dtype), d)


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


def _redomap(eng, arrs: List[BV], nes: List[BV], op: str, fold: bool, mbody,
             scan: bool = False) -> Tuple[BV]:
    """A reduce (``scan``: a scan) whose operator is ``op`` after a map part:
    ``mbody`` runs once, one lane level down, then one ufunc call folds its
    lanes; over no elements it does not run."""
    ne = nes[0]
    args, n = _batch_args(eng, arrs)
    if n == 0:
        return ((_scan_empty if scan else _fold_empty)(eng, ne),)
    (r,) = _run_lanes(eng, mbody, args, n)
    return ((_scan_lanes if scan else _reduce_lanes)(eng, op, fold, ne, r, n),)


def _redomap_scan(eng, arrs, nes, op, fold, mbody) -> Tuple[BV]:
    return _redomap(eng, arrs, nes, op, fold, mbody, scan=True)


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


def _fold(eng, arrs: List[BV], nes: List[BV], ks: Tuple[int, ...], body,
          scan: bool = False) -> Sequence[BV]:
    """A generic reduce (``scan``: scan), one element at a time: the operator
    ``body`` runs on the accumulators and element ``i`` of every argument.
    The accumulators stay at their static batch depths ``ks``."""
    d = len(eng.bstack)
    args, n = _batch_args(eng, arrs)
    acc: Sequence[BV] = [_raise(v, k) for v, k in zip(nes, ks)]
    cols: List[List[BV]] = [[] for _ in nes]
    for i in range(n):
        acc = [_raise(v, k) for v, k in zip(body(eng, [*acc, *_elems_at(args, i, d)]), ks)]
        if scan:
            for col, a in zip(cols, acc):
                col.append(a)
    if not scan:
        return acc
    return [_stack_columns(eng, col, ne) for col, ne in zip(cols, nes)]


def _fold_scan(eng, arrs, nes, ks, body) -> Sequence[BV]:
    return _fold(eng, arrs, nes, ks, body, scan=True)


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


def _hist_redomap(eng, m: int, arrs: List[BV], nes: List[BV], op: str, mbody) -> Tuple[BV]:
    """A histogram whose operator is ``op`` after a map part, as
    ``_redomap``: ``mbody`` runs once over the values, one lane level down."""
    args, n, hs = _hist_enter(eng, m, arrs)
    (r,) = _run_lanes(eng, mbody, args[1:], n)
    return (_hist_accumulate(eng, op, nes[0], hs, r),)


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


# -- contractions -------------------------------------------------------------


def _contract(eng, arrs, nes, accs, xs, lanes, lay, body) -> List[object]:
    """A ``+∘*`` nest (``exec/lower.py:IContract``): each sum — a redomap's
    value, or an update added into its accumulator's view — one
    ``np.matmul`` (else ``np.einsum``; ``lay``: ``contract_layout``) over
    the reads' ``_view``s and lane scalars; on a summed ``spread`` level
    that every factor has at extent 1, one is broadcast to the level's
    extent.  ``arrs``: an ``iota`` (``lanes``), a replicate, or a dropped
    one's ``[count, value]``.  If a per-call fact fails — a view, an
    extent, a mask on an update — nothing is written and the map (part)
    ``body`` runs instead."""
    srcs: List[object] = []
    ns = set()
    for a, lane in zip(arrs, lanes):
        if type(a) is list:
            n, v = a[0], a[1].data
        else:
            n = a.data.shape[-1 if lane else a.bdims]
            v = slice(0, n) if lane else a.data[..., 0] if n else None
        srcs.append(v)  # a lane index as ``_view`` takes it, or a lane scalar
        ns.add(n)
    srcs += [x.data for x in xs]
    ok = lay is not None and ns == {n} and n and (not accs or eng.mask is None)
    done: list = []
    for reads, spec, mm, osel, target, spread in lay if ok else ():
        ops = [srcs[s] if vt is None else _view(srcs[s], [srcs[i] for i in ids], vt)
               for s, ids, vt in reads]
        if any(v is None for v in ops):
            ok = False
            break
        for t, axes in spread:  # every factor lane-uniform on a summed level
            if all(ops[f].shape[a] == 1 for f, a in axes):
                f, a = axes[0]
                ops[f] = np.broadcast_to(ops[f], ops[f].shape[:a] + (eng.bstack[t],)
                                         + ops[f].shape[a + 1:])
        res = None
        if mm is not None:
            f0, t0, f1, t1 = mm
            x, y = ops[f0].T if t0 else ops[f0], ops[f1].T if t1 else ops[f1]
            if x.shape[1] == y.shape[0]:  # else a factor broadcasts the summed lane
                res = np.matmul(x, y)
        if res is None:
            res = np.asarray(np.einsum(spec, *ops, optimize=False))
        if osel is not None:
            res = res[osel]
        if target is None:
            done.append(BV(res, len(eng.bstack)))
            continue
        j, ids, vt = target
        view = _view(accs[j].data, [srcs[i] for i in ids], vt)
        if view is None:
            ok = False
            break
        done.append((view, res))
    if not ok:
        _view_fell_back()
        args = [_replicate(eng, *a) if type(a) is list else a for a in arrs]
        if accs:
            return _map(eng, args, accs, len(accs), body)
        return list(_redomap(eng, args, nes, "add", False, body))
    for view, res in done if accs else ():
        view += res
    return accs or done


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


def _branch(eng, c: BV, ks: Tuple[int, ...], then, els) -> Tuple[object, ...]:
    """``if c``: one branch when the condition is a single unmasked scalar,
    else both under complementary masks, selected per lane; either way the
    results at their static batch depths ``ks``."""
    cd = np.asarray(c.data)
    if cd.size == 1 and eng.mask is None:
        res = then(eng, ()) if bool(cd.reshape(-1)[0]) else els(eng, ())
        return tuple(_raise(v, k) for v, k in zip(res, ks))
    saved = eng.mask
    notc = BV(np.logical_not(cd), c.bdims)
    eng.mask = _combine_mask(saved, c)
    tvals = then(eng, ())
    eng.mask = _combine_mask(saved, notc)
    fvals = els(eng, ())
    eng.mask = saved
    return tuple(_where(c, _raise(t, k), _raise(f, k)) for t, f, k in zip(tvals, fvals, ks))


def _loop(eng, n: BV, inits: List[object], ks: Tuple[int, ...], body) -> List[object]:
    """``loop`` ``n`` times, the body running on the counter and the state,
    which stays at its static batch depths ``ks``.  Lanes with different
    trip counts run to the largest, each lane masked off once it has made
    its own; the results are owned (never a view of an input)."""
    nd = np.asarray(n.data)
    nmax = 0 if nd.size == 0 else int(nd.max())
    uniform = nd.size == 1 or (nd.size > 0 and nd.min() == nd.max())
    saved = eng.mask
    state = [_raise(v, k) for v, k in zip(inits, ks)]
    for i in range(nmax):
        it = BV(np.asarray(np.int64(i)), 0)
        if uniform:
            state = [_raise(v, k) for v, k in zip(body(eng, [it, *state]), ks)]
            continue
        active = BV(i < nd, n.bdims)
        eng.mask = _combine_mask(saved, active)
        new = [_raise(v, k) for v, k in zip(body(eng, [it, *state]), ks)]
        eng.mask = saved
        state = _kept(active, state, new)
    return [BV(_owned(s.data), s.bdims) if isinstance(s, BV) else s for s in state]


def _out_of_fuel(limit: int) -> ExecError:
    return ExecError(f"while loop exceeded iteration fuel ({limit} iterations)")


def _while(eng, inits: List[object], ks: Tuple[int, ...], cond, body) -> Sequence[object]:
    """``while cond do body``: a lane stops once its condition fails, the loop
    once every lane has; at most ``values.WHILE_FUEL`` iterations.  The
    state stays at its static batch depths ``ks``."""
    saved = eng.mask
    limit = fuel = _values.WHILE_FUEL
    state: Sequence[object] = [_raise(v, k) for v, k in zip(inits, ks)]
    while True:
        (c,) = cond(eng, state)
        active = _combine_mask(saved, c)
        if not np.any(np.asarray(active.data)):
            return state
        eng.mask = active
        new = [_raise(v, k) for v, k in zip(body(eng, state), ks)]
        eng.mask = saved
        state = _kept(active, state, new)
        fuel -= 1
        if fuel <= 0:
            raise _out_of_fuel(limit)


#: The kernel of every plan-IR instruction but a fused ``run`` (the emitter
#: runs those itself), by ``kind`` (``kind:strategy`` for the reduce
#: family): the kernel, then the instruction fields it takes as operands (a
#: ``Ref``, a tuple of ``Ref``s or an ``IntRef`` each — read per call), as
#: static facts (``"layout"``: what the emitting ``exec/lower.py:Layout``
#: fixed for the instruction, ``Layout.static``), and as bodies — each body
#: the fields holding its parameters' ``(slot, name)`` pairs, then its
#: ``PBody`` field.  The emitter calls ``kernel(eng, *operands, *statics,
#: *bodies)``, each body a ``body(eng, vals)`` (module docstring), and binds
#: the result to the instruction's ``out``, or its sequence to the
#: instruction's ``outs``.
KERNELS = {
    "update": (_update, ("arr", "idx", "val"), ("layout",), ()),
    "iota": (_iota, ("n",), ("dtype",), ()),
    "replicate": (_replicate, ("n", "v"), (), ()),
    "scratch": (_scratch, ("n", "x"), (), ()),
    "size": (_size, ("arr",), ("dim",), ()),
    "reverse": (_reverse, ("x",), (), ()),
    "concat": (_concat, ("x", "y"), (), ()),
    "scatter": (_scatter, ("dest", "inds", "vals"), (), ()),
    "updacc": (_upd_acc, ("acc", "idx", "v"), ("affine", "layout"), ()),
    "map": (_map, ("arrs", "accs"), ("n_acc",), (("params", "body"),)),
    "reduce:ufunc": (_reduce_ufunc, ("arrs", "nes"), ("op", "fold"), ()),
    "reduce:redomap": (_redomap, ("arrs", "nes"), ("op", "fold"),
                       (("mparams", "mbody"),)),
    "reduce:generic": (_fold, ("arrs", "nes"), ("layout",), (("params", "body"),)),
    "scan:ufunc": (_scan_ufunc, ("arrs", "nes"), ("op", "fold"), ()),
    "scan:redomap": (_redomap_scan, ("arrs", "nes"), ("op", "fold"),
                     (("mparams", "mbody"),)),
    "scan:generic": (_fold_scan, ("arrs", "nes"), ("layout",), (("params", "body"),)),
    "hist:ufunc": (_hist_ufunc, ("num_bins", "arrs", "nes"), ("op",), ()),
    "hist:redomap": (_hist_redomap, ("num_bins", "arrs", "nes"), ("op",),
                     (("mparams", "mbody"),)),
    "hist:generic": (_hist_fold, ("num_bins", "arrs", "nes"), (), (("params", "body"),)),
    "contract": (_contract, ("arrs", "nes", "accs", "xs"), ("lanes", "layout"),
                 (("params", "body"),)),
    "withacc": (_withacc, ("arrs",), ("n_acc",), (("params", "body"),)),
    "if": (_branch, ("cond",), ("layout",), (("then",), ("els",))),
    "loop": (_loop, ("n", "inits"), ("layout",), (("ivar", "params", "body"),)),
    "while": (_while, ("inits",), ("layout",), (("cparams", "cbody"), ("params", "body"))),
}


def kernel_of(ins):
    """The ``KERNELS`` entry of instruction ``ins`` (any kind but ``run``)."""
    strategy = getattr(ins, "strategy", None)
    return KERNELS[ins.kind if strategy is None else f"{ins.kind}:{strategy}"]
