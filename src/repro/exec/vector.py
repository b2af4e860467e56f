"""Vectorised interpreter — the "GPU" of this reproduction.

Evaluates ``map`` nests by *batching* instead of looping: entering a ``map``
pushes a batch level, lambda parameters become whole NumPy arrays with a
leading batch axis, and every scalar statement of the (possibly deeply
nested) lambda body executes as one bulk NumPy op over all iterations at
once.  This is the flattening execution model the paper relies on (§4.1):
perfectly nested maps cost one bulk operation per scalar statement.

Divergent control flow is executed SIMT-style:

* ``If`` under a batched condition runs *both* branches under complementary
  predication masks and selects results with ``where`` — what a GPU warp
  does;
* ``Loop``/``WhileLoop`` with lane-varying trip counts run to the maximum
  trip count with per-lane active masks;
* accumulator updates (``UpdAcc``) become ``np.add.at`` — the moral
  equivalent of the CUDA ``atomicAdd`` the paper lowers accumulators to —
  with inactive lanes contributing zero.

Batched values are ``BV(data, bdims)``: ``data`` carries ``bdims`` leading
batch axes aligned with the interpreter's batch-size stack.  Batch axes may
have size 1 (kept broadcastable); values are only materialised to full batch
extent where in-place writes require ownership.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.analysis import (
    OP_IDENTITY as _OP_IDENTITY,
    ne_is_identity as _ne_is_identity,
    recognize_binop_lambda,
    recognize_redomap_lambda,
)
from ..ir.ast import (
    AtomExp,
    Atom,
    BinOp,
    Body,
    Cast,
    Concat,
    Exp,
    Fun,
    If,
    Index,
    Iota,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Replicate,
    Reverse,
    Scan,
    Scatter,
    ScratchLike,
    Select,
    Size,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
)
from ..ir.types import np_dtype
from ..util import ExecError
from . import values as _values
from .prims import apply_binop, apply_unop, cast_to
from .values import coerce_arg

__all__ = ["VecInterp", "run_fun_vec", "run_fun_vec_batched", "BV", "AccBV"]

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


# The specialisable-op identity table and the syntactic ne-is-identity test
# live in ir/analysis.py (imported above as _OP_IDENTITY/_ne_is_identity):
# the shardability analysis substitutes chunk neutral elements from the same
# table, and the two must never diverge.


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
# Runtime primitives shared with the plan compiler (exec/plan.py)
#
# These are state-generic: ``state`` is any object with ``bstack``/``mask``
# attributes (a ``VecInterp`` or a plan ``_Engine``).  Keeping one copy here
# is what guarantees the two backends cannot drift semantically.
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
#: Every mutation holds ``_MEM_LOCK`` (shard thread mode runs plans in workers).
MEM_STATS = {"released_slots": 0, "run_local_releases": 0, "donating_ops": 0,
             "donation_fallbacks": 0}
_MEM_LOCK = threading.Lock()


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
        with _MEM_LOCK:
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
    if k == 0:
        out = ad[tuple(int(np.asarray(i)[()]) for i in sel)]
        return BV(np.asarray(out), 0)
    out = ad[_grids(ad.shape[:k]) + tuple(sel)]
    return BV(np.asarray(out), k)


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


class VecInterp:
    """Vectorising evaluator (one instance per call; not reentrant)."""

    def __init__(self) -> None:
        self.bstack: List[int] = []
        self.mask: Optional[BV] = None  # boolean BV with payload rank 0

    # -- entry ----------------------------------------------------------------

    def run(self, fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
        if len(args) != len(fun.params):
            raise ExecError(
                f"{fun.name}: expected {len(fun.params)} arguments, got {len(args)}"
            )
        env: Dict[str, object] = {}
        for p, a in zip(fun.params, args):
            env[p.name] = BV(np.asarray(coerce_arg(a, p.type)), 0)
        with np.errstate(all="ignore"):
            res = self.eval_body(fun.body, env)
        out = []
        for r in res:
            if isinstance(r, AccBV):
                raise ExecError("accumulator escaped to top level")
            d = np.asarray(r.data)
            out.append(d if d.ndim else d[()])
        return tuple(out)

    # -- environment --------------------------------------------------------------

    def atom(self, a: Atom, env):
        if isinstance(a, Var):
            try:
                return env[a.name]
            except KeyError:
                raise ExecError(f"unbound variable {a.name}") from None
        return BV(np.asarray(np_dtype(a.type)(a.value)), 0)

    def eval_body(self, body: Body, env) -> Tuple[object, ...]:
        for stm in body.stms:
            vals = self.eval_exp(stm.exp, env)
            if len(vals) != len(stm.pat):
                raise ExecError(f"statement binds {len(stm.pat)} vars, got {len(vals)}")
            for v, val in zip(stm.pat, vals):
                env[v.name] = val
        return tuple(self.atom(r, env) for r in body.result)

    # -- masking / elementwise (shared module-level primitives) ----------------------

    _combine_mask = staticmethod(_combine_mask)

    def _mask_where(self, v: np.ndarray, k: int, neutral) -> np.ndarray:
        return _mask_where(self, v, k, neutral)

    def _elem(self, f, *vs) -> BV:
        return _elem(f, *vs)

    def _where(self, c: BV, t, f):
        return _where(c, t, f)

    # -- expressions ------------------------------------------------------------------------

    def eval_exp(self, e: Exp, env) -> Tuple[object, ...]:
        if isinstance(e, AtomExp):
            return (self.atom(e.x, env),)

        if isinstance(e, UnOp):
            return (self._elem(lambda d: apply_unop(e.op, d), self.atom(e.x, env)),)

        if isinstance(e, BinOp):
            return (
                self._elem(
                    lambda a, b: apply_binop(e.op, a, b),
                    self.atom(e.x, env),
                    self.atom(e.y, env),
                ),
            )

        if isinstance(e, Select):
            return (
                self._where(
                    self.atom(e.c, env), self.atom(e.t, env), self.atom(e.f, env)
                ),
            )

        if isinstance(e, Cast):
            v = self.atom(e.x, env)
            return (BV(cast_to(v.data, np_dtype(e.to)), v.bdims),)

        if isinstance(e, Index):
            return (self._gather(self.atom(e.arr, env), [self.atom(i, env) for i in e.idx]),)

        if isinstance(e, Update):
            return (self._update(e, env),)

        if isinstance(e, Iota):
            n = self._static_int(e.n, env, "iota length")
            return (BV(np.arange(n, dtype=np_dtype(e.elem)), 0),)

        if isinstance(e, Replicate):
            n = self._static_int(e.n, env, "replicate count")
            v = self.atom(e.v, env)
            d = np.asarray(v.data)
            d2 = np.expand_dims(d, axis=v.bdims)
            shape = d.shape[: v.bdims] + (n,) + d.shape[v.bdims:]
            return (BV(np.broadcast_to(d2, shape).copy(), v.bdims),)

        if isinstance(e, ZerosLike):
            v = self.atom(e.x, env)
            return (BV(np.zeros_like(np.asarray(v.data)), v.bdims),)

        if isinstance(e, ScratchLike):
            # Checkpoint buffers may have lane-varying logical extents (loops
            # with data-dependent trip counts); allocate the maximum — the
            # slack is never read back.
            nv = self.atom(e.n, env)
            nd = np.asarray(nv.data)
            n = 0 if nd.size == 0 else int(nd.max())
            v = self.atom(e.x, env)
            bshape = tuple(self.bstack)
            dt = np.asarray(v.data).dtype
            return (BV(np.zeros(bshape + (n,) + v.pshape(), dtype=dt), len(bshape)),)

        if isinstance(e, Size):
            v = self.atom(e.arr, env)
            if isinstance(v, AccBV):
                shape = v.data.shape[v.bdims:]
                return (BV(np.asarray(np.int64(shape[e.dim])), 0),)
            return (BV(np.asarray(np.int64(v.pshape()[e.dim])), 0),)

        if isinstance(e, Reverse):
            v = self.atom(e.x, env)
            return (BV(np.flip(np.asarray(v.data), axis=v.bdims).copy(), v.bdims),)

        if isinstance(e, Concat):
            x = self.atom(e.x, env)
            y = self.atom(e.y, env)
            (dx, dy), k, _ = _align([x, y])
            bx = np.broadcast_shapes(dx.shape[:k], dy.shape[:k])
            dx = np.broadcast_to(dx, bx + dx.shape[k:])
            dy = np.broadcast_to(dy, bx + dy.shape[k:])
            return (BV(np.concatenate([dx, dy], axis=k), k),)

        if isinstance(e, Map):
            return self._eval_map(e, env)
        if isinstance(e, Reduce):
            return self._eval_reduce(e, env)
        if isinstance(e, Scan):
            return self._eval_scan(e, env)
        if isinstance(e, ReduceByIndex):
            return self._eval_hist(e, env)
        if isinstance(e, Scatter):
            return (self._eval_scatter(e, env),)
        if isinstance(e, Loop):
            return self._eval_loop(e, env)
        if isinstance(e, WhileLoop):
            return self._eval_while(e, env)
        if isinstance(e, If):
            return self._eval_if(e, env)
        if isinstance(e, WithAcc):
            return self._eval_withacc(e, env)
        if isinstance(e, UpdAcc):
            return (self._eval_updacc(e, env),)

        raise ExecError(f"vec eval: unknown expression {type(e).__name__}")

    # -- helpers ---------------------------------------------------------------------------

    def _static_int(self, a: Atom, env, what: str) -> int:
        return _uniform_int(self.atom(a, env), what)

    def _gather(self, arr: BV, idxs: List[BV]) -> BV:
        return _gather(arr, idxs)

    def _update(self, e: Update, env) -> BV:
        arr = self.atom(e.arr, env)
        idxs = [self.atom(i, env) for i in e.idx]
        val = self.atom(e.val, env)
        k = max([arr.bdims, val.bdims] + [i.bdims for i in idxs])
        if self.mask is not None:
            k = max(k, self.mask.bdims)
        # Materialise the destination at full batch size: each lane owns a
        # private copy (functional semantics), so lanes never collide.
        bshape = tuple(self.bstack[:k])
        ad = _expand(arr, k)
        ad = np.broadcast_to(ad, bshape + ad.shape[k:]).copy()
        sel = _grids(bshape) + tuple(
            np.clip(_expand(i, k), 0, max(ad.shape[k + a] - 1, 0))
            for a, i in enumerate(idxs)
        )
        vd = _expand(val, k)
        if self.mask is None:
            ad[sel] = vd
        else:
            old = ad[sel]
            md = _expand(self.mask, k)
            md = md.reshape(md.shape + (1,) * (old.ndim - md.ndim))
            ad[sel] = np.where(md, vd, old)
        return BV(ad, k)

    # -- SOACs ------------------------------------------------------------------------------

    def _map_args(self, e_arrs: Tuple[Var, ...], env) -> Tuple[List[BV], int]:
        return _batch_args(self, [self.atom(a, env) for a in e_arrs])

    def _eval_map(self, e: Map, env) -> Tuple[object, ...]:
        d = len(self.bstack)
        params, n = self._map_args(e.arrs, env)
        accs = [self.atom(a, env) for a in e.accs]
        for p, v in zip(e.lam.params, params + accs):
            env[p.name] = v
        self.bstack.append(n)
        try:
            res = self.eval_body(e.lam.body, env)
        finally:
            self.bstack.pop()
        out: List[object] = []
        for r in res[: len(e.accs)]:
            if not isinstance(r, AccBV):
                raise ExecError("map: accumulator results must lead")
            out.append(r)
        for r in res[len(e.accs):]:
            rd = _expand(r, d + 1)
            if rd.shape[d] != n:  # materialise the new payload axis
                rd = np.broadcast_to(rd, rd.shape[:d] + (n,) + rd.shape[d + 1:])
            out.append(BV(np.ascontiguousarray(rd), d))
        return tuple(out)

    def _bulk_map(self, lam, args: List[BV], n: int, env) -> np.ndarray:
        """Run a (single-result, acc-free) lambda as a bulk map over batched
        element arguments; returns the mapped payload with extent ``n`` on
        the current batch axis.  Shared by the redomap fast paths."""
        d = len(self.bstack)
        for p, v in zip(lam.params, args):
            env[p.name] = v
        self.bstack.append(n)
        try:
            (r,) = self.eval_body(lam.body, env)
        finally:
            self.bstack.pop()
        rd = _expand(r, d + 1)
        if rd.shape[d] != n:
            rd = np.broadcast_to(rd, rd.shape[:d] + (n,) + rd.shape[d + 1:])
        return rd

    def _eval_reduce(self, e: Reduce, env) -> Tuple[object, ...]:
        d = len(self.bstack)
        args, n = self._map_args(e.arrs, env)
        op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
        if op is not None:
            data = np.asarray(args[0].data)
            if data.shape[d] == 0:
                ne = self.atom(e.nes[0], env)
                nd = _expand(ne, d)
                shape = data.shape[:d] + data.shape[d + 1:]
                return (BV(np.broadcast_to(nd, shape).copy(), d),)
            red = _UFUNC[op].reduce(data, axis=d)
            if not _ne_is_identity(op, e.nes[0]):
                red = _UFUNC[op](_expand(self.atom(e.nes[0], env), d), red)
            return (BV(red, d),)
        # Fused (redomap-shaped) operator: bulk-map the element function,
        # then reduce with the recognised ufunc — fusion keeps the fast path.
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is not None:
            mop, mlam = rm
            if n == 0:
                ne = self.atom(e.nes[0], env)
                nd = _expand(ne, d)
                bshape = tuple(self.bstack)
                return (BV(np.broadcast_to(nd, bshape + nd.shape[d:]).copy(), d),)
            data = self._bulk_map(mlam, args, n, env)
            red = _UFUNC[mop].reduce(data, axis=d)
            if not _ne_is_identity(mop, e.nes[0]):
                red = _UFUNC[mop](_expand(self.atom(e.nes[0], env), d), red)
            return (BV(red, d),)
        # General fold: sequential over the reduced axis, batched over lanes.
        acc = [self.atom(ne, env) for ne in e.nes]
        for i in range(n):
            elems = [BV(np.take(np.asarray(a.data), i, axis=d), d) for a in args]
            for p, v in zip(e.lam.params, acc + elems):
                env[p.name] = v
            acc = list(self.eval_body(e.lam.body, env))
        return tuple(acc)

    def _eval_scan(self, e: Scan, env) -> Tuple[object, ...]:
        d = len(self.bstack)
        args, n = self._map_args(e.arrs, env)
        op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
        if op is not None:
            data = np.asarray(args[0].data)
            acc = _UFUNC[op].accumulate(data, axis=d)
            if not _ne_is_identity(op, e.nes[0]):
                nd = np.expand_dims(_expand(self.atom(e.nes[0], env), d), axis=d)
                acc = _UFUNC[op](nd, acc)
            return (BV(acc, d),)
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is not None and n > 0:
            mop, mlam = rm
            data = self._bulk_map(mlam, args, n, env)
            acc = _UFUNC[mop].accumulate(data, axis=d)
            if not _ne_is_identity(mop, e.nes[0]):
                nd = np.expand_dims(_expand(self.atom(e.nes[0], env), d), axis=d)
                acc = _UFUNC[mop](nd, acc)
            return (BV(acc, d),)
        acc = [self.atom(ne, env) for ne in e.nes]
        cols: List[List[np.ndarray]] = [[] for _ in e.nes]
        for i in range(n):
            elems = [BV(np.take(np.asarray(a.data), i, axis=d), d) for a in args]
            for p, v in zip(e.lam.params, acc + elems):
                env[p.name] = v
            acc = list(self.eval_body(e.lam.body, env))
            for j, a in enumerate(acc):
                cols[j].append(_expand(a, d))
        outs = []
        for j, col in enumerate(cols):
            if n == 0:
                ne = self.atom(e.nes[j], env)
                dt = np.asarray(ne.data).dtype
                outs.append(BV(np.zeros((0,) * (ne.prank + 1), dtype=dt), 0))
                continue
            shape = np.broadcast_shapes(*[c.shape for c in col])
            col = [np.broadcast_to(c, shape) for c in col]
            outs.append(BV(np.stack(col, axis=d), d))
        return tuple(outs)

    def _eval_hist(self, e: ReduceByIndex, env) -> Tuple[object, ...]:
        d = len(self.bstack)
        m = self._static_int(e.num_bins, env, "histogram size")
        args, n = self._map_args((e.inds,) + e.vals, env)
        inds, vals = args[0], list(args[1:])
        bshape = tuple(self.bstack)
        idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
        valid = (idata >= 0) & (idata < m)
        if self.mask is not None:
            md = _expand(self.mask, d)
            md = np.broadcast_to(
                md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)), valid.shape
            )
            valid = valid & md
        isel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(m - 1, 0)),)
        op = recognize_binop_lambda(e.lam) if len(e.nes) == 1 else None
        if op is not None:
            v = vals[0]
            pe = v.pshape()  # element payload shape (beyond the n axis)
            vdata = np.broadcast_to(np.asarray(v.data), bshape + (n,) + pe)
            dt = vdata.dtype
            ne = self.atom(e.nes[0], env)
            hist = np.ascontiguousarray(
                np.broadcast_to(
                    np.expand_dims(_expand(ne, d), axis=d), bshape + (m,) + pe
                ).astype(dt)
            )
            neutral = _neutral_of(op, dt)
            w = valid.reshape(valid.shape + (1,) * (vdata.ndim - valid.ndim))
            contrib = np.where(w, vdata, neutral)
            _UFUNC[op].at(hist, isel, contrib)
            return (BV(hist, d),)
        # Fused (redomap-shaped) operator: bulk-map the contribution function
        # over the value arrays, then scatter-accumulate with the ufunc.
        rm = recognize_redomap_lambda(e.lam) if len(e.nes) == 1 else None
        if rm is not None:
            mop, mlam = rm
            data = self._bulk_map(mlam, vals, n, env)
            pe = data.shape[d + 1:]
            dt = data.dtype
            ne = self.atom(e.nes[0], env)
            hist = np.ascontiguousarray(
                np.broadcast_to(
                    np.expand_dims(_expand(ne, d), axis=d), bshape + (m,) + pe
                ).astype(dt)
            )
            neutral = _neutral_of(mop, dt)
            vdata = np.broadcast_to(data, bshape + (n,) + pe)
            w = valid.reshape(valid.shape + (1,) * (vdata.ndim - valid.ndim))
            contrib = np.where(w, vdata, neutral)
            _UFUNC[mop].at(hist, isel, contrib)
            return (BV(hist, d),)
        # General path: sequential over elements, batched over lanes.
        hists = []
        for ne, v in zip(e.nes, vals):
            nev = self.atom(ne, env)
            pshape = v.pshape()
            dt = np.asarray(v.data).dtype
            h = np.broadcast_to(
                np.expand_dims(_expand(nev, d), axis=d),
                bshape + (m,) + pshape,
            ).astype(dt)
            hists.append(np.ascontiguousarray(h))
        gsel = _grids(bshape)
        for i in range(n):
            b = idata[..., i]
            vi = valid[..., i]
            s = gsel + (np.clip(b, 0, max(m - 1, 0)),)
            cur = [BV(h[s], d) for h in hists]
            elems = [BV(np.take(np.asarray(v.data), i, axis=d), d) for v in vals]
            for p, val in zip(e.lam.params, cur + elems):
                env[p.name] = val
            new = self.eval_body(e.lam.body, env)
            for h, nv in zip(hists, new):
                nd = _expand(nv, d)
                old = h[s]
                w = vi.reshape(vi.shape + (1,) * (old.ndim - vi.ndim))
                h[s] = np.where(w, np.broadcast_to(nd, old.shape), old)
        return tuple(BV(h, d) for h in hists)

    def _eval_scatter(self, e: Scatter, env) -> BV:
        d = len(self.bstack)
        dest = self.atom(e.dest, env)
        args, n = self._map_args((e.inds, e.vals), env)
        inds, vals = args
        bshape = tuple(self.bstack)
        dd = _expand(dest, d)
        dd = np.broadcast_to(dd, bshape + dd.shape[d:]).copy()
        ln = dd.shape[d]
        idata = np.broadcast_to(np.asarray(inds.data), bshape + (n,))
        pe = vals.pshape()
        vdata = np.broadcast_to(np.asarray(vals.data), bshape + (n,) + pe)
        valid = (idata >= 0) & (idata < ln)
        if self.mask is not None:
            md = _expand(self.mask, d)
            md = np.broadcast_to(
                md.reshape(md.shape + (1,) * (valid.ndim - md.ndim)), valid.shape
            )
            valid = valid & md
        sel = _grids(bshape, extra=1) + (np.clip(idata, 0, max(ln - 1, 0)),)
        old = dd[sel]
        w = valid.reshape(valid.shape + (1,) * (old.ndim - valid.ndim))
        dd[sel] = np.where(w, np.broadcast_to(vdata, old.shape), old)
        return BV(dd, d)

    # -- control flow ----------------------------------------------------------------------

    def _eval_if(self, e: If, env) -> Tuple[object, ...]:
        c = self.atom(e.cond, env)
        cd = np.asarray(c.data)
        if cd.size == 1 and self.mask is None:
            branch = e.then if bool(cd.reshape(-1)[0]) else e.els
            return self.eval_body(branch, env)
        saved = self.mask
        notc = BV(np.logical_not(cd), c.bdims)
        self.mask = self._combine_mask(saved, c)
        tvals = self.eval_body(e.then, env)
        self.mask = self._combine_mask(saved, notc)
        fvals = self.eval_body(e.els, env)
        self.mask = saved
        return tuple(self._where(c, t, f) for t, f in zip(tvals, fvals))

    def _eval_loop(self, e: Loop, env) -> Tuple[object, ...]:
        nv = self.atom(e.n, env)
        nd = np.asarray(nv.data)
        nmax = 0 if nd.size == 0 else int(nd.max())
        state = [self.atom(i, env) for i in e.inits]
        uniform = nd.size == 1 or (nd.size > 0 and nd.min() == nd.max())
        saved = self.mask
        for i in range(nmax):
            env[e.ivar.name] = BV(np.asarray(np.int64(i)), 0)
            if not uniform:
                active = BV(i < nd, nv.bdims)
                self.mask = self._combine_mask(saved, active)
            for p, v in zip(e.params, state):
                env[p.name] = v
            new = list(self.eval_body(e.body, env))
            if uniform:
                state = new
            else:
                active = BV(i < nd, nv.bdims)
                state = [
                    s2 if isinstance(s2, AccBV) else self._where(active, s2, s)
                    for s, s2 in zip(state, new)
                ]
                self.mask = saved
        self.mask = saved
        return tuple(state)

    def _eval_while(self, e: WhileLoop, env) -> Tuple[object, ...]:
        state = [self.atom(i, env) for i in e.inits]
        saved = self.mask
        limit = _values.WHILE_FUEL
        fuel = limit
        while True:
            for p, v in zip(e.cond.params, state):
                env[p.name] = v
            (c,) = self.eval_body(e.cond.body, env)
            active = self._combine_mask(saved, c)
            if not np.any(np.asarray(active.data)):
                break
            self.mask = active
            for p, v in zip(e.params, state):
                env[p.name] = v
            new = list(self.eval_body(e.body, env))
            state = [
                s2 if isinstance(s2, AccBV) else self._where(active, s2, s)
                for s, s2 in zip(state, new)
            ]
            self.mask = saved
            fuel -= 1
            if fuel <= 0:
                raise ExecError(
                    f"while loop exceeded iteration fuel ({limit} iterations)"
                )
        self.mask = saved
        return tuple(state)

    # -- accumulators -------------------------------------------------------------------------

    def _eval_withacc(self, e: WithAcc, env) -> Tuple[object, ...]:
        d = len(self.bstack)
        bshape = tuple(self.bstack)
        accs = []
        for a in e.arrs:
            v = self.atom(a, env)
            ad = _expand(v, d)
            ad = np.broadcast_to(ad, bshape + ad.shape[d:]).copy()
            accs.append(AccBV(ad, d))
        for p, acc in zip(e.lam.params, accs):
            env[p.name] = acc
        res = self.eval_body(e.lam.body, env)
        out: List[object] = []
        for r in res[: len(accs)]:
            if not isinstance(r, AccBV):
                raise ExecError("withacc: lambda must return its accumulators")
            out.append(BV(r.data, r.bdims))
        out.extend(res[len(accs):])
        return tuple(out)

    def _eval_updacc(self, e: UpdAcc, env) -> AccBV:
        acc = self.atom(e.acc, env)
        if not isinstance(acc, AccBV):
            raise ExecError("upd: operand is not an accumulator")
        v = self.atom(e.v, env)
        idxs = [self.atom(i, env) for i in e.idx]
        k = max([v.bdims, acc.bdims] + [i.bdims for i in idxs])
        if self.mask is not None:
            k = max(k, self.mask.bdims)
        bshape = tuple(self.bstack[:k])
        vd = _expand(v, k)
        vd = np.broadcast_to(vd, bshape + vd.shape[k:])
        vd = self._mask_where(vd, k, np.zeros((), dtype=vd.dtype))
        if not idxs:
            # Whole-array add: contributions from deeper batch levels sum.
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


def run_fun_vec(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    """Evaluate ``fun`` with the vectorised backend."""
    return VecInterp().run(fun, args)


def run_fun_vec_batched(
    fun: Fun,
    args: Sequence[object],
    batched: Sequence[bool],
    batch_size: int,
) -> Tuple[object, ...]:
    """Evaluate ``fun`` once with selected arguments batched.

    Arguments flagged in ``batched`` carry one extra leading axis of extent
    ``batch_size`` (e.g. a stack of AD seed vectors); the others are shared
    across the batch.  Execution enters the interpreter with one pre-pushed
    batch level — exactly the state of evaluating a ``map`` over the batch —
    so every statement runs as a single bulk NumPy op over all batch members.
    Every result is returned with a leading ``batch_size`` axis.

    This is the batched-seed driver behind ``jacobian``: all n/m basis
    seeds evaluate in one interpreter pass instead of n/m separate runs.
    """
    if len(args) != len(fun.params):
        raise ExecError(
            f"{fun.name}: expected {len(fun.params)} arguments, got {len(args)}"
        )
    if len(batched) != len(args):
        raise ExecError("run_fun_vec_batched: batched flags must match arguments")
    interp = VecInterp()
    b = int(batch_size)
    interp.bstack.append(b)
    env: Dict[str, object] = {}
    for p, a, flag in zip(fun.params, args, batched):
        if flag:
            arr = np.asarray(a)
            if arr.ndim == 0 or arr.shape[0] != b:
                raise ExecError(
                    f"batched argument {p.name}: leading axis {arr.shape[:1]} "
                    f"does not match batch size {b}"
                )
            env[p.name] = BV(np.ascontiguousarray(arr, dtype=np_dtype(p.type)), 1)
        else:
            env[p.name] = BV(np.asarray(coerce_arg(a, p.type)), 0)
    with np.errstate(all="ignore"):
        res = interp.eval_body(fun.body, env)
    out = []
    for r in res:
        if isinstance(r, AccBV):
            raise ExecError("accumulator escaped to top level")
        d = _expand(r, 1)
        out.append(np.ascontiguousarray(np.broadcast_to(d, (b,) + d.shape[1:])))
    return tuple(out)
