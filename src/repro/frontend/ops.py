"""User-facing array combinators (the surface language).

These functions are the Python spellings of the IR's SOACs and control flow;
each one traces its function arguments into IR lambdas and emits a statement
into the enclosing trace.  They are re-exported at the package root, so user
code reads::

    import repro as rp

    def cost(points, centres):
        return rp.sum(rp.map(lambda p: ..., points))
"""
from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from ..ir.ast import (
    Concat,
    Iota,
    Lambda,
    Replicate,
    Reverse,
    Select,
    Size,
    Update,
    Var,
    ZerosLike,
)
from ..ir.types import (
    BOOL,
    I64,
    Scalar,
    elem_type,
    is_float,
    rank_of,
    with_rank,
)
from ..util import IRError, fresh
from .trace import TVal, cur_builder, lift, scope

__all__ = [
    "map_",
    "reduce_",
    "scan_",
    "reduce_by_index",
    "scatter",
    "gather",
    "iota",
    "replicate",
    "size",
    "zeros_like",
    "reverse",
    "concat",
    "update",
    "fori_loop",
    "while_loop",
    "cond",
    "where",
    "minimum",
    "maximum",
    "astype",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "erf",
    "floor",
    "sign",
    "abs_",
    "sum_",
    "prod_",
    "min_",
    "max_",
    "dot",
    "matmul",
    "transpose",
]


def _as_tvals(xs) -> List[TVal]:
    return [lift(x) for x in xs]


def _arr_var(x: TVal, what: str) -> Var:
    if x.rank == 0:
        raise IRError(f"{what}: expected an array, got a scalar")
    a = x.atom
    if not isinstance(a, Var):
        raise IRError(f"{what}: expected an array variable")
    return a


def _pack(vals: Sequence[TVal]):
    return vals[0] if len(vals) == 1 else tuple(vals)


# ---------------------------------------------------------------------------
# SOACs
# ---------------------------------------------------------------------------


def map_(f: Callable, *arrs) -> Union[TVal, Tuple[TVal, ...]]:
    """``map f xs [ys ...]`` — apply ``f`` elementwise; variadic and
    multi-result (``f`` may return a tuple).  Free variables in ``f`` are
    closed over, exactly like the paper's lambdas."""
    if not arrs:
        raise IRError("map: needs at least one array")
    ts = _as_tvals(arrs)
    avars = [_arr_var(t, "map") for t in ts]
    params = tuple(
        Var(fresh("x"), with_rank(elem_type(v.type), rank_of(v.type) - 1))
        for v in avars
    )
    with scope() as b:
        out = f(*[TVal(p) for p in params])
        outs = out if isinstance(out, (tuple, list)) else (out,)
        body = b.finish(tuple(lift(o).atom for o in outs))
    vs = cur_builder().map(Lambda(params, body), avars, names=["m"] * len(body.result))
    return _pack([TVal(v) for v in vs])


def _binop_lambda(op_f: Callable, nes: Sequence, elems: Sequence[Scalar]) -> Tuple[Lambda, Tuple]:
    """Trace a k-ary associative operator ``op_f(*accs, *xs) -> k results``."""
    k = len(elems)
    accs = tuple(Var(fresh("a"), t) for t in elems)
    xs = tuple(Var(fresh("b"), t) for t in elems)
    with scope() as b:
        out = op_f(*[TVal(v) for v in accs + xs])
        outs = out if isinstance(out, (tuple, list)) else (out,)
        if len(outs) != k:
            raise IRError(f"operator must return {k} values, got {len(outs)}")
        res = []
        for o, t in zip(outs, elems):
            ov = lift(o, like=TVal(accs[0]) if is_float(t) else None)
            res.append(ov.atom)
        body = b.finish(tuple(res))
    ne_atoms = tuple(
        lift(ne, like=TVal(Var("_", t)) if is_float(t) else None, ty=t if not is_float(t) else None).atom
        for ne, t in zip(nes, elems)
    )
    return Lambda(accs + xs, body), ne_atoms


def _soac_args(op: Callable, ne, arrs, what: str):
    ts = _as_tvals(arrs)
    avars = [_arr_var(t, what) for t in ts]
    for v in avars:
        if rank_of(v.type) != 1:
            raise IRError(f"{what}: operands must be rank-1 (element type scalar)")
    elems = [elem_type(v.type) for v in avars]
    nes = ne if isinstance(ne, (tuple, list)) else (ne,)
    if len(nes) != len(avars):
        raise IRError(f"{what}: {len(avars)} arrays need {len(avars)} neutral elements")
    lam, ne_atoms = _binop_lambda(op, nes, elems)
    return lam, ne_atoms, avars


def reduce_(op: Callable, ne, *arrs) -> Union[TVal, Tuple[TVal, ...]]:
    """``reduce op ne xs`` with an associative ``op``.

    For ``k`` arrays, ``op`` receives ``2k`` scalars ``(a1..ak, b1..bk)`` and
    returns ``k`` — the tuple-reduction form used e.g. for argmin."""
    lam, ne_atoms, avars = _soac_args(op, ne, arrs, "reduce")
    vs = cur_builder().reduce(lam, ne_atoms, avars, names=["r"] * len(ne_atoms))
    return _pack([TVal(v) for v in vs])


def scan_(op: Callable, ne, *arrs) -> Union[TVal, Tuple[TVal, ...]]:
    """Inclusive prefix scan with an associative ``op`` (see ``reduce_``)."""
    lam, ne_atoms, avars = _soac_args(op, ne, arrs, "scan")
    vs = cur_builder().scan(lam, ne_atoms, avars, names=["s"] * len(ne_atoms))
    return _pack([TVal(v) for v in vs])


def reduce_by_index(num_bins, op: Callable, ne, inds, *vals) -> Union[TVal, Tuple[TVal, ...]]:
    """Generalised histogram: fold values landing in the same bin with ``op``
    (associative & commutative).  Out-of-range indices are ignored."""
    lam, ne_atoms, avars = _soac_args(op, ne, vals, "reduce_by_index")
    iv = _arr_var(lift(inds), "reduce_by_index")
    nb = lift(num_bins, ty=I64).atom
    vs = cur_builder().reduce_by_index(nb, lam, ne_atoms, iv, avars, names=["h"] * len(ne_atoms))
    return _pack([TVal(v) for v in vs])


def scatter(dest, inds, vals) -> TVal:
    """Bulk in-place update; consumes ``dest`` (functional copy semantics in
    the executors).  Indices must not contain duplicates."""
    d = _arr_var(lift(dest), "scatter")
    i = _arr_var(lift(inds), "scatter")
    v = _arr_var(lift(vals), "scatter")
    return TVal(cur_builder().scatter(d, i, v))


def gather(arr, inds) -> TVal:
    """``map (i -> arr[i]) inds``."""
    a = _arr_var(lift(arr), "gather")
    i = _arr_var(lift(inds), "gather")
    return TVal(cur_builder().gather(a, i))


# ---------------------------------------------------------------------------
# Array constructors / utilities
# ---------------------------------------------------------------------------


def iota(n, dtype: Scalar = I64) -> TVal:
    return TVal(cur_builder().emit1(Iota(lift(n, ty=I64).atom, dtype), "is"))


def replicate(n, v) -> TVal:
    return TVal(cur_builder().emit1(Replicate(lift(n, ty=I64).atom, lift(v).atom), "r"))


def size(arr, dim: int = 0) -> TVal:
    return TVal(cur_builder().emit1(Size(_arr_var(lift(arr), "size"), dim), "n"))


def zeros_like(x) -> TVal:
    return TVal(cur_builder().emit1(ZerosLike(lift(x).atom), "z"))


def reverse(x) -> TVal:
    return TVal(cur_builder().emit1(Reverse(_arr_var(lift(x), "reverse")), "rev"))


def concat(x, y) -> TVal:
    return TVal(
        cur_builder().emit1(
            Concat(_arr_var(lift(x), "concat"), _arr_var(lift(y), "concat")), "cat"
        )
    )


def update(arr, idx, v) -> TVal:
    """``arr with [idx] <- v`` — functional in-place update."""
    a = _arr_var(lift(arr), "update")
    idx = idx if isinstance(idx, (tuple, list)) else (idx,)
    ia = tuple(lift(i, ty=I64).atom for i in idx)
    va = lift(v, like=lift(arr) if is_float(elem_type(a.type)) else None).atom
    return TVal(cur_builder().emit1(Update(a, ia, va), a.name))


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


def _trace_state_body(body_out, b, state_types) -> Tuple:
    outs = body_out if isinstance(body_out, (tuple, list)) else (body_out,)
    if len(outs) != len(state_types):
        raise IRError(
            f"loop body must return {len(state_types)} state values, got {len(outs)}"
        )
    res = []
    for o, t in zip(outs, state_types):
        ov = lift(o)
        if ov.atom.type != t:
            raise IRError(
                f"loop body state type changed: {ov.atom.type} != {t} "
                f"(loop-variant values must keep their type/rank)"
            )
        res.append(ov.atom)
    return b.finish(tuple(res))


def fori_loop(n, body_fn: Callable, init, *, stripmine: int = 0):
    """``loop (state = init) for i < n do body_fn(i, *state)``.

    ``stripmine=f`` strip-mines the loop by the factor ``f`` before reverse
    AD (the paper's §4.3 time–space knob; 0 and 1 mean off); any other value
    raises ``TypeError_`` here.  Reverse AD checkpoints the state every
    iteration, except an array it proves is only written at ``i + c_w`` and
    read at ``i + c_r`` with ``c_r < c_w`` (§6.2): that one is restored from
    the loop's final value (``ir.analysis.entry_params``).
    """
    inits = init if isinstance(init, (tuple, list)) else (init,)
    in_tv = _as_tvals(inits)
    params = tuple(Var(fresh("p"), t.atom.type) for t in in_tv)
    ivar = Var(fresh("i"), I64)
    with scope() as b:
        out = body_fn(TVal(ivar), *[TVal(p) for p in params])
        body = _trace_state_body(out, b, [p.type for p in params])
    vs = cur_builder().loop(
        params,
        tuple(t.atom for t in in_tv),
        ivar,
        lift(n, ty=I64).atom,
        body,
        stripmine=stripmine,
    )
    return _pack([TVal(v) for v in vs])


def while_loop(cond_fn: Callable, body_fn: Callable, init, *, bound=None):
    """``loop (state = init) while cond_fn(*state) do body_fn(*state)``.

    Reverse AD of a while loop needs ``bound`` (a static iteration bound) —
    the ``while_bound`` pass turns it into a guarded for-loop (§6.2).
    """
    inits = init if isinstance(init, (tuple, list)) else (init,)
    in_tv = _as_tvals(inits)
    params = tuple(Var(fresh("p"), t.atom.type) for t in in_tv)
    with scope() as cb:
        c = cond_fn(*[TVal(p) for p in params])
        cbody = cb.finish((lift(c).atom,))
    cond_lam = Lambda(params, cbody)
    with scope() as b:
        out = body_fn(*[TVal(p) for p in params])
        body = _trace_state_body(out, b, [p.type for p in params])
    vs = cur_builder().while_loop(
        params, tuple(t.atom for t in in_tv), cond_lam, body,
        bound=None if bound is None else lift(bound, ty=I64).atom,
    )
    return _pack([TVal(v) for v in vs])


def cond(pred, then_fn: Callable, else_fn: Callable):
    """``if pred then then_fn() else else_fn()`` — branches are thunks that
    close over traced values; both must return the same shape of results."""
    p = lift(pred)
    if p.dtype is not BOOL or p.rank != 0:
        raise IRError("cond: predicate must be a boolean scalar")
    with scope() as tb:
        t_out = then_fn()
        touts = t_out if isinstance(t_out, (tuple, list)) else (t_out,)
        t_tv = _as_tvals(touts)
        then = tb.finish(tuple(t.atom for t in t_tv))
    with scope() as fb:
        f_out = else_fn()
        fouts = f_out if isinstance(f_out, (tuple, list)) else (f_out,)
        f_tv = []
        for fo, t in zip(fouts, t_tv):
            f_tv.append(lift(fo, like=t if is_float(t.dtype) else None))
        els = fb.finish(tuple(f.atom for f in f_tv))
    if len(touts) != len(fouts):
        raise IRError("cond: branches return different numbers of values")
    vs = cur_builder().if_(p.atom, then, els, names=["c"] * len(then.result))
    return _pack([TVal(v) for v in vs])


# ---------------------------------------------------------------------------
# Scalar math
# ---------------------------------------------------------------------------


def where(c, t, f) -> TVal:
    tl = lift(t)
    return TVal(
        cur_builder().emit1(
            Select(lift(c).atom, tl.atom, lift(f, like=tl if is_float(tl.dtype) else None).atom), "w"
        )
    )


def minimum(x, y) -> TVal:
    xl = lift(x)
    return xl._bin("min", y)


def maximum(x, y) -> TVal:
    xl = lift(x)
    return xl._bin("max", y)


def astype(x, dtype: Scalar) -> TVal:
    return TVal(cur_builder().cast(lift(x).atom, dtype))


def _unop(name: str):
    def f(x) -> TVal:
        return TVal(cur_builder().unop(name, lift(x).atom))

    f.__name__ = name
    f.__doc__ = f"Elementwise ``{name}``."
    return f


sin = _unop("sin")
cos = _unop("cos")
tan = _unop("tan")
exp = _unop("exp")
log = _unop("log")
sqrt = _unop("sqrt")
tanh = _unop("tanh")
sigmoid = _unop("sigmoid")
erf = _unop("erf")
floor = _unop("floor")
sign = _unop("sgn")
abs_ = _unop("abs")


# ---------------------------------------------------------------------------
# Sugar (library functions written in the surface language)
# ---------------------------------------------------------------------------


def sum_(xs) -> TVal:
    """``reduce (+) 0 xs``."""
    return reduce_(lambda a, b: a + b, 0.0 if is_float(lift(xs).dtype) else 0, xs)


def prod_(xs) -> TVal:
    return reduce_(lambda a, b: a * b, 1.0 if is_float(lift(xs).dtype) else 1, xs)


def min_(xs) -> TVal:
    return reduce_(lambda a, b: minimum(a, b), np.inf, xs)


def max_(xs) -> TVal:
    return reduce_(lambda a, b: maximum(a, b), -np.inf, xs)


def dot(xs, ys) -> TVal:
    """``sum (map2 (*) xs ys)``."""
    return sum_(map_(lambda x, y: x * y, xs, ys))


def matmul(a, b) -> TVal:
    """Dense matrix product written with nested maps — its reverse AD
    produces exactly the accumulator pattern that §6.1's optimisation turns
    back into two matmul-shaped map-reduce kernels."""
    al = lift(a)
    bl = lift(b)
    if al.rank != 2 or bl.rank != 2:
        raise IRError("matmul: operands must be rank-2")
    ncols = size(bl, dim=1)
    k = size(bl, dim=0)

    def row(arow):
        def entry(j):
            return sum_(map_(lambda kk: arow[kk] * bl[kk, j], iota(k)))

        return map_(entry, iota(ncols))

    return map_(row, al)


def transpose(a) -> TVal:
    """Transpose a rank-2 array via gathers (no dedicated IR construct)."""
    al = lift(a)
    if al.rank != 2:
        raise IRError("transpose: operand must be rank-2")
    nrows = size(al, dim=0)
    ncols = size(al, dim=1)
    return map_(lambda j: map_(lambda i: al[i, j], iota(nrows)), iota(ncols))
