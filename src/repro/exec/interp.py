"""Reference interpreter.

A direct, recursive evaluator over the IR: Python loops for SOACs, copy-on-
write for ``Update``/``Scatter``, mutable ``AccVal`` buffers for accumulators.
It is the semantics oracle for every other component (the vectorised
interpreter and both AD transforms are tested against it), and it drives the
cost model via ``CostRecorder`` hooks.
"""
from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    Lambda,
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
    Stm,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
)
from ..ir.types import np_dtype, rank_of
from ..util import ExecError
from .cost import CostRecorder, NullRecorder
from . import values as _values
from .prims import apply_binop, apply_unop, cast_to
from .values import AccVal, coerce_arg, scalar_value, zeros_of

__all__ = ["RefInterp", "run_fun"]

Env = Dict[str, object]


def _size(v) -> int:
    return int(np.asarray(v).size)


class RefInterp:
    """Reference evaluator; one instance per call (not reentrant)."""

    def __init__(self, recorder: Optional[CostRecorder] = None) -> None:
        self.rec = recorder if recorder is not None else NullRecorder()

    # -- entry point ---------------------------------------------------------

    def run(self, fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
        if len(args) != len(fun.params):
            raise ExecError(
                f"{fun.name}: expected {len(fun.params)} arguments, got {len(args)}"
            )
        env: Env = {}
        for p, a in zip(fun.params, args):
            env[p.name] = coerce_arg(a, p.type)
        with np.errstate(all="ignore"):
            return self.eval_body(fun.body, env)

    # -- core ------------------------------------------------------------------

    def atom(self, a: Atom, env: Env):
        if isinstance(a, Var):
            try:
                return env[a.name]
            except KeyError:
                raise ExecError(f"unbound variable {a.name}") from None
        return np_dtype(a.type)(a.value)

    def eval_body(self, body: Body, env: Env) -> Tuple[object, ...]:
        for stm in body.stms:
            self.eval_stm(stm, env)
        return tuple(self.atom(a, env) for a in body.result)

    def eval_stm(self, stm: Stm, env: Env) -> None:
        vals = self.eval_exp(stm.exp, env)
        if len(vals) != len(stm.pat):
            raise ExecError(
                f"statement binds {len(stm.pat)} vars, got {len(vals)} values"
            )
        for v, val in zip(stm.pat, vals):
            env[v.name] = val

    def index(self, idx: Sequence[Atom], env: Env, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """The index operands of an ``Index`` / ``Update`` / ``UpdAcc`` into an
        array of ``shape``: a negative or too-large one is an error, not a
        wrap-around (the plan family clips instead; no program may rely on
        either)."""
        out = tuple(int(scalar_value(self.atom(i, env))) for i in idx)
        if len(out) > len(shape) or not all(0 <= i < n for i, n in zip(out, shape)):
            raise ExecError(f"index {out} out of bounds for shape {tuple(shape)}")
        return out

    def apply_lambda(self, lam: Lambda, args: Sequence[object], env: Env):
        # Lexical closure: lambda bodies see the enclosing environment.  All
        # generated names are unique, so a flat environment is safe.
        for p, a in zip(lam.params, args):
            env[p.name] = a
        return self.eval_body(lam.body, env)

    # -- expressions -----------------------------------------------------------

    def eval_exp(self, e: Exp, env: Env) -> Tuple[object, ...]:
        rec = self.rec

        if isinstance(e, AtomExp):
            return (self.atom(e.x, env),)

        if isinstance(e, UnOp):
            x = self.atom(e.x, env)
            n = _size(x)
            rec.op(n)
            if n > 1:
                rec.mem(reads=n, writes=n)
            return (apply_unop(e.op, x),)

        if isinstance(e, BinOp):
            x = self.atom(e.x, env)
            y = self.atom(e.y, env)
            n = max(_size(x), _size(y))
            rec.op(n)
            if n > 1:
                rec.mem(reads=_size(x) + _size(y), writes=n)
            return (apply_binop(e.op, x, y),)

        if isinstance(e, Select):
            c = self.atom(e.c, env)
            t = self.atom(e.t, env)
            f = self.atom(e.f, env)
            n = max(_size(c), _size(t), _size(f))
            rec.op(n)
            return (np.where(c, t, f) if n > 1 or np.asarray(c).ndim else (t if c else f),)

        if isinstance(e, Cast):
            x = self.atom(e.x, env)
            rec.op(_size(x))
            v = cast_to(x, np_dtype(e.to))
            return (v if v.ndim else v[()],)

        if isinstance(e, Index):
            arr = self.atom(e.arr, env)
            v = arr[self.index(e.idx, env, arr.shape)]
            rec.mem(reads=_size(v))
            return (v,)

        if isinstance(e, Update):
            arr = self.atom(e.arr, env)
            idx = self.index(e.idx, env, np.shape(arr))
            val = self.atom(e.val, env)
            out = np.array(arr)  # copy-on-write functional semantics
            out[idx] = val
            rec.mem(writes=_size(val))
            return (out,)

        if isinstance(e, Iota):
            n = int(scalar_value(self.atom(e.n, env)))
            rec.mem(writes=n)
            return (np.arange(n, dtype=np_dtype(e.elem)),)

        if isinstance(e, Replicate):
            n = int(scalar_value(self.atom(e.n, env)))
            v = np.asarray(self.atom(e.v, env))
            out = np.broadcast_to(v, (n,) + v.shape).copy()
            rec.mem(writes=out.size)
            return (out,)

        if isinstance(e, ZerosLike):
            x = self.atom(e.x, env)
            return (zeros_of(x),)

        if isinstance(e, ScratchLike):
            n = int(scalar_value(self.atom(e.n, env)))
            x = np.asarray(self.atom(e.x, env))
            out = np.zeros((n,) + x.shape, dtype=x.dtype)
            rec.alloc(out.size)
            return (out,)

        if isinstance(e, Size):
            arr = self.atom(e.arr, env)
            if isinstance(arr, AccVal):
                return (np.int64(arr.buf.shape[e.dim]),)
            return (np.int64(np.asarray(arr).shape[e.dim]),)

        if isinstance(e, Reverse):
            arr = self.atom(e.x, env)
            rec.mem(reads=_size(arr), writes=_size(arr))
            return (np.asarray(arr)[::-1].copy(),)

        if isinstance(e, Concat):
            x = np.asarray(self.atom(e.x, env))
            y = np.asarray(self.atom(e.y, env))
            rec.mem(reads=x.size + y.size, writes=x.size + y.size)
            return (np.concatenate([x, y], axis=0),)

        if isinstance(e, Map):
            return self._eval_map(e, env)

        if isinstance(e, Reduce):
            return self._eval_reduce(e, env)

        if isinstance(e, Scan):
            return self._eval_scan(e, env)

        if isinstance(e, ReduceByIndex):
            return self._eval_hist(e, env)

        if isinstance(e, Scatter):
            dest = np.array(self.atom(e.dest, env))  # functional copy
            inds = np.asarray(self.atom(e.inds, env))
            vals = np.asarray(self.atom(e.vals, env))
            ok = (inds >= 0) & (inds < dest.shape[0])
            dest[inds[ok]] = vals[ok]
            rec.mem(reads=int(vals[ok].size), writes=int(vals[ok].size))
            return (dest,)

        if isinstance(e, Loop):
            return self._eval_loop(e, env)

        if isinstance(e, WhileLoop):
            return self._eval_while(e, env)

        if isinstance(e, If):
            c = bool(scalar_value(self.atom(e.cond, env)))
            rec.op(1)
            return self.eval_body(e.then if c else e.els, env)

        if isinstance(e, WithAcc):
            arrs = [np.array(self.atom(a, env)) for a in e.arrs]  # one copy each
            accs = [AccVal(a) for a in arrs]
            res = self.apply_lambda(e.lam, accs, env)
            out: List[object] = []
            for i, a in enumerate(res[: len(accs)]):
                if not isinstance(a, AccVal):
                    raise ExecError("withacc: lambda must return its accumulators")
                out.append(a.buf)
            out.extend(res[len(accs):])
            return tuple(out)

        if isinstance(e, UpdAcc):
            acc = self.atom(e.acc, env)
            if not isinstance(acc, AccVal):
                raise ExecError("upd: operand is not an accumulator")
            idx = self.index(e.idx, env, acc.buf.shape)
            v = self.atom(e.v, env)
            rec.op(_size(v))
            rec.mem(reads=_size(v), writes=_size(v))  # atomic RMW
            if idx:
                acc.buf[idx] += v
            else:
                acc.buf += v
            return (acc,)

        raise ExecError(f"eval_exp: unknown expression {type(e).__name__}")

    # -- SOACs -------------------------------------------------------------------

    def _map_len(self, arrs: Sequence[np.ndarray]) -> int:
        n = len(arrs[0])
        for a in arrs[1:]:
            if len(a) != n:
                raise ExecError(f"map: array length mismatch {n} vs {len(a)}")
        return n

    def _eval_map(self, e: Map, env: Env) -> Tuple[object, ...]:
        arrs = [np.asarray(self.atom(a, env)) for a in e.arrs]
        accs = [self.atom(a, env) for a in e.accs]
        n = self._map_len(arrs)
        rec = self.rec
        rec.mem(reads=sum(a.size for a in arrs))
        rec.push("par", n)
        rows: List[Tuple[object, ...]] = []
        for i in range(n):
            rec.iter_begin()
            res = self.apply_lambda(e.lam, [a[i] for a in arrs] + accs, env)
            accs = list(res[: len(accs)])
            rows.append(res[len(e.accs):])
            rec.iter_end()
        rec.pop()
        out: List[object] = list(accs)
        k = len(e.lam.body.result) - len(e.accs)
        for j in range(k):
            if n:
                col = np.stack([np.asarray(r[j]) for r in rows])
            else:
                # No element computes the extents of an array-valued result.
                r = e.lam.body.result[len(e.accs) + j]
                if rank_of(r.type):
                    raise ExecError(
                        f"map over zero elements: the extents of its per-element "
                        f"result {r} ({r.type}) are unknown")
                col = np.zeros((0,), dtype=np_dtype(r.type))
            rec.mem(writes=col.size)
            out.append(col)
        return tuple(out)

    def _eval_reduce(self, e: Reduce, env: Env) -> Tuple[object, ...]:
        arrs = [np.asarray(self.atom(a, env)) for a in e.arrs]
        n = self._map_len(arrs)
        rec = self.rec
        rec.mem(reads=sum(a.size for a in arrs))
        acc = [self.atom(ne, env) for ne in e.nes]
        rec.push("red", n)
        for i in range(n):
            rec.iter_begin()
            acc = list(self.apply_lambda(e.lam, acc + [a[i] for a in arrs], env))
            rec.iter_end()
        rec.pop()
        return tuple(acc)

    def _eval_scan(self, e: Scan, env: Env) -> Tuple[object, ...]:
        arrs = [np.asarray(self.atom(a, env)) for a in e.arrs]
        n = self._map_len(arrs)
        rec = self.rec
        rec.mem(reads=sum(a.size for a in arrs))
        acc = [self.atom(ne, env) for ne in e.nes]
        outs: List[List[object]] = [[] for _ in e.nes]
        rec.push("red", n)  # work-depth model: O(n) work, O(log n) depth
        for i in range(n):
            rec.iter_begin()
            acc = list(self.apply_lambda(e.lam, acc + [a[i] for a in arrs], env))
            for j, v in enumerate(acc):
                outs[j].append(v)
            rec.iter_end()
        rec.pop()
        res = []
        for j, col in enumerate(outs):
            if n:
                res.append(np.stack([np.asarray(v) for v in col]))
            else:  # each element of the neutral element's extents
                res.append(np.zeros((0,) + np.shape(acc[j]), dtype=np_dtype(e.nes[j].type)))
        rec.mem(writes=sum(int(np.asarray(r).size) for r in res))
        return tuple(res)

    def _eval_hist(self, e: ReduceByIndex, env: Env) -> Tuple[object, ...]:
        m = int(scalar_value(self.atom(e.num_bins, env)))
        inds = np.asarray(self.atom(e.inds, env))
        vals = [np.asarray(self.atom(v, env)) for v in e.arrs]
        n = self._map_len([inds] + vals)
        rec = self.rec
        rec.mem(reads=inds.size + sum(v.size for v in vals))
        nes = [self.atom(ne, env) for ne in e.nes]
        hists = [
            np.broadcast_to(np.asarray(ne), (m,) + np.asarray(ne).shape).copy()
            for ne in nes
        ]
        rec.push("par", n)
        for i in range(n):
            rec.iter_begin()
            b = int(inds[i])
            if 0 <= b < m:
                cur = [h[b] for h in hists]
                new = self.apply_lambda(e.lam, cur + [v[i] for v in vals], env)
                for h, v in zip(hists, new):
                    h[b] = v
                rec.mem(reads=len(hists), writes=len(hists))
            rec.iter_end()
        rec.pop()
        return tuple(hists)

    # -- loops -------------------------------------------------------------------

    def _eval_loop(self, e: Loop, env: Env) -> Tuple[object, ...]:
        n = int(scalar_value(self.atom(e.n, env)))
        state = [self.atom(i, env) for i in e.inits]
        rec = self.rec
        rec.push("seq")
        ity = np_dtype(e.ivar.type)
        for i in range(n):
            mark = rec.alloc_mark()
            env[e.ivar.name] = ity(i)
            for p, v in zip(e.params, state):
                env[p.name] = v
            state = list(self.eval_body(e.body, env))
            rec.alloc_release(mark)
        rec.pop()
        return tuple(state)

    def _eval_while(self, e: WhileLoop, env: Env) -> Tuple[object, ...]:
        state = [self.atom(i, env) for i in e.inits]
        rec = self.rec
        rec.push("seq")
        limit = _values.WHILE_FUEL
        fuel = limit
        while True:
            for p, v in zip(e.cond.params, state):
                env[p.name] = v
            (c,) = self.eval_body(e.cond.body, env)
            if not bool(scalar_value(c)):
                break
            for p, v in zip(e.params, state):
                env[p.name] = v
            state = list(self.eval_body(e.body, env))
            fuel -= 1
            if fuel <= 0:
                raise ExecError(
                    f"while loop exceeded iteration fuel ({limit} iterations)"
                )
        rec.pop()
        return tuple(state)


def run_fun(
    fun: Fun, args: Sequence[object], recorder: Optional[CostRecorder] = None
) -> Tuple[object, ...]:
    """Convenience wrapper: evaluate ``fun`` on ``args`` with the reference
    interpreter."""
    return RefInterp(recorder).run(fun, args)
