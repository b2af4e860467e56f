"""Compiled-function wrapper: trace → (optimise) → run on a chosen backend.

Backends
--------

Backends are resolved by name (``exec/registry.py``):

* ``"plan"`` (default) — the plan compiler: the function is lowered once to
  a flat sequence of NumPy closures and memoised per argument rank/dtype
  signature (see ``exec/plan.py`` for cache keying and invalidation), so
  repeat calls skip optimisation and AST dispatch entirely;
* ``"ref"`` — the reference interpreter (semantics oracle; runs the
  work/span recorder ``exec/cost.py``).

Unknown names raise listing the registered set.

``call_batched`` is the batched multi-seed entry used by ``jacobian``: it
evaluates the function once with selected arguments carrying a leading batch
axis.  That is one more level of nested parallelism, so it is a ``map``:
``batched_fun`` wraps the function in one ``map`` over the flagged
parameters, and every backend runs the result as an ordinary program.
"""
from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..exec.cost import Cost, CostRecorder
from ..exec.interp import RefInterp
from ..exec.registry import DEFAULT_BACKEND, get_backend, record_call
from ..ir.ast import Body, Fun, Lambda, Map, Stm, Var, fact
from ..ir.pretty import pretty
from ..ir.types import array, elem_type, rank_of
from ..obs import tracing as _obs_tracing
from ..util import ExecError, fresh

__all__ = ["Compiled", "compile_fun", "batched_fun"]


class Compiled:
    """A runnable IR function.

    ``backend=None`` (default) runs on ``DEFAULT_BACKEND``, the plan
    compiler, as every entry point in the system does; a backend name
    selects that executor explicitly (``ref``, ``plan``).
    ``cost()`` measures the cost-model counters of a run (reference
    interpretation).

    ``passes`` selects the optimisation passes applied at construction (a
    sequence of pass names — see ``opt.pipeline``); None means all of them,
    ``passes=()`` none (the program runs as given).
    """

    def __init__(self, fun: Fun, passes: "Sequence[str] | None" = None) -> None:
        from ..opt.pipeline import optimize_fun

        fun = optimize_fun(fun, passes=passes)
        # The only pre-lowering check of a ``passes=()`` program.
        from ..ir.verify import maybe_verify_fun

        self.fun = maybe_verify_fun(fun, where="compile")

    @property
    def name(self) -> str:
        return self.fun.name

    def __repr__(self) -> str:
        return f"<Compiled {self.fun.name}>"

    def show(self) -> str:
        """Pretty-printed IR (after optimisation)."""
        return pretty(self.fun)

    def __call__(self, *args, backend: "str | None" = None):
        be = get_backend(backend or DEFAULT_BACKEND)
        record_call(be.name)
        with _obs_tracing.span("call", cat="api", fun=self.fun.name, backend=be.name):
            res = be.run(self.fun, args)
        return res[0] if len(res) == 1 else res

    def call_batched(
        self,
        args: Sequence[object],
        batched: Sequence[bool],
        batch_size: int,
        backend: "str | None" = None,
    ) -> Tuple[object, ...]:
        """Evaluate once with the flagged arguments batched on a leading axis:
        the backend runs ``batched_fun(self.fun, batched)``.

        Always returns a tuple of results, each with a leading ``batch_size``
        axis.
        """
        be = get_backend(backend or DEFAULT_BACKEND)
        fun = checked_batched_fun(self.fun, args, batched, batch_size)
        record_call(be.name)
        with _obs_tracing.span(
            "call", cat="api", fun=self.fun.name, backend=be.name, batched=True
        ):
            return be.run(fun, args)

    def cost(self, *args) -> Cost:
        """Run under the cost model; returns work/span/memory counters."""
        rec = CostRecorder()
        RefInterp(rec).run(self.fun, args)
        return rec.snapshot()


def batched_fun(fun: Fun, flags: Sequence[bool]) -> Fun:
    """``fun`` mapped over its flagged parameters: a ``Fun`` whose body is
    one ``map`` with ``fun``'s body as its lambda and the flagged parameters
    as the lambda's.  The map runs over fresh parameters of one more rank in
    their places; the unflagged parameters stay the function's own, free in
    the lambda.  Every result gains a leading axis, the map's extent.
    Memoised per flags tuple on ``fun`` (``ir.ast.fact``)."""
    flags = tuple(bool(f) for f in flags)

    def build(fun: Fun) -> Fun:
        def lifted(x):
            t = array(elem_type(x.type), rank_of(x.type) + 1)
            return Var(fresh(getattr(x, "name", "c")), t)

        outer = tuple(lifted(p) if f else p for p, f in zip(fun.params, flags))
        res = tuple(lifted(r) for r in fun.body.result)
        lam = Lambda(tuple(p for p, f in zip(fun.params, flags) if f), fun.body)
        arrs = tuple(o for o, f in zip(outer, flags) if f)
        return Fun(fun.name, outer, Body((Stm(res, Map(lam, arrs)),), res))

    return fact(fun, "batched_" + "".join("1" if f else "0" for f in flags), build)


def checked_batched_fun(
    fun: Fun, args: Sequence[object], batched: Sequence[bool], batch_size: int
) -> Fun:
    """``batched_fun(fun, batched)`` once the call is checked: one flag per
    argument and parameter, at least one set, and every flagged argument's
    leading axis of extent ``batch_size``."""
    if len(batched) != len(args):
        raise ExecError("run_batched: batched flags must match arguments")
    if len(args) != len(fun.params):
        raise ExecError(f"{fun.name}: expected {len(fun.params)} arguments, got {len(args)}")
    if not any(batched):
        raise ExecError("call_batched: at least one argument must be batched")
    b = int(batch_size)
    for a, flag in zip(args, batched):
        lead = np.shape(a)[:1]
        if flag and lead != (b,):
            raise ExecError(
                f"batched argument: leading axis {lead} does not match batch size {b}"
            )
    return batched_fun(fun, batched)


def compile_fun(fun: Fun, passes: "Sequence[str] | None" = None) -> Compiled:
    return Compiled(fun, passes=passes)
