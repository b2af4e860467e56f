"""Compiled-function wrapper: trace → (optimise) → run on a chosen backend.

Backends
--------

Backends are resolved by name (``exec/registry.py``):

* ``"plan"`` (default) — the plan compiler: the function is lowered once to
  a flat sequence of NumPy closures and memoised per argument rank/dtype
  signature (see ``exec/plan.py`` for cache keying and invalidation), so
  repeat calls skip optimisation and AST dispatch entirely;
* ``"codegen"`` — the same lowering rendered to one compiled Python
  function (``exec/codegen.py``), bitwise-equal to ``"plan"``;
* ``"ref"`` — the reference interpreter (semantics oracle; runs the
  work/span recorder ``exec/cost.py``).

Unknown names raise listing the registered set.

``call_batched`` is the batched multi-seed entry used by ``jacobian``: it
evaluates the function once with selected arguments carrying a leading batch
axis (supported on backends with the ``batched`` capability — ``plan`` and
``codegen`` — whose batching machinery makes it a single bulk pass).
"""
from __future__ import annotations

from typing import Sequence, Tuple

from ..exec.cost import Cost, CostRecorder
from ..exec.interp import RefInterp
from ..exec.registry import batched_backends, default_backend, get_backend, record_call
from ..ir.ast import Fun
from ..ir.pretty import pretty
from ..obs import tracing as _obs_tracing
from ..util import ReproError

__all__ = ["Compiled", "compile_fun"]


class Compiled:
    """A runnable IR function.

    ``backend=None`` (default) resolves through the registry-level
    ``default_backend()`` — ``REPRO_BACKEND`` or the plan compiler — so
    every entry point in the system shares one default; a backend name
    selects that executor explicitly (``ref``, ``plan``, ``codegen``).
    ``cost()`` measures the cost-model counters of a run (reference
    interpretation).

    ``passes`` selects the optimisation passes applied at construction (a
    sequence of pass names — see ``opt.pipeline``); None means all of them.
    """

    def __init__(
        self,
        fun: Fun,
        optimize: bool = True,
        passes: "Sequence[str] | None" = None,
    ) -> None:
        if optimize:
            from ..opt.pipeline import optimize_fun

            fun = optimize_fun(fun, passes=passes)
        # The only pre-lowering check of an ``optimize=False`` program.
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
        name = backend or default_backend()
        record_call(name)
        with _obs_tracing.span("call", cat="api", fun=self.fun.name, backend=name):
            res = get_backend(name).run(self.fun, args)
        return res[0] if len(res) == 1 else res

    def call_batched(
        self,
        args: Sequence[object],
        batched: Sequence[bool],
        batch_size: int,
        backend: "str | None" = None,
    ) -> Tuple[object, ...]:
        """Evaluate once with the flagged arguments batched on a leading axis.

        Always returns a tuple of results, each with a leading ``batch_size``
        axis.  Only backends with the ``batched`` capability support this;
        use a Python loop for ``ref``.
        """
        name = backend or default_backend()
        be = get_backend(name)
        if be.run_batched is None:
            raise ReproError(
                f"backend {name!r} cannot run batched seeds; "
                f"choose from {batched_backends()}"
            )
        record_call(name)
        with _obs_tracing.span(
            "call", cat="api", fun=self.fun.name, backend=name, batched=True
        ):
            return be.run_batched(self.fun, args, batched, batch_size)

    def cost(self, *args) -> Cost:
        """Run under the cost model; returns work/span/memory counters."""
        rec = CostRecorder()
        RefInterp(rec).run(self.fun, args)
        return rec.snapshot()


def compile_fun(
    fun: Fun,
    optimize: bool = True,
    passes: "Sequence[str] | None" = None,
) -> Compiled:
    return Compiled(fun, optimize=optimize, passes=passes)
