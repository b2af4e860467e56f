"""The executor backends, by name.

A ``Backend`` record bundles the two executor entry points, and every
dispatch site (``core/api.py``, ``frontend/function.py``, the benchmark
wiring) resolves names through ``get_backend`` — which also gives
unknown-backend errors one helpful shape (the requested name plus the
registered set) instead of failing deep inside dispatch.

The backends, a fixed table built at import:

* ``ref``   — the reference interpreter (semantics oracle; runs the work/span
  recorder ``exec/cost.py``);
* ``plan``  — the cached plan compiler (lower once, replay closures; under
  ``REPRO_PROFILE`` every closure, nested ones included, is timed — see
  ``obs/profiler.py``);
* ``codegen`` — the source codegen executor (same lowering, plan IR rendered
  to one compiled Python function; see ``exec/codegen.py``; never profiled).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..ir.ast import Fun
from ..obs import metrics as _obs_metrics
from ..util import ReproError
from .codegen import run_fun_codegen, run_fun_codegen_batched
from .interp import RefInterp
from .plan import run_fun_plan, run_fun_plan_batched

__all__ = [
    "Backend",
    "get_backend",
    "default_backend",
    "available_backends",
    "batched_backends",
    "record_call",
    "DEFAULT_BACKEND",
]

#: Per-backend dispatch counters (``repro.obs`` section ``"backend_calls"``):
#: one count per top-level ``Compiled`` call routed to each backend name.
BACKEND_CALLS = _obs_metrics.counter_group("backend_calls", {})


def record_call(name: str) -> None:
    """Count one top-level dispatch to backend ``name`` (callable from user
    threads: the increment holds the metrics registry's lock)."""
    BACKEND_CALLS.add(name)


#: Fallback default when ``REPRO_BACKEND`` is unset: the plan compiler —
#: the paper's compiled-bulk-code executor, and with the plan cache the
#: cheapest repeat-call path.  Semantics are identical across backends (the
#: parity suite asserts it), so the default is purely a performance choice.
DEFAULT_BACKEND = "plan"


@dataclass(frozen=True)
class Backend:
    """One executor: a name and its entry points.

    ``run(fun, args)`` evaluates a ``Fun`` and returns the result tuple.
    ``run_batched(fun, args, batched, batch_size)`` — when not None — is the
    batched multi-seed entry (flagged arguments carry a leading batch axis);
    its presence *is* the ``batched`` capability.
    """

    name: str
    run: Callable[[Fun, Sequence[object]], Tuple[object, ...]]
    run_batched: Optional[Callable] = None

    @property
    def batched(self) -> bool:
        """Whether this backend can evaluate batched multi-seed calls."""
        return self.run_batched is not None


def _run_ref(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    return RefInterp().run(fun, args)


_BACKENDS: Dict[str, Backend] = {
    b.name: b
    for b in (
        Backend("ref", run=_run_ref),
        Backend("plan", run=run_fun_plan, run_batched=run_fun_plan_batched),
        Backend("codegen", run=run_fun_codegen, run_batched=run_fun_codegen_batched),
    )
}


def get_backend(name: str) -> Backend:
    """Resolve a backend name, or raise listing the registered set."""
    be = _BACKENDS.get(name)
    if be is None:
        raise ReproError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return be


def default_backend() -> str:
    """The session-default backend name, shared by every entry point.

    ``REPRO_BACKEND`` selects it (read per call, so tests/operators can flip
    it), falling back to ``DEFAULT_BACKEND``; either way the name is
    validated against the registry so a typo fails loudly at the first
    dispatch, naming the registered set.  ``Compiled.__call__``,
    ``call_batched`` and the ``grad``/``value_and_grad``/``jacobian``/
    ``hessian_diag`` wrappers all resolve ``backend=None`` through this one
    function.
    """
    return get_backend(os.environ.get("REPRO_BACKEND", DEFAULT_BACKEND)).name


def available_backends() -> Tuple[str, ...]:
    """The backend names."""
    return tuple(_BACKENDS)


def batched_backends() -> Tuple[str, ...]:
    """Names of backends able to run batched multi-seed calls."""
    return tuple(n for n, b in _BACKENDS.items() if b.batched)
