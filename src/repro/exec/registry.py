"""The executor backends, by name.

A ``Backend`` record is a name and its entry point, and every
dispatch site (``core/api.py``, ``frontend/function.py``, the benchmark
wiring) resolves names through ``get_backend`` — which also gives
unknown-backend errors one helpful shape (the requested name plus the
registered set) instead of failing deep inside dispatch.

The backends, a fixed table built at import:

* ``ref``   — the reference interpreter (semantics oracle; runs the work/span
  recorder ``exec/cost.py``);
* ``plan``  — the cached plan compiler (lower once, replay closures; under
  ``REPRO_PROFILE`` every closure, nested ones included, is timed — see
  ``obs/profiler.py``).

An entry point's ``backend=`` keyword is the one selector: ``None`` means
``DEFAULT_BACKEND``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..ir.ast import Fun
from ..obs import metrics as _obs_metrics
from ..util import ReproError
from .interp import RefInterp
from .plan import run_fun_plan

__all__ = [
    "Backend",
    "get_backend",
    "available_backends",
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


#: What ``backend=None`` runs on, at every entry point: the plan compiler —
#: the paper's compiled-bulk-code executor, and with the plan cache the
#: cheapest repeat-call path.  Semantics are identical across backends (the
#: parity suite asserts it), so the default is purely a performance choice.
DEFAULT_BACKEND = "plan"


@dataclass(frozen=True)
class Backend:
    """One executor: a name and ``run(fun, args)``, which evaluates a
    ``Fun`` and returns the result tuple.  A batched multi-seed call is a
    plain ``run`` of ``frontend.function.batched_fun``, so every backend
    runs it."""

    name: str
    run: Callable[[Fun, Sequence[object]], Tuple[object, ...]]


def _run_ref(fun: Fun, args: Sequence[object]) -> Tuple[object, ...]:
    return RefInterp().run(fun, args)


_BACKENDS: Dict[str, Backend] = {
    b.name: b
    for b in (
        Backend("ref", run=_run_ref),
        Backend("plan", run=run_fun_plan),
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


def available_backends() -> Tuple[str, ...]:
    """The backend names."""
    return tuple(_BACKENDS)
