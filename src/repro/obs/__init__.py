"""repro.obs — the unified observability layer.

Three pillars, one import:

* :mod:`repro.obs.tracing` — nestable spans over every pipeline phase
  (trace → opt passes → lower → emit/compile → execute), ring-buffered
  and exportable as Chrome-trace JSON via ``REPRO_TRACE=<file>``.
* :mod:`repro.obs.profiler` — ``REPRO_PROFILE``: an emit-time hook that
  times every plan-IR instruction at every depth, keyed to its source
  statements, and ranks the hotspots by self time.
* :mod:`repro.obs.metrics` — one registry for counter sections; the
  historical stats surfaces (plan cache, opt, fusion) are re-homed here,
  with :func:`snapshot`/:func:`reset_all`/:func:`delta` as the single
  lifecycle.

Everything is zero-overhead when off: with ``REPRO_TRACE`` and
``REPRO_PROFILE`` unset, instrumented code paths pay a no-op span check only.
"""
from __future__ import annotations

from typing import Any, Dict

from . import metrics, tracing
from .metrics import delta
from .tracing import span

__all__ = [
    "metrics",
    "tracing",
    "span",
    "delta",
    "snapshot",
    "reset_all",
]


def _ensure_sources() -> None:
    """Import the modules that own stats sections so snapshots are
    complete even before any program has been compiled."""
    from ..exec import plan as _plan  # noqa: F401
    from ..exec import registry as _registry  # noqa: F401
    from ..opt import fusion as _fusion, pipeline as _pipeline  # noqa: F401


def snapshot() -> Dict[str, Any]:
    """One dict covering all stats surfaces."""
    _ensure_sources()
    return metrics.snapshot()


def reset_all() -> None:
    """Zero every stats surface, the span buffer and
    the profiler's accumulated instruction timings (each surface registers
    its ``reset_*`` with the metrics registry on import)."""
    _ensure_sources()
    metrics.reset_all()
    tracing.reset()
