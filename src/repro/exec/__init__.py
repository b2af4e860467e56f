"""Executors: the reference interpreter (the oracle), the plan family
(shared lowering in ``lower``; batched values and one kernel per plan
instruction in ``vector``; the closure emitter, the ``run`` driver and the
plan cache in ``plan`` — it binds operands and dispatches, it computes
nothing) and the cost recorder — the executors resolvable by name through
``registry``.  ``codegen`` holds a bench-only residue."""
from .codegen import CodegenPlan  # noqa: F401
from .cost import Cost, CostRecorder  # noqa: F401
from .interp import RefInterp, run_fun  # noqa: F401
from .lower import PlanIR, lower_fun  # noqa: F401
from .plan import (  # noqa: F401
    Plan,
    clear_plan_cache,
    plan_cache_stats,
    plan_for,
    run_fun_plan,
)
from .registry import (  # noqa: F401
    Backend,
    available_backends,
    get_backend,
)
from .values import AccVal, coerce_arg, zeros_of  # noqa: F401
