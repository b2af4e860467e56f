"""Executors: the reference interpreter (the oracle), the plan family
(shared lowering in ``lower``; batched values and one kernel per plan
instruction in ``vector``; the closure emitter and the ``run`` driver in
``plan``, the source emitter in ``codegen`` — both bind operands and
dispatch, neither computes) and the cost recorder — the executors resolvable
by name through ``registry``."""
from .codegen import (  # noqa: F401
    CodegenPlan,
    run_fun_codegen,
    run_fun_codegen_batched,
)
from .cost import Cost, CostRecorder  # noqa: F401
from .interp import RefInterp, run_fun  # noqa: F401
from .lower import PlanIR, lower_fun  # noqa: F401
from .plan import (  # noqa: F401
    Plan,
    clear_plan_cache,
    plan_cache_stats,
    plan_for,
    run_fun_plan,
    run_fun_plan_batched,
)
from .registry import (  # noqa: F401
    Backend,
    available_backends,
    batched_backends,
    default_backend,
    get_backend,
)
from .values import AccVal, coerce_arg, zeros_of  # noqa: F401
