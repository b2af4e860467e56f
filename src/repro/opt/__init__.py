"""Optimisation passes over the IR: simplify, CSE, fission, fusion and DCE as
named passes under a fixed-point driver (see ``pipeline``), plus acc-opt,
strip-mining and while-bounding."""
from .pipeline import (  # noqa: F401
    AD_SAFE_PASSES,
    clear_opt_cache,
    opt_stats,
    optimize_fun,
    registered_passes,
    reset_opt_stats,
)
