"""Optimisation passes over the IR: simplify, CSE, fission, fusion and DCE as
named passes run to a fixed point (see ``pipeline``), plus
strip-mining and while-bounding.  ``acc_opt`` is a bench-only residue: the
§6.1 accumulator rewrites are gone, ``exec``'s ``contract`` and view adds do
their work."""
from .pipeline import (  # noqa: F401
    AD_SAFE_PASSES,
    clear_opt_cache,
    opt_stats,
    optimize_fun,
    registered_passes,
    reset_opt_stats,
)
