"""Residue of the deleted §6.1 accumulator rewrites (trial in CHANGES.md).

``bench/staged.py`` imports and times ``acc_opt_fun``, and the benchmark's
files change only with the benchmark; ROADMAP item 1(c) drops that import,
and this file goes with it.  Nothing in ``src/`` calls it.
"""

from ..ir.ast import Fun


def acc_opt_fun(fun: Fun) -> Fun:
    return fun
