"""Residue of the deleted schedule layer (trial in CHANGES.md, PR 21).

``bench/staged.py`` imports and times ``apply_env_schedule`` and a source PR
may not edit ``bench/``; the ``[benchmark]`` PR of ROADMAP item 1(c) drops
that import, and this file goes with it.  Nothing in ``src/`` calls it.
"""

from .ast import Fun


def apply_env_schedule(fun: Fun) -> Fun:
    return fun
