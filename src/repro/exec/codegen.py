"""A residue kept only because ``bench/staged.py`` imports ``CodegenPlan``,
builds one over each staged lowering and reads its ``source``.  The source
emitter is gone: ``CodegenPlan`` is the closure ``Plan`` under its old name,
so the bench's bitwise check still compares a real ``Plan`` with the public
API.  ROADMAP item 1(c) drops the import, and this file with it."""
from .plan import Plan

__all__ = ["CodegenPlan"]


class CodegenPlan(Plan):
    """A ``Plan``; no module is rendered, so ``source`` is empty."""

    source = ""
