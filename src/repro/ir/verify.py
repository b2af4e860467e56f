"""Layer-1 static verifier: pass-boundary checking of the array IR.

The paper's correctness story rests on invariants the rewrite engine must
preserve — SSA scoping, type preservation and the §5.4 accumulator
discipline.  This module packages them as one entry point, ``verify_fun``,
invoked at pipeline boundaries behind the ``REPRO_VERIFY`` knob:

* ``off``       — no verification (production default; the hooks cost one
  environment lookup per *compile stage*, never per call);
* ``boundary``  — verify at stage boundaries: after tracing, after the whole
  optimisation pipeline, after AD transforms, at the end of
  ``Compiled.__init__`` and at lowering (the default under pytest, see
  ``tests/conftest.py``);
* ``full``      — additionally verify after every individual optimisation
  pass (failures name the pass that fired), run the scatter-overlap
  analysis (layer 3, below) and the plan-IR checks of
  ``exec/verify_plan.py`` (layer 2).

Checks performed by ``verify_fun``:

* **SSA well-formedness** — every binder is unique across the whole function
  (the flat-environment invariant the executors rely on; a ``WhileLoop``'s
  condition lambda deliberately shares the loop's parameters) and every use
  is lexically dominated by its definition;
* **type preservation** — ``typecheck.check_fun``;
* **accumulator discipline** — ``validate.validate_fun`` (region/escape
  analysis).

Layer 3 is a scatter index-overlap analysis: a ``Scatter`` whose indices
provably repeat violates the IR precondition (duplicate-free writes) under
any execution order and is refused.  Violations raise ``VerifyError`` naming
the pass and the offending statement.

Counters are surfaced through the ``obs`` metrics registry under the
``verify`` section; each verification runs inside a ``verify`` tracing span.
"""
from __future__ import annotations

import os
from typing import Dict, Optional, Set

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..util import IRError, ReproError
from .ast import (
    AtomExp,
    Body,
    Const,
    Exp,
    Fun,
    Replicate,
    Scatter,
    Stm,
    Var,
    WhileLoop,
)
from .traversal import exp_atoms, scopes
from .typecheck import check_fun
from .validate import validate_fun

__all__ = [
    "VerifyError",
    "VERIFY_STATS",
    "verify_mode",
    "verify_fun",
    "maybe_verify_fun",
    "verify_stats",
    "reset_verify_stats",
]


class VerifyError(IRError):
    """An IR invariant violation caught by the static verifier.

    The message names the pipeline location (``where`` — e.g. ``opt:fuse``,
    ``vjp``, ``compile``, ``lower``) and the offending statement, so a
    failing pass is attributable without a bisection.
    """

    def __init__(self, msg: str, where: str = "", stm: Optional[Stm] = None):
        self.where = where
        self.stm = stm
        loc = f" after pass {where!r}" if where else ""
        at = ""
        if stm is not None:
            pat = ", ".join(v.name for v in stm.pat)
            at = f" in statement 'let ({pat}) = {type(stm.exp).__name__}'"
        super().__init__(f"IR verification failed{loc}{at}: {msg}")


_MODES = ("off", "boundary", "full")


def verify_mode() -> str:
    """The active verification mode: ``REPRO_VERIFY`` ∈ off|boundary|full
    (unset or empty = off).  Anything else raises — a typo in the verifier's
    own knob must not switch the verifier off."""
    mode = os.environ.get("REPRO_VERIFY", "").strip().lower() or "off"
    if mode not in _MODES:
        raise ReproError(f"REPRO_VERIFY={mode!r}: expected {' | '.join(_MODES)}")
    return mode


# ---------------------------------------------------------------------------
# Stats (obs metrics registry section "verify")
# ---------------------------------------------------------------------------

VERIFY_STATS = _metrics.counter_group(
    "verify",
    {
        "fun_checks": 0,
        "plan_checks": 0,
        "layout_checks": 0,
        "kernel_checks": 0,
        "scatter_checks": 0,
        "failures": 0,
    },
)


def verify_stats() -> Dict[str, object]:
    """Verifier counters plus the active mode (one snapshot section)."""
    return {**VERIFY_STATS, "mode": verify_mode()}


def reset_verify_stats() -> None:
    for k in VERIFY_STATS:
        VERIFY_STATS[k] = 0


_metrics.register_source("verify", verify_stats, reset_verify_stats)


# ---------------------------------------------------------------------------
# SSA well-formedness
# ---------------------------------------------------------------------------


def _check_ssa(fun: Fun, where: str) -> None:
    """Def-before-use plus no-shadowing along every lexical path.

    The flat-environment executors key registers by *name*, so a binder may
    never rebind a name that is live in an enclosing scope (the inner write
    would clobber the outer register).  Sibling scopes may reuse names —
    AD's redundant-execution rewrites do — because the earlier binding is
    dead by the time the later scope runs.
    """

    def bind(v: Var, scope: Set[str], stm: Optional[Stm]) -> None:
        if v.name in scope:
            raise VerifyError(
                f"binder {v.name!r} shadows a definition live in an "
                f"enclosing scope",
                where,
                stm,
            )
        scope.add(v.name)

    def use(a, scope: Set[str], stm: Optional[Stm]) -> None:
        if isinstance(a, Var) and a.name not in scope:
            raise VerifyError(
                f"use of {a.name!r} before its definition", where, stm
            )

    def walk_body(body: Body, scope: Set[str]) -> None:
        scope = set(scope)
        for stm in body.stms:
            walk_exp(stm.exp, scope, stm)
            for v in stm.pat:
                bind(v, scope, stm)
        for a in body.result:
            use(a, scope, None)

    def walk_exp(e: Exp, scope: Set[str], stm: Optional[Stm]) -> None:
        for a in exp_atoms(e):
            use(a, scope, stm)
        for binders, body in scopes(e):
            if isinstance(e, WhileLoop):
                # The condition lambda shares the loop's binders by
                # construction (frontend/ops.py, traversal.refresh) —
                # re-binding those names is not shadowing.  Any *other* name
                # it binds is a new binder.
                pnames = {p.name for p in e.params}
                binders = e.params + tuple(p for p in binders if p.name not in pnames)
            inner = set(scope)
            for p in binders:
                bind(p, inner, stm)
            walk_body(body, inner)

    scope0: Set[str] = set()
    for p in fun.params:
        bind(p, scope0, None)
    walk_body(fun.body, scope0)


# ---------------------------------------------------------------------------
# Layer 3: scatter index-overlap analysis
# ---------------------------------------------------------------------------


def _resolve_def(name: str, defs: Dict[str, Exp]) -> Optional[Exp]:
    """Chase copies to the defining expression of ``name`` (same body only)."""
    seen: Set[str] = set()
    e = defs.get(name)
    while (
        isinstance(e, AtomExp)
        and isinstance(e.x, Var)
        and e.x.name not in seen
    ):
        seen.add(e.x.name)
        e = defs.get(e.x.name)
    return e


def _scatter_overlap(e: Scatter, defs: Dict[str, Exp]) -> Optional[str]:
    """A reason when the scatter's writes provably overlap.

    ``Iota``-derived (and reversed-iota) indices are provably duplicate-free;
    a ``Replicate`` of one index is provably all-duplicates, which violates
    the IR precondition outright (which write wins is unspecified).
    Unknown index provenance passes (runtime semantics apply).
    """
    d = _resolve_def(e.inds.name, defs)
    if isinstance(d, Replicate):
        n = d.n
        if isinstance(n, Const) and int(n.value) <= 1:
            return None
        return (
            f"scatter indices {e.inds.name!r} replicate a single index — "
            f"the writes overlap"
        )
    return None


def _check_scatter_overlap(fun: Fun, where: str) -> None:
    """Refuse every scatter whose writes provably overlap."""
    VERIFY_STATS["scatter_checks"] += 1

    def walk_body(body: Body) -> None:
        defs: Dict[str, Exp] = {}
        for stm in body.stms:
            e = stm.exp
            if isinstance(e, Scatter):
                reason = _scatter_overlap(e, defs)
                if reason is not None:
                    raise VerifyError(reason, where, stm)
            for _, inner in scopes(e):
                walk_body(inner)
            for v in stm.pat:
                defs.setdefault(v.name, e)

    walk_body(fun.body)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def verify_fun(fun: Fun, where: str = "", *, full: bool = False) -> Fun:
    """Run the layer-1 checks on ``fun``; returns it unchanged on success.

    Raises ``VerifyError`` naming ``where`` (the pass/stage that produced
    the IR) and the offending statement.  ``full`` additionally runs the
    scatter-overlap analysis.
    """
    with _tracing.span("verify", cat="verify", fun=fun.name, where=where):
        VERIFY_STATS["fun_checks"] += 1
        try:
            _check_ssa(fun, where)
            check_fun(fun)
            validate_fun(fun)
            if full:
                _check_scatter_overlap(fun, where)
        except VerifyError:
            VERIFY_STATS["failures"] += 1
            raise
        except ReproError as err:
            VERIFY_STATS["failures"] += 1
            raise VerifyError(str(err), where=where) from err
    return fun


def maybe_verify_fun(fun: Fun, where: str = "") -> Fun:
    """``verify_fun`` gated on ``REPRO_VERIFY`` (the standard hook form)."""
    mode = verify_mode()
    if mode == "off":
        return fun
    return verify_fun(fun, where=where, full=mode == "full")
