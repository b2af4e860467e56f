"""First-class schedule IR for SOAC and loop statements.

A *schedule* is an ordered tuple of axis directives describing how the
leading axis of a SOAC (or the trip axis of a loop) is executed, outermost
directive first:

* ``vectorized``      — one bulk NumPy evaluation over the axis;
* ``sequential(c)``   — run the axis in order, ``c`` elements per step
  (0 = one at a time / plain sequential).  On a ``Loop`` a chunked
  sequential directive is sugar for the paper's §4.3 strip-mining
  annotation (``stripmine=c``); on a ``Map`` it lowers to an explicit
  chunk loop in plan IR.

The paper's strip-mine annotation and the chunked map are both instances
of this algebra; this module is the one place that names it.  Schedules are
*descriptions*: every directive is realised by exactly one layer
(vectorized → bulk emitters, sequential → stripmine pass / chunked map
lowering), and each realisation is constructed to be bitwise-identical to
the default bulk execution — slicing an elementwise map is exact.

Legality is structural plus per-node:

* at most one ``vectorized`` directive, and it must be innermost;
* ``Loop``: only ``sequential`` directives (the trip axis is
  loop-carried); ``WhileLoop``: only *unchunked* ``sequential`` (the trip
  count is data-dependent, so there is no axis to split);
* ``Map`` with accumulators: no chunked ``sequential`` (accumulators
  thread sequentially through every element);
* ``Reduce``/``Scan``/``ReduceByIndex``/``Scatter``: no chunked
  ``sequential`` (no chunked form / prefix dependence / bin conflicts /
  overlapping writes).

``apply_schedule`` attaches a schedule to a function after optimisation, by
one rule for both entry points: every top-level statement on which the
schedule is legal gets it, the rest keep their default.  The ``schedule=``
keyword on ``compile``/``grad`` (strict) raises ``ScheduleError`` with each
statement's refusal — which names the offending directive — when it was
legal on none; ``REPRO_SCHEDULE`` (lenient) leaves such a program as it is.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

from .ast import (
    Body,
    Fun,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Scan,
    Scatter,
    Stm,
    WhileLoop,
)
from .traversal import map_bodies, same_body, with_body, with_exp

__all__ = [
    "Directive",
    "SCHEDULABLE",
    "ScheduleError",
    "Sequential",
    "Vectorized",
    "apply_env_schedule",
    "apply_schedule",
    "check_schedule",
    "default_schedule",
    "env_schedule",
    "format_schedule",
    "parse_schedule",
    "schedule_key",
    "schedule_str",
    "strip_schedules",
]


class ScheduleError(ValueError):
    """An illegal or unparsable schedule; the message names the directive."""


@dataclass(frozen=True)
class Vectorized:
    """Bulk NumPy evaluation of the whole axis (the default for SOACs)."""


@dataclass(frozen=True)
class Sequential:
    """In-order execution, ``chunk`` elements per step (0 = one at a time)."""

    chunk: int = 0


Directive = Union[Vectorized, Sequential]

#: Expression classes that carry a ``schedule`` field.
SCHEDULABLE = (Map, Reduce, Scan, ReduceByIndex, Scatter, Loop, WhileLoop)

_DIRECTIVE_RE = re.compile(r"^(vectorized|sequential)(?:\((\d+)\))?$")


# ---------------------------------------------------------------------------
# Parsing / formatting / hashing
# ---------------------------------------------------------------------------


def format_directive(d: Directive) -> str:
    if isinstance(d, Vectorized):
        return "vectorized"
    if isinstance(d, Sequential):
        return f"sequential({d.chunk})" if d.chunk else "sequential"
    raise ScheduleError(f"not a schedule directive: {d!r}")


def format_schedule(sched: Tuple[Directive, ...]) -> str:
    """Render a schedule as ``dir·dir·dir`` (empty schedule → '')."""
    return "·".join(format_directive(d) for d in sched)


def parse_schedule(text: str) -> Tuple[Directive, ...]:
    """Parse ``"sequential(64)·vectorized"``.

    Directives may be separated by ``·``, ``*``, ``;``, ``,`` or whitespace.
    Raises ``ScheduleError`` on junk, naming the offending token.
    """
    toks = [t for t in re.split(r"[·*;,\s]+", text.strip()) if t]
    sched = []
    for tok in toks:
        m = _DIRECTIVE_RE.match(tok)
        if m is None:
            raise ScheduleError(
                f"cannot parse schedule directive {tok!r} "
                "(expected vectorized | sequential[(c)])"
            )
        name, arg = m.group(1), m.group(2)
        if name == "vectorized":
            if arg is not None:
                raise ScheduleError(
                    f"directive {tok!r}: vectorized takes no argument"
                )
            sched.append(Vectorized())
        else:
            sched.append(Sequential(int(arg) if arg else 0))
    return tuple(sched)


def _as_schedule(schedule) -> Tuple[Directive, ...]:
    if isinstance(schedule, str):
        return parse_schedule(schedule)
    sched = tuple(schedule)
    for d in sched:
        if not isinstance(d, (Vectorized, Sequential)):
            raise ScheduleError(f"not a schedule directive: {d!r}")
    return sched


def schedule_key(sched: Tuple[Directive, ...]) -> bytes:
    """Stable bytes for ``ir_hash`` — distinct programs per schedule."""
    parts = []
    for d in sched:
        if isinstance(d, Vectorized):
            parts.append("v")
        else:
            parts.append(f"s{d.chunk}")
    return ("sched[" + ",".join(parts) + "]").encode()


# ---------------------------------------------------------------------------
# Defaults
# ---------------------------------------------------------------------------


def default_schedule(e) -> Tuple[Directive, ...]:
    """The schedule a node executes under when none is attached."""
    if isinstance(e, Loop):
        if e.stripmine > 1:
            return (Sequential(e.stripmine), Sequential())
        return (Sequential(),)
    if isinstance(e, WhileLoop):
        return (Sequential(),)
    if isinstance(e, SCHEDULABLE):
        return (Vectorized(),)
    return ()


def schedule_str(e) -> str:
    """The *active* schedule of a node, formatted (attached or default)."""
    sched = getattr(e, "schedule", ()) or default_schedule(e)
    return format_schedule(sched)


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


def check_schedule(e, sched) -> Optional[str]:
    """Return None when ``sched`` is legal for node ``e``, else the reason.

    The reason string always names the offending directive.
    """
    sched = _as_schedule(sched)
    if not sched:
        return None
    if not isinstance(e, SCHEDULABLE):
        return (f"{format_directive(sched[0])}: {type(e).__name__} "
                "statements carry no schedule")
    n_vec = sum(isinstance(d, Vectorized) for d in sched)
    if n_vec > 1:
        return "vectorized: at most one vectorized directive per schedule"
    if n_vec and not isinstance(sched[-1], Vectorized):
        return "vectorized: the vectorized directive must be innermost"

    if isinstance(e, WhileLoop):
        for d in sched:
            if not (isinstance(d, Sequential) and d.chunk == 0):
                return (f"{format_directive(d)}: a while loop's trip count "
                        "is data-dependent — only bare 'sequential' is legal")
        return None
    if isinstance(e, Loop):
        for d in sched:
            if not isinstance(d, Sequential):
                return (f"{format_directive(d)}: loop iterations are "
                        "loop-carried — only 'sequential' directives are "
                        "legal (sequential(f)·sequential strip-mines)")
        # A chunked sequential must be the explicit strip-mine sugar —
        # the outer of a sequential(f)·sequential pair — never a blanket
        # (lenient) chunk directive silently restructuring checkpoints.
        if any(isinstance(d, Sequential) and d.chunk > 1 for d in sched):
            if not (len(sched) >= 2
                    and sched[-1] == Sequential()
                    and all(d.chunk > 1 for d in sched[:-1])):
                return (f"{format_directive(sched[0])}: chunking a loop "
                        "is strip-mining — write the explicit "
                        "'sequential(f)·sequential' form")
        return None

    chunked = [d for d in sched if isinstance(d, Sequential) and d.chunk > 1]
    if not chunked:
        return None
    if isinstance(e, Map):
        if e.accs:
            return (f"{format_directive(chunked[0])}: map carries "
                    "accumulators, which thread sequentially through every "
                    "element")
        return None
    why = {
        Reduce: ("chunked sequential reduction is not implemented — use "
                 "bare 'sequential'"),
        Scan: "a scan's prefix dependence crosses any split point",
        ReduceByIndex: "histogram bins conflict across any split point",
        Scatter: "scatter writes may collide across any split point",
    }[type(e)]
    return f"{format_directive(chunked[0])}: {why}"


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def _annotate(e, sched: Tuple[Directive, ...]):
    if isinstance(e, Loop):
        f = next((d.chunk for d in sched
                  if isinstance(d, Sequential) and d.chunk > 1), 0)
        if f > 1:
            return replace(e, stripmine=f, schedule=sched)
    return replace(e, schedule=sched)


def apply_schedule(fun: Fun, schedule, strict: bool = True) -> Fun:
    """Return ``fun`` with ``schedule`` attached to every top-level
    schedulable statement on which ``check_schedule`` accepts it.

    The statements that refuse keep their default — a blanket directive
    never breaks a program that contains e.g. a reduce or a data-dependent
    while loop next to the maps it was meant for.  ``strict`` is the failure
    policy when *no* statement took it: ``schedule=`` raises ``ScheduleError``
    carrying each statement's refusal, ``REPRO_SCHEDULE`` hands ``fun`` back.
    """
    sched = _as_schedule(schedule)
    if not sched:
        return fun
    stms = list(fun.body.stms)
    taken = False
    refusals = []
    for i, s in enumerate(stms):
        if not isinstance(s.exp, SCHEDULABLE):
            continue
        why = check_schedule(s.exp, sched)
        if why is None:
            stms[i] = Stm(s.pat, _annotate(s.exp, sched))
            taken = True
        else:
            refusals.append(f"{type(s.exp).__name__.lower()} {s.pat[0].name}: {why}")
    if taken:
        return Fun(fun.name, fun.params, Body(tuple(stms), fun.body.result))
    if not strict:
        return fun
    if not refusals:
        raise ScheduleError(
            f"{fun.name}: no schedulable (SOAC/loop) statement to "
            f"attach schedule '{format_schedule(sched)}' to"
        )
    raise ScheduleError(
        f"{fun.name}: schedule '{format_schedule(sched)}' is illegal for "
        "every schedulable statement — " + "; ".join(refusals)
    )


def strip_schedules(fun: Fun) -> Fun:
    """``fun`` with every attached schedule removed (a loop keeps the
    ``stripmine`` annotation its schedule was converted to); ``fun`` itself
    when none is attached.  AD differentiates the program, not the way one
    ``Compiled`` of it was told to run: ``core.api`` calls this on the way
    in, and the derivative gets its own schedule when it is compiled."""

    def strip(e):
        e = map_bodies(e, body)
        return replace(e, schedule=()) if getattr(e, "schedule", ()) else e

    def body(b: Body) -> Body:
        return same_body(b, [with_exp(s, strip(s.exp)) for s in b.stms], b.result)

    return with_body(fun, body(fun.body))


def env_schedule() -> Optional[Tuple[Directive, ...]]:
    """The ``REPRO_SCHEDULE`` override, parsed (None when unset/empty)."""
    v = os.environ.get("REPRO_SCHEDULE", "").strip()
    if not v:
        return None
    return parse_schedule(v)


def apply_env_schedule(fun: Fun) -> Fun:
    """Apply ``REPRO_SCHEDULE`` leniently; identity when unset."""
    sched = env_schedule()
    if not sched:
        return fun
    return apply_schedule(fun, sched, strict=False)
