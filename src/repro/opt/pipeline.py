"""The optimisation pipeline: six named passes with a fixed-point driver.

Mirrors the paper's setup: a battery of standard simplifications runs both
before AD (the source program is "already heavily optimized by the compiler")
and after AD (where DCE is what eliminates the redundant forward sweeps of
perfectly-nested scopes, §4.1), plus the SOAC fusion engine that realises the
"AD rules tuned to preserve fusion opportunities" claim.

Pass framework
--------------

Passes are named ``Fun -> Fun`` rewrites; they run in this order:

* ``simplify`` — copy propagation, constant folding, algebraic identities;
* ``cse``      — common-subexpression elimination (cheap pure expressions);
* ``fission``  — split k-ary reduce/scan/hist into one SOAC per independent
  component group, so AD's dual-number sums lower to bulk ufunc kernels
  (``opt/fission.py``; ``passes=`` without it is the ablation);
* ``tile``     — hoist k alpha-equal slices of a ``map`` over ``iota(n)``
  that read rows ``g·n + u`` into one map over ``iota(k·n)``, read back
  as ``gs[g·n + u]`` (``opt/fusion.py``; the LSTM's four gates);
* ``fuse``     — vertical SOAC fusion (``opt/fusion.py``);
* ``dce``      — dead-code elimination.

``optimize_fun`` drives the enabled passes to a fixed point (bounded by
``ROUNDS``) and keeps per-pass ``fired``/``changed`` counters, exposed
together with the call counters via ``opt_stats()``.

The driver works by identity.  What a pass promises: *return your input if
you changed nothing* — the ``Fun`` object itself, never an equal copy
(``ir.traversal.map_bodies`` / ``same_body`` / ``with_body`` make that the
natural way to write a body loop, and keep every subtree a rewrite did not
touch, with the facts on its nodes).  So a quiet firing is ``out is fun``;
``changed`` counts the firings that returned a new object; a round in which
nothing moved ends the loop without comparing trees; and a ``Fun`` that came
through a quiet firing of pass *P* carries that as a fact (``ir.ast.fact``),
so no later call fires *P* on it again, whatever its pass list — the AD
entry points' AD-safe set on a ``Compiled``'s converged program, say.
That fact is all the optimiser remembers (it keeps no cache of results);
``clear_opt_cache`` makes every program optimise afresh by moving on the
epoch the fact is stamped with.

The enabled set is the ``passes`` argument (a sequence of pass names;
``("simplify", "cse", "dce")`` is the fusion ablation, ``()`` disables
everything) or, without one, all six.

Note that ``fuse`` is enabled only for *executed* programs: the AD entry
points optimise with ``AD_SAFE_PASSES`` (and ``unfuse_fun``) before
differentiating, because the reduce/scan/hist AD rules assume canonical
associative operators rather than fusion's redomap shapes.  ``tile`` is in
that set: it moves statements into a new ``map`` and indexes its result,
and builds no operator the AD rules do not already take, so ``vjp``,
``jvp`` and the primal all see the batched gates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Set, Tuple

from ..ir.ast import Fun, fact
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from .cse import cse_fun
from .dce import dce_fun
from .fission import fission_fun
from .fusion import fuse_fun, tile_fun
from .simplify import simplify_fun

__all__ = [
    "Pass",
    "registered_passes",
    "resolve_passes",
    "optimize_fun",
    "opt_stats",
    "reset_opt_stats",
    "clear_opt_cache",
    "AD_SAFE_PASSES",
]


@dataclass(frozen=True)
class Pass:
    """A named ``Fun -> Fun`` rewrite; ``fn`` returns its input (the object)
    when it rewrote nothing."""

    name: str
    fn: Callable[[Fun], Fun]


#: The passes, in execution order.
_PASSES: Tuple[Pass, ...] = (
    Pass("simplify", simplify_fun),  # copy propagation, folding, identities
    Pass("cse", cse_fun),  # common-subexpression elimination
    Pass("fission", fission_fun),  # split independent k-ary reduce/scan/hist
    Pass("tile", tile_fun),  # row-tiled sibling slices -> one map over iota(k·n)
    Pass("fuse", fuse_fun),  # vertical SOAC fusion
    Pass("dce", dce_fun),  # dead-code elimination
)
_NAMES = tuple(p.name for p in _PASSES)

#: The passes that are safe to run on a program that will be differentiated
#: again: everything except ``fuse`` (AD rules assume canonical operators,
#: which ``fission`` only produces more of and ``tile`` leaves as they are).
AD_SAFE_PASSES = ("simplify", "cse", "fission", "tile", "dce")

#: Per-pass counters: ``fired`` = invocations, ``changed`` = invocations
#: that returned a new object (attributed only in rounds that made net
#: progress; a round whose passes exactly cancel out counts as converged and
#: leaves ``changed`` untouched).  A pass hands back its input when it
#: rewrote nothing and never builds an equal copy of it, so "new object" and
#: "structurally different" are the same thing (``tests/test_opt_incremental``).
_PASS_STATS: Dict[str, Dict[str, int]] = {n: {"fired": 0, "changed": 0} for n in _NAMES}

#: Call counters: ``hits`` = calls that returned their input without firing
#: a pass, ``misses`` = calls that fired at least one (snapshot/reset
#: through the ``"opt"`` registry section below).
_CACHE_STATS = {"hits": 0, "misses": 0}

#: What ``clear_opt_cache`` moves on: a fixed-point fact counts only while
#: the epoch it was stamped with is the current one.
_EPOCH = 0

#: Fixed-point rounds per ``optimize_fun`` call.
ROUNDS = 3


def registered_passes() -> Tuple[Pass, ...]:
    """All passes, in execution order."""
    return _PASSES


def resolve_passes(passes: Optional[Sequence[str]] = None) -> Tuple[Pass, ...]:
    """The enabled passes in execution order (see module docstring)."""
    if passes is None:
        return _PASSES
    names = set(passes)
    unknown = names - set(_NAMES)
    if unknown:
        raise ValueError(
            f"unknown optimisation pass(es) {sorted(unknown)}; "
            f"registered: {list(_NAMES)}"
        )
    return tuple(p for p in _PASSES if p.name in names)


def _fixed_point_of(fun: Fun) -> Set[str]:
    """The passes this very object is known to be a fixed point of."""
    stamp = fact(fun, "_fixed_point_of", lambda _: [_EPOCH, set()])
    if stamp[0] != _EPOCH:
        stamp[:] = [_EPOCH, set()]
    return stamp[1]


def optimize_fun(fun: Fun, passes: Optional[Sequence[str]] = None) -> Fun:
    """Run the enabled passes to a fixed point (bounded by ``ROUNDS``)."""
    active = resolve_passes(passes)
    if not active:
        return fun
    converged = False
    fired = n = 0
    # Pass-boundary verification (ir/verify): "full" re-checks the IR after
    # every pass that produced a new program, attributing a violation to the
    # pass that fired; "boundary" checks once after the whole pipeline.
    # "off" costs this one lookup.
    from ..ir.verify import maybe_verify_fun, verify_fun, verify_mode

    vmode = verify_mode()
    with _obs_tracing.span("optimize", cat="compile", fun=fun.name) as sp:
        for n in range(1, ROUNDS + 1):
            start = fun
            moved = []
            for p in active:
                quiet = _fixed_point_of(fun)
                if p.name in quiet:
                    continue
                with _obs_tracing.span(f"opt:{p.name}", cat="opt", fun=fun.name) as psp:
                    out = p.fn(fun)
                    psp.note(changed=out is not fun)
                _PASS_STATS[p.name]["fired"] += 1
                fired += 1
                if out is fun:
                    quiet.add(p.name)
                    continue
                if vmode == "full":
                    verify_fun(out, where=f"opt:{p.name}", full=True)
                moved.append(p.name)
                fun = out
            # Nothing moved, or what moved cancelled out: ONE structural
            # comparison per round, and only for a round that built
            # something (shared subtrees compare by identity).
            if fun is start or fun == start:
                fun = start
                converged = True
                break
            for name in moved:
                _PASS_STATS[name]["changed"] += 1
        sp.note(rounds=n, converged=converged)
    _CACHE_STATS["misses" if fired else "hits"] += 1
    if vmode == "boundary" and fired:  # a call that fired nothing was checked before
        maybe_verify_fun(fun, where="optimize")
    return fun


def opt_stats() -> Dict[str, object]:
    """Per-pass fired/changed counters plus the call counters."""
    from .fission import fission_stats
    from .fusion import fusion_stats

    return {
        "passes": {n: dict(c) for n, c in _PASS_STATS.items()},
        "cache": dict(_CACHE_STATS),
        "enabled": tuple(p.name for p in resolve_passes()),
        "fusion": fusion_stats(),
        "fission": fission_stats(),
    }


def reset_opt_stats() -> None:
    """Zero every pass and call counter (the fixed-point facts are untouched)."""
    for c in _PASS_STATS.values():
        c["fired"] = c["changed"] = 0
    for k in _CACHE_STATS:
        _CACHE_STATS[k] = 0


def clear_opt_cache() -> None:
    """Forget every fixed-point fact: each program optimises afresh."""
    global _EPOCH
    _EPOCH += 1


def _obs_opt_snapshot() -> Dict[str, object]:
    # The registry section excludes the nested fusion/fission/enabled views
    # (those have their own sections; the enabled set is config, not a counter).
    return {
        "passes": {n: dict(c) for n, c in _PASS_STATS.items()},
        "cache": dict(_CACHE_STATS),
    }


_obs_metrics.register_source("opt", _obs_opt_snapshot, reset_opt_stats)
