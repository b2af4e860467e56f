"""The optimisation pipeline: a registry of named passes with a fixed-point
driver.

Mirrors the paper's setup: a battery of standard simplifications runs both
before AD (the source program is "already heavily optimized by the compiler")
and after AD (where DCE is what eliminates the redundant forward sweeps of
perfectly-nested scopes, §4.1), plus the SOAC fusion engine that realises the
"AD rules tuned to preserve fusion opportunities" claim.

Pass framework
--------------

Passes are ``Fun -> Fun`` rewrites registered under a name with a default
enable flag (``register_pass``); the built-ins run in registry order:

* ``simplify`` — copy propagation, constant folding, algebraic identities;
* ``cse``      — common-subexpression elimination (cheap pure expressions);
* ``fission``  — split k-ary reduce/scan/hist into one SOAC per independent
  component group, so AD's dual-number sums lower to bulk ufunc kernels
  (``opt/fission.py``; ``REPRO_OPT_PASSES=-fission`` is the ablation);
* ``fuse``     — vertical/horizontal SOAC fusion (``opt/fusion.py``);
* ``dce``      — dead-code elimination.

``optimize_fun`` drives the enabled passes to a fixed point (bounded by
``rounds``) and keeps per-pass ``fired``/``changed`` counters, exposed
together with the memo-cache counters via ``opt_stats()``.

The driver works by identity.  What a pass promises (``register_pass``):
*return your input if you changed nothing* — the ``Fun`` object itself,
never an equal copy (``ir.traversal.map_bodies`` / ``same_body`` /
``with_body`` make that the natural way to write a body loop, and keep every
subtree a rewrite did not touch, with the facts on its nodes).  So a quiet
firing is ``out is fun``; ``changed`` counts the firings that returned a new
object; a round in which nothing moved ends the loop without comparing
trees; and a ``Fun`` that came through a quiet firing of pass *P* carries
that as a fact (``ir.ast.fact``), so no later call fires *P* on it again,
whatever its pass list — ``Compiled``'s full set after ``acc_opt``'s AD-safe
set, the AD-safe set on a ``Compiled``'s converged program.

The enabled set resolves, in order of precedence: the ``passes`` argument
(a sequence of pass names), the ``REPRO_OPT_PASSES`` environment variable,
the registry defaults.  ``REPRO_OPT_PASSES`` is a comma-separated list of
names to enable exactly (``REPRO_OPT_PASSES=simplify,cse,dce`` is the
fusion ablation; ``none`` disables everything); names prefixed with ``-``
subtract from the defaults instead (``REPRO_OPT_PASSES=-fuse``).

Note that ``fuse`` is enabled only for *executed* programs: the AD entry
points optimise with ``AD_SAFE_PASSES`` (and ``unfuse_fun``) before
differentiating, because the reduce/scan/hist AD rules assume canonical
associative operators rather than fusion's redomap shapes.

Memoisation
-----------

Results are memoised per input ``Fun`` (by object identity, with a strong
reference retained so ids cannot be recycled): the AD entry points and the
``Compiled`` wrapper optimise the same function objects repeatedly, and on
the hot path the memo turns those re-runs into dictionary lookups.
Converged outputs (fixed points of the pipeline) are registered as their own
results, so ``optimize_fun(optimize_fun(f))`` is free.  The memo is an LRU
bounded by ``REPRO_OPT_CACHE_SIZE`` entries (default 1024, ``0`` unbounded)
so the strong-ref pinning cannot leak every traced ``Fun`` in long sessions;
evictions are counted in ``opt_stats()``.  Entries never go stale (``Fun``
is immutable); ``clear_opt_cache`` drops everything eagerly.
"""
from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..ir.ast import Fun, fact
from ..obs import metrics as _obs_metrics, tracing as _obs_tracing
from ..util import BoundedLRU, env_capacity

__all__ = [
    "Pass",
    "register_pass",
    "registered_passes",
    "resolve_passes",
    "optimize_fun",
    "opt_stats",
    "reset_opt_stats",
    "clear_opt_cache",
    "PIPELINE",
    "AD_SAFE_PASSES",
]


@dataclass(frozen=True)
class Pass:
    """A named ``Fun -> Fun`` rewrite with a default enable flag; ``fn``
    returns its input (the object) when it rewrote nothing."""

    name: str
    fn: Callable[[Fun], Fun]
    default: bool = True
    doc: str = ""


_REGISTRY: "OrderedDict[str, Pass]" = OrderedDict()

#: Per-pass counters: ``fired`` = invocations, ``changed`` = invocations
#: that returned a new object (attributed only in rounds that made net
#: progress; a round whose passes exactly cancel out counts as converged and
#: leaves ``changed`` untouched).  A pass hands back its input when it
#: rewrote nothing and never builds an equal copy of it, so "new object" and
#: "structurally different" are the same thing (``tests/test_opt_incremental``).
_PASS_STATS: Dict[str, Dict[str, int]] = {}

#: Memo-cache counters (snapshot/reset through the ``"opt"`` registry
#: section below, together with the per-pass counters).
_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}

# key: (id of input Fun, rounds, enabled names)
#   -> (input Fun kept alive, optimised Fun)
_OPT_CACHE = BoundedLRU()

_DEFAULT_CACHE_SIZE = 1024


def register_pass(
    name: str, fn: Callable[[Fun], Fun], default: bool = True, doc: str = ""
) -> Pass:
    """Register (or replace) a named pass; returns the ``Pass`` record."""
    p = Pass(name, fn, default, doc)
    _REGISTRY[name] = p
    _PASS_STATS.setdefault(name, {"fired": 0, "changed": 0})
    return p


def registered_passes() -> Tuple[Pass, ...]:
    """All registered passes, in registry (execution) order."""
    return tuple(_REGISTRY.values())


def _parse_env(spec: str) -> Tuple[str, ...]:
    toks = [t.strip() for t in spec.split(",") if t.strip()]
    if not toks or toks == ["none"]:
        return ()
    removals = {t[1:] for t in toks if t.startswith("-")}
    adds = [t for t in toks if not t.startswith("-")]
    unknown = (set(adds) | removals) - set(_REGISTRY)
    if unknown:
        raise ValueError(
            f"REPRO_OPT_PASSES: unknown pass(es) {sorted(unknown)}; "
            f"registered: {list(_REGISTRY)}"
        )
    if adds:
        enabled = set(adds) - removals
    else:
        enabled = {p.name for p in _REGISTRY.values() if p.default} - removals
    return tuple(n for n in _REGISTRY if n in enabled)


def resolve_passes(passes: Optional[Sequence[str]] = None) -> Tuple[Pass, ...]:
    """The enabled passes in execution order (see module docstring)."""
    if passes is not None:
        unknown = set(passes) - set(_REGISTRY)
        if unknown:
            raise ValueError(
                f"unknown optimisation pass(es) {sorted(unknown)}; "
                f"registered: {list(_REGISTRY)}"
            )
        names = tuple(n for n in _REGISTRY if n in set(passes))
    else:
        env = os.environ.get("REPRO_OPT_PASSES")
        if env is not None:
            names = _parse_env(env)
        else:
            names = tuple(n for n, p in _REGISTRY.items() if p.default)
    return tuple(_REGISTRY[n] for n in names)


def _cache_put(key, src: Fun, out: Fun) -> None:
    cap = env_capacity("REPRO_OPT_CACHE_SIZE", _DEFAULT_CACHE_SIZE)
    _CACHE_STATS["evictions"] += _OPT_CACHE.put(key, (src, out), cap)


def optimize_fun(
    fun: Fun,
    rounds: int = 3,
    cache: bool = True,
    passes: Optional[Sequence[str]] = None,
) -> Fun:
    """Run the enabled passes to a fixed point (bounded by ``rounds``)."""
    active = resolve_passes(passes)
    if not active:
        return fun
    names = tuple(p.name for p in active)
    key = (id(fun), rounds, names)
    if cache:
        hit = _OPT_CACHE.get(key)
        if hit is not None and hit[0] is fun:
            _CACHE_STATS["hits"] += 1
            return hit[1]
        _CACHE_STATS["misses"] += 1

    src = fun
    converged = False
    n = 0
    # Pass-boundary verification (ir/verify): "full" re-checks the IR after
    # every pass that produced a new program, attributing a violation to the
    # pass that fired; "boundary" checks once after the whole pipeline.
    # "off" costs this one lookup.
    from ..ir.verify import maybe_verify_fun, verify_fun, verify_mode

    vmode = verify_mode()
    with _obs_tracing.span("optimize", cat="compile", fun=fun.name) as sp:
        for n in range(1, rounds + 1):
            start = fun
            moved = []
            for p in active:
                # The passes (by function: a name can be re-registered) this
                # very object is known to be a fixed point of.
                quiet = fact(fun, "_fixed_point_of", lambda _: set())
                if p.fn in quiet:
                    continue
                with _obs_tracing.span(f"opt:{p.name}", cat="opt", fun=fun.name) as psp:
                    out = p.fn(fun)
                    psp.note(changed=out is not fun)
                _PASS_STATS[p.name]["fired"] += 1
                if out is fun:
                    quiet.add(p.fn)
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
    if vmode == "boundary":
        maybe_verify_fun(fun, where="optimize")
    if cache:
        _cache_put(key, src, fun)
        if converged and fun is not src:
            # The pipeline is deterministic, so a converged output maps to
            # itself — make re-optimising the result a cache hit too.
            _cache_put((id(fun),) + key[1:], fun, fun)
    return fun


def opt_stats() -> Dict[str, object]:
    """Per-pass fired/changed counters plus memo-cache counters."""
    from .fission import fission_stats
    from .fusion import fusion_stats

    return {
        "passes": {n: dict(c) for n, c in _PASS_STATS.items()},
        "cache": {**_CACHE_STATS, "entries": len(_OPT_CACHE)},
        "enabled": tuple(p.name for p in resolve_passes()),
        "fusion": fusion_stats(),
        "fission": fission_stats(),
    }


def reset_opt_stats() -> None:
    """Zero every pass and cache counter (the cache itself is untouched)."""
    for c in _PASS_STATS.values():
        c["fired"] = c["changed"] = 0
    for k in _CACHE_STATS:
        _CACHE_STATS[k] = 0


def clear_opt_cache() -> None:
    """Drop all memoised optimisation results."""
    _OPT_CACHE.clear()


def _obs_opt_snapshot() -> Dict[str, object]:
    # The registry section excludes the nested fusion/fission/enabled views
    # (those have their own sections; the enabled set is config, not a counter).
    return {
        "passes": {n: dict(c) for n, c in _PASS_STATS.items()},
        "cache": {**_CACHE_STATS, "entries": len(_OPT_CACHE)},
    }


_obs_metrics.register_source("opt", _obs_opt_snapshot, reset_opt_stats)


# ---------------------------------------------------------------------------
# Built-in registry
# ---------------------------------------------------------------------------

from .simplify import simplify_fun  # noqa: E402
from .cse import cse_fun  # noqa: E402
from .fission import fission_fun  # noqa: E402
from .fusion import fuse_fun  # noqa: E402
from .dce import dce_fun  # noqa: E402

register_pass("simplify", simplify_fun, doc="copy-prop, folding, identities")
register_pass("cse", cse_fun, doc="common-subexpression elimination")
register_pass("fission", fission_fun, doc="split independent k-ary reduce/scan/hist")
register_pass("fuse", fuse_fun, doc="vertical/horizontal SOAC fusion")
register_pass("dce", dce_fun, doc="dead-code elimination")

#: Default pass order (kept for introspection/back-compat).
PIPELINE = tuple(_REGISTRY)

#: The passes that are safe to run on a program that will be differentiated
#: again: everything except ``fuse`` (AD rules assume canonical operators,
#: which ``fission`` only produces more of).
AD_SAFE_PASSES = ("simplify", "cse", "fission", "dce")
