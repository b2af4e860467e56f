"""Reduce fission: split k-ary ``reduce``/``scan``/``reduce_by_index``
statements into one SOAC per *independent component group*.

Forward-mode AD lifts every operator to dual numbers (``core/jvp.py``), so a
textbook ``reduce (+) 0 xs`` becomes one 2-ary reduce
``\\(a, ȧ, b, ḃ) -> (a+b, ȧ+ḃ)``.  The executors only recognise canonical
*single-result* operators (``exec/lower.py``), so that pair of sums would run
as the element-at-a-time generic fold.  Its two components never read each
other, though: splitting them yields two canonical ``add`` reduces, each on
the bulk ``ufunc`` strategy (and again fusable into a redomap).

Result ``i`` of the operator joins the group of every component ``j`` whose
``acc_j``/``elem_j`` parameter it transitively reads.  Each group keeps its
slice of ``nes``/``arrs`` (and the shared ``inds``/``num_bins``) and the
dead-code-eliminated slice of the operator body.  Genuinely coupled operators
— argmin ``(v, i)``, min-with-tangent — form a single group and are left
untouched.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..ir.ast import FOLDS, Body, Fun, Lambda, Stm, Var
from ..ir.traversal import free_vars_exp, map_bodies, same_body, with_body, with_exp
from ..obs import metrics as _obs_metrics
from .dce import dce_body

__all__ = ["fission_fun", "component_groups", "split_soac", "fission_stats"]

#: ``split`` = SOACs split, ``groups`` = SOACs they became, ``kept_coupled``
#: = k-ary SOACs left whole because every component is coupled.
FISSION_STATS = _obs_metrics.counter_group(
    "fission", {"split": 0, "groups": 0, "kept_coupled": 0}
)


def fission_stats() -> Dict[str, int]:
    return dict(FISSION_STATS)


def component_groups(lam: Lambda, k: int) -> List[Tuple[int, ...]]:
    """Partition the ``k`` components of a ``(k+k) -> k`` operator into
    groups that do not read each other (union-find over a def-use walk)."""
    reads: Dict[str, FrozenSet[int]] = {
        p.name: frozenset((j % k,)) for j, p in enumerate(lam.params)
    }
    for stm in lam.body.stms:
        # A nested body counts through its free variables, so a multi-result
        # statement conservatively couples everything it touches.
        used = frozenset().union(
            *(reads.get(n, frozenset()) for n in free_vars_exp(stm.exp))
        )
        for v in stm.pat:
            reads[v.name] = used

    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, r in enumerate(lam.body.result):
        if isinstance(r, Var):
            for j in reads.get(r.name, ()):
                parent[find(j)] = find(i)
    groups: Dict[int, List[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(g) for g in groups.values())


def split_soac(stm: Stm, groups: Sequence[Sequence[int]]) -> List[Stm]:
    """One statement per group of component indices of the k-ary SOAC
    ``stm``.  Sound only when no group reads another's parameters
    (``component_groups``); the verifier rejects anything else as a use of
    an unbound operator parameter."""
    e = stm.exp
    k = len(e.nes)
    out = []
    for g in groups:
        params = tuple(e.lam.params[j] for j in g) + tuple(
            e.lam.params[k + j] for j in g
        )
        body = dce_body(
            Body(e.lam.body.stms, tuple(e.lam.body.result[j] for j in g))
        )
        piece = replace(
            e,
            lam=Lambda(params, body),
            nes=tuple(e.nes[j] for j in g),
            arrs=tuple(e.arrs[j] for j in g),
        )
        out.append(Stm(tuple(stm.pat[j] for j in g), piece))
    return out


def _fission_body(body: Body) -> Body:
    stms: List[Stm] = []
    for stm in body.stms:
        stm = with_exp(stm, map_bodies(stm.exp, _fission_body))
        e = stm.exp
        if isinstance(e, FOLDS) and len(e.nes) > 1:
            groups = component_groups(e.lam, len(e.nes))
            if len(groups) > 1:
                FISSION_STATS["split"] += 1
                FISSION_STATS["groups"] += len(groups)
                stms.extend(split_soac(stm, groups))
                continue
            FISSION_STATS["kept_coupled"] += 1
        stms.append(stm)
    return same_body(body, stms, body.result)


def fission_fun(fun: Fun) -> Fun:
    return with_body(fun, _fission_body(fun.body))
