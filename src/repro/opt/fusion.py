"""SOAC fusion engine.

The paper notes its AD rules were "tuned to preserve fusion opportunities";
this pass realises them.  Covered cases, all on producer ``map``s with no
accumulators whose results have exactly one consumer statement:

* **vertical map→map** — the producer is inlined into the consumer's element
  function, eliminating the intermediate arrays;
* **vertical map→reduce / map→scan / map→hist** — the producer's element
  function is folded into the (single-operand) consumer's operator, yielding
  a *redomap*-shaped SOAC: a ``(1+m) -> 1`` lambda of the form
  ``\\acc x.. -> acc `op` g(x..)``.  These shapes are accepted by the
  typechecker, recognised by the executors
  (``ir.analysis.recognize_redomap_lambda``) so the bulk ufunc fast paths
  survive fusion, and split back into ``map`` + canonical operator by
  ``unfuse_fun`` before AD (whose reduce/scan/hist rules assume associative
  operators).

Sibling maps are not merged (horizontal fusion): on the batched executor a
map body costs the same merged or not.

Safety conditions per case: no accumulators on the producer, a single
consumer statement, results consumed only in element-array positions
(``arrs``/``vals`` — never free in the consumer lambda, its neutral
elements, or its index array), and — for the redomap cases — the fused
operator must round-trip through ``recognize_redomap_lambda`` so it stays
both fast and un-fusable.  Applied bottom-up and to a fixed point by the
pass pipeline driver.

**Tiling** (``tile_fun``, its own pass, AD-safe, before ``fuse``) batches
sibling slices instead of merging SOACs.  In ``map (λu. …) iota(n)`` with a
literal ``n``, it takes the largest k ≥ 2 statement slices ``S_g`` such that:
``S_g`` reads ``u`` only through ``t_g = c_g + u`` (``offset_step``, with
``t_0 = u``); the slices are alpha-equal once ``t_g`` is renamed to one
``r``; the offsets are exactly ``{0, n, …, (k−1)·n}``; each slice holds a
SOAC; and whatever else a slice reads is bound outside the map or is a
body-local statement that does not depend on ``u`` (copied along).  It emits
``gs = map (λr. S_0[u := r]) iota(k·n)`` before the map and reads each
slice's results as ``gs[t_g]``.  The k instances cover ``[0, k·n)`` once
each, so no element is computed twice and no new index is read.  On the
LSTM the slice is each gate's pre-activation, so a weight matrix becomes
one contraction per step, and its adjoint one more.  Alpha-equality asks
for shared free names, so the pass relies on CSE having run.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..ir.analysis import ir_hash, offset_step, recognize_redomap_lambda
from ..ir.ast import (
    BinOp,
    Body,
    Const,
    Exp,
    Fun,
    Index,
    Iota,
    Lambda,
    Map,
    Reduce,
    ReduceByIndex,
    Scan,
    Stm,
    Var,
)
from ..ir.traversal import (
    count_soacs,
    free_vars,
    free_vars_exp,
    inline_lambda,
    map_bodies,
    refresh_lambda,
    rename_var,
    same_body,
    subst_exp,
    with_body,
    with_exp,
)
from ..ir.types import elem_type, rank_of, with_rank
from ..obs import metrics as _obs_metrics
from ..util import ADError, fresh

__all__ = [
    "fuse_fun",
    "fuse_body",
    "tile_fun",
    "unfuse_fun",
    "unfuse_body",
    "fusion_stats",
    "reset_fusion_stats",
]


#: Fusion counters: candidates that fused, by direction.  Reset via
#: ``reset_fusion_stats``.  ``horizontal`` stays 0 (sibling maps are not
#: merged); it is kept only because ``bench/staged.py`` reads it.
FUSE_STATS = _obs_metrics.counter_group("fusion", {"vertical": 0, "horizontal": 0})


def fusion_stats() -> Dict[str, int]:
    return dict(FUSE_STATS)


def reset_fusion_stats() -> None:
    FUSE_STATS.reset()


def _uses_in_body(stms: List[Stm], result) -> Dict[str, int]:
    """Total number of syntactic uses of each name in a body (a statement
    counts once per name, nested bodies included)."""
    names = [n for stm in stms for n in free_vars_exp(stm.exp)]
    names += [a.name for a in result if isinstance(a, Var)]
    return Counter(names)


# ---------------------------------------------------------------------------
# Vertical fusion
# ---------------------------------------------------------------------------


def _splice(
    prod_stm: Stm,
    cons_lam: Lambda,
    cons_arrs: Tuple[Var, ...],
    n_lead: int,
) -> Optional[Tuple[Tuple[Var, ...], Body, Tuple[Var, ...]]]:
    """Inline a producer map into a consumer element function.

    ``cons_lam``'s parameters are ``n_lead`` leading non-element parameters
    (reduce/scan/hist accumulators) followed by one element parameter per
    array of ``cons_arrs`` and, optionally, trailing extras (map
    accumulators).  Returns ``(params, body, arrs)`` for the fused lambda:
    consumer element parameters fed by the producer are replaced by the
    producer's (spliced, refreshed) results, driven by the producer's own
    arrays and parameters.
    """
    prod = prod_stm.exp
    assert isinstance(prod, Map) and not prod.accs
    if not prod.arrs:
        return None
    produced = {v.name: i for i, v in enumerate(prod_stm.pat)}
    if not any(a.name in produced for a in cons_arrs):
        return None
    pparams = tuple(rename_var(p) for p in prod.lam.params)
    pbody = inline_lambda(prod.lam, pparams)
    lead = tuple(rename_var(p) for p in cons_lam.params[:n_lead])
    elem_params = cons_lam.params[n_lead:n_lead + len(cons_arrs)]
    extra = tuple(rename_var(p) for p in cons_lam.params[n_lead + len(cons_arrs):])
    args: List = list(lead)
    keep_arrs: List[Var] = []
    keep_params: List[Var] = []
    for a, p in zip(cons_arrs, elem_params):
        if a.name in produced:
            args.append(pbody.result[produced[a.name]])
        else:
            np_ = rename_var(p)
            keep_arrs.append(a)
            keep_params.append(np_)
            args.append(np_)
    args.extend(extra)
    try:
        cbody = inline_lambda(cons_lam, args)
    except TypeError:
        # A producer result was a constant consumed in a Var-only position.
        return None
    params = lead + pparams + tuple(keep_params) + extra
    body = Body(pbody.stms + cbody.stms, cbody.result)
    return params, body, tuple(prod.arrs) + tuple(keep_arrs)


def _fuse_vertical(prod_stm: Stm, cons: Exp) -> Optional[Exp]:
    """The fused consumer expression, or None if the pair cannot fuse."""
    if isinstance(cons, Map):
        sp = _splice(prod_stm, cons.lam, cons.arrs, 0)
        if sp is None:
            return None
        params, body, arrs = sp
        return Map(Lambda(params, body), arrs, cons.accs)
    if isinstance(cons, (Reduce, Scan)):
        if len(cons.nes) != 1:
            return None
        sp = _splice(prod_stm, cons.lam, cons.arrs, 1)
        if sp is None:
            return None
        params, body, arrs = sp
        lam = Lambda(params, body)
        # Gate: the fused operator must stay recognisable so the executors
        # keep their bulk fast path and unfuse_fun can split it before AD.
        if recognize_redomap_lambda(lam) is None:
            return None
        return Reduce(lam, cons.nes, arrs) if isinstance(cons, Reduce) else Scan(
            lam, cons.nes, arrs
        )
    if isinstance(cons, ReduceByIndex):
        if len(cons.nes) != 1:
            return None
        sp = _splice(prod_stm, cons.lam, cons.vals, 1)
        if sp is None:
            return None
        params, body, vals = sp
        lam = Lambda(params, body)
        if recognize_redomap_lambda(lam) is None:
            return None
        return ReduceByIndex(cons.num_bins, lam, cons.nes, cons.inds, vals)
    return None


def _consumable_positions(e: Exp) -> Optional[Tuple[Var, ...]]:
    """The element-array variables of a fusable consumer (None otherwise)."""
    if isinstance(e, Map):
        return e.arrs
    if isinstance(e, (Reduce, Scan)):
        return e.arrs
    if isinstance(e, ReduceByIndex):
        return e.vals
    return None


def _forbidden_names(e: Exp) -> Set[str]:
    """Names a producer result may NOT occupy in a fusable consumer: every
    position other than the element arrays (free in the lambda, neutral
    elements, accumulators, index array, bin count)."""
    out: Set[str] = set(free_vars(e.lam))
    if isinstance(e, Map):
        out |= {a.name for a in e.accs}
        return out
    out |= {a.name for a in e.nes if isinstance(a, Var)}
    if isinstance(e, ReduceByIndex):
        out.add(e.inds.name)
        if isinstance(e.num_bins, Var):
            out.add(e.num_bins.name)
    return out


def _vertical_step(stms: List[Stm], uses: Dict[str, int]) -> bool:
    """Perform one vertical fusion in ``stms`` (in place); True if fused."""
    for i, stm in enumerate(stms):
        e = stm.exp
        if not isinstance(e, Map) or e.accs or not e.arrs:
            continue
        if not all(uses.get(v.name, 0) == 1 for v in stm.pat):
            continue
        names = {v.name for v in stm.pat}
        consumer_idx = None
        for j in range(i + 1, len(stms)):
            used = {v.name for v in free_vars_exp(stms[j].exp).values()}
            if used & names:
                if consumer_idx is not None:
                    consumer_idx = None
                    break
                consumer_idx = j
        if consumer_idx is None:
            continue
        ce = stms[consumer_idx].exp
        arrs = _consumable_positions(ce)
        if arrs is None:
            continue
        # Results may only be consumed as element arrays — never free in the
        # consumer's lambdas, neutral elements, index array or bin count —
        # and each at most one array position (conservative).
        if _forbidden_names(ce) & names:
            continue
        if sum(1 for a in arrs if a.name in names) != len(names):
            continue
        fused = _fuse_vertical(stm, ce)
        if fused is None:
            continue
        stms[consumer_idx] = Stm(stms[consumer_idx].pat, fused)
        del stms[i]
        FUSE_STATS["vertical"] += 1
        return True
    return False


# ---------------------------------------------------------------------------
# Tiling: row-tiled sibling slices become one map over iota(k·n)
# ---------------------------------------------------------------------------


def _alpha_key(stm: Stm) -> Tuple[Tuple[str, ...], str]:
    """``stm`` up to the names it binds: the names it reads, and a hash that
    numbers its binders (``ir_hash`` over the reads as parameters)."""
    fv = sorted(free_vars_exp(stm.exp).values(), key=lambda v: v.name)
    return tuple(v.name for v in fv), ir_hash(Fun("stm", tuple(fv), Body((stm,), ())))


def _tile_map(stm: Stm, iotas: Dict[str, Iota]) -> Optional[List[Stm]]:
    """``[iota, gs = map (λr. S_0[u := r]) iota(k·n), stm']`` when the body
    of ``stm = map (λu. …) iota(n)`` holds k ≥ 2 alpha-equal slices, slice g
    reading ``u`` only through ``t_g = g·n + u`` and holding a SOAC; ``stm'``
    reads each slice's results as ``gs[t_g]``.  None when nothing tiles."""
    e = stm.exp
    if e.accs or len(e.arrs) != 1 or e.arrs[0].name not in iotas:
        return None
    (u,), body = e.lam.params, e.lam.body
    offs: Dict[str, int] = {u.name: 0}
    roots = {u.name: u}
    for s in body.stms:
        step = offset_step(s.exp)
        if step and step[0].name in offs:
            offs[s.pat[0].name] = offs[step[0].name] + step[1]
            roots[s.pat[0].name] = s.pat[0]
    n, k = int(iotas[e.arrs[0].name].n.value), len(offs)
    if k < 2 or sorted(offs.values()) != [g * n for g in range(k)]:
        return None
    deps: Dict[str, frozenset] = {}  # body-local name -> the roots it reads
    for s in body.stms:
        if not (s.pat and s.pat[0].name in roots):
            d = frozenset().union(
                *(deps.get(x, {x} if x in offs else ()) for x in free_vars_exp(s.exp))
            )
            deps.update((v.name, d) for v in s.pat)
    ts = sorted(offs, key=offs.__getitem__)
    slices = [[s for s in body.stms if s.pat and deps.get(s.pat[0].name) == {t}] for t in ts]
    if not count_soacs(Body(tuple(slices[0]), ())):
        return None
    # The largest common slice: S_0's statements in order, each matched to an
    # alpha-equal statement of every S_g.  One reading an unmatched statement
    # of S_0 keeps its name under ``rho[g]``, which no statement of S_g reads.
    pools: List[Dict[tuple, List[Stm]]] = [{} for _ in ts]
    for g in range(1, k):
        for s in slices[g]:
            pools[g].setdefault(_alpha_key(s), []).append(s)
    rho: List[Dict[str, Var]] = [{u.name: roots[t]} for t in ts]
    common: List[List[Stm]] = [[] for _ in ts]
    for s in slices[0]:
        keys = [_alpha_key(Stm(s.pat, subst_exp(s.exp, rho[g]))) for g in range(1, k)]
        if not all(pools[g].get(key) for g, key in enumerate(keys, 1)):
            continue
        matched = [s] + [pools[g][key].pop(0) for g, key in enumerate(keys, 1)]
        for c, r, s_g in zip(common, rho, matched):
            c.append(s_g)
            r.update((p.name, q) for p, q in zip(s.pat, s_g.pat))
    if not count_soacs(Body(tuple(common[0]), ())):
        return None
    dropped = {id(s) for c in common for s in c}
    used = {a.name for a in body.result if isinstance(a, Var)}
    for s in body.stms:
        if id(s) not in dropped:
            used.update(free_vars_exp(s.exp))
    outs = [v for s in common[0] for v in s.pat if any(r[v.name].name in used for r in rho)]
    if not outs:
        return None
    # Body-local statements the slice reads that do not depend on ``u``.
    need = set().union(*(free_vars_exp(s.exp) for s in common[0]))
    inv: List[Stm] = []
    for s in reversed(body.stms):
        if s.pat and deps.get(s.pat[0].name) == frozenset() and need & {v.name for v in s.pat}:
            inv.insert(0, s)
            need.update(free_vars_exp(s.exp))
    iota = iotas[e.arrs[0].name]
    big = Var(fresh("tile_is"), e.arrs[0].type)
    gs = [Var(fresh("tile"), with_rank(elem_type(v.type), rank_of(v.type) + 1)) for v in outs]
    lam = refresh_lambda(Lambda((u,), Body(tuple(inv + common[0]), tuple(outs))))
    where = {r[v.name].name: Index(a, (roots[t],))
             for r, t in zip(rho, ts) for v, a in zip(outs, gs)}
    stms: List[Stm] = []
    for s in body.stms:
        if id(s) not in dropped:
            stms.append(s)
        else:  # the slice's results read from ``gs``; DCE drops the dead reads
            stms.extend(Stm((p,), where[p.name]) for p in s.pat if p.name in where)
    return [
        Stm((big,), Iota(Const(k * n, iota.n.type), iota.elem)),
        Stm(tuple(gs), Map(lam, (big,))),
        Stm(stm.pat, Map(Lambda((u,), Body(tuple(stms), body.result)), e.arrs)),
    ]


def _tile_body(body: Body, iotas: Dict[str, Iota]) -> Body:
    def nested(b: Body) -> Body:  # sees the literal iotas bound so far
        return _tile_body(b, iotas)

    out: List[Stm] = []
    for stm in body.stms:
        stm = with_exp(stm, map_bodies(stm.exp, nested))
        e = stm.exp
        if type(e) is Iota and type(e.n) is Const:
            iotas = {**iotas, stm.pat[0].name: e}
        tiled = _tile_map(stm, iotas) if type(e) is Map else None
        out.extend(tiled or (stm,))
    return same_body(body, out, body.result)


def tile_fun(fun: Fun) -> Fun:
    """Hoist row-tiled sibling slices of a ``map`` over ``iota(n)`` into one
    map over ``iota(k·n)`` (see the module docstring)."""
    return with_body(fun, _tile_body(fun.body, {}))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def fuse_body(body: Body) -> Body:
    stms = list(body.stms)
    changed = True
    while changed:
        uses = _uses_in_body(stms, body.result)
        changed = _vertical_step(stms, uses)
    out = [with_exp(stm, map_bodies(stm.exp, fuse_body)) for stm in stms]
    return same_body(body, out, body.result)


def fuse_fun(fun: Fun) -> Fun:
    return with_body(fun, fuse_body(fun.body))


# ---------------------------------------------------------------------------
# Unfusion (before AD)
# ---------------------------------------------------------------------------


def _is_trivial_map_part(mlam: Lambda) -> bool:
    """True for ``\\x -> x`` map parts (a canonical binop operator)."""
    return (
        not mlam.body.stms
        and len(mlam.params) == 1
        and isinstance(mlam.body.result[0], Var)
        and mlam.body.result[0].name == mlam.params[0].name
    )


def _unfuse_redomap(stm: Stm) -> List[Stm]:
    """Split a redomap-shaped reduce/scan/hist back into map + canonical op."""
    e = stm.exp
    if not isinstance(e, (Reduce, Scan, ReduceByIndex)) or len(e.nes) != 1:
        return [stm]
    arrs = e.vals if isinstance(e, ReduceByIndex) else e.arrs
    canonical = len(arrs) == 1 and len(e.lam.params) == 2
    rm = recognize_redomap_lambda(e.lam)
    if rm is None:
        if canonical:
            return [stm]
        raise ADError(
            f"AD requires canonical (k+k) -> k {type(e).__name__} operators; "
            f"this ({len(e.nes)}+{len(arrs)}) -> {len(e.nes)} operator is not "
            "redomap-shaped (\\acc x.. -> acc `op` g(x..)), so it cannot be "
            "split into map + canonical operator — rewrite it that way to "
            "differentiate it"
        )
    op, mlam = rm
    if canonical and _is_trivial_map_part(mlam):
        return [stm]
    v = mlam.body.result[0]
    et = v.type
    tvar = Var(fresh("fusx"), with_rank(et, rank_of(et) + 1))
    map_stm = Stm((tvar,), Map(mlam, arrs))
    acc = Var(fresh("fusa"), et)
    x = Var(fresh("fusb"), et)
    r = Var(fresh("fusr"), et)
    op_lam = Lambda((acc, x), Body((Stm((r,), BinOp(op, acc, x)),), (r,)))
    if isinstance(e, Reduce):
        new: Exp = Reduce(op_lam, e.nes, (tvar,))
    elif isinstance(e, Scan):
        new = Scan(op_lam, e.nes, (tvar,))
    else:
        new = ReduceByIndex(e.num_bins, op_lam, e.nes, e.inds, (tvar,))
    return [map_stm, Stm(stm.pat, new)]


def unfuse_body(body: Body) -> Body:
    out: List[Stm] = []
    for stm in body.stms:
        out.extend(_unfuse_redomap(with_exp(stm, map_bodies(stm.exp, unfuse_body))))
    return same_body(body, out, body.result)


def unfuse_fun(fun: Fun) -> Fun:
    """Split every redomap-shaped SOAC back into ``map`` + canonical operator.

    The AD entry points run this before differentiating: the reduce/scan/
    hist rules assume canonical associative operators, which fusion's
    redomap shapes are not.  Fusion re-fuses the AD output afterwards —
    exactly the "AD preserves fusion opportunities" round trip of the paper.
    """
    return with_body(fun, unfuse_body(fun.body))
