"""Adjoint bookkeeping for the reverse-mode transform.

The paper keeps an environment mapping each program variable to its adjoint
(§4.2, omitted from Fig. 3 for readability); ``AdjScope`` is that
environment for one lexical scope of the return sweep.  Adjoints are SSA:
every contribution binds a fresh variable (``a_bar' = a_bar + c``).

Array adjoints come in two modes:

* **value mode** — an ordinary array, updated with whole-array adds or
  functional index updates;
* **accumulator mode** (paper §5.4) — inside a ``map``'s return sweep, the
  adjoint of a free array is an accumulator; contributions become ``UpdAcc``
  (operationally ``atomicAdd``).  ``acc_env`` maps original variable names to
  their current accumulator variable and is shared across nested scopes.

A value-mode adjoint may also be a **pending one-hot**: the min/max rule
(``rules_fold``) gives ȳ to one element only, its *hot lane* ``iy``, and
when the reduced array is the result of a ``map`` of this scope read by that
reduce alone, the rule records ``(iy, ȳ)`` instead of building the dense
one-hot array.  ``rules_map.rev_map`` of the defining statement takes it
(``take_one_hot``) and differentiates that one lane; every other reader —
``lookup``, ``add``, ``add_at``, ``final`` — materialises it first, as the
one-hot map the rule would have built.
"""
from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.ast import Atom, Body, Const, Exp, Lambda, Map, Size, Var
from ..ir.builder import Builder, const
from ..ir import traversal
from ..ir.traversal import exp_free_vars
from ..ir.types import I64, ArrayType, elem_type, is_float, rank_of
from ..util import ADError, fresh

__all__ = ["AdjScope", "inline_lambda", "one_hot", "sum_leading_axis"]


def inline_lambda(b: Builder, lam: Lambda, args: Sequence[Atom]) -> Tuple[Atom, ...]:
    """Splice a (refreshed) copy of ``lam``'s body into ``b`` with its
    parameters bound to ``args``; returns the result atoms."""
    body = traversal.inline_lambda(lam, args)
    b.extend(body.stms)
    return body.result


def sum_leading_axis(b: Builder, arr: Var) -> Var:
    """Sum an array over its leading axis (any rank ≥ 1), used e.g. for the
    adjoint of ``replicate`` and the §6.1 rewrites.

    Emitted as a single ``reduce`` whose elements are the (rank-1) rows and
    whose operator is the rank-polymorphic elementwise ``+`` — the backends
    turn this into one dense ``np.add.reduce`` (a vectorised segmented sum,
    the kernel shape the paper's block/register-tiling pass targets)."""
    rank = rank_of(arr.type)
    et = elem_type(arr.type)
    elem_t = et if rank == 1 else ArrayType(et, rank - 1)
    a1 = Var(fresh("a"), elem_t)
    a2 = Var(fresh("b"), elem_t)
    lb = Builder()
    s = lb.add(a1, a2, "s")
    lam = Lambda((a1, a2), lb.finish([s]))
    if rank == 1:
        ne = const(0.0, et)
    else:
        # Neutral element: a zero row.  (These rewrites only run on arrays
        # with at least one row; guarded by construction.)
        r0 = b.index(arr, (const(0, I64),), "r0")
        ne = b.zeros_like(r0)
    return b.reduce(lam, [ne], [arr], names=["sum"])[0]


def one_hot(b: Builder, idxs: Var, iy: Atom, ybar: Atom) -> Var:
    """``map (λi. if i == iy then ȳ else 0) idxs``: the dense adjoint of a
    min/max reduce whose hot lane is ``iy`` (all zeros when ``iy`` is past
    the end), as cheap as the copy an update would make."""
    i = Var(fresh("i"), I64)
    ob = Builder()
    at = ob.binop("eq", i, iy, "at")
    cv = ob.select(at, ybar, const(0.0, ybar.type), "cv")
    (contrib,) = b.map(Lambda((i,), ob.finish([cv])), [idxs], names=["c"])
    return contrib


class AdjScope:
    """Adjoint environment for one scope of the return sweep.  ``body`` is
    the primal scope being differentiated, when there is one; the one-hot
    deferral asks it who binds and who reads what (``bound_by``,
    ``sole_map_read``)."""

    def __init__(
        self,
        b: Builder,
        acc_env: Dict[str, Var],
        init: Optional[Dict[str, Atom]] = None,
        nodiff: Optional[set] = None,
        body: Optional[Body] = None,
    ) -> None:
        self.b = b
        self.adj: Dict[str, Atom] = dict(init or {})
        self.acc_env = acc_env
        self.nodiff = nodiff if nodiff is not None else set()
        self.body = body
        #: Pending one-hots: name -> ``(idxs, iy, ȳ)``.
        self.hot: Dict[str, Tuple[Var, Var, Atom]] = {}
        self._reads: Counter = Counter()
        self._defs: Optional[Dict[str, Exp]] = None

    # -- queries ------------------------------------------------------------

    def has(self, v: Var) -> bool:
        """Has ``v`` received a value-mode contribution in this scope?"""
        return v.name in self.adj or v.name in self.hot

    def lookup(self, v: Var) -> Atom:
        """Current adjoint of ``v`` (zeros if none yet).  Value mode only."""
        if v.name in self.acc_env:
            raise ADError(f"adjoint of {v.name} is an accumulator; cannot read it")
        self._settle(v)
        a = self.adj.get(v.name)
        if a is None:
            a = self.b.zeros_like(v, name=v.name + "_bar")
            self.adj[v.name] = a
        return a

    def set(self, v: Var, a: Atom) -> None:
        self.adj[v.name] = a

    def bound_by(self, v: Var) -> Optional[Exp]:
        """The expression binding ``v`` in this scope's body, if it does."""
        self._index_body()
        return self._defs.get(v.name)

    def sole_map_read(self, v: Var) -> bool:
        """Is ``v`` bound by a ``map`` of this scope's body, and read by
        exactly one of its statements and not returned?"""
        return isinstance(self.bound_by(v), Map) and self._reads[v.name] == 1

    def _index_body(self) -> None:
        """Who binds and how many statements read each name, once."""
        if self._defs is not None:
            return
        self._defs = {}
        if self.body is None:
            return
        for stm in self.body.stms:
            self._reads.update({a.name for a in exp_free_vars(stm.exp)})
            self._defs.update((p.name, stm.exp) for p in stm.pat)
        self._reads.update(a.name for a in self.body.result if isinstance(a, Var))

    # -- pending one-hots -----------------------------------------------------

    def defer_one_hot(self, v: Var, idxs: Var, iy: Var, ybar: Atom) -> None:
        """``v̄ += one_hot(idxs, iy, ȳ)``, kept as ``(iy, ȳ)`` until read.
        ``v`` has no adjoint yet (``sole_map_read``)."""
        self.hot[v.name] = (idxs, iy, ybar)

    def take_one_hot(self, vs: Sequence[Var]) -> Optional[Tuple[Var, List[Optional[Atom]]]]:
        """``(iy, ȳs)`` when every ``v`` of ``vs`` with an adjoint has a
        pending one-hot, at one ``iy`` (and at least one has): ``ȳs`` holds
        each ``v``'s ȳ, None where it has no adjoint.  The one-hots are
        consumed; None (and nothing consumed) otherwise."""
        hots = [self.hot.get(v.name) for v in vs]
        if any(h is None and v.name in self.adj for v, h in zip(vs, hots)):
            return None
        if len({h[1].name for h in hots if h is not None}) != 1:
            return None
        for v, h in zip(vs, hots):
            if h is not None:
                del self.hot[v.name]
        iy = next(h[1] for h in hots if h is not None)
        return iy, [None if h is None else h[2] for h in hots]

    def _settle(self, v: Var) -> None:
        """Materialise ``v``'s pending one-hot, if it has one."""
        h = self.hot.pop(v.name, None)
        if h is not None:
            self.add(v, one_hot(self.b, *h))

    # -- contributions ----------------------------------------------------------

    def add(self, v: Atom, contrib: Atom) -> None:
        """``v̄ += contrib`` (whole value).

        Contributions of higher rank than the target (a broadcast operand)
        are summed over the broadcast (leading) axes; lower-rank
        contributions broadcast in the add (or are replicated when the
        target is an accumulator, which needs exact rank).
        """
        if isinstance(v, Const) or not is_float(v.type):
            return
        assert isinstance(v, Var)
        if v.name in self.nodiff:
            return
        self._settle(v)
        while rank_of(contrib.type) > rank_of(v.type):
            if not isinstance(contrib, Var):
                raise ADError("cannot reduce a constant contribution")
            contrib = sum_leading_axis(self.b, contrib)
        if v.name in self.acc_env:
            acc = self.acc_env[v.name]
            c = self._match_rank(v, contrib)
            self.acc_env[v.name] = self.b.upd_acc(acc, (), c, acc.name)
            return
        cur = self.adj.get(v.name)
        if cur is None:
            # First contribution: bind directly (the +0 is folded away).
            if rank_of(contrib.type) < rank_of(v.type):
                contrib = self._match_rank(v, contrib)
            self.adj[v.name] = self.b.copy(contrib, v.name + "_bar")
        else:
            self.adj[v.name] = self.b.add(cur, contrib, v.name + "_bar")

    def add_at(self, v: Var, idx: Tuple[Atom, ...], contrib: Atom) -> None:
        """``v̄[idx] += contrib`` — the ``upd`` of §4.2."""
        if not is_float(v.type) or v.name in self.nodiff:
            return
        if v.name in self.acc_env:
            acc = self.acc_env[v.name]
            self.acc_env[v.name] = self.b.upd_acc(acc, idx, contrib, acc.name)
            return
        cur = self.lookup(v)
        assert isinstance(cur, Var)
        old = self.b.index(cur, idx, "old")
        s = self.b.add(old, contrib, "s")
        self.adj[v.name] = self.b.update(cur, idx, s, v.name + "_bar")

    # -- helpers ---------------------------------------------------------------

    def _match_rank(self, v: Var, contrib: Atom) -> Atom:
        """Replicate a low-rank contribution up to ``v``'s rank (whole-array
        accumulator updates need exact rank; broadcasting handles the rest)."""
        want = rank_of(v.type)
        have = rank_of(contrib.type)
        if have == want:
            return contrib
        if have > want:
            raise ADError(f"contribution rank {have} exceeds target rank {want}")
        out = contrib
        # Broadcast by replication along each missing leading axis of v.
        for d in range(want - have - 1, -1, -1):
            n = self.b.emit1(Size(v, d), "n")
            out = self.b.replicate(n, out, "repc")
        return out

    def final(self, v: Var) -> Atom:
        """Adjoint of ``v`` at scope exit (zeros if never contributed)."""
        if v.name in self.acc_env:
            raise ADError(f"{v.name} is accumulated; no value-mode adjoint")
        return self.lookup(v)
