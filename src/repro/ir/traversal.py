"""IR traversal utilities: free variables, substitution, alpha-renaming.

The reverse-AD transform duplicates bodies (redundant execution) and splices
statements between scopes, so it leans heavily on:

* ``free_vars(node)`` — ordered mapping of the free variables of a body /
  lambda / expression (paper Fig. 3's ``FV``);
* ``subst(node, mapping)`` — capture-avoiding substitution of free variables
  by atoms;
* ``refresh(node)`` — alpha-rename every binder to a fresh name (used when a
  body is copied so the program stays SSA).

Two conventions make the compile pipeline incremental without a cache:

* **facts live on the node.**  The free variables of an expression with a
  nested body are walked once per node object and kept on it
  (``ir.ast.fact``, context-free, first use first); every query —
  ``free_vars``, ``free_vars_exp``, ``exp_free_vars``, ``subst_exp``'s
  "does this touch it at all" — filters that tuple instead of re-walking
  bodies, so asking per statement per pass is linear in nesting depth, not
  quadratic;
* **a rewrite that changed nothing returns the object it was given.**
  ``map_bodies`` is the one recursion into nested scopes and hands back the
  node whose bodies all came back identical; ``with_exp`` / ``same_body`` /
  ``with_body`` do the same for statements, bodies and functions.  Untouched
  subtrees therefore survive from pass to pass with their facts, and a
  driver can test "did anything happen" with ``is``.
"""
from __future__ import annotations

import operator
from dataclasses import replace
from typing import Callable, Dict, Iterable, Iterator, Sequence, Set, Tuple

from ..util import fresh
from .ast import (
    AtomExp,
    Atom,
    BinOp,
    Body,
    Cast,
    Concat,
    Exp,
    Fun,
    If,
    Index,
    Iota,
    Lambda,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Replicate,
    Reverse,
    Scan,
    Scatter,
    ScratchLike,
    Select,
    Size,
    Stm,
    UnOp,
    UpdAcc,
    Update,
    Var,
    WhileLoop,
    WithAcc,
    ZerosLike,
    fact,
)

__all__ = [
    "exp_atoms",
    "exp_lambdas",
    "free_vars",
    "free_vars_exp",
    "subst",
    "subst_exp",
    "refresh_body",
    "refresh_lambda",
    "rename_var",
    "inline_lambda",
    "exp_free_vars",
    "NESTED",
    "map_stms",
    "map_bodies",
    "with_exp",
    "same_body",
    "with_body",
    "count_stms",
    "count_soacs",
    "all_bound_vars",
]


# ---------------------------------------------------------------------------
# Direct atom / lambda children of an expression
# ---------------------------------------------------------------------------


def exp_atoms(e: Exp) -> Iterator[Atom]:
    """Atoms directly referenced by ``e`` (excluding nested bodies/lambdas)."""
    if isinstance(e, AtomExp):
        yield e.x
    elif isinstance(e, UnOp):
        yield e.x
    elif isinstance(e, BinOp):
        yield e.x
        yield e.y
    elif isinstance(e, Select):
        yield e.c
        yield e.t
        yield e.f
    elif isinstance(e, Cast):
        yield e.x
    elif isinstance(e, Index):
        yield e.arr
        yield from e.idx
    elif isinstance(e, Update):
        yield e.arr
        yield from e.idx
        yield e.val
    elif isinstance(e, Iota):
        yield e.n
    elif isinstance(e, Replicate):
        yield e.n
        yield e.v
    elif isinstance(e, ZerosLike):
        yield e.x
    elif isinstance(e, ScratchLike):
        yield e.n
        yield e.x
    elif isinstance(e, Size):
        yield e.arr
    elif isinstance(e, Reverse):
        yield e.x
    elif isinstance(e, Concat):
        yield e.x
        yield e.y
    elif isinstance(e, Map):
        yield from e.arrs
        yield from e.accs
    elif isinstance(e, (Reduce, Scan)):
        yield from e.nes
        yield from e.arrs
    elif isinstance(e, ReduceByIndex):
        yield e.num_bins
        yield from e.nes
        yield e.inds
        yield from e.vals
    elif isinstance(e, Scatter):
        yield e.dest
        yield e.inds
        yield e.vals
    elif isinstance(e, Loop):
        yield from e.inits
        yield e.n
    elif isinstance(e, WhileLoop):
        yield from e.inits
        if e.bound is not None:
            yield e.bound
    elif isinstance(e, If):
        yield e.cond
    elif isinstance(e, WithAcc):
        yield from e.arrs
    elif isinstance(e, UpdAcc):
        yield e.acc
        yield from e.idx
        yield e.v
    else:  # pragma: no cover - exhaustiveness guard
        raise TypeError(f"exp_atoms: unknown expression {type(e).__name__}")


def exp_lambdas(e: Exp) -> Iterator[Lambda]:
    """Lambdas directly contained in ``e``."""
    if isinstance(e, Map):
        yield e.lam
    elif isinstance(e, (Reduce, Scan)):
        yield e.lam
    elif isinstance(e, ReduceByIndex):
        yield e.lam
    elif isinstance(e, WhileLoop):
        yield e.cond
    elif isinstance(e, WithAcc):
        yield e.lam


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


#: The expression kinds that contain a body.
NESTED = frozenset({Map, Reduce, Scan, ReduceByIndex, Loop, WhileLoop, If, WithAcc})


def _fv_body(body: Body, bound: Set[str], out: Dict[str, Var]) -> None:
    """``bound`` is this body's own scope and grows as statements bind."""
    for stm in body.stms:
        _fv_exp(stm.exp, bound, out)
        bound.update(v.name for v in stm.pat)
    for a in body.result:
        if isinstance(a, Var) and a.name not in bound and a.name not in out:
            out[a.name] = a


def _fv_lambda(lam: Lambda, out: Dict[str, Var]) -> None:
    _fv_body(lam.body, {p.name for p in lam.params}, out)


def _fv_nested(e: Exp) -> Tuple[Var, ...]:
    """The one from-scratch walk of a nested expression: its free variables
    with nothing bound around it, in first-use order (its children answer
    from their own fact)."""
    out: Dict[str, Var] = {}
    for a in exp_atoms(e):
        if isinstance(a, Var):
            out.setdefault(a.name, a)
    for lam in exp_lambdas(e):
        _fv_lambda(lam, out)
    if isinstance(e, Loop):
        _fv_body(e.body, {p.name for p in e.params} | {e.ivar.name}, out)
    elif isinstance(e, WhileLoop):
        _fv_body(e.body, {p.name for p in e.params}, out)
    elif isinstance(e, If):
        _fv_body(e.then, set(), out)
        _fv_body(e.els, set(), out)
    return tuple(out.values())


def exp_free_vars(e: Exp) -> Iterable[Var]:
    """The variables free in ``e``, first use first.  A nested expression
    answers from the fact on the node — a name is free in it under ``bound``
    iff it is free in it under nothing and not in ``bound``, first uses in
    the same order — so asking again never re-walks its bodies; a leaf yields
    its variable atoms as they stand (one may repeat)."""
    if type(e) in NESTED:
        return fact(e, "_fv", _fv_nested)
    return (a for a in exp_atoms(e) if isinstance(a, Var))


def _fv_exp(e: Exp, bound, out: Dict[str, Var]) -> None:
    for a in exp_free_vars(e):
        if a.name not in bound and a.name not in out:
            out[a.name] = a


def free_vars(node) -> Dict[str, Var]:
    """Ordered ``name -> Var`` mapping of the free variables of ``node``.

    ``node`` may be a Body, Lambda, or Fun.  Order is first-use order, which
    keeps generated code deterministic.
    """
    out: Dict[str, Var] = {}
    if isinstance(node, Body):
        _fv_body(node, set(), out)
    elif isinstance(node, Lambda):
        _fv_lambda(node, out)
    elif isinstance(node, Fun):
        _fv_body(node.body, {p.name for p in node.params}, out)
    else:
        raise TypeError(f"free_vars: unsupported node {type(node).__name__}")
    return out


def free_vars_exp(e: Exp) -> Dict[str, Var]:
    """Ordered free variables of a single expression."""
    out: Dict[str, Var] = {}
    _fv_exp(e, (), out)
    return out


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

Mapping = Dict[str, Atom]


def _sub_atom(a: Atom, m: Mapping) -> Atom:
    if isinstance(a, Var) and a.name in m:
        return m[a.name]
    return a


def _sub_var(v: Var, m: Mapping) -> Var:
    """Substitute a position that syntactically requires a Var."""
    r = _sub_atom(v, m)
    if not isinstance(r, Var):
        raise TypeError(f"cannot substitute constant into Var position {v.name}")
    return r


def subst_exp(e: Exp, m: Mapping) -> Exp:
    """Capture-avoiding substitution of free variables in ``e``; ``e`` itself
    when none of its free variables is in ``m``."""
    if not m or not any(a.name in m for a in exp_free_vars(e)):
        return e
    s = lambda a: _sub_atom(a, m)  # noqa: E731
    sv = lambda v: _sub_var(v, m)  # noqa: E731
    if isinstance(e, AtomExp):
        return AtomExp(s(e.x))
    if isinstance(e, UnOp):
        return UnOp(e.op, s(e.x))
    if isinstance(e, BinOp):
        return BinOp(e.op, s(e.x), s(e.y))
    if isinstance(e, Select):
        return Select(s(e.c), s(e.t), s(e.f))
    if isinstance(e, Cast):
        return Cast(s(e.x), e.to)
    if isinstance(e, Index):
        return Index(sv(e.arr), tuple(s(i) for i in e.idx))
    if isinstance(e, Update):
        return Update(sv(e.arr), tuple(s(i) for i in e.idx), s(e.val))
    if isinstance(e, Iota):
        return Iota(s(e.n), e.elem)
    if isinstance(e, Replicate):
        return Replicate(s(e.n), s(e.v))
    if isinstance(e, ZerosLike):
        return ZerosLike(s(e.x))
    if isinstance(e, ScratchLike):
        return ScratchLike(s(e.n), s(e.x))
    if isinstance(e, Size):
        return Size(sv(e.arr), e.dim)
    if isinstance(e, Reverse):
        return Reverse(sv(e.x))
    if isinstance(e, Concat):
        return Concat(sv(e.x), sv(e.y))
    if isinstance(e, Map):
        return Map(
            _sub_lambda(e.lam, m),
            tuple(sv(a) for a in e.arrs),
            tuple(sv(a) for a in e.accs),
        )
    if isinstance(e, Reduce):
        return Reduce(_sub_lambda(e.lam, m), tuple(s(a) for a in e.nes), tuple(sv(a) for a in e.arrs))
    if isinstance(e, Scan):
        return Scan(_sub_lambda(e.lam, m), tuple(s(a) for a in e.nes), tuple(sv(a) for a in e.arrs))
    if isinstance(e, ReduceByIndex):
        return ReduceByIndex(
            s(e.num_bins),
            _sub_lambda(e.lam, m),
            tuple(s(a) for a in e.nes),
            sv(e.inds),
            tuple(sv(a) for a in e.vals),
        )
    if isinstance(e, Scatter):
        return Scatter(sv(e.dest), sv(e.inds), sv(e.vals))
    if isinstance(e, Loop):
        inner = {k: v for k, v in m.items()}
        for p in e.params:
            inner.pop(p.name, None)
        inner.pop(e.ivar.name, None)
        return Loop(
            e.params,
            tuple(s(a) for a in e.inits),
            e.ivar,
            s(e.n),
            _sub_body(e.body, inner),
            e.stripmine,
            e.checkpoint,
        )
    if isinstance(e, WhileLoop):
        inner = {k: v for k, v in m.items()}
        for p in e.params:
            inner.pop(p.name, None)
        return WhileLoop(
            e.params,
            tuple(s(a) for a in e.inits),
            _sub_lambda(e.cond, m),
            _sub_body(e.body, inner),
            None if e.bound is None else s(e.bound),
        )
    if isinstance(e, If):
        return If(s(e.cond), _sub_body(e.then, m), _sub_body(e.els, m))
    if isinstance(e, WithAcc):
        return WithAcc(tuple(sv(a) for a in e.arrs), _sub_lambda(e.lam, m))
    if isinstance(e, UpdAcc):
        return UpdAcc(sv(e.acc), tuple(s(i) for i in e.idx), s(e.v))
    raise TypeError(f"subst_exp: unknown expression {type(e).__name__}")


def _sub_lambda(lam: Lambda, m: Mapping) -> Lambda:
    inner = {k: v for k, v in m.items()}
    for p in lam.params:
        inner.pop(p.name, None)
    return Lambda(lam.params, _sub_body(lam.body, inner))


def _sub_body(body: Body, m: Mapping) -> Body:
    if not m:
        return body
    m = dict(m)
    stms = []
    for stm in body.stms:
        stms.append(with_exp(stm, subst_exp(stm.exp, m)))
        for v in stm.pat:
            m.pop(v.name, None)
    return same_body(body, stms, tuple(_sub_atom(a, m) for a in body.result))


def subst(node, m: Mapping):
    """Substitute free variables in a Body or Lambda."""
    if isinstance(node, Body):
        return _sub_body(node, m)
    if isinstance(node, Lambda):
        return _sub_lambda(node, m)
    raise TypeError(f"subst: unsupported node {type(node).__name__}")


# ---------------------------------------------------------------------------
# Alpha renaming (refreshing binders)
# ---------------------------------------------------------------------------


def rename_var(v: Var) -> Var:
    return Var(fresh(v.name), v.type)


def _refresh_exp(e: Exp, m: Mapping) -> Exp:
    """Refresh binders inside ``e`` while substituting ``m`` for free vars."""
    e = subst_exp(e, m)
    if isinstance(e, Map):
        return Map(refresh_lambda(e.lam), e.arrs, e.accs)
    if isinstance(e, Reduce):
        return Reduce(refresh_lambda(e.lam), e.nes, e.arrs)
    if isinstance(e, Scan):
        return Scan(refresh_lambda(e.lam), e.nes, e.arrs)
    if isinstance(e, ReduceByIndex):
        return ReduceByIndex(e.num_bins, refresh_lambda(e.lam), e.nes, e.inds, e.vals)
    if isinstance(e, Loop):
        new_params = tuple(rename_var(p) for p in e.params)
        new_ivar = rename_var(e.ivar)
        inner: Mapping = {p.name: np for p, np in zip(e.params, new_params)}
        inner[e.ivar.name] = new_ivar
        return Loop(new_params, e.inits, new_ivar, e.n, refresh_body(e.body, inner), e.stripmine, e.checkpoint)
    if isinstance(e, WhileLoop):
        new_params = tuple(rename_var(p) for p in e.params)
        inner = {p.name: np for p, np in zip(e.params, new_params)}
        cond_m = {p.name: np for p, np in zip(e.cond.params, new_params)}
        new_cond = Lambda(new_params, refresh_body(e.cond.body, cond_m))
        return WhileLoop(new_params, e.inits, new_cond, refresh_body(e.body, inner), e.bound)
    if isinstance(e, If):
        return If(e.cond, refresh_body(e.then, {}), refresh_body(e.els, {}))
    if isinstance(e, WithAcc):
        return WithAcc(e.arrs, refresh_lambda(e.lam))
    return e


def refresh_body(body: Body, m: Mapping | None = None) -> Body:
    """Alpha-rename every binder in ``body``; apply ``m`` to its free vars."""
    m = dict(m or {})
    stms = []
    for stm in body.stms:
        exp = _refresh_exp(stm.exp, m)
        new_pat = tuple(rename_var(v) for v in stm.pat)
        for v, nv in zip(stm.pat, new_pat):
            m[v.name] = nv
        stms.append(Stm(new_pat, exp))
    result = tuple(_sub_atom(a, m) for a in body.result)
    return Body(tuple(stms), result)


def refresh_lambda(lam: Lambda) -> Lambda:
    new_params = tuple(rename_var(p) for p in lam.params)
    m: Mapping = {p.name: np for p, np in zip(lam.params, new_params)}
    return Lambda(new_params, refresh_body(lam.body, m))


def inline_lambda(lam: Lambda, args: Iterable[Atom]) -> Body:
    """The body of ``lam`` with every binder refreshed and each parameter
    bound to the corresponding atom of ``args``.

    This is beta-reduction for our syntactic lambdas — the workhorse of the
    fusion engine, which splices producer bodies into consumer element
    functions.  Refreshing keeps the spliced copy SSA-unique even when the
    same lambda is inlined more than once.
    """
    args = tuple(args)
    if len(args) != len(lam.params):
        raise ValueError(
            f"inline_lambda: {len(lam.params)} parameters, {len(args)} arguments"
        )
    return refresh_body(lam.body, {p.name: a for p, a in zip(lam.params, args)})


# ---------------------------------------------------------------------------
# Misc structural helpers
# ---------------------------------------------------------------------------


def map_stms(body: Body, f: Callable[[Stm], Iterable[Stm]]) -> Body:
    """Rebuild ``body`` by expanding each statement through ``f`` (shallow)."""
    out = []
    for stm in body.stms:
        out.extend(f(stm))
    return Body(tuple(out), body.result)


def with_exp(stm: Stm, e: Exp) -> Stm:
    """``stm`` binding ``e`` instead — ``stm`` itself if it already does."""
    return stm if e is stm.exp else Stm(stm.pat, e)


def same_body(body: Body, stms: Sequence[Stm], result: Tuple[Atom, ...]) -> Body:
    """``body`` itself when ``stms`` are its own statement objects and
    ``result`` its result, else the new ``Body`` — how a rewrite's body loop
    ends, so that what it left alone keeps its identity (and its facts)."""
    if (
        len(stms) == len(body.stms)
        and all(map(operator.is_, stms, body.stms))
        and result == body.result
    ):
        return body
    return Body(tuple(stms), result)


def with_body(fun: Fun, body: Body) -> Fun:
    """``fun`` with ``body`` — ``fun`` itself if that is its body already."""
    return fun if body is fun.body else Fun(fun.name, fun.params, body)


def _with_lam_body(lam: Lambda, body: Body) -> Lambda:
    return lam if body is lam.body else Lambda(lam.params, body)


def map_bodies(e: Exp, f: Callable[[Body], Body]) -> Exp:
    """``e`` with ``f`` applied to each directly nested body, every other
    field kept — and ``e`` itself when ``f`` handed every body back.  This is
    the one recursion into nested scopes: a ``Body -> Body`` rewrite calls it
    per statement and stays identity-preserving for free."""
    if isinstance(e, (Map, Reduce, Scan, ReduceByIndex, WithAcc)):
        lam = _with_lam_body(e.lam, f(e.lam.body))
        return e if lam is e.lam else replace(e, lam=lam)
    if isinstance(e, Loop):
        body = f(e.body)
        return e if body is e.body else replace(e, body=body)
    if isinstance(e, WhileLoop):
        cond, body = _with_lam_body(e.cond, f(e.cond.body)), f(e.body)
        return e if cond is e.cond and body is e.body else replace(e, cond=cond, body=body)
    if isinstance(e, If):
        then, els = f(e.then), f(e.els)
        return e if then is e.then and els is e.els else If(e.cond, then, els)
    return e


def count_stms(node) -> int:
    """Total number of statements in a node, recursively (for tests)."""
    if isinstance(node, Fun):
        return count_stms(node.body)
    if isinstance(node, Lambda):
        return count_stms(node.body)
    if isinstance(node, Body):
        n = 0
        for stm in node.stms:
            n += 1 + count_stms_exp(stm.exp)
        return n
    raise TypeError(type(node).__name__)


def count_stms_exp(e: Exp) -> int:
    n = 0
    for lam in exp_lambdas(e):
        n += count_stms(lam.body)
    if isinstance(e, Loop):
        n += count_stms(e.body)
    elif isinstance(e, WhileLoop):
        n += count_stms(e.body)
    elif isinstance(e, If):
        n += count_stms(e.then) + count_stms(e.els)
    return n


def count_soacs(node) -> int:
    """Total number of SOAC statements (map/reduce/scan/hist/scatter) in a
    node, recursively — the fusion engine's progress metric."""
    if isinstance(node, Fun):
        return count_soacs(node.body)
    if isinstance(node, Lambda):
        return count_soacs(node.body)
    if not isinstance(node, Body):
        raise TypeError(type(node).__name__)
    n = 0
    for stm in node.stms:
        e = stm.exp
        if isinstance(e, (Map, Reduce, Scan, ReduceByIndex, Scatter)):
            n += 1
        for lam in exp_lambdas(e):
            n += count_soacs(lam.body)
        if isinstance(e, (Loop, WhileLoop)):
            n += count_soacs(e.body)
        elif isinstance(e, If):
            n += count_soacs(e.then) + count_soacs(e.els)
    return n


def all_bound_vars(node) -> Dict[str, Var]:
    """All variables bound anywhere inside a node (params, pats, ivars)."""
    out: Dict[str, Var] = {}

    def body(b: Body) -> None:
        for stm in b.stms:
            for v in stm.pat:
                out[v.name] = v
            exp(stm.exp)

    def lam(l: Lambda) -> None:
        for p in l.params:
            out[p.name] = p
        body(l.body)

    def exp(e: Exp) -> None:
        for l in exp_lambdas(e):
            lam(l)
        if isinstance(e, Loop):
            for p in e.params:
                out[p.name] = p
            out[e.ivar.name] = e.ivar
            body(e.body)
        elif isinstance(e, WhileLoop):
            for p in e.params:
                out[p.name] = p
            body(e.body)
        elif isinstance(e, If):
            body(e.then)
            body(e.els)

    if isinstance(node, Fun):
        for p in node.params:
            out[p.name] = p
        body(node.body)
    elif isinstance(node, Body):
        body(node)
    elif isinstance(node, Lambda):
        lam(node)
    else:
        raise TypeError(type(node).__name__)
    return out
