"""IR traversal utilities: free variables, substitution, alpha-renaming.

The reverse-AD transform duplicates bodies (redundant execution) and splices
statements between scopes, so it leans heavily on:

* ``free_vars(node)`` — ordered mapping of the free variables of a body /
  lambda / expression (paper Fig. 3's ``FV``);
* ``subst(node, mapping)`` — capture-avoiding substitution of free variables
  by atoms;
* ``refresh(node)`` — alpha-rename every binder to a fresh name (used when a
  body is copied so the program stays SSA).

Three conventions keep this module short and the compile pipeline
incremental without a cache:

* **the shape is read off the declaration.**  Which fields of an expression
  kind are uses, ``Var``-only uses, binders, lambdas, bodies or statics is
  derived once, at import, from the annotations of the frozen dataclasses in
  ``ir.ast``; ``exp_atoms``, ``exp_lambdas``, ``scopes``, ``NESTED``, every
  structural walk here, the SSA walk, the type walk and ``ir_hash`` read that
  table, in declaration order.  To add a node kind: declare the dataclass,
  add it to ``ast.Exp``, write its semantic arms (``infer_exp_types``,
  ``validate``, ``pretty``, the AD rules, ``interp``, ``lower``) — no edit
  here, unless a ``Var`` field *binds* (``_BINDERS``); an annotation the
  table cannot classify fails the import;
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
from dataclasses import fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    get_args,
    get_type_hints,
)

from ..util import fresh
from . import ast
from .ast import (
    Atom,
    Body,
    Exp,
    Fun,
    Lambda,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Scan,
    Scatter,
    Stm,
    Var,
    WhileLoop,
    fact,
)
from .types import Scalar

__all__ = [
    "exp_atoms",
    "exp_lambdas",
    "scopes",
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
    "map_bodies",
    "with_exp",
    "same_body",
    "with_body",
    "count_stms",
    "count_soacs",
    "all_bound_vars",
]


# ---------------------------------------------------------------------------
# The shape of every expression kind, read off its declaration
# ---------------------------------------------------------------------------

#: The one fact the annotations cannot carry: which ``Var`` fields *bind*.
_BINDERS = frozenset({(Loop, "params"), (Loop, "ivar"), (WhileLoop, "params")})

_USE, _VAR, _BIND, _LAM, _BODY, _STATIC = "use", "var", "bind", "lam", "body", "static"

#: annotation -> (role, the field holds a tuple of them).  ``_VAR`` is a use
#: that syntactically requires a ``Var``; a ``None`` in an optional use is no
#: use; statics are fed to ``ir_hash`` by ``repr`` and otherwise carried.
_ROLES = {
    Atom: (_USE, False),
    Optional[Atom]: (_USE, False),
    Tuple[Atom, ...]: (_USE, True),
    Var: (_VAR, False),
    Tuple[Var, ...]: (_VAR, True),
    Lambda: (_LAM, False),
    Body: (_BODY, False),
    str: (_STATIC, False),
    int: (_STATIC, False),
    Scalar: (_STATIC, False),
}


class _Shape(NamedTuple):
    """One expression kind; every tuple is in declaration order."""

    fields: Tuple[Tuple[str, str, bool], ...]  # (name, role, many), all fields
    uses: Tuple[Tuple[str, bool], ...]  # (name, many) of the _USE / _VAR fields
    binds: Tuple[Tuple[str, bool], ...]  # (name, many) of the _BIND fields
    nested: Tuple[Tuple[str, str], ...]  # (name, role) of the _LAM / _BODY fields


def _shape_of(cls) -> _Shape:
    hints = get_type_hints(cls, vars(ast))
    out = []
    for f in fields(cls):
        if hints[f.name] not in _ROLES:
            raise TypeError(
                f"ir.traversal: cannot classify field {cls.__name__}.{f.name}: "
                f"{hints[f.name]!r} is not a use, a lambda, a body or a static"
            )
        role, many = _ROLES[hints[f.name]]
        if (cls, f.name) in _BINDERS:
            role = _BIND
        out.append((f.name, role, many))
    return _Shape(
        tuple(out),
        tuple((n, many) for n, role, many in out if role in (_USE, _VAR)),
        tuple((n, many) for n, role, many in out if role is _BIND),
        tuple((n, role) for n, role, _ in out if role in (_LAM, _BODY)),
    )


_SHAPES = {cls: _shape_of(cls) for cls in get_args(Exp)}

#: The expression kinds that contain a body.
NESTED = frozenset(cls for cls, sh in _SHAPES.items() if sh.nested)


def exp_atoms(e: Exp) -> Iterator[Atom]:
    """Atoms directly referenced by ``e`` (excluding nested bodies/lambdas)."""
    for name, many in _SHAPES[type(e)].uses:
        x = getattr(e, name)
        if many:
            yield from x
        elif x is not None:
            yield x


def exp_lambdas(e: Exp) -> Iterator[Lambda]:
    """Lambdas directly contained in ``e``."""
    return (getattr(e, name) for name, role in _SHAPES[type(e)].nested if role is _LAM)


def _binders(e: Exp) -> Tuple[Var, ...]:
    """The variables ``e`` itself binds over its bodies."""
    out: Tuple[Var, ...] = ()
    for name, many in _SHAPES[type(e)].binds:
        out += getattr(e, name) if many else (getattr(e, name),)
    return out


def scopes(e: Exp) -> Tuple[Tuple[Tuple[Var, ...], Body], ...]:
    """``(binders, body)`` of every scope directly nested in ``e``: a lambda
    binds its parameters over its body, a body field sees what the node
    itself binds (``Loop``: ``params`` and ``ivar``; ``If``: nothing)."""
    own = _binders(e)
    out = []
    for name, role in _SHAPES[type(e)].nested:
        x = getattr(e, name)
        out.append((x.params, x.body) if role is _LAM else (own, x))
    return tuple(out)


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def _fv_body(body: Body, bound: Set[str], out: Dict[str, Var]) -> None:
    """``bound`` is this body's own scope and grows as statements bind."""
    for stm in body.stms:
        _fv_exp(stm.exp, bound, out)
        bound.update(v.name for v in stm.pat)
    for a in body.result:
        if isinstance(a, Var) and a.name not in bound and a.name not in out:
            out[a.name] = a


def _fv_nested(e: Exp) -> Tuple[Var, ...]:
    """The one from-scratch walk of a nested expression: its free variables
    with nothing bound around it, in first-use order (its children answer
    from their own fact)."""
    out: Dict[str, Var] = {}
    for a in exp_atoms(e):
        if isinstance(a, Var):
            out.setdefault(a.name, a)
    for binders, body in scopes(e):
        _fv_body(body, {p.name for p in binders}, out)
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
    elif isinstance(node, (Lambda, Fun)):
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


def _minus(m: Mapping, binders: Iterable[Var]) -> Mapping:
    """``m`` without the names ``binders`` bind."""
    bound = {p.name for p in binders}
    return {k: a for k, a in m.items() if k not in bound}


def subst_exp(e: Exp, m: Mapping) -> Exp:
    """Capture-avoiding substitution of free variables in ``e``; ``e`` itself
    when none of its free variables is in ``m``."""
    if not m or not any(a.name in m for a in exp_free_vars(e)):
        return e
    changes: Dict[str, Any] = {}
    for name, role, many in _SHAPES[type(e)].fields:
        x = getattr(e, name)
        if role is _USE or role is _VAR:
            sub = _sub_atom if role is _USE else _sub_var
            if many:
                changes[name] = tuple(sub(a, m) for a in x)
            elif x is not None:
                changes[name] = sub(x, m)
        elif role is _LAM:
            changes[name] = _sub_lambda(x, m)
        elif role is _BODY:
            changes[name] = _sub_body(x, _minus(m, _binders(e)))
    return replace(e, **changes)


def _sub_lambda(lam: Lambda, m: Mapping) -> Lambda:
    return Lambda(lam.params, _sub_body(lam.body, _minus(m, lam.params)))


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
    sh = _SHAPES[type(e)]
    if not sh.nested:
        return e
    inner: Mapping = {p.name: rename_var(p) for p in _binders(e)}
    changes: Dict[str, Any] = {}
    for name, many in sh.binds:
        x = getattr(e, name)
        changes[name] = tuple(inner[p.name] for p in x) if many else inner[x.name]
    for name, role in sh.nested:
        x = getattr(e, name)
        if role is _BODY:
            changes[name] = refresh_body(x, inner)
        elif isinstance(e, WhileLoop):
            # ``cond``'s parameters *are* the loop's binders: the same new names.
            new = changes["params"]
            cond_m = {p.name: q for p, q in zip(x.params, new)}
            changes[name] = Lambda(new, refresh_body(x.body, cond_m))
        else:
            changes[name] = refresh_lambda(x)
    return replace(e, **changes)


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
    changes: Dict[str, Any] = {}
    for name, role in _SHAPES[type(e)].nested:
        x = getattr(e, name)
        new = f(x) if role is _BODY else _with_lam_body(x, f(x.body))
        if new is not x:
            changes[name] = new
    return replace(e, **changes) if changes else e


def _body_of(node) -> Body:
    if isinstance(node, (Fun, Lambda)):
        return node.body
    if isinstance(node, Body):
        return node
    raise TypeError(type(node).__name__)


def count_stms(node) -> int:
    """Total number of statements in a node, recursively (for tests)."""
    n = 0
    for stm in _body_of(node).stms:
        n += 1 + sum(count_stms(body) for _, body in scopes(stm.exp))
    return n


def count_soacs(node) -> int:
    """Total number of SOAC statements (map/reduce/scan/hist/scatter) in a
    node, recursively — the fusion engine's progress metric."""
    n = 0
    for stm in _body_of(node).stms:
        n += isinstance(stm.exp, (Map, Reduce, Scan, ReduceByIndex, Scatter))
        n += sum(count_soacs(body) for _, body in scopes(stm.exp))
    return n


def all_bound_vars(node) -> Dict[str, Var]:
    """All variables bound anywhere inside a node (params, pats, ivars)."""
    out: Dict[str, Var] = {}

    def walk(binders: Iterable[Var], body: Body) -> None:
        for p in binders:
            out[p.name] = p
        for stm in body.stms:
            for v in stm.pat:
                out[v.name] = v
            for inner in scopes(stm.exp):
                walk(*inner)

    body = _body_of(node)
    walk(() if node is body else node.params, body)
    return out
