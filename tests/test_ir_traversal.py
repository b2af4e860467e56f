"""Free variables, substitution, refreshing — and the shape table they read,
checked against an oracle that walks the dataclasses itself."""
import dataclasses
from collections import Counter
from typing import Dict, Tuple, get_args, get_type_hints

import numpy as np
import pytest

import repro as rp
from repro.ir import (
    Builder,
    F64,
    Fun,
    Lambda,
    Var,
    array,
    ast,
    check_fun,
    free_vars,
    refresh_body,
    subst,
    traversal,
)
from repro.ir.analysis import ir_hash
from repro.ir.ast import (
    AtomExp, BinOp, Body, Cast, Concat, Const, If, Index, Iota, Loop, Map, Reduce, ReduceByIndex,
    Replicate, Reverse, Scan, Scatter, ScratchLike, Select, Size, Stm, UnOp, UpdAcc, Update,
    WhileLoop, WithAcc, ZerosLike,
)
from repro.ir.traversal import (
    all_bound_vars, count_stms, exp_atoms, map_bodies, rename_var, scopes, subst_exp,
)
from repro.ir.types import BOOL, F32, I32, I64, AccType
from repro.exec import run_fun
from helpers import cold_programs
from test_fuzz_programs import _gen_program


def _map_with_free_var():
    """map (\\x -> x * w) xs — w free in the lambda."""
    b = Builder()
    xs = Var("xs", array(F64, 1))
    w = Var("w", F64)
    x = Var("x", F64)
    lb = Builder()
    y = lb.mul(x, w, "y")
    lam = Lambda((x,), lb.finish([y]))
    (out,) = b.map(lam, [xs], names=["out"])
    return Fun("f", (xs, w), b.finish([out])), lam


def test_free_vars_of_lambda():
    fun, lam = _map_with_free_var()
    fvs = free_vars(lam)
    assert list(fvs) == ["w"]


def test_free_vars_of_fun_empty():
    fun, _ = _map_with_free_var()
    assert free_vars(fun) == {}


def test_subst_respects_shadowing():
    # Substituting the lambda's bound name must not touch its body.
    fun, lam = _map_with_free_var()
    w2 = Var("w2", F64)
    lam2 = subst(lam, {"w": w2})
    assert "w2" in free_vars(lam2)
    lam3 = subst(lam, {"x": w2})  # x is bound; no effect
    assert lam3 == lam


def test_refresh_preserves_semantics():
    fun, _ = _map_with_free_var()
    body2 = refresh_body(fun.body)
    fun2 = Fun("f2", fun.params, body2)
    check_fun(fun2)
    xs = np.arange(4.0)
    r1 = run_fun(fun, [xs, 3.0])
    r2 = run_fun(fun2, [xs, 3.0])
    np.testing.assert_allclose(r1[0], r2[0])


def test_refresh_renames_binders():
    fun, _ = _map_with_free_var()
    before = set(all_bound_vars(fun))
    body2 = refresh_body(fun.body)
    after = set(all_bound_vars(Fun("f2", fun.params, body2))) - {p.name for p in fun.params}
    # No stale binder names survive (params excluded).
    stale = (before - {p.name for p in fun.params}) & after
    assert not stale


def test_count_stms():
    fun, _ = _map_with_free_var()
    assert count_stms(fun) == 2  # the map + the lambda's mul


# ---------------------------------------------------------------------------
# The shape table against an oracle that reads the dataclasses itself
# ---------------------------------------------------------------------------

A, AI = array(F64, 1), array(I64, 1)
x, y, c, n, i = Var("x", F64), Var("y", F64), Var("c", BOOL), Var("n", I64), Var("i", I64)
xs, ys, inds, acc = Var("xs", A), Var("ys", A), Var("inds", AI), Var("acc", AccType(F64, 1))
p, q, r = Var("p", F64), Var("q", F64), Var("r", F64)
ONE = Const(1.0, F64)


def _lam(params, *result):
    return Lambda(tuple(params), Body((), tuple(result)))


#: One instance of every expression kind; each nested body uses a free
#: variable (``y`` / ``n``) beside its own binders.
KINDS = {e.__class__: e for e in (
    AtomExp(x), UnOp("sin", x), BinOp("add", x, ONE), Select(c, x, y), Cast(x, F32),
    Index(xs, (i,)), Update(xs, (i,), x), Iota(n, I32), Replicate(n, x), ZerosLike(xs),
    ScratchLike(n, xs), Size(xs, 1), Reverse(xs), Concat(xs, ys),
    Map(_lam((p, acc), acc, y), (xs,), (acc,)),
    Reduce(_lam((p, q), y), (ONE,), (xs,)),
    Scan(_lam((p, q), y), (x,), (xs,)),
    ReduceByIndex(n, _lam((p, q), y), (ONE,), inds, (xs,)),
    Scatter(xs, inds, ys),
    Loop((p,), (x,), i, n, Body((Stm((r,), BinOp("mul", p, y)),), (r,)), 16),
    WhileLoop((p,), (x,), _lam((p,), c), Body((), (y,)), n),
    If(c, Body((), (x,)), Body((Stm((r,), UnOp("neg", y)),), (r,))),
    WithAcc((xs,), _lam((acc,), acc, y)),
    UpdAcc(acc, (i,), x),
)}

BINDERS = {(Loop, "params"), (Loop, "ivar"), (WhileLoop, "params")}


def test_every_kind_has_an_instance_and_a_shape():
    assert set(KINDS) == set(get_args(ast.Exp)) == set(traversal._SHAPES)


def _reach(node) -> Counter:
    """Every ``Var`` / ``Const`` occurrence under ``node``, found by walking
    ``dataclasses.fields`` — no traversal function, no shape table."""
    if isinstance(node, (Var, Const)):
        return Counter([node])
    if isinstance(node, tuple):
        return sum((_reach(v) for v in node), Counter())
    if dataclasses.is_dataclass(node):
        return _reach(tuple(getattr(node, f.name) for f in dataclasses.fields(node)))
    return Counter()


def _accounted(e) -> Counter:
    out = Counter(exp_atoms(e))
    for binders, body in scopes(e):
        out += Counter(binders) + _reach(body)
    return out


def _stms(body: Body):
    for stm in body.stms:
        yield stm
        for _, inner in scopes(stm.exp):
            yield from _stms(inner)


@pytest.fixture(scope="module")
def corpus() -> Dict[str, Fun]:
    """Primal and derivative of the nine cold programs, and value / grad /
    jvp of sixty generated ones."""
    out = {}
    for name, (build_ir, derive) in cold_programs().items():
        fc = rp.compile(build_ir())
        out[name], out[name + "/d"] = fc.fun, derive(fc).fun
    for seed in range(60):
        vs = np.random.default_rng(seed).standard_normal(5)
        fc = rp.compile(rp.trace_like(_gen_program(seed), (vs,), name=f"fuzz{seed}"))
        out[f"fuzz{seed}"] = fc.fun
        out[f"fuzz{seed}/grad"], out[f"fuzz{seed}/jvp"] = rp.grad(fc).adfun.fun, rp.jvp(fc).fun
    return out


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_atoms_and_scopes_account_for_every_occurrence_once(kind):
    e = KINDS[kind]
    assert _accounted(e) == _reach(e)
    assert (kind in traversal.NESTED) == bool(scopes(e))


def test_corpus_statements_are_accounted_for(corpus):
    seen = Counter()
    for fun in corpus.values():
        for stm in _stms(fun.body):
            assert _accounted(stm.exp) == _reach(stm.exp), stm
            seen[type(stm.exp)] += 1
    assert len(seen) >= 18, sorted(k.__name__ for k in seen)  # the corpus is not three kinds


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_subst_that_touches_nothing_returns_the_node(kind):
    e = KINDS[kind]
    assert subst_exp(e, {}) is e
    assert subst_exp(e, {"nobody": ONE}) is e
    if kind in traversal.NESTED:  # what is bound in the node is not free in it
        assert subst_exp(e, {"p": ONE, "q": ONE, "r": ONE}) is e


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_const_into_a_var_only_field_raises(kind):
    e = KINDS[kind]
    hints = get_type_hints(kind, vars(ast))
    for f in dataclasses.fields(kind):
        if (kind, f.name) in BINDERS or hints[f.name] not in (Var, Tuple[Var, ...]):
            continue
        v = getattr(e, f.name)
        name = (v[0] if isinstance(v, tuple) else v).name
        with pytest.raises(TypeError, match=f"Var position {name}"):
            subst_exp(e, {name: ONE})


def test_const_into_an_atom_field_substitutes():
    assert subst_exp(KINDS[Index], {"i": ONE}) == Index(xs, (ONE,))
    assert subst_exp(KINDS[UpdAcc], {"x": ONE, "i": ONE}) == UpdAcc(acc, (ONE,), ONE)
    assert subst_exp(KINDS[WhileLoop], {"n": ONE}).bound == ONE


def test_free_variables_come_in_declaration_order():
    """First-use order is the order fresh names, ``ir_hash`` and generated
    code depend on: the fields as declared, then the scopes."""
    assert list(traversal.free_vars_exp(KINDS[ReduceByIndex])) == ["n", "inds", "xs", "y"]
    assert list(traversal.free_vars_exp(KINDS[Loop])) == ["x", "n", "y"]
    assert list(traversal.free_vars_exp(KINDS[WhileLoop])) == ["x", "n", "c", "y"]
    assert list(traversal.free_vars_exp(KINDS[Map])) == ["xs", "acc", "y"]


def _rename_all(fun: Fun) -> Fun:
    m = {v.name: rename_var(v) for v in fun.params}
    return Fun(fun.name, tuple(m.values()), refresh_body(fun.body, m))


def test_refresh_keeps_the_hash_and_shares_no_binder(corpus):
    for name, fun in corpus.items():
        copy = _rename_all(fun)
        assert ir_hash(copy) == ir_hash(fun), name
        assert not set(all_bound_vars(copy)) & set(all_bound_vars(fun)), name
        assert count_stms(copy) == count_stms(fun)


#: (a node whose uses mention ``x`` / ``xs`` / ``i``, what must come through).
STATICS = [
    (KINDS[Loop], {"stripmine": 16}),
    (KINDS[WhileLoop], {"bound": n}),
    (Iota(i, I32), {"elem": I32}),
    (KINDS[Size], {"dim": 1}),
    (KINDS[Cast], {"to": F32}),
]


@pytest.mark.parametrize("e,want", STATICS, ids=lambda v: type(v).__name__)
def test_statics_survive_subst_refresh_and_map_bodies(e, want):
    m = {"x": Var("x2", F64), "xs": Var("xs2", A), "i": Var("i2", I64)}
    rewrites = {
        "subst": subst_exp(e, m),
        "refresh": refresh_body(Body((Stm((r,), e),), ()), m).stms[0].exp,
        "map_bodies": map_bodies(e, lambda b: Body(b.stms, b.result)),
    }
    for how, out in rewrites.items():
        assert type(out) is type(e)
        assert {k: getattr(out, k) for k in want} == want, how
    assert rewrites["subst"] != e  # the substitution did happen


def test_unclassifiable_annotation_is_refused_by_name():
    """A node kind the table cannot read is refused when the table is built
    — there is no fallback arm for it to fall through (``ir_hash``'s used to
    hash such a node's ``repr``, SSA names included)."""
    @dataclasses.dataclass(frozen=True)
    class Gather:
        arr: Var
        table: Dict[str, Var]

    with pytest.raises(TypeError, match=r"Gather\.table.*Dict\[str, .*Var\]"):
        traversal._shape_of(Gather)

    @dataclasses.dataclass(frozen=True)
    class Fine:
        arr: Var
        idx: Tuple[ast.Atom, ...]
        dim: int = 0

    assert [role for _, role, _ in traversal._shape_of(Fine).fields] == ["var", "use", "static"]
