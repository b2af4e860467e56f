"""The three properties the incremental compile pipeline rests on.

1. A derived fact of an immutable IR node lives on that node
   (``ir.ast.fact``): the memoised free variables of every nested expression
   equal a from-scratch walk, and a rebuilt node starts without them.
2. A rewrite hands back the object it was given when it changed nothing —
   and never an equal copy of it, so "same object" and "same program"
   coincide.
3. The drivers use that identity: a converged program is not optimised
   again, under whatever pass list, and ``acc_opt`` stops at the first round
   that rewrote nothing.

Corpus: the eight apps (nine derivative programs) at the benchmark's reduced
sizes — as traced, as compiled, their ``vjp`` / ``jvp`` derivatives before
and after optimisation — and the fuzz generator's first sixty programs.
"""
import dataclasses
from typing import Dict

import numpy as np
import pytest

import repro as rp
from repro import obs
from repro.core.jvp import jvp_fun
from repro.core.vjp import vjp_fun
from repro.ir.ast import Body, Fun, If, Lambda, Loop, Map, Stm, Var, WhileLoop
from repro.ir.traversal import NESTED, exp_atoms, exp_lambdas, free_vars, free_vars_exp
from repro.opt import acc_opt
from repro.opt.acc_opt import acc_opt_fun
from repro.opt.fusion import unfuse_fun
from repro.opt.pipeline import (
    AD_SAFE_PASSES,
    clear_opt_cache,
    opt_stats,
    optimize_fun,
    registered_passes,
)
from repro.opt.stripmine import stripmine_fun
from repro.opt.while_bound import while_bound_fun
from helpers import cold_programs
from test_fuzz_programs import _gen_program


def _pre_ad(fun: Fun) -> Fun:
    fun = optimize_fun(fun, passes=AD_SAFE_PASSES)
    return optimize_fun(stripmine_fun(while_bound_fun(fun)), passes=AD_SAFE_PASSES)


def _stages(ir: Fun) -> Dict[str, Fun]:
    fun = rp.compile(ir).fun
    pre = _pre_ad(fun)
    v, j = vjp_fun(pre), jvp_fun(pre)
    va = acc_opt_fun(v)
    return {"traced": ir, "compiled": fun, "pre_ad": pre, "vjp": v, "jvp": j,
            "vjp_acc_opt": va, "vjp_final": optimize_fun(va), "jvp_final": optimize_fun(j)}


def _corpus() -> Dict[str, Fun]:
    out = {}
    for name, (build_ir, _derive) in cold_programs().items():
        if name != "kmeans_hess":  # the same primal as kmeans_grad
            out.update({f"{name}/{k}": f for k, f in _stages(build_ir()).items()})
            # Shared, not yet tiled: what ``tile`` rewrites (the LSTM gates).
            out[f"{name}/cse"] = optimize_fun(build_ir(), passes=("simplify", "cse", "dce"))
    for seed in range(60):
        xs = np.random.default_rng(seed).standard_normal(5)
        ir = rp.trace_like(_gen_program(seed), (xs,), name=f"fuzz{seed}")
        out.update({f"fuzz{seed}/{k}": f for k, f in _stages(ir).items()})
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _bodies_of(e):
    yield from (lam.body for lam in exp_lambdas(e))
    if isinstance(e, (Loop, WhileLoop)):
        yield e.body
    elif isinstance(e, If):
        yield e.then
        yield e.els


def _nested_nodes(body: Body):
    for stm in body.stms:
        if type(stm.exp) in NESTED:
            yield stm.exp
            for b in _bodies_of(stm.exp):
                yield from _nested_nodes(b)


# -- the reference: the walk ``ir/traversal.py`` did before the fact existed ----


def _ref_fv_body(body, bound, out):
    for stm in body.stms:
        _ref_fv_exp(stm.exp, bound, out)
        bound = bound | {v.name for v in stm.pat}
    for a in body.result:
        if isinstance(a, Var) and a.name not in bound and a.name not in out:
            out[a.name] = a


def _ref_fv_exp(e, bound, out):
    for a in exp_atoms(e):
        if isinstance(a, Var) and a.name not in bound and a.name not in out:
            out[a.name] = a
    for lam in exp_lambdas(e):
        _ref_fv_body(lam.body, bound | {p.name for p in lam.params}, out)
    if isinstance(e, Loop):
        _ref_fv_body(e.body, bound | {p.name for p in e.params} | {e.ivar.name}, out)
    elif isinstance(e, WhileLoop):
        _ref_fv_body(e.body, bound | {p.name for p in e.params}, out)
    elif isinstance(e, If):
        _ref_fv_body(e.then, bound, out)
        _ref_fv_body(e.els, bound, out)


def _ref_free(e, bound=frozenset()):
    out = {}
    _ref_fv_exp(e, frozenset(bound), out)
    return list(out.items())


def _facts(node) -> dict:
    fields = {f.name for f in dataclasses.fields(node)}
    return {k: v for k, v in vars(node).items() if k not in fields}


def _check_fv_facts(fun: Fun) -> int:
    """Every free-variable fact present in ``fun`` is the one a from-scratch
    walk of *that* node gives; returns how many nodes carried one."""
    n = 0
    for e in _nested_nodes(fun.body):
        if "_fv" in vars(e):
            n += 1
            assert [(v.name, v) for v in vars(e)["_fv"]] == _ref_free(e), type(e).__name__
    return n


# -- (a) the fact equals the walk ---------------------------------------------


def test_memoised_free_variables_equal_a_from_scratch_walk(corpus):
    seen = 0
    for name, fun in corpus.items():
        for e in _nested_nodes(fun.body):
            seen += 1
            ref = _ref_free(e)
            assert list(free_vars_exp(e).items()) == ref, name  # names AND first-use order
            assert list(free_vars_exp(e).items()) == ref, name  # answered from the fact
            # Under a non-empty ``bound``: every other free variable, plus a
            # name the node binds inside (which must not hide anything).
            bound = tuple(v for _n, v in ref[::2])
            inner = tuple(p for lam in exp_lambdas(e) for p in lam.params[:1])
            wrapped = Lambda(bound + inner, Body((Stm((), e),), ()))
            want = _ref_free(e, {v.name for v in bound + inner})
            assert list(free_vars(wrapped).items()) == want, name
        assert list(free_vars(fun).items()) == []  # closed programs stay closed
    assert seen > 2000


# -- (b) a rebuilt node starts clean ------------------------------------------


def test_rebuilt_node_does_not_inherit_facts(corpus):
    fun = corpus["gmm/vjp"]
    node = next(e for e in _nested_nodes(fun.body) if isinstance(e, Map) and _ref_free(e))
    free_vars_exp(node)
    assert "_fv" in _facts(node)
    twin = dataclasses.replace(node)
    assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
    assert _facts(twin) == {}  # not a field: replace() does not carry it
    # A node rebuilt around another lambda has other free variables; had it
    # inherited the fact, ``_check_fv_facts`` (which every pass output goes
    # through below) is what catches it.
    other = next(e for e in _nested_nodes(fun.body)
                 if isinstance(e, Map) and {n for n, _ in _ref_free(e)} != set(free_vars_exp(node)))
    rebuilt = dataclasses.replace(node, lam=other.lam, arrs=other.arrs, accs=other.accs)
    holder = Fun("h", (), Body((Stm((), rebuilt),), ()))
    assert _facts(rebuilt) == {}
    _check_fv_facts(holder)  # its children carry theirs, and those are right
    vars(rebuilt).update(_facts(node))  # the mutation: copy the facts across by hand
    with pytest.raises(AssertionError):
        _check_fv_facts(holder)


# -- (c) identity in, identity out --------------------------------------------


def _rewrites():
    out = {p.name: p.fn for p in registered_passes()}
    out.update(while_bound=while_bound_fun, stripmine=stripmine_fun,
               unfuse=unfuse_fun, acc_opt=acc_opt_fun)
    return out


@pytest.mark.parametrize("name", sorted(_rewrites()))
def test_rewrite_returns_its_input_iff_it_changed_nothing(name, corpus):
    rewrite = _rewrites()[name]
    quiet = moved = 0
    for key, fun in corpus.items():
        out = rewrite(fun)
        quiet += out is fun
        moved += out is not fun
        # Applied until it hands its input back (one ``simplify`` sweep can
        # expose a fold for the next: that is what the driver iterates for),
        # every application is either the same object or a different program.
        for _ in range(4):
            assert (out is fun) == (out == fun), key  # never an equal copy
            _check_fv_facts(out)  # no node it built carries a stale fact
            if out is fun:
                break
            fun, out = out, rewrite(out)
        assert out is fun, key  # its fixed point is reached, and by identity
    assert quiet, "no program left alone: the identity half is untested"
    if name not in ("while_bound", "stripmine"):  # the corpus has no while / strip-mined loop
        assert moved, "no program rewritten: the equality half is untested"


def test_loop_rewrites_hand_back_programs_without_loops_to_rewrite(corpus):
    for key, fun in corpus.items():
        assert while_bound_fun(fun) is fun and stripmine_fun(fun) is fun, key

    def prog(x):
        lp = rp.fori_loop(8, lambda i, a: a * x, x, stripmine=2)
        return rp.while_loop(lambda a: a < 100.0, lambda a: a * 2.0 + lp, x, bound=9)

    fun = rp.trace_like(prog, (1.5,))
    for rewrite in (while_bound_fun, stripmine_fun):
        out = rewrite(fun)
        assert out is not fun and out != fun and rewrite(out) is out


# -- (d) the driver does not optimise a converged program again ----------------


def _fired() -> int:
    return sum(p["fired"] for p in opt_stats()["passes"].values())


def test_converged_program_is_not_optimised_again(corpus):
    for key, fun in corpus.items():
        g = optimize_fun(fun, rounds=8)
        before = _fired()
        # cache=False: it is the facts on ``g`` that must answer, not the memo
        assert optimize_fun(g, rounds=8, cache=False) is g, key
        assert optimize_fun(g, cache=False, passes=AD_SAFE_PASSES) is g, key
        assert optimize_fun(g, cache=False, passes=("dce", "fuse")) is g, key
        assert _fired() == before, key
        assert optimize_fun(g, rounds=8) is g


# -- (e) acc_opt stops when it rewrote nothing ---------------------------------


def test_grad_of_lstm_pays_for_rewriting_rounds_only(monkeypatch):
    build_ir, _ = cold_programs()["lstm"]
    fc = rp.compile(build_ir())
    sweeps = []  # per top-level sweep: how many rewrites it fired
    depth = [0]
    real = acc_opt._opt_body

    def counting(body, fired):
        before = len(fired)
        depth[0] += 1
        try:
            return real(body, fired)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                sweeps.append(len(fired) - before)

    monkeypatch.setattr(acc_opt, "_opt_body", counting)
    clear_opt_cache()
    obs.reset_all()
    rp.grad(fc, wrt=[1, 2, 3, 4])
    rewriting = sum(1 for n in sweeps if n)
    assert rewriting >= 1 and sweeps[-1] == 0
    assert len(sweeps) <= rewriting + 1
    cache = opt_stats()["cache"]
    assert cache["misses"] <= 3 + rewriting, (cache, sweeps)
    assert cache["hits"] >= 1
