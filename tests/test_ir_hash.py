"""Alpha-invariant IR content hash (``ir/analysis.py:ir_hash``): renamed
bodies hash equal, semantically different bodies don't, and the hash-keyed
plan cache shares one lowering across alpha-equivalent ``Fun``s."""
import numpy as np

import repro as rp
from repro.ir.analysis import ir_hash
from repro.ir.ast import Fun
from repro.ir.traversal import refresh_body, rename_var
from repro.exec.plan import clear_plan_cache, plan_cache_stats, plan_for

rng = np.random.default_rng(23)


def _trace(f, *args):
    return rp.trace_like(f, args)


def _alpha_rename(fun: Fun) -> Fun:
    """A structurally identical clone of ``fun`` with every binder renamed."""
    m = {p.name: rename_var(p) for p in fun.params}
    return Fun(fun.name, tuple(m[p.name] for p in fun.params),
               refresh_body(fun.body, m))


def _rich(v, w):
    s = rp.sum(v * w)
    m = rp.reduce(lambda a, b: rp.maximum(a, b), -1.0e9, v)
    sc = rp.scan(lambda a, b: a + b, 0.0, w)
    i = rp.iota(rp.size(v))
    c = rp.cond(s > 0.0, lambda: s * 2.0, lambda: s - 1.0)
    loop = rp.fori_loop(3, lambda j, a: a + rp.sum(w), s)
    h = rp.reduce_by_index(4, lambda a, b: a + b, 0.0,
                           rp.astype(i, rp.I64) % 4, v)
    return s + m + c + loop + rp.sum(sc) + rp.sum(h)


def test_alpha_renamed_bodies_hash_equal():
    v, w = np.ones(5), np.ones(5)
    fun = _trace(_rich, v, w)
    renamed = _alpha_rename(fun)
    # Sanity: the rename really did change the names...
    assert [p.name for p in renamed.params] != [p.name for p in fun.params]
    # ...and the hash ignores them.
    assert ir_hash(fun) == ir_hash(renamed)
    # Twice-renamed stays in the same class.
    assert ir_hash(_alpha_rename(renamed)) == ir_hash(fun)


def test_hash_is_stable_across_calls():
    fun = _trace(lambda v: rp.sum(v * v), np.ones(4))
    h = ir_hash(fun)
    assert ir_hash(fun) == h  # memoised path
    assert isinstance(h, str) and len(h) == 32  # blake2b-128 hex


def test_semantically_different_bodies_hash_differently():
    v, w = np.ones(4), np.ones(4)
    mul = _trace(lambda v, w: rp.sum(v * w), v, w)
    add = _trace(lambda v, w: rp.sum(v + w), v, w)
    assert ir_hash(mul) != ir_hash(add)
    # Same operator tree, different literal: still different programs.
    k2 = _trace(lambda v: rp.sum(v * 2.0), v)
    k3 = _trace(lambda v: rp.sum(v * 3.0), v)
    assert ir_hash(k2) != ir_hash(k3)
    # Same shape of body, different SOAC operator inside the lambda.
    r_add = _trace(lambda v: rp.reduce(lambda a, b: a + b, 0.0, v), v)
    r_max = _trace(lambda v: rp.reduce(lambda a, b: rp.maximum(a, b), 0.0, v), v)
    assert ir_hash(r_add) != ir_hash(r_max)


def test_free_variable_identity_is_not_erased():
    """De-Bruijn numbering must keep *which* param is used distinct."""
    v, w = np.ones(4), np.ones(4)
    first = _trace(lambda v, w: rp.sum(v), v, w)
    second = _trace(lambda v, w: rp.sum(w), v, w)
    assert ir_hash(first) != ir_hash(second)


def test_alpha_equivalent_funs_share_one_lowering():
    """The cache key is the content hash, so a retraced/renamed Fun object
    reuses the cached lowering instead of compiling its own."""
    v = rng.standard_normal(6)
    fun = _trace(lambda v: rp.sum(rp.map(lambda x: rp.sin(x) * x, v)), v)
    renamed = _alpha_rename(fun)
    clear_plan_cache()
    p1 = plan_for(fun, (v,))
    p2 = plan_for(renamed, (v,))
    st = plan_cache_stats()
    assert st["misses"] == 1, st
    assert st["hits"] == 1, st
    assert st["entries"] == 1, st
    assert p2 is p1  # literally the same cached plan
    np.testing.assert_array_equal(p1.run((v,))[0], p2.run((v,))[0])


def test_distinct_programs_do_not_collide_in_the_cache():
    v = rng.standard_normal(6)
    mul = _trace(lambda v: rp.sum(v * v), v)
    add = _trace(lambda v: rp.sum(v + v), v)
    clear_plan_cache()
    plan_for(mul, (v,))
    plan_for(add, (v,))
    st = plan_cache_stats()
    assert st["misses"] == 2, st
    assert st["entries"] == 2, st
