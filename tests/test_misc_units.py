"""Remaining unit coverage: util, pretty-printer constructs, datagen
determinism, cost ratios, API shapes, environment knobs."""
import pathlib
import re

import numpy as np
import pytest

import repro as rp
from repro.apps import datagen
from repro.exec.cost import Cost
from repro.ir import pretty
from repro.util import ADError, NameSupply, ReproError, fresh


def test_name_supply_unique_and_stem_stable():
    s = NameSupply()
    a = s.fresh("x")
    b = s.fresh("x")
    assert a != b
    c = s.fresh(a)  # re-freshening strips the numeric suffix
    assert c.startswith("x_")
    assert c.count("_") == 1


def test_fresh_global():
    assert fresh("q") != fresh("q")


def test_pretty_covers_all_constructs():
    def f(xs, inds):
        n = rp.size(xs)
        s = rp.scan(lambda a, b: a + b, 0.0, xs)
        h = rp.reduce_by_index(4, lambda a, b: a + b, 0.0, inds, xs)
        sc = rp.scatter(rp.zeros_like(xs), inds, s)
        r = rp.reverse(xs)
        cc = rp.concat(xs, r)
        lp = rp.fori_loop(3, lambda i, a: a + xs[i % n], 0.0, stripmine=2)
        w = rp.while_loop(lambda v: v < 5.0, lambda v: v + 1.0, 0.0, bound=8)
        br = rp.cond(w > 1.0, lambda: lp, lambda: w)
        return rp.sum(s) + rp.sum(h) + rp.sum(sc) + rp.sum(cc) + br

    fun = rp.trace_like(f, (np.ones(4), np.array([0, 1, 2, 3])))
    txt = pretty(fun)
    for kw in ("scan", "reduce_by_index", "scatter", "reverse(", "concat(",
               "loop (", "@stripmine", "while", "@bound", "if ", "length_0"):
        assert kw in txt, kw


def test_pretty_vjp_shows_accumulators():
    f = rp.compile(rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * xs[0], xs)), (np.ones(3),)))
    txt = rp.vjp(f).show()
    assert "withacc" in txt and "upd " in txt


def test_datagen_deterministic():
    a1 = datagen.gmm_instance(10, 3, 2, seed=5)
    a2 = datagen.gmm_instance(10, 3, 2, seed=5)
    for x, y in zip(a1[:4], a2[:4]):
        np.testing.assert_array_equal(x, y)
    b1 = datagen.sparse_kmeans_instance(20, 8, 3, seed=1)
    b2 = datagen.sparse_kmeans_instance(20, 8, 3, seed=1)
    for x, y in zip(b1, b2):
        np.testing.assert_array_equal(x, y)


def test_gmm_shapes_table5a():
    assert datagen.GMM_SHAPES["D0"] == (1000, 64, 200)
    assert datagen.GMM_SHAPES["D5"] == (10000, 128, 200)


def test_cost_ratio_helper():
    a = Cost(work=100)
    b = Cost(work=25)
    assert a.ratio(b) == 4.0
    assert Cost(mem_reads=3, mem_writes=4).mem == 7


def test_grad_requires_scalar_output():
    f = rp.compile(rp.trace_like(lambda xs: rp.map(lambda x: x, xs), (np.ones(3),)))
    with pytest.raises(ADError):
        rp.grad(f)


def test_hessian_diag_requires_float_wrt():
    f = rp.compile(rp.trace_like(lambda xs, n: rp.sum(xs), (np.ones(3), np.int64(2))))
    with pytest.raises(ADError):
        rp.hessian_diag(f, wrt=1)


def test_vjp_seed_scaling_linearity():
    f = rp.compile(rp.trace_like(lambda x: rp.sin(x), (1.0,)))
    rev = rp.vjp(f)
    _, g1 = rev(1.0, 1.0)
    _, g3 = rev(1.0, 3.0)
    assert abs(g3 - 3 * g1) < 1e-14


def test_jvp_int_params_have_no_tangent_slot():
    f = rp.compile(rp.trace_like(lambda x, n: x * rp.astype(n, rp.F64), (1.0, np.int64(3))))
    fwd = rp.jvp(f)
    # params: x, n, dx (no dn)
    assert len(fwd.fun.params) == 3
    out = fwd(2.0, 3, 1.0)
    assert out[-1] == 3.0


def test_compiled_repr_and_name():
    f = rp.compile(rp.trace_like(lambda x: x, (1.0,), name="idfun"))
    assert f.name.startswith("idfun") and "idfun" in repr(f)


# ---------------------------------------------------------------------------
# Environment knobs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("var,value", [("REPRO_VERIFY", "ful")])
def test_malformed_knob_fails_loudly(var, value, monkeypatch):
    """A misspelt verifier mode raises naming the variable, on an ordinary
    compile + ``plan`` call."""
    monkeypatch.setenv(var, value)
    with pytest.raises(ReproError, match=f"{var}='{value}'"):
        fc = rp.compile(rp.trace_like(lambda v: rp.map(lambda x: x * 2.0, v), (np.ones(8),)))
        fc(np.ones(11), backend="plan")


def test_removed_knobs_are_read_by_nothing(monkeypatch, tmp_path):
    """The five knobs nothing but their own tests set are deleted, not
    deprecated: under a value that each of them used to refuse (or, for the
    dump directory, act on), a traced cold gradient is the program and the
    bits of the unset run."""
    from repro.exec import clear_plan_cache
    from repro.ir.analysis import ir_hash
    from repro.obs import tracing
    from repro.opt.pipeline import clear_opt_cache

    removed = ("REPRO_PLAN_CACHE_SIZE", "REPRO_TRACE_BUFFER", "REPRO_OPT_PASSES",
               "REPRO_CODEGEN_DUMP", "REPRO_BENCH_BACKEND")
    xs = np.linspace(0.1, 2.0, 11)
    ir = rp.trace_like(lambda v: rp.sum(rp.map(lambda x: rp.sin(x) * x, v)), (xs,))

    def cold():
        clear_plan_cache()
        clear_opt_cache()
        with tracing.collecting():
            g = rp.grad(rp.compile(ir))
            bits = [g(xs, backend=be).tobytes() for be in ("ref", "plan")]
        return ir_hash(g.adfun.fun), bits

    for name in removed:
        monkeypatch.delenv(name, raising=False)
    base = cold()
    junk = tmp_path / "junk"
    for name in removed:
        monkeypatch.setenv(name, str(junk))
        assert cold() == base, name
        monkeypatch.delenv(name)
    assert not junk.exists()


def test_schedule_layer_is_deleted_not_deprecated(monkeypatch):
    """``schedule=`` is an unknown keyword on every compile entry point, and
    the ``REPRO_SCHEDULE`` variable is read by nothing: a gradient compiled
    under any value of it is the program, and the result, of the unset run."""
    from repro.ir.analysis import ir_hash

    xs = np.linspace(0.1, 2.0, 11)
    ir = rp.trace_like(lambda v: rp.sum(rp.map(lambda x: rp.sin(x) * x, v)), (xs,))
    for entry in (rp.compile, rp.vjp, rp.jvp, rp.grad, rp.value_and_grad):
        with pytest.raises(TypeError, match="schedule"):
            entry(ir, schedule="sequential(4)")
    monkeypatch.delenv("REPRO_SCHEDULE", raising=False)
    base = rp.grad(rp.compile(ir))
    for value in ("sequential(4)", "parallel(2)"):
        monkeypatch.setenv("REPRO_SCHEDULE", value)
        forced = rp.grad(rp.compile(ir))
        assert ir_hash(forced.adfun.fun) == ir_hash(base.adfun.fun)
        for be in ("ref", "plan"):
            assert forced(xs, backend=be).tobytes() == base(xs, backend=be).tobytes()


def test_knob_census_matches_readme_table():
    """Every ``REPRO_*`` name the source or the benchmarks mention has a row
    in README "Environment knobs", and the table lists nothing else."""
    root = pathlib.Path(__file__).resolve().parent.parent
    used = set()
    for sub in ("src", "benchmarks"):
        for path in (root / sub).rglob("*.py"):
            used |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    table = (root / "README.md").read_text().split("### Environment knobs")[1]
    table = table.split("\n## ")[0]
    rows = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", table, flags=re.M))
    assert used == rows, (sorted(used - rows), sorted(rows - used))


def test_emitters_hold_no_numpy_call_sequence_of_their_own():
    """What an instruction computes is written once, in an ``exec/vector.py``
    kernel — control flow included; the emitter binds operands and hands
    nested bodies to the kernels as callables.  None of the NumPy calls, mask
    or batch-stack bookkeeping or fuel those kernels are made of may grow back
    inside the emitter class, and it renders no instruction kind of its own
    but fused runs."""
    import inspect

    from repro.exec.plan import _ClosureEmitter

    moved = ("np.clip", "np.where", "np.broadcast_to", "np.concatenate", "np.stack",
             "np.flip", "np.zeros(", "np.arange", "np.expand_dims", "np.broadcast_shapes",
             "np.ascontiguousarray", ".at(", ".reduce(", ".accumulate(",
             "eng.mask", "bstack", "WHILE_FUEL")
    kinds = {f"_emit_{k}" for k in ("map", "reduce", "scan", "fold_loop", "hist", "if",
                                    "loop", "while", "withacc", "lanes", "enter")}
    src = inspect.getsource(_ClosureEmitter)
    assert not [m for m in moved if m in src]
    own = {m for m in vars(_ClosureEmitter) if m.startswith("_emit_")}
    assert "_emit_run" in own and not own & kinds, own
