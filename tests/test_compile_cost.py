"""A compile-cost budget that needs no clock.

Cold-compiles the nine derivative programs of the benchmark's ``compile_cold``
workload (reduced sizes, ``helpers.cold_programs``) and bounds deterministic
counts, so that a pass which starts rebuilding unchanged trees, a driver
that stops using what it knows, or a caller that brings back the per-query
free-variable walk fails tier-1 on any machine.
"""
import pytest

import repro as rp
from repro import obs
from repro.exec import clear_plan_cache
from repro.ir import traversal
from repro.ir.traversal import NESTED
from repro.opt.pipeline import clear_opt_cache, opt_stats
from helpers import cold_programs


@pytest.fixture(scope="module")
def cold_round():
    """Per program: pass firings / changes, optimise calls that fired no
    pass (``hits``), from-scratch free-variable walks and nested nodes
    constructed during one cold ``rp.compile`` + derivative."""
    walks = built = 0
    real_walk = traversal._fv_nested
    inits = {cls: cls.__init__ for cls in NESTED}

    def counted_walk(e):
        nonlocal walks
        walks += 1
        return real_walk(e)

    def counting(init):
        def __init__(self, *args, **kw):
            nonlocal built
            built += 1
            init(self, *args, **kw)

        return __init__

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traversal, "_fv_nested", counted_walk)
        for cls, init in inits.items():
            mp.setattr(cls, "__init__", counting(init))
        for name, (build_ir, derive) in cold_programs().items():
            clear_plan_cache()
            clear_opt_cache()
            obs.reset_all()
            walks = built = 0
            derive(rp.compile(build_ir()))
            stats = opt_stats()
            out[name] = {
                "fired": sum(p["fired"] for p in stats["passes"].values()),
                "changed": sum(p["changed"] for p in stats["passes"].values()),
                "hits": stats["cache"]["hits"],
                "walks": walks,
                "built": built,
            }
    return out


def test_most_pass_firings_change_the_program(cold_round):
    """5.4 firings per change before passes kept identity, 3.1 with the
    per-pass fixed-point fact; a converging pipeline needs one quiet firing
    per pass after the last change, so the floor is well above 1."""
    fired = sum(c["fired"] for c in cold_round.values())
    changed = sum(c["changed"] for c in cold_round.values())
    assert changed >= 60  # the programs still need optimising
    assert fired <= 4.2 * changed, (fired, changed)


def test_every_derivative_reuses_an_optimisation(cold_round):
    """Both of ``_pre_ad``'s optimises of a compiled program fire no pass:
    the fixed-point facts of its converged program answer them (the loop
    rewrites between the two hand their input back)."""
    assert all(c["hits"] >= 2 for c in cold_round.values()), cold_round


def test_free_variables_are_walked_once_per_node(cold_round):
    """A nested node's bodies are walked from scratch at most once in its
    life — never once per query — so walks cannot outnumber the nodes
    built."""
    for name, c in cold_round.items():
        assert 0 < c["walks"] <= c["built"], (name, c)
