"""Import-smoke coverage for the benchmark suite.

``bench_*.py`` files are not collected by pytest's default ``test_*``
pattern, so signature drift in the app/AD APIs they call would otherwise go
unnoticed until someone runs the benchmarks by hand.  Importing each module
executes its setup-level code (grids, paper tables, IR builders referenced
at module scope) without running any benchmark.
"""
import importlib
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))


@pytest.fixture(scope="module", autouse=True)
def _bench_on_path():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield
    finally:
        sys.path.remove(str(BENCH_DIR))


def test_bench_modules_discovered():
    # The paper's tables 1-6 plus ablations and the shared common module.
    assert len(BENCH_MODULES) >= 7


@pytest.mark.parametrize("mod", BENCH_MODULES)
def test_bench_module_imports(mod):
    importlib.import_module(mod)


def test_common_exposes_plan_backend_wiring():
    common = importlib.import_module("common")
    from repro.exec.registry import available_backends

    # any registered backend is a valid bench target (REPRO_BENCH_BACKEND)
    assert common.BENCH_BACKEND in available_backends()


def test_opt_stats_shape_for_bench_ablations():
    """The A5 fusion ablation keys off the pass registry and ``opt_stats``;
    make sure the counters exist, cover every registered pass, and move when
    the pipeline runs."""
    import numpy as np

    import repro as rp
    from repro.opt.pipeline import opt_stats, optimize_fun

    st = opt_stats()
    assert {"passes", "cache", "enabled", "fusion"} <= set(st)
    assert set(st["fusion"]) == {"vertical", "horizontal"}
    assert {"simplify", "cse", "fuse", "dce"} <= set(st["passes"])
    for c in st["passes"].values():
        assert {"fired", "changed"} <= set(c)
    before = st["passes"]["fuse"]["fired"], st["fusion"]["vertical"]
    fun = rp.trace_like(lambda xs: rp.sum(rp.map(lambda x: x * 2.0, xs)), (np.ones(3),))
    optimize_fun(fun, cache=False)
    st = opt_stats()
    assert st["passes"]["fuse"]["fired"] > before[0]
    assert st["fusion"]["vertical"] > before[1]
