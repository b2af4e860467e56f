"""Import-smoke coverage for the benchmark suite.

``bench_*.py`` files are not collected by pytest's default ``test_*``
pattern, so signature drift in the app/AD APIs they call would otherwise go
unnoticed until someone runs the benchmarks by hand.  Importing each module
executes its setup-level code (grids, paper tables, IR builders referenced
at module scope) without running any benchmark.

``bench/`` (the ``BENCHMARK.json`` gate) is never imported by tier-1
(``tests/helpers.py`` states that convention), so the names it takes from
``repro`` are checked statically: a public name a PR deletes shows up here by
name, not as a subprocess failure minutes into ``bench/test_bench_smoke.py``.
"""
import ast
import importlib
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCH_MODULES = sorted(p.stem for p in BENCH_DIR.glob("bench_*.py"))
GATE_FILES = sorted((BENCH_DIR.parent / "bench").glob("*.py"))


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


def test_bench_gate_imports_resolve():
    """Every ``from repro… import name`` in ``bench/*.py`` names a module that
    imports and a name it has."""
    assert GATE_FILES
    missing = []
    for path in GATE_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                wanted = [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                wanted = [(node.module, a.name) for a in node.names]
            else:
                continue
            for modname, attr in wanted:
                if modname.split(".")[0] != "repro":
                    continue
                mod = importlib.import_module(modname)
                if attr is not None and not hasattr(mod, attr):
                    try:  # ``from repro import obs``: a submodule not yet loaded
                        importlib.import_module(f"{modname}.{attr}")
                    except ImportError:
                        missing.append(f"{path.name}: {modname}.{attr}")
    assert not missing, missing


def test_common_exposes_plan_backend_wiring():
    common = importlib.import_module("common")
    from repro.exec.registry import DEFAULT_BACKEND

    # "ours" rows run on the library default, the plan compiler
    assert common.BENCH_BACKEND == DEFAULT_BACKEND == "plan"


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
    optimize_fun(fun)
    st = opt_stats()
    assert st["passes"]["fuse"]["fired"] > before[0]
    assert st["fusion"]["vertical"] > before[1]
