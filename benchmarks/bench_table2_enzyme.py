"""Table 2 — RSBench / XSBench (vs Enzyme).

Paper: primal runtimes and the AD overhead (differentiated / primal) of the
two Monte Carlo neutron-transport kernels; Futhark 3.6×/2.6× vs Enzyme
4.2×/3.2×.  Enzyme cannot run here; we measure our overhead on the same
ported kernels and quote the paper's numbers alongside.
"""
from common import bench_row, rs_setup, timeit, write_table, xs_setup

PAPER = {"RSBench": {"fut": 3.6, "enzyme": 4.2}, "XSBench": {"fut": 2.6, "enzyme": 3.2}}

_ROWS = {}


def _record(name, t_prim, t_ad):
    _ROWS[name] = (t_prim, t_ad)
    if len(_ROWS) == 2:
        lines = [
            "Table 2: Monte Carlo kernels — primal runtime and AD overhead",
            f"{'kernel':8s} {'primal(s)':>10s} {'AD(s)':>10s} {'overhead':>9s}  paper(Fut/Enzyme)",
        ]
        for k, (tp, ta) in _ROWS.items():
            pp = PAPER[k]
            lines.append(
                f"{k:8s} {tp:10.4f} {ta:10.4f} {ta / tp:8.1f}x  {pp['fut']:.1f}x/{pp['enzyme']:.1f}x"
            )
        rows = [
            bench_row(f"{k}/{kind}", seconds=t)
            for k, (tp, ta) in _ROWS.items()
            for kind, t in (("primal", tp), ("ad", ta))
        ]
        write_table("table2_enzyme", lines, rows=rows)


RS = (4000, 32, 8)
XS = (2000, 16, 48)


def test_table2_rsbench_primal(benchmark):
    args, fc, g = rs_setup(*RS)
    benchmark(lambda: fc(*args))


def test_table2_rsbench_ad(benchmark):
    args, fc, g = rs_setup(*RS)
    t_prim = timeit(lambda: fc(*args))
    benchmark(lambda: g(*args))
    _record("RSBench", t_prim, timeit(lambda: g(*args)))


def test_table2_xsbench_primal(benchmark):
    args, fc, g = xs_setup(*XS)
    benchmark(lambda: fc(*args))


def test_table2_xsbench_ad(benchmark):
    args, fc, g = xs_setup(*XS)
    t_prim = timeit(lambda: fc(*args))
    benchmark(lambda: g(*args))
    _record("XSBench", t_prim, timeit(lambda: g(*args)))
