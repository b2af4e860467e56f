"""Table 5 — GMM on the D0–D5 grid (§7.6).

Paper (Table 5b, A100/f64): Futhark speedup over PyTorch 0.87–2.18×;
overheads (Jacobian/primal): PyTorch 2.45–5.28×, Futhark 2.0–3.18×.
The (n,d,K) grid of Table 5a is scaled ÷8 in n and ÷4 in d,K for the
interpreted executors; the comparison structure is unchanged.
"""
import pytest

from repro.apps import datagen, gmm
from repro.baselines import eager as eg
from common import bench_row, gmm_setup, timeit, write_table

SCALE_NOTE = "shapes = Table 5a scaled (n/8, d/4, K/4)"
GRID = {
    name: (max(n // 8, 32), max(d // 4, 2), max(K // 4, 2))
    for name, (n, d, K) in datagen.GMM_SHAPES.items()
}

_ROWS = {}


def _record(ds, key, value):
    _ROWS.setdefault(ds, {})[key] = value
    need = {"ours_jac", "ours_obj", "tape_jac", "tape_obj"}
    if len(_ROWS) == len(GRID) and all(need <= set(v) for v in _ROWS.values()):
        lines = [
            f"Table 5: GMM Jacobian — ours vs tape baseline ({SCALE_NOTE})",
            f"{'ds':4s} {'tape jac(s)':>12s} {'speedup':>8s} {'tape ovh':>9s} {'ours ovh':>9s}",
        ]
        for ds, v in _ROWS.items():
            sp = v["tape_jac"] / v["ours_jac"]
            lines.append(
                f"{ds:4s} {v['tape_jac']:12.4f} {sp:7.2f}x {v['tape_jac']/v['tape_obj']:8.2f}x {v['ours_jac']/v['ours_obj']:8.2f}x"
            )
        lines.append("paper (5b): speedups 0.87–2.18x; overheads PyT 2.45–5.28x, Fut 2.0–3.18x")
        rows = [
            bench_row(f"{ds}/{key}", seconds=t)
            for ds, v in _ROWS.items()
            for key, t in v.items()
        ]
        write_table("table5_gmm", lines, rows=rows)


@pytest.mark.parametrize("ds", list(GRID))
def test_table5_ours(benchmark, ds):
    n, d, K = GRID[ds]
    args, fc, g = gmm_setup(n, d, K)
    _record(ds, "ours_obj", timeit(fc, *args))
    benchmark(lambda: g(*args))
    _record(ds, "ours_jac", timeit(lambda: g(*args)))


@pytest.mark.parametrize("ds", list(GRID))
def test_table5_tape(benchmark, ds):
    n, d, K = GRID[ds]
    args, fc, g = gmm_setup(n, d, K)
    alphas, means, icf, x = args
    obj = lambda: gmm.objective_eager(eg.T(alphas), eg.T(means), eg.T(icf), x).data
    gr = eg.grad(lambda a, m, i: gmm.objective_eager(a, m, i, x))
    _record(ds, "tape_obj", timeit(obj))
    benchmark(lambda: gr(alphas, means, icf))
    _record(ds, "tape_jac", timeit(lambda: gr(alphas, means, icf)))
