"""Table 3 — dense k-means (§7.4).

Paper: per-iteration runtime of Newton k-means (Jacobian + Hessian) —
Manual (histogram method) vs Futhark AD (vjp + jvp∘vjp) vs PyTorch, on
(k,n,d) = (5, 494019, 35) and (1024, 10000, 256); manual ≈ 4× faster than
AD on the first, parity on the second, AD slightly beats PyTorch.
Workloads scaled ~50×: structure identical.
"""
import pytest

from repro.apps import kmeans
from common import bench_row, kmeans_setup, timeit, write_table

WORKLOADS = {
    "W0 (5,~10k,35)": (5, 10000, 35),
    "W1 (64,2k,64)": (64, 2000, 64),
}

_ROWS = {}

#: Every row a workload records: the step on each side, and ours split into
#: its two derivatives, so a change shows which of them moved.
_IMPLS = ("manual", "ours", "ours_grad", "ours_hess", "tape")


def _record(wname, impl, t):
    _ROWS.setdefault(wname, {})[impl] = t
    if len(_ROWS) == len(WORKLOADS) and all(len(v) == len(_IMPLS) for v in _ROWS.values()):
        lines = [
            "Table 3: dense k-means — one Newton step (grad + Hessian diag), seconds",
            f"{'workload':16s} {'manual':>9s} {'ours(AD)':>9s} {'  grad':>9s} {'  hess':>9s} "
            f"{'tape':>9s}",
        ]
        for w, v in _ROWS.items():
            lines.append(f"{w:16s} " + " ".join(f"{v[i]:9.4f}" for i in _IMPLS))
        lines.append("paper: manual 9.3/9.9 ms, Futhark-AD 36.6/9.6 ms, PyTorch 44.9/11.2 ms (A100)")
        rows = [
            bench_row(f"{w}/{impl}", seconds=t)
            for w, v in _ROWS.items()
            for impl, t in v.items()
        ]
        write_table("table3_kmeans_dense", lines, rows=rows)


@pytest.mark.parametrize("wname", list(WORKLOADS))
def test_table3_ours(benchmark, wname):
    k, n, d = WORKLOADS[wname]
    (pts, ctr), fc, g, h = kmeans_setup(k, n, d)

    def step():
        g(pts, ctr)
        h(pts, ctr)

    benchmark(step)
    _record(wname, "ours", timeit(step))
    _record(wname, "ours_grad", timeit(lambda: g(pts, ctr)))
    _record(wname, "ours_hess", timeit(lambda: h(pts, ctr)))


@pytest.mark.parametrize("wname", list(WORKLOADS))
def test_table3_manual(benchmark, wname):
    k, n, d = WORKLOADS[wname]
    (pts, ctr), fc, g, h = kmeans_setup(k, n, d)
    benchmark(lambda: kmeans.grad_hess_manual(pts, ctr))
    _record(wname, "manual", timeit(lambda: kmeans.grad_hess_manual(pts, ctr)))


@pytest.mark.parametrize("wname", list(WORKLOADS))
def test_table3_tape(benchmark, wname):
    k, n, d = WORKLOADS[wname]
    (pts, ctr), fc, g, h = kmeans_setup(k, n, d)
    benchmark(lambda: kmeans.newton_step_eager(pts, ctr))
    _record(wname, "tape", timeit(lambda: kmeans.newton_step_eager(pts, ctr)))
