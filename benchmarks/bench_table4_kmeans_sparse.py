"""Table 4 — sparse k-means (§7.5).

Paper: gradient runtime on three NLP CSR workloads — manual ≈ 2.5–3.7×
faster than Futhark AD; PyTorch (COO) >400× slower than Futhark AD.
Synthetic CSR matrices with matching shape/sparsity, scaled ~8×.
"""
import pytest

from repro.apps import kmeans_sparse
from repro.baselines import eager as eg
from common import bench_row, kmeans_sparse_setup, timeit, write_table

# (rows, cols, nnz/row) scaled ~8x down from SPARSE_SHAPES.
WORKLOADS = {
    "movielens": (755, 463, 20, 10),
    "nytimes": (3750, 1276, 9, 10),
    "scrna": (3352, 250, 7, 10),
}

_ROWS = {}


def _record(wname, impl, t):
    _ROWS.setdefault(wname, {})[impl] = t
    if len(_ROWS) == len(WORKLOADS) and all(len(v) == 3 for v in _ROWS.values()):
        lines = [
            "Table 4: sparse k-means — gradient runtime, seconds",
            f"{'workload':12s} {'manual':>9s} {'ours(AD)':>9s} {'tape(COO)':>10s}",
        ]
        for w, v in _ROWS.items():
            lines.append(f"{w:12s} {v['manual']:9.4f} {v['ours']:9.4f} {v['tape']:10.4f}")
        lines.append("paper (A100): manual 61/83/156 ms, Futhark-AD 152/300/579 ms, PyTorch 61223/226896/367799 ms")
        rows = [
            bench_row(f"{w}/{impl}", seconds=t)
            for w, v in _ROWS.items()
            for impl, t in v.items()
        ]
        write_table("table4_kmeans_sparse", lines, rows=rows)


@pytest.mark.parametrize("wname", list(WORKLOADS))
def test_table4_ours(benchmark, wname):
    rows, cols, nnz, k = WORKLOADS[wname]
    data, fc, g = kmeans_sparse_setup(rows, cols, nnz, k)
    benchmark(lambda: g(*data))
    _record(wname, "ours", timeit(lambda: g(*data)))


@pytest.mark.parametrize("wname", list(WORKLOADS))
def test_table4_manual(benchmark, wname):
    rows, cols, nnz, k = WORKLOADS[wname]
    data, fc, g = kmeans_sparse_setup(rows, cols, nnz, k)
    benchmark(lambda: kmeans_sparse.grad_manual(*data))
    _record(wname, "manual", timeit(lambda: kmeans_sparse.grad_manual(*data)))


@pytest.mark.parametrize("wname", list(WORKLOADS))
def test_table4_tape(benchmark, wname):
    rows, cols, nnz, k = WORKLOADS[wname]
    (indptr, indices, values, centres), fc, g = kmeans_sparse_setup(rows, cols, nnz, k)
    gr = eg.grad(lambda c: kmeans_sparse.cost_eager(indptr, indices, values, c))
    benchmark(lambda: gr(centres))
    _record(wname, "tape", timeit(lambda: gr(centres)))
