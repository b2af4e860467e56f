"""Table 6 — LSTM (§7.7).

Paper: Jacobian runtimes on D0 (bs,n,d,h)=(1024,20,300,192) and
D1=(1024,300,80,256): Futhark ≈ 3× faster than PyTorch; cuDNN (manual)
8–25× faster than PyTorch; AD overheads 2–4×.
Shapes scaled (÷16 bs, ÷4 dims); "cuDNN" = hand-written BPTT.
"""
import pytest

from repro.apps import lstm
from repro.baselines import eager as eg
from common import bench_row, lstm_setup, timeit, write_table

DS = {
    "D0": (16, 5, 24, 12),  # bs, n, d, h  (paper: 1024, 20, 300, 192)
    "D1": (16, 12, 10, 16),  # paper: 1024, 300, 80, 256
}

_ROWS = {}


def _record(ds, key, value):
    _ROWS.setdefault(ds, {})[key] = value
    need = {"ours", "tape", "manual", "ours_obj", "tape_obj"}
    if len(_ROWS) == len(DS) and all(need <= set(v) for v in _ROWS.values()):
        lines = [
            "Table 6: LSTM gradient — seconds (and AD overheads)",
            f"{'ds':3s} {'tape':>9s} {'ours':>9s} {'manual':>9s} {'ours ovh':>9s} {'tape ovh':>9s}",
        ]
        for ds_, v in _ROWS.items():
            lines.append(
                f"{ds_:3s} {v['tape']:9.4f} {v['ours']:9.4f} {v['manual']:9.4f}"
                f" {v['ours']/v['ours_obj']:8.2f}x {v['tape']/v['tape_obj']:8.2f}x"
            )
        lines.append("paper (A100): PyT 51.9/713.7 ms; Fut 3.1/3.0x faster; cuDNN 14/25.5x; overheads 2.6/3.6 (PyT) 2.0/4.0 (Fut)")
        rows = [
            bench_row(f"{ds_}/{key}", seconds=t)
            for ds_, v in _ROWS.items()
            for key, t in v.items()
        ]
        write_table("table6_lstm", lines, rows=rows)


@pytest.mark.parametrize("ds", list(DS))
def test_table6_ours(benchmark, ds):
    bs, n, d, h = DS[ds]
    args, fc, g, fwd_raw = lstm_setup(bs, n, d, h)
    _record(ds, "ours_obj", timeit(fc, *args))
    benchmark(lambda: g(*args))
    _record(ds, "ours", timeit(lambda: g(*args)))


@pytest.mark.parametrize("ds", list(DS))
def test_table6_tape(benchmark, ds):
    bs, n, d, h = DS[ds]
    (xs, wx, wh, b, wy, tg), fc, g, fwd_raw = lstm_setup(bs, n, d, h)
    obj = lambda: lstm.loss_eager(xs, wx, wh, b, wy, tg).data
    gr = eg.grad(lambda a, b_, c_, d_: lstm.loss_eager(xs, a, b_, c_, d_, tg))
    _record(ds, "tape_obj", timeit(obj))
    benchmark(lambda: gr(wx, wh, b, wy))
    _record(ds, "tape", timeit(lambda: gr(wx, wh, b, wy)))


@pytest.mark.parametrize("ds", list(DS))
def test_table6_manual(benchmark, ds):
    bs, n, d, h = DS[ds]
    args, fc, g, fwd_raw = lstm_setup(bs, n, d, h)
    benchmark(lambda: lstm.grad_manual(*args))
    _record(ds, "manual", timeit(lambda: lstm.grad_manual(*args)))


def test_table6_fwd_batched_bias_gradient(benchmark):
    """Forward-mode d loss/d bias: all 4h basis seeds in one batched
    call_batched pass (lstm.grad_fwd_ad) vs the per-seed jvp loop — the
    ROADMAP's "wire LSTM onto batched jvp" item, measured."""
    import numpy as np

    from common import BENCH_BACKEND

    bs, n, d, h = DS["D0"]
    (xs, wx, wh, b, wy, tg), fc, g, fwd_raw = lstm_setup(bs, n, d, h)
    batched = lambda: lstm.grad_fwd_ad(fwd_raw, xs, wx, wh, b, wy, tg, backend=BENCH_BACKEND)
    looped = lambda: lstm.grad_fwd_ad(
        fwd_raw, xs, wx, wh, b, wy, tg, backend=BENCH_BACKEND, batched=False
    )
    np.testing.assert_allclose(batched(), looped(), rtol=1e-9, atol=1e-12)
    benchmark(batched)
    t_b = timeit(batched)
    t_l = timeit(looped)
    write_table(
        "table6_lstm_fwd",
        [
            "Table 6 (extra): LSTM d loss/d bias, forward mode over 4h seeds",
            f"D0 {DS['D0']}: batched {t_b * 1000:.1f} ms, per-seed loop "
            f"{t_l * 1000:.1f} ms ({t_l / t_b:.1f}x)",
            "all basis seeds stack on one leading batch axis (call_batched).",
        ],
        rows=[
            bench_row("fwd_batched", seconds=t_b),
            bench_row("fwd_per_seed_loop", seconds=t_l),
        ],
    )
