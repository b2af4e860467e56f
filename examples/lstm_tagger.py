"""Training a small LSTM sequence model (paper §7.7, Case Study 3).

The forward pass is a sequential loop over time steps whose (h, c) state
reverse AD checkpoints per iteration (the paper's Fig. 3 loop rule); the
per-step matrix products are nested maps whose adjoints go through the
§6.1 accumulator→reduce rewrite.

The last section is the paper's time–space knob (§4.3) on a long sequence:
``stripmine=16`` turns 256 per-step checkpoints into 16 + 16.

Run:  python examples/lstm_tagger.py
"""
import time
import tracemalloc

import numpy as np

import repro as rp
from repro.apps import datagen, lstm


def main() -> None:
    bs, n, d, h = 8, 6, 10, 12
    xs, wx, wh, b, wy, h0, c0, targets = datagen.lstm_instance(bs, n, d, h, seed=3)

    f = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    vg = rp.value_and_grad(f, wrt=[1, 2, 3, 4])

    print(f"LSTM: seq={xs.shape[0]} batch={xs.shape[1]} d={xs.shape[2]} h={wh.shape[1]}")
    lr = 2e-3
    for it in range(15):
        loss, (gwx, gwh, gb, gwy) = vg(xs, wx, wh, b, wy, targets)
        if it % 3 == 0:
            print(f"  iter {it:3d}  loss = {float(loss):10.4f}")
        wx -= lr * gwx
        wh -= lr * gwh
        b -= lr * gb
        wy -= lr * gwy
    print(f"  final     loss = {float(f(xs, wx, wh, b, wy, targets)):10.4f}")

    # Cross-check against hand-written BPTT (the "cuDNN" comparator role).
    ours = rp.grad(f, wrt=[1, 2, 3, 4])(xs, wx, wh, b, wy, targets)
    manual = lstm.grad_manual(xs, wx, wh, b, wy, targets)
    worst = max(np.abs(a - m).max() for a, m in zip(ours, manual))
    print(f"\nmax |AD − manual BPTT| over all weights = {worst:.2e}")

    long_sequence()


def long_sequence() -> None:
    """Peak traced allocation and time of one cached weight gradient at
    n = 256, with the time loop as traced and strip-mined by 16."""
    bs, n, d, h = 16, 256, 10, 16
    xs, wx, wh, b, wy, h0, c0, targets = datagen.lstm_instance(bs, n, d, h, seed=3)
    args = (xs, wx, wh, b, wy, targets)
    print(f"\nLong sequence: seq={n} batch={bs} d={d} h={h}")
    grads, peaks = {}, {}
    for sm in (0, 16):
        g = rp.grad(rp.compile(lstm.build_ir(n, bs, d, h, stripmine=sm)), wrt=[1, 2, 3, 4])
        g(*args)  # compiled, lowered and cached
        t0 = time.perf_counter()
        g(*args)
        ms = 1e3 * (time.perf_counter() - t0)
        tracemalloc.start()
        grads[sm] = g(*args)
        peaks[sm] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        print(f"  stripmine={sm:2d}  peak = {peaks[sm]:5.2f} MB   one gradient = {ms:6.0f} ms")
    assert all(a.tobytes() == c.tobytes() for a, c in zip(grads[0], grads[16]))
    print(f"  peak ratio = {peaks[0] / peaks[16]:.1f}x, gradients bitwise-equal")


if __name__ == "__main__":
    main()
