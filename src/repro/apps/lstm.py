"""LSTM sequence model (paper §7.7, Table 6; ADBench D-LSTM for Table 1).

The [40] architecture: one LSTM layer with the classic 4-gate cell,
an output projection, and a squared-error loss over the sequence:

    gates = Wx·x_t + Wh·h + b;  i,f,o,g = σ,σ,σ,tanh of the 4 slices
    c' = f∘c + i∘g;  h' = o∘tanh(c');  y_t = Wy·h';  loss += ‖y_t − t_t‖²

The IR program is a sequential loop over time steps whose state (h, c) is
checkpointed by reverse AD; the matrix products are nested maps, and they
and their adjoints' accumulation maps each run as one contraction
(``exec/lower.py:IContract``) — what the paper's §6.1 rewrites buy its
LSTM.  ``grad_manual`` is hand-written BPTT (the "cuDNN"
manually-differentiated comparator), ``loss_eager`` the tape baseline.
"""
from __future__ import annotations

import numpy as np

import repro as rp
from ..baselines import eager as eg

__all__ = ["build_ir", "loss_np", "grad_fwd_ad", "grad_manual", "loss_eager"]


def build_ir(n: int, bs: int, d: int, h: int, stripmine: int = 0):
    """loss(xs, wx, wh, b, wy, targets) -> scalar.  ``stripmine`` is the time
    loop's §4.3 annotation (``rp.fori_loop``)."""
    def loss(xs, wx, wh, b, wy, targets):
        def step(t, hs, cs, acc):
            def cell_row(bi):
                def gate(r):
                    gx = rp.sum(rp.map(lambda j: wx[r, j] * xs[t, bi, j], rp.iota(d)))
                    gh = rp.sum(rp.map(lambda u: wh[r, u] * hs[bi, u], rp.iota(h)))
                    return gx + gh + b[r]

                def unit(u):
                    ig = rp.sigmoid(gate(u))
                    fg = rp.sigmoid(gate(h + u))
                    og = rp.sigmoid(gate(2 * h + u))
                    gg = rp.tanh(gate(3 * h + u))
                    c_new = fg * cs[bi, u] + ig * gg
                    h_new = og * rp.tanh(c_new)
                    return h_new, c_new

                hr, cr = rp.map(unit, rp.iota(h))
                return hr, cr

            h2, c2 = rp.map(cell_row, rp.iota(bs))

            def err_row(bi):
                def out(j):
                    y = rp.sum(rp.map(lambda u: wy[j, u] * h2[bi, u], rp.iota(h)))
                    e = y - targets[t, bi, j]
                    return e * e

                return rp.sum(rp.map(out, rp.iota(d)))

            step_loss = rp.sum(rp.map(err_row, rp.iota(bs)))
            return h2, c2, acc + step_loss

        h0 = rp.map(lambda bi: rp.map(lambda u: 0.0 * rp.astype(u, rp.F64), rp.iota(h)), rp.iota(bs))
        c0 = rp.map(lambda bi: rp.map(lambda u: 0.0 * rp.astype(u, rp.F64), rp.iota(h)), rp.iota(bs))
        _, _, total = rp.fori_loop(n, step, (h0, c0, 0.0), stripmine=stripmine)
        return total

    return rp.trace(
        loss,
        [
            rp.ir.array(rp.F64, 3),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 1),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 3),
        ],
        name="lstm",
        arg_names=["xs", "wx", "wh", "b", "wy", "targets"],
    )


def grad_fwd_ad(fwd, xs, wx, wh, b, wy, targets, backend=None):
    """Forward-mode gradient of the LSTM loss w.r.t. the bias, batched.

    ``fwd`` is ``rp.jvp(compile(build_ir(...)))``.  The loss is scalar, so
    forward mode needs one pass per bias entry (4·h basis directions); the
    whole identity basis is stacked on a leading batch axis and evaluated in
    a *single* ``call_batched`` pass — the same multi-seed shape as
    ``ba.jacobian_ad``/``hand.jacobian_fwd_ad``.

    Returns the ``(4h,)`` bias gradient ``dL/db`` (equal, up to roundoff, to
    the reverse-mode gradient's bias component — asserted in the tests).
    """
    from .seeding import identity_seed_pass

    return identity_seed_pass(fwd, (xs, wx, wh, b, wy, targets), 3, backend=backend)


def _sig(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _fwd(xs, wx, wh, b, wy, targets):
    n, bs, d = xs.shape
    h = wh.shape[1]
    hs = np.zeros((bs, h))
    cs = np.zeros((bs, h))
    cache = []
    total = 0.0
    for t in range(n):
        gates = xs[t] @ wx.T + hs @ wh.T + b  # (bs, 4h)
        i = _sig(gates[:, :h])
        f = _sig(gates[:, h : 2 * h])
        o = _sig(gates[:, 2 * h : 3 * h])
        g = np.tanh(gates[:, 3 * h :])
        c_new = f * cs + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        y = h_new @ wy.T  # (bs, d)
        e = y - targets[t]
        total += (e * e).sum()
        cache.append((xs[t], hs, cs, i, f, o, g, c_new, tc, h_new, e))
        hs, cs = h_new, c_new
    return total, cache


def loss_np(xs, wx, wh, b, wy, targets) -> float:
    return float(_fwd(xs, wx, wh, b, wy, targets)[0])


def grad_manual(xs, wx, wh, b, wy, targets):
    """Hand-written BPTT (the manually-differentiated comparator)."""
    n, bs, d = xs.shape
    h = wh.shape[1]
    total, cache = _fwd(xs, wx, wh, b, wy, targets)
    gwx = np.zeros_like(wx)
    gwh = np.zeros_like(wh)
    gb = np.zeros_like(b)
    gwy = np.zeros_like(wy)
    dh_next = np.zeros((bs, h))
    dc_next = np.zeros((bs, h))
    for t in range(n - 1, -1, -1):
        x_t, h_prev, c_prev, i, f, o, g, c_new, tc, h_new, e = cache[t]
        dy = 2.0 * e  # (bs, d)
        gwy += dy.T @ h_new
        dh = dy @ wy + dh_next
        do = dh * tc
        dc = dh * o * (1 - tc * tc) + dc_next
        df = dc * c_prev
        di = dc * g
        dg = dc * i
        dgates = np.concatenate(
            [
                di * i * (1 - i),
                df * f * (1 - f),
                do * o * (1 - o),
                dg * (1 - g * g),
            ],
            axis=1,
        )  # (bs, 4h)
        gwx += dgates.T @ x_t
        gwh += dgates.T @ h_prev
        gb += dgates.sum(0)
        dh_next = dgates @ wh
        dc_next = dc * f
    return gwx, gwh, gb, gwy


def loss_eager(xs, wx, wh, b, wy, targets) -> "eg.T":
    xsd = np.asarray(xs.data if isinstance(xs, eg.T) else xs)
    n, bs, d = xsd.shape
    h = wh.shape[1] if not isinstance(wh, eg.T) else wh.data.shape[1]
    wx = wx if isinstance(wx, eg.T) else eg.T(wx)
    wh = wh if isinstance(wh, eg.T) else eg.T(wh)
    b = b if isinstance(b, eg.T) else eg.T(b)
    wy = wy if isinstance(wy, eg.T) else eg.T(wy)
    hs = eg.T(np.zeros((bs, h)))
    cs = eg.T(np.zeros((bs, h)))
    total = eg.T(0.0)
    tg = np.asarray(targets.data if isinstance(targets, eg.T) else targets)
    r = np.arange
    for t in range(n):
        gates = eg.T(xsd[t]) @ wx.Tr + hs @ wh.Tr + b
        i = eg.sigmoid(gates[:, r(h)])
        f = eg.sigmoid(gates[:, r(h, 2 * h)])
        o = eg.sigmoid(gates[:, r(2 * h, 3 * h)])
        g = eg.tanh(gates[:, r(3 * h, 4 * h)])
        cs = f * cs + i * g
        hs = o * eg.tanh(cs)
        y = hs @ wy.Tr
        e = y - tg[t]
        total = total + (e * e).sum()
    return total
