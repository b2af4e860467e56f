"""ADBench GMM: Gaussian-mixture-model log-likelihood (Tables 1 & 5).

Parameters are ADBench's: mixture logits ``alphas (K,)``, means
``means (K,d)``, and the inverse covariance factors ``icf (K, d(d+1)/2)``
packing the log-diagonal (first ``d`` entries) and the strictly-lower
triangle (row-major) of ``Q_k``.  The objective is

    Σ_i logsumexp_k [ α_k + Σ log diag Q_k − ½‖Q_k (x_i − μ_k)‖² ]
    − n·logsumexp(α) + wishart(icf) + const

Three implementations share this math:

* ``build_ir``      — the nested-parallel IR program (maps over points and
  components, a sequential triangular loop per row) that our AD transforms;
* ``objective_np``  — vectorised NumPy reference;
* ``grad_manual``   — hand-written adjoint (the "Manual" column);
* ``objective_eager`` — the eager-tape baseline (the "PyTorch"/"Tapenade"
  column).
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np

import repro as rp
from ..baselines import eager as eg

__all__ = [
    "build_ir",
    "objective_np",
    "grad_manual",
    "objective_eager",
    "tri_indices",
]

GAMMA = 1.0  # wishart prior scale
WM = 0  # wishart prior dof offset


def tri_indices(d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(index matrix into the packed lower triangle, strict-lower mask)."""
    idx = np.zeros((d, d), dtype=np.int64)
    mask = np.zeros((d, d))
    for r in range(d):
        for j in range(r):
            idx[r, j] = d + r * (r - 1) // 2 + j
            mask[r, j] = 1.0
    return idx, mask


# ---------------------------------------------------------------------------
# IR version
# ---------------------------------------------------------------------------


def build_ir(n: int, d: int, K: int):
    """Trace the GMM objective at the given shapes; returns an ``ir.Fun``
    of (alphas, means, icf, x) -> scalar."""

    def objective(alphas, means, icf, x):
        rp.size(means, dim=1)
        k_is = rp.iota(K)

        def log_wishart(k):
            diag_sq = rp.sum(
                rp.map(lambda r: rp.exp(icf[k, r]) * rp.exp(icf[k, r]), rp.iota(d))
            )
            lo_sq = rp.sum(
                rp.map(
                    lambda t: icf[k, d + t] * icf[k, d + t],
                    rp.iota(d * (d - 1) // 2),
                )
            )
            sumlog = rp.sum(rp.map(lambda r: icf[k, r], rp.iota(d)))
            return 0.5 * GAMMA * GAMMA * (diag_sq + lo_sq) - WM * sumlog

        def inner(i, k):
            # ‖Q_k (x_i − μ_k)‖², rows via a sequential triangular loop.
            def qxc_sq(_unused):
                def row_term(r, acc):
                    base = rp.exp(icf[k, r]) * (x[i, r] - means[k, r])

                    def lo(j, s):
                        return s + icf[k, d + r * (r - 1) / 2 + j] * (
                            x[i, j] - means[k, j]
                        )

                    t = rp.fori_loop(r, lo, base)
                    return acc + t * t

                return rp.fori_loop(d, row_term, 0.0)

            sumlog = rp.sum(rp.map(lambda r: icf[k, r], rp.iota(d)))
            return alphas[k] + sumlog - 0.5 * qxc_sq(0)

        def lse_over_k(i):
            vals = rp.map(lambda k: inner(i, k), k_is)
            m = rp.max(vals)
            return rp.log(rp.sum(rp.map(lambda v: rp.exp(v - m), vals))) + m

        per_point = rp.map(lse_over_k, rp.iota(n))
        ma = rp.max(alphas)
        lse_alphas = rp.log(rp.sum(rp.map(lambda a: rp.exp(a - ma), alphas))) + ma
        wish = rp.sum(rp.map(log_wishart, k_is))
        const = -float(n) * float(d) * 0.5 * math.log(2.0 * math.pi)
        return const + rp.sum(per_point) - float(n) * lse_alphas + wish

    return rp.trace(
        objective,
        [
            rp.ir.array(rp.F64, 1),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
        ],
        name="gmm",
        arg_names=["alphas", "means", "icf", "x"],
    )


# ---------------------------------------------------------------------------
# NumPy reference + manual adjoint
# ---------------------------------------------------------------------------


def _unpack(icf: np.ndarray, d: int):
    idx, mask = tri_indices(d)
    ldiag = np.exp(icf[:, :d])  # (K,d)
    lt = icf[:, idx] * mask  # (K,d,d) strict lower
    return ldiag, lt


def _forward(alphas, means, icf, x):
    n, d = x.shape
    ldiag, lt = _unpack(icf, d)
    xc = x[:, None, :] - means[None, :, :]  # (n,K,d)
    qxc = ldiag[None] * xc + np.einsum("krj,ikj->ikr", lt, xc)
    sq = (qxc * qxc).sum(-1)  # (n,K)
    sumlog = icf[:, :d].sum(-1)  # (K,)
    inner = alphas[None, :] + sumlog[None, :] - 0.5 * sq  # (n,K)
    m = inner.max(-1, keepdims=True)
    lse = np.log(np.exp(inner - m).sum(-1)) + m[:, 0]
    ma = alphas.max()
    lse_a = np.log(np.exp(alphas - ma).sum()) + ma
    wish = 0.5 * GAMMA * GAMMA * ((ldiag**2).sum() + ((icf[:, d:]) ** 2).sum()) - WM * sumlog.sum()
    const = -n * d * 0.5 * math.log(2 * math.pi)
    obj = const + lse.sum() - n * lse_a + wish
    return obj, (ldiag, lt, xc, qxc, inner, lse)


def objective_np(alphas, means, icf, x) -> float:
    return float(_forward(alphas, means, icf, x)[0])


def grad_manual(alphas, means, icf, x):
    """Hand-written adjoint of the objective (the "Manual" column)."""
    n, d = x.shape
    idx, mask = tri_indices(d)
    obj, (ldiag, lt, xc, qxc, inner, lse) = _forward(alphas, means, icf, x)
    w = np.exp(inner - lse[:, None])  # softmax over k, (n,K)
    galphas = w.sum(0) - n * (np.exp(alphas - alphas.max()) / np.exp(alphas - alphas.max()).sum())
    gsumlog = w.sum(0)  # (K,)
    gqxc = -w[:, :, None] * qxc  # (n,K,d)
    gxc = ldiag[None] * gqxc + np.einsum("krj,ikr->ikj", lt, gqxc)
    gmeans = -gxc.sum(0)
    gldiag = (gqxc * xc).sum(0)  # (K,d)
    glt = np.einsum("ikr,ikj->krj", gqxc, xc) * mask[None]
    gicf = np.zeros_like(icf)
    # diagonal entries: through ldiag = exp(icf), sumlog, and the wishart.
    gicf[:, :d] = gldiag * ldiag + gsumlog[:, None] + GAMMA * GAMMA * ldiag**2 - WM
    # strict lower entries: triangle layout + wishart.
    for r in range(d):
        for j in range(r):
            gicf[:, d + r * (r - 1) // 2 + j] = glt[:, r, j]
    gicf[:, d:] += GAMMA * GAMMA * icf[:, d:]
    return galphas, gmeans, gicf


# ---------------------------------------------------------------------------
# Eager-tape baseline
# ---------------------------------------------------------------------------


def objective_eager(alphas: "eg.T", means: "eg.T", icf: "eg.T", x) -> "eg.T":
    """The eager (PyTorch-style) formulation: vectorised tensor ops."""
    xd = np.asarray(x.data if isinstance(x, eg.T) else x)
    n, d = xd.shape
    idx, mask = tri_indices(d)
    ldiag_log = icf[:, np.arange(d)]
    ldiag = eg.exp(ldiag_log)  # (K,d)
    lt = icf[:, idx] * mask  # (K,d,d)
    x_t = x if isinstance(x, eg.T) else eg.T(x)
    xc = x_t.reshape(n, 1, d) - means.reshape(1, -1, d)  # (n,K,d)
    Kn = means.shape[0]
    # qxc[i,k,:] = ldiag*xc + lt @ xc
    prod = (lt.reshape(1, Kn, d, d) * xc.reshape(n, Kn, 1, d)).sum(axis=3)
    qxc = ldiag.reshape(1, Kn, d) * xc + prod
    sq = (qxc * qxc).sum(axis=2)
    sumlog = ldiag_log.sum(axis=1)
    inner = alphas.reshape(1, Kn) + sumlog.reshape(1, Kn) - 0.5 * sq
    lse = eg.logsumexp(inner, axis=1)
    lse_a = eg.logsumexp(alphas)
    wish = 0.5 * GAMMA * GAMMA * ((ldiag * ldiag).sum() + (icf[:, np.arange(d, icf.shape[1])] ** 2).sum()) - WM * sumlog.sum()
    const = -n * d * 0.5 * math.log(2 * math.pi)
    return const + lse.sum() - float(n) * lse_a + wish
