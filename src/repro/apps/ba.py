"""ADBench BA: bundle-adjustment reprojection error (Table 1).

Per observation, an 11-parameter camera (Rodrigues rotation, centre, focal,
principal point, two radial distortion coefficients), a 3D point and a
weight produce a 2-vector reprojection residual plus a weight-regulariser
residual.  The Jacobian is block-sparse with known structure: each residual
row touches one camera, one point, one weight — so it is computed with
**seed vectors** (paper §7.1): the per-observation inputs are gathered
up-front and two reverse passes (one per residual component) recover every
block at once.
"""
from __future__ import annotations

import numpy as np

import repro as rp
from ..baselines import eager as eg

__all__ = [
    "build_ir",
    "residuals_np",
    "jacobian_ad",
    "jacobian_manual",
    "residuals_eager",
    "gather_obs",
]


def gather_obs(cams, pts, ws, obs_cam, obs_pt):
    """Gather per-observation parameter blocks (the seed-vector trick)."""
    return cams[obs_cam], pts[obs_pt], ws


def build_ir(n_obs: int):
    """residuals(gcams (n,11), gpts (n,3), ws (n,), feats (n,2)) ->
    (err0 (n,), err1 (n,), werr (n,))."""

    def residuals(gcams, gpts, ws, feats):
        def per_obs(i):
            # Rodrigues rotation of (X - C).
            x0 = gpts[i, 0] - gcams[i, 3]
            x1 = gpts[i, 1] - gcams[i, 4]
            x2 = gpts[i, 2] - gcams[i, 5]
            r0, r1, r2 = gcams[i, 0], gcams[i, 1], gcams[i, 2]
            th2 = r0 * r0 + r1 * r1 + r2 * r2
            theta = rp.sqrt(th2 + 1e-12)
            st = rp.sin(theta) / theta
            ct = (1.0 - rp.cos(theta)) / (th2 + 1e-12)
            # R·x = x·cosθ + (w×x)·sinθ/θ·θ ... (standard Rodrigues form)
            dot = r0 * x0 + r1 * x1 + r2 * x2
            cx0 = r1 * x2 - r2 * x1
            cx1 = r2 * x0 - r0 * x2
            cx2 = r0 * x1 - r1 * x0
            cth = rp.cos(theta)
            X0 = x0 * cth + cx0 * st + r0 * dot * ct
            X1 = x1 * cth + cx1 * st + r1 * dot * ct
            X2 = x2 * cth + cx2 * st + r2 * dot * ct
            # Projection + radial distortion.
            p0 = X0 / X2
            p1 = X1 / X2
            r2d = p0 * p0 + p1 * p1
            distort = 1.0 + gcams[i, 9] * r2d + gcams[i, 10] * r2d * r2d
            q0 = gcams[i, 6] * distort * p0 + gcams[i, 7]
            q1 = gcams[i, 6] * distort * p1 + gcams[i, 8]
            e0 = ws[i] * (q0 - feats[i, 0])
            e1 = ws[i] * (q1 - feats[i, 1])
            werr = 1.0 - ws[i] * ws[i]
            return e0, e1, werr

        return rp.map(per_obs, rp.iota(n_obs))

    return rp.trace(
        residuals,
        [
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 1),
            rp.ir.array(rp.F64, 2),
        ],
        name="ba",
        arg_names=["gcams", "gpts", "ws", "feats"],
    )


def jacobian_ad(jv, gcams, gpts, ws, feats, backend=None):
    """The AD reprojection-Jacobian blocks via the seed-vector trick (§7.1).

    ``jv`` is ``rp.vjp(compile(build_ir(n)), wrt=[0, 1, 2])``.  One reverse
    pass per residual component recovers every per-observation block at
    once; both component seeds are stacked on a leading batch axis and
    evaluated in a *single* ``call_batched`` pass (the batched multi-seed
    driver) instead of a Python loop over seeds.

    Returns ``(J_cam (n,2,11), J_pt (n,2,3), J_w (n,2))`` — row ``i`` holds
    ``d err_c[i] / d {cam,pt,w}[i]`` for components ``c = 0, 1``.  (The
    weight-regulariser row ``d werr/d w = -2w`` is closed-form and omitted,
    as in the Table 1 measurement.)
    """
    n = gcams.shape[0]
    e0 = np.zeros((2, n))
    e0[0] = 1.0
    e1 = np.zeros((2, n))
    e1[1] = 1.0
    ez = np.zeros((2, n))
    out = jv.call_batched(
        (gcams, gpts, ws, feats, e0, e1, ez),
        (False, False, False, False, True, True, True),
        2,
        backend=backend,
    )
    cam_b, pt_b, w_b = (np.asarray(o) for o in out[-3:])
    return (
        np.moveaxis(cam_b, 0, 1),  # (n, 2, 11)
        np.moveaxis(pt_b, 0, 1),  # (n, 2, 3)
        np.moveaxis(w_b, 0, 1),  # (n, 2)
    )


def _rodrigues_np(r, x):
    th2 = (r * r).sum(-1, keepdims=True)
    theta = np.sqrt(th2 + 1e-12)
    st = np.sin(theta) / theta
    ct = (1.0 - np.cos(theta)) / (th2 + 1e-12)
    dot = (r * x).sum(-1, keepdims=True)
    cross = np.cross(r, x)
    return x * np.cos(theta) + cross * st + r * dot * ct


def residuals_np(gcams, gpts, ws, feats):
    x = gpts - gcams[:, 3:6]
    X = _rodrigues_np(gcams[:, 0:3], x)
    p = X[:, :2] / X[:, 2:3]
    r2d = (p * p).sum(-1)
    distort = 1.0 + gcams[:, 9] * r2d + gcams[:, 10] * r2d * r2d
    q = gcams[:, 6:7] * distort[:, None] * p + gcams[:, 7:9]
    e = ws[:, None] * (q - feats)
    return e[:, 0], e[:, 1], 1.0 - ws * ws


def residuals_eager(gcams, gpts, ws, feats):
    g = gcams if isinstance(gcams, eg.T) else eg.T(gcams)
    P = gpts if isinstance(gpts, eg.T) else eg.T(gpts)
    w = ws if isinstance(ws, eg.T) else eg.T(ws)
    F = np.asarray(feats.data if isinstance(feats, eg.T) else feats)
    x0 = P[:, 0] - g[:, 3]
    x1 = P[:, 1] - g[:, 4]
    x2 = P[:, 2] - g[:, 5]
    r0, r1, r2 = g[:, 0], g[:, 1], g[:, 2]
    th2 = r0 * r0 + r1 * r1 + r2 * r2
    theta = eg.sqrt(th2 + 1e-12)
    st = eg.sin(theta) / theta
    ct = (1.0 - eg.cos(theta)) / (th2 + 1e-12)
    dot = r0 * x0 + r1 * x1 + r2 * x2
    cx0 = r1 * x2 - r2 * x1
    cx1 = r2 * x0 - r0 * x2
    cx2 = r0 * x1 - r1 * x0
    cth = eg.cos(theta)
    X0 = x0 * cth + cx0 * st + r0 * dot * ct
    X1 = x1 * cth + cx1 * st + r1 * dot * ct
    X2 = x2 * cth + cx2 * st + r2 * dot * ct
    p0 = X0 / X2
    p1 = X1 / X2
    r2d = p0 * p0 + p1 * p1
    distort = 1.0 + g[:, 9] * r2d + g[:, 10] * r2d * r2d
    q0 = g[:, 6] * distort * p0 + g[:, 7]
    q1 = g[:, 6] * distort * p1 + g[:, 8]
    e0 = w * (q0 - F[:, 0])
    e1 = w * (q1 - F[:, 1])
    return e0, e1, 1.0 - w * w


def jacobian_manual(gcams, gpts, ws, feats, eps: float = 1e-7):
    """The "manual" BA Jacobian: central differences on the closed-form
    residuals, exploiting the block structure (15 parameter directions).
    ADBench's hand-written BA Jacobian enumerates the same 15 columns with
    symbolic derivatives; numerically the two coincide to O(eps²), and the
    runtime structure (15 cheap vectorised passes) is identical."""
    blocks = []
    packs = [gcams, gpts, ws[:, None]]
    for bi, blk in enumerate(packs):
        for j in range(blk.shape[1]):
            args_p = [a.copy() for a in packs]
            args_m = [a.copy() for a in packs]
            args_p[bi][:, j] += eps
            args_m[bi][:, j] -= eps
            ep = residuals_np(args_p[0], args_p[1], args_p[2][:, 0], feats)
            em = residuals_np(args_m[0], args_m[1], args_m[2][:, 0], feats)
            col = np.stack(
                [(a - b) / (2 * eps) for a, b in zip(ep, em)], axis=1
            )  # (n,3)
            blocks.append(col)
    return np.stack(blocks, axis=2)  # (n, 3, 15)
