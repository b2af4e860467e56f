"""Simplified HAND tracking objective (Table 1).

A kinematic chain of per-bone Euler rotations is applied to skinned
vertices; the residual is the distance to target points:

    pos(v) = Σ_b  w[v,b] · (R_0 · R_1 ⋯ R_b · base_v)
    err(v) = pos(v) − target_v

The pose parameters ``theta`` (3 per bone) are differentiated; the full
(3·n_verts × 3·n_bones) Jacobian is computed in forward mode over the 3·B
pose directions (ADBench's "simple" mode: dense Jacobian, correspondences
fixed).  The rotation chain is a sequential loop inside a map — the nesting
pattern reverse AD must checkpoint.
"""
from __future__ import annotations

import numpy as np

import repro as rp
from ..baselines import eager as eg

__all__ = [
    "build_ir",
    "objective_np",
    "jacobian_fwd_ad",
    "jacobian_manual",
    "objective_eager",
    "build_ir_complicated",
    "complicated_instance",
    "residuals_complicated_np",
    "jacobian_complicated_manual",
]


def _rot_apply_ir(th0, th1, th2, v0, v1, v2):
    """Apply Rz(th2)·Ry(th1)·Rx(th0) to (v0,v1,v2) — traced scalars."""
    c0, s0 = rp.cos(th0), rp.sin(th0)
    y1 = c0 * v1 - s0 * v2
    z1 = s0 * v1 + c0 * v2
    x1 = v0
    c1, s1 = rp.cos(th1), rp.sin(th1)
    x2 = c1 * x1 + s1 * z1
    z2 = -s1 * x1 + c1 * z1
    y2 = y1
    c2, s2 = rp.cos(th2), rp.sin(th2)
    x3 = c2 * x2 - s2 * y2
    y3 = s2 * x2 + c2 * y2
    return x3, y3, z2


def build_ir(n_bones: int, n_verts: int):
    """objective(theta, base, wghts, targets) -> scalar (sum of squared
    residuals; the benches differentiate the residual map with seeds)."""

    def objective(theta, base, wghts, targets):
        def per_vertex(v):
            def contribution(b, px, py, pz, acc0, acc1, acc2):
                # Rotate through the chain up to bone b.
                def chain(j, x, y, z):
                    return _rot_apply_ir(
                        theta[3 * j], theta[3 * j + 1], theta[3 * j + 2], x, y, z
                    )

                rx, ry, rz = rp.fori_loop(
                    b + 1, lambda j, x, y, z: chain(j, x, y, z), (px, py, pz)
                )
                return (
                    px,
                    py,
                    pz,
                    acc0 + wghts[v, b] * rx,
                    acc1 + wghts[v, b] * ry,
                    acc2 + wghts[v, b] * rz,
                )

            _, _, _, p0, p1, p2 = rp.fori_loop(
                n_bones,
                lambda b, px, py, pz, a0, a1, a2: contribution(b, px, py, pz, a0, a1, a2),
                (base[v, 0], base[v, 1], base[v, 2], 0.0, 0.0, 0.0),
            )
            e0 = p0 - targets[v, 0]
            e1 = p1 - targets[v, 1]
            e2 = p2 - targets[v, 2]
            return e0 * e0 + e1 * e1 + e2 * e2

        return rp.sum(rp.map(per_vertex, rp.iota(n_verts)))

    return rp.trace(
        objective,
        [
            rp.ir.array(rp.F64, 1),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
        ],
        name="hand",
        arg_names=["theta", "base", "wghts", "targets"],
    )


def jacobian_fwd_ad(fwd, theta, base, wghts, targets, backend=None):
    """All 3·B forward pose directions of the HAND objective in one pass.

    ``fwd`` is ``rp.jvp(compile(build_ir(B, V)))``.  The Table 1 HAND
    measurement enumerates the 3·B pose basis directions in forward mode;
    the full identity basis is stacked on a leading batch axis and evaluated
    in a *single* ``call_batched`` pass — the same shape as
    ``ba.jacobian_ad`` — instead of a Python loop over seeds.

    Returns the ``(3B,)`` vector of directional derivatives
    ``dL/dθ_j = ∂ objective / ∂ theta[j]`` (the scalar objective's gradient,
    recovered column-by-column exactly as the seeded benchmark loop does).
    """
    from .seeding import identity_seed_pass

    return identity_seed_pass(fwd, (theta, base, wghts, targets), 0, backend=backend)


def _rot_np(th, v):
    c0, s0 = np.cos(th[0]), np.sin(th[0])
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    y, z = c0 * y - s0 * z, s0 * y + c0 * z
    c1, s1 = np.cos(th[1]), np.sin(th[1])
    x, z = c1 * x + s1 * z, -s1 * x + c1 * z
    c2, s2 = np.cos(th[2]), np.sin(th[2])
    x, y = c2 * x - s2 * y, s2 * x + c2 * y
    return np.stack([x, y, z], axis=-1)


def _positions_np(theta, base, wghts):
    n_bones = len(theta) // 3
    pos = np.zeros_like(base)
    cur = base.copy()
    acc = np.zeros_like(base)
    for b in range(n_bones):
        # rotate base through chain 0..b (recomputed, as in the IR version)
        cur = base.copy()
        for j in range(b + 1):
            cur = _rot_np(theta[3 * j : 3 * j + 3], cur)
        acc = acc + wghts[:, b : b + 1] * cur
    return acc


def objective_np(theta, base, wghts, targets) -> float:
    e = _positions_np(theta, base, wghts) - targets
    return float((e * e).sum())


def jacobian_manual(theta, base, wghts, targets, eps: float = 1e-7):
    """Dense Jacobian of the residuals wrt theta, hand-enumerated over the
    3·B pose directions (the structure the manual/Finite ADBench HAND
    implementations exploit)."""
    cols = []
    for j in range(len(theta)):
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += eps
        tm[j] -= eps
        rp_ = _positions_np(tp, base, wghts) - targets
        rm_ = _positions_np(tm, base, wghts) - targets
        cols.append(((rp_ - rm_) / (2 * eps)).reshape(-1))
    return np.stack(cols, axis=1)  # (3·V, 3·B)


def objective_eager(theta, base, wghts, targets) -> "eg.T":
    th = theta if isinstance(theta, eg.T) else eg.T(theta)
    b_ = np.asarray(base.data if isinstance(base, eg.T) else base)
    w_ = np.asarray(wghts.data if isinstance(wghts, eg.T) else wghts)
    tg = np.asarray(targets.data if isinstance(targets, eg.T) else targets)
    n_bones = w_.shape[1]

    def rot(th3, xyz):
        x, y, z = xyz
        c0, s0 = eg.cos(th3[0]), eg.sin(th3[0])
        y, z = c0 * y - s0 * z, s0 * y + c0 * z
        c1, s1 = eg.cos(th3[1]), eg.sin(th3[1])
        x, z = c1 * x + s1 * z, -s1 * x + c1 * z
        c2, s2 = eg.cos(th3[2]), eg.sin(th3[2])
        x, y = c2 * x - s2 * y, s2 * x + c2 * y
        return (x, y, z)

    acc = [eg.T(np.zeros(b_.shape[0])) for _ in range(3)]
    for b in range(n_bones):
        cur = (eg.T(b_[:, 0]), eg.T(b_[:, 1]), eg.T(b_[:, 2]))
        for j in range(b + 1):
            th3 = [th[np.array([3 * j + a])].reshape(()) for a in range(3)]
            cur = rot(th3, cur)
        for a in range(3):
            acc[a] = acc[a] + eg.T(w_[:, b]) * cur[a]
    tot = eg.T(0.0)
    for a in range(3):
        e = acc[a] - tg[:, a]
        tot = tot + (e * e).sum()
    return tot


# ---------------------------------------------------------------------------
# The "complicated" variant (Table 1's HAND Comp. column)
# ---------------------------------------------------------------------------
#
# ADBench's complicated HAND adds correspondences: each vertex is matched to
# a point expressed in barycentric coordinates ``u`` over a candidate
# triangle, and the Jacobian gains a *sparse* block (each residual row
# depends only on its own vertex's u).  We model exactly that structure:
#
#     err(v) = pos(v) − Σ_j u[v, j] · cands[v, j, :]
#
# The Jacobian is (3V × (3B + 3V)): dense in the pose ``theta`` (forward
# passes), block-diagonal in ``u`` (three seeded reverse passes).


def complicated_instance(n_bones: int = 8, n_verts: int = 64, seed: int = 0):
    from .datagen import hand_instance

    theta, base, wghts, targets = hand_instance(n_bones, n_verts, seed)
    rng = np.random.default_rng(seed + 1)
    cands = targets[:, None, :] + 0.02 * rng.standard_normal((n_verts, 3, 3))
    u = np.abs(rng.standard_normal((n_verts, 3))) + 0.2
    u = u / u.sum(axis=1, keepdims=True)
    return theta, u, base, wghts, cands


def build_ir_complicated(n_bones: int, n_verts: int):
    """residuals(theta, u, base, wghts, cands) -> (e0, e1, e2) arrays."""

    def residuals(theta, u, base, wghts, cands):
        def per_vertex(v):
            def contribution(b, px, py, pz, a0, a1, a2):
                def chain(j, x, y, z):
                    return _rot_apply_ir(
                        theta[3 * j], theta[3 * j + 1], theta[3 * j + 2], x, y, z
                    )

                rx, ry, rz = rp.fori_loop(b + 1, chain, (px, py, pz))
                return (
                    px,
                    py,
                    pz,
                    a0 + wghts[v, b] * rx,
                    a1 + wghts[v, b] * ry,
                    a2 + wghts[v, b] * rz,
                )

            _, _, _, p0, p1, p2 = rp.fori_loop(
                n_bones,
                lambda b, px, py, pz, a0, a1, a2: contribution(b, px, py, pz, a0, a1, a2),
                (base[v, 0], base[v, 1], base[v, 2], 0.0, 0.0, 0.0),
            )
            m0 = rp.sum(rp.map(lambda j: u[v, j] * cands[v, j, 0], rp.iota(3)))
            m1 = rp.sum(rp.map(lambda j: u[v, j] * cands[v, j, 1], rp.iota(3)))
            m2 = rp.sum(rp.map(lambda j: u[v, j] * cands[v, j, 2], rp.iota(3)))
            return p0 - m0, p1 - m1, p2 - m2

        return rp.map(per_vertex, rp.iota(n_verts))

    return rp.trace(
        residuals,
        [
            rp.ir.array(rp.F64, 1),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 2),
            rp.ir.array(rp.F64, 3),
        ],
        name="hand_complicated",
        arg_names=["theta", "u", "base", "wghts", "cands"],
    )


def residuals_complicated_np(theta, u, base, wghts, cands):
    pos = _positions_np(theta, base, wghts)
    match = (u[:, :, None] * cands).sum(axis=1)
    e = pos - match
    return e[:, 0], e[:, 1], e[:, 2]


def jacobian_complicated_manual(theta, u, base, wghts, cands, eps: float = 1e-7):
    """Dense pose block by direction enumeration + the closed-form sparse
    correspondence block (∂err_v/∂u[v,j] = −cands[v,j])."""
    dense = jacobian_manual(theta, base, wghts, (u[:, :, None] * cands).sum(axis=1))
    sparse = -cands  # (V, 3cands, 3dims): block-diagonal in v
    return dense, sparse
