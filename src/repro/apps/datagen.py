"""Synthetic dataset generators for the benchmark applications.

The ADBench datasets, the NLP sparse matrices (movielens / nytimes / scrna)
and the RSBench/XSBench nuclide tables are not available offline; these
generators produce data with the same shapes, dtypes and structural
properties (Table 5a's (n, d, K) grid, CSR sparsity levels, resonance window
layout), which is what drives the cost of every objective.  All generators
are deterministic in their seed.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "gmm_instance",
    "kmeans_instance",
    "sparse_kmeans_instance",
    "lstm_instance",
    "ba_instance",
    "hand_instance",
    "xs_instance",
    "rs_instance",
    "GMM_SHAPES",
    "SPARSE_SHAPES",
]

#: Table 5a — the ADBench GMM dataset grid (n, d, K).
GMM_SHAPES = {
    "D0": (1000, 64, 200),
    "D1": (1000, 128, 200),
    "D2": (10000, 32, 200),
    "D3": (10000, 64, 25),
    "D4": (10000, 128, 25),
    "D5": (10000, 128, 200),
}

#: Sparse k-means NLP workloads (rows, cols, nnz-per-row) ~ Table 4.
SPARSE_SHAPES = {
    "movielens": (6040, 3706, 166),
    "nytimes": (30000, 10212, 71),
    "scrna": (26822, 2000, 59),
}


def gmm_instance(n: int, d: int, K: int, seed: int = 0):
    """ADBench-GMM-shaped instance: (alphas, means, icf, x, wishart)."""
    rng = np.random.default_rng(seed)
    L = d * (d + 1) // 2
    alphas = rng.standard_normal(K) * 0.5
    means = rng.standard_normal((K, d))
    icf = rng.standard_normal((K, L)) * 0.2
    x = rng.standard_normal((n, d))
    wishart = (1.0, 0)  # (gamma, m)
    return alphas, means, icf, x, wishart


def kmeans_instance(k: int, n: int, d: int, seed: int = 0):
    """Dense k-means: points drawn around k well-separated centres."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((k, d)) * 5.0
    assign = rng.integers(0, k, n)
    pts = centres[assign] + rng.standard_normal((n, d))
    init = centres + rng.standard_normal((k, d)) * 0.5
    return pts, init


def sparse_kmeans_instance(rows: int, cols: int, nnz_row: int, k: int = 10, seed: int = 0):
    """CSR-shaped sparse data: (indptr, indices, values, centres)."""
    rng = np.random.default_rng(seed)
    counts = np.maximum(1, rng.poisson(nnz_row, rows))
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = rng.integers(0, cols, nnz).astype(np.int64)
    values = np.abs(rng.standard_normal(nnz)) + 0.1
    centres = np.abs(rng.standard_normal((k, cols))) * 0.1
    return indptr, indices, values, centres


def lstm_instance(bs: int, n: int, d: int, h: int, seed: int = 0):
    """LSTM inputs + parameters, [40]-style architecture.

    Weights follow the classic 4-gate layout: ``wx (4h, d)``, ``wh (4h, h)``,
    ``b (4h,)`` plus an output projection ``wy (d, h)``.
    """
    rng = np.random.default_rng(seed)
    scale = 0.2
    xs = rng.standard_normal((n, bs, d))
    wx = rng.standard_normal((4 * h, d)) * scale
    wh = rng.standard_normal((4 * h, h)) * scale
    b = rng.standard_normal(4 * h) * scale
    wy = rng.standard_normal((d, h)) * scale
    h0 = np.zeros((bs, h))
    c0 = np.zeros((bs, h))
    targets = rng.standard_normal((n, bs, d))
    return xs, wx, wh, b, wy, h0, c0, targets


def ba_instance(n_cams: int, n_pts: int, n_obs: int, seed: int = 0):
    """Bundle-adjustment-shaped instance (ADBench BA layout).

    Cameras are 11-vectors: rodrigues rotation (3), centre (3), focal (1),
    principal point (2), radial distortion (2).
    """
    rng = np.random.default_rng(seed)
    cams = rng.standard_normal((n_cams, 11)) * 0.1
    cams[:, 6] = 1.0 + 0.1 * rng.standard_normal(n_cams)  # focal
    pts = rng.standard_normal((n_pts, 3))
    pts[:, 2] += 10.0  # keep points in front of the cameras (well-conditioned)
    obs_cam = rng.integers(0, n_cams, n_obs).astype(np.int64)
    obs_pt = rng.integers(0, n_pts, n_obs).astype(np.int64)
    feats = rng.standard_normal((n_obs, 2)) * 0.1
    weights = np.abs(rng.standard_normal(n_obs)) + 0.5
    return cams, pts, weights, obs_cam, obs_pt, feats


def hand_instance(n_bones: int = 8, n_verts: int = 64, seed: int = 0):
    """Simplified hand-tracking instance: a kinematic chain of ``n_bones``
    rotations applied to skinned vertices, matched against targets.

    ``theta`` (3 per bone) are the pose parameters; ``base`` the rest-pose
    vertices; ``wghts`` the skinning weights; ``targets`` the observed
    points (the HAND objective's correspondences are fixed, "simple" mode).
    """
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(3 * n_bones) * 0.1
    base = rng.standard_normal((n_verts, 3))
    w = np.abs(rng.standard_normal((n_verts, n_bones))) + 0.1
    wghts = w / w.sum(axis=1, keepdims=True)
    targets = base + 0.05 * rng.standard_normal((n_verts, 3))
    return theta, base, wghts, targets


def xs_instance(n_lookups: int = 2000, n_nuclides: int = 32, n_gridpoints: int = 64, seed: int = 0):
    """XSBench-shaped instance: a unionised energy grid of cross-sections.

    Each nuclide has ``n_gridpoints`` (energy, xs...) rows; each lookup
    draws an energy and a material (a subset of nuclides) and sums
    interpolated cross-sections — indirect indexing + inner loops.
    """
    rng = np.random.default_rng(seed)
    egrid = np.sort(rng.random((n_nuclides, n_gridpoints)), axis=1)
    xs = np.abs(rng.standard_normal((n_nuclides, n_gridpoints))) + 0.01
    lookup_e = rng.random(n_lookups)
    mat_size = 8
    mats = rng.integers(0, n_nuclides, (n_lookups, mat_size)).astype(np.int64)
    conc = np.abs(rng.standard_normal((n_lookups, mat_size))) + 0.05
    return egrid, xs, lookup_e, mats, conc


def rs_instance(n_lookups: int = 1000, n_poles: int = 24, n_windows: int = 8, seed: int = 0):
    """RSBench-shaped instance: multipole resonance parameters per window.

    Each lookup evaluates a window of poles with a short inner loop of
    complex-like arithmetic (we carry re/im parts explicitly).
    """
    rng = np.random.default_rng(seed)
    pole_re = rng.standard_normal((n_windows, n_poles)) * 0.3
    pole_im = np.abs(rng.standard_normal((n_windows, n_poles))) + 0.1
    res_re = rng.standard_normal((n_windows, n_poles))
    res_im = rng.standard_normal((n_windows, n_poles))
    lookup_e = rng.random(n_lookups) * 2.0 + 0.5
    window_of = rng.integers(0, n_windows, n_lookups).astype(np.int64)
    return pole_re, pole_im, res_re, res_im, lookup_e, window_of
