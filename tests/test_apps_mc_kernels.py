"""Application-level integration tests: RSBench / XSBench-shaped kernels."""
import numpy as np

import repro as rp
from repro.apps import datagen, rsbench, xsbench
from repro.baselines import eager as eg


def test_xsbench_objective_and_grad():
    egr, xst, le, mats, conc = datagen.xs_instance(30, 6, 16, seed=8)
    fc = rp.compile(xsbench.build_ir(30, 6, 16, mats.shape[1]))
    vn = xsbench.objective_np(egr, xst, le, mats, conc)
    assert np.allclose(fc(egr, xst, le, mats, conc), vn)
    assert np.allclose(xsbench.objective_eager(egr, xst, le, mats, conc).data, vn)
    g = rp.grad(fc, wrt=[1, 4])
    gx, gc = g(egr, xst, le, mats, conc)
    ex, ec = eg.grad(lambda x_, c_: xsbench.objective_eager(egr, x_, le, mats, c_))(xst, conc)
    np.testing.assert_allclose(gx, ex, atol=1e-8)
    np.testing.assert_allclose(gc, ec, atol=1e-8)


def test_xsbench_both_backends():
    egr, xst, le, mats, conc = datagen.xs_instance(12, 4, 8, seed=9)
    fc = rp.compile(xsbench.build_ir(12, 4, 8, mats.shape[1]))
    assert np.allclose(
        fc(egr, xst, le, mats, conc), fc(egr, xst, le, mats, conc, backend="ref")
    )


def test_rsbench_objective_and_grad():
    prr, pii, rr, ri, le2, wof = datagen.rs_instance(40, 12, 4, seed=9)
    fc = rp.compile(rsbench.build_ir(40, 4, 12))
    vn = rsbench.objective_np(prr, pii, rr, ri, le2, wof)
    assert np.allclose(fc(prr, pii, rr, ri, le2, wof), vn)
    g = rp.grad(fc, wrt=[2, 3])
    ga = g(prr, pii, rr, ri, le2, wof)
    gE = eg.grad(lambda a_, b_: rsbench.objective_eager(prr, pii, a_, b_, le2, wof))(rr, ri)
    for a, m in zip(ga, gE):
        np.testing.assert_allclose(a, m, atol=1e-8)


def test_rsbench_pole_param_grads_fd():
    prr, pii, rr, ri, le2, wof = datagen.rs_instance(10, 5, 2, seed=10)
    fc = rp.compile(rsbench.build_ir(10, 2, 5))
    g = rp.grad(fc, wrt=[0])
    ga = g(prr, pii, rr, ri, le2, wof)
    eps = 1e-6
    fd = np.zeros_like(prr)
    for w in range(prr.shape[0]):
        for p in range(prr.shape[1]):
            pp, pm = prr.copy(), prr.copy()
            pp[w, p] += eps
            pm[w, p] -= eps
            fd[w, p] = (fc(pp, pii, rr, ri, le2, wof) - fc(pm, pii, rr, ri, le2, wof)) / (2 * eps)
    np.testing.assert_allclose(ga, fd, atol=1e-4)
