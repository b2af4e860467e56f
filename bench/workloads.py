"""The programs the benchmark runs, each with its inputs, its public-API
derivative, the arguments that derivative hands the executor, and an
independent reference.

A *program* is one ``repro.apps`` application at one size.  A *part* is one
derivative of it as a user obtains it through the public API (``rp.grad``,
``rp.hessian_diag``, ``rp.jvp`` + the app's seed driver, ``rp.vjp`` + the
app's seed driver).  ``Part.plan_args`` restates what that public wrapper
passes to the backend, so the traced pass can run the staged plan on the
same arguments; the staged result is asserted bitwise-equal to the public
one, which is what keeps this restatement honest.

Inputs come from ``repro.apps.datagen`` and depend only on ``(size, seed)``.
References never go through the compiler under test: they are the apps'
hand-written derivatives, NumPy finite differences, or the eager tape.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import repro as rp
from repro import obs
from repro.apps import ba, datagen, gmm, hand, kmeans, kmeans_sparse, lstm, rsbench, xsbench
from repro.baselines import eager as eg
from repro.exec import clear_plan_cache
from repro.opt.pipeline import clear_opt_cache

#: Hand-written derivatives agree with AD to rounding.
TOL_MANUAL = (1e-7, 1e-7)
#: Central differences (eps 1e-7 on O(1) values) carry ~1e-6 of noise.
TOL_FD = (2e-4, 1e-4)


def flat(res) -> List[np.ndarray]:
    """A public-API result (array, scalar or nested tuple) as a flat list."""
    if isinstance(res, (tuple, list)):
        return [a for r in res for a in flat(r)]
    return [np.asarray(res)]


def clear_caches() -> None:
    """What makes the next compile cold: no plan, no memoised optimisation,
    zeroed counters."""
    clear_plan_cache()
    clear_opt_cache()
    obs.reset_all()


def cache_delta(before: dict, after: dict) -> dict:
    """What a region did to the plan cache (two ``plan_cache_stats()``)."""
    return {k: after[k] - before.get(k, 0)
            for k in ("hits", "misses", "promotions", "specialized_hits")}


def bitwise_equal(a, b) -> bool:
    a, b = flat(a), flat(b)
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))


@dataclass
class Part:
    mode: str  # "vjp" | "jvp" | "hess": which AD transforms the staging replays
    wrt: object  # vjp: parameter indices or None; hess: the parameter index
    derive: Callable  # Compiled -> the public derivative object
    call: Callable  # (derivative object, inputs) -> the public result
    adfun: Callable  # derivative object -> its ADFunction
    #: inputs -> (args, batched flags or None, batch size) exactly as ``call``
    #: hands them to the backend.
    plan_args: Callable
    unpack: Callable  # backend result tuple -> what ``call`` returns


@dataclass
class Program:
    name: str
    inputs: tuple
    build_ir: Callable
    parts: Sequence[Part]
    reference: Callable[[], list]  # independent derivative, same layout as the op result
    tol: Tuple[float, float]  # (rtol, atol) against ``reference``
    tape: Callable  # the eager-tape derivative (baseline column)
    manual: Optional[Callable]  # the hand-written derivative (baseline column)
    #: Extra independent check of the op result (finite differences on the
    #: NumPy objective) where ``reference`` is itself an AD tool.
    extra_check: Optional[Callable] = None


class Built:
    """A program compiled and derived through the public API."""

    def __init__(self, prog) -> None:
        self.prog = prog
        self.fc = rp.compile(prog.build_ir())
        self.derivs = [p.derive(self.fc) for p in prog.parts]

    def call(self):
        return [p.call(d, self.prog.inputs) for p, d in zip(self.prog.parts, self.derivs)]

    def primal(self):
        return self.fc(*self.prog.inputs)


def grad_part(wrt) -> Part:
    return Part(
        mode="vjp", wrt=wrt,
        derive=lambda fc: rp.grad(fc, wrt=wrt),
        call=lambda g, inp: g(*inp),
        adfun=lambda g: g.adfun,
        plan_args=lambda inp: ((*inp, 1.0), None, 0),
        unpack=lambda out: out[1:],
    )


def _directional_fd(objective_np, inputs, wrt, seed, eps=1e-6):
    """Check Σ g·d against a central difference of ``objective_np`` along a
    seeded random direction ``d`` of the ``wrt`` inputs."""
    rng = np.random.default_rng(seed + 12345)
    dirs = [rng.standard_normal(np.shape(inputs[i])) for i in wrt]

    def shifted(s):
        inp = list(inputs)
        for i, d in zip(wrt, dirs):
            inp[i] = inputs[i] + s * eps * d
        return objective_np(*inp)

    fd = (shifted(+1.0) - shifted(-1.0)) / (2 * eps)

    def check(result) -> bool:
        ad = sum(float((g * d).sum()) for g, d in zip(flat(result), dirs))
        return bool(np.isclose(ad, fd, rtol=1e-5, atol=1e-6))

    return check


# ---------------------------------------------------------------------------
# One factory per app: (size..., seed) -> Program
# ---------------------------------------------------------------------------


def gmm_prog(n, d, K, seed):
    inp = datagen.gmm_instance(n, d, K, seed)[:4]
    x = inp[3]
    tape = eg.grad(lambda a, m, i: gmm.objective_eager(a, m, i, x))
    return Program(
        "gmm", inp, lambda: gmm.build_ir(n, d, K), [grad_part([0, 1, 2])],
        reference=lambda: flat(gmm.grad_manual(*inp)), tol=TOL_MANUAL,
        tape=lambda: tape(*inp[:3]), manual=lambda: gmm.grad_manual(*inp),
    )


def kmeans_prog(k, n, d, seed, which=("grad", "hess")):
    """Dense k-means; ``which`` selects the Newton step's two derivatives
    (``compile_cold`` compiles them as two programs)."""
    pts, ctr = inp = datagen.kmeans_instance(k, n, d, seed)
    hess = Part(
        mode="hess", wrt=1,
        derive=lambda fc: rp.hessian_diag(fc, wrt=1),
        call=lambda h, inp: h(*inp),
        adfun=lambda h: h.adfun,
        # (points, centres, seed, d points, d centres, d seed): the all-ones
        # tangent on centres returns H·1 = diag H (§7.4).
        plan_args=lambda inp: (
            (*inp, 1.0, np.zeros_like(inp[0]), np.ones_like(inp[1]), 0.0), None, 0),
        unpack=lambda out: out[-1:],
    )
    parts = [p for w, p in (("grad", grad_part([1])), ("hess", hess)) if w in which]
    pick = [i for i, w in enumerate(("grad", "hess")) if w in which]
    gfn = eg.grad(lambda c: kmeans.cost_eager(pts, c))
    return Program(
        "kmeans_" + "_".join(which), inp, lambda: kmeans.build_ir(n, k, d), parts,
        reference=lambda: [kmeans.grad_hess_manual(pts, ctr)[i] for i in pick],
        tol=(1e-6, 1e-6),
        # A tape has no forward-over-reverse: its Hessian diagonal is a
        # second gradient pass (Table 3's model).
        tape=(lambda: kmeans.newton_step_eager(pts, ctr)) if "hess" in which
        else (lambda: gfn(ctr)),
        manual=lambda: kmeans.grad_hess_manual(pts, ctr),
    )


def kmeans_sparse_prog(rows, cols, nnz_row, k, seed):
    indptr, indices, values, centres = inp = datagen.sparse_kmeans_instance(
        rows, cols, nnz_row, k, seed)
    tape = eg.grad(lambda c: kmeans_sparse.cost_eager(indptr, indices, values, c))
    return Program(
        "kmeans_sparse", inp, lambda: kmeans_sparse.build_ir(rows, k, cols),
        [grad_part([3])],
        reference=lambda: flat(kmeans_sparse.grad_manual(*inp)), tol=TOL_MANUAL,
        tape=lambda: tape(centres), manual=lambda: kmeans_sparse.grad_manual(*inp),
    )


def lstm_prog(bs, n, d, h, seed):
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(bs, n, d, h, seed)
    inp = (xs, wx, wh, b, wy, tg)
    tape = eg.grad(lambda a, b_, c_, d_: lstm.loss_eager(xs, a, b_, c_, d_, tg))
    return Program(
        "lstm", inp, lambda: lstm.build_ir(n, bs, d, h), [grad_part([1, 2, 3, 4])],
        reference=lambda: flat(lstm.grad_manual(*inp)), tol=TOL_MANUAL,
        tape=lambda: tape(wx, wh, b, wy), manual=lambda: lstm.grad_manual(*inp),
    )


def hand_prog(n_bones, n_verts, seed):
    theta, base, wghts, targets = inp = datagen.hand_instance(n_bones, n_verts, seed)
    m = theta.shape[0]

    def plan_args(inp):
        zeros = [np.zeros_like(p) for p in inp]
        return (*inp, np.eye(m), *zeros[1:]), (False,) * 4 + (True,) + (False,) * 3, m

    def fd_gradient(eps=1e-6):
        cols = []
        for j in range(m):
            e = np.zeros(m)
            e[j] = eps
            cols.append((hand.objective_np(theta + e, base, wghts, targets)
                         - hand.objective_np(theta - e, base, wghts, targets)) / (2 * eps))
        return [np.asarray(cols)]

    tape = eg.grad(lambda t: hand.objective_eager(t, base, wghts, targets))
    part = Part(
        mode="jvp", wrt=None, derive=rp.jvp,
        call=lambda fwd, inp: hand.jacobian_fwd_ad(fwd, *inp),
        adfun=lambda fwd: fwd,
        plan_args=plan_args,
        unpack=lambda out: np.asarray(out[-1]).reshape(m),
    )
    return Program(
        "hand", inp, lambda: hand.build_ir(n_bones, n_verts), [part],
        reference=fd_gradient, tol=TOL_FD,
        tape=lambda: tape(theta), manual=lambda: hand.jacobian_manual(*inp),
    )


def ba_prog(n_cams, n_pts, n_obs, seed):
    cams, pts, ws, obs_cam, obs_pt, feats = datagen.ba_instance(n_cams, n_pts, n_obs, seed)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, obs_cam, obs_pt)
    inp = (gc, gp, gw, feats)

    def plan_args(inp):
        e0, e1, ez = np.zeros((2, n_obs)), np.zeros((2, n_obs)), np.zeros((2, n_obs))
        e0[0] = e1[1] = 1.0
        return (*inp, e0, e1, ez), (False,) * 4 + (True,) * 3, 2

    def reference():
        jm = ba.jacobian_manual(*inp)  # (n, 3, 15), central differences
        return [jm[:, :2, :11], jm[:, :2, 11:14], jm[:, :2, 14]]

    def tape():
        for comp in range(2):
            eg.tape.reset()
            ts = [eg.T(a, requires_grad=True) for a in (gc, gp, gw)]
            ba.residuals_eager(*ts, feats)[comp].backward(np.ones(n_obs))

    part = Part(
        mode="vjp", wrt=[0, 1, 2],
        derive=lambda fc: rp.vjp(fc, wrt=[0, 1, 2]),
        call=lambda jv, inp: ba.jacobian_ad(jv, *inp),
        adfun=lambda jv: jv,
        plan_args=plan_args,
        unpack=lambda out: tuple(np.moveaxis(np.asarray(o), 0, 1) for o in out[-3:]),
    )
    return Program(
        "ba", inp, lambda: ba.build_ir(n_obs), [part],
        reference=reference, tol=TOL_FD,
        tape=tape, manual=lambda: ba.jacobian_manual(*inp),
    )


def xs_prog(n_lookups, n_nuc, n_grid, seed):
    egrid, xs, lookup_e, mats, conc = inp = datagen.xs_instance(n_lookups, n_nuc, n_grid, seed)
    tape = eg.grad(lambda x_, c_: xsbench.objective_eager(egrid, x_, lookup_e, mats, c_))
    return Program(
        "xsbench", inp, lambda: xsbench.build_ir(n_lookups, n_nuc, n_grid, mats.shape[1]),
        [grad_part([1, 4])],
        reference=lambda: flat(tape(xs, conc)), tol=TOL_MANUAL,
        tape=lambda: tape(xs, conc), manual=None,
        extra_check=_directional_fd(xsbench.objective_np, inp, [1, 4], seed),
    )


def rs_prog(n_lookups, n_poles, n_windows, seed):
    inp = datagen.rs_instance(n_lookups, n_poles, n_windows, seed)
    pole_re, pole_im, res_re, res_im, lookup_e, window_of = inp
    tape = eg.grad(
        lambda a_, b_: rsbench.objective_eager(pole_re, pole_im, a_, b_, lookup_e, window_of))
    return Program(
        "rsbench", inp, lambda: rsbench.build_ir(n_lookups, n_windows, n_poles),
        [grad_part([2, 3])],
        reference=lambda: flat(tape(res_re, res_im)), tol=TOL_MANUAL,
        tape=lambda: tape(res_re, res_im), manual=None,
        extra_check=_directional_fd(rsbench.objective_np, inp, [2, 3], seed),
    )


def _kmeans_only(which):
    return lambda k, n, d, seed: kmeans_prog(k, n, d, seed, which=(which,))


# ---------------------------------------------------------------------------
# Workloads: name -> [(factory, size, reduced size for the exact cost counters)]
# ---------------------------------------------------------------------------

#: ``cold`` workloads time compile-to-first-gradient per op; the others time
#: a cached derivative call.  Sizes and names are fixed across commits.
WORKLOADS = {
    "kmeans_newton": [(kmeans_prog, (8, 1000, 32), (3, 40, 4))],
    "gmm_grad": [(gmm_prog, (1024, 8, 8), (16, 4, 3))],
    "lstm_grad": [(lstm_prog, (16, 12, 10, 16), (2, 3, 4, 4))],
    "hand_jac_fwd": [(hand_prog, (12, 256), (3, 8))],
    # Nine derivative programs from the eight apps (k-means' gradient and
    # Hessian compile separately): an odd count puts the median op inside one
    # program's cluster instead of in the gap between two.
    "compile_cold": [
        (gmm_prog, (128, 8, 8), (16, 4, 3)),
        (_kmeans_only("grad"), (5, 1000, 16), (3, 40, 4)),
        (_kmeans_only("hess"), (5, 1000, 16), (3, 40, 4)),
        (kmeans_sparse_prog, (755, 463, 20, 10), (20, 12, 3, 3)),
        (lstm_prog, (8, 6, 10, 12), (2, 3, 4, 4)),
        (hand_prog, (6, 48), (3, 8)),
        (ba_prog, (16, 64, 256), (4, 8, 16)),
        (xs_prog, (2000, 16, 48), (30, 6, 16)),
        (rs_prog, (4000, 32, 8), (40, 12, 4)),
    ],
}
COLD = {"compile_cold"}


def programs(workload: str, seed: int, reduced: bool = False) -> List[Program]:
    return [f(*(small if reduced else full), seed) for f, full, small in WORKLOADS[workload]]
