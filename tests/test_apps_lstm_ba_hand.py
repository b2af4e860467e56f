"""Application-level integration tests: LSTM, BA, HAND."""
import numpy as np
import pytest

import repro as rp
from repro.apps import ba, datagen, hand, lstm
from repro.baselines import eager as eg
from helpers import run_both


def test_lstm_loss_and_grads():
    xs, wx, wh, b, wy, h0, c0, tg = datagen.lstm_instance(3, 4, 5, 6, seed=5)
    n, bs, d = xs.shape
    h = wh.shape[1]
    fc = rp.compile(lstm.build_ir(n, bs, d, h))
    vn = lstm.loss_np(xs, wx, wh, b, wy, tg)
    assert np.allclose(fc(xs, wx, wh, b, wy, tg), vn)
    assert np.allclose(lstm.loss_eager(xs, wx, wh, b, wy, tg).data, vn)
    g = rp.grad(fc, wrt=[1, 2, 3, 4])
    ours = g(xs, wx, wh, b, wy, tg)
    manual = lstm.grad_manual(xs, wx, wh, b, wy, tg)
    for o, m in zip(ours, manual):
        np.testing.assert_allclose(o, m, atol=1e-7)
    egr = eg.grad(lambda a, b_, c_, d_: lstm.loss_eager(xs, a, b_, c_, d_, tg))(wx, wh, b, wy)
    for e, m in zip(egr, manual):
        np.testing.assert_allclose(e, m, atol=1e-7)


def test_lstm_training_decreases_loss():
    xs, wx, wh, b, wy, h0, c0, tg = datagen.lstm_instance(2, 3, 4, 5, seed=6)
    fc = rp.compile(lstm.build_ir(2, 3, 4, 5))
    g = rp.grad(fc, wrt=[1, 2, 3, 4])
    l0 = fc(xs, wx, wh, b, wy, tg)
    lr = 1e-3
    for _ in range(3):
        gw = g(xs, wx, wh, b, wy, tg)
        wx, wh, b, wy = (p - lr * d for p, d in zip((wx, wh, b, wy), gw))
    assert fc(xs, wx, wh, b, wy, tg) < l0


def test_ba_residuals_and_jacobian():
    cams, pts, ws, oc, op, feats = datagen.ba_instance(4, 10, 20, seed=6)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, oc, op)
    fc = rp.compile(ba.build_ir(20))
    rn = ba.residuals_np(gc, gp, gw, feats)
    for a, b in zip(fc(gc, gp, gw, feats), rn):
        np.testing.assert_allclose(a, b, atol=1e-10)
    re = ba.residuals_eager(gc, gp, gw, feats)
    for a, b in zip(re, rn):
        np.testing.assert_allclose(a.data, b, atol=1e-10)
    # Sparse Jacobian via 2 seeded vjp passes == hand-enumerated Jacobian.
    jv = rp.vjp(fc, wrt=[0, 1, 2])
    Jm = ba.jacobian_manual(gc, gp, gw, feats)
    for comp in range(3):
        seeds = [np.zeros(20), np.zeros(20), np.zeros(20)]
        seeds[comp] = np.ones(20)
        out = jv(gc, gp, gw, feats, *seeds)
        Jrow = np.concatenate([out[3], out[4], out[5][:, None]], axis=1)
        np.testing.assert_allclose(Jrow, Jm[:, comp, :], rtol=2e-4, atol=1e-5)


def test_ba_jacobian_ad_batched_matches_looped_and_manual():
    """Both residual-component reverse passes in ONE call_batched pass
    (the batched multi-seed driver) must agree with the per-seed loop on
    every backend and with the hand-enumerated Jacobian blocks."""
    cams, pts, ws, oc, op, feats = datagen.ba_instance(4, 10, 20, seed=6)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, oc, op)
    jv = rp.vjp(rp.compile(ba.build_ir(20)), wrt=[0, 1, 2])
    Jb_plan = ba.jacobian_ad(jv, gc, gp, gw, feats, backend="plan")
    Jb_cg = ba.jacobian_ad(jv, gc, gp, gw, feats, backend="codegen")
    J_loop = ba.jacobian_ad(jv, gc, gp, gw, feats, backend="plan", batched=False)
    J_ref = ba.jacobian_ad(jv, gc, gp, gw, feats, backend="ref")  # loops on ref
    for other in (Jb_cg, J_loop, J_ref):
        for a, b in zip(Jb_plan, other):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
    Jm = ba.jacobian_manual(gc, gp, gw, feats)  # (n, 3, 15)
    np.testing.assert_allclose(Jb_plan[0], Jm[:, :2, :11], rtol=2e-4, atol=1e-5)
    np.testing.assert_allclose(Jb_plan[1], Jm[:, :2, 11:14], rtol=2e-4, atol=1e-5)
    np.testing.assert_allclose(Jb_plan[2], Jm[:, :2, 14], rtol=2e-4, atol=1e-5)


def test_hand_objective_and_grad():
    theta, base, wghts, tgts = datagen.hand_instance(4, 12, seed=7)
    fc = rp.compile(hand.build_ir(4, 12))
    vn = hand.objective_np(theta, base, wghts, tgts)
    assert np.allclose(fc(theta, base, wghts, tgts), vn)
    assert np.allclose(hand.objective_eager(theta, base, wghts, tgts).data, vn)
    g = rp.grad(fc, wrt=[0])
    ga = g(theta, base, wghts, tgts)
    eps = 1e-6
    fd = np.array(
        [
            (
                fc(theta + eps * np.eye(len(theta))[i], base, wghts, tgts)
                - fc(theta - eps * np.eye(len(theta))[i], base, wghts, tgts)
            )
            / (2 * eps)
            for i in range(len(theta))
        ]
    )
    np.testing.assert_allclose(ga, fd, atol=1e-4)


def test_hand_jacobian_fwd_mode():
    theta, base, wghts, tgts = datagen.hand_instance(3, 8, seed=8)
    fc = rp.compile(hand.build_ir(3, 8))
    fwd = rp.jvp(fc)
    Jm = hand.jacobian_manual(theta, base, wghts, tgts)
    # each jvp pass = one column of the (scalar-objective) J; here just one
    # direction since the objective is scalar: dL = J_theta · e_j
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = 1.0
        out = fwd(theta, base, wghts, tgts, e, np.zeros_like(base), np.zeros_like(wghts), np.zeros_like(tgts))
        dL = out[-1]
        # chain: dL = 2 rᵀ J e_j
        r = (hand._positions_np(theta, base, wghts) - tgts).reshape(-1)
        np.testing.assert_allclose(dL, 2 * r @ Jm[:, j], rtol=1e-5, atol=1e-6)


def test_hand_complicated_residuals_and_jacobian_blocks():
    """Table 1's HAND Comp. variant: dense pose block + sparse (block-
    diagonal) correspondence block, via seeded reverse passes."""
    import numpy as np
    theta, u, base, wghts, cands = hand.complicated_instance(4, 10, seed=3)
    fc = rp.compile(hand.build_ir_complicated(4, 10))
    for a, b in zip(fc(theta, u, base, wghts, cands),
                    hand.residuals_complicated_np(theta, u, base, wghts, cands)):
        np.testing.assert_allclose(a, b, atol=1e-12)
    jv = rp.vjp(fc, wrt=[0, 1])
    for c in range(3):
        seeds = [np.zeros(10)] * 3
        seeds = [s.copy() for s in seeds]
        seeds[c] = np.ones(10)
        out = jv(theta, u, base, wghts, cands, *seeds)
        du = out[4]
        # sparse block is exactly -cands[:, :, c] (block-diagonal in v)
        np.testing.assert_allclose(du, -cands[:, :, c], atol=1e-12)


def test_hand_jacobian_fwd_ad_batched_matches_loop_and_grad():
    theta, base, wghts, tgts = datagen.hand_instance(4, 12, seed=7)
    fc = rp.compile(hand.build_ir(4, 12))
    fwd = rp.jvp(fc)
    batched = hand.jacobian_fwd_ad(fwd, theta, base, wghts, tgts, backend="plan")
    looped = hand.jacobian_fwd_ad(fwd, theta, base, wghts, tgts, backend="plan", batched=False)
    np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)
    # forward over the full basis == the reverse-mode gradient
    g = rp.grad(fc, wrt=[0])
    np.testing.assert_allclose(batched, g(theta, base, wghts, tgts), rtol=1e-7, atol=1e-9)


def test_lstm_grad_fwd_ad_batched_matches_loop_and_grad():
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 3, 4, 5, seed=8)
    fc = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    fwd = rp.jvp(fc)
    batched = lstm.grad_fwd_ad(fwd, xs, wx, wh, b, wy, tg, backend="plan")
    looped = lstm.grad_fwd_ad(fwd, xs, wx, wh, b, wy, tg, backend="plan", batched=False)
    np.testing.assert_allclose(batched, looped, rtol=1e-9, atol=1e-12)
    gb = rp.grad(fc, wrt=[1, 2, 3, 4])(xs, wx, wh, b, wy, tg)[2]
    np.testing.assert_allclose(batched, gb, rtol=1e-7, atol=1e-9)


def _hand_fwd():
    primals = datagen.hand_instance(3, 8, seed=8)
    return rp.jvp(rp.compile(hand.build_ir(3, 8))), primals


def _via_seeding():
    from repro.apps.seeding import identity_seed_pass

    fwd, primals = _hand_fwd()
    return lambda **kw: identity_seed_pass(fwd, primals, 0, **kw)


def _via_hand():
    fwd, primals = _hand_fwd()
    return lambda **kw: hand.jacobian_fwd_ad(fwd, *primals, **kw)


def _via_ba():
    cams, pts, ws, oc, op_, feats = datagen.ba_instance(3, 5, 8, seed=2)
    gc, gp, gw = ba.gather_obs(cams, pts, ws, oc, op_)
    jv = rp.vjp(rp.compile(ba.build_ir(8)), wrt=[0, 1, 2])
    return lambda **kw: ba.jacobian_ad(jv, gc, gp, gw, feats, **kw)


def _via_lstm():
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 3, 4, 4, seed=5)
    fwd = rp.jvp(rp.compile(lstm.build_ir(3, 2, 4, 4)))
    return lambda **kw: lstm.grad_fwd_ad(fwd, xs, wx, wh, b, wy, tg, **kw)


@pytest.mark.parametrize(
    "build", [_via_seeding, _via_hand, _via_ba, _via_lstm], ids=lambda f: f.__name__[5:]
)
def test_seeded_entry_points_follow_repro_backend(build, monkeypatch):
    """``backend=None`` resolves through ``default_backend()``: under
    ``REPRO_BACKEND=codegen`` the pass constructs ``codegen`` plans and no
    ``plan`` ones, bitwise equal to the ``plan`` result."""
    from repro.exec.plan import clear_plan_cache, plan_cache_stats

    call = build()
    want = call(backend="plan")
    monkeypatch.setenv("REPRO_BACKEND", "codegen")
    clear_plan_cache()
    got = call()
    em = plan_cache_stats()["emitters"]
    assert em.get("codegen", {}).get("plans", 0) >= 1 and "plan" not in em, em
    for g, w in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, want))):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _fortran(a):
    return np.asfortranarray(a)


def _strided(a):
    """``a`` as a non-contiguous view: every other element of a larger buffer
    along each axis."""
    a = np.asarray(a)
    big = np.full(tuple(2 * s for s in a.shape), np.nan, dtype=a.dtype)
    view = big[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    assert a.ndim == 0 or not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("layout", [_fortran, _strided], ids=["fortran", "strided"])
@pytest.mark.parametrize("backend", ["plan", "codegen"])
def test_hand_jacobian_and_lstm_gradient_ignore_the_input_layout(layout, backend):
    """Fortran-order and strided inputs give bitwise the C-order results."""
    primals = datagen.hand_instance(4, 12, seed=9)
    fwd = rp.jvp(rp.compile(hand.build_ir(4, 12)))
    want = hand.jacobian_fwd_ad(fwd, *primals, backend=backend)
    got = hand.jacobian_fwd_ad(fwd, *[layout(p) for p in primals], backend=backend)
    assert got.tobytes() == want.tobytes()
    seeds = np.eye(primals[0].size)
    zeros = [np.zeros_like(p) for p in primals[1:]]
    flags = (False,) * 4 + (True,) + (False,) * 3
    ref = fwd.call_batched((*primals, seeds, *zeros), flags, seeds.shape[0], backend=backend)
    out = fwd.call_batched((*[layout(p) for p in primals], layout(seeds), *zeros), flags,
                           seeds.shape[0], backend=backend)
    assert [np.asarray(o).tobytes() for o in out] == [np.asarray(r).tobytes() for r in ref]

    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(2, 3, 4, 5, seed=9)
    fc = rp.compile(lstm.build_ir(xs.shape[0], xs.shape[1], xs.shape[2], wh.shape[1]))
    g = rp.grad(fc, wrt=[1, 2, 3, 4])
    inp = (xs, wx, wh, b, wy, tg)
    want = g(*inp, backend=backend)
    got = g(*[layout(a) for a in inp], backend=backend)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ---------------------------------------------------------------------------
# The tiled LSTM: its four gates are one map over iota(4h) (opt/fusion.py)
# ---------------------------------------------------------------------------

#: (bs, n, d, h): the ``lstm_grad`` benchmark size and the example's size.
_TILED = {"bench": (16, 12, 10, 16), "example": (8, 6, 10, 12)}


def _lstm_at(bs, n, d, h, stripmine=0):
    xs, wx, wh, b, wy, _h0, _c0, tg = datagen.lstm_instance(bs, n, d, h, seed=0)
    fc = rp.compile(lstm.build_ir(n, bs, d, h, stripmine=stripmine))
    return fc, rp.grad(fc, wrt=[1, 2, 3, 4]), (xs, wx, wh, b, wy, tg)


def _bitwise_plan_codegen(g, inp):
    got = g(*inp, backend="plan")
    assert [a.tobytes() for a in g(*inp, backend="codegen")] == [a.tobytes() for a in got]
    return got


def _against_bptt(got, inp):
    for o, m in zip(got, lstm.grad_manual(*inp)):
        np.testing.assert_allclose(o, m, rtol=1e-9, atol=1e-9 * np.abs(m).max())


@pytest.mark.parametrize("size", sorted(_TILED))
def test_tiled_lstm_gradient_against_independent_oracles(size):
    """The reverse gradient against hand-written BPTT, central differences
    and the batched forward-mode bias gradient; ``plan`` ↔ ``codegen``
    bitwise.  Tolerances: the tiled gates run as one (bs, 4h) matmul per
    weight matrix, which sums in BLAS order rather than left to right, so
    the results move by ulps (≤ 4e-16 relative measured): 1e-9 relative
    against BPTT and forward mode.  Central differences along a random
    direction (eps 1e-6 on O(1) weights) carry truncation and rounding
    noise far above that: 1e-6 relative."""
    fc, g, inp = _lstm_at(*_TILED[size])
    got = _bitwise_plan_codegen(g, inp)
    _against_bptt(got, inp)
    rng = np.random.default_rng(3)
    v = [rng.standard_normal(a.shape) for a in inp[1:5]]

    def at(s):
        return float(fc(inp[0], *(a + s * 1e-6 * d for a, d in zip(inp[1:5], v)), inp[5]))

    fd = (at(1.0) - at(-1.0)) / 2e-6
    np.testing.assert_allclose(sum(float((a * d).sum()) for a, d in zip(got, v)), fd, rtol=1e-6)
    fwd = lstm.grad_fwd_ad(rp.jvp(fc), *inp, backend="plan")
    np.testing.assert_allclose(fwd, got[2], rtol=1e-9, atol=1e-9 * np.abs(got[2]).max())


@pytest.mark.parametrize("size", sorted(_TILED))
def test_tiled_lstm_gradient_against_ref(size):
    """Against the reference interpreter at the size's ``d`` and ``h`` (the
    extents the gates tile) with ``bs = n = 2``: ``ref`` runs element at a
    time, 38 s for this gradient at the bench size."""
    _bs, _n, d, h = _TILED[size]
    _fc, g, inp = _lstm_at(2, 2, d, h)
    run_both(g, *inp)


@pytest.mark.parametrize("size", sorted(_TILED))
def test_tiled_lstm_gradient_through_a_stripmined_loop(size):
    """``stripmine=4`` over n = 6 steps, a trip count no multiple of 4."""
    bs, _n, d, h = _TILED[size]
    _fc, g, inp = _lstm_at(bs, 6, d, h, stripmine=4)
    _against_bptt(_bitwise_plan_codegen(g, inp), inp)


def test_tiled_lstm_gradient_contracts_each_weight_matrix_once_per_step():
    """A cached bench-size gradient ran 408 contractions, 34 per time step,
    while each gate was its own product; with the gates tiled it runs
    ≤ 120 (108 measured)."""
    from helpers import vector_call_census

    _fc, g, inp = _lstm_at(*_TILED["bench"])
    g(*inp, backend="plan")
    assert vector_call_census(lambda: g(*inp, backend="plan"))["_contract"] <= 120
