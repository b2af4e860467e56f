"""Direct unit tests of the shared scalar derivative table (both AD modes
are assembled from these rules, so each partial is pinned numerically)."""
import math

import pytest

from repro.exec.interp import RefInterp
from repro.ir import Builder, F64, Fun, Var, const
from repro.core.rules_scalar import binop_partials, unop_partial


def _eval_unop_partial(op: str, x: float) -> float:
    b = Builder()
    xv = Var("x", F64)
    prim = b.unop(op, xv, "y")
    d = unop_partial(b, op, xv, prim)
    if d is None:
        return 0.0
    fun = Fun("t", (xv,), b.finish([d]))
    return float(RefInterp().run(fun, [x])[0])


def _eval_binop_partials(op: str, x: float, y: float):
    b = Builder()
    xv, yv = Var("x", F64), Var("y", F64)
    prim = b.binop(op, xv, yv, "z")
    dx, dy = binop_partials(b, op, xv, yv, prim)
    outs = [d if d is not None else const(0.0, F64) for d in (dx, dy)]
    fun = Fun("t", (xv, yv), b.finish(outs))
    r = RefInterp().run(fun, [x, y])
    return float(r[0]), float(r[1])


UNOP_CASES = {
    "neg": (0.7, -1.0),
    "sin": (0.7, math.cos(0.7)),
    "cos": (0.7, -math.sin(0.7)),
    "tan": (0.4, 1.0 / math.cos(0.4) ** 2),
    "exp": (0.7, math.exp(0.7)),
    "log": (0.7, 1 / 0.7),
    "sqrt": (0.7, 0.5 / math.sqrt(0.7)),
    "abs": (-0.7, -1.0),
    "sgn": (0.7, 0.0),
    "tanh": (0.7, 1 - math.tanh(0.7) ** 2),
    "floor": (0.7, 0.0),
    "erf": (0.7, 2 / math.sqrt(math.pi) * math.exp(-0.49)),
}


@pytest.mark.parametrize("op", sorted(UNOP_CASES))
def test_unop_partial(op):
    x, want = UNOP_CASES[op]
    assert abs(_eval_unop_partial(op, x) - want) < 1e-12


def test_sigmoid_partial():
    s = 1 / (1 + math.exp(-0.7))
    assert abs(_eval_unop_partial("sigmoid", 0.7) - s * (1 - s)) < 1e-12


BINOP_CASES = {
    "add": (1.3, 2.1, 1.0, 1.0),
    "sub": (1.3, 2.1, 1.0, -1.0),
    "mul": (1.3, 2.1, 2.1, 1.3),
    "div": (1.3, 2.1, 1 / 2.1, -1.3 / 2.1**2),
    "pow": (1.3, 2.1, 2.1 * 1.3**1.1, 1.3**2.1 * math.log(1.3)),
    "min": (1.3, 2.1, 1.0, 0.0),
    "max": (1.3, 2.1, 0.0, 1.0),
    "mod": (7.3, 2.1, 1.0, -3.0),
}


@pytest.mark.parametrize("op", sorted(BINOP_CASES))
def test_binop_partials(op):
    x, y, wx, wy = BINOP_CASES[op]
    dx, dy = _eval_binop_partials(op, x, y)
    assert abs(dx - wx) < 1e-10 and abs(dy - wy) < 1e-10


def test_comparisons_have_no_partials():
    b = Builder()
    xv, yv = Var("x", F64), Var("y", F64)
    prim = b.binop("lt", xv, yv, "z")
    dx, dy = binop_partials(b, "lt", xv, yv, prim)
    assert dx is None and dy is None
