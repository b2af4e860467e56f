"""NumPy implementations of the scalar primitives.

All primitives are elementwise and rank-polymorphic (NumPy broadcasting), so
the same table serves the reference interpreter (on scalars) and the
vectorised interpreter (on whole batches).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from ..util import ExecError

__all__ = ["unop_fn", "apply_unop", "apply_binop", "cast_to", "NEUTRAL", "INPLACE_OPS"]


@functools.lru_cache(maxsize=None)
def _erf():
    """SciPy's ``erf`` ufunc, else ``math.erf`` vectorised — looked up when
    the first program that contains ``erf`` asks: importing ``scipy.special``
    takes twice as long as importing NumPy and no other primitive needs it."""
    try:
        from scipy.special import erf
    except ImportError:
        return np.vectorize(math.erf)
    return erf


def _sigmoid(x):
    # Numerically-stable logistic.
    return 0.5 * (np.tanh(np.asarray(x) * 0.5) + 1.0)


_UNOPS = {
    "neg": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sgn": np.sign,
    "not": np.logical_not,
    "tanh": np.tanh,
    "sigmoid": _sigmoid,
    "floor": np.floor,
}


def unop_fn(op: str):
    """The NumPy function of unary ``op`` (``KeyError`` if there is none)."""
    return _erf() if op == "erf" else _UNOPS[op]


def _div(x, y):
    # Integer division is Futhark-style truncating-toward-negative-infinity
    # (NumPy floor division); float division is true division.
    if np.issubdtype(np.asarray(x).dtype, np.integer):
        return x // y
    return x / y


_BINOPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": _div,
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.logical_and,
    "or": np.logical_or,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
    "mod": np.mod,
}

#: Ops a float operand's buffer can take the result of: implemented by a true
#: ufunc (so ``out=`` exists) whose float loops return the operand dtype
#: (comparisons and logic return bool; ``div``/``sigmoid`` are Python
#: functions; ``erf`` is left out whether or not SciPy provides it as a
#: ufunc, so that a plan does not depend on what is installed).
#: ``exec/lower.py`` marks donations only on these.
INPLACE_OPS = frozenset(
    name
    for name, f in {**_UNOPS, **_BINOPS}.items()
    if isinstance(f, np.ufunc)
    and {"f" * f.nin + "->f", "d" * f.nin + "->d"} <= set(f.types)
)

#: Neutral elements for the specialisable commutative operators (used by the
#: reduce/scan/hist rules and by predication in the vectorised interpreter).
NEUTRAL = {
    "add": 0,
    "mul": 1,
    "min": np.inf,
    "max": -np.inf,
}


def apply_unop(op: str, x):
    try:
        f = unop_fn(op)
    except KeyError:
        raise ExecError(f"unknown unary op {op!r}") from None
    return f(x)


def apply_binop(op: str, x, y):
    try:
        f = _BINOPS[op]
    except KeyError:
        raise ExecError(f"unknown binary op {op!r}") from None
    return f(x, y)


def cast_to(x, dtype):
    x = np.asarray(x)
    return x.astype(dtype)
