"""repro — reverse- and forward-mode AD for a nested-parallel array language.

A from-scratch reproduction of "AD for an Array Language with Nested
Parallelism" (Schenck, Rønning, Henriksen, Oancea; SC 2022).  See README.md
for a tour and the system inventory.

Quick taste::

    import numpy as np
    import repro as rp

    def dotp(xs, ys):
        return rp.sum(rp.map(lambda x, y: x * y, xs, ys))

    f = rp.compile(rp.trace_like(dotp, (np.ones(4), np.ones(4))))
    g = rp.grad(f)                       # reverse mode
    print(g(np.arange(4.0), np.ones(4)))
"""
from . import ir  # noqa: F401
from .ir.types import BOOL, F32, F64, I32, I64  # noqa: F401
from .frontend.function import Compiled, compile_fun as compile  # noqa: F401
from .frontend.trace import TVal, trace, trace_like  # noqa: F401
from .frontend.ops import (  # noqa: F401
    abs_ as abs,
    astype,
    concat,
    cond,
    cos,
    dot,
    erf,
    exp,
    floor,
    fori_loop,
    gather,
    iota,
    log,
    map_ as map,
    matmul,
    max_ as max,
    maximum,
    min_ as min,
    minimum,
    prod_ as prod,
    reduce_ as reduce,
    reduce_by_index,
    replicate,
    reverse,
    scan_ as scan,
    scatter,
    sigmoid,
    sign,
    sin,
    size,
    sqrt,
    sum_ as sum,
    tan,
    tanh,
    transpose,
    update,
    where,
    while_loop,
    zeros_like,
)

__version__ = "1.0.0"


def __getattr__(name):
    # AD entry points live in repro.core; import lazily to avoid cycles.
    if name in ("jvp", "vjp", "grad", "jacobian", "hessian_diag", "value_and_grad"):
        from .core import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
