"""Runtime value helpers shared by the executors.

Values are NumPy scalars (rank 0) or ``np.ndarray``s; accumulators are the
``AccVal`` wrapper around a mutable buffer.  ``coerce_arg``/``check_value``
bridge between user-supplied Python values and typed IR values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ir.types import Type, np_dtype, rank_of
from ..util import ExecError

__all__ = [
    "AccVal",
    "coerce_arg",
    "check_value",
    "zeros_of",
    "scalar_value",
    "WHILE_FUEL",
]

#: Iteration budget for ``WhileLoop`` execution, shared by every backend
#: (reference, vectorised, plan).  A loop that runs this many iterations is
#: assumed divergent and aborted with an ``ExecError`` naming the budget.
#: Mutable configuration knob: executors read it at call time, so tests (or
#: callers with genuinely longer-running loops) may rebind
#: ``repro.exec.values.WHILE_FUEL``.
WHILE_FUEL: int = 10_000_000


@dataclass
class AccVal:
    """A mutable accumulator buffer (reference interpreter).

    The paper's accumulators have no runtime representation; operationally an
    ``upd`` is an (atomic) in-place addition on the underlying array.  We
    model exactly that: ``WithAcc`` copies the source array once, ``UpdAcc``
    mutates the buffer, and the final unwrap returns the buffer.
    """

    buf: np.ndarray


def coerce_arg(value, ty: Type):
    """Coerce a user-supplied value to the runtime representation of ``ty``."""
    dt = np_dtype(ty)
    rank = rank_of(ty)
    arr = np.asarray(value)
    if arr.ndim != rank:
        raise ExecError(f"argument rank {arr.ndim} does not match type {ty}")
    if rank == 0:
        return arr.astype(dt)[()]
    return np.ascontiguousarray(arr, dtype=dt)


def check_value(value, ty: Type, what: str = "value") -> None:
    """Cheap structural check that a runtime value inhabits ``ty``."""
    rank = rank_of(ty)
    if isinstance(value, AccVal):
        raise ExecError(f"{what}: accumulator escaped")
    nd = np.asarray(value).ndim
    if nd != rank:
        raise ExecError(f"{what}: rank {nd} does not match type {ty}")


def zeros_of(like):
    """A zero with the shape/dtype of ``like`` (adjoint seed)."""
    a = np.asarray(like)
    if a.ndim == 0:
        return a.dtype.type(0)
    return np.zeros_like(a)


def scalar_value(x) -> object:
    """Extract a Python scalar from a rank-0 value (for trip counts etc.)."""
    return np.asarray(x)[()]
