"""Tracing frontend: stage Python functions into the array IR.

Users write ordinary Python functions over ``TVal`` tracer objects; every
operation appends an ANF statement to the builder of the innermost open
scope.  ``trace``/``trace_like`` run the function once on symbolic arguments
and package the recorded statements as an ``ir.Fun``.

This mirrors how the paper's source language reaches the core IR: the
high-level features (here: Python) are compiled away before AD, and lambdas
appear only syntactically inside SOACs.
"""
from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.ast import AtomExp, Atom, BinOp, Cast, Const, Fun, Index, UnOp, Var
from ..ir.builder import Builder, as_atom, const
from ..ir.typecheck import check_fun
from ..ir.validate import validate_fun
from ..ir.types import (
    ArrayType,
    BOOL,
    F32,
    F64,
    I32,
    I64,
    Scalar,
    Type,
    elem_type,
    from_np_dtype,
    is_float,
    rank_of,
    with_rank,
)
from ..obs import tracing as _obs_tracing
from ..util import IRError, fresh

__all__ = ["TVal", "trace", "trace_like", "cur_builder", "lift", "scope", "arg_types_of"]


# ---------------------------------------------------------------------------
# Trace context
# ---------------------------------------------------------------------------

_STACK: List[Builder] = []


def cur_builder() -> Builder:
    if not _STACK:
        raise IRError(
            "no active trace: array operations can only be used inside a "
            "function being traced with repro.trace/trace_like"
        )
    return _STACK[-1]


class scope:
    """Context manager that opens a nested builder (lambda/loop bodies)."""

    def __init__(self) -> None:
        self.builder = Builder()

    def __enter__(self) -> Builder:
        _STACK.append(self.builder)
        return self.builder

    def __exit__(self, *exc) -> None:
        popped = _STACK.pop()
        assert popped is self.builder


# ---------------------------------------------------------------------------
# Tracer values
# ---------------------------------------------------------------------------

class TVal:
    """A traced value: wraps an IR atom.  Supports Python operators."""

    __slots__ = ("atom",)
    # Make numpy defer to our reflected dunders (np_scalar * tval etc.).
    __array_priority__ = 1000

    def __init__(self, atom: Atom) -> None:
        self.atom = atom

    # -- metadata ------------------------------------------------------------

    @property
    def type(self) -> Type:
        return self.atom.type

    @property
    def rank(self) -> int:
        return rank_of(self.atom.type)

    @property
    def dtype(self) -> Scalar:
        return elem_type(self.atom.type)

    def __repr__(self) -> str:
        return f"TVal({self.atom!r}: {self.atom.type})"

    # -- lifting ---------------------------------------------------------------

    def _lift(self, other) -> Atom:
        return lift(other, like=self).atom

    # -- arithmetic --------------------------------------------------------------

    def _bin(self, op: str, other, rev: bool = False) -> "TVal":
        b = cur_builder()
        o = self._lift(other)
        x, y = (o, self.atom) if rev else (self.atom, o)
        return TVal(b.binop(op, x, y))

    def __add__(self, o):
        return self._bin("add", o)

    def __radd__(self, o):
        return self._bin("add", o, rev=True)

    def __sub__(self, o):
        return self._bin("sub", o)

    def __rsub__(self, o):
        return self._bin("sub", o, rev=True)

    def __mul__(self, o):
        return self._bin("mul", o)

    def __rmul__(self, o):
        return self._bin("mul", o, rev=True)

    def __truediv__(self, o):
        return self._bin("div", o)

    def __rtruediv__(self, o):
        return self._bin("div", o, rev=True)

    def __mod__(self, o):
        return self._bin("mod", o)

    def __rmod__(self, o):
        return self._bin("mod", o, rev=True)

    def __pow__(self, o):
        return self._bin("pow", o)

    def __rpow__(self, o):
        return self._bin("pow", o, rev=True)

    def __neg__(self):
        return TVal(cur_builder().unop("neg", self.atom))

    def __abs__(self):
        return TVal(cur_builder().unop("abs", self.atom))

    # -- comparisons ----------------------------------------------------------------

    def __lt__(self, o):
        return self._bin("lt", o)

    def __le__(self, o):
        return self._bin("le", o)

    def __gt__(self, o):
        return self._bin("gt", o)

    def __ge__(self, o):
        return self._bin("ge", o)

    def __eq__(self, o):  # type: ignore[override]
        return self._bin("eq", o)

    def __ne__(self, o):  # type: ignore[override]
        return self._bin("ne", o)

    def __and__(self, o):
        return self._bin("and", o)

    def __or__(self, o):
        return self._bin("or", o)

    def __invert__(self):
        return TVal(cur_builder().unop("not", self.atom))

    __hash__ = None  # tracers are not hashable (== is symbolic)

    # -- indexing -----------------------------------------------------------------------

    def __getitem__(self, idx) -> "TVal":
        if self.rank == 0:
            raise IRError("cannot index a scalar tracer")
        if not isinstance(idx, tuple):
            idx = (idx,)
        b = cur_builder()
        atoms = []
        for i in idx:
            ia = lift(i, ty=I64).atom
            if not (elem_type(ia.type) in (I32, I64) and rank_of(ia.type) == 0):
                raise IRError(f"array index must be an integer scalar, got {ia.type}")
            atoms.append(ia)
        arr = self.atom
        if not isinstance(arr, Var):
            raise IRError("cannot index a constant")
        return TVal(b.emit1(Index(arr, tuple(atoms)), "x"))

    # -- guards against Python control flow on tracers --------------------------------------

    def __bool__(self):
        raise IRError(
            "traced values have no Python truth value; use repro.cond / "
            "repro.while_loop for data-dependent control flow"
        )

    def __float__(self):
        raise IRError("traced values cannot be converted to float during tracing")

    def __int__(self):
        raise IRError("traced values cannot be converted to int during tracing")

    def __iter__(self):
        raise IRError(
            "traced arrays are not iterable; use repro.map / repro.fori_loop"
        )


def lift(x, like: Optional[TVal] = None, ty: Optional[Scalar] = None) -> TVal:
    """Coerce a Python scalar (or TVal) into a tracer.

    Numeric literals adopt the element type of ``like`` when given, so
    ``x * 2`` works for both f32 and f64 tracers.
    """
    if isinstance(x, TVal):
        return x
    if isinstance(x, (Var, Const)):
        return TVal(x)
    if isinstance(x, (bool, np.bool_)):
        return TVal(const(bool(x), BOOL))
    if isinstance(x, (int, np.integer)):
        if like is not None and is_float(like.dtype):
            return TVal(const(float(x), like.dtype))
        return TVal(const(int(x), ty or (like.dtype if like is not None else I64)))
    if isinstance(x, (float, np.floating)):
        if like is not None and is_float(like.dtype):
            return TVal(const(float(x), like.dtype))
        return TVal(const(float(x), F64))
    raise IRError(f"cannot lift {type(x).__name__} into the traced program")


# ---------------------------------------------------------------------------
# Tracing entry points
# ---------------------------------------------------------------------------


def arg_types_of(args: Sequence[object]) -> Tuple[Type, ...]:
    """Infer IR types from example NumPy/Python arguments."""
    tys: List[Type] = []
    for a in args:
        arr = np.asarray(a)
        tys.append(with_rank(from_np_dtype(arr.dtype), arr.ndim))
    return tuple(tys)


def trace(
    f: Callable,
    in_types: Sequence[Type],
    name: Optional[str] = None,
    arg_names: Optional[Sequence[str]] = None,
) -> Fun:
    """Trace ``f`` at the given parameter types into an ``ir.Fun``.

    ``f`` receives one ``TVal`` per parameter and returns a TVal (or a
    tuple/list of TVals, or Python scalars, which become constants).
    """
    name = name or getattr(f, "__name__", "traced") or "traced"
    if arg_names is None:
        arg_names = []
        code = getattr(f, "__code__", None)
        if code is not None:
            arg_names = list(code.co_varnames[: code.co_argcount])
        while len(arg_names) < len(in_types):
            arg_names.append(f"arg{len(arg_names)}")
    params = tuple(Var(fresh(n), t) for n, t in zip(arg_names, in_types))
    with _obs_tracing.span("trace", cat="compile", fun=name):
        with scope() as b:
            out = f(*[TVal(p) for p in params])
            if out is None:
                raise IRError(f"{name}: traced function returned None")
            outs = out if isinstance(out, (tuple, list)) else (out,)
            result = tuple(lift(o).atom for o in outs)
            body = b.finish(result)
        fun = Fun(name, params, body)
        check_fun(fun)
        validate_fun(fun)
    from ..ir.verify import maybe_verify_fun

    return maybe_verify_fun(fun, where="trace")


def trace_like(f: Callable, example_args: Sequence[object], name: Optional[str] = None) -> Fun:
    """Trace ``f`` with parameter types inferred from example arguments."""
    return trace(f, arg_types_of(example_args), name=name)
