"""Eager, tape-based reverse-mode AD over NumPy — the comparator baseline.

This is the execution model of the tools the paper compares against:

* like **PyTorch**, operations execute eagerly on whole arrays and every
  intermediate is recorded on a global tape; ``backward`` replays the tape
  in reverse;
* like **Tapenade**'s store-all strategy, *all* primal intermediates are
  retained until the return sweep — there is no redundant-execution /
  recompute-from-scope trade; the instrumented ``tape_bytes`` /
  ``peak_tape_bytes`` make the memory contrast with the paper's tapeless
  approach measurable.

Only the operations the benchmark applications need are implemented, but
they are implemented properly: full broadcasting (with gradient
un-broadcasting), matmul, reductions with axes, gather/index and
scatter-add, stacking, and the usual transcendentals.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["T", "Tape", "tape", "grad", "value_and_grad"]


class Tape:
    """The global operation tape; records nodes and retained bytes."""

    def __init__(self) -> None:
        self.nodes: List["T"] = []
        self.tape_bytes = 0
        self.peak_tape_bytes = 0

    def record(self, t: "T") -> None:
        self.nodes.append(t)
        self.tape_bytes += t.data.nbytes
        self.peak_tape_bytes = max(self.peak_tape_bytes, self.tape_bytes)

    def reset(self) -> None:
        self.nodes.clear()
        self.tape_bytes = 0
        self.peak_tape_bytes = 0


tape = Tape()


def _unbroadcast(g: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverse of NumPy broadcasting)."""
    g = np.asarray(g)
    if g.shape == shape:
        return g
    nd = g.ndim - len(shape)
    if nd > 0:
        g = g.sum(axis=tuple(range(nd)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class T:
    """A taped tensor."""

    __slots__ = ("data", "grad", "parents", "bwd", "requires_grad")
    __array_priority__ = 1000

    def __init__(
        self,
        data,
        parents: Sequence["T"] = (),
        bwd: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
        requires_grad: bool = False,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.parents = tuple(parents)
        self.bwd = bwd
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        if self.requires_grad and parents:
            tape.record(self)

    # -- helpers ---------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self) -> str:
        return f"T(shape={self.data.shape})"

    # -- reverse sweep ------------------------------------------------------------

    def backward(self, seed=None) -> None:
        order: List[T] = []
        seen = set()

        def topo(t: "T") -> None:
            if id(t) in seen or not t.requires_grad:
                return
            seen.add(id(t))
            for p in t.parents:
                topo(p)
            order.append(t)

        topo(self)
        for t in order:
            t.grad = None
        self.grad = (
            np.ones_like(self.data) if seed is None else np.asarray(seed, dtype=np.float64)
        )
        for t in reversed(order):
            if t.bwd is None or t.grad is None:
                continue
            gs = t.bwd(t.grad)
            for p, g in zip(t.parents, gs):
                if g is None or not p.requires_grad:
                    continue
                g = _unbroadcast(g, p.data.shape)
                p.grad = g if p.grad is None else p.grad + g

    # -- arithmetic -----------------------------------------------------------------

    def _lift(self, o) -> "T":
        return o if isinstance(o, T) else T(o)

    def __add__(self, o):
        o = self._lift(o)
        return T(self.data + o.data, (self, o), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, o):
        o = self._lift(o)
        return T(self.data - o.data, (self, o), lambda g: (g, -g))

    def __rsub__(self, o):
        return self._lift(o) - self

    def __mul__(self, o):
        o = self._lift(o)
        return T(self.data * o.data, (self, o), lambda g: (g * o.data, g * self.data))

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._lift(o)
        out = self.data / o.data
        return T(out, (self, o), lambda g: (g / o.data, -g * out / o.data))

    def __rtruediv__(self, o):
        return self._lift(o) / self

    def __neg__(self):
        return T(-self.data, (self,), lambda g: (-g,))

    def __pow__(self, k):
        if isinstance(k, T):
            out = self.data ** k.data
            return T(
                out,
                (self, k),
                lambda g: (
                    g * k.data * self.data ** (k.data - 1),
                    g * out * np.log(self.data),
                ),
            )
        return T(
            self.data ** k, (self,), lambda g: (g * k * self.data ** (k - 1),)
        )

    def __matmul__(self, o):
        o = self._lift(o)
        return T(
            self.data @ o.data,
            (self, o),
            lambda g: (g @ o.data.swapaxes(-1, -2), self.data.swapaxes(-1, -2) @ g),
        )

    # -- indexing ----------------------------------------------------------------------

    def __getitem__(self, idx):
        out = self.data[idx]

        def bwd(g):
            gi = np.zeros_like(self.data)
            np.add.at(gi, idx, g)
            return (gi,)

        return T(out, (self,), bwd)

    @property
    def Tr(self) -> "T":
        return T(self.data.T, (self,), lambda g: (g.T,))

    def reshape(self, *shape):
        old = self.data.shape
        return T(self.data.reshape(*shape), (self,), lambda g: (g.reshape(old),))

    def sum(self, axis=None, keepdims=False):
        out = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, self.data.shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.data.shape).copy(),)

        return T(out, (self,), bwd)

    def max(self, axis=None, keepdims=False):
        out = self.data.max(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            full = out if keepdims or axis is None else np.expand_dims(out, axis)
            mask = self.data == full
            mask = mask / mask.sum(axis=axis, keepdims=True)
            gg = g if keepdims or axis is None else np.expand_dims(g, axis)
            return (mask * gg,)

        return T(out, (self,), bwd)

    def min(self, axis=None, keepdims=False):
        return -((-self).max(axis=axis, keepdims=keepdims))


# -- free functions -------------------------------------------------------------------


def _unop(fn, dfn):
    def f(x: T) -> T:
        x = x if isinstance(x, T) else T(x)
        out = fn(x.data)
        return T(out, (x,), lambda g: (g * dfn(x.data, out),))

    return f


exp = _unop(np.exp, lambda x, y: y)
log = _unop(np.log, lambda x, y: 1.0 / x)
sqrt = _unop(np.sqrt, lambda x, y: 0.5 / y)
sin = _unop(np.sin, lambda x, y: np.cos(x))
cos = _unop(np.cos, lambda x, y: -np.sin(x))
tanh = _unop(np.tanh, lambda x, y: 1.0 - y * y)


@functools.lru_cache(maxsize=None)
def _sp_erf():
    """SciPy's ``erf``, else ``math.erf`` vectorised, looked up on the first
    call (``scipy.special`` costs more to import than everything else here)."""
    try:
        from scipy.special import erf
    except ImportError:
        return np.vectorize(math.erf)
    return erf


erf = _unop(lambda x: _sp_erf()(x), lambda x, y: 2.0 / np.sqrt(np.pi) * np.exp(-x * x))
abs_ = _unop(np.abs, lambda x, y: np.sign(x))


def sigmoid(x: T) -> T:
    x = x if isinstance(x, T) else T(x)
    out = 0.5 * (np.tanh(0.5 * x.data) + 1.0)
    return T(out, (x,), lambda g: (g * out * (1.0 - out),))


def maximum(a, b) -> T:
    a = a if isinstance(a, T) else T(a)
    b = b if isinstance(b, T) else T(b)
    out = np.maximum(a.data, b.data)
    return T(
        out,
        (a, b),
        lambda g: (g * (a.data >= b.data), g * (a.data < b.data)),
    )


def minimum(a, b) -> T:
    a = a if isinstance(a, T) else T(a)
    b = b if isinstance(b, T) else T(b)
    out = np.minimum(a.data, b.data)
    return T(
        out,
        (a, b),
        lambda g: (g * (a.data <= b.data), g * (a.data > b.data)),
    )


def where(c, a, b) -> T:
    c = np.asarray(c.data if isinstance(c, T) else c)
    a = a if isinstance(a, T) else T(a)
    b = b if isinstance(b, T) else T(b)
    return T(
        np.where(c, a.data, b.data),
        (a, b),
        lambda g: (np.where(c, g, 0.0), np.where(c, 0.0, g)),
    )


def stack(ts: Sequence[T], axis: int = 0) -> T:
    ts = [t if isinstance(t, T) else T(t) for t in ts]
    out = np.stack([t.data for t in ts], axis=axis)

    def bwd(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(ts)))

    return T(out, tuple(ts), bwd)


def concat(ts: Sequence[T], axis: int = 0) -> T:
    ts = [t if isinstance(t, T) else T(t) for t in ts]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]

    def bwd(g):
        outs = []
        off = 0
        for s in sizes:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(off, off + s)
            outs.append(g[tuple(sl)])
            off += s
        return tuple(outs)

    return T(out, tuple(ts), bwd)


def gather(x: T, idx) -> T:
    return x[np.asarray(idx)]


def scatter_add(x: T, idx, v: T) -> T:
    """out = x with out[idx] += v (taped)."""
    x = x if isinstance(x, T) else T(x)
    v = v if isinstance(v, T) else T(v)
    out = np.array(x.data)
    np.add.at(out, np.asarray(idx), v.data)

    def bwd(g):
        return (g, g[np.asarray(idx)])

    return T(out, (x, v), bwd)


def logsumexp(x: T, axis=None, keepdims=False) -> T:
    m = T(x.data.max(axis=axis, keepdims=True))
    y = log((exp(x - m)).sum(axis=axis, keepdims=True)) + m
    if not keepdims and axis is not None:
        y = T(np.squeeze(y.data, axis=axis), (y,), lambda g: (np.expand_dims(g, axis),))
    elif not keepdims and axis is None:
        y = T(y.data.reshape(()), (y,), lambda g: (np.reshape(g, (1,) * x.ndim),))
    return y


def grad(f: Callable) -> Callable:
    """Gradient of a scalar function of T arguments."""

    def run(*args):
        tape.reset()
        ts = [T(a, requires_grad=True) for a in args]
        out = f(*ts)
        out.backward()
        gs = tuple(
            t.grad if t.grad is not None else np.zeros_like(t.data) for t in ts
        )
        return gs[0] if len(gs) == 1 else gs

    return run


def value_and_grad(f: Callable) -> Callable:
    def run(*args):
        tape.reset()
        ts = [T(a, requires_grad=True) for a in args]
        out = f(*ts)
        out.backward()
        gs = tuple(
            t.grad if t.grad is not None else np.zeros_like(t.data) for t in ts
        )
        return out.data, (gs[0] if len(gs) == 1 else gs)

    return run
