"""AST of the ANF array IR.

The language follows the paper's core IR (§2.1):

* programs are in A-normal form — every subexpression is a ``Var`` or
  ``Const`` except the bodies of lambdas, loops and ifs;
* a ``Body`` is a sequence of statements followed by a tuple of result atoms;
* a ``Stm`` binds a *tuple* of variables to a single expression (SOACs, loops
  and ifs are variadic in their results, so zips/unzips are implicit);
* lambdas appear only syntactically inside SOACs / ``WithAcc`` and are not
  values;
* the language is purely functional — ``Update``/``Scatter`` have functional
  copy semantics operationally guaranteed (by Futhark's uniqueness types;
  by copy-on-write in our executors);
* accumulators (``WithAcc``/``UpdAcc``) are the paper's write-only views used
  by reverse AD inside ``map``.

Nodes are frozen dataclasses, so whatever can be derived from one — its free
variables, its content hash, the passes it is a fixed point of — is true for
as long as the object lives.  ``fact`` keeps such a value on the node itself.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Union

from .types import Scalar, Type

__all__ = [
    "fact",
    "Var",
    "Const",
    "Atom",
    "Exp",
    "AtomExp",
    "UnOp",
    "BinOp",
    "Select",
    "Cast",
    "Index",
    "Update",
    "Iota",
    "Replicate",
    "ZerosLike",
    "ScratchLike",
    "Size",
    "Reverse",
    "Concat",
    "Lambda",
    "Map",
    "Reduce",
    "Scan",
    "ReduceByIndex",
    "Scatter",
    "Loop",
    "WhileLoop",
    "If",
    "WithAcc",
    "UpdAcc",
    "Stm",
    "Body",
    "Fun",
    "UNOPS",
    "BINOPS",
    "COMPARISONS",
]


def fact(node, name: str, compute: Callable[[Any], Any]):
    """``compute(node)``, evaluated on first request and kept on the node.

    The value lives in the instance ``__dict__`` (which ``frozen=True`` does
    not guard), not in a field: ``==``, ``hash``, ``repr``,
    ``dataclasses.replace`` and ``ir_hash`` never see it, a rebuilt node
    starts without it, and it dies with the node — nothing is pinned and
    there is nothing to bound or invalidate.  Two threads racing on the first
    request store the same value twice.
    """
    d = node.__dict__
    try:
        return d[name]
    except KeyError:
        v = d[name] = compute(node)
        return v


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """A named SSA variable with its type."""

    name: str
    type: Type

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A scalar literal."""

    value: object
    type: Scalar

    def __repr__(self) -> str:
        if self.type is Scalar.BOOL:
            return "true" if self.value else "false"
        return repr(self.value)


Atom = Union[Var, Const]


# ---------------------------------------------------------------------------
# Operator tables
# ---------------------------------------------------------------------------

#: Unary scalar operators.  All are elementwise rank-polymorphic in the
#: executors (a deliberate convenience: generated adjoint code uses
#: whole-array adds where Futhark would write ``map2 (+)``).
UNOPS = frozenset(
    {
        "neg",
        "sin",
        "cos",
        "tan",
        "exp",
        "log",
        "sqrt",
        "abs",
        "sgn",
        "not",
        "tanh",
        "sigmoid",
        "floor",
        "erf",
    }
)

#: Binary scalar operators (likewise elementwise in executors).
BINOPS = frozenset(
    {
        "add",
        "sub",
        "mul",
        "div",
        "pow",
        "min",
        "max",
        "and",
        "or",
        "lt",
        "le",
        "gt",
        "ge",
        "eq",
        "ne",
        "mod",
    }
)

COMPARISONS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomExp:
    """An atom used as an expression (copy / rename)."""

    x: Atom


@dataclass(frozen=True)
class UnOp:
    op: str
    x: Atom


@dataclass(frozen=True)
class BinOp:
    op: str
    x: Atom
    y: Atom


@dataclass(frozen=True)
class Select:
    """Scalar/elementwise select: ``c ? t : f``."""

    c: Atom
    t: Atom
    f: Atom


@dataclass(frozen=True)
class Cast:
    x: Atom
    to: Scalar


@dataclass(frozen=True)
class Index:
    """``arr[i0, i1, ...]`` — possibly partial (result rank = rank - len(idx))."""

    arr: Var
    idx: Tuple[Atom, ...]


@dataclass(frozen=True)
class Update:
    """Functional in-place write: result is ``arr`` with ``arr[idx] = val``.

    ``val``'s rank must equal ``arr.rank - len(idx)``.
    """

    arr: Var
    idx: Tuple[Atom, ...]
    val: Atom


@dataclass(frozen=True)
class Iota:
    """``[0, 1, ..., n-1]`` of the given integral element type."""

    n: Atom
    elem: Scalar = Scalar.I64


@dataclass(frozen=True)
class Replicate:
    """``n`` copies of ``v`` along a new leading axis."""

    n: Atom
    v: Atom


@dataclass(frozen=True)
class ZerosLike:
    """A zero value with the type/shape of ``x`` (used to seed adjoints)."""

    x: Atom


@dataclass(frozen=True)
class ScratchLike:
    """An uninitialised (zeroed) array of shape ``(n,) + shape(x)``.

    Used to allocate loop checkpoint storage (paper Fig. 3, ``scratch``).
    """

    n: Atom
    x: Atom


@dataclass(frozen=True)
class Size:
    """``length arr`` along dimension ``dim`` (an i64 scalar)."""

    arr: "Var"
    dim: int = 0


@dataclass(frozen=True)
class Reverse:
    """Reverse an array along its leading axis (used by reduce/scan rules)."""

    x: Var


@dataclass(frozen=True)
class Concat:
    """Concatenate two arrays along the leading axis."""

    x: Var
    y: Var


# ---------------------------------------------------------------------------
# Lambdas and SOACs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lambda:
    """An anonymous function; may reference enclosing variables freely."""

    params: Tuple[Var, ...]
    body: "Body"


@dataclass(frozen=True)
class Map:
    """``map lam arrs`` — variadic second-order map.

    * ``arrs`` are arrays of equal leading extent; the lambda receives one
      element of each.
    * ``accs`` are accumulator variables threaded through every iteration
      (paper §5.4: "implicit conversion between accumulators and arrays of
      accumulators").  The lambda's parameters are
      ``(elem_0 .. elem_{k-1}, acc_0 .. acc_{m-1})`` and its body must return
      the accumulators as its *leading* results, followed by the per-element
      results.  The Map's own results are the final accumulators followed by
      the result arrays.
    """

    lam: Lambda
    arrs: Tuple[Var, ...]
    accs: Tuple[Var, ...] = ()


@dataclass(frozen=True)
class Reduce:
    """``reduce lam nes arrs`` with an associative operator.

    The lambda has ``2k`` parameters (accumulator tuple, element tuple) and
    ``k`` results; ``nes`` are the neutral elements.  Elements are scalars.
    """

    lam: Lambda
    nes: Tuple[Atom, ...]
    arrs: Tuple[Var, ...]


@dataclass(frozen=True)
class Scan:
    """Inclusive prefix scan with an associative operator (same shape as Reduce)."""

    lam: Lambda
    nes: Tuple[Atom, ...]
    arrs: Tuple[Var, ...]


@dataclass(frozen=True)
class ReduceByIndex:
    """Generalised histogram (paper §5.1.2).

    ``num_bins`` gives the histogram size ``m``; ``inds`` holds bin indices
    (out-of-range indices are ignored, matching Futhark's semantics); ``vals``
    are the value arrays; ``lam``/``nes`` is the associative & commutative
    operator with neutral element(s).  Results are ``k`` arrays of length m.
    """

    num_bins: Atom
    lam: Lambda
    nes: Tuple[Atom, ...]
    inds: Var
    vals: Tuple[Var, ...]


@dataclass(frozen=True)
class Scatter:
    """``scatter dest inds vals`` — bulk in-place update (paper §5.3).

    Writes ``vals[i]`` to ``dest[inds[i]]``; indices must not contain
    duplicates (the paper's rule assumes the same); out-of-range indices are
    ignored.  Functional copy semantics in our executors.
    """

    dest: Var
    inds: Var
    vals: Var


# ---------------------------------------------------------------------------
# Control flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Loop:
    """``loop (params = inits) for ivar < n do body`` — a pure for-loop.

    ``body`` sees ``params`` and ``ivar``; its results become the params of
    the next iteration.  Annotations (mirroring the paper's user annotations):

    * ``stripmine`` — strip-mine this loop by the factor ``stripmine`` before
      reverse AD (time–space trade-off of §4.3; 0 and 1 both mean "off");
    * ``checkpoint`` — ``"iters"`` (default: save loop-variant values every
      iteration, Fig. 3) or ``"entry"`` (§6.2: loop-variant arrays free of
      false dependencies are saved once at loop entry and restored before the
      return sweep).  That freedom is the user's assertion; nothing checks it.

    ``ir.typecheck`` refuses any other value of either field.
    """

    params: Tuple[Var, ...]
    inits: Tuple[Atom, ...]
    ivar: Var
    n: Atom
    body: "Body"
    stripmine: int = 0
    checkpoint: str = "iters"


@dataclass(frozen=True)
class WhileLoop:
    """``loop (params = inits) while cond do body``.

    Reverse AD requires either a static iteration ``bound`` annotation or the
    inspector strategy (§6.2); the ``while_bound`` pass rewrites bounded while
    loops into ``Loop`` + ``If``.
    """

    params: Tuple[Var, ...]
    inits: Tuple[Atom, ...]
    cond: "Lambda"
    body: "Body"
    bound: Optional[Atom] = None


@dataclass(frozen=True)
class If:
    """Multi-result conditional; both branches are bodies (new scopes)."""

    cond: Atom
    then: "Body"
    els: "Body"


# ---------------------------------------------------------------------------
# Accumulators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WithAcc:
    """``withacc arrs lam`` — run ``lam`` with accumulator views of ``arrs``.

    ``lam``'s parameters are the accumulators; its body must return the final
    accumulators (leading results) followed by any secondary results.  The
    WithAcc's results are the updated arrays followed by the secondary
    results.  While the accumulators live, the underlying arrays may not be
    read (checked by ``validate``).
    """

    arrs: Tuple[Var, ...]
    lam: Lambda


@dataclass(frozen=True)
class UpdAcc:
    """``upd idx v acc`` — additively update an accumulator.

    With an empty ``idx`` the whole underlying array is updated elementwise
    (``v`` has the array's full rank).  Returns the new accumulator.
    """

    acc: Var
    idx: Tuple[Atom, ...]
    v: Atom


Exp = Union[
    AtomExp,
    UnOp,
    BinOp,
    Select,
    Cast,
    Index,
    Update,
    Iota,
    Replicate,
    ZerosLike,
    ScratchLike,
    Size,
    Reverse,
    Concat,
    Map,
    Reduce,
    Scan,
    ReduceByIndex,
    Scatter,
    Loop,
    WhileLoop,
    If,
    WithAcc,
    UpdAcc,
]


# ---------------------------------------------------------------------------
# Statements, bodies, functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Stm:
    """``let (pat...) = exp``."""

    pat: Tuple[Var, ...]
    exp: Exp

    def __post_init__(self) -> None:
        assert isinstance(self.pat, tuple), "Stm.pat must be a tuple of Vars"


@dataclass(frozen=True)
class Body:
    """A sequence of statements followed by result atoms — a lexical scope."""

    stms: Tuple[Stm, ...]
    result: Tuple[Atom, ...]


@dataclass(frozen=True)
class Fun:
    """A top-level function (the unit AD operates on)."""

    name: str
    params: Tuple[Var, ...]
    body: Body
