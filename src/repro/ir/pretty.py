"""Pretty-printer for the IR (Futhark-flavoured concrete syntax)."""
from __future__ import annotations

from .ast import (
    AtomExp,
    Atom,
    BinOp,
    Body,
    Cast,
    Concat,
    Exp,
    Fun,
    If,
    Index,
    Iota,
    Lambda,
    Loop,
    Map,
    Reduce,
    ReduceByIndex,
    Replicate,
    Reverse,
    Scan,
    Scatter,
    ScratchLike,
    Select,
    Size,
    Stm,
    UnOp,
    UpdAcc,
    Update,
    WhileLoop,
    WithAcc,
    ZerosLike,
)

__all__ = ["pretty", "pretty_exp"]

_BIN_SYMS = {
    "add": "+",
    "sub": "-",
    "mul": "*",
    "div": "/",
    "pow": "**",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "eq": "==",
    "ne": "!=",
    "and": "&&",
    "or": "||",
    "mod": "%",
}


def _atom(a: Atom) -> str:
    return repr(a)


def _atoms(atoms) -> str:
    return ", ".join(_atom(a) for a in atoms)


def _lam(lam: Lambda, ind: str) -> str:
    ps = " ".join(f"{p.name}: {p.type}" for p in lam.params)
    body = _body(lam.body, ind + "  ")
    return f"(\\{ps} ->\n{body}{ind})"


def pretty_exp(e: Exp, ind: str = "") -> str:
    if isinstance(e, AtomExp):
        return _atom(e.x)
    if isinstance(e, UnOp):
        return f"{e.op}({_atom(e.x)})"
    if isinstance(e, BinOp):
        sym = _BIN_SYMS.get(e.op)
        if sym:
            return f"{_atom(e.x)} {sym} {_atom(e.y)}"
        return f"{e.op}({_atom(e.x)}, {_atom(e.y)})"
    if isinstance(e, Select):
        return f"select({_atom(e.c)}, {_atom(e.t)}, {_atom(e.f)})"
    if isinstance(e, Cast):
        return f"{e.to}({_atom(e.x)})"
    if isinstance(e, Index):
        return f"{e.arr.name}[{_atoms(e.idx)}]"
    if isinstance(e, Update):
        return f"{e.arr.name} with [{_atoms(e.idx)}] <- {_atom(e.val)}"
    if isinstance(e, Iota):
        return f"iota({_atom(e.n)})"
    if isinstance(e, Replicate):
        return f"replicate({_atom(e.n)}, {_atom(e.v)})"
    if isinstance(e, ZerosLike):
        return f"zeros_like({_atom(e.x)})"
    if isinstance(e, ScratchLike):
        return f"scratch({_atom(e.n)}, like={_atom(e.x)})"
    if isinstance(e, Size):
        return f"length_{e.dim}({e.arr.name})"
    if isinstance(e, Reverse):
        return f"reverse({e.x.name})"
    if isinstance(e, Concat):
        return f"concat({e.x.name}, {e.y.name})"
    if isinstance(e, Map):
        args = _atoms(e.arrs)
        if e.accs:
            args += " ; accs=" + _atoms(e.accs)
        return f"map {_lam(e.lam, ind)} {args}"
    if isinstance(e, Reduce):
        return f"reduce {_lam(e.lam, ind)} ({_atoms(e.nes)}) {_atoms(e.arrs)}"
    if isinstance(e, Scan):
        return f"scan {_lam(e.lam, ind)} ({_atoms(e.nes)}) {_atoms(e.arrs)}"
    if isinstance(e, ReduceByIndex):
        return (
            f"reduce_by_index {_atom(e.num_bins)} {_lam(e.lam, ind)} "
            f"({_atoms(e.nes)}) {e.inds.name} {_atoms(e.arrs)}"
        )
    if isinstance(e, Scatter):
        return f"scatter {e.dest.name} {e.inds.name} {e.vals.name}"
    if isinstance(e, Loop):
        hdr = ", ".join(f"{p.name} = {_atom(i)}" for p, i in zip(e.params, e.inits))
        ann = f" @stripmine({e.stripmine})" if e.stripmine else ""
        body = _body(e.body, ind + "  ")
        return f"loop ({hdr}) for {e.ivar.name} < {_atom(e.n)}{ann} do\n{body}{ind}end"
    if isinstance(e, WhileLoop):
        hdr = ", ".join(f"{p.name} = {_atom(i)}" for p, i in zip(e.params, e.inits))
        cond = _lam(e.cond, ind)
        bound = "" if e.bound is None else f" @bound({_atom(e.bound)})"
        body = _body(e.body, ind + "  ")
        return f"loop ({hdr}) while {cond}{bound} do\n{body}{ind}end"
    if isinstance(e, If):
        t = _body(e.then, ind + "  ")
        f = _body(e.els, ind + "  ")
        return f"if {_atom(e.cond)}\n{ind}then\n{t}{ind}else\n{f}{ind}end"
    if isinstance(e, WithAcc):
        return f"withacc ({_atoms(e.arrs)}) {_lam(e.lam, ind)}"
    if isinstance(e, UpdAcc):
        return f"upd {e.acc.name}[{_atoms(e.idx)}] += {_atom(e.v)}"
    return f"<?{type(e).__name__}?>"


def _stm(stm: Stm, ind: str) -> str:
    pat = ", ".join(f"{v.name}: {v.type}" for v in stm.pat)
    return f"{ind}let {pat} = {pretty_exp(stm.exp, ind)}\n"


def _body(body: Body, ind: str) -> str:
    s = "".join(_stm(stm, ind) for stm in body.stms)
    s += f"{ind}in ({_atoms(body.result)})\n"
    return s


def pretty(node) -> str:
    """Render a Fun / Body / Lambda / Exp as concrete syntax."""
    if isinstance(node, Fun):
        ps = ", ".join(f"{p.name}: {p.type}" for p in node.params)
        return f"fun {node.name}({ps}) =\n{_body(node.body, '  ')}"
    if isinstance(node, Body):
        return _body(node, "")
    if isinstance(node, Lambda):
        return _lam(node, "")
    return pretty_exp(node)
