"""User-facing AD entry points: ``jvp``, ``vjp``, ``grad``, ``jacobian``,
``hessian_diag``.

These mirror the paper's ``jvp``/``vjp`` language constructs (§2.0.1/2.0.2):

* ``vjp(f)(x̲, ȳ) = ȳ · J_f(x̲)``  — reverse mode, one pass for a full
  gradient of a scalar function;
* ``jvp(f)(x̲, ẋ) = J_f(x̲) · ẋ``  — forward mode, one pass per direction;
* ``jacobian`` maps ``vjp``/``jvp`` over a basis, picking the cheaper mode
  from the input/output dimensions;
* ``hessian_diag`` nests forward over reverse (the §7.4 k-means trick —
  sparsity exploited by choosing seed vectors).

Batched seeds
-------------

``jacobian`` evaluates *all* basis seeds in a single pass: the n (fwd) or
m (rev) seed vectors are stacked on a leading batch axis and the derivative
function runs once, mapped over that axis (``Compiled.call_batched``, which
runs ``frontend.function.batched_fun`` — one more level of nested
parallelism, on every backend) — instead of n/m separate invocations.
"""
from __future__ import annotations

from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..frontend.function import Compiled, compile_fun
from ..ir.ast import Body, Fun
from ..ir.types import is_float, rank_of
from ..opt.pipeline import AD_SAFE_PASSES, optimize_fun
from ..opt.while_bound import while_bound_fun
from ..opt.stripmine import stripmine_fun
from ..util import ADError
from .jvp import jvp_fun
from .vjp import vjp_fun

__all__ = ["jvp", "vjp", "grad", "value_and_grad", "jacobian", "hessian_diag"]

FunLike = Union[Fun, Compiled]


def _fun_of(f: FunLike) -> Fun:
    if isinstance(f, Compiled):
        return f.fun
    return f


def _pre_ad(fun: Fun) -> Fun:
    """Pre-AD pipeline: simplify, bound while loops, apply strip-mining
    annotations (the paper runs AD on an already heavily-optimised program).

    Runs the AD-safe pass set only: the input may come from an
    already-optimised ``Compiled`` whose fused redomap-shaped operators the
    AD rules cannot differentiate — ``vjp_fun``/``jvp_fun`` unfuse their
    input, and nothing here may re-fuse it.  The post-AD optimisation of
    the derivative function re-fuses — the paper's "AD preserves fusion
    opportunities" round trip.
    """
    fun = optimize_fun(fun, passes=AD_SAFE_PASSES)
    fun = while_bound_fun(fun)
    fun = stripmine_fun(fun)
    return optimize_fun(fun, passes=AD_SAFE_PASSES)


def _as_tuple(res) -> tuple:
    """Normalise a ``Compiled`` call result (which unwraps singletons)."""
    return res if isinstance(res, tuple) else (res,)


class ADFunction(Compiled):
    """A compiled derivative function with bookkeeping about its shape."""

    def __init__(
        self, fun: Fun, n_primal_out: int, optimize: bool = True, passes=None
    ) -> None:
        super().__init__(fun, optimize=optimize, passes=passes)
        self.n_primal_out = n_primal_out


def _project(fun: Fun, keep: slice) -> Fun:
    """``fun`` returning only ``fun.body.result[keep]``, with its parameter
    list unchanged: the optimiser's DCE then drops the work that only the
    other results needed."""
    return Fun(fun.name, fun.params, Body(fun.body.stms, fun.body.result[keep]))


def _vjp_fun(f: FunLike, wrt) -> Tuple[Fun, int]:
    """The unoptimised reverse-mode program of ``f`` and ``f``'s result count."""
    fun = _pre_ad(_fun_of(f))
    return vjp_fun(fun, wrt=wrt), len(fun.body.result)


def vjp(f: FunLike, optimize: bool = True, wrt=None, passes=None) -> ADFunction:
    """Reverse-mode derivative.

    ``vjp(f)(*args, *seeds)`` returns ``(*primal_results, *adjoints)`` where
    ``seeds`` are the adjoints of ``f``'s float results and ``adjoints`` are
    the adjoints of ``f``'s float parameters.  ``passes`` selects the
    optimisation passes applied to the *derivative* program (the pre-AD
    pipeline always runs the AD-safe set).

    The accumulator updates reverse AD leaves are not rewritten into
    reduce/histogram kernels (the paper's §6.1): the executor gets the same
    effect, as a ``contract`` instruction for a product accumulation map and
    a strided view add (``exec/vector.py:_add_view``) for an update whose
    index does not vary along some lanes.
    """
    out, n_res = _vjp_fun(f, wrt)
    return ADFunction(out, n_res, optimize=optimize, passes=passes)


def jvp(f: FunLike, optimize: bool = True, passes=None) -> ADFunction:
    """Forward-mode derivative.

    ``jvp(f)(*args, *tangents)`` returns ``(*primal_results, *tangent_results)``.
    """
    fun = _pre_ad(_fun_of(f))
    out = jvp_fun(fun)
    return ADFunction(out, len(fun.body.result), optimize=optimize, passes=passes)


def grad(f: FunLike, optimize: bool = True, wrt=None, passes=None) -> Callable:
    """Gradient of a scalar-valued function: ``grad(f)(*args)`` returns the
    adjoints of the (``wrt``-selected) float parameters.

    ``run.adfun`` is the vjp projected to those adjoints: it takes
    ``(*args, seed)`` like ``vjp(f)`` but neither computes nor returns ``y``.
    """
    fun = _fun_of(f)
    r0 = fun.body.result[0].type
    if len(fun.body.result) != 1 or not is_float(r0) or rank_of(r0) != 0:
        raise ADError("grad: function must return a single float scalar")
    out, n_res = _vjp_fun(f, wrt)
    g = ADFunction(_project(out, slice(n_res, None)), 0, optimize=optimize, passes=passes)

    def run(*args, backend: Optional[str] = None):
        # ``Compiled`` unwraps a single adjoint.
        return g(*args, 1.0, backend=backend)

    run.adfun = g  # type: ignore[attr-defined]
    return run


def value_and_grad(
    f: FunLike, optimize: bool = True, wrt=None, passes=None
) -> Callable:
    """Like ``grad`` but also returns the primal value."""
    fun = _fun_of(f)
    r0 = fun.body.result[0].type
    if len(fun.body.result) != 1 or not is_float(r0) or rank_of(r0) != 0:
        raise ADError("value_and_grad: function must return a single float scalar")
    g = vjp(f, optimize=optimize, wrt=wrt, passes=passes)

    def run(*args, backend: Optional[str] = None):
        # Normalise exactly as ``grad`` does: ``Compiled`` unwraps singleton
        # results, so ``res`` may be a bare value rather than a tuple.
        res = _as_tuple(g(*args, 1.0, backend=backend))
        adjs = res[1:]
        return res[0], (adjs[0] if len(adjs) == 1 else adjs)

    run.adfun = g  # type: ignore[attr-defined]
    return run


def jacobian(f: FunLike, mode: Optional[str] = None) -> Callable:
    """Dense Jacobian of a single-input/single-output function.

    ``mode`` is "fwd" (map ``jvp`` over input basis vectors), "rev" (map
    ``vjp`` over output basis vectors), or None to choose by dimensions at
    call time — the §2 cost argument.

    The returned callable accepts a ``backend`` keyword.  All basis seeds
    are evaluated in one ``call_batched`` pass.
    """
    if mode not in (None, "fwd", "rev"):
        raise ADError(f'jacobian: mode must be "fwd", "rev" or None, not {mode!r}')
    fun = _fun_of(f)
    if len(fun.params) != 1 or len(fun.body.result) != 1:
        raise ADError("jacobian: use vjp/jvp directly for multi-arg functions")
    primal = compile_fun(fun)  # compiled once, outside the hot path
    fwd = jvp(f)
    rev = vjp(f)

    def run(x, backend: Optional[str] = None):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(primal(x, backend=backend))
        n, m = x.size, y.size
        if n == 0 or m == 0:
            # No seed to run in either mode: the Jacobian has no entries.
            return np.zeros(y.shape + x.shape)
        if (mode or ("fwd" if n <= m else "rev")) == "fwd":
            seeds = np.eye(n, dtype=np.float64).reshape((n,) + x.shape)
            out = fwd.call_batched((x, seeds), (False, True), n, backend=backend)
            dys = np.asarray(out[-1]).reshape(n, -1)  # (n, m)
            return dys.T.reshape(y.shape + x.shape)
        seeds = np.eye(m, dtype=np.float64).reshape((m,) + y.shape)
        out = rev.call_batched((x, seeds), (False, True), m, backend=backend)
        return np.asarray(out[-1]).reshape(y.shape + x.shape)  # (m, n) rows

    run.fwd = fwd  # type: ignore[attr-defined]
    run.rev = rev  # type: ignore[attr-defined]
    return run


def hessian_diag(f: FunLike, wrt: int = 0) -> Callable:
    """Diagonal of the Hessian of a scalar function with respect to the
    ``wrt``-th parameter, computed with a *single* ``jvp(vjp(f))``
    invocation: when the Hessian is diagonal, seeding the all-ones tangent
    returns ``H·1`` = the diagonal — the sparsity-through-seeding trick of
    §7.4 (k-means).  Other parameters are treated as data.  Between the two
    transforms the gradient program gets one ``optimize_fun`` over the
    AD-safe passes and nothing else.

    The tangent calling convention is derived from the parameter lists the
    transforms actually produced (never assumed positionally): ``jvp`` of
    ``gradf`` appends one tangent per float parameter of ``gradf`` — the
    float parameters of ``f`` in order, then the adjoint seed.  Any mismatch
    raises ``ADError`` instead of silently mis-seeding.
    """
    fun = _pre_ad(_fun_of(f))
    r0 = fun.body.result[0].type
    if len(fun.body.result) != 1 or not is_float(r0) or rank_of(r0) != 0:
        raise ADError("hessian_diag: function must return a single float scalar")
    if not 0 <= wrt < len(fun.params):
        # Negative indices would pass ``params[wrt]`` but never match the
        # (non-negative) parameter positions when seeding tangents, silently
        # yielding H·0 = zeros — reject them outright.
        raise ADError(
            f"hessian_diag: wrt={wrt} out of range for {len(fun.params)} parameters"
        )
    if not is_float(fun.params[wrt].type):
        raise ADError("hessian_diag: wrt parameter must be a float array")
    # (params..., seed) -> (y, xbar).  AD-safe passes only: ``gradf`` is
    # differentiated again below, so the fusion pass (whose redomap shapes
    # the jvp rules cannot handle) must not run until the final ADFunction
    # compilation.
    gradf = optimize_fun(vjp_fun(fun, wrt=[wrt]), passes=AD_SAFE_PASSES)
    hof = jvp_fun(gradf)
    # hof returns (y, x̄, ẏ, x̄̇); keep only x̄̇ = (d/dε)∇f(x+ε·1) = H·1, so
    # DCE drops the primal re-run that only y and ẏ needed.
    compiled = ADFunction(_project(hof, slice(-1, None)), 0)

    # Derive (and check) the tangent ordering from the actual parameter
    # lists rather than trusting positional conventions.
    n_args = len(fun.params)
    gparams = gradf.params
    if len(gparams) != n_args + 1 or [p.name for p in gparams[:n_args]] != [
        p.name for p in fun.params
    ]:
        raise ADError(
            "hessian_diag: vjp produced an unexpected parameter list "
            f"{[p.name for p in gparams]} for primal parameters "
            f"{[p.name for p in fun.params]}"
        )
    seed_param = gparams[-1]
    if not is_float(seed_param.type) or rank_of(seed_param.type) != 0:
        raise ADError(
            f"hessian_diag: expected a scalar float adjoint seed parameter, "
            f"got {seed_param.name}: {seed_param.type}"
        )
    float_idx = [i for i, p in enumerate(gparams) if is_float(p.type)]
    tan_params = hof.params[len(gparams):]
    if len(tan_params) != len(float_idx):
        raise ADError(
            f"hessian_diag: jvp produced {len(tan_params)} tangent "
            f"parameters for {len(float_idx)} float parameters"
        )

    def run(*args, backend: Optional[str] = None):
        if len(args) != n_args:
            raise ADError(
                f"hessian_diag: expected {n_args} arguments, got {len(args)}"
            )
        tangents = []
        for i in float_idx:
            if i < n_args:  # a float parameter of f
                a = np.asarray(args[i], dtype=np.float64)
                tangents.append(np.ones_like(a) if i == wrt else np.zeros_like(a))
            else:  # the adjoint seed: constant 1.0, so its tangent is zero
                tangents.append(0.0)
        return np.asarray(compiled(*args, 1.0, *tangents, backend=backend))

    run.adfun = compiled  # type: ignore[attr-defined]
    return run
