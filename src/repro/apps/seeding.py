"""Shared batched identity-seed driver for the forward-mode app Jacobians.

``ba.jacobian_ad`` established the multi-seed shape: stack every basis seed
on one leading batch axis and evaluate the derivative function in a single
``call_batched`` pass.  The forward-mode HAND and LSTM measurements need the
same pattern over *jvp* tangents — this helper holds the one copy of it
(flag construction, zero tangents) so the apps stay three-line wrappers
that cannot drift from each other.
"""
from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["identity_seed_pass"]


def identity_seed_pass(
    fwd,
    primals: Sequence[np.ndarray],
    seed_slot: int,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Directional derivatives of ``fwd`` over the full identity basis of
    one tangent.

    ``fwd`` is an ``rp.jvp`` ``Compiled`` whose parameters are
    ``(*primals, *tangents)`` with one tangent per (all-float) primal.  The
    tangent of ``primals[seed_slot]`` — which must be rank-1, of length
    ``m`` — is seeded with every row of ``eye(m)``; the other tangents are
    zero.  ``backend=None`` runs on ``DEFAULT_BACKEND`` (``plan``).  All
    ``m`` basis seeds stack on a leading batch axis and evaluate in one
    ``call_batched`` pass.

    Returns the ``(m,)`` array of ``out[-1]`` per direction — for a scalar
    function, its gradient recovered column-by-column.
    """
    primals = tuple(np.asarray(p) for p in primals)
    m = primals[seed_slot].shape[0]
    zeros = [np.zeros_like(p) for p in primals]
    tangents = zeros[:seed_slot] + [np.eye(m)] + zeros[seed_slot + 1:]
    flags = [False] * len(primals) + [False] * len(primals)
    flags[len(primals) + seed_slot] = True
    out = fwd.call_batched((*primals, *tangents), tuple(flags), m, backend=backend)
    return np.asarray(out[-1]).reshape(m)
