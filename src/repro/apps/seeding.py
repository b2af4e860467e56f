"""Shared batched identity-seed driver for the forward-mode app Jacobians.

``ba.jacobian_ad`` (PR 2) established the multi-seed shape: stack every
basis seed on one leading batch axis and evaluate the derivative function
in a single ``call_batched`` pass.  The forward-mode HAND and LSTM
measurements need the same machinery over *jvp* tangents — this helper
holds the one copy of that pattern (flag construction, zero tangents, the
per-seed fallback loop) so the apps stay three-line wrappers that cannot
drift from each other.
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
    batched: "bool | None" = None,
) -> np.ndarray:
    """Directional derivatives of ``fwd`` over the full identity basis of
    one tangent.

    ``fwd`` is an ``rp.jvp`` ``ADFunction`` whose parameters are
    ``(*primals, *tangents)`` with one tangent per (all-float) primal.  The
    tangent of ``primals[seed_slot]`` — which must be rank-1, of length
    ``m`` — is seeded with every row of ``eye(m)``; the other tangents are
    zero.  ``backend=None`` resolves through ``default_backend()``
    (``REPRO_BACKEND``).  On a batched-capable backend all ``m`` basis seeds
    stack on a leading batch axis and evaluate in one ``call_batched`` pass;
    otherwise (or with ``batched=False``) a per-seed loop runs.

    Returns the ``(m,)`` array of ``out[-1]`` per direction — for a scalar
    function, its gradient recovered column-by-column.
    """
    from ..exec.registry import default_backend, get_backend

    backend = backend or default_backend()
    primals = tuple(np.asarray(p) for p in primals)
    m = primals[seed_slot].shape[0]
    if batched is None:
        batched = get_backend(backend).batched
    zeros = [np.zeros_like(p) for p in primals]
    if batched:
        seeds = np.eye(m)
        tangents = zeros[:seed_slot] + [seeds] + zeros[seed_slot + 1:]
        flags = [False] * len(primals) + [False] * len(primals)
        flags[len(primals) + seed_slot] = True
        out = fwd.call_batched(
            (*primals, *tangents), tuple(flags), m, backend=backend
        )
        return np.asarray(out[-1]).reshape(m)
    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        tangents = zeros[:seed_slot] + [e] + zeros[seed_slot + 1:]
        out = fwd(*primals, *tangents, backend=backend)
        cols.append(float(np.asarray(out[-1])))
    return np.asarray(cols)
