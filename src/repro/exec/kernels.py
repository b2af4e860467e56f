"""Compiled fused runs: a hot plan's float64 arithmetic as one C call.

A plan splits each fused run with ``MIN_OPS`` or more ops a loop may compute
(``split_run``) when it is emitted: two, since one op alone has nothing to
fuse, while GMM's and k-means' short runs of two to four ops hold much of
their time.  The NumPy part (index views, integer ops, casts, ``select``,
payload rank > 0, ``exp`` / ``log`` / ``tanh`` / ``sigmoid``, which NumPy
rounds its own way, and the ops those read) runs first; the C part is one
call into a gcc-built extension (``_LAUNCHER``) running loops compiled per
input pattern, the batch axes each input varies along (a jvp's primal is
``(1, n)`` where its tangents are ``(m, n)``).

Loops are built per plan, not per run: from the call before the plan's
``plan.HOT_CALLS``-th, a kernel-run call whose pattern has no loop yet runs
NumPy and queues it (``kernel``), and the plan's next call compiles all it
queued as one unit, in one compiler call and one load (``build``), so the
C parts run compiled from the ``HOT_CALLS``-th call.

gcc vectorises the loops at the host's width (``_FLAGS``: ``-O2
-ftree-vectorize -fvect-cost-model=dynamic -march=native``).  A run's many
pointers would need more run-time alias checks than gcc makes, so ``_loops``
marks each innermost loop ``#pragma GCC ivdep``.  That is sound: a loop
writes only exports and temporaries the launcher has just allocated, and
reads only the read-only inputs and the buffers of loops over a strict subset
of its axes, which are emitted first (``_loops`` asserts it), so no iteration
reads what another writes.  ``-ffp-contract=off`` (``-march=native`` brings
FMA, which rounds once where NumPy rounds twice) and a probe (``whitelist``)
keep results bitwise.

The launcher also runs a hot plan's float64 ``upd acc[…] += v`` (``updacc``):
lanes summed in C order from +0.0 (NumPy's, but for an innermost summed
axis, which stays NumPy; ``_sums_agree`` probes it) into a view, or a
scatter-add in C order (``np.add.at``'s)."""
from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
import time
from collections import namedtuple
from typing import Dict, List, Optional

import numpy as np

from ..obs.tracing import span as _span
from .plan import PLAN_STATS
from .prims import _BINOPS, unop_fn
from .vector import _upd_table

__all__ = ["CANDIDATES", "KernelRun", "build", "kernel", "split_run", "updacc", "whitelist"]

#: C ops a run needs, input patterns per run.
MIN_OPS, MAX_VARIANTS = 2, 4

_C_EXPR = {"add": "({0} + {1})", "sub": "({0} - {1})", "mul": "({0} * {1})", "div": "({0} / {1})",
           "neg": "(-{0})", "sin": "sin({0})", "cos": "cos({0})", "sqrt": "sqrt({0})"}
CANDIDATES = frozenset(_C_EXPR)

#: An ``IRun``'s partition: ``cpart[x]``, op ``x`` is C; ``inputs`` ``(local index or Ref,
#: batch depth)``; ``exports`` ``(local index, slot, batch depth)``; ``code`` ``(local
#: index, op, args)``, each arg ``("in", j)`` (input ``j``) or ``("op", y)`` (C op ``y``).
KernelRun = namedtuple("KernelRun", "cpart inputs exports code")
_PROBE_CODE = tuple((i, op, (("in", 0), ("in", 1))[:1 + (op in _BINOPS)])
                    for i, op in enumerate(sorted(CANDIDATES)))
#: A loop function's C signature (``_LAUNCHER``'s ``loops_t``).
_SIG = "void loops(const char *const *p, const ptrdiff_t *s, const ptrdiff_t *n, double *const *t)"
#: ``whitelist``'s loops: every candidate on inputs ``x`` (and ``y``).
_PROBE = KernelRun((), ((0, 1), (1, 1)), tuple((i, 0, 1) for i, *_ in _PROBE_CODE), _PROBE_CODE)


def split_run(ins, lay) -> Optional[KernelRun]:
    """The partition of run ``ins`` at layout ``lay`` (``None`` under ``MIN_OPS``
    C ops): C gets the ``CANDIDATES`` unops / binops on float64 scalars, less
    those the NumPy part reads, transitively."""
    ops = ins.ops
    inc = [o.kind in ("unop", "binop") and o.op in CANDIDATES and o.dtype == np.float64
           and not any(o.pranks) for o in ops]
    for x in range(len(ops) - 1, -1, -1):
        for y in ops[x].xs if not inc[x] else ():
            if isinstance(y, int):
                inc[y] = False
    if sum(inc) < MIN_OPS:
        return None
    inputs, where, code = [], {}, []
    for x, o in enumerate(ops):
        args = []
        for y, b in zip(o.xs, lay.ops[o].bs) if inc[x] else ():
            if isinstance(y, int) and inc[y]:
                args.append(("op", y))
                continue
            key = y if isinstance(y, int) or y.slot is None else ("slot", y.slot)
            if key not in where:
                where[key] = len(inputs)
                inputs.append((y, b))
            args.append(("in", where[key]))
        if inc[x]:
            code.append((x, o.op, tuple(args)))
    exports = tuple((li, s, lay.ops[ops[li]].k) for li, s, _n in ins.exports if inc[li])
    return KernelRun(tuple(inc), tuple(inputs), exports, tuple(code))


def _axes(bits: int) -> List[int]:
    return [a for a in range(bits.bit_length()) if bits >> a & 1]


def _loops(kr: KernelRun, pats) -> tuple:
    """The C of ``kr``'s loops for inputs varying along axes ``pats[j]``
    (bit ``a``: axis ``a``), and ``_LAUNCHER``'s tables for it: one loop nest
    per class (the axes an op varies along), its innermost loop ``ivdep``."""
    depth = max([1] + [b for _y, b in kr.inputs])
    cls: Dict[int, int] = {}
    for x, _op, args in kr.code:
        cls[x] = 0
        for kind, v in args:
            cls[x] |= pats[v] if kind == "in" else cls[v]
    out = [li for li, _s, _k in kr.exports]
    temps = sorted({y for x, _op, args in kr.code for kind, y in args
                    if kind == "op" and cls[y] not in (0, cls[x]) and y not in out})
    buf = {x: i for i, x in enumerate(out + temps)}
    done: set = set()  # the classes emitted so far

    def at(c):
        return " + ".join(f"i{a} * c{c}_{a}" for a in _axes(c)) or "0"

    def arg(a, c):
        kind, v = a
        if kind == "op" and cls[v] in (0, c):
            return f"v{v}"
        if kind == "op":  # ivdep's premise: a buffer a strict-subset class already wrote
            assert cls[v] in done and cls[v] & c == cls[v], (cls[v], c)
            return f"t[{buf[v]}][{at(cls[v])}]"
        off = "".join(f" + i{b} * s[{v * depth + b}]" for b in _axes(pats[v]))
        return f"(*(const double *)(p[{v}]{off}))"

    L = [_SIG + " {"]
    for c in sorted(set(cls.values()), key=lambda c: (bin(c).count("1"), c)):
        ax = _axes(c)
        L += [f"const ptrdiff_t c{c}_{a} = 1{''.join(f' * n[{b}]' for b in ax[m + 1:])};"
              for m, a in enumerate(ax)]
        L += [f"for (ptrdiff_t i{a} = 0; i{a} < n[{a}]; i{a}++) {{" for a in ax]
        L[-1:-1] = ["#pragma GCC ivdep"] if ax else []
        for x, op, args in kr.code:
            if cls[x] == c:
                L.append(f"const double v{x} = {_C_EXPR[op].format(*(arg(a, c) for a in args))};")
                L += [f"t[{buf[x]}][{at(c)}] = v{x};"] if x in buf else []
        L += ["}"] * len(ax)
        done.add(c)
    tables = ([b for _y, b in kr.inputs] + list(pats) + [k for *_c, k in kr.exports]
              + [depth] * len(temps) + [cls[x] for x in out + temps])
    return "\n".join(L) + "\n}\n", (depth, len(kr.inputs), out, temps, tables)


#: The one CPython extension a process builds: ``run(addr, tables, datas)``
#: checks each input's depth and pattern against ``tables`` (``_loops``),
#: allocates the exports and temporaries at the shapes they give, and calls
#: the compiled ``loops`` at ``addr``; ``None`` for a call they do not fit.
#: ``probe`` is the address of ``whitelist``'s loops, compiled with it: one
#: loop per candidate, so that gcc vectorises each one it finds worth it.
_LAUNCHER = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
typedef void loops_t(const char *const *, const npy_intp *, const npy_intp *, double *const *);
@PROBE@

static PyObject *run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    loops_t *f = (loops_t *)PyLong_AsVoidPtr(args[0]); if (f == NULL) return NULL;
    const long long *v = (const long long *)PyBytes_AS_STRING(args[1]);
    const int k = v[0], m = v[1], ne = v[2], nt = v[3];
    const long long *depth = v + 4, *pat = depth + m, *outk = pat + m, *cls = outk + ne + nt;
    if (!PyList_CheckExact(args[2]) || PyList_GET_SIZE(args[2]) != m) Py_RETURN_NONE;
    const char *p[m + 1]; npy_intp s[m * k + 1], n[k], dims[k];
    double x[m + 1], *t[ne + nt + 1];
    for (int a = 0; a < k; a++) n[a] = 1;
    for (int j = 0; j < m; j++) {
        PyObject *o = PyList_GET_ITEM(args[2], j); PyArrayObject *a = (PyArrayObject *)o;
        if (depth[j] == 0 && PyFloat_Check(o))  /* a NumPy scalar: read through x */
            { x[j] = PyFloat_AS_DOUBLE(o); p[j] = (char *)&x[j]; continue; }
        if (!PyArray_Check(o) || PyArray_NDIM(a) != depth[j] || PyArray_TYPE(a) != NPY_DOUBLE
            || !PyArray_ISBEHAVED_RO(a)) Py_RETURN_NONE;
        p[j] = PyArray_BYTES(a);
        for (int b = 0; b < depth[j]; b++) {
            npy_intp e = PyArray_DIM(a, b);
            s[j * k + b] = PyArray_STRIDE(a, b);
            if (!(pat[j] >> b & 1)) { if (e != 1) Py_RETURN_NONE; continue; }
            if (e == 1 || (n[b] != 1 && n[b] != e)) Py_RETURN_NONE;
            n[b] = e;
        }
    }
    PyObject *r = PyTuple_New(ne + nt), *arr;
    for (int e = 0; r != NULL && e < ne + nt; e++) {
        for (int a = 0; a < outk[e]; a++) dims[a] = cls[e] >> a & 1 ? n[a] : 1;
        if ((arr = PyArray_EMPTY(outk[e], dims, NPY_DOUBLE, 0)) == NULL) { Py_CLEAR(r); break; }
        PyTuple_SET_ITEM(r, e, arr);
        t[e] = (double *)PyArray_DATA((PyArrayObject *)arr);
    }
    if (r == NULL) return NULL;
    Py_BEGIN_ALLOW_THREADS  /* the caller's list holds the inputs, r the outputs */
    f(p, s, n, t);
    Py_END_ALLOW_THREADS
    PyObject *out = PyTuple_GetSlice(r, 0, ne); Py_DECREF(r); return out;
}

#define ND 16  /* updacc's most axes, and its most operands (index operands + 2) */

/* Step i through n[0..nd) in C order, operand j's byte offset off[j] by strides st[j]; 0: done. */
static int step(int nd, const npy_intp *n, npy_intp *i, int no, npy_intp *off, npy_intp st[][ND])
{
    for (int a = nd - 1; a >= 0; a--) {
        for (int j = 0; j < no; j++) off[j] += st[j][a];
        if (++i[a] < n[a]) return 1;
        for (int j = 0; j < no; j++) off[j] -= st[j][a] * n[a];
        i[a] = 0;
    }
    return 0;
}

/* d += s at every point of n[0..l] (l >= 1; byte strides ds, ss) in C order, the two
   innermost axes loops: a point of d that several of s reach (stride 0) adds them in order. */
static void addto(int l, const npy_intp *n, char *d, const npy_intp *ds, const char *s,
                  const npy_intp *ss)
{
    npy_intp i[ND] = {0}, off[2] = {0, 0}, st[2][ND];
    for (int a = 0; a <= l; a++) {
        if (n[a] == 0) return;
        st[0][a] = ds[a], st[1][a] = ss[a];
    }
    do {
        for (npy_intp a = 0; a < n[l - 1]; a++) {
            char *x = d + off[0] + a * ds[l - 1]; const char *y = s + off[1] + a * ss[l - 1];
            double *restrict xd = (double *)x; const double *restrict yd = (const double *)y;
            if (ds[l] == 8 && ss[l] == 8)  /* contiguous rows: gcc vectorises this one */
                for (npy_intp j = 0; j < n[l]; j++) xd[j] += yd[j];
            else
                for (npy_intp j = 0; j < n[l]; j++)
                    *(double *)(x + j * ds[l]) += *(const double *)(y + j * ss[l]);
        }
    } while (step(l - 1, n, i, 2, off, st));
}

/* A scatter row of nq points: point q adds v's double at byte q * vs to the accumulator's at
   a + q * as plus each index p's value at byte q * is[p] of x[p], clipped, times es[p].  The
   addresses first (vectorised: out of line, as gcc vectorises nothing in updacc), then the
   adds in order: no ivdep, equal indices alias. */
__attribute__((noinline)) static void scatter(char *acc, npy_intp a, npy_intp as, const char *v,
                                              npy_intp vs, int m, const char *const *x,
                                              const npy_intp *is, const npy_intp *top,
                                              const npy_intp *es, npy_intp nq)
{
    npy_intp ad[256];
    for (npy_intp q0 = 0; q0 < nq; q0 += 256) {
        const npy_intp n = nq - q0 < 256 ? nq - q0 : 256;
        for (npy_intp q = 0; q < n; q++) ad[q] = a + (q0 + q) * as;
        for (int p = 0; p < m; p++) {
            const npy_int64 *restrict xs = (const npy_int64 *)(x[p] + q0 * is[p]), j = xs[0];
            const npy_intp t = top[p], e = es[p];
            if (is[p] == 0)  /* an index no point of the row varies along */
                for (npy_intp q = 0, c = (j < 0 ? 0 : j > t ? t : j) * e; q < n; q++) ad[q] += c;
            else if (is[p] == 8)
                for (npy_intp q = 0; q < n; q++) ad[q] += (xs[q] < 0 ? 0 : xs[q] > t ? t : xs[q])*e;
            else
                for (npy_intp q = 0; q < n; q++) {
                    const npy_int64 y = *(const npy_int64 *)((const char *)xs + q * is[p]);
                    ad[q] += (y < 0 ? 0 : y > t ? t : y) * e;
                }
        }
        for (npy_intp q = 0; q < n; q++)
            *(double *)(acc + ad[q]) += *(const double *)(v + (q0 + q) * vs);
    }
}

/* updacc(sums, tab, acc, ids, v, bstack): an unmasked float64 ``upd acc[ids] += v``
   (``vector._upd_acc``; ``tab``: ``vector._upd_table``).  1: added into the accumulator's
   view (``vector._add_view``), the lanes no index varies along summed first, in C order from
   +0.0: NumPy's order where ``sums`` (the probe agreed) and it sums sequentially; 2: added
   through the clipped indices point by point in C order, as ``np.add.at``; None: NumPy's. */
static PyObject *updacc(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6 || !PyArray_Check(args[2]) || !PyArray_Check(args[4])
        || !PyList_CheckExact(args[3]) || !PyList_CheckExact(args[5])) Py_RETURN_NONE;
    const long long *T = (long long *)PyBytes_AS_STRING(args[1]), *b = T + 5, *lane = b + T[3];
    const int k = T[0], ka = T[1], kv = T[2], m = T[3], sums = PyObject_IsTrue(args[0]);
    PyArrayObject *acc = (PyArrayObject *)args[2], *v = (PyArrayObject *)args[4], *id[ND];
    const int P = PyArray_NDIM(acc) - ka - m, nd = k + P > 1 ? k + P : 2;
    if (PyArray_TYPE(acc) != NPY_DOUBLE || PyArray_TYPE(v) != NPY_DOUBLE || P < 0
        || !PyArray_IS_C_CONTIGUOUS(acc) || !PyArray_ISWRITEABLE(acc) || !PyArray_ISALIGNED(v)
        || PyArray_SIZE(acc) == 0 || PyArray_NDIM(v) != kv + P || nd >= ND || m + 2 > ND
        || PyList_GET_SIZE(args[3]) != m || PyList_GET_SIZE(args[5]) < k) Py_RETURN_NONE;
    /* Per axis (batch, payload, then to 2 axes ones of extent 1): n the extents, w the view's
       (strides ws), vn v's at depth k (strides st[0]), st[1] the accumulator's strides. */
    npy_intp n[ND], w[ND], ws[ND], vn[ND], st[ND][ND], ts[ND], lo, hi, K = 1;
    const npy_intp *ad = PyArray_DIMS(acc), *as = PyArray_STRIDES(acc);
    char *at = PyArray_BYTES(acc), *tmp = NULL;
    int E[ND] = {0}, sum = 0, ok = T[4], last = -1, empty = 0;
    for (int t = 0; t < nd; t++) {
        const int c = t < ka ? t : t < k || t >= k + P ? -1 : t - k + ka + m;
        const int u = t < kv ? t : t < k || t >= k + P ? -1 : t - k + kv;
        w[t] = c < 0 ? 1 : ad[c], ws[t] = st[1][t] = c < 0 ? 0 : as[c];
        n[t] = t < k ? PyLong_AsSsize_t(PyList_GET_ITEM(args[5], t)) : w[t];
        vn[t] = u < 0 ? 1 : PyArray_DIM(v, u), st[0][t] = vn[t] == 1 ? 0 : PyArray_STRIDE(v, u);
        if (t < ka && w[t] != n[t]) Py_RETURN_NONE;
        last = vn[t] != 1 ? t : last, empty |= n[t] == 0;
    }
    for (int p = 0; p < m; p++) {
        id[p] = (PyArrayObject *)PyList_GET_ITEM(args[3], p);
        if (!PyArray_Check(id[p]) || PyArray_TYPE(id[p]) != NPY_INT64 || PyArray_NDIM(id[p]) != b[p]
            || (ok && lane[p] < 0 && PyArray_SIZE(id[p]) != 1)) Py_RETURN_NONE;
    }
    for (int p = 0; p < m && ok; p++) {  /* the view's per-call facts (``vector._view``) */
        const int l = lane[p];
        const npy_intp nl = l < 0 ? 1 : PyArray_DIM(id[p], l);
        if (nl == 0 || PyArray_SIZE(id[p]) != nl) { ok = 0; break; }
        const char *x = PyArray_BYTES(id[p]) + (l < 0 ? 0 : (nl - 1) * PyArray_STRIDE(id[p], l));
        lo = *(const npy_int64 *)PyArray_BYTES(id[p]), hi = *(const npy_int64 *)x;
        ok = lo >= 0 && lo + nl <= ad[ka + p] && hi == lo + nl - 1;
        at += lo * as[ka + p];
        if (l >= 0) w[l] = nl, ws[l] = as[ka + p];
    }
    for (int t = ka; t < k && ok; t++) {  /* ``vector._add_view``'s facts */
        ok = w[t] == 1 ? vn[t] == n[t] : w[t] == n[t];
        E[t] = w[t] == 1, sum |= E[t];
    }
    if (ok) {
        for (int t = nd - 1; t >= 0; t--) {
            if (!E[t] && vn[t] != 1 && vn[t] != w[t]) Py_RETURN_NONE;  /* NumPy's += raises */
            if (sum && !m && t < ka && vn[t] != n[t]) Py_RETURN_NONE;  /* NumPy sums a broadcast */
            ts[t] = E[t] || vn[t] == 1 ? 0 : K * 8, K *= E[t] ? 1 : vn[t];
        }
        if (sum) {  /* NumPy sums an innermost summed axis pairwise */
            if (!sums || !PyArray_IS_C_CONTIGUOUS(v) || (last >= 0 && E[last])) Py_RETURN_NONE;
            if ((tmp = calloc(K, 8)) == NULL) return PyErr_NoMemory();
            addto(nd - 1, vn, tmp, ts, PyArray_BYTES(v), st[0]);
        }
        addto(nd - 1, w, at, ws, tmp ? tmp : PyArray_BYTES(v), tmp ? ts : st[0]);
        free(tmp);
        return PyLong_FromLong(1);
    }
    if (!m) Py_RETURN_NONE;
    for (int t = 0; t < nd; t++) {  /* the scatter's operands: 0 v, 1 acc, 2 + p index p */
        if (t < k ? vn[t] != 1 && vn[t] != n[t] : vn[t] != n[t]) Py_RETURN_NONE;
        st[1][t] = t >= ka && t < k ? 0 : st[1][t];
        for (int p = 0; p < m; p++) {
            const npy_intp e = t < b[p] ? PyArray_DIM(id[p], t) : 1;
            if (e != 1 && e != n[t]) Py_RETURN_NONE;
            st[2 + p][t] = e == 1 ? 0 : PyArray_STRIDE(id[p], t);
        }
    }
    npy_intp i[ND] = {0}, off[ND] = {0}, is[ND], top[ND], es[ND];
    const char *x[ND];
    for (int p = 0; p < m; p++)
        is[p] = st[2 + p][nd - 1], top[p] = ad[ka + p] - 1, es[p] = as[ka + p];
    do {
        for (int p = 0; p < m; p++) x[p] = PyArray_BYTES(id[p]) + off[2 + p];
        scatter(PyArray_BYTES(acc), off[1], st[1][nd - 1], PyArray_BYTES(v) + off[0], st[0][nd - 1],
                m, x, is, top, es, empty ? 0 : n[nd - 1]);
    } while (!empty && step(nd - 1, n, i, 2 + m, off, st));
    return PyLong_FromLong(2);
}

static PyMethodDef methods[] = {
    {"run", (PyCFunction)(void (*)(void))run, METH_FASTCALL, NULL},
    {"updacc", (PyCFunction)(void (*)(void))updacc, METH_FASTCALL, NULL}, {NULL, NULL, 0, NULL}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "@NAME@", NULL, -1, methods};
PyMODINIT_FUNC PyInit_@NAME@(void)
{
    import_array();
    PyObject *m = PyModule_Create(&module), *probe = PyLong_FromVoidPtr((void *)loops);
    if (m == NULL || probe == NULL || PyModule_AddObjectRef(m, "probe", probe) < 0)
        Py_CLEAR(m);
    Py_XDECREF(probe);
    return m;
}
"""

_LOCK = threading.RLock()
#: Built once per process: a loop's source hash -> (address of its ``loops_<j>``,
#: library), ``"launcher"`` -> the extension, ``"whitelist"``, ``"dir"``; ``None``:
#: it will not build.
_BUILT: Dict[str, object] = {}
_HEADER = "#include <math.h>\n#include <stddef.h>\n"
#: Vectorised at the host's width (``_loops``' ``ivdep``), never contracted to
#: FMAs, which round once where NumPy rounds twice; no second, narrower vector
#: epilogue per loop (HAND's loop unit: 0.46 s instead of 0.56 s to build on a
#: 2-core AVX-512 box, the same step time); gcc names each loop it vectorised
#: (``_gcc`` counts them).
_FLAGS = ("-O2", "-ftree-vectorize", "-fvect-cost-model=dynamic", "-march=native",
          "-ffp-contract=off", "--param", "vect-epilogues-nomask=0",
          "-fopt-info-vec-optimized")
#: ``kernel``'s mark for an input pattern queued for its plan's next build.
_QUEUED = object()


def _once(key: str, make, *args):
    """``_BUILT[key]``, made by ``make(*args)`` on the first ask; ``None`` for
    good when that fails (no ``gcc``, a missing header, a failed compile, a
    directory that cannot be written or a library that will not load, say
    from a ``noexec`` mount)."""
    if key not in _BUILT:
        try:
            _BUILT[key] = make(*args)
        except (OSError, ImportError):
            _BUILT[key] = None
    return _BUILT[key]


def _gcc(name: str, src: str, *flags: str, loops: int = 0) -> Optional[str]:
    """The shared object compiled from C ``src`` (``loops`` loop functions, whose
    vectorised loops it counts), or ``None`` (no ``gcc``, a failed compile);
    ``OSError`` when its files cannot be written."""
    if shutil.which("gcc") is None:
        return None
    if "dir" not in _BUILT:
        _BUILT["dir"] = tempfile.mkdtemp(prefix="repro-kernels-")
        atexit.register(shutil.rmtree, _BUILT["dir"], True)
    path = os.path.join(_BUILT["dir"], name)
    with open(path + ".c", "w") as fh:
        fh.write(src)
    with _span("kernel_build", cat="compile", loops=loops):
        t0 = time.perf_counter()
        done = subprocess.run(["gcc", *_FLAGS, "-fPIC", "-shared", *flags, path + ".c",
                               "-o", path + ".so", "-lm"], capture_output=True)
        PLAN_STATS.add("kernel_compile_s", time.perf_counter() - t0)
    PLAN_STATS.add("kernel_builds")
    if done.returncode:
        return None
    if loops:  # each source loop once, however many vector versions gcc made of it
        PLAN_STATS.add("kernel_vector_loops", len({
            ln.split(b": ")[0] for ln in done.stderr.splitlines() if b"loop vectorized" in ln}))
    return path + ".so"


def _launcher():
    ops = [_loops(KernelRun((), _PROBE.inputs, (e,), (c,)), (1, 1))[0].replace(
               "void loops(", f"static void probe{j}(", 1)
           for j, (c, e) in enumerate(zip(_PROBE.code, _PROBE.exports))]
    calls = "".join(f"probe{j}(p, s, n, t + {j});\n" for j in range(len(ops)))
    src = _LAUNCHER.replace("@PROBE@", _HEADER + "".join(ops) + f"{_SIG} {{\n{calls}}}\n")
    name = "_repro_launch_" + hashlib.sha256(src.encode()).hexdigest()[:16]
    so = _gcc(name, src.replace("@NAME@", name), "-I", np.get_include(),
              "-I", sysconfig.get_paths()["include"])
    if so is None:
        return None
    spec = importlib.util.spec_from_file_location(name, so)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _unit(srcs: Dict[str, str]) -> None:
    """Compile the loop sources ``srcs`` (hash -> C) as one unit, one
    ``loops_<j>`` each, in one compiler call and one load, and record each in
    ``_BUILT`` (all ``None`` when the unit will not build or load)."""
    name = "_repro_loops_" + hashlib.sha256("".join(srcs).encode()).hexdigest()[:24]
    src = _HEADER + "".join(
        c.replace("void loops(", f"void loops_{j}(", 1) for j, c in enumerate(srcs.values()))
    try:
        so = _gcc(name, src, loops=len(srcs))
        lib = so and ctypes.CDLL(so)
    except OSError:
        lib = None
    for j, digest in enumerate(srcs):
        _BUILT[digest] = lib and (ctypes.cast(getattr(lib, f"loops_{j}"), ctypes.c_void_p).value,
                                  lib)


def _runner(launch, addr: int, tables):
    """``run(datas)``: the loops at ``addr`` through the launcher, with
    ``_loops``' ``tables`` for them."""
    k, m, out, temps, tab = tables
    v = np.asarray([k, m, len(out), len(temps)] + tab, np.int64).tobytes()
    return functools.partial(launch.run, addr, v)


def _build(items) -> list:
    """``run(datas)`` for each ``(kr, pats)`` of ``items``, ``kr``'s loops at
    input patterns ``pats`` (its exports, or ``None`` for a call it does not
    fit), or ``None`` where it cannot build.  The loops this process has not
    built yet are compiled as one unit (``_unit``)."""
    with _LOCK:
        launch = _once("launcher", _launcher)
        made = [_loops(kr, pats) for kr, pats in items]
        digests = [hashlib.sha256(src.encode()).hexdigest()[:24] for src, _t in made]
        new = {d: src for d, (src, _t) in zip(digests, made) if d not in _BUILT}
        if launch is not None and new:
            _unit(new)
            PLAN_STATS.add("kernels", sum(_BUILT[d] is not None for d in new))
        built = [_BUILT.get(d) if launch is not None else None for d in digests]
        return [b and _runner(launch, b[0], tables) for b, (_src, tables) in zip(built, made)]


def whitelist() -> frozenset:
    """The ``CANDIDATES`` whose C is bitwise the NumPy function plans call
    (``_NUMPY``) on every pair of special values (signed zeros and
    infinities, NaN, subnormals, extremes, large arguments) and a fixed
    spread, through contiguous and strided calls of loops built with the
    loops' flags (4,420 values: a vector remainder too); kept for the
    process (empty when no probe builds)."""
    with _LOCK, np.errstate(all="ignore"):
        if "whitelist" in _BUILT:
            return _BUILT["whitelist"]
        launch = _once("launcher", _launcher)
        fn = launch and _runner(launch, launch.probe, _loops(_PROBE, (1, 1))[1])
        sp = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -1e-310, 2.2e-308,
                       1.7e308, 1e22, 2.0 ** 1000, 1e15 + 0.5, -4e9, 710.0, np.pi, 1e-8, -1.0])
        rnd = np.random.default_rng(0).standard_normal((2, 4096)) * 10.0 ** np.arange(-12, 12, 3 / 512)
        xy = np.r_[np.repeat(sp, sp.size), rnd[0]], np.r_[np.tile(sp, sp.size), rnd[1]]
        got = fn(list(xy)) if fn is not None else None
        _BUILT["whitelist"] = frozenset(
            op for (_i, op, args), g in zip(_PROBE.code, got or ()) if all(
                np.array_equal(np.asarray(_NUMPY[op](*(a[::st] for a in xy[:len(args)])),
                                          np.float64).view(np.uint64), g[::st].view(np.uint64))
                for st in (1, 3)))
        return _BUILT["whitelist"]


_NUMPY = {op: _BINOPS.get(op) or unop_fn(op) for op in CANDIDATES}

#: ``_sums_agree``'s (value shape, accumulator depth, update depth, NumPy sums in C order).
_SUM_CASES = (((1024, 8), 0, 1, True), ((16, 16), 0, 1, True), ((16, 64), 0, 1, True),
              ((64, 8, 8), 0, 1, True), ((5, 2), 0, 1, True), ((4, 64, 2), 1, 2, True),
              ((3, 5, 7), 0, 2, True), ((8, 1024), 1, 2, False), ((1024, 1), 0, 1, False))
_SUM_SPECIAL = ((-0.0,), (np.nan,), (np.inf,), (np.inf, -np.inf), (5e-324, -1e-310, 2.2e-308))


def _sums_agree(fn) -> bool:
    """Whether the C ``updacc`` ``fn`` is ``acc += v.sum(…)`` bitwise on the ``_SUM_CASES``
    NumPy sums in C order (6 decades, ``_SUM_SPECIAL``) and declines the others."""
    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"):
        for shape, ka, k, seq in _SUM_CASES:
            v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape)
            acc = rng.standard_normal(shape[:ka] + shape[k:])
            for j, sp in zip(np.ndindex(*acc.shape), _SUM_SPECIAL):
                lanes = v[j[:ka] + (slice(None),) * (k - ka) + j[ka:]]
                lanes.flat[:len(sp)] = sp
                if sp == (-0.0,):
                    lanes[...] = acc[j] = -0.0
            want, got = acc + v.sum(axis=tuple(range(ka, k))), acc.copy()
            done = fn(True, _upd_table(k, ka, k, (), None, None), got, [], v, list(shape[:k]))
            if done != (1 if seq else None) or seq and got.tobytes() != want.tobytes():
                return False
    return True


def updacc():
    """The launcher's ``updacc`` for hot plans (``vector._upd_acc``), lane
    sums on if the probe (``_sums_agree``) agrees; ``None``: no launcher."""
    with _LOCK:
        if "updacc" not in _BUILT:
            fn = getattr(_once("launcher", _launcher), "updacc", None)
            _BUILT["updacc"] = fn and functools.partial(fn, _sums_agree(fn))
        return _BUILT["updacc"]


def kernel(kr: KernelRun, queue: list):
    """``call(datas)``: ``kr``'s C part's exports, or ``None`` for a NumPy call.
    A new input pattern, while the run has fewer than ``MAX_VARIANTS``, is
    queued on its plan's ``queue`` for ``build``; a call no variant fits
    falls back, unless its pattern waits in the queue."""
    variants: list = []
    known: Dict[tuple, object] = {}

    def install(key, fn):
        known[key] = fn
        variants.extend([fn] if fn else [])

    def call(datas):
        for fn in variants:
            out = fn(datas)
            if out is not None:
                return out
        key = tuple(sum(1 << a for a, e in enumerate(getattr(d, "shape", ())) if e != 1)
                    for d in datas)
        with _LOCK:
            if key not in known and len(known) < MAX_VARIANTS:
                known[key] = _QUEUED
                queue.append((kr, key, install))
            fn = known.get(key)
        PLAN_STATS.add("kernel_fallbacks", int(fn is not _QUEUED))
        return None

    return call


def build(queue: list) -> None:
    """Give each ``(kr, pats, install)`` a plan's kernel runs queued its loops,
    all compiled in one compiler call (``_build``); ``None`` to a run holding
    an op the probe (``whitelist``) does not keep."""
    with _LOCK:
        items, queue[:] = queue[:], []
        keep = whitelist()
        ok = [{op for _x, op, _a in kr.code} <= keep for kr, _p, _i in items]
        fns = iter(_build([(kr, pats) for (kr, pats, _i), o in zip(items, ok) if o]))
        for (_kr, pats, install), o in zip(items, ok):
            install(pats, next(fns) if o else None)
