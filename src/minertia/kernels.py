"""Float fast-path kernels: batched sampling statistics and coordinate
descent on the minimal-inertia objective, in numpy.

All decisions taken from these estimates are re-verified in exact
arithmetic by the search module, so float error here can cost time but
never soundness.

numpy is bound lazily: importing this module (and so ``minertia.cli``)
does not run numpy, which only the float layer uses.  It loads on the first
attribute access, in the first float routine a process calls, under a lock,
so threads that make their first float calls together are safe.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import types

_LOAD_LOCK = threading.Lock()


class _LazyModule(types.ModuleType):
    """Stands for a module that is not imported yet.  The first attribute
    lookup imports it under a lock (a thread that comes second waits for
    the first), copies its namespace here and makes this a plain module,
    so later lookups cost what they cost on the module itself."""

    def __getattr__(self, attr):
        with _LOAD_LOCK:
            if isinstance(self, _LazyModule):
                vars(self).update(vars(importlib.import_module(self.__name__)))
                self.__class__ = types.ModuleType
        return getattr(self, attr)


def _lazy_import(name: str):
    """Module ``name``, imported on its first attribute access (see
    :class:`_LazyModule`); the module itself once it is already imported."""
    return sys.modules.get(name) or _LazyModule(name)


np = _lazy_import("numpy")

#: The "backend" field of search reports; the only backend.
BACKEND = "numpy"


def _objective_from_eigs(ev) -> float:
    """f of one ascending eigenvalue row: max(lambda_2, -lambda_{q-1}) / max|lambda|,
    -inf for the zero matrix.  f >= 0 exactly when at most one eigenvalue of
    some sign remains.  The row is sorted, so max|lambda| is the larger of
    -lambda_1 and lambda_q."""
    scale = max(-ev[0], ev[-1])
    if scale == 0.0:
        return -math.inf
    if len(ev) == 1:
        return 1.0
    return float(max(ev[1], -ev[-2]) / scale)


def batch_stats(basis: np.ndarray, coeffs: np.ndarray, tol: float):
    """Per-sample sign counts and objective for elements sum_i c_i B_i.

    basis: (d, q, q) complex128; coeffs: (n, d) float64.
    Returns int64 arrays (n_plus, n_minus, n_uncertain) and float64 f, the
    objective of :func:`_objective_from_eigs` on each row, vectorised.
    """
    d, q, _ = basis.shape
    n = coeffs.shape[0]
    flat = basis.reshape(d, q * q)
    xs = (coeffs @ flat).reshape(n, q, q)
    ev = np.linalg.eigvalsh(xs)
    scale = np.maximum(-ev[:, 0], ev[:, -1])  # max |lambda| of a sorted row
    thr = tol * scale
    n_plus = (ev > thr[:, None]).sum(axis=1).astype(np.int64)
    n_minus = (ev < -thr[:, None]).sum(axis=1).astype(np.int64)
    n_unc = q - n_plus - n_minus
    with np.errstate(divide="ignore", invalid="ignore"):
        if q == 1:
            f = np.where(scale > 0, 1.0, -np.inf)
        else:
            f = np.where(
                scale > 0,
                np.maximum(ev[:, 1], -ev[:, q - 2]) / np.where(scale > 0, scale, 1.0),
                -np.inf,
            )
    return n_plus, n_minus, n_unc, f.astype(np.float64)


def coordinate_descent(
    basis: np.ndarray,
    c0: np.ndarray,
    sweeps: int,
    margin: float,
):
    """Greedy coordinate ascent of f on the unit coefficient sphere.

    Fixed step schedule: the step halves whenever a full sweep brings no
    improvement.  Stops early once f >= margin.  Returns (c, f, evals, hit).

    One evaluation is a product with the flattened basis, one ``eigvalsh``
    and the scalar :func:`_objective_from_eigs` on its row as a list; a
    candidate is normalised by ``math.sqrt(c.dot(c))``, which is what
    ``np.linalg.norm`` computes for a real vector.
    """
    d, q, _ = basis.shape
    flat = basis.reshape(d, q * q)
    eigvalsh = np.linalg.eigvalsh

    def f_of(c):
        return _objective_from_eigs(eigvalsh((c @ flat).reshape(q, q)).tolist())

    c = np.array(c0, dtype=np.float64)
    norm = math.sqrt(c.dot(c))
    if norm == 0.0:
        return c, -math.inf, 0, False
    c /= norm
    f = f_of(c)
    evals = 1
    step = 0.5
    for _ in range(sweeps):
        if f >= margin:
            return c, f, evals, True
        improved = False
        for i in range(d):
            for delta in (step, -step):
                cand = c.copy()
                cand[i] += delta
                cand /= math.sqrt(cand.dot(cand))
                fc = f_of(cand)
                evals += 1
                if fc > f:
                    c, f = cand, fc
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return c, f, evals, f >= margin
