"""Float fast-path kernels, in numpy: batched sampling statistics on the
minimal-inertia objective, and alternating projection towards m <= 1.

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


def batch_stats(span: np.ndarray, coords: np.ndarray, tol: float):
    """Per-sample sign counts and objective for the elements Q z of the
    coordinate rows z of ``coords`` (n, r) on the orthonormal columns Q,
    turned into matrices: ``span`` holds their (2q^2, r) real views.

    Returns int64 arrays (n_plus, n_minus, n_uncertain) and float64 f, the
    objective max(lambda_2, -lambda_{q-1}) / max|lambda| of each sorted
    eigenvalue row: f >= 0 exactly when at most one eigenvalue of some sign
    remains; f is 1 at q = 1 and -inf for the zero matrix.
    """
    q = math.isqrt(len(span) // 2)
    xs = (coords @ span.T).view(np.complex128).reshape(-1, q, q)
    ev = np.linalg.eigvalsh(xs)
    scale = np.maximum(-ev[:, 0], ev[:, -1])  # max |lambda| of a sorted row
    # a threshold that overflows is inf: every eigenvalue of its row is uncertain
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        thr = tol * scale
        k = min(1, q - 1)  # at q = 1 both are lambda_1, and f = 1
        top = np.maximum(ev[:, k], -ev[:, q - 1 - k])
        f = np.where(scale > 0, top / np.where(scale > 0, scale, 1.0), -np.inf)
    n_plus = (ev > thr[:, None]).sum(axis=1).astype(np.int64)
    n_minus = (ev < -thr[:, None]).sum(axis=1).astype(np.int64)
    return n_plus, n_minus, q - n_plus - n_minus, f.astype(np.float64)


def orthonormal_span(image: np.ndarray):
    """(Q, R, keep) of a QR, A[:, keep] = QR, of the (q^2, d) float
    ``image`` A of a basis.  A matrix whose image lies in the span of
    those before it up to rounding leaves a pivot |R_kk| of at most
    max(q^2, d) eps times ||A e_k|| = ||R e_k|| (by hypot: a sum of
    squares could overflow).  Its QR step leaves each later column's part
    in row k to R, on q^2 rows maybe all of it: only the first such matrix
    leaves ``keep`` before the QR of the rest is made again, until no
    pivot is noise (one QR for a drawn basis); past q^2, columns leave."""
    keep, (span, r) = np.arange(image.shape[1]), np.linalg.qr(image)
    while True:
        noise = max(len(image), len(keep)) * np.finfo(np.float64).eps * np.hypot.reduce(r, axis=0)
        small = np.flatnonzero(np.abs(r.diagonal()) <= noise[: len(r)])
        if not len(small) and len(keep) <= len(image):
            return span, r, keep
        keep = np.delete(keep, small[0]) if len(small) else keep[: len(image)]
        span, r = np.linalg.qr(image[:, keep])


def span_coefficients(r: np.ndarray, keep: np.ndarray, z: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim`` basis coefficients c of Q z, for (Q, R, keep) of
    :func:`orthonormal_span`: R c[keep] = z by back substitution, c 0 for a
    dropped matrix."""
    y, c = np.zeros(len(keep)), np.zeros(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny pivot may overflow
        for k in reversed(range(len(keep))):
            y[k] = (z[k] - r[k, k + 1 :] @ y[k + 1 :]) / r[k, k]
    c[keep] = y
    return c


MARGIN_DELTA = 0.1  # eigenvalues 2..q are raised to this share of max|lambda|
STALL_ITERATIONS, MIN_IMPROVEMENT, MAX_ITERATIONS = 15, 1e-6, 200


def alternating_projection(span: np.ndarray, z0: np.ndarray, margin: float):
    """Alternating projection from coordinates ``z0`` on the orthonormal columns
    Q = ``span`` between their span and the matrices whose eigenvalues 2..q are
    at least ``MARGIN_DELTA`` max|lambda|, on X or -X, whichever has the larger
    f = lambda_2 / max|lambda| at the start.  An iteration is one ``eigh``: a
    hit once f >= margin, else the eigenvalues over max|lambda|, all but the
    least raised to ``MARGIN_DELTA`` (far past a hit's margin, so each step
    goes deep), make a matrix that Q projects back.  A start also ends after
    ``STALL_ITERATIONS`` iterations without raising its best f by
    ``MIN_IMPROVEMENT``, at ``MAX_ITERATIONS`` or at a zero or non-finite
    element.  Returns (z, f: the hit's or best, iterations, hit)."""
    q = math.isqrt(len(span) // 2)
    k = min(1, q - 1)  # lambda_2, or lambda_1 at q = 1
    z, iterations, best, stalled = np.array(z0, dtype=np.float64), 0, -math.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite element ends the start
        while iterations < MAX_ITERATIONS and stalled < STALL_ITERATIONS:
            x = (span @ z).view(np.complex128).reshape(q, q)
            if not (np.isfinite(x).all() and x.any()):
                break
            w, v = np.linalg.eigh(x)
            iterations += 1
            scale = max(-w[0], w[-1])
            if iterations == 1 and -w[-1 - k] > w[k]:  # -X is the closer side
                z, w, v = -z, -w[::-1], v[:, ::-1]
            f = float(w[k] / scale)
            if f >= margin:
                return z, f, iterations, True
            best, stalled = (f, 0) if f >= best + MIN_IMPROVEMENT else (best, stalled + 1)
            w = w / scale
            w[1:] = np.maximum(w[1:], MARGIN_DELTA)
            z = ((v * w) @ v.conj().T).view(np.float64).ravel() @ span
    return z, best, iterations, False


coordinate_descent = alternating_projection  # the name perfbench's tracer wraps
