"""Shared fixtures for the test suite.

The random matrix generators live in :mod:`minertia.criteria`, so the
acceptance criteria, `minertia check` and every other test draw the same
matrices; the other test modules import them from here.
"""

import math
import random

import numpy as np
import pytest

from minertia.hermitian_core import HermitianMatrix

from minertia.criteria import (  # noqa: F401
    rand_hermitian,
    rand_hermitian_generic,
    rand_low_rank,
    rand_psd,
    rand_square,
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def gamma_matrices(q: int):
    """Five anticommuting Hermitian q x q matrices (q = 4 or 8) that square
    to the identity.  A nonzero real combination sum_k a_k G_k squares to
    |a|^2 I and has trace 0, so its eigenvalues are |a| and -|a|, q/2 times
    each: every nonzero element of their span has minimal inertia q/2."""
    s1, s2, s3 = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    gammas = [np.kron(s1, s) for s in (s1, s2, s3)] + [np.kron(s2, np.eye(2)), np.kron(s3, np.eye(2))]
    gammas = [np.kron(g, np.eye(q // 4)) for g in gammas]
    return [HermitianMatrix([[(int(z.real), int(z.imag)) for z in row] for row in g]) for g in gammas]


def as_matrices(span):
    """The (2q^2, r) real views of the q x q matrices whose float images
    are the columns of ``span`` (q^2, r), built entry by entry: per row,
    the diagonal entry, then Re and Im of each entry right of it, those
    two over sqrt 2.  What ``run_search`` turns Q into, up to the sign of
    the Im diagonal's zeros."""
    q, half = math.isqrt(len(span)), 1 / math.sqrt(2)
    out = np.zeros((span.shape[1], q, q), dtype=np.complex128)
    for x, u in zip(out, span.T):
        coords = iter(u.tolist())
        for i in range(q):
            x[i, i] = next(coords)
            for j in range(i + 1, q):
                x[i, j] = complex(next(coords) * half, next(coords) * half)
                x[j, i] = x[i, j].conjugate()
    return out.view(np.float64).reshape(len(out), 2 * q * q).T
