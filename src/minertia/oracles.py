"""Independent cross-checking oracles.

The sign-count oracle here deliberately avoids the congruence elimination
used by :mod:`minertia.hermitian_core`: it reads the signature off the
exact characteristic polynomial via Descartes' rule of signs, which counts
positive roots exactly when all roots are real (always the case for
Hermitian matrices).
"""

from __future__ import annotations

from .hermitian_core import HermitianMatrix, Inertia, _berkowitz


def sign_variations(coeffs) -> int:
    """Adjacent sign changes over the nonzero coefficients."""
    changes = 0
    prev = 0
    for c in coeffs:
        if not c:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            changes += 1
        prev = s
    return changes


def descartes_inertia(X: HermitianMatrix) -> Inertia:
    """Signature of X from det(xI - X) by sign variations.

    The integer coefficients of det(yI - den*X) that Berkowitz's algorithm
    gives are read as they are: the coefficient of y^(q-k) is den^k times
    that of x^(q-k), so every sign is the same.  n_zero is the
    multiplicity of the root 0 (trailing zero coefficients), n_plus the
    variations of p(x), n_minus those of p(-x).
    """
    coeffs = _berkowitz(X.re, X.im)
    n_zero = 0
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        n_zero += 1
    n_plus = sign_variations(coeffs)
    n_minus = sign_variations([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return Inertia(n_plus, n_minus, n_zero)
