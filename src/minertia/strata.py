"""Classification of Hermitian matrices within the rank-2 determinantal locus.

The real points of the projectivized rank <= 2 locus split into two pieces:
the semidefinite part (label D0) and the closure of the signature-(1,1)
part (label D1); they meet exactly along the rank-1 matrices.  The cone
construction adds a scalar shift: X lies in the cone when X - s*I has rank
<= 2 for some (necessarily unique, for q >= 5) rational eigenvalue s of
multiplicity >= q - 2.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Tuple

from .errors import (
    HypothesisNotMetError,
    InconsistencyError,
    NotProjectivePointError,
    UnsupportedSizeError,
)
from .exactnum import _int_gcd_tower
from .hermitian_core import HermitianMatrix, Inertia, _berkowitz, grid_inertia, inertia
from .jsonrecord import json_record


class StratumLabel(enum.Enum):
    D0_ONLY = "D0_only"
    D1_ONLY = "D1_only"
    D0_AND_D1 = "D0_and_D1"
    NOT_IN_D2 = "NotInD2"

    @property
    def in_d2(self) -> bool:
        return self is not StratumLabel.NOT_IN_D2


class ConeLabel(enum.Enum):
    C1 = "C1"
    C0 = "C0"
    VERTEX = "Vertex"
    BOTH_BOUNDARY = "BothBoundary"
    NOT_IN_C2 = "NotInC2"


@json_record(keys={"label": "cone"})
class ConeClassification:
    label: ConeLabel
    apex_shift: Optional[Fraction]


def d2_real_dimension(q: int) -> int:
    """Real dimension of the rank <= 2 stratum, 4q - 5 (documented constant)."""
    return 4 * q - 5


def cone_dimension(q: int) -> int:
    """Complex dimension of the cone over the rank <= 2 locus, 4q - 4.

    Documented constant only; the cone's degree equals the degree of the
    rank <= 2 locus itself, and neither is verified projectively here.
    """
    return 4 * q - 4


def classify_d2(X: HermitianMatrix) -> StratumLabel:
    """Stratum label of a nonzero matrix, from its exact inertia.

    rank > 2 is outside the locus; rank 1 is the intersection of both
    components; rank 2 splits by minimal inertia (semidefinite vs (1,1)).
    """
    if X.is_zero():
        raise NotProjectivePointError("zero matrix is not a projective point")
    inr = inertia(X)
    if inr.rank > 2:
        return StratumLabel.NOT_IN_D2
    if inr.rank <= 1:
        return StratumLabel.D0_AND_D1
    if inr.m == 0:
        return StratumLabel.D0_ONLY
    return StratumLabel.D1_ONLY


def _high_multiplicity_shift(X: HermitianMatrix) -> Optional[Tuple[Fraction, Inertia]]:
    """The unique rational eigenvalue s of X of multiplicity >= q - 2 with
    the inertia of X - s*I, or None.

    For q >= 5 two such eigenvalues would need 2(q - 2) <= q, impossible.
    Five rows are enough to find s.  If s has multiplicity mu >= q - 2 in
    X, its eigenspace meets span(e_1..e_5) in dimension >= mu - (q - 5)
    >= 3, and every v there satisfies X_5 v_5 = s v_5 for the leading 5 x 5
    block X_5: s is an eigenvalue of X_5 of multiplicity >= 3, and a 5 x 5
    Hermitian matrix has at most one such.  So the candidate t comes from
    Berkowitz's integer coefficients of det(yI - B_5), B = den*X the stored
    grid, and the integer gcd tower at depth 2.  A primitive factor of that
    monic integer polynomial is monic (Gauss's lemma), so the tower's result
    g is 1 (no candidate: None) or exactly (y - t)^e with t = -g[e-1] / e an
    integer, which is checked coefficient by coefficient against the
    binomial expansion.

    Elimination of the full grid B - t*I (X - s*I over den, s = t / den)
    then decides: rank <= 2 gives s with that inertia; rank > 2 means X is
    not in the cone, since s was the only possible apex.  In that case the
    block B_5 - t*I_5 must still have rank <= 2, which is checked; a larger
    rank means the tower and the elimination disagree, an arithmetic fault.
    At q = 5 the block is X itself.
    """
    q = X.q
    if q < 5:
        raise UnsupportedSizeError(
            f"high-multiplicity detection requires q >= 5, got {q}"
        )
    block_re, block_im = ([list(row[:5]) for row in grid[:5]] for grid in (X.re, X.im))
    g = _int_gcd_tower(_berkowitz(block_re, block_im), 2)
    e = len(g) - 1
    if e == 0:
        return None
    t = -g[e - 1] // e
    if g != [math.comb(e, k) * (-t) ** (e - k) for k in range(e + 1)]:
        raise InconsistencyError("gcd tower is not a power of a linear factor")
    re = [list(row) for row in X.re]
    for i in range(q):
        re[i][i] -= t
    inr = grid_inertia(re, [list(row) for row in X.im])
    if inr.rank <= 2:
        return Fraction(t, X.den), inr
    for i in range(5):
        block_re[i][i] -= t
    if grid_inertia(block_re, block_im).rank > 2:
        raise InconsistencyError(
            "the leading block's triple eigenvalue fails its rank <= 2 check"
        )
    return None


def classify_cone(X: HermitianMatrix) -> ConeClassification:
    """Cone membership of a nonzero matrix for q >= 5.

    Scalar matrices are the vertex.  Otherwise X belongs to the cone iff
    X - s*I has rank <= 2 for an eigenvalue s of multiplicity >= q - 2.
    Five rows are enough to name s: it is a triple eigenvalue of the
    leading 5 x 5 block, which has at most one.  The elimination of
    X - s*I for that candidate decides membership, and the label follows
    the signature it reads.
    """
    if X.is_zero():
        raise NotProjectivePointError("zero matrix is not a projective point")
    if X.q < 5:
        raise UnsupportedSizeError(
            f"cone classification requires q >= 5, got {X.q}"
        )
    if X.is_scalar():
        return ConeClassification(ConeLabel.VERTEX, Fraction(X.re[0][0], X.den))
    found = _high_multiplicity_shift(X)
    if found is None:
        return ConeClassification(ConeLabel.NOT_IN_C2, None)
    s, inr = found
    if inr.rank <= 1:
        return ConeClassification(ConeLabel.BOTH_BOUNDARY, s)
    if inr.m == 0:
        return ConeClassification(ConeLabel.C0, s)
    return ConeClassification(ConeLabel.C1, s)


def dim_limit_min_inertia_ge2(q: int) -> int:
    """Upper bound q^2 - (4q - 3) for the dimension of a real subspace in
    which every nonzero matrix has at least 2 positive and 2 negative
    eigenvalues; valid for q = 2^k + 1 with k >= 2."""
    if q < 5 or (q - 1) & (q - 2) != 0:
        raise HypothesisNotMetError(
            f"q must be 2^k + 1 with k >= 2 (q >= 5); got q={q}"
        )
    return q * q - (4 * q - 3)
