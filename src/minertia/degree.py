"""Degree of the rank <= 2 determinantal locus and its parity law.

Two independent closed forms of the degree are provided (a plain product
and a binomial-coefficient ratio), plus a 2-adic valuation that never
materializes the integer, so the parity law can be swept over millions of
sizes.  The degree is odd exactly when q - 1 is a power of two,
equivalently when q - 2 and q - 1 have disjoint binary expansions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import InconsistencyError
from .jsonrecord import json_record

#: Largest q for which parity_record materializes the full integer degree.
MATERIALIZE_LIMIT = 200


def degree_product_form(q: int) -> int:
    """Product over j of (q+j-1)(q+j) / ((j+1)(j+2)) for j = 0..q-3.

    Accumulated as an exact rational because individual factors need not be
    integers; the total always is, which is asserted.
    """
    _check_q(q)
    acc = Fraction(1)
    for j in range(q - 2):
        acc *= Fraction((q + j - 1) * (q + j), (j + 1) * (j + 2))
    if acc.denominator != 1:
        raise InconsistencyError(f"degree product is not an integer for q={q}")
    return acc.numerator


def degree_binomial_form(q: int) -> int:
    """Product over j of C(q+j, q-2) / C(q-2+j, q-2) for j = 0..q-3."""
    _check_q(q)
    acc = Fraction(1)
    for j in range(q - 2):
        acc *= Fraction(math.comb(q + j, q - 2), math.comb(q - 2 + j, q - 2))
    if acc.denominator != 1:
        raise InconsistencyError(f"degree binomial ratio is not an integer for q={q}")
    return acc.numerator


def binary_disjoint(a: int, b: int) -> bool:
    """True iff the binary expansions of a and b share no set bit."""
    return a & b == 0


def is_power_of_two_plus_one(q: int) -> bool:
    n = q - 1
    return n >= 2 and (1 << (n.bit_length() - 1)) == n


def _factorial_v2(n: int) -> int:
    # Legendre: v2(n!) = n - (binary digit sum of n)
    return n - n.bit_count()


def two_adic_valuation(q: int) -> int:
    """2-adic valuation of the degree, via factorial valuations only.

    The product telescopes to (2q-4)! (2q-3)! / ((q-2)! (q-1)!)^2, so the
    valuation is a fixed combination of four factorial valuations and costs
    O(1) bit operations per q.
    """
    _check_q(q)
    return (
        _factorial_v2(2 * q - 4)
        + _factorial_v2(2 * q - 3)
        - 2 * _factorial_v2(q - 2)
        - 2 * _factorial_v2(q - 1)
    )


@json_record
class DegreeRecord:
    q: int
    degree: Optional[int]  # None above MATERIALIZE_LIMIT
    v2: int
    is_odd: bool
    q_is_2k_plus_1: bool
    k: Optional[int]

    def csv_row(self) -> list:
        return [
            self.q,
            "omitted" if self.degree is None else self.degree,
            self.v2,
            self.is_odd,
            self.q_is_2k_plus_1,
        ]


CSV_HEADER = ["q", "degree", "v2", "is_odd", "q_is_2k_plus_1"]


def parity_record(q: int, materialize_limit: int = MATERIALIZE_LIMIT) -> DegreeRecord:
    """Assemble degree, parity and the power-of-two test for one q.

    The three-way equivalence (odd degree, disjoint binary expansions of
    q-2 and q-1, q = 2^k + 1) is asserted on every call.
    """
    _check_q(q)
    v2 = two_adic_valuation(q)
    odd = v2 == 0
    pow2 = is_power_of_two_plus_one(q)
    disjoint = binary_disjoint(q - 2, q - 1)
    if odd != disjoint or odd != pow2:
        raise InconsistencyError(
            f"parity equivalence violated at q={q}: v2={v2}, "
            f"disjoint={disjoint}, pow2={pow2}"
        )
    degree = degree_product_form(q) if q <= materialize_limit else None
    if degree is not None and (degree % 2 == 1) != odd:
        raise InconsistencyError(f"materialized parity disagrees with v2 at q={q}")
    k = (q - 1).bit_length() - 1 if pow2 else None
    return DegreeRecord(q, degree, v2, odd, pow2, k)


def verify_parity_law(lo: int, hi: int) -> int:
    """Sweep q in [lo, hi]; return the number of parity-law violations
    (0 on a correct build).  Uses only the O(1) valuation per q."""
    bad = 0
    for q in range(max(lo, 3), hi + 1):
        odd = two_adic_valuation(q) == 0
        if odd != binary_disjoint(q - 2, q - 1) or odd != is_power_of_two_plus_one(q):
            bad += 1
    return bad


def _check_q(q: int):
    if q < 3:
        raise ValueError(f"degree is defined for q >= 3, got {q}")
