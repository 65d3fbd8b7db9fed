"""The integer exact kernels against independent references.

* ``char_poly`` (Berkowitz on the scaled integer matrix) is evaluated and
  compared with det(sI - X) from a plain Fraction elimination written here.
* ``inertia`` (fraction-free symmetric elimination) is compared with the
  sign-variation oracle on hypothesis-drawn zero-diagonal and low-rank
  matrices, the inputs that exercise the congruence and zero-block steps.
* The modular independence test must fall back to exact rank when a basis
  is dependent modulo the prime but independent over Q.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_hermitian, rand_hermitian_generic, rand_low_rank
from minertia.errors import InconsistencyError
from minertia.exactnum import GaussianRational, scaled_gaussian_grid
from minertia.hermitian_core import (
    HermitianMatrix,
    _berkowitz,
    _exact_quotient,
    char_poly,
    grid_inertia,
    inertia,
)
from minertia.oracles import descartes_inertia
from minertia.search import MODULUS, ModularEchelon, SubspaceBasis


def fraction_det(rows):
    """Determinant of a matrix of (re, im) Fraction pairs by plain Gaussian
    elimination over Q(i)."""
    m = [list(r) for r in rows]
    n = len(m)
    det = (Fraction(1), Fraction(0))

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def div(a, b):
        n2 = b[0] * b[0] + b[1] * b[1]
        return ((a[0] * b[0] + a[1] * b[1]) / n2, (a[1] * b[0] - a[0] * b[1]) / n2)

    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != (0, 0)), None)
        if piv is None:
            return (Fraction(0), Fraction(0))
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = (-det[0], -det[1])
        det = mul(det, m[c][c])
        for r in range(c + 1, n):
            f = div(m[r][c], m[c][c])
            for k in range(n):
                g = mul(f, m[c][k])
                m[r][k] = (m[r][k][0] - g[0], m[r][k][1] - g[1])
    return det


def shifted_pairs(X, s):
    """s*I - X as (re, im) Fraction pairs."""
    return [
        [((s if i == j else 0) - e.re, -e.im) for j, e in enumerate(row)]
        for i, row in enumerate(X.entries)
    ]


class TestCharPolyAgainstDeterminant:
    @pytest.mark.parametrize("exponent", [0, 200, -200])
    def test_evaluation_matches_fraction_determinant(self, exponent):
        rng = random.Random(4242 + exponent)
        for _ in range(12):
            q = rng.randint(1, 8)
            X = rand_hermitian(rng, q).scale(Fraction(2) ** exponent)
            p = char_poly(X)
            assert p.degree == q and p.coeffs[-1] == 1
            s_small = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            s_scaled = Fraction(rng.randint(1, 5), 3) * Fraction(2) ** exponent
            for s in (Fraction(0), s_small, s_scaled):
                det = fraction_det(shifted_pairs(X, s))
                assert det[1] == 0
                assert p.evaluate(s) == det[0]

    def test_mixed_huge_and_tiny_entries(self):
        rng = random.Random(7)
        q = 5
        entries = [[None] * q for _ in range(q)]
        for i in range(q):
            entries[i][i] = GaussianRational(Fraction(rng.randint(1, 9), 1 << 200))
            for j in range(i + 1, q):
                z = GaussianRational(Fraction(rng.randint(-9, 9) << 200, 7), Fraction(3, 1 << 200))
                entries[i][j], entries[j][i] = z, z.conj()
        X = HermitianMatrix(entries)
        s = Fraction(5, 1 << 199)
        assert char_poly(X).evaluate(s) == fraction_det(shifted_pairs(X, s))[0]


def _fraction_strategy(max_abs=6):
    return st.builds(Fraction, st.integers(-max_abs, max_abs), st.integers(1, max_abs))


@st.composite
def zero_diagonal_matrices(draw):
    q = draw(st.integers(2, 7))
    entries = [[GaussianRational(0)] * q for _ in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            z = GaussianRational(draw(_fraction_strategy()), draw(_fraction_strategy()))
            entries[i][j], entries[j][i] = z, z.conj()
    return HermitianMatrix(entries)


@st.composite
def low_rank_matrices(draw):
    q = draw(st.integers(2, 7))
    pos = draw(st.integers(0, 3))
    neg = draw(st.integers(0, 3))
    return rand_low_rank(random.Random(draw(st.integers(0, 2**32))), q, pos, neg)


class TestInertiaAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(zero_diagonal_matrices())
    def test_zero_diagonal(self, X):
        assert inertia(X) == descartes_inertia(X)

    @settings(max_examples=60, deadline=None)
    @given(low_rank_matrices())
    def test_low_rank(self, X):
        assert inertia(X) == descartes_inertia(X)

    def test_huge_entries(self):
        rng = random.Random(99)
        for _ in range(10):
            q = rng.randint(2, 7)
            X = rand_hermitian_generic(rng, q, max_num=1 << 120, max_den=1 << 120)
            assert inertia(X) == descartes_inertia(X)


class TestSelfChecks:
    def test_non_real_diagonal_after_a_pivot_raises(self):
        # Not Hermitian (m01 = 1+i, m10 = 1): the input diagonal is real, but
        # after the first pivot the (1,1) entry is -i.
        with pytest.raises(InconsistencyError, match="non-real diagonal"):
            grid_inertia([[1, 1], [1, 1]], [[0, 1], [0, 0]])

    def test_non_real_berkowitz_coefficient_raises(self):
        with pytest.raises(InconsistencyError, match="non-real Berkowitz"):
            _berkowitz([[0, 1], [1, 0]], [[0, 1], [0, 0]])

    def test_inexact_division_raises(self):
        assert _exact_quotient(-12, 4) == -3
        with pytest.raises(InconsistencyError, match="remainder"):
            _exact_quotient(7, 2)


class TestScaledGrid:
    def test_round_trip(self, rng):
        X = rand_hermitian(rng, 5)
        den, re, im = scaled_gaussian_grid(X.entries)
        assert den > 0
        assert HermitianMatrix.from_scaled(den, re, im) == X
        tripled = [[[3 * v for v in r] for r in grid] for grid in (re, im)]
        assert HermitianMatrix.from_scaled(3 * den, *tripled) == X


def fraction_rank(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class TestIndependence:
    def test_echelon_matches_fraction_rank_and_copy_is_a_snapshot(self):
        rng = random.Random(8)
        ech = ModularEchelon()
        kept = []
        for _ in range(12):
            v = [rng.randint(-2, 2) for _ in range(6)]
            snapshot = ech.copy()
            added = ech.try_add(v)
            assert added == (fraction_rank(kept + [v]) > len(kept))
            if added:
                kept.append(v)
                assert len(snapshot.accepted) == len(kept) - 1
        assert len(ech.accepted) == fraction_rank(kept) == len(kept)

    def test_dependent_mod_p_but_independent_over_q_is_accepted(self):
        # e_1 and e_1 + p*e_2 coincide modulo p but are independent over Q.
        e11 = HermitianMatrix.diagonal([1, 0, 0])
        shifted = HermitianMatrix.diagonal([1, MODULUS, 0])
        assert SubspaceBasis(3, [e11, shifted]).dim == 2

    def test_truly_dependent_basis_is_still_rejected(self):
        e11 = HermitianMatrix.diagonal([1, 0, 0])
        e22 = HermitianMatrix.diagonal([0, 1, 0])
        shifted = HermitianMatrix.diagonal([1, MODULUS, 0])
        with pytest.raises(ValueError, match="dependent"):
            SubspaceBasis(3, [e11, e11.scale(Fraction(5, 3))])
        # e_2 = ((e_1 + p*e_2) - e_1) / p: independent of e_1 modulo p, but
        # not over Q once e_1 + p*e_2 has been accepted
        with pytest.raises(ValueError, match="basis matrix 2 is linearly dependent"):
            SubspaceBasis(3, [e11, shifted, e22])
        # ... while the exact test still accepts what is independent
        e33 = HermitianMatrix.diagonal([0, 0, 1])
        assert SubspaceBasis(3, [e11, shifted, e33]).dim == 3
