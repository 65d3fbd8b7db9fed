import random
from fractions import Fraction

import pytest

from conftest import rand_low_rank, rand_psd, rand_square
from minertia import strata
from minertia.errors import (
    HypothesisNotMetError,
    NotProjectivePointError,
    UnsupportedSizeError,
)
from minertia.hermitian_core import (
    HermitianMatrix,
    Inertia,
    congruence_transform,
    inertia,
    minimal_inertia,
)
from minertia.strata import (
    ConeClassification,
    ConeLabel,
    StratumLabel,
    _high_multiplicity_shift,
    classify_cone,
    classify_d2,
    cone_dimension,
    d2_real_dimension,
    dim_limit_min_inertia_ge2,
)


class TestClassifyD2:
    @pytest.mark.parametrize(
        "diag,label",
        [
            ([1, -1, 0, 0, 0], StratumLabel.D1_ONLY),
            ([1, 1, 0, 0, 0], StratumLabel.D0_ONLY),
            ([-2, -3, 0, 0, 0], StratumLabel.D0_ONLY),
            ([1, 0, 0, 0, 0], StratumLabel.D0_AND_D1),
            ([-1, 0, 0, 0, 0], StratumLabel.D0_AND_D1),
            ([1, 1, 1, 0, 0], StratumLabel.NOT_IN_D2),
            ([1, 2, 3, 4, 5], StratumLabel.NOT_IN_D2),
        ],
    )
    def test_diagonal_cases(self, diag, label):
        assert classify_d2(HermitianMatrix.diagonal(diag)) is label

    def test_zero_matrix_rejected(self):
        with pytest.raises(NotProjectivePointError):
            classify_d2(HermitianMatrix.zero(3))

    def test_in_d2_flag(self):
        assert StratumLabel.D0_ONLY.in_d2
        assert StratumLabel.D1_ONLY.in_d2
        assert StratumLabel.D0_AND_D1.in_d2
        assert not StratumLabel.NOT_IN_D2.in_d2

    def test_scale_invariance_of_labels(self, rng):
        for _ in range(40):
            x = rand_low_rank(rng, 5, rng.randint(0, 1), rng.randint(0, 1))
            if x.is_zero():
                continue
            label = classify_d2(x)
            lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
            assert classify_d2(x.scale(lam)) is label
            assert classify_d2(x.scale(-lam)) is label

    def test_congruence_images_keep_labels(self, rng):
        # the label depends only on inertia, hence on the congruence class
        for diag, label in [
            ([1, -1, 0, 0, 0], StratumLabel.D1_ONLY),
            ([1, 1, 0, 0, 0], StratumLabel.D0_ONLY),
            ([1, 0, 0, 0, 0], StratumLabel.D0_AND_D1),
        ]:
            x = HermitianMatrix.diagonal(diag)
            done = 0
            while done < 5:
                try:
                    y = congruence_transform(x, rand_square(rng, 5))
                except Exception:
                    continue
                assert classify_d2(y) is label
                done += 1


class TestHighMultiplicityEigenvalue:
    """The eigenvalue s of multiplicity >= q - 2 and the inertia of X - s*I."""

    def test_multiplicity_three_of_five(self):
        assert _high_multiplicity_shift(
            HermitianMatrix.diagonal([2, 1, 1, 1, 0])
        ) == (Fraction(1), Inertia(1, 1, 3))

    def test_simple_spectrum_gives_none(self):
        assert (
            _high_multiplicity_shift(HermitianMatrix.diagonal([1, 2, 3, 4, 5]))
            is None
        )

    def test_scalar_matrix(self):
        assert _high_multiplicity_shift(
            HermitianMatrix.scalar(5, 7)
        ) == (Fraction(7), Inertia(0, 0, 5))

    def test_fractional_shift(self):
        s = Fraction(3, 7)
        x = HermitianMatrix.diagonal([s + 2, s, s, s, s - 1])
        assert _high_multiplicity_shift(x) == (s, Inertia(1, 1, 3))

    def test_small_q_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            _high_multiplicity_shift(HermitianMatrix.identity(4))

    def test_non_diagonal_input(self, rng):
        # congruence preserves inertia, so rank-2 + 5*I keeps the eigenvalue 5
        # with multiplicity exactly 3 while filling in off-diagonal entries
        low_rank = HermitianMatrix.diagonal([0, 0, 0, -3, -4])
        done = 0
        while done < 5:
            try:
                y = congruence_transform(low_rank, rand_square(rng, 5))
            except Exception:
                continue
            z = y.shift(Fraction(-5))  # y + 5*I
            assert _high_multiplicity_shift(z) == (Fraction(5), Inertia(0, 2, 3))
            done += 1


def _spy_cone_path(monkeypatch) -> list:
    """Log the cone path's towers, eliminations, inertias and shifts."""
    calls = []

    def logged(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)

        return call

    monkeypatch.setattr(strata, "_int_gcd_tower", logged("tower", strata._int_gcd_tower))
    monkeypatch.setattr(strata, "grid_inertia", logged("elimination", strata.grid_inertia))
    monkeypatch.setattr(strata, "inertia", logged("inertia", strata.inertia))
    monkeypatch.setattr(HermitianMatrix, "shift", logged("shift", HermitianMatrix.shift))
    return calls


def _bordered(diag) -> list:
    """The integer grid diag(diag) with every off-diagonal entry of the last
    row and column set to 1."""
    q = len(diag)
    re = [[d * (i == j) for j in range(q)] for i, d in enumerate(diag)]
    for i in range(q - 1):
        re[i][q - 1] = re[q - 1][i] = 1
    return re


class TestClassifyCone:
    @pytest.mark.parametrize(
        "diag,label",
        [
            ([2, 1, 1, 1, 0], ConeLabel.C1),
            ([3, 2, 1, 1, 1], ConeLabel.C0),
            ([2, 1, 1, 1, 1], ConeLabel.BOTH_BOUNDARY),
            ([1, 1, 1, 1, 1], ConeLabel.VERTEX),
            ([1, 2, 3, 4, 5], ConeLabel.NOT_IN_C2),
        ],
    )
    def test_diagonal_cases(self, diag, label):
        assert classify_cone(HermitianMatrix.diagonal(diag)).label is label

    def test_apex_shift_values(self):
        res = classify_cone(HermitianMatrix.diagonal([2, 1, 1, 1, 0]))
        assert res.apex_shift == Fraction(1)
        res = classify_cone(HermitianMatrix.scalar(5, Fraction(7, 3)))
        assert res.label is ConeLabel.VERTEX
        assert res.apex_shift == Fraction(7, 3)
        assert classify_cone(HermitianMatrix.diagonal([1, 2, 3, 4, 5])).apex_shift is None

    def test_c1_example_has_low_minimal_inertia(self):
        x = HermitianMatrix.diagonal([2, 1, 1, 1, 0])
        assert minimal_inertia(x) <= 1

    def test_c1_membership_forces_m_le_1(self, rng):
        found = 0
        while found < 30:
            y = rand_low_rank(rng, 5, 1, 1)
            inr = inertia(y)
            if (inr.n_plus, inr.n_minus) != (1, 1):
                continue
            t = Fraction(rng.randint(1, 5))
            s = Fraction(rng.randint(-5, 5))
            x = y.scale(t).add(HermitianMatrix.identity(5).scale(s))
            res = classify_cone(x)
            if res.label is ConeLabel.C1:
                assert minimal_inertia(x) <= 1
                assert res.apex_shift == s
            found += 1

    def test_cone_member_is_shifted_and_eliminated_once(self, monkeypatch):
        # one integer tower (on the leading 5 x 5 block), one elimination of
        # the grid of X - s*I, whose inertia gives the label, and no second
        # shift or elimination
        calls = _spy_cone_path(monkeypatch)
        res = classify_cone(HermitianMatrix.diagonal([3, 3, 3, 1, -1]))
        assert (res.label, res.apex_shift) == (ConeLabel.C0, Fraction(3))
        assert calls == ["tower", "elimination"]

    def test_triple_eigenvalue_in_the_block_only_is_not_in_the_cone(self, monkeypatch):
        # the leading block diag(1, 1, 1, 2, 3) offers the apex 1, but X - I
        # has rank 4: the full matrix is eliminated, then the block guard
        X = HermitianMatrix.from_scaled(1, _bordered([1, 1, 1, 2, 3, 5]), [[0] * 6] * 6)
        calls = _spy_cone_path(monkeypatch)
        assert classify_cone(X) == ConeClassification(ConeLabel.NOT_IN_C2, None)
        assert calls == ["tower", "elimination", "elimination"]
        assert inertia(X.shift(1)).rank == 4

    def test_two_double_eigenvalues_in_the_first_four_rows(self):
        # the leading 4 x 4 block diag(1, 1, 2, 2) has two double roots (a
        # depth-1 tower on four rows would not be a pure power); the 5 x 5
        # block diag(1, 1, 2, 2, 3) has no triple one
        X = HermitianMatrix.from_scaled(1, _bordered([1, 1, 2, 2, 3, 5]), [[0] * 6] * 6)
        assert classify_cone(X) == ConeClassification(ConeLabel.NOT_IN_C2, None)

    @pytest.mark.parametrize(
        "corner,label",
        [
            ([[1, 2], [2, 4]], ConeLabel.BOTH_BOUNDARY),  # v v*, v = (1, 2)
            ([[2, 2 + 2j], [2 - 2j, 4]], ConeLabel.BOTH_BOUNDARY),  # v = (1 + i, 2)
            ([[1, 1], [1, 2]], ConeLabel.C0),
            ([[1, 2], [2, -1]], ConeLabel.C1),
            ([[-1, -1], [-1, -2]], ConeLabel.C0),
        ],
    )
    @pytest.mark.parametrize("q", [7, 8])
    def test_low_rank_part_outside_the_block(self, q, corner, label):
        # 3*I plus a Hermitian 2 x 2 block on the last two indices: the
        # leading 5 x 5 block is the scalar 3*I, the apex is still 3
        re = [[3 * (i == j) for j in range(q)] for i in range(q)]
        im = [[0] * q for _ in range(q)]
        for a in range(2):
            for b in range(2):
                z = complex(corner[a][b])
                re[q - 2 + a][q - 2 + b] += int(z.real)
                im[q - 2 + a][q - 2 + b] = int(z.imag)
        X = HermitianMatrix.from_scaled(1, re, im)
        assert classify_cone(X) == ConeClassification(label, Fraction(3))

    def test_zero_rejected(self):
        with pytest.raises(NotProjectivePointError):
            classify_cone(HermitianMatrix.zero(5))

    def test_small_q_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            classify_cone(HermitianMatrix.identity(3))


class TestConeCombinationInvariant:
    def test_cone_elements_keep_m_le_1(self, rng):
        # t*Y + s*I with rank(Y) <= 2, n_plus <= 1, n_minus <= 1
        for _ in range(200):
            y = rand_low_rank(rng, 5, rng.randint(0, 1), rng.randint(0, 1))
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            x = y.scale(t).add(HermitianMatrix.identity(5).scale(s))
            if x.is_zero():
                continue
            assert minimal_inertia(x) <= 1


class TestTraceHyperplane:
    def test_nonzero_psd_has_positive_trace(self, rng):
        checked = 0
        while checked < 200:
            x = rand_psd(rng, rng.randint(3, 6), rng.randint(1, 2))
            if x.is_zero():
                continue
            assert minimal_inertia(x) == 0
            assert x.trace() > 0
            checked += 1


class TestDimensionConstants:
    def test_dimension_limit_values(self):
        assert dim_limit_min_inertia_ge2(5) == 8
        assert dim_limit_min_inertia_ge2(9) == 48
        assert dim_limit_min_inertia_ge2(17) == 17 * 17 - 65

    @pytest.mark.parametrize("q", [3, 4, 6, 7, 8, 10])
    def test_dimension_limit_hypothesis_gate(self, q):
        with pytest.raises(HypothesisNotMetError):
            dim_limit_min_inertia_ge2(q)

    def test_documented_dimensions(self):
        assert d2_real_dimension(5) == 15
        assert cone_dimension(5) == 16


class TestSerialization:
    def test_cone_classification_round_trip(self):
        from minertia.strata import ConeClassification

        for diag in ([2, 1, 1, 1, 0], [1, 2, 3, 4, 5], [1, 1, 1, 1, 1]):
            res = classify_cone(HermitianMatrix.diagonal(diag))
            assert ConeClassification.from_json(res.to_json()) == res

    def test_stratum_label_round_trip(self):
        for label in StratumLabel:
            assert StratumLabel(label.value) is label
