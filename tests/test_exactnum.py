import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import horner, root_expansion
from minertia.exactnum import (
    GaussianRational,
    RationalPolynomial,
    format_rational,
    grid_combination,
    parse_rational,
    poly_gcd,
    poly_gcd_tower,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
gaussians_st = st.builds(GaussianRational, fractions_st, fractions_st)


class TestRationalText:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(" 5/10 ") == Fraction(1, 2)

    def test_format_denominator_one(self):
        assert format_rational(Fraction(6, 2)) == "3"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    @pytest.mark.parametrize("x", [0.1, 0.5, "1e-3", "1/2", Decimal("0.1"), 1j])
    def test_format_takes_only_exact_rationals(self, x):
        # 0.1 used to be written as 3602879701896397/36028797018963968
        # and "1e-3" as 1/1000
        with pytest.raises(TypeError, match="not an exact rational"):
            format_rational(x)

    def test_format_takes_an_int(self):
        assert format_rational(-4) == "-4"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("x+1")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    # Fraction() takes all of these; the documented grammar is -?[0-9]+(/[0-9]+)?
    @pytest.mark.parametrize(
        "text", ["1e-10000000", "1e5", "1.5", ".5", "1_000", "\u0663", "+1", "1/-2", "1 / 2", "inf"]
    )
    def test_parse_accepts_only_the_documented_grammar(self, text):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)

    @given(fractions_st)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x


class TestGaussianRational:
    @given(gaussians_st)
    def test_conj_involution(self, z):
        assert z.conj().conj() == z

    def test_json_round_trip(self):
        z = GaussianRational(Fraction(-5, 3), Fraction(7, 2))
        assert GaussianRational.from_json(z.to_json()) == z

    def test_json_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            GaussianRational.from_json({"re": "1"})

    def test_immutability(self):
        z = GaussianRational(1)
        with pytest.raises(AttributeError):
            z.re = Fraction(2)

    def test_hash_consistency(self):
        assert hash(GaussianRational(Fraction(2, 4), 0)) == hash(
            GaussianRational(Fraction(1, 2), 0)
        )


class TestRationalPolynomial:
    def test_trim_and_degree(self):
        p = RationalPolynomial([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1
        assert RationalPolynomial([]).degree == -1

    def test_derivative_monic_and_zero(self):
        p = RationalPolynomial([2, -7, 9, -5, 1])
        assert p.derivative().coeffs == (
            Fraction(-7),
            Fraction(18),
            Fraction(-15),
            Fraction(4),
        )
        assert RationalPolynomial([3, 6]).monic().coeffs == (Fraction(1, 2), Fraction(1))
        z = RationalPolynomial()
        assert z.is_zero() and z.monic() is z and z.derivative().is_zero()
        assert not p.is_zero() and RationalPolynomial([5]).derivative().is_zero()

    def test_only_the_read_surface_and_immutable(self):
        public = {name for name in dir(RationalPolynomial) if not name.startswith("_")}
        assert public == {"coeffs", "degree", "derivative", "is_zero", "monic"}
        p = RationalPolynomial([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = ()


class TestPolyGcdTower:
    def test_root_expansion(self):
        # (x-1)^3 (x-2) = x^4 - 5x^3 + 9x^2 - 7x + 2, expanded by hand
        assert root_expansion([1, 1, 1, 2]) == (2, -7, 9, -5, 1)
        assert horner(root_expansion([1, 1, 1, 2]), 0) == 2

    def test_triple_root_depth_two(self):
        g = poly_gcd_tower(RationalPolynomial(root_expansion([1, 1, 1, 2])), 2)
        assert g.coeffs == (-1, 1)

    def test_depth_zero_returns_monic_input(self):
        p = RationalPolynomial([-10, 2])  # 2x - 10
        assert poly_gcd_tower(p, 0).coeffs == (-5, 1)

    def test_coprime_derivative(self):
        g = poly_gcd_tower(RationalPolynomial(root_expansion([1, 2])), 1)
        assert g.degree == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd_tower(RationalPolynomial([]), 1)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd_tower(RationalPolynomial([1, 1]), -1)

    def test_tower_matches_multiplicity_structure(self):
        rng = random.Random(1234)
        for _ in range(40):
            roots = rng.sample(range(-6, 7), rng.randint(1, 3))
            mults = [rng.randint(1, 4) for _ in roots]
            scale = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            p = RationalPolynomial(root_expansion([r for r, m in zip(roots, mults) for _ in range(m)], scale))
            for depth in range(0, 5):
                expected = root_expansion([r for r, m in zip(roots, mults) for _ in range(m - depth)])
                assert poly_gcd_tower(p, depth).coeffs == expected

    @pytest.mark.parametrize("seed", range(12))
    def test_tower_of_rational_roots_keeps_the_excess_multiplicities(self, seed):
        # the expansion of each root taken multiplicity - depth times, for
        # every depth up to the degree, under a non-unit (possibly negative) scale
        rng = random.Random(seed)
        roots = {Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 4))}
        mults = {r: rng.randint(1, 4) for r in roots}
        scale = Fraction(rng.choice([-1, 1]) * rng.randint(2, 30), rng.randint(1, 11))
        p = RationalPolynomial(root_expansion([r for r in roots for _ in range(mults[r])], scale))
        for depth in range(p.degree + 1):
            excess = [r for r in roots for _ in range(mults[r] - depth)]
            assert poly_gcd_tower(p, depth).coeffs == root_expansion(excess)

    def test_tower_roots_are_roots_of_p(self):
        p = RationalPolynomial(root_expansion([3, 3, 3, -2, -2, 5]))
        g = poly_gcd_tower(p, 1)  # roots of multiplicity >= 2
        assert g.coeffs == root_expansion([3, 3, -2])
        # each rational root of the tower must be a root of p itself
        for root in (3, -2):
            assert horner(g.coeffs, root) == 0
            assert horner(p.coeffs, root) == 0

    def test_gcd_of_scaled_inputs(self):
        a = RationalPolynomial(root_expansion([1, 2], Fraction(3, 7)))
        b = RationalPolynomial(root_expansion([2, 5], Fraction(-2, 9)))
        assert poly_gcd(a, b).coeffs == (-2, 1)

    def test_gcd_with_zero(self):
        p = RationalPolynomial([-4, 2])
        z = RationalPolynomial([])
        assert poly_gcd(p, z).coeffs == (-2, 1)
        assert poly_gcd(z, z).coeffs == ()


class TestGridCombination:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_entrywise_fraction_sums(self, seed):
        rng = random.Random(seed)
        q, count = rng.randint(1, 5), rng.randint(1, 6)

        def grid():
            ints = lambda: [[rng.randint(-50, 50) for _ in range(q)] for _ in range(q)]
            return rng.randint(1, 30), ints(), ints()

        grids = [grid() for _ in range(count)]
        coeffs = [rng.choice([0, 0, 3, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 9))])
                  for _ in grids]
        before = repr(grids)
        den, re, im = grid_combination(q, zip(coeffs, grids))
        assert repr(grids) == before  # read, never written
        for i in range(q):
            for j in range(q):
                for got, part in ((re, 1), (im, 2)):
                    want = sum(Fraction(c) * Fraction(g[part][i][j], g[0]) for c, g in zip(coeffs, grids))
                    assert Fraction(got[i][j], den) == want

    def test_no_nonzero_term_gives_the_zero_grid(self):
        grids = [(3, [[1, 2], [2, 5]], [[0, 1], [-1, 0]])]
        for terms in ([], [(0, grids[0])], [(Fraction(0), grids[0])]):
            assert grid_combination(2, terms) == (1, [[0, 0], [0, 0]], [[0, 0], [0, 0]])
