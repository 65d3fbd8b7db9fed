import collections
import math
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    rand_hermitian,
    rand_hermitian_generic,
    rand_low_rank,
    rand_psd,
    rand_square,
    root_expansion,
)
from minertia.errors import NotHermitianError, SingularTransformError
from minertia.exactnum import (
    GaussianRational,
    RationalPolynomial,
    _parse_ratios,
    exact_rational,
    parse_ratio,
    scaled_gaussian_grid,
)
from minertia.hermitian_core import (
    HermitianMatrix,
    Inertia,
    char_poly,
    congruence_transform,
    inertia,
    minimal_inertia,
    rank,
)
from minertia.jsonrecord import json_int
from minertia.oracles import descartes_inertia
from minertia.search import SubspaceBasis


def gauss(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix([[gauss(1), gauss(0)]])

    def test_rejects_asymmetric_with_location(self):
        with pytest.raises(NotHermitianError, match=r"\(0,1\)"):
            HermitianMatrix([[gauss(1), gauss(2)], [gauss(3), gauss(1)]])

    def test_rejects_complex_diagonal(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix([[gauss(0, 1)]])

    def test_accepts_conjugate_pairs(self):
        x = HermitianMatrix([[gauss(1), gauss(2, 3)], [gauss(2, -3), gauss(-1)]])
        assert x.q == 2

    def test_immutability(self):
        x = HermitianMatrix.identity(2)
        with pytest.raises(AttributeError):
            x.q = 3

    def test_json_round_trip(self, rng):
        x = rand_hermitian_generic(rng, 4)
        assert HermitianMatrix.from_json(x.to_json()) == x

    def test_json_rejects_partial_grid(self):
        doc = HermitianMatrix.identity(3).to_json()
        doc["entries"][0].pop()
        with pytest.raises(ValueError):
            HermitianMatrix.from_json(doc)


class TestInertiaExamples:
    def test_identity(self):
        assert inertia(HermitianMatrix.identity(3)) == Inertia(3, 0, 0)
        assert minimal_inertia(HermitianMatrix.identity(3)) == 0

    def test_explicit_diagonal(self):
        assert inertia(HermitianMatrix.diagonal([1, -1, 0])) == Inertia(1, 1, 1)

    def test_pauli_like_off_diagonal(self):
        # char poly x^2 - 1: one root of each sign
        x = HermitianMatrix([[gauss(0), gauss(0, 1)], [gauss(0, -1), gauss(0)]])
        assert char_poly(x).coeffs == (-1, 0, 1)
        assert inertia(x) == Inertia(1, 1, 0)

    def test_zero_matrix(self):
        assert inertia(HermitianMatrix.zero(4)) == Inertia(0, 0, 4)
        assert minimal_inertia(HermitianMatrix.zero(4)) == 0
        assert rank(HermitianMatrix.zero(4)) == 0

    def test_minimal_inertia_diagonal(self):
        assert minimal_inertia(HermitianMatrix.diagonal([1, 1, -1, -1, 0])) == 2

    def test_rank_diagonal(self):
        assert rank(HermitianMatrix.diagonal([1, -1, 0, 0])) == 2


class TestInertiaCounts:
    @pytest.mark.parametrize(
        "counts", [(1.5, 0, 0), ("1", 0, 0), (0, True, 0), (0, 0, Fraction(1)), (0, 0, 2.0)]
    )
    def test_counts_must_be_integers(self, counts):
        # 1.5 used to be written out as "rank": 1.5, and "1" raised TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            Inertia(*counts)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative count"):
            Inertia(1, -1, 0)

    def test_integer_counts_round_trip(self):
        inr = Inertia(2, 1, 0)
        assert inr.to_json() == {"n_plus": 2, "n_minus": 1, "n_zero": 0, "m": 1, "rank": 3}
        assert Inertia.from_json(inr.to_json()) == inr


class TestInertiaProperties:
    def test_oracle_equivalence(self, rng):
        for q in range(2, 6):
            for _ in range(100):
                x = rand_hermitian(rng, q)
                assert inertia(x) == descartes_inertia(x)

    def test_counts_sum_and_rank(self, rng):
        for _ in range(150):
            q = rng.randint(2, 6)
            x = rand_hermitian(rng, q)
            inr = inertia(x)
            assert inr.n_plus + inr.n_minus + inr.n_zero == q
            assert inr.rank == inr.n_plus + inr.n_minus
            assert inr.rank >= 2 * inr.m

    def test_negation_swaps_counts(self, rng):
        for _ in range(60):
            x = rand_hermitian(rng, rng.randint(2, 5))
            a = inertia(x)
            b = inertia(x.neg())
            assert (b.n_plus, b.n_minus, b.n_zero) == (a.n_minus, a.n_plus, a.n_zero)

    def test_scale_invariance(self, rng):
        for _ in range(60):
            x = rand_hermitian(rng, rng.randint(2, 5))
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if rng.random() < 0.5:
                lam = -lam
            assert minimal_inertia(x.scale(lam)) == minimal_inertia(x)

    def test_semidefinite_iff_m_zero(self, rng):
        for _ in range(60):
            q = rng.randint(2, 5)
            x = rand_hermitian(rng, q)
            inr = inertia(x)
            semidefinite = inr.n_plus == 0 or inr.n_minus == 0
            assert (inr.m == 0) == semidefinite
        # PSD by construction must land on m = 0
        for _ in range(30):
            x = rand_psd(rng, 4, rng.randint(1, 3))
            assert minimal_inertia(x) == 0

    def test_m2_forces_rank_at_least_4(self, rng):
        found = 0
        while found < 25:
            x = rand_low_rank(rng, 5, 2, 2)
            if minimal_inertia(x) == 2:
                assert rank(x) >= 4
                found += 1


class TestCongruence:
    def test_identity_transform(self, rng):
        x = rand_hermitian_generic(rng, 3)
        assert congruence_transform(x, HermitianMatrix.identity(3).entries) == x

    def test_positive_scaling(self, rng):
        x = rand_hermitian_generic(rng, 3)
        two_i = HermitianMatrix.scalar(3, 2).entries
        y = congruence_transform(x, two_i)
        assert y == x.scale(4)
        assert inertia(y) == inertia(x)

    def test_random_invertible_preserves_inertia(self, rng):
        done = 0
        while done < 40:
            q = rng.randint(2, 5)
            x = rand_hermitian(rng, q)
            p = rand_square(rng, q)
            try:
                y = congruence_transform(x, p)
            except SingularTransformError:
                continue
            assert inertia(y) == inertia(x)
            done += 1

    def test_singular_rejected(self):
        x = HermitianMatrix.identity(2)
        zero_rows = [[gauss(0), gauss(0)], [gauss(0), gauss(0)]]
        with pytest.raises(SingularTransformError):
            congruence_transform(x, zero_rows)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            congruence_transform(HermitianMatrix.identity(2), [[gauss(1)]])


class TestCharPoly:
    def test_diagonal_matches_root_expansion(self, rng):
        for _ in range(20):
            q = rng.randint(1, 5)
            diag = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(q)]
            assert char_poly(HermitianMatrix.diagonal(diag)).coeffs == root_expansion(diag)

    def test_second_coefficient_is_minus_trace(self, rng):
        for _ in range(20):
            x = rand_hermitian(rng, 4)
            p = char_poly(x)
            assert p.coeffs[3] == -x.trace()

    def test_monic(self, rng):
        x = rand_hermitian(rng, 3)
        assert char_poly(x).coeffs[-1] == 1


class TestStoredGrid:
    """The scaled integer grid is the stored form: the JSON reader and
    ``SubspaceBasis.element`` make it directly, and no operation writes it."""

    @staticmethod
    def _matrices():
        from minertia.search import random_subspace

        rows = [[gauss(3 if i == j else 0) for j in range(5)] for i in range(5)]
        rows[0][1] = gauss(Fraction(1, 2), Fraction(-2, 3))
        rows[1][0] = gauss(Fraction(1, 2), Fraction(2, 3))
        rows[4][4] = gauss(Fraction(-7, 4))
        ref = HermitianMatrix(rows)
        yield HermitianMatrix.from_json(ref.to_json()), ref
        L = random_subspace(5, 4, 3)
        coeffs = [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)]

        def combination(i, j, part):  # of the (i, j) entries' re or im parts
            return sum(c * getattr(b.entries[i][j], part) for c, b in zip(coeffs, L.basis))

        summed = [[(combination(i, j, "re"), combination(i, j, "im")) for j in range(5)] for i in range(5)]
        yield L.element(coeffs), HermitianMatrix(summed)

    def test_repeated_calls_agree_and_leave_the_grid_alone(self):
        from minertia.strata import classify_cone

        for X, ref in self._matrices():
            grid = X.grid
            first = (inertia(X), char_poly(X).coeffs, classify_cone(X))
            assert (inertia(X), char_poly(X).coeffs, classify_cone(X)) == first
            assert first == (inertia(ref), char_poly(ref).coeffs, classify_cone(ref))
            assert X.grid == grid == ref.grid
            assert X.entries == ref.entries and X.to_json() == ref.to_json()
            assert X == ref and hash(X) == hash(ref)
            with pytest.raises(TypeError):
                X.re[0][0] = 1

    def test_unreduced_and_spaced_rationals_read_to_the_reduced_grid(self):
        doc = {"q": 2, "entries": [
            [{"re": " 10/4", "im": "0/9"}, {"re": "-6/8", "im": "9/12"}],
            [{"re": "-3/4", "im": "-3/4"}, {"re": "-00/5", "im": "-0"}],
        ]}
        X = HermitianMatrix.from_json(doc)
        ref = HermitianMatrix([[gauss(Fraction(5, 2)), gauss(Fraction(-3, 4), Fraction(3, 4))],
                               [gauss(Fraction(-3, 4), Fraction(-3, 4)), gauss(0)]])
        assert X == ref and X.grid == (4, ((10, -3), (-3, 0)), ((0, 3), (-3, 0)))

    def test_large_unreduced_entries_read_fast(self):
        # "N/N" with distinct 4000-digit N: an lcm of the unreduced
        # denominators would be about 512,000 digits and take seconds
        rng = random.Random(5)
        q = 8

        def big():
            return rng.randrange(10**3999, 10**4000)

        entries = [[{"re": f"{n}/{n}", "im": f"0/{big()}"} for n in (big() for _ in range(q))]
                   for _ in range(q)]
        start = time.perf_counter()
        X = HermitianMatrix.from_json({"q": q, "entries": entries})
        assert time.perf_counter() - start < 2.0
        assert X.grid == (1, ((1,) * q,) * q, ((0,) * q,) * q)
        assert inertia(X) == Inertia(1, 0, q - 1)

    @pytest.mark.parametrize("den", [0, -2])
    def test_scaled_grid_needs_a_positive_denominator(self, den):
        with pytest.raises(ValueError, match="must be positive"):
            HermitianMatrix.from_scaled(den, [[1, 0], [0, 1]], [[0, 0], [0, 0]])

    def test_symmetry_error_names_the_entries(self):
        e = {"re": "0", "im": "0"}
        doc = {"q": 2, "entries": [[e, {"re": "2/4", "im": "1/3"}], [{"re": "1/2", "im": "1/3"}, e]]}
        with pytest.raises(NotHermitianError) as err:
            HermitianMatrix.from_json(doc)
        assert str(err.value) == "conjugate symmetry fails at (0,1): 1/2+1/3i vs conj(1/2+1/3i)"

    def test_arithmetic_matches_entrywise_arithmetic(self, rng):
        x, y = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
        s = Fraction(-5, 6)
        entrywise = [  # on (re, im) parts
            (x.add(y), lambda a, b: (a.re + b.re, a.im + b.im)),
            (x.sub(y), lambda a, b: (a.re - b.re, a.im - b.im)),
            (x.scale(s), lambda a, b: (a.re * s, a.im * s)), (x.neg(), lambda a, b: (-a.re, -a.im)),
        ]
        for got, op in entrywise:
            rows = [[op(a, b) for a, b in zip(r, t)] for r, t in zip(x.entries, y.entries)]
            assert got == HermitianMatrix(rows)
        shifted = [[(a.re - s, a.im) if i == j else a for j, a in enumerate(r)]
                   for i, r in enumerate(x.entries)]
        assert x.shift(s) == HermitianMatrix(shifted)
        assert x.trace() == sum((x.entries[i][i].re for i in range(4)), Fraction(0))
        assert x.scale(0) == HermitianMatrix.zero(4) and x.scale(0).is_zero()


def _read_by_entry(doc):
    """``HermitianMatrix.from_json`` as it read before the one-pass reader:
    ``json_parts`` on every entry in row order.  The reference reader."""
    if not isinstance(doc, dict) or "q" not in doc or "entries" not in doc:
        raise ValueError("matrix JSON needs keys 'q' and 'entries'")
    q, entries = json_int(doc["q"], "matrix 'q'"), doc["entries"]
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ValueError("matrix 'entries' must be a list of rows (lists)")
    if len(entries) != q or any(len(row) != q for row in entries):
        raise ValueError(f"entries must be a full {q}x{q} grid")
    parts = [p for row in entries for e in row for p in GaussianRational.json_parts(e)]
    den = math.lcm(*{d // math.gcd(n, d) for n, d in parts})
    vals = [n * den // d for n, d in parts]
    rows = [vals[2 * q * i : 2 * q * (i + 1)] for i in range(q)]
    return HermitianMatrix.from_scaled(den, [r[0::2] for r in rows], [r[1::2] for r in rows])


def _outcome(read, doc):
    try:
        return "grid", read(doc).grid
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)


# Whitespace that \s and str.strip() take, \x1c-\x1f among them (int() refuses those)
_SPACES = [" ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
           "\u2003", "\u2028", "\u3000"]
_LONG = "7" * 4301  # more digits than int() converts by default
_BAD_TEXTS = ["3/0", "-1/00", "1,2", "1/2,3", "", " ", "+1", "1.5", "1e3", "1_0", "1 2", "1 /2",
              "--1", "/2", "1/", "1/-2", "\u0663", "\uff11", "0x1", _LONG, f"1/{_LONG}",
              1, 0.5, None, ["1"], {"re": "1"}]
_BAD_ENTRIES = [None, "1", ["1", "0"], {"re": "1"}, {"im": "0"}, {"re": "1", "im": "0", "x": "0"},
                {"re": "1", "x": "0"}]


@st.composite
def _texts(draw):
    """A rational as text, written in the ways the grammar allows."""
    pad = st.lists(st.sampled_from(_SPACES), max_size=2).map("".join)
    num = draw(st.integers(-30, 30))
    sign = "-" if num < 0 or (num == 0 and draw(st.booleans())) else ""
    digits = "0" * draw(st.integers(0, 2)) + str(abs(num))
    den = draw(st.one_of(st.none(), st.integers(1, 12).map(lambda d: "0" * (d % 3 == 0) + str(d))))
    return draw(pad) + sign + digits + ("" if den is None else "/" + den) + draw(pad)


def _negated(text):
    """The text of -x for a rational text x; anything else unchanged."""
    if not isinstance(text, str) or not text.strip():
        return text
    body = text.lstrip()
    lead = text[: len(text) - len(body)]
    return lead + (body[1:] if body.startswith("-") else "-" + body)


@st.composite
def _matrix_docs(draw):
    """Matrix JSON that is Hermitian as written, then, often, one entry
    or one text spoiled."""
    q = draw(st.integers(0, 4))
    rows = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            re = draw(_texts())
            im = draw(st.sampled_from(["0", "-0", " 00 ", "0/7"])) if i == j else draw(_texts())
            rows[i][j] = {"re": re, "im": im}
            rows[j][i] = {"re": re, "im": im if i == j else _negated(im)}
    if q and draw(st.booleans()):
        i, j = draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))
        if draw(st.booleans()):
            rows[i][j] = draw(st.sampled_from(_BAD_ENTRIES))
        else:
            rows[i][j] = {**rows[i][j], draw(st.sampled_from(["re", "im"])): draw(st.sampled_from(_BAD_TEXTS))}
    return {"q": q, "entries": rows}


_WIDE = st.one_of(st.integers(-40, 40), st.integers(-(2**80), 2**80))


@st.composite
def _unreduced_texts(draw):
    """``"n*k/d*k"``: a rational written with a common factor k, which may
    be 1 and, like n and d, may lie beyond 2^64."""
    n, k = draw(_WIDE), draw(st.one_of(st.integers(1, 12), st.integers(1, 2**70)))
    d = draw(st.one_of(st.integers(1, 12), st.integers(1, 2**70)))
    return f"{n * k}/{d * k}"


@st.composite
def _unreduced_docs(draw):
    q = draw(st.integers(1, 4))
    rows = [[None] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            re, im = draw(_unreduced_texts()), "0/5" if i == j else draw(_unreduced_texts())
            rows[i][j] = {"re": re, "im": im}
            rows[j][i] = {"re": re, "im": im if i == j else _negated(im)}
    return {"q": q, "entries": rows}


class TestJsonGridInLowestTerms:
    """``from_json`` scales to the lcm of the reduced denominators, over
    which gcd(den, entries) is 1, so it stores the grid without that gcd;
    ``from_scaled``, which divides by it, must give the same grid."""

    @settings(max_examples=300, deadline=None)
    @given(_unreduced_docs())
    def test_same_grid_as_from_scaled(self, doc):
        X = HermitianMatrix.from_json(doc)
        den, re, im = X.grid
        assert math.gcd(den, *(v for row in re + im for v in row)) == 1
        assert X.grid == HermitianMatrix.from_scaled(den * 6, [[6 * v for v in r] for r in re],
                                                     [[6 * v for v in r] for r in im]).grid
        assert X.grid == _read_by_entry(doc).grid

    @pytest.mark.parametrize("texts,grid", [
        (("2/4", "-6/8"), (4, ((2, -3), (-3, 0)), ((0, 0), (0, 0)))),
        (("0/5", "0/7"), (1, ((0, 0), (0, 0)), ((0, 0), (0, 0)))),
        ((f"{3 * 2**70}/{2**71}", "-1"), (2, ((3, -2), (-2, 0)), ((0, 0), (0, 0)))),
    ])
    def test_written_examples(self, texts, grid):
        (a, b), z = texts, {"re": "0", "im": "0"}
        doc = {"q": 2, "entries": [[{"re": a, "im": "0"}, {"re": b, "im": "0"}], [{"re": b, "im": "0"}, z]]}
        assert HermitianMatrix.from_json(doc).grid == grid

    def test_the_shortcut_still_checks_symmetry(self):
        doc = {"q": 2, "entries": [[{"re": "0", "im": "0"}, {"re": "2/4", "im": "0"}],
                                   [{"re": "1/4", "im": "0"}, {"re": "0", "im": "0"}]]}
        with pytest.raises(NotHermitianError, match=r"\(0,1\)"):
            HermitianMatrix.from_json(doc)


class TestOnePassReader:
    """``from_json`` reads all components in one pass and must agree with
    reading them one entry at a time: the same grid, or the same
    exception type and message."""

    @settings(max_examples=400, deadline=None)
    @given(_matrix_docs())
    def test_agrees_with_the_entrywise_reader(self, doc):
        assert _outcome(HermitianMatrix.from_json, doc) == _outcome(_read_by_entry, doc)

    @pytest.mark.parametrize("texts", [
        ["\x1c-007/014\x1f", "\u3000-0\u2003"],
        [" 10/4", "0/9"],
        [_LONG[:4300], "0"],
        [_LONG, "0"],
        ["1,2", "0"],
        ["3/0", "0"],
        ["1", 0],
        ["1", "0\n,"],
        ["1", "\u0663"],
    ])
    def test_one_entry(self, texts):
        doc = {"q": 1, "entries": [[dict(zip(("re", "im"), texts))]]}
        assert _outcome(HermitianMatrix.from_json, doc) == _outcome(_read_by_entry, doc)

    @pytest.mark.parametrize("entry", _BAD_ENTRIES)
    def test_first_bad_entry_in_row_order_is_named(self, entry):
        ok = {"re": "1", "im": "0"}
        doc = {"q": 2, "entries": [[ok, {"re": "2", "im": "1/0"}], [entry, ok]]}
        assert _outcome(HermitianMatrix.from_json, doc) == (ValueError, "not a rational: '1/0'")
        doc["entries"][0][1] = ok
        assert _outcome(HermitianMatrix.from_json, doc) == _outcome(_read_by_entry, doc)
        assert _outcome(HermitianMatrix.from_json, doc)[0] is ValueError

    def test_empty_grid_reaches_the_grid_check(self):
        assert _outcome(HermitianMatrix.from_json, {"q": 0, "entries": []}) == (
            NotHermitianError, "entries must form a nonempty square grid"
        )

    def test_a_dict_subclass_entry_reads_as_a_dict(self):
        entry = collections.OrderedDict([("im", " 0"), ("re", "3/6")])
        X = HermitianMatrix.from_json({"q": 1, "entries": [[entry]]})
        assert X.grid == (2, ((1,),), ((0,),))


def _reference_ratio(text):
    """The grammar read by hand: -?[0-9]+(/[0-9]+)? between whitespace
    that str.strip() takes, ASCII digits, as many as int() converts, and
    a nonzero denominator; (p, q), or None when it refuses the text."""
    if not isinstance(text, str):
        return None
    num, _, den = text.strip().partition("/")
    if not re.fullmatch(r"-?[0-9]+", num) or not re.fullmatch(r"(?:[0-9]+)?", den):
        return None
    if "/" in text and not den:
        return None
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        return None
    return (num, den) if den else None


_GRAMMAR_ALPHABET = "0123456789/-,+._e \t\n\x1c\x1d\x1e\x1f\xa0\u3000"


class TestOneRationalGrammar:
    """``parse_ratio`` is the one-text case of the one-pass reader: on good
    texts, bad texts and random texts over the grammar's alphabet and its
    near misses, both read what the grammar reads by hand, and refuse the
    rest."""

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(_texts(), st.sampled_from(_BAD_TEXTS), st.text(_GRAMMAR_ALPHABET, max_size=8)))
    def test_parse_ratio_reads_the_grammar(self, text):
        want = _reference_ratio(text)
        assert _parse_ratios([text]) == (None if want is None else ([want[0]], [want[1]]))
        if want is not None:
            assert parse_ratio(text) == want
        elif isinstance(text, str):
            with pytest.raises(ValueError, match=re.escape(f"not a rational: {text!r}") + "$"):
                parse_ratio(text)
        else:
            with pytest.raises(ValueError, match=r"\(expected a string 'p/q'\)$"):
                parse_ratio(text)


class TestOneExactRule:
    """Every API constructor of an exact scalar or entry reads its parts
    with ``exact_rational``: an int or a Fraction, never a float, a string,
    a Decimal or a complex.  The exact inputs give the grids that the
    constructors gave before the rule was shared."""

    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = [[3, (half, -third)], [GaussianRational(half, third), Fraction(5, 4)]]
    X = HermitianMatrix(rows)
    L = SubspaceBasis(2, [X, HermitianMatrix([[0, (1, half)], [(1, -half), 0]])])
    BUILDERS = {  # each takes one exact scalar
        "exact_rational": exact_rational,
        "scaled_gaussian_grid": lambda v: scaled_gaussian_grid([[v]]),
        "HermitianMatrix": lambda v: HermitianMatrix([[v, 0], [0, 1]]),
        "HermitianMatrix pair": lambda v: HermitianMatrix([[(v, 0), 0], [0, 1]]),
        "congruence_transform": lambda v: congruence_transform(
            TestOneExactRule.X, [[1, 0], [(0, v), 1]]
        ),
        "diagonal": lambda v: HermitianMatrix.diagonal([1, v]),
        "scalar": lambda v: HermitianMatrix.scalar(2, v),
        "scale": lambda v: TestOneExactRule.X.scale(v),
        "shift": lambda v: TestOneExactRule.X.shift(v),
        "GaussianRational re": lambda v: GaussianRational(v),
        "GaussianRational im": lambda v: GaussianRational(0, v),
        "RationalPolynomial": lambda v: RationalPolynomial([1, v]),
        "element": lambda v: TestOneExactRule.L.element([v, 1]),
    }

    @pytest.mark.parametrize("value", [0.5, 2.0, "1/2", Decimal("0.5"), 0.5 + 0j, 1j])
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_inexact_values_raise_type_error(self, name, value):
        with pytest.raises(TypeError):
            self.BUILDERS[name](value)

    @pytest.mark.parametrize("entry", [0.5, (1, 0.5), [1, 0], (1, 2, 3), None])
    def test_bad_entries_keep_the_entry_message(self, entry):
        for build in (HermitianMatrix, lambda rows: congruence_transform(self.X, rows)):
            with pytest.raises(TypeError, match="as a matrix entry"):
                build([[entry, 0], [0, 1]])

    def test_exact_inputs_give_the_same_grids(self):
        half, third = self.half, self.third
        assert exact_rational(half) is half and exact_rational(-3) == Fraction(-3)
        assert scaled_gaussian_grid(self.rows) == (12, [[36, 6], [6, 15]], [[0, -4], [4, 0]])
        assert self.X.grid == (12, ((36, 6), (6, 15)), ((0, -4), (4, 0)))
        assert self.X.entries == (
            (GaussianRational(3), GaussianRational(half, -third)),
            (GaussianRational(half, third), GaussianRational(Fraction(5, 4))),
        )
        P = [[1, (0, 1)], [GaussianRational(half), (Fraction(-2, 3), 2)]]
        assert congruence_transform(self.X, P).grid == (
            144, ((549, -36), (-36, 1584)), ((0, 824), (-824, 0))
        )
        diag = HermitianMatrix.diagonal([1, Fraction(-2, 3), 0]).grid
        assert diag == (3, ((3, 0, 0), (0, -2, 0), (0, 0, 0)), ((0, 0, 0),) * 3)
        assert HermitianMatrix.scalar(2, Fraction(3, 4)).grid == (4, ((3, 0), (0, 3)), ((0, 0),) * 2)
        assert self.X.scale(Fraction(-2, 3)).grid == (18, ((-36, -6), (-6, -15)), ((0, 4), (-4, 0)))
        assert self.X.shift(half).grid == (12, ((30, 6), (6, 9)), ((0, -4), (4, 0)))
        assert self.L.element([2, Fraction(-1, 6)]).grid == (
            12, ((72, 10), (10, 30)), ((0, -9), (9, 0))
        )
        z = GaussianRational(1, half)
        assert (z.re, z.im) == (Fraction(1), half) and type(z.re) is Fraction
        assert RationalPolynomial([1, half, 0]).coeffs == (Fraction(1), half)
