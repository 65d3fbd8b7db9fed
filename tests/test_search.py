import contextlib
import importlib.util
import io
import json
import math
import re
import warnings
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_matrices, gamma_matrices
from minertia import criteria, kernels, search
from minertia.cli import main
from minertia.criteria import check_witness
from minertia.exactnum import GaussianRational, scaled_gaussian_grid
from minertia.hermitian_core import HermitianMatrix, Inertia, inertia
from minertia.search import (
    GrowReport,
    SearchConfig,
    SearchReport,
    SubspaceBasis,
    Witness,
    falsify_min_inertia,
    grow_subspace,
    random_subspace,
    run_search,
)


def unit_matrix(q, i, j, re=1, im=0):
    entries = [[0] * q for _ in range(q)]
    entries[i][j] = (Fraction(re), Fraction(im))
    if i != j:
        entries[j][i] = (Fraction(re), Fraction(-im))
    return HermitianMatrix(entries)


FAST = SearchConfig(seed=11, samples=60)


def integers(L):
    """A basis' denominators and its Re and Im numerator grids as nested
    lists, equal across dtypes."""
    re, im = search._grids(L._coords)
    return L._den.tolist(), re.tolist(), im.tolist()


def expected_image(L):
    """L's float image from its matrices, coordinate by coordinate: each
    Re and Im in the order of ``search._layout`` times 2^-e of its matrix,
    correctly rounded, then times sqrt 2 off the diagonal."""
    columns = []
    for X, e in zip(L.basis, L._exps):
        column = []
        for i in range(L.q):
            z = X.entries[i][i]
            column.append(float(z.re * Fraction(2) ** -e))
            for z in X.entries[i][i + 1 :]:
                column += [float(part * Fraction(2) ** -e) * math.sqrt(2) for part in (z.re, z.im)]
        columns.append(column)
    return np.array(columns, dtype=np.float64).reshape(L.dim, L.q * L.q).T


class TestSubspaceBasis:
    def test_dimension_and_element(self):
        b1 = unit_matrix(3, 0, 0)
        b2 = unit_matrix(3, 0, 1)
        L = SubspaceBasis(3, [b1, b2])
        assert L.dim == 2
        el = L.element([Fraction(2), Fraction(-1, 2)])
        assert el.entries[0][0].re == 2
        assert el.entries[0][1].re == Fraction(-1, 2)
        assert el.entries[1][0].re == Fraction(-1, 2)

    @pytest.mark.parametrize("q", [0, -3])
    def test_q_below_1_is_refused_with_its_own_message(self, q):
        builders = [
            lambda: SubspaceBasis(q, []),
            lambda: SubspaceBasis.from_json({"q": q, "basis": []}),
            lambda: grow_subspace(q, 0, FAST),
        ]
        if q:  # at q = 0 no dim lies in [1, q^2], and random_subspace says so first
            builders.append(lambda: random_subspace(q, 1, 1))
        for build in builders:
            with pytest.raises(ValueError, match=f"^q must be >= 1, got {q}$"):
                build()

    def test_rejects_dependent(self):
        b1 = unit_matrix(3, 0, 0)
        with pytest.raises(ValueError):
            SubspaceBasis(3, [b1, b1.scale(2)])

    def test_rejects_mixed_sizes(self):
        with pytest.raises(ValueError):
            SubspaceBasis(3, [unit_matrix(3, 0, 0), unit_matrix(2, 0, 0)])

    def test_json_round_trip(self):
        L = random_subspace(3, 4, seed=5)
        back = SubspaceBasis.from_json(L.to_json())
        assert back.basis == L.basis
        assert back.to_json() == L.to_json()

    # each bad q sits on a basis of the size int(q) gives, so int() would accept it
    @pytest.mark.parametrize("bad_q,size", [(2.9, 2), ("2", 2), (True, 1)])
    @pytest.mark.parametrize("report", [False, True], ids=["basis", "grow_report"])
    def test_from_json_rejects_non_integer_q(self, bad_q, size, report):
        L = random_subspace(size, 1, seed=1)
        doc = L.to_json()
        if report:
            doc = GrowReport(size, 1, 1, 1, L, ()).to_json()
        with pytest.raises(ValueError, match="'q' must be an integer"):
            (GrowReport if report else SubspaceBasis).from_json({**doc, "q": bad_q})

    @pytest.mark.parametrize("q,dim,seed", [(2, 4, 1), (4, 7, 2), (5, 9, 3)])
    def test_grid_built_basis_matches_its_matrices(self, q, dim, seed):
        L = random_subspace(q, dim, seed)
        M = SubspaceBasis(q, L.basis)  # the checked constructor, from matrices
        assert M.basis == L.basis and M._coords.dtype == L._coords.dtype == np.int64
        # the drawn arrays are over 2520, M's in lowest terms: the same matrices
        assert L._den.tolist() == [2520] * dim
        assert (L._coords * M._den[:, None] == M._coords * L._den[:, None]).all()
        image = L.float_image()
        assert M.float_image().tobytes() == image.tobytes() == expected_image(L).tobytes()
        coeffs = [Fraction(k + 1, 7) for k in range(dim)]
        assert M.element(coeffs) == L.element(coeffs)

    @pytest.mark.parametrize("first", ["element", "basis"])
    def test_drawn_basis_builds_its_matrices_only_when_basis_is_read(self, monkeypatch, first):
        # the float image divides the drawn int64 arrays, with no grid and
        # no matrix, and element multiplies them; only reading basis
        # builds the HermitianMatrix tuple
        L = random_subspace(5, 9, 1)
        with monkeypatch.context() as patch:
            for owner, name in ((search, "_grids"), (HermitianMatrix, "from_scaled")):
                patch.setattr(owner, name, lambda *a, name=name: pytest.fail(f"float_image calls {name}"))
            L.float_image()
        assert L._basis is None
        if first == "element":
            L.element([Fraction(1)] * 9)
            assert L._basis is None
        assert len(L.basis) == 9 and L._basis is not None


def _reference_element(L, coeffs):
    """sum_i coeffs[i] * basis[i], entry by entry, summed in Fractions."""

    def entry(i, j):
        zs = [(c, b.entries[i][j]) for c, b in zip(coeffs, L.basis)]
        return GaussianRational(sum(c * z.re for c, z in zs), sum(c * z.im for c, z in zs))

    return HermitianMatrix([[entry(i, j) for j in range(L.q)] for i in range(L.q)])


def _coefficient_rows(dim, rng):
    """Coefficient rows of each kind ``element`` is given: dyadic over
    2^24 (as ``_certify`` rounds them), exact lifts of unit float rows (as
    escalation makes them), small rationals, and all zero."""
    floats = rng.standard_normal(dim)
    floats /= np.linalg.norm(floats)
    dyadic = rng.integers(-(1 << 24), (1 << 24) + 1, dim)
    nums, dens = rng.integers(-9, 10, dim), rng.integers(1, 10, dim)
    return [
        [Fraction(int(k), 1 << 24) for k in dyadic],
        [Fraction(float(x)) for x in floats],
        [Fraction(int(n), int(d)) for n, d in zip(nums, dens)],
        [Fraction(0)] * dim,
    ]


class TestElement:
    """``element`` is one exact product over the integer arrays; it must
    equal the sum of the basis matrices in Fractions (equal matrices have
    equal lowest-terms grids)."""

    @pytest.mark.parametrize("q,dim", [(q, q * q) for q in range(2, 10)] + [(17, 40)])
    def test_drawn_bases_match_the_fraction_sum(self, q, dim):
        L = random_subspace(q, dim, seed=q)
        for coeffs in _coefficient_rows(dim, np.random.default_rng(q)):
            assert L.element(coeffs) == _reference_element(L, coeffs)

    @pytest.mark.parametrize("q", [1, 3])
    def test_empty_basis(self, q):
        for L in (SubspaceBasis(q, []), grow_subspace(q, 0, FAST).basis):
            assert L.element([]).grid == (1, ((0,) * q,) * q, ((0,) * q,) * q)

    @pytest.mark.parametrize(
        "scales",
        [
            [Fraction(2) ** 1100, Fraction(2) ** -1100],
            [Fraction(2) ** -1100, Fraction(2) ** 600, 1],
            [Fraction(2**53 + 1), Fraction(1, 3 * (2**60 + 7))],
        ],
    )
    def test_object_bases_match_the_fraction_sum(self, scales):
        gens = gamma_matrices(4) + [HermitianMatrix.diagonal([1, 1, 1, -1])]
        L = SubspaceBasis(4, [g.scale(scales[k % len(scales)]) for k, g in enumerate(gens)])
        assert L._coords.dtype == object
        assert any(L._exps) == any(abs(s) > 2**500 or abs(s) < 2**-500 for s in scales)
        for coeffs in _coefficient_rows(L.dim, np.random.default_rng(7)):
            for row in (coeffs, L._unscale(coeffs)):
                assert L.element(row) == _reference_element(L, row)

    @pytest.mark.parametrize("total,dtype", [((1 << 23) - 1, np.int64), (1 << 23, object)])
    def test_int64_product_just_below_the_bound_only(self, monkeypatch, total, dtype):
        # sum|scale_i| * max|numerator| = total * 2^40, and so is entry (0, 0):
        # 2^63 - 2^40 fits int64, 2^63 would wrap
        top = 1 << 40
        L = SubspaceBasis(2, [HermitianMatrix.diagonal([top, 1]), HermitianMatrix.diagonal([top, -1])])
        assert L._coords.dtype == np.int64
        products, matmul = [], search.np.matmul
        monkeypatch.setattr(search.np, "matmul", lambda a, b: products.append(b.dtype) or matmul(a, b))
        for coeffs in ([Fraction(total - 5), Fraction(5)], [Fraction(-total + 1, 2), Fraction(1, 2)]):
            products.clear()
            element = L.element(coeffs)
            assert products == [dtype]
            assert element == _reference_element(L, coeffs)


def _scalar_random_hermitian(q, rng):
    """Reference draw: one scalar ``rng.integers`` call per integer and
    Fraction entries, in the order random Hermitian candidates are drawn."""

    def frac():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))

    entries = [[None] * q for _ in range(q)]
    for i in range(q):
        entries[i][i] = GaussianRational(frac())
        for j in range(i + 1, q):
            z = GaussianRational(frac(), frac())
            entries[i][j] = z
            entries[j][i] = z.conj()
    return HermitianMatrix(entries)


def _scalar_random_subspace(q, dim, seed):
    rng = search._stream(seed, search._PURPOSE_BASIS)
    basis = []
    while len(basis) < dim:
        cand = _scalar_random_hermitian(q, rng)
        try:
            SubspaceBasis(q, basis + [cand])
        except ValueError:
            continue
        basis.append(cand)
    return basis


class TestDrawStream:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_candidate_draw_matches_scalar_draws(self, q, seed):
        a = search._stream(seed, search._PURPOSE_BASIS)
        b = search._stream(seed, search._PURPOSE_BASIS)
        for _ in range(3):
            ref = _scalar_random_hermitian(q, b)
            den, coords = search._draw_block(q, a, 1)
            re, im = search._grids(coords)
            # over 2520 = lcm(1..9): the least common denominator, scaled up
            ref_den, ref_re, ref_im = scaled_gaussian_grid(ref.entries)
            up = 2520 // ref_den
            assert den.tolist() == [2520] and 2520 % ref_den == 0
            assert re[0].tolist() == [[v * up for v in row] for row in ref_re]
            assert im[0].tolist() == [[v * up for v in row] for row in ref_im]
            assert HermitianMatrix.from_scaled(2520, re[0].tolist(), im[0].tolist()) == ref
        assert a.integers(1 << 62) == b.integers(1 << 62)
        assert a.standard_normal() == b.standard_normal()

    @pytest.mark.parametrize("q,dim", [(2, 4), (3, 9), (4, 8), (5, 9), (6, 12)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_subspace_matches_scalar_draws(self, q, dim, seed):
        assert random_subspace(q, dim, seed).basis == tuple(_scalar_random_subspace(q, dim, seed))


class TestBlockDraw:
    """``random_subspace`` draws the candidates it still needs in one call;
    that must give what one-candidate draws give, rejections included."""

    @pytest.mark.parametrize("q", range(2, 10))
    def test_block_matches_one_candidate_draws(self, q):
        for seed in (1, 2, 7):
            a = search._stream(seed, search._PURPOSE_BASIS)
            b = search._stream(seed, search._PURPOSE_BASIS)
            block = search._draw_block(q, a, 6)
            ones = [search._draw_block(q, b, 1) for _ in range(6)]
            for part, one_parts in zip(block, zip(*ones)):
                assert part.tolist() == [x for one in one_parts for x in one.tolist()]
            assert a.integers(1 << 62) == b.integers(1 << 62)

    @pytest.mark.parametrize("q,dim", [(q, q * q - q // 2) for q in range(2, 10)] + [(17, 225)])
    def test_subspace_matches_one_candidate_draws(self, monkeypatch, q, dim):
        # every third candidate is rejected, so the blocks are redrawn: the
        # reference draws and tests one candidate at a time, random_subspace
        # a block at a time, both with the same rejections
        calls = []
        add_block = search.ModularEchelon.add_block

        def rejected():
            calls.append(None)
            return len(calls) % 3 == 1

        def every_third_rejected(self, block, accepted):
            rows = [r for r in range(len(block)) if not rejected()]
            return [rows[k] for k in add_block(self, block[rows], accepted)]

        monkeypatch.setattr(search.ModularEchelon, "add_block", every_third_rejected)
        rng = search._stream(5, search._PURPOSE_BASIS)
        ech, want = search.ModularEchelon(), ([], [])
        while len(want[0]) < dim:
            den, coords = search._draw_block(q, rng, 1)
            if ech.add_block(coords, want[1]):
                for part, row in zip(want, (den, coords)):
                    part += row.tolist()
        drawn = len(calls)
        calls.clear()
        L = random_subspace(q, dim, 5)
        assert (L._den.tolist(), L._coords.tolist()) == want
        assert len(calls) == drawn

    @pytest.mark.parametrize("q", range(1, 10))
    def test_coordinates_are_the_draws_values_in_draw_order(self, q):
        # one (n, d) pair per coordinate, each held as n * (2520 / d): per
        # row, the diagonal's Re, then Re and Im of each entry right of it
        a = search._stream(3, search._PURPOSE_BASIS)
        b = search._stream(3, search._PURPOSE_BASIS)
        _, coords = search._draw_block(q, a, 5)
        want = []
        for _ in range(5):
            pairs = [(int(b.integers(-9, 10)), int(b.integers(1, 10))) for _ in range(q * q)]
            want.append([n * (2520 // d) for n, d in pairs])
        assert coords.tolist() == want
        assert a.integers(1 << 62) == b.integers(1 << 62)

    @pytest.mark.parametrize("q", [1, 2, 3, 5, 9])
    def test_grids_and_the_gather_are_inverse(self, q):
        # a drawn int64 block: scattered to grids and gathered back, the
        # same coordinates
        gather = search._layout(q)[1]
        _, coords = search._draw_block(q, search._stream(q, search._PURPOSE_BASIS), 6)
        re, im = search._grids(coords)
        assert re.dtype == im.dtype == np.int64
        flat = np.concatenate((re, im), axis=1).reshape(6, 2 * q * q)
        assert flat[:, gather].tolist() == coords.tolist()
        # a basis beyond 2^63 (dtype=object): its matrices' grids, gathered
        # by the constructor and scattered back, are the same grids
        big = [X.scale(Fraction(3**50, 7)) for X in random_subspace(q, min(4, q * q), q).basis]
        L = SubspaceBasis(q, big)
        assert L._coords.dtype == object and max(map(abs, L._coords.ravel())) >= 2**63
        re, im = search._grids(L._coords)
        assert re.tolist() == [list(map(list, X.re)) for X in big]
        assert im.tolist() == [list(map(list, X.im)) for X in big]
        flat = np.concatenate((re, im), axis=1).reshape(len(big), 2 * q * q)
        assert flat[:, gather].tolist() == L._coords.tolist()


class TestSeeds:
    """A seed is taken mod 2^64, and each residue keys streams of its own."""

    @pytest.mark.parametrize(
        "a,b", [(2**63, 2**63 + 1), (2**64 - 2, 2**64 - 1), (2**63, 2**64 - 1), (0, 2**63)]
    )
    def test_distinct_seeds_draw_distinct_subspaces(self, a, b):
        assert integers(random_subspace(5, 9, a)) != integers(random_subspace(5, 9, b))

    def test_negative_seed_is_taken_mod_2_64_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = random_subspace(5, 9, -1)
            rep = run_search(L, SearchConfig(seed=-1))
        assert integers(L) == integers(random_subspace(5, 9, 2**64 - 1))
        assert integers(L) != integers(random_subspace(5, 9, 0))
        top = 2**64 - 1
        assert {**rep.to_json(), "seed": top} == run_search(L, SearchConfig(seed=top)).to_json()


class TestRandomSubspace:
    def test_requested_dimension(self):
        L = random_subspace(5, 8, seed=1)
        assert L.q == 5 and L.dim == 8

    def test_full_space(self):
        L = random_subspace(3, 9, seed=2)
        assert L.dim == 9

    def test_dim_out_of_range(self):
        with pytest.raises(ValueError):
            random_subspace(5, 26, seed=3)
        with pytest.raises(ValueError):
            random_subspace(5, 0, seed=3)

    def test_seed_determinism(self):
        a = random_subspace(4, 6, seed=99)
        b = random_subspace(4, 6, seed=99)
        assert a.basis == b.basis
        c = random_subspace(4, 6, seed=100)
        assert a.basis != c.basis


class TestFalsifier:
    def test_rank_one_psd_span_gives_witness(self):
        L = SubspaceBasis(5, [unit_matrix(5, 0, 0)])
        w = falsify_min_inertia(L, FAST)
        assert w is not None
        assert w.inertia.m == 0
        assert w.inertia.rank == 1
        assert inertia(w.element) == w.inertia

    def test_balanced_diagonal_span_is_inconclusive(self):
        L = SubspaceBasis(5, [HermitianMatrix.diagonal([1, 1, -1, -1, 0])])
        rep = run_search(L, FAST)
        assert rep.witness is None
        assert rep.histogram == {2: FAST.samples}

    def test_nine_dimensional_subspace_has_witness(self):
        L = random_subspace(5, 9, seed=424242)
        cfg = SearchConfig(seed=424242)
        w = falsify_min_inertia(L, cfg)
        assert w is not None
        assert w.inertia.m <= 1

    def test_search_power_floor(self):
        # (q, dim) below the dimension limits 3, 8 and 15, where a witness is
        # not guaranteed: the default budget certifies at least this many of
        # the 140 searches, so a cheaper budget has to show what it loses
        panel = [(4, 2), (5, 3), (5, 4), (5, 5), (5, 6), (6, 6), (6, 10)]
        certified = sum(
            run_search(random_subspace(q, dim, seed), SearchConfig(seed=seed)).witness is not None
            for q, dim in panel
            for seed in range(1, 21)
        )
        assert certified >= 84

    def test_witness_is_exactly_certified(self):
        L = random_subspace(5, 9, seed=7)
        w = run_search(L, SearchConfig(seed=7)).witness
        assert w is not None
        check_witness(L, w)

    def test_report_determinism(self):
        L = random_subspace(5, 9, seed=13)
        cfg = SearchConfig(seed=13)
        r1 = run_search(L, cfg)
        r2 = run_search(L, cfg)
        assert r1.to_json() == r2.to_json()

    def test_worker_count_does_not_change_results(self):
        L = random_subspace(5, 9, seed=17)
        r1 = run_search(L, SearchConfig(seed=17, samples=200, workers=1))
        r3 = run_search(L, SearchConfig(seed=17, samples=200, workers=3))
        d1, d3 = r1.to_json(), r3.to_json()
        d1.pop("workers"), d3.pop("workers")
        assert d1 == d3

    @pytest.mark.parametrize("q, dim", [(4, 6), (5, 9)])
    def test_threaded_sampling_matches_one_thread(self, monkeypatch, q, dim):
        # more samples than one chunk, so workers > 1 sample in a thread pool
        import concurrent.futures

        pools = []

        class CountedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
        L = random_subspace(q, dim, seed=23)
        docs = []
        for workers in (1, 2, 3):
            cfg = SearchConfig(seed=23, samples=2 * search._CHUNK + 1, workers=workers)
            doc = run_search(L, cfg).to_json()
            assert doc.pop("workers") == workers
            docs.append(doc)
        assert docs[1] == docs[0] and docs[2] == docs[0]
        assert pools == [2, 3]

    def test_report_json_round_trip(self):
        L = random_subspace(5, 9, seed=19)
        rep = run_search(L, SearchConfig(seed=19))
        doc = json.loads(json.dumps(rep.to_json()))
        assert SearchReport.from_json(doc).to_json() == rep.to_json()


class TestCheckWitness:
    """``criteria.check_witness`` re-derives a witness from its subspace and
    refuses each way one can be wrong with its own message."""

    @pytest.fixture(scope="class")
    def seed_1(self):
        # search --q 5 --dim 9 --seed 1
        L = random_subspace(5, 9, 1)
        return L, run_search(L, SearchConfig(seed=1)).witness

    def test_a_search_witness_passes_without_the_product_that_made_it(self, seed_1, monkeypatch):
        def product(*args):
            raise AssertionError("SubspaceBasis.element ran")

        L, w = seed_1
        monkeypatch.setattr(SubspaceBasis, "element", product)
        check_witness(L, w)

    def test_a_swapped_element(self, seed_1):
        # a document whose element and inertia are swapped for another
        # matrix's reads back: reading checks the element's inertia only
        L, w = seed_1
        swapped = HermitianMatrix.diagonal([1, -1, -1, -1, -1])
        doc = {**w.to_json(), "element": swapped.to_json(), "inertia": inertia(swapped).to_json()}
        with pytest.raises(AssertionError, match=r"^the element is not sum_i c_i B_i"):
            check_witness(L, Witness.from_json(doc))

    def test_a_changed_coefficient(self, seed_1):
        L, w = seed_1
        coeffs = (w.coefficients[0] + Fraction(1, 2**24),) + w.coefficients[1:]
        with pytest.raises(AssertionError, match=r"^the element is not sum_i c_i B_i"):
            check_witness(L, Witness(coeffs, w.element, w.inertia))

    def test_a_missing_coefficient(self, seed_1):
        L, w = seed_1
        with pytest.raises(AssertionError, match="^8 coefficients for a basis of 9 matrices"):
            check_witness(L, Witness(w.coefficients[1:], w.element, w.inertia))

    def test_a_stated_inertia_that_elimination_does_not_give(self, seed_1):
        L, w = seed_1
        wrong = Inertia(0, 0, 5)
        assert inertia(w.element) != wrong
        msg = r"^elimination gives .*, not the stated Inertia\(n_plus=0, n_minus=0, n_zero=5\)$"
        with pytest.raises(AssertionError, match=msg):
            check_witness(L, Witness(w.coefficients, w.element, wrong))

    def test_an_oracle_that_disagrees_with_elimination(self, seed_1, monkeypatch):
        # elimination made to agree with a wrong inertia: the oracle refuses it
        L, w = seed_1
        wrong = Inertia(0, 0, 5)
        monkeypatch.setattr(criteria, "inertia", lambda X: wrong)
        msg = "^the sign-variation oracle gives .*, not the stated"
        with pytest.raises(AssertionError, match=msg):
            check_witness(L, Witness(w.coefficients, w.element, wrong))

    def test_a_zero_element(self, seed_1):
        L, _ = seed_1
        zero = Witness((Fraction(0),) * 9, HermitianMatrix.zero(5), Inertia(0, 0, 5))
        with pytest.raises(AssertionError, match="^the element is zero"):
            check_witness(L, zero)

    def test_minimal_inertia_above_1(self):
        X = HermitianMatrix.diagonal([1, 1, -1, -1, 0])
        L = SubspaceBasis(5, [X])
        with pytest.raises(AssertionError, match=r"^the inertia .* has m = 2 > 1"):
            check_witness(L, Witness((Fraction(1),), X, inertia(X)))


def _cli_search(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["search", *argv]) == 0
    return json.loads(out.getvalue())


def _sampled(L, cfg, salt=0):
    """What ``run_search`` samples: the orthonormal span Q of L's float
    image, the seeded unit coordinate rows z on it, and the lift of a row
    to its basis coefficients."""
    span, r, keep = kernels.orthonormal_span(L.float_image())
    span = as_matrices(span)
    rng = search._stream(cfg.seed, search._PURPOSE_FALSIFY, salt)
    z = rng.standard_normal((cfg.samples, len(keep)))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return span, z, lambda zi: kernels.span_coefficients(r, keep, zi, L.dim)


def _searched_span(monkeypatch, L, cfg):
    """``run_search(L, cfg)`` and the Q, turned into matrices, that its
    first ``batch_stats`` call read."""
    real, spans = kernels.batch_stats, []
    monkeypatch.setattr(kernels, "batch_stats", lambda span, *a: spans.append(span) or real(span, *a))
    return run_search(L, cfg), spans[0]


class TestProjectionPhase:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_phase_stops_at_the_first_certified_start(self, monkeypatch, workers):
        real = kernels.alternating_projection
        runs = []

        def counted(*args):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(kernels, "alternating_projection", counted)
        # seed 2 certifies a sample; seeds 1 and 3 run the phase
        doc = _cli_search("--q", "5", "--dim", "9", "--seed", "3", "--workers", str(workers))
        L, cfg = random_subspace(5, 9, 3), SearchConfig(seed=3, workers=workers)
        span, z, lift = _sampled(L, cfg)

        def certify(result):
            zh, _, _, hit = result
            return search._certify(L, lift(zh)) if hit else None

        # every start before the last fails to certify; the last gives the witness
        assert 0 < len(runs) < search.PROJECTION_STARTS
        assert [certify(run) for run in runs[:-1]] == [None] * (len(runs) - 1)
        assert certify(runs[-1]).to_json() == doc["witness"]
        assert doc["samples_used"] == cfg.samples + sum(run[2] for run in runs)

        # the eager schedule (all starts, then the first that certifies in
        # rank order) picks the same witness
        f = kernels.batch_stats(span, z, search.FLOAT_TOLERANCE)[3]
        order = np.argsort(-f, kind="stable")[: search.PROJECTION_STARTS]
        eager = [real(span, z[i], search.CERTIFY_MARGIN) for i in order]
        first = next(w for w in map(certify, eager) if w is not None)
        assert first.to_json() == doc["witness"]

    @pytest.mark.parametrize("seed,phase", [(2, False), (3, True)])
    def test_one_orthonormal_span_per_search_also_when_a_sample_certifies(
        self, monkeypatch, seed, phase
    ):
        real, spans = kernels.orthonormal_span, []
        monkeypatch.setattr(kernels, "orthonormal_span", lambda b: spans.append(real(b)) or spans[-1])
        L, cfg = random_subspace(5, 9, seed), SearchConfig(seed=seed)
        rep = run_search(L, cfg)
        assert rep.witness is not None and (rep.samples_used > cfg.samples) == phase
        want = real(L.float_image())
        assert len(spans) == 1 and [a.tobytes() for a in spans[0]] == [a.tobytes() for a in want]

    @pytest.mark.parametrize(
        "L,cfg,chunks",
        [
            (random_subspace(5, 9, 3), SearchConfig(seed=3), 1),
            # witness-free, more samples than two chunks, sampled in a thread pool
            (SubspaceBasis(4, gamma_matrices(4)[:3]), SearchConfig(3, 2 * search._CHUNK + 1, 2), 3),
        ],
    )
    def test_sampling_and_projection_read_the_one_span(self, monkeypatch, L, cfg, chunks):
        # the float image is only the QR's input: its Q is turned into
        # matrices once, and every sample and every start reads those
        names = ("orthonormal_span", "batch_stats", "alternating_projection")
        reals = {name: getattr(kernels, name) for name in names}
        seen = {name: [] for name in reals}

        def spy(name):
            def call(*args):
                seen[name].append(args)
                return reals[name](*args)

            return call

        for name in reals:
            monkeypatch.setattr(kernels, name, spy(name))
        rep = run_search(L, cfg)
        [(image,)] = seen["orthonormal_span"]
        assert image.dtype == np.float64 and image.shape == (L.q * L.q, L.dim)
        span = as_matrices(reals["orthonormal_span"](image)[0])
        assert len(seen["batch_stats"]) == chunks and seen["alternating_projection"]
        assert rep.samples_used == cfg.samples + sum(
            reals["alternating_projection"](*a)[2] for a in seen["alternating_projection"]
        )
        args = seen["batch_stats"] + seen["alternating_projection"]
        first = args[0][0]
        assert all(a[0] is first for a in args) and np.array_equal(first, span)
        assert first.dtype == np.float64 and first.shape == (2 * L.q * L.q, L.dim)
        assert sum(len(a[1]) for a in seen["batch_stats"]) == cfg.samples
        assert all(a[1].shape[-1] == L.dim for a in args)

    @pytest.mark.parametrize("q,dim", [(4, 3), (4, 5), (8, 5)])
    def test_witness_free_subspace_runs_every_start_to_stagnation(self, q, dim):
        rep = run_search(SubspaceBasis(q, gamma_matrices(q)[:dim]), SearchConfig(seed=3))
        samples = SearchConfig(seed=0).samples
        assert rep.witness is None and rep.histogram == {q // 2: samples}
        assert rep.samples_used == samples + search.PROJECTION_STARTS * (kernels.STALL_ITERATIONS + 1)


class TestPhaseRobustness:
    """The projection phase never raises on a valid exact input."""

    @staticmethod
    def _check(L, cfg):
        rep = run_search(L, cfg)
        if rep.witness is not None:
            check_witness(L, rep.witness)
        return rep

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_identical_float_columns(self, monkeypatch, seed):
        # X and X + 2^-80 D are independent, but their float images are equal:
        # the twin's QR column is rounding noise, so it leaves the span, and
        # no start hits along it (a hit there pays an exact certification of
        # coefficients near 1e15, which is refused)
        x = HermitianMatrix.diagonal([1, 1, -1, -1])
        twin = x.add(HermitianMatrix.diagonal([1, -1, 1, -1]).scale(Fraction(1, 2**80)))
        L = SubspaceBasis(4, [x, twin] + gamma_matrices(4)[:3])
        image = L.float_image()
        assert np.array_equal(image[:, 0], image[:, 1])
        assert kernels.orthonormal_span(image)[2].tolist() == [0, 2, 3, 4]
        calls, certify = [], search._certify
        monkeypatch.setattr(search, "_certify", lambda *a: calls.append(a) or certify(*a))
        rep = self._check(L, SearchConfig(seed=seed, samples=4))
        assert rep.samples_used > 4  # the phase ran
        assert calls == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_an_exactly_zero_pivot(self, seed):
        # the float images of diag(1, 0, 0, 0) and diag(1, 2^-1100, 0, 0) are equal
        e = HermitianMatrix.diagonal([1, 0, 0, 0])
        twin = e.add(HermitianMatrix.diagonal([0, 1, 0, 0]).scale(Fraction(1, 2**1100)))
        L = SubspaceBasis(4, [e, twin] + gamma_matrices(4))
        self._check(L, SearchConfig(seed=seed, samples=1))

    @staticmethod
    def _near_pair_basis(e):
        # A, B = A + 2^-40 D and C, all scaled by 2^-e: at q = 3 every nonzero
        # element is singular with m <= 1, so every sample is escalated and
        # the search certifies one
        s = Fraction(2) ** -e
        a = HermitianMatrix.diagonal([1, -1, 0]).scale(s)
        b = a.add(HermitianMatrix.diagonal([1, 1, 0]).scale(s / 2**40))
        c = HermitianMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]).scale(s)
        return SubspaceBasis(3, [a, b, c])

    def test_a_pivot_past_the_noise_whose_lift_overflows(self):
        # unscaled, B's float image would differ from A's by 2^-1039, a QR
        # pivot (about 2^-1038) above the noise that every lift overflows
        # through; scaled into the float window, the pivot is normal
        cfg = SearchConfig(seed=1)
        L = self._near_pair_basis(999)
        rep = self._check(L, cfg)
        assert rep.escalations == cfg.samples and rep.witness is not None
        check_witness(L, rep.witness)

    # both edges of the float window, and 993..1000, where an unscaled B's
    # pivot would be subnormal
    @pytest.mark.parametrize("e", [-1030, -1000, -501, -500, 0, 500, 501, 600, 993, 996, 1000, 1030])
    def test_the_near_pair_certifies_at_every_scale(self, e):
        cfg = SearchConfig(seed=1)
        L = self._near_pair_basis(e)
        rep = self._check(L, cfg)
        assert rep.escalations == cfg.samples and rep.witness is not None
        check_witness(L, rep.witness)

    @pytest.mark.parametrize("q", [1, 2, 3])
    @pytest.mark.parametrize("samples", [1, 5])
    def test_small_q(self, q, samples):
        for dim in sorted({1, q * q}):
            L = random_subspace(q, dim, seed=q)
            assert self._check(L, SearchConfig(seed=q, samples=samples)).witness is not None
            # at q <= 3 every nonzero element has m <= 1: each column of Q hits
            span, _, keep = kernels.orthonormal_span(L.float_image())
            span = as_matrices(span)
            for z0 in np.eye(len(keep)):
                assert kernels.alternating_projection(span, z0, search.CERTIFY_MARGIN)[3]

    @pytest.mark.parametrize("q", [1, 3])
    def test_empty_basis(self, monkeypatch, q):
        # every sample is the zero element, escalated and left out of the
        # histogram; Q has no columns, and neither has Q as matrices
        L = SubspaceBasis(q, [])
        rep, span = _searched_span(monkeypatch, L, SearchConfig(seed=1, samples=3))
        assert rep.witness is None and rep.samples_used == 3
        assert rep.histogram == {} and rep.escalations == 3
        assert kernels.orthonormal_span(L.float_image())[0].shape == (q * q, 0)
        assert span.shape == (2 * q * q, 0)

    @pytest.mark.parametrize("q,dim", [(4, 6), (5, 9), (6, 6)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_sample(self, q, dim, seed):
        self._check(random_subspace(q, dim, seed), SearchConfig(seed=seed, samples=1))

    @pytest.mark.parametrize(
        "scales",
        [
            [Fraction(2) ** 1100, Fraction(2) ** -1100],
            [Fraction(2) ** -1100, Fraction(2) ** 600, 1],
            [Fraction(10) ** 400, Fraction(1, 10**400)],
            [Fraction(1, 10**400), Fraction(10) ** 400, Fraction(2) ** -600],
        ],
    )
    def test_extreme_entries(self, scales):
        # the gamma matrices and diag(1, 1, 1, -1), scaled far apart
        gens = gamma_matrices(4) + [HermitianMatrix.diagonal([1, 1, 1, -1])]
        L = SubspaceBasis(4, [g.scale(scales[k % len(scales)]) for k, g in enumerate(gens)])
        for seed in (1, 2, 3):
            self._check(L, SearchConfig(seed=seed, samples=1))
        span, r, keep = kernels.orthonormal_span(L.float_image())
        span = as_matrices(span)
        for z0 in np.eye(len(keep)):
            z = kernels.alternating_projection(span, z0, search.CERTIFY_MARGIN)[0]
            kernels.span_coefficients(r, keep, z, L.dim)


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedLayers:
    """perfbench's tracer wraps the falsifier's layers by name and reads
    their results; each must stay where it looks for it and keep its
    return shape, and a search makes one float image."""

    FALSIFIER_LAYERS = {
        "search.random_subspace",
        "search.SubspaceBasis.element",
        "search.SubspaceBasis.float_image",
        "kernels.coordinate_descent",
        "kernels.batch_stats",
        "search.run_search",
    }

    def test_falsify_requests_are_traced_layer_by_layer(self):
        tracing = _perfbench_tracing()
        assert self.FALSIFIER_LAYERS <= {f"{m}.{p}" for m, p, _ in tracing.LAYERS}
        originals = search.random_subspace, kernels.coordinate_descent
        tracer = tracing.Tracer()
        tracer.install()
        try:
            docs = [_cli_search("--q", "5", "--dim", "9", "--seed", str(s)) for s in range(1, 9)]
        finally:
            tracer.uninstall()
        c = tracer.counts
        for name in self.FALSIFIER_LAYERS:
            assert c[name + ".calls"] > 0, name
        for name in ("search.run_search", "search.random_subspace", "search.SubspaceBasis.float_image"):
            assert c[name + ".calls"] == len(docs), name
        evals = c["kernels.coordinate_descent.evals"]
        assert c["kernels.batch_stats.samples"] + evals == sum(d["samples_used"] for d in docs)
        assert c["search.run_search.witnesses"] == sum(d["witness"] is not None for d in docs)
        assert 0 < c["kernels.coordinate_descent.hits"] <= c["kernels.coordinate_descent.calls"]
        assert (search.random_subspace, kernels.coordinate_descent) == originals


class TestGrow:
    def test_target_zero_trivial(self):
        rep = grow_subspace(5, 0, FAST)
        assert rep.achieved_dim == 0
        assert rep.steps == ()
        assert not rep.certified

    def test_growth_at_q5(self):
        cfg = SearchConfig(seed=47, samples=80)
        rep = grow_subspace(5, 3, cfg)
        assert 0 <= rep.achieved_dim <= 3
        assert len(rep.steps) >= rep.achieved_dim
        assert not rep.certified
        # every accepted basis element must be exactly independent
        assert rep.basis.dim == rep.achieved_dim

    def test_warning_above_limit(self):
        # the report's field is the warning's one channel: no Python warning
        cfg = SearchConfig(seed=53, samples=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = grow_subspace(5, 9, cfg)
        assert rep.warning == (
            "target 9 exceeds the dimension limit 8 for q=5; every subspace of larger "
            "dimension contains an element with m <= 1, so a larger achieved dimension "
            "means the budget missed one"
        )
        assert GrowReport.from_json(rep.to_json()).warning == rep.warning
        assert grow_subspace(5, 8, cfg).warning is None

    def test_no_warning_for_other_q(self):
        cfg = SearchConfig(seed=59, samples=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = grow_subspace(6, 2, cfg)
        assert rep.warning is None

    def test_report_json(self):
        rep = grow_subspace(5, 2, FAST)
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc["q"] == 5
        assert doc["certified"] is False
        assert len(doc["basis"]) == doc["achieved_dim"]
        assert GrowReport.from_json(doc).to_json() == doc


class TestFloatRange:
    @pytest.mark.parametrize(
        "values",
        [
            [10**400, -1],
            [Fraction(1, 10**400), -1],
            [Fraction(1, 10**400), -Fraction(1, 10**400)],
            [-(10**400), Fraction(1, 10**400)],
        ],
    )
    def test_out_of_range_entries_are_searched_and_certified(self, values):
        L = SubspaceBasis(2, [HermitianMatrix.diagonal(values)])
        image = L.float_image()
        assert np.isfinite(image).all() and np.abs(image).max() > 0
        w = run_search(L, SearchConfig(seed=1, samples=10)).witness
        assert w is not None
        check_witness(L, w)

    @pytest.mark.parametrize("k,scaled", [(500, False), (501, True), (-500, False), (-501, True)])
    def test_only_out_of_range_images_are_scaled(self, k, scaled):
        L = SubspaceBasis(2, [HermitianMatrix.diagonal([Fraction(2) ** k, -Fraction(2) ** k / 3])])
        assert (L._exps != (0,)) == scaled
        if scaled:
            assert 0.5 <= np.abs(L.float_image()).max() < 2

    def test_drawn_grids_carry_their_exponents(self):
        drawn = [random_subspace(q, q * q, seed=3) for q in (2, 5, 9)]
        drawn.append(grow_subspace(5, 2, FAST).basis)
        for L in drawn:
            assert L.dim and L._exps == tuple(search._float_range(b.grid)[0] for b in L.basis)

    @pytest.mark.parametrize("num", [2**53 - 1, 2**53, 2**53 + 1, 3 * (2**53 + 1)])
    @pytest.mark.parametrize("den", [1, 3, 2**53 - 1, 2**53 + 1])
    def test_float_image_is_each_rounded_quotient_at_the_2_53_bound(self, num, den):
        X = HermitianMatrix.from_scaled(den, [[num, 1], [1, -num]], [[0, num - 2], [2 - num, 0]])
        L = SubspaceBasis(2, [X, HermitianMatrix.diagonal([Fraction(1, 3), 1])])
        assert [part[0] for part in integers(L)] == [
            den, [[num, 1], [1, -num]], [[0, num - 2], [2 - num, 0]]
        ]
        # int64 arrays, divided in float64, only while every integer converts exactly
        f64 = num < 2**53 and den < 2**53
        assert L._coords.dtype == (np.int64 if f64 else object) and L._exps == (0, 0)
        image = L.float_image()
        assert image.tobytes() == expected_image(L).tobytes()
        # the coordinates Re 00, Re 01, Im 01 and Re 11 of X, rounded once, then weighted
        r2 = math.sqrt(2)
        want = [num / den, 1 / den * r2, (num - 2) / den * r2, -num / den]
        assert image[:, 0].tolist() == want

    def test_float64_division_past_the_bound_would_round_twice(self):
        # (2^53 + 1) / 3 is an integer, but 2^53 + 1 is no float64: why
        # larger grids keep the Python int division
        num, den = 2**53 + 1, 3
        assert np.float64(num) / np.float64(den) != num / den
        X = HermitianMatrix.from_scaled(den, [[num, 1], [1, 0]], [[0, 0], [0, 0]])
        L = SubspaceBasis(2, [X])
        assert L._coords.dtype == object and L.float_image()[0, 0] == num // den

    def test_drawn_grids_take_the_float64_division(self):
        drawn = [random_subspace(q, q * q, seed=3) for q in (1, 2, 5, 9)]
        drawn += [random_subspace(17, 225, seed=3), grow_subspace(5, 2, FAST).basis]
        for L in drawn:
            assert L._coords.dtype == L._den.dtype == np.int64
            assert all(search._float_range(b.grid)[1] for b in L.basis)
            assert L.float_image().tobytes() == expected_image(L).tobytes()

    @pytest.mark.parametrize("scaled", [False, True])
    def test_float_image_divides_the_integer_coordinates(self, scaled):
        # each coordinate is its integer times 2^-e over the denominator,
        # one correctly rounded quotient, then weighted by sqrt 2 off the
        # diagonal; with no grid in between
        L = random_subspace(5, 9, 2)
        if scaled:
            L = SubspaceBasis(5, [X.scale(Fraction(2) ** (1100 * (-1) ** k)) for k, X in enumerate(L.basis)])
            assert all(L._exps) and L._coords.dtype == object
        weight = [math.sqrt(2) if k not in (0, 9, 16, 21, 24) else 1.0 for k in range(25)]
        want = []
        for den, row, e in zip(L._den.tolist(), L._coords.tolist(), L._exps):
            d, up = den << max(e, 0), 1 << max(-e, 0)
            want.append([n * up / d * w for n, w in zip(row, weight)])
        image = L.float_image()
        assert image.dtype == np.float64 and image.shape == (25, 9)
        assert image.tobytes() == np.array(want).T.tobytes() == expected_image(L).tobytes()

    def test_empty_basis_image(self):
        for L in (SubspaceBasis(3, []), grow_subspace(3, 0, FAST).basis):
            assert L.float_image().shape == (9, 0)

    @pytest.mark.parametrize("q", [1, 2, 5, 9])
    def test_image_gram_is_the_frobenius_gram(self, q):
        # <A, B> = tr(A B) for Hermitian A and B, summed in Fractions
        L = random_subspace(q, min(q * q, 12), seed=q)
        got = L.float_image().T @ L.float_image()

        def frobenius(a, b):
            pairs = zip(chain(*a.entries), chain(*b.entries))
            return sum(x.re * y.re + x.im * y.im for x, y in pairs)

        want = [[frobenius(a, b) for b in L.basis] for a in L.basis]
        for i, j in np.ndindex(L.dim, L.dim):
            scale = math.sqrt(want[i][i] * want[j][j])
            assert abs(Fraction(got[i, j]) - want[i][j]) <= Fraction(1e-14) * Fraction(scale)

    @pytest.mark.parametrize("q,dim", [(1, 1), (2, 4), (5, 9), (9, 49), (4, 6)])
    def test_expanded_q_is_orthonormal_and_hermitian(self, monkeypatch, q, dim):
        # the Q that run_search turns into matrices: entry by entry the
        # matrices of the QR's columns, orthonormal in the Frobenius norm
        L = random_subspace(q, dim, seed=2)
        matrices = _searched_span(monkeypatch, L, SearchConfig(seed=2, samples=1))[1]
        assert matrices.shape == (2 * q * q, dim)
        assert np.array_equal(matrices, as_matrices(kernels.orthonormal_span(L.float_image())[0]))
        assert np.allclose(matrices.T @ matrices, np.eye(dim), rtol=0, atol=1e-13)
        for x in matrices.T.copy():
            x = x.view(np.complex128).reshape(q, q)
            assert np.array_equal(x, x.conj().T)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.sampled_from([-1100, -600, 0, 600, 1100]), min_size=2, max_size=2),
        st.integers(0, 2**32),
    )
    def test_run_search_never_raises_on_extreme_entries(self, exps, seed):
        a = HermitianMatrix([[1, (1, 1), 0], [(1, -1), -2, 0], [0, 0, 3]])
        b = HermitianMatrix([[0, 0, 2], [0, 1, (0, 1)], [2, (0, -1), -1]])
        L = SubspaceBasis(3, [x.scale(Fraction(2) ** e) for x, e in zip((a, b), exps)])
        assert np.isfinite(L.float_image()).all()
        rep = run_search(L, SearchConfig(seed=seed, samples=20))
        if rep.witness is not None:
            check_witness(L, rep.witness)


def _dyadic_coefficients(L, w):
    """A witness's coefficients before ``_unscale``: on L's float image."""
    return [c * Fraction(2) ** e for c, e in zip(w.coefficients, L._exps)]


class TestCertification:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_witness_coefficients_share_one_dyadic_denominator(self, seed):
        w = run_search(random_subspace(5, 9, seed), SearchConfig(seed=seed)).witness
        coeffs = _dyadic_coefficients(random_subspace(5, 9, seed), w)
        assert all((1 << search._DYADIC_BITS) % c.denominator == 0 for c in coeffs)
        assert max(map(abs, coeffs)) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_q9_witness_denominator_stays_small(self, seed):
        L = random_subspace(9, 49, seed)
        w = run_search(L, SearchConfig(seed=seed)).witness
        assert w is not None and w.inertia.m <= 1
        assert w.element.den.bit_length() <= 64
        assert max(map(abs, _dyadic_coefficients(L, w))) == 1

    @pytest.mark.parametrize(
        "row", [[0.0, 0.0], [float("nan"), 1.0], [float("inf"), 1.0], [1.0, -float("inf")]]
    )
    def test_zero_or_non_finite_row_gives_none(self, row):
        L = SubspaceBasis(5, [unit_matrix(5, 0, 0), unit_matrix(5, 1, 1)])
        assert search._certify(L, np.array(row)) is None

    def test_scaled_basis_coefficients_are_unscaled(self):
        # the image of 2^1100 * diag(1, 0) is scaled by 2^-1100, so the
        # coefficient found on it is carried back with the same factor
        L = SubspaceBasis(2, [HermitianMatrix.diagonal([Fraction(2) ** 1100, 0])])
        w = search._certify(L, np.array([-0.5]))
        assert w.coefficients == (-Fraction(2) ** -1100,)
        assert w.element == HermitianMatrix.diagonal([-1, 0])

    @pytest.mark.parametrize(
        "q,dim,seed,tol", [(6, 4, 1, 0.3), (4, 5, 3, 0.3), (5, 9, 1, 1e308), (5, 9, 2, 1e-9)]
    )
    def test_direct_hits_are_the_samples_with_m_at_most_1(self, monkeypatch, q, dim, seed, tol):
        # an escalated sample counts by its exact m, so one whose exact m is
        # >= 2 (or whose lift is zero) is never certified; at (6, 4, 1, 0.3)
        # all 200 samples are escalated and none has an exact m <= 1, but
        # the float counts of 25 give m <= 1: a _certify call each, once
        monkeypatch.setattr(search, "FLOAT_TOLERANCE", tol)
        L, cfg = random_subspace(q, dim, seed), SearchConfig(seed=seed, samples=200)
        span, z, lift = _sampled(L, cfg)
        npl, nmi, nun, _ = kernels.batch_stats(span, z, tol)
        expected = []
        for i in range(cfg.samples):
            m = search._exact_m_of_float_coeffs(L, lift(z[i])) if nun[i] else min(npl[i], nmi[i])
            if m is not None and m <= 1:
                expected.append(i)
                if search._certify(L, lift(z[i])) is not None:
                    break

        calls = []
        real_certify, real_projection = search._certify, kernels.alternating_projection
        monkeypatch.setattr(search, "_certify", lambda L, row: calls.append(row) or real_certify(L, row))
        monkeypatch.setattr(
            kernels, "alternating_projection", lambda *a: calls.append(None) or real_projection(*a)
        )
        run_search(L, cfg)
        direct = calls[: next((k for k, c in enumerate(calls) if c is None), len(calls))]
        assert len(direct) == len(expected)
        assert all(np.array_equal(row, lift(z[i])) for row, i in zip(direct, expected))
        if (q, dim, seed, tol) == (6, 4, 1, 0.3):
            float_hits = (np.minimum(npl, nmi) <= 1) & (nun > 0)
            assert expected == [] and nun.astype(bool).sum() == 200 and float_hits.sum() == 25


class TestHistogram:
    @pytest.mark.parametrize("tol", [1e-9, 0.3])
    def test_histogram_matches_a_per_sample_loop(self, monkeypatch, tol):
        # at tol 0.3 many samples fall in the tolerance band and are escalated
        monkeypatch.setattr(search, "FLOAT_TOLERANCE", tol)
        L, cfg = random_subspace(4, 5, 3), SearchConfig(seed=3, samples=120)
        rep = run_search(L, cfg)
        span, z, lift = _sampled(L, cfg)
        npl, nmi, nun, _ = kernels.batch_stats(span, z, tol)
        want, escalated = {}, 0
        for i in range(cfg.samples):
            escalated += bool(nun[i])
            m = search._exact_m_of_float_coeffs(L, lift(z[i])) if nun[i] else min(npl[i], nmi[i])
            if m is not None:  # None: a zero lift, which is not counted
                want[int(m)] = want.get(int(m), 0) + 1
        assert rep.histogram == want and rep.escalations == escalated
        assert (escalated > 0) == (tol > 0.1)

    def test_overflowing_tolerance_escalates_every_sample_without_a_warning(self, monkeypatch):
        # tol * max|lambda| overflows to inf: no sign is certain in float
        monkeypatch.setattr(search, "FLOAT_TOLERANCE", 1e308)
        L, cfg = random_subspace(5, 9, 1), SearchConfig(seed=1, samples=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_search(L, cfg)
        assert rep.escalations == cfg.samples == sum(rep.histogram.values())
        assert rep.witness is not None and inertia(rep.witness.element) == rep.witness.inertia


class TestWitnessSerialization:
    def test_round_trip(self):
        L = SubspaceBasis(5, [unit_matrix(5, 0, 0)])
        w = falsify_min_inertia(L, FAST)
        doc = json.loads(json.dumps(w.to_json()))
        back = Witness.from_json(doc)
        assert back.coefficients == w.coefficients
        assert back.element == w.element
        assert back.inertia == w.inertia


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, samples=0)
        with pytest.raises(ValueError):
            SearchConfig(seed=1, workers=0)

    @pytest.mark.parametrize(
        "field,value",
        [("seed", True), ("seed", "1"), ("seed", 1.0), ("samples", 2.5), ("samples", True),
         ("samples", "40"), ("workers", 2.5), ("workers", True), ("workers", None)],
    )
    def test_non_integer_values_are_refused(self, field, value):
        # what the reports would refuse to read back, or numpy would refuse
        # deep inside the search, is refused here
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
            SearchConfig(**{"seed": 1, field: value})

    def test_config_holds_what_the_cli_sets(self):
        samples = SearchConfig(seed=0).samples
        assert repr(SearchConfig(seed=1)) == f"SearchConfig(seed=1, samples={samples}, workers=1)"
