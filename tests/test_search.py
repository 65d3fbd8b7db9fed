import contextlib
import dataclasses
import importlib.util
import io
import json
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minertia import kernels, search
from minertia.cli import main
from minertia.exactnum import GaussianRational, scaled_gaussian_grid
from minertia.hermitian_core import HermitianMatrix, inertia
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


FAST = SearchConfig(seed=11, samples=60, descent_steps=25)


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
            doc = GrowReport(size, 1, 1, 1, L, (), False, None).to_json()
        with pytest.raises(ValueError, match="'q' must be an integer"):
            (GrowReport if report else SubspaceBasis).from_json({**doc, "q": bad_q})

    @pytest.mark.parametrize("q,dim,seed", [(2, 4, 1), (4, 7, 2), (5, 9, 3)])
    def test_grid_built_basis_matches_its_matrices(self, q, dim, seed):
        L = random_subspace(q, dim, seed)
        M = SubspaceBasis(q, L.basis)  # the checked constructor, from matrices
        assert M._grids == L._grids
        image = L.float_image()
        assert np.array_equal(M.float_image(), image)
        for k, b in enumerate(L.basis):
            assert image[k].tolist() == [[complex(e) for e in row] for row in b.entries]
        coeffs = [Fraction(k + 1, 7) for k in range(dim)]
        assert M.element(coeffs) == L.element(coeffs)


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
            grid = search._grids_of(q, *search._draw_block(q, a, 1))[0]
            assert grid == scaled_gaussian_grid(ref.entries)
            assert HermitianMatrix.from_scaled(*grid) == ref
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
            den, vals = search._draw_block(q, a, 6)
            ones = [search._draw_block(q, b, 1) for _ in range(6)]
            assert den.tolist() == [d for one, _ in ones for d in one.tolist()]
            assert vals.tolist() == [row for _, one in ones for row in one.tolist()]
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

        def every_third_rejected(self, block):
            rows = [r for r in range(len(block)) if not rejected()]
            return [rows[k] for k in add_block(self, block[rows])]

        monkeypatch.setattr(search.ModularEchelon, "add_block", every_third_rejected)
        rng = search._stream(5, search._PURPOSE_BASIS)
        ech, grids = search.ModularEchelon(), []
        while len(grids) < dim:
            grid = search._grids_of(q, *search._draw_block(q, rng, 1))[0]
            if ech.add_block(np.array([search._coordinates(grid)])):
                grids.append(grid)
        drawn = len(calls)
        calls.clear()
        assert random_subspace(q, dim, 5)._grids == tuple(grids)
        assert len(calls) == drawn

    @pytest.mark.parametrize("q", range(1, 10))
    def test_coordinates_are_a_column_gather_of_the_draw(self, q):
        den, vals = search._draw_block(q, search._stream(3, search._PURPOSE_BASIS), 5)
        coord_at = search._draw_layout(q)[-1]
        grids = search._grids_of(q, den, vals)
        assert vals[:, coord_at].tolist() == [search._coordinates(g) for g in grids]


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

    def test_witness_is_exactly_certified(self):
        L = random_subspace(5, 9, seed=7)
        rep = run_search(L, SearchConfig(seed=7))
        w = rep.witness
        assert w is not None
        element = L.element(w.coefficients)
        assert element == w.element
        assert not element.is_zero()
        assert inertia(element) == w.inertia
        assert min(w.inertia.n_plus, w.inertia.n_minus) <= 1

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


def _cli_search(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["search", *argv]) == 0
    return json.loads(out.getvalue())


class TestLazyDescent:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_descent_stops_at_first_certified_start(self, monkeypatch, workers):
        real = kernels.coordinate_descent
        runs = []

        def counted(*args):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(kernels, "coordinate_descent", counted)
        doc = _cli_search("--q", "5", "--dim", "9", "--seed", "1", "--workers", str(workers))
        L, cfg = random_subspace(5, 9, 1), SearchConfig(seed=1, workers=workers)

        def certify(result):
            c, fval, _, hit = result
            return search._certify(L, c) if hit or fval >= 0 else None

        # every start before the last fails to certify; the last gives the witness
        assert 0 < len(runs) < search.DESCENT_STARTS
        assert [certify(r) for r in runs[:-1]] == [None] * (len(runs) - 1)
        assert certify(runs[-1]).to_json() == doc["witness"]
        assert doc["samples_used"] == cfg.samples + sum(r[2] for r in runs)

        # the eager schedule (all starts, then the first that certifies in
        # rank order) picks the same witness
        basisf = L.float_image()
        coeffs = search._stream(1, search._PURPOSE_FALSIFY).standard_normal((cfg.samples, L.dim))
        coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
        f = kernels.batch_stats(basisf, coeffs, cfg.float_tolerance)[3]
        order = np.argsort(-f, kind="stable")[: search.DESCENT_STARTS]
        eager = [real(basisf, coeffs[i], cfg.descent_steps, search.CERTIFY_MARGIN) for i in order]
        first = next(w for w in map(certify, eager) if w is not None)
        assert first.to_json() == doc["witness"]


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
        cfg = SearchConfig(seed=47, samples=80, descent_steps=30)
        rep = grow_subspace(5, 3, cfg)
        assert 0 <= rep.achieved_dim <= 3
        assert len(rep.steps) >= rep.achieved_dim
        assert not rep.certified
        # every accepted basis element must be exactly independent
        assert rep.basis.dim == rep.achieved_dim

    def test_warning_above_limit(self):
        # the report's field is the warning's one channel: no Python warning
        cfg = SearchConfig(seed=53, samples=30, descent_steps=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = grow_subspace(5, 9, cfg)
        assert rep.warning == (
            "target 9 exceeds the dimension limit 8 for q=5; growth beyond it cannot succeed"
        )
        assert GrowReport.from_json(rep.to_json()).warning == rep.warning
        assert grow_subspace(5, 8, cfg).warning is None

    def test_no_warning_for_other_q(self):
        cfg = SearchConfig(seed=59, samples=30, descent_steps=10)
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
        rep = run_search(L, SearchConfig(seed=1, samples=10))
        w = rep.witness
        assert w is not None
        assert L.element(w.coefficients) == w.element
        assert inertia(w.element) == w.inertia and w.inertia.m <= 1

    @pytest.mark.parametrize("k,scaled", [(1000, False), (1001, True), (-1000, False), (-1001, True)])
    def test_only_out_of_range_images_are_scaled(self, k, scaled):
        L = SubspaceBasis(2, [HermitianMatrix.diagonal([Fraction(2) ** k, -Fraction(2) ** k / 3])])
        assert (L._exps != (0,)) == scaled
        if scaled:
            assert 0.5 <= np.abs(L.float_image()).max() < 2

    def test_drawn_grids_carry_their_exponents(self):
        drawn = [random_subspace(q, q * q, seed=3) for q in (2, 5, 9)]
        drawn.append(grow_subspace(5, 2, FAST).basis)
        for L in drawn:
            assert L.dim and L._exps == tuple(search._float_range(g)[0] for g in L._grids)

    @pytest.mark.parametrize("num", [2**53 - 1, 2**53, 2**53 + 1, 3 * (2**53 + 1)])
    @pytest.mark.parametrize("den", [1, 3, 2**53 - 1, 2**53 + 1])
    def test_float_image_is_each_entry_as_complex_at_the_2_53_bound(self, num, den):
        X = HermitianMatrix.from_scaled(den, [[num, 1], [1, -num]], [[0, num - 2], [2 - num, 0]])
        L = SubspaceBasis(2, [X, HermitianMatrix.diagonal([Fraction(1, 3), 1])])
        assert L._grids[0] == (den, [[num, 1], [1, -num]], [[0, num - 2], [2 - num, 0]])
        # the float64 division only while every integer converts exactly
        assert L._f64 == (num < 2**53 and den < 2**53) and L._exps == (0, 0)
        want = np.array([[[complex(e) for e in row] for row in b.entries] for b in L.basis])
        assert L.float_image().tobytes() == want.tobytes()

    def test_float64_division_past_the_bound_would_round_twice(self):
        # (2^53 + 1) / 3 is an integer, but 2^53 + 1 is no float64: why
        # larger grids keep the Python int division
        num, den = 2**53 + 1, 3
        assert np.float64(num) / np.float64(den) != num / den
        X = HermitianMatrix.from_scaled(den, [[num, 1], [1, 0]], [[0, 0], [0, 0]])
        L = SubspaceBasis(2, [X])
        assert not L._f64 and L.float_image()[0, 0, 0] == num // den

    def test_drawn_grids_take_the_float64_division(self):
        drawn = [random_subspace(q, q * q, seed=3) for q in (1, 2, 5, 9)]
        drawn.append(grow_subspace(5, 2, FAST).basis)
        for L in drawn:
            assert L._f64 and all(search._float_range(g)[1] for g in L._grids)
            want = [[[complex(e) for e in row] for row in b.entries] for b in L.basis]
            assert L.float_image().tobytes() == np.array(want, dtype=np.complex128).tobytes()

    def test_empty_basis_image(self):
        for L in (SubspaceBasis(3, []), grow_subspace(3, 0, FAST).basis):
            assert L.float_image().shape == (0, 3, 3)

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
        rep = run_search(L, SearchConfig(seed=seed, samples=20, descent_steps=10))
        if rep.witness is not None:
            w = rep.witness
            assert L.element(w.coefficients) == w.element
            assert inertia(w.element) == w.inertia and w.inertia.m <= 1


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


class TestHistogram:
    @pytest.mark.parametrize("tol", [1e-9, 0.3])
    def test_histogram_matches_a_per_sample_loop(self, tol):
        # at tol 0.3 many samples fall in the tolerance band and are escalated
        L, cfg = random_subspace(4, 5, 3), SearchConfig(seed=3, samples=120, float_tolerance=tol)
        rep = run_search(L, cfg)
        coeffs = search._stream(3, search._PURPOSE_FALSIFY).standard_normal((cfg.samples, L.dim))
        coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
        npl, nmi, nun, _ = kernels.batch_stats(L.float_image(), coeffs, tol)
        want, escalated = {}, 0
        for i in range(cfg.samples):
            escalated += bool(nun[i])
            m = search._exact_m_of_float_coeffs(L, coeffs[i]) if nun[i] else min(npl[i], nmi[i])
            if m is not None:  # None: a zero lift, which is not counted
                want[int(m)] = want.get(int(m), 0) + 1
        assert rep.histogram == want and rep.escalations == escalated
        assert (escalated > 0) == (tol > 0.1)

    def test_overflowing_tolerance_escalates_every_sample_without_a_warning(self):
        # tol * max|lambda| overflows to inf: no sign is certain in float
        L, cfg = random_subspace(5, 9, 1), SearchConfig(seed=1, samples=5, float_tolerance=1e308)
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
        with pytest.raises(ValueError):
            SearchConfig(seed=1, float_tolerance=0)

    def test_float_tolerance_must_be_finite_and_positive(self):
        for tol in (float("nan"), float("inf"), -1e-9):
            with pytest.raises(ValueError):
                SearchConfig(seed=1, float_tolerance=tol)

    def test_descent_steps_must_be_non_negative(self):
        with pytest.raises(ValueError):
            SearchConfig(seed=1, descent_steps=-3)
        SearchConfig(seed=1, descent_steps=0)

    def test_config_holds_what_the_cli_sets(self):
        names = [f.name for f in dataclasses.fields(SearchConfig)]
        assert names == ["seed", "samples", "descent_steps", "float_tolerance", "workers"]
