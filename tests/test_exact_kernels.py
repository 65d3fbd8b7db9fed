"""The integer exact kernels against independent references.

* ``char_poly`` (Berkowitz on the scaled integer matrix) is evaluated by a
  Horner step and compared with det(sI - X) from a plain Fraction
  elimination, both written in the tests.
* ``inertia`` (fraction-free symmetric elimination) is compared with the
  sign-variation oracle on hypothesis-drawn zero-diagonal and low-rank
  matrices, the inputs that exercise the congruence and zero-block steps.
* The modular independence test must fall back to exact rank when a basis
  is dependent modulo the prime but independent over Q, agree with a plain
  Fraction rank, and give the bases of a pure-Python echelon modulo
  2^61 - 1 written here.
"""

import contextlib
import importlib.util
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from operator import mul

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import horner, rand_hermitian, rand_hermitian_generic, rand_low_rank
from minertia.errors import InconsistencyError
from minertia import cli, exactnum, hermitian_core, strata
from minertia.exactnum import (
    GaussianRational,
    poly_gcd_tower,
    scaled_gaussian_grid,
)
from minertia.hermitian_core import (
    HermitianMatrix,
    Inertia,
    _berkowitz,
    char_poly,
    congruence_transform,
    grid_inertia,
    inertia,
)
from minertia.oracles import descartes_inertia
from minertia import search
from minertia.search import MODULUS, ModularEchelon, SubspaceBasis, random_subspace


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
                assert horner(p.coeffs, s) == det[0]

    @pytest.mark.parametrize("q", [9, 10])
    def test_both_parities_of_the_half_power_count(self, q):
        # the last border's block, of size q - 1, is even at q = 9 and odd at q = 10
        rng = random.Random(q)
        X = rand_hermitian(rng, q)
        p = char_poly(X)
        for s in (Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
            det = fraction_det(shifted_pairs(X, s))
            assert det[1] == 0 and horner(p.coeffs, s) == det[0]

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
        assert horner(char_poly(X).coeffs, s) == fraction_det(shifted_pairs(X, s))[0]


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

    @pytest.mark.parametrize("seed", range(8))
    def test_large_denominator(self, seed):
        # the oracle reads the signs of det(yI - den*X), whose coefficient
        # of y^(q-k) is den^k times that of det(xI - X); den >= 3^40 here
        rng = random.Random(seed)
        q = rng.randint(2, 7)
        X = rand_low_rank(rng, q, rng.randint(1, 3), rng.randint(0, 3))
        Y = X.scale(Fraction(1, 3**40))
        assert Y.den % 3**40 == 0
        assert descartes_inertia(Y) == inertia(Y) == inertia(X)
        signs = [(c > 0) - (c < 0) for c in char_poly(Y).coeffs]
        assert signs == [(c > 0) - (c < 0) for c in _berkowitz(Y.re, Y.im)]


@st.composite
def huge_entry_matrices(draw):
    q = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return rand_hermitian_generic(rng, q, max_num=1 << 120, max_den=1 << 120)


def full_update_inertia(re, im):
    """The elimination of ``grid_inertia`` with every active entry updated
    on its own (both triangles), as it was before the half update."""
    active = list(range(len(re)))
    n_plus = n_minus = n_zero = 0
    prev = 1
    while active:
        pivot = best = None
        for p in active:
            assert not im[p][p]
            key = abs(re[p][p]).bit_length()
            if key and (best is None or key < best):
                best, pivot = key, p
        if pivot is None:
            pairs = ((i, j) for n, i in enumerate(active) for j in active[n + 1 :])
            target = next(((i, j) for i, j in pairs if re[i][j] or im[i][j]), None)
            if target is None:
                n_zero += len(active)
                break
            i, j = target
            cr, ci = (1, 0) if re[i][j] else (0, 1)
            for l in active:
                re[i][l] += cr * re[j][l] + ci * im[j][l]
                im[i][l] += cr * im[j][l] - ci * re[j][l]
            for k in active:
                re[k][i] += cr * re[k][j] - ci * im[k][j]
                im[k][i] += cr * im[k][j] + ci * re[k][j]
            continue
        d = re[pivot][pivot]
        positive = (d > 0) == (prev > 0)
        n_plus, n_minus = n_plus + positive, n_minus + (not positive)
        active.remove(pivot)
        pr, pi = re[pivot], im[pivot]
        for k in active:
            rk, ik = re[k], im[k]
            a, b = rk[pivot], ik[pivot]
            for l in active:
                x, rx = divmod(d * rk[l] - a * pr[l] + b * pi[l], prev)
                y, ry = divmod(d * ik[l] - a * pi[l] - b * pr[l], prev)
                assert not rx and not ry
                rk[l], ik[l] = x, y
        prev = d
    return Inertia(n_plus, n_minus, n_zero)


class TestHalfUpdate:
    """``grid_inertia`` updates one triangle and mirrors it; the full update
    must give the same inertia, including through the congruence branch."""

    @staticmethod
    def check(X):
        def grids():
            return [list(row) for row in X.re], [list(row) for row in X.im]

        assert grid_inertia(*grids()) == full_update_inertia(*grids())

    @settings(max_examples=60, deadline=None)
    @given(zero_diagonal_matrices())
    def test_zero_diagonal(self, X):
        self.check(X)

    @settings(max_examples=60, deadline=None)
    @given(low_rank_matrices())
    def test_low_rank(self, X):
        self.check(X)

    @settings(max_examples=30, deadline=None)
    @given(huge_entry_matrices())
    def test_huge_entries(self, X):
        self.check(X)


def _reference_shift(X):
    """The high-multiplicity eigenvalue and the inertia of X - s*I through
    the public rational layer: char_poly, poly_gcd_tower and X.shift."""
    g = poly_gcd_tower(char_poly(X), X.q - 3)
    if g.degree == 0:
        return None
    e = g.degree
    s = -g.coeffs[e - 1] / e
    assert g.coeffs == tuple(math.comb(e, k) * (-s) ** (e - k) for k in range(e + 1))  # (y - s)^e
    return s, inertia(X.shift(s))


def _perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestIntegerConePath:
    """``strata._high_multiplicity_shift`` stays on integers from the grid
    to the apex; the rational layer must give the same (s, inertia)."""

    @pytest.mark.parametrize("q", range(5, 11))
    def test_every_perfbench_category(self, q):
        matgen = _perfbench("matgen")
        gen = matgen._Gen(random.Random(q))
        cats = sorted(set(matgen.INERTIA_CATS + matgen.CLASSIFY_CATS + matgen.CONE_CATS))
        for cat in cats * 3:
            doc = json.loads(matgen.make_request(gen, q, matgen.CONE, cat)["text"])
            X = HermitianMatrix.from_json(doc)
            assert strata._high_multiplicity_shift(X) == _reference_shift(X), cat

    @pytest.mark.parametrize("q", range(5, 11))
    def test_generic(self, q):
        rng = random.Random(100 + q)
        for _ in range(8):
            X = rand_hermitian_generic(rng, q)
            assert strata._high_multiplicity_shift(X) == _reference_shift(X)

    @pytest.mark.parametrize("exponent", [200, -200])
    @pytest.mark.parametrize("q", range(5, 11))
    def test_cone_members_with_huge_and_tiny_scales(self, q, exponent):
        rng = random.Random(q * exponent)
        scale = Fraction(2) ** exponent
        for pos, neg in [(1, 1), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1)]:
            Y = rand_low_rank(rng, q, pos, neg)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            X = Y.scale(t).add(HermitianMatrix.scalar(q, s)).scale(scale)
            found = strata._high_multiplicity_shift(X)
            assert found == _reference_shift(X)
            assert found is not None and found[0] == s * scale

    @pytest.mark.parametrize("tower", [[2, -3, 1], [1, 2, 2], [-1, 0, 0, 1], [9, -12, 4]])
    def test_a_tower_that_is_not_a_pure_power_raises(self, monkeypatch, tower):
        # (y - 1)(y - 2), a root-free quadratic, y^3 - 1 and (2y - 3)^2 (not
        # monic, so no factor of an integer characteristic polynomial) in
        # place of the cone member's y - 3
        monkeypatch.setattr(strata, "_int_gcd_tower", lambda g, depth: tower)
        with pytest.raises(InconsistencyError, match="not a power of a linear factor"):
            strata._high_multiplicity_shift(HermitianMatrix.diagonal([3, 3, 3, 1, -1]))

    @pytest.mark.parametrize("q", range(5, 11))
    def test_cone_members_under_a_permutation_congruence(self, q):
        # the low-rank part lands anywhere relative to the leading 5 x 5
        # block; the full-matrix tower of the reference does not use the block
        rng = random.Random(200 + q)
        for pos, neg in [(1, 1), (2, 0), (0, 2), (1, 0), (0, 1), (1, 1), (2, 0)]:
            Y = rand_low_rank(rng, q, pos, neg)
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            perm = list(range(q))
            rng.shuffle(perm)
            P = [[int(perm[i] == j) for j in range(q)] for i in range(q)]
            X = congruence_transform(Y.add(HermitianMatrix.scalar(q, s)), P)
            found = strata._high_multiplicity_shift(X)
            assert found == _reference_shift(X)
            assert found is not None and found[0] == s

    @pytest.mark.parametrize("q", [5, 6, 8])
    @pytest.mark.parametrize("wrong", [2, 4])
    def test_a_tower_with_a_wrong_apex_raises(self, monkeypatch, q, wrong):
        # (y - wrong) in place of the cone member's y - 3: the full
        # elimination finds rank > 2, and the leading block, whose triple
        # eigenvalue is 3, must then disagree with the tower
        monkeypatch.setattr(strata, "_int_gcd_tower", lambda g, depth: [-wrong, 1])
        X = HermitianMatrix.diagonal([3] * (q - 2) + [1, -1])
        with pytest.raises(InconsistencyError, match="fails its rank <= 2 check"):
            strata._high_multiplicity_shift(X)


def _call_cli(argv, stdin_text):
    """One in-process CLI call on ``stdin_text``: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
        try:
            rc = cli.main(argv)
        finally:
            sys.stdin = saved
    return rc, out.getvalue()


class TestMatricesBenchmarkContract:
    """perfbench's ``matrices`` workload checks each CLI output exactly; its
    NotInC2 check is what calls ``char_poly``, ``derivative`` and
    ``poly_gcd``, and its tracer wraps its layers by name, ``char_poly``
    and ``poly_gcd_tower`` among them."""

    def test_one_pool_passes_its_output_check_under_the_tracer(self, monkeypatch):
        matgen = _perfbench("matgen")
        monkeypatch.setitem(sys.modules, "matgen", matgen)  # workloads imports it by name
        workloads, tracing = _perfbench("workloads"), _perfbench("tracing")
        wl = workloads.Matrices(1)
        originals = hermitian_core.char_poly, exactnum.poly_gcd_tower, strata.classify_cone
        tracer = tracing.Tracer()
        try:
            tracer.install()  # every LAYERS name must resolve
            outputs = [_call_cli(*wl.request(i)) for i in range(len(wl.pool))]
            failed, props, ok = wl.check(outputs, ())
        finally:
            tracer.uninstall()
        assert (hermitian_core.char_poly, exactnum.poly_gcd_tower, strata.classify_cone) == originals
        assert len(outputs) == 240 and ok and not any(failed), props["problems"]
        not_in_c2 = props["cone_label_histogram"]["NotInC2"]
        assert not_in_c2 > 0
        c = tracer.counts
        cone = sum(r["op"] == matgen.CONE for r in wl.pool)
        assert c["strata.classify_cone.calls"] == cone
        assert c["hermitian_core.char_poly.calls"] == not_in_c2  # the check's, not the CLI's


class TestSelfChecks:
    def test_non_real_diagonal_after_a_pivot_raises(self):
        # Not Hermitian (m01 = 1+i, m10 = 1): the input diagonal is real, but
        # after the first pivot the (1,1) entry is -i.
        with pytest.raises(InconsistencyError, match="non-real diagonal"):
            grid_inertia([[1, 1], [1, 1]], [[0, 1], [0, 0]])

    def test_non_real_berkowitz_coefficient_raises(self):
        with pytest.raises(InconsistencyError, match="non-real Berkowitz"):
            _berkowitz([[0, 1], [1, 0]], [[0, 1], [0, 0]])

    @pytest.mark.parametrize("i,j", [(i, j) for j in range(4) for i in range(4) if i != j])
    @pytest.mark.parametrize("part", [0, 1])
    def test_every_off_diagonal_pair_is_checked(self, i, j, part):
        # the border check at row max(i, j) is the one that sees the pair
        X = rand_hermitian_generic(random.Random(i + 4 * j), 4)
        grids = [[list(row) for row in X.re], [list(row) for row in X.im]]
        assert _berkowitz(*grids) == _berkowitz(X.re, X.im)
        grids[part][i][j] += 1
        with pytest.raises(InconsistencyError, match=f"row {max(i, j)} is not the conjugate"):
            _berkowitz(*grids)

    def test_inexact_division_raises(self):
        # Not Hermitian (m12 = 2, m21 = 3): pivot (2,2) = 2 leaves (0,0) = -9,
        # (0,1) = -7 and (1,1) = -6, and the next pivot's (0,0) update is 5/2.
        with pytest.raises(InconsistencyError, match="remainder"):
            grid_inertia([[0, 1, 3], [1, 0, 2], [3, 3, 2]], [[0] * 3 for _ in range(3)])


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


def add_one(ech, accepted, vec):
    """Test one vector as a one-row block of Python ints (``dtype=object``)
    against an echelon built from the vectors ``accepted``."""
    return ech.add_block(np.array([vec], dtype=object), accepted) == [0]


class TestIndependence:
    def test_echelon_matches_fraction_rank_and_copy_is_a_snapshot(self):
        rng = random.Random(8)
        ech = ModularEchelon()
        kept = []
        for _ in range(12):
            v = [rng.randint(-2, 2) for _ in range(6)]
            snapshot = ech.copy()
            added = add_one(ech, kept, v)
            assert added == (fraction_rank(kept + [v]) > len(kept))
            if added:
                kept.append(v)
                # the copy is as ech was: it accepts v again
                assert add_one(snapshot, kept[:-1], v)
        # entries of |v| <= 2 in 6 coordinates: every minor is below p, so
        # each vector is accepted mod p, one echelon row each
        assert not ech.exact_only and len(ech.rows) == fraction_rank(kept) == len(kept)

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

    def test_dependence_beyond_int64_names_the_first_dependent_matrix(self):
        # the same basis as above times 10^30: its coordinates do not fit int64
        big = 10**30
        e11 = HermitianMatrix.diagonal([big, 0, 0])
        shifted = HermitianMatrix.diagonal([big, big * MODULUS, 0])
        e22, e33 = HermitianMatrix.diagonal([0, big, 0]), HermitianMatrix.diagonal([0, 0, big])
        with pytest.raises(ValueError, match="basis matrix 2 is linearly dependent"):
            SubspaceBasis(3, [e11, shifted, e22, e33, e11])
        with pytest.raises(ValueError, match="basis matrix 1 is linearly dependent"):
            SubspaceBasis(3, [e11, e11.scale(Fraction(-1, 3)), e22])
        assert SubspaceBasis(3, [e11, shifted, e33]).dim == 3

    @pytest.mark.parametrize("top", [4, 2**100])
    @pytest.mark.parametrize("seed", range(40))
    def test_one_row_blocks_agree_with_fraction_rank(self, seed, top):
        # entries up to top, exact combinations of earlier vectors, and
        # earlier vectors moved by multiples of MODULUS (dependent only
        # modulo p); entries beyond int64 are tested as dtype=object blocks
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        ech, kept, vecs, flags = ModularEchelon(), [], [], []
        for _ in range(n + 3):
            kind = rng.random()
            if kept and kind < 0.3:
                v = [sum(rng.randint(-3, 3) * u[k] for u in kept) for k in range(n)]
            elif kept and kind < 0.6:
                v = list(rng.choice(kept))
                v[rng.randrange(n)] += rng.choice([-2, -1, 1, 3]) * MODULUS
            else:
                v = [rng.randint(-top, top) for _ in range(n)]
            added = add_one(ech, kept, v)
            assert added == (fraction_rank(kept + [v]) > len(kept))
            if added:
                kept.append(v)
            vecs.append(v)
            flags.append(added)
        assert fraction_rank(kept) == len(kept)
        # the block entry point accepts the same rows, wherever the blocks are cut
        blocks, start = ModularEchelon(), 0
        while start < len(vecs):
            stop = rng.randint(start + 1, len(vecs))
            block = np.array(vecs[start:stop], dtype=np.int64 if top == 4 else object)
            accepted = [v for v, added in zip(vecs[:start], flags) if added]
            kept_rows = blocks.add_block(block, accepted)
            assert [k in kept_rows for k in range(stop - start)] == flags[start:stop]
            start = stop
        _assert_same_echelon(blocks, ech)

    def test_add_block_rows_dependent_in_the_block_or_only_mod_p(self):
        first = [[1, 2, 0, 0, 0, 0], [0, 1, 3, 0, 0, 0]]
        block = [
            [1, 3, 3, 0, 0, 0],  # first[0] + first[1]: dependent over Q
            [0, 0, 4, 1, 0, 0],
            [2, 1, 0, 7, 0, 0],
            [2, 1, 4, 8, 0, 0],  # block[1] + block[2], rows of this block
            [1, 2, 0, 0, MODULUS, 0],  # first[0] mod p only: independent over Q
            [0, 0, 0, 0, 0, 1],  # tested exactly once the row above was accepted
            [1, 2, 0, 0, MODULUS, 3],  # block[4] + 3 block[5]: dependent over Q
        ]
        ech, ref = ModularEchelon(), ModularEchelon()
        assert ech.add_block(np.array(first, dtype=np.int64), []) == [0, 1]
        assert ech.add_block(np.array(block, dtype=np.int64), first) == [1, 2, 4, 5]
        kept, flags = [], []
        for v in first + block:
            flags.append(add_one(ref, kept, v))
            kept += [v] * flags[-1]
        assert flags == [True, True, False, True, True, False, True, True, False]
        assert ech.exact_only and fraction_rank(kept) == len(kept) == 6
        _assert_same_echelon(ech, ref)
        # while exact, a block is tested row by row on the Gram matrix
        assert ech.add_block(np.eye(6, dtype=np.int64), kept) == []

    def test_add_block_leaves_a_copy_untouched(self):
        ech = ModularEchelon()
        first = [[1, 0, 2], [0, 1, 1]]
        ech.add_block(np.array(first, dtype=np.int64), [])
        snapshot = ech.copy()
        rows, pivots = snapshot.rows.copy(), snapshot.pivots.copy()
        assert ech.add_block(np.array([[0, 0, 5]], dtype=np.int64), first) == [0]
        assert (snapshot.rows == rows).all() and (snapshot.pivots == pivots).all()
        assert len(snapshot.rows) == 2 and len(ech.rows) == 3

    def test_mod_dot_does_not_overflow_int64(self):
        # one chunk of _DOT_TERMS products of (p - 1)^2 is the most an int64
        # sum holds; longer inputs are summed in chunks
        top = MODULUS - 1
        assert search._DOT_TERMS * top * top + MODULUS <= 2**63 - 1
        assert (search._DOT_TERMS + 1) * top * top > 2**63 - 1
        for n in (search._DOT_TERMS, 2 * search._DOT_TERMS + 5):
            x = np.full(n, top, dtype=np.int64)
            rows = np.full((n, 3), top, dtype=np.int64)
            rows[-1] = [0, 1, top - 1]
            want = [(sum(map(mul, x.tolist(), col)) % MODULUS) for col in rows.T.tolist()]
            assert search._mod_dot(x, rows).tolist() == want

    def test_entries_of_modulus_minus_one_reduce_exactly(self):
        # (p - 1) J + diag(p - 1 + i): invertible over Q and modulo p
        n = 12
        vecs = [[MODULUS - 1 if k != i else 2 * MODULUS - 2 + i for k in range(n)]
                for i in range(n)]
        ech = ModularEchelon()
        assert [add_one(ech, vecs[:i], v) for i, v in enumerate(vecs)] == [True] * n
        assert not ech.exact_only
        assert not add_one(ech, vecs, [sum(v[k] for v in vecs) for k in range(n)])

    @pytest.mark.parametrize(
        "q,dim,seed",
        [(q, q * q, s) for q in range(2, 10) for s in (1, 2, 3)] + [(17, 225, 1)],
    )
    def test_random_subspace_matches_the_pure_python_echelon(self, q, dim, seed):
        L = random_subspace(q, dim, seed)
        re, im = search._grids(L._coords)
        assert (L._den.tolist(), re.tolist(), im.tolist()) == _reference_grids(q, dim, seed)


def _matrix(rng, q, top, scale):
    """A random Hermitian matrix with entries n/d, |n| <= top, d <= 6,
    times ``scale``."""
    entries = [[None] * q for _ in range(q)]
    for i in range(q):
        entries[i][i] = (Fraction(rng.randint(-top, top), rng.randint(1, 6)), 0)
        for j in range(i + 1, q):
            re, im = (Fraction(rng.randint(-top, top), rng.randint(1, 6)) for _ in "ri")
            entries[i][j], entries[j][i] = (re, im), (re, -im)
    return HermitianMatrix(entries).scale(scale)


def _real_coordinates(X):
    q = X.q
    return ([Fraction(X.re[i][j], X.den) for i in range(q) for j in range(i, q)]
            + [Fraction(X.im[i][j], X.den) for i in range(q) for j in range(i + 1, q)])


def _draw_order(X):
    """X's numerators over X.den in the coordinate order of a draw: per
    row, Re of the diagonal entry, then Re and Im of each entry right of
    it."""
    coords = []
    for i in range(X.q):
        coords.append(X.re[i][i])
        for j in range(i + 1, X.q):
            coords += [X.re[i][j], X.im[i][j]]
    return coords


def _independent_prefix(start, candidates):
    """``start`` followed by each candidate that raises the Fraction rank."""
    kept = list(start)
    for c in candidates:
        if fraction_rank([_real_coordinates(m) for m in kept + [c]]) > len(kept):
            kept.append(c)
    return kept


class TestExtended:
    """``SubspaceBasis._extended`` tests candidate rows against the
    echelon the basis holds: it keeps exactly the rows that raise the
    Fraction rank of the basis and the rows kept before them."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32), st.booleans())
    def test_keeps_the_rows_a_fraction_rank_accepts(self, q, seed, big):
        # entries of 1 or 2 over d <= 6 make many dependent candidates;
        # times 2^60 every integer lies beyond 2^53, so the arrays are
        # dtype=object
        rng = random.Random(seed)
        scale = 2**60 if big else 1
        basis = _independent_prefix([], [_matrix(rng, q, 2, scale) for _ in range(q * q)])
        L = SubspaceBasis(q, basis)
        assert L._coords.dtype == (object if big and basis else np.int64)
        candidates = [_matrix(rng, q, 2, scale) for _ in range(rng.randint(1, 4))]
        if basis:  # a combination of basis rows, and a basis row
            combination = L.element([rng.randint(-2, 2) for _ in basis])
            candidates.insert(rng.randint(0, len(candidates)), combination)
            candidates.append(rng.choice(basis))
        candidates.append(rng.choice(candidates))  # a repeated candidate
        dtype = object if big else np.int64
        den = np.array([c.den for c in candidates], dtype=dtype)
        coords = np.array([_draw_order(c) for c in candidates], dtype=dtype)
        want = tuple(_independent_prefix(basis, candidates))
        grown = L._extended(den, coords)
        assert grown.basis == want and grown._exps == (0,) * len(want)
        # L and its echelon are as they were: extending it again gives the same
        assert L.dim == len(basis) and L._extended(den, coords).basis == want
        # and the grown basis tests a further candidate against all its rows
        assert grown._extended(den, coords).dim == len(want)

    def test_the_exact_test_reads_the_basis_rows_across_calls(self):
        # B = A + p E is A mod p but independent of it over Q, so only the
        # exact Gram test accepts it; each later call must test against A
        # and B, the rows of the basis it extends, not only its own block
        A = HermitianMatrix([[1, (2, -1)], [(2, 1), 3]])
        B = HermitianMatrix([[1, (2, -1)], [(2, 1), 3 + MODULUS]])
        C = HermitianMatrix([[0, (0, 1)], [(0, -1), 0]])
        L = SubspaceBasis(2, [A])

        def extended(basis, X):
            return basis._extended(np.array([X.den]), np.array([_draw_order(X)]))

        grown = extended(L, B)
        assert grown.basis == (A, B) and grown._echelon.exact_only
        assert not L._echelon.exact_only and L.dim == 1
        A_plus_B = HermitianMatrix([[2, (4, -2)], [(4, 2), 6 + MODULUS]])
        for X in (A_plus_B, A.scale(2), C):
            want = _independent_prefix([A, B], [X])
            assert extended(grown, X).basis == tuple(want)
            assert len(want) == fraction_rank([_real_coordinates(m) for m in want])
            assert len(want) == (3 if X is C else 2)

    def test_a_scaled_basis_keeps_its_exponents(self):
        # the constructor's rows keep their float-image exponents; rows
        # that _extended adds get 0
        big = HermitianMatrix.diagonal([Fraction(2) ** 1100, 0])
        L = SubspaceBasis(2, [big])
        assert L._exps != (0,)
        den, coords = search._draw_block(2, search._stream(1, search._PURPOSE_BASIS), 2)
        grown = L._extended(den, coords)
        assert grown._exps == L._exps + (0,) * (grown.dim - 1) and grown.dim == 3


def _assert_same_echelon(a, b):
    assert a.exact_only == b.exact_only
    assert a.pivots.tolist() == b.pivots.tolist()
    assert a.rows.tolist() == b.rows.tolist()


class _ReferenceEchelon:
    """Independence over Q by a pure-Python echelon modulo 2^61 - 1, with
    the same exact Gram-rank fallback."""

    P = (1 << 61) - 1

    def __init__(self):
        self.rows, self.accepted, self.exact_only = [], [], False

    def try_add(self, vec):
        if not self.exact_only:
            row = [v % self.P for v in vec]
            for p, tail in self.rows:
                f = row[p] % self.P
                if f:
                    row[p:] = [a - f * b for a, b in zip(row[p:], tail)]
            row = [v % self.P for v in row]
            lead = next((k for k, v in enumerate(row) if v), None)
            if lead is not None:
                inv = pow(row[lead], -1, self.P)
                self.rows.append((lead, [v * inv % self.P for v in row[lead:]]))
                self.accepted.append(vec)
                return True
        vecs = self.accepted + [vec]
        gram = [[sum(map(mul, u, v)) for v in vecs] for u in vecs]
        if grid_inertia(gram, [[0] * len(vecs) for _ in vecs]).rank < len(vecs):
            return False
        self.accepted.append(vec)
        self.exact_only = True
        return True


def _reference_grids(q, dim, seed):
    """The denominators, Re and Im grids of the first ``dim`` drawn
    candidates independent of those before them, drawn one at a time; the
    drawn coordinates are placed in the grids one by one, in draw order."""
    rng = search._stream(seed, search._PURPOSE_BASIS)
    ech, grids = _ReferenceEchelon(), ([], [], [])
    while len(grids[0]) < dim:
        den, drawn = (part[0].tolist() for part in search._draw_block(q, rng, 1))
        drawn, re, im = iter(drawn), [[0] * q for _ in range(q)], [[0] * q for _ in range(q)]
        for i in range(q):
            re[i][i] = next(drawn)
            for j in range(i + 1, q):
                re[i][j] = re[j][i] = next(drawn)
                im[i][j] = next(drawn)
                im[j][i] = -im[i][j]
        # the diagonal first: another column order than the draw's
        coords = [re[i][i] for i in range(q)]
        coords += [v for i in range(q) for j in range(i + 1, q) for v in (re[i][j], im[i][j])]
        if ech.try_add(coords):
            for part, value in zip(grids, (den, re, im)):
                part.append(value)
    return grids
