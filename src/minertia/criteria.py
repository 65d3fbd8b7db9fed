"""The acceptance criteria: one registry, run at two budgets.

Each entry of :data:`CRITERIA` is a function of a :class:`Budget` that
raises ``AssertionError`` on a failed check and otherwise returns a
one-line report.  ``tests/test_acceptance.py`` runs every entry at full
budget: the acceptance inputs, draw counts and bounds.  ``minertia check``
runs the same entries at a small budget, drawing fewer matrices from the
same seeded streams.  A failure means an arithmetic fault in the build, so
the CLI maps it to the internal-inconsistency exit code.

The random matrix generators below run on stdlib ``random``, independent
of the numpy streams the falsifier draws from, and mix structured matrices
(zero diagonal, low rank, singular) in with generic ones so elimination
branches and oracle comparisons see the hard cases.  The test suite
imports them too.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .bounds import Assumptions, best_bound, catalog, catalog_best_bound, k2_less_than_8chi
from .degree import degree_binomial_form, degree_product_form, verify_parity_law
from .errors import SingularTransformError
from .exactnum import GaussianRational, grid_combination
from .hermitian_core import (
    HermitianMatrix,
    _gaussian_mat_mul,
    congruence_transform,
    inertia,
    minimal_inertia,
)
from .oracles import descartes_inertia
from .search import SearchConfig, SubspaceBasis, Witness, falsify_min_inertia, random_subspace
from .strata import ConeLabel, StratumLabel, classify_cone, classify_d2


def _rand_ratio(rng: random.Random, max_num: int, max_den: int) -> Tuple[int, int]:
    """n/d with |n| <= max_num and 1 <= d <= max_den, drawn in that order,
    as the integers (n, d) in lowest terms."""
    n, d = rng.randint(-max_num, max_num), rng.randint(1, max_den)
    g = math.gcd(n, d)
    return n // g, d // g


def rand_fraction(rng: random.Random, max_num=9, max_den=9) -> Fraction:
    return Fraction(*_rand_ratio(rng, max_num, max_den))


def rand_gaussian(rng: random.Random, max_num=9, max_den=9) -> GaussianRational:
    return GaussianRational(
        rand_fraction(rng, max_num, max_den), rand_fraction(rng, max_num, max_den)
    )


def rand_hermitian_generic(
    rng: random.Random, q: int, max_num=9, max_den=9, zero_diagonal=False
) -> HermitianMatrix:
    """Entries n/d with |n| <= max_num, 1 <= d <= max_den, drawn row by row:
    the real diagonal entry (zero, and not drawn, with ``zero_diagonal``),
    then each entry right of it."""
    cells = {}  # (i, j), i <= j: the (re, im) ratios
    for i in range(q):
        cells[i, i] = ((0, 1) if zero_diagonal else _rand_ratio(rng, max_num, max_den), (0, 1))
        for j in range(i + 1, q):
            cells[i, j] = (_rand_ratio(rng, max_num, max_den), _rand_ratio(rng, max_num, max_den))
    den = math.lcm(*(d for z in cells.values() for _, d in z))
    re = [[0] * q for _ in range(q)]
    im = [[0] * q for _ in range(q)]
    for (i, j), ((a, b), (c, e)) in cells.items():
        re[i][j] = re[j][i] = a * (den // b)
        im[i][j] = c * (den // e)
        im[j][i] = -im[i][j]
    return HermitianMatrix.from_scaled(den, re, im)


def rand_psd(rng: random.Random, q: int, r: int) -> HermitianMatrix:
    """A*A for a random r x q complex rational A; PSD of rank <= r."""
    parts = [_rand_ratio(rng, 5, 5) for _ in range(2 * r * q)]  # Re, Im of A row by row
    den = math.lcm(*(d for _, d in parts))
    vals = [n * (den // d) for n, d in parts]
    ar = [vals[2 * k * q : 2 * (k + 1) * q : 2] for k in range(r)]
    ai = [vals[2 * k * q + 1 : 2 * (k + 1) * q : 2] for k in range(r)]
    sr, si = [list(c) for c in zip(*ar)], [[-v for v in c] for c in zip(*ai)]  # A*
    return HermitianMatrix.from_scaled(den * den, *_gaussian_mat_mul(sr, si, ar, ai))


def rand_low_rank(rng: random.Random, q: int, pos: int, neg: int) -> HermitianMatrix:
    plus = rand_psd(rng, q, pos) if pos else HermitianMatrix.zero(q)
    minus = rand_psd(rng, q, neg) if neg else HermitianMatrix.zero(q)
    return plus.sub(minus)


def rand_hermitian(rng: random.Random, q: int) -> HermitianMatrix:
    roll = rng.random()
    if roll < 0.65:
        return rand_hermitian_generic(rng, q)
    if roll < 0.80:
        return rand_hermitian_generic(rng, q, 5, 5, zero_diagonal=True)
    pos = rng.randint(0, max(1, q // 2))
    neg = rng.randint(0, max(1, q // 2))
    return rand_low_rank(rng, q, pos, neg)


def rand_square(rng: random.Random, q: int, max_num=4, max_den=4):
    """Plain (not Hermitian) Gaussian-rational matrix as nested lists."""
    return [[rand_gaussian(rng, max_num, max_den) for _ in range(q)] for _ in range(q)]


class Budget:
    """How much one run of the registry draws: the acceptance sizes when
    ``full``, else the small sizes of ``minertia check``.  Criteria 11 and
    12 share the first falsifier batch through the instance."""

    def __init__(self, full: bool):
        self.full = full
        self.falsifier_batch = None  # (witness blobs, seconds) once criterion 11 or 12 ran it

    def size(self, small: int, full: int) -> int:
        return full if self.full else small


def _require(cond: bool, msg: str):
    # not `assert`: `python -O` must not turn `minertia check` into a no-op
    if not cond:
        raise AssertionError(msg)


def check_witness(L: SubspaceBasis, witness: Witness):
    """Re-derive a search witness from its subspace exactly, or raise
    ``AssertionError`` naming the first property that fails: its element
    is sum_i c_i B_i, summed with ``HermitianMatrix`` arithmetic on
    ``L.basis`` (no step shared with the product of
    :meth:`SubspaceBasis.element` that made it); the element is nonzero;
    elimination and the sign-variation oracle both give the stated
    inertia; and its minimal inertia m is at most 1."""
    coeffs, stated = witness.coefficients, witness.inertia
    _require(len(coeffs) == L.dim, f"{len(coeffs)} coefficients for a basis of {L.dim} matrices")
    terms = zip(coeffs, (b.grid for b in L.basis))
    element = HermitianMatrix.from_scaled(*grid_combination(L.q, terms))
    _require(element == witness.element, "the element is not sum_i c_i B_i on the subspace")
    _require(not element.is_zero(), "the element is zero")
    found = inertia(element)
    _require(found == stated, f"elimination gives {found}, not the stated {stated}")
    found = descartes_inertia(element)
    _require(found == stated, f"the sign-variation oracle gives {found}, not the stated {stated}")
    _require(stated.m <= 1, f"the inertia {stated} has m = {stated.m} > 1")


def criterion_01_degree_values_and_form_agreement(budget: Budget) -> str:
    t0 = time.time()
    values = [degree_product_form(q) for q in (3, 4, 5)]
    _require(values == [3, 20, 175], f"degrees at q = 3, 4, 5 are {values}")
    for q in range(3, 51):
        _require(
            degree_product_form(q) == degree_binomial_form(q), f"closed forms disagree at q={q}"
        )
    elapsed = time.time() - t0
    _require(elapsed < 5.0, f"took {elapsed:.1f}s")
    return f"degree 3/20/175, forms agree on [3,50] ({elapsed:.2f}s < 5s)"


def criterion_02_parity_law_sweep_to_1e6(budget: Budget) -> str:
    hi = budget.size(20000, 10**6)
    t0 = time.time()
    violations = verify_parity_law(3, hi)
    elapsed = time.time() - t0
    _require(violations == 0, f"{violations} parity-law violations")
    _require(elapsed < 60.0, f"took {elapsed:.1f}s")
    return f"parity law holds on [3,{hi}] ({elapsed:.1f}s < 60s)"


def criterion_03_inertia_oracle_equivalence(budget: Budget) -> str:
    t0 = time.time()
    rng = random.Random(3001)
    total = 0
    for q in range(2, 7):
        for _ in range(budget.size(40, 1000)):
            x = rand_hermitian(rng, q)
            _require(inertia(x) == descartes_inertia(x), f"oracle mismatch at q={q}")
            total += 1
    return (
        f"{total} matrices match the sign-variation oracle exactly ({time.time() - t0:.1f}s)"
    )


def criterion_04_sylvester_invariance(budget: Budget) -> str:
    t0 = time.time()
    rng = random.Random(3002)
    n = budget.size(25, 500)
    done = 0
    while done < n:
        q = rng.randint(2, 5)
        x = rand_hermitian(rng, q)
        p = rand_square(rng, q)
        try:
            y = congruence_transform(x, p)
        except SingularTransformError:
            continue
        _require(inertia(y) == inertia(x), "congruence changed the inertia")
        done += 1
    return f"{n} congruences preserve inertia exactly ({time.time() - t0:.1f}s)"


def criterion_05_sign_count_identities(budget: Budget) -> str:
    t0 = time.time()
    rng = random.Random(3003)
    n = budget.size(60, 1000)
    for _ in range(n):
        q = rng.randint(2, 6)
        x = rand_hermitian(rng, q)
        inr = inertia(x)
        _require(inr.n_plus + inr.n_minus + inr.n_zero == q, "sign counts must sum to q")
        _require(inr.rank >= 2 * inr.m, "rank >= 2m fails")
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.5:
            lam = -lam
        _require(minimal_inertia(x.scale(lam)) == inr.m, "minimal inertia must be scale-invariant")
        # m = 0 iff X or -X is PSD, both sides read off exact inertias
        neg = inertia(x.neg())
        _require(neg == inr.negated(), "negation must swap the sign counts")
        _require((inr.m == 0) == (inr.n_minus == 0 or neg.n_minus == 0), "m = 0 iff semidefinite")
    return f"{n} matrices satisfy the sign-count identities exactly ({time.time() - t0:.1f}s)"


def criterion_06_cone_elements_keep_m_le_1(budget: Budget) -> str:
    t0 = time.time()
    rng = random.Random(3004)
    n = budget.size(100, 1000)
    checked = 0
    while checked < n:
        q = rng.randint(4, 6)
        y = rand_low_rank(rng, q, rng.randint(0, 1), rng.randint(0, 1))
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        x = y.scale(t).add(HermitianMatrix.identity(q).scale(s))
        if x.is_zero():
            continue
        _require(minimal_inertia(x) <= 1, "cone element with m > 1")
        checked += 1
    return f"{n} cone combinations keep minimal inertia <= 1 ({time.time() - t0:.1f}s)"


def criterion_07_nonzero_psd_trace_positive(budget: Budget) -> str:
    t0 = time.time()
    rng = random.Random(3005)
    n = budget.size(100, 1000)
    checked = 0
    while checked < n:
        q = rng.randint(3, 6)
        x = rand_psd(rng, q, rng.randint(1, 2))
        if x.is_zero():
            continue
        _require(minimal_inertia(x) == 0, "A*A must be PSD")
        _require(x.trace() > 0, "nonzero PSD trace must be positive")
        checked += 1
    return (
        f"{n} nonzero PSD matrices of rank <= 2 have positive trace ({time.time() - t0:.1f}s)"
    )


def criterion_08_bound_regressions(budget: Budget) -> str:
    expected = {3: 9, 4: 10, 5: 17, 6: 17, 7: 20}
    for q, want in expected.items():
        rep = best_bound(Assumptions(q=q, no_irregular_pencils_genus_ge2=True))
        _require(rep.best == want, f"q={q}: {rep.best} != {want}")
    rep = best_bound(Assumptions(q=4, no_irregular_pencils_genus_ge2=True))
    _require("general_type" in rep.best_names, f"q=4: best bounds are {rep.best_names}")
    return "best bounds reproduce 9/10/17/17/20 for q = 3..7"


def criterion_09_k2_chain(budget: Budget) -> str:
    for k in range(3, 21):
        q = (1 << k) + 1
        rec = k2_less_than_8chi(q)
        _require(rec.strict, f"no strict gap at q={q}")
        _require(rec.K2_upper == 8 * q - 17, f"K2 upper at q={q} is not 8q - 17")
        _require(rec.eight_chi == 8 * q - 16, f"8 chi at q={q} is not 8q - 16")
    return "K^2 upper bound 8q-17 < 8chi = 8q-16 for all q = 2^k+1, k = 3..20"


def criterion_10_catalog_consistency(budget: Budget) -> str:
    records = catalog()
    for rec in records:
        bound = catalog_best_bound(rec)
        _require(rec.h11 >= bound, f"{rec.name}: h11={rec.h11} < bound={bound}")
    return f"all {len(records)} catalog records beat their applicable bounds"


_FALSIFIER_SEEDS = range(5000, 5100)


def _falsify(q: int, dim: int, seed: int) -> Tuple[Optional[str], float]:
    """``search --q q --dim dim --seed seed``: its witness, vetted by
    :func:`check_witness`, as sorted JSON (None if none), and the seconds
    the search took."""
    t0 = time.time()
    L = random_subspace(q, dim, seed=seed)
    w = falsify_min_inertia(L, SearchConfig(seed=seed))
    elapsed = time.time() - t0
    if w is None:
        return None, elapsed
    try:
        check_witness(L, w)
    except AssertionError as exc:
        raise AssertionError(f"seed {seed}: {exc}") from None
    return json.dumps(w.to_json(), sort_keys=True), elapsed


def _first_falsifier_batch(budget: Budget):
    if budget.falsifier_batch is None:
        t0 = time.time()
        blobs = [_falsify(5, 9, seed)[0] for seed in _FALSIFIER_SEEDS[: budget.size(20, 100)]]
        budget.falsifier_batch = blobs, time.time() - t0
    return budget.falsifier_batch


def criterion_11_falsifier_statistics(budget: Budget) -> str:
    blobs, elapsed = _first_falsifier_batch(budget)
    n, successes = len(blobs), sum(blob is not None for blob in blobs)
    # at least 95% falsified: 95/100 at full budget
    _require(20 * successes >= 19 * n, f"only {successes}/{n} subspaces falsified")
    _require(elapsed < 600.0, f"batch took {elapsed:.0f}s")
    return (
        f"{successes}/{n} dim-9 subspaces at q=5 falsified with exact certificates "
        f"({elapsed:.1f}s < 600s)"
    )


def criterion_12_determinism_byte_for_byte(budget: Budget) -> str:
    first, _ = _first_falsifier_batch(budget)
    for seed, blob in zip(_FALSIFIER_SEEDS, first):
        _require(_falsify(5, 9, seed)[0] == blob, f"witness differs on rerun for seed {seed}")
    return "rerun with identical seeds reproduces identical witnesses byte for byte"


def criterion_13_canonical_diagonal_labels(budget: Budget) -> str:
    cases = [
        ([1, -1, 0, 0, 0], StratumLabel.D1_ONLY),
        ([1, 1, 0, 0, 0], StratumLabel.D0_ONLY),
        ([1, 0, 0, 0, 0], StratumLabel.D0_AND_D1),
        ([1, 1, 1, 0, 0], StratumLabel.NOT_IN_D2),
    ]
    for diag, want in cases:
        got = classify_d2(HermitianMatrix.diagonal(diag))
        _require(got is want, f"diag {diag}: {got} != {want}")
    cone_cases = [
        ([2, 1, 1, 1, 0], ConeLabel.C1),
        ([3, 2, 1, 1, 1], ConeLabel.C0),
        ([2, 1, 1, 1, 1], ConeLabel.BOTH_BOUNDARY),
        ([1, 1, 1, 1, 1], ConeLabel.VERTEX),
        ([1, 2, 3, 4, 5], ConeLabel.NOT_IN_C2),
    ]
    for diag, want in cone_cases:
        got = classify_cone(HermitianMatrix.diagonal(diag)).label
        _require(got is want, f"cone diag {diag}: {got} != {want}")
    return "canonical diagonals at q = 5 get all 4 stratum and 5 cone labels right"


def criterion_14_falsifier_at_q9(budget: Budget) -> str:
    seeds = range(1, budget.size(20, 100) + 1)
    found = sum(_falsify(9, 49, seed)[0] is not None for seed in seeds)
    _require(20 * found >= 19 * len(seeds), f"only {found}/{len(seeds)} subspaces falsified")
    return f"{found}/{len(seeds)} dim-49 subspaces at q=9 (limit 48) falsified, certified exactly"


def criterion_15_falsifier_at_q17_within_10s(budget: Budget) -> str:
    secs = []
    for seed in range(1, budget.size(1, 5) + 1):
        blob, elapsed = _falsify(17, 225, seed)
        _require(blob is not None, f"seed {seed}: no witness in a dim-225 subspace at q=17")
        _require(elapsed < 10.0, f"seed {seed} took {elapsed:.1f}s")
        secs.append(elapsed)
    return f"{len(secs)} dim-225 subspaces at q=17 (limit 224) falsified, slowest {max(secs):.1f}s"


CRITERIA: Tuple[Callable[[Budget], str], ...] = (
    criterion_01_degree_values_and_form_agreement,
    criterion_02_parity_law_sweep_to_1e6,
    criterion_03_inertia_oracle_equivalence,
    criterion_04_sylvester_invariance,
    criterion_05_sign_count_identities,
    criterion_06_cone_elements_keep_m_le_1,
    criterion_07_nonzero_psd_trace_positive,
    criterion_08_bound_regressions,
    criterion_09_k2_chain,
    criterion_10_catalog_consistency,
    criterion_11_falsifier_statistics,
    criterion_12_determinism_byte_for_byte,
    criterion_13_canonical_diagonal_labels,
    criterion_14_falsifier_at_q9,
    criterion_15_falsifier_at_q17_within_10s,
)
