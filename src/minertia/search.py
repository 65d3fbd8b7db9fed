"""Randomized falsifier and explorer for real subspaces of Hermitian
matrices in which every nonzero element is supposed to keep at least two
positive and two negative eigenvalues.

The search runs on a float fast path (seeded sampling plus coordinate
descent on eigenvalue objectives) and promotes candidates to exact
arithmetic before anything is reported: a returned witness always carries
an exactly recomputed inertia with min(n_plus, n_minus) <= 1.  Absence of
a witness is inconclusive, never a proof.

Determinism: all randomness flows through counter-based streams keyed by
(seed, purpose), every sampled candidate is a pure function of its index,
and worker partitioning never changes which candidates are examined, so
reports are reproducible byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import kernels
from .errors import HypothesisNotMetError
from .exactnum import exact_rational, grid_combination
from .hermitian_core import HermitianMatrix, Inertia, grid_inertia, inertia
from .jsonrecord import json_int, json_list, json_object, json_record
from .kernels import np
from .strata import dim_limit_min_inertia_ge2

_MASK64 = (1 << 64) - 1
_PURPOSE_BASIS = 1
_PURPOSE_FALSIFY = 2
_PURPOSE_GROW = 4  # 3 is retired: renumbering a purpose would change its outputs

_CHUNK = 4096


def _stream(seed: int, purpose: int, salt: int = 0) -> np.random.Generator:
    key = [seed & _MASK64, ((purpose & 0xFFFFFFFF) << 32) | (salt & 0xFFFFFFFF)]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the falsifier, the values the
    CLI sets; the rest of the budget is the module's constants below.

    Results are a deterministic function of the full config; ``workers``
    only affects wall time, not output.
    """

    seed: int
    samples: int = 400
    descent_steps: int = 80
    float_tolerance: float = 1e-9
    workers: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (math.isfinite(self.float_tolerance) and self.float_tolerance > 0):
            raise ValueError("float_tolerance must be finite and positive")
        if self.descent_steps < 0:
            raise ValueError("descent_steps must be >= 0")


DESCENT_STARTS = 12  # descents run from at most this many best samples
CERTIFY_MARGIN = 1e-4  # a descent stops once its objective reaches this
GROW_ATTEMPTS_PER_DIM = 8  # candidates grow_subspace tries for each slot


MODULUS = (1 << 24) - 3  # the largest prime below 2^24
_DOT_TERMS = (2**63 - MODULUS) // (MODULUS - 1) ** 2  # products an int64 sum can hold


def _mod_dot(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x @ rows`` mod MODULUS for int64 arrays with entries in
    [0, MODULUS), x a vector or a stack of them, summed in chunks of
    ``_DOT_TERMS`` rows: a chunk's sum plus a reduced carry stays below
    2^63, so no int64 sum overflows."""
    out = x[..., :_DOT_TERMS] @ rows[:_DOT_TERMS]
    for s in range(_DOT_TERMS, len(rows), _DOT_TERMS):
        out = out % MODULUS + x[..., s : s + _DOT_TERMS] @ rows[s : s + _DOT_TERMS]
    return out % MODULUS


class ModularEchelon:
    """Incremental linear independence of integer vectors over Q.

    :meth:`add_block` tests the rows of an integer array in order.  They
    are reduced mod the prime ``MODULUS`` against rows kept in reduced row
    echelon form as an int64 array: the block is reduced against the old
    rows at once, one product with its entries at the pivots, and each row
    it accepts clears its pivot column from every other row in one
    outer-product update.  Each update builds new arrays, so :meth:`copy`
    is a cheap snapshot.  While the accepted vectors are independent mod p,
    a nonzero reduction proves independence over Q (a rational dependency,
    cleared of denominators and content, would reduce to one mod p).  A
    zero reduction is re-tested by the exact rank of the Gram matrix; a
    vector accepted that way breaks independence mod p, so every later test
    is exact too.
    """

    def __init__(self):
        self.pivots = np.empty(0, dtype=np.intp)
        self.rows: Optional[np.ndarray] = None  # (rank, n) int64, entries mod p
        self.accepted: List[Sequence[int]] = []
        self.exact_only = False

    def copy(self) -> "ModularEchelon":
        new = ModularEchelon()
        new.pivots, new.rows, new.accepted = self.pivots, self.rows, list(self.accepted)
        new.exact_only = self.exact_only
        return new

    def add_block(self, block: np.ndarray) -> List[int]:
        """Test the rows of the (m, n) integer array ``block`` in order,
        accepting each that is independent of the vectors accepted before
        it; return the indices of the rows accepted.  ``block`` is int64,
        or of ``dtype=object`` when its integers do not fit int64."""
        res = (block % MODULUS).astype(np.int64, copy=False)
        rows, pivots, kept = self.rows, self.pivots.tolist(), []
        if rows is None:
            rows = np.empty((0, res.shape[1]), dtype=np.int64)
        elif pivots:
            res = (res - _mod_dot(res[:, self.pivots], rows)) % MODULUS
        old = len(rows)
        a = np.concatenate((rows, res))  # the echelon rows, then the block
        echelon = list(range(old))  # the rows of a that stay in the echelon
        for k, vec in enumerate(block):
            v = a[old + k]
            nonzero = () if self.exact_only else v.nonzero()[0]
            if not len(nonzero):
                if self._exact_add(vec):
                    kept.append(k)
                continue
            lead = nonzero[0]
            v = v * pow(int(v[lead]), -1, MODULUS) % MODULUS
            a = (a - a[:, lead, None] * v) % MODULUS  # clear column lead in every row
            a[old + k] = v
            pivots.append(lead)
            echelon.append(old + k)
            kept.append(k)
            self.accepted.append(vec)
        self.rows, self.pivots = a[echelon], np.array(pivots, dtype=np.intp)
        return kept

    def _exact_add(self, vec) -> bool:
        """Accept ``vec`` iff the Gram matrix with the accepted vectors has
        full rank; once one is accepted so, every later test comes here."""
        vecs = [list(map(int, v)) for v in self.accepted] + [list(map(int, vec))]
        gram = [[sum(map(mul, u, v)) for v in vecs] for u in vecs]
        if grid_inertia(gram, [[0] * len(vecs) for _ in vecs]).rank < len(vecs):
            return False
        self.accepted.append(vec)
        self.exact_only = True
        return True


def _coordinates(grid) -> List[int]:
    """Integer coordinates of a scaled Hermitian grid ``(den, re, im)`` in
    the q^2-dimensional real space of Hermitian matrices: diagonal, then Re
    and Im of the upper triangle (dropping den keeps (in)dependence)."""
    _, re, im = grid
    q = len(re)
    upper = [v for i in range(q) for j in range(i + 1, q) for v in (re[i][j], im[i][j])]
    return [re[i][i] for i in range(q)] + upper


_F64_EXACT = 1 << 53  # every integer of smaller magnitude is a float64


def _float_range(grid) -> Tuple[int, bool]:
    """How a basis matrix's float image is made, from one pass over its
    numerators for the largest |Re| or |Im|, top: the exponent e of the
    exact power of two 2^-e that scales the image into range (0 while
    top / den lies in [2^-1000, 2^1000], else about its binary logarithm),
    and whether den and top lie below 2^53, so that every integer of the
    grid converts to float64 exactly."""
    den, re, im = grid
    top = max(map(abs, chain.from_iterable(re + im)))
    in_range = den <= top << 1000 and top <= den << 1000
    exponent = 0 if in_range else top.bit_length() - den.bit_length()
    return exponent, max(den, top) < _F64_EXACT


class SubspaceBasis:
    """An ordered, exactly independent list of Hermitian matrices spanning
    a real subspace.

    The matrices are held as scaled Gaussian-integer grids ``(den, re, im)``
    (see :func:`~minertia.exactnum.scaled_gaussian_grid`), on which
    :meth:`element` and :meth:`float_image` work directly; the tuple of
    ``HermitianMatrix`` in :attr:`basis` is built from them on first use.
    The constructor checks independence exactly."""

    __slots__ = ("q", "_grids", "_exps", "_f64", "_basis")

    def __init__(self, q: int, basis: Sequence[HermitianMatrix]):
        basis = tuple(basis)
        if any(b.q != q for b in basis):
            raise ValueError("all basis matrices must share the subspace size")
        if len(basis) > q * q:
            raise ValueError(f"dimension {len(basis)} exceeds q^2 = {q * q}")
        grids = tuple((b.den, list(map(list, b.re)), list(map(list, b.im))) for b in basis)
        ranges = [_float_range(g) for g in grids]
        f64 = all(f for _, f in ranges)  # then every coordinate fits int64 too
        coords = np.array([_coordinates(g) for g in grids], dtype=np.int64 if f64 else object)
        kept = ModularEchelon().add_block(coords.reshape(len(grids), q * q))
        if len(kept) < len(grids):
            k = next((i for i, j in enumerate(kept) if i != j), len(kept))
            raise ValueError(f"basis matrix {k} is linearly dependent")
        self._set(q, grids, tuple(e for e, _ in ranges), f64, basis)

    @classmethod
    def _from_grids(cls, q: int, grids: Sequence) -> "SubspaceBasis":
        """A basis of :func:`_grids_of` grids whose independence a
        ``ModularEchelon`` has already established; it is not checked
        again.  Their :func:`_float_range` is (0, True) (see
        :func:`_grids_of`), without computing it."""
        new = object.__new__(cls)
        new._set(q, tuple(grids), (0,) * len(grids), True, None)
        return new

    def _set(self, q, grids, exps, f64, basis):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "_grids", grids)
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_f64", f64)
        object.__setattr__(self, "_basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def basis(self) -> Tuple[HermitianMatrix, ...]:
        if self._basis is None:
            basis = tuple(HermitianMatrix.from_scaled(*g) for g in self._grids)
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._grids)

    def element(self, coeffs: Sequence[Fraction]) -> HermitianMatrix:
        """Exact linear combination sum_i coeffs[i] * basis[i], summed on
        the basis' integer grids; that sum is the matrix's stored grid."""
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must match dimension")
        terms = zip(map(exact_rational, coeffs), self._grids)
        return HermitianMatrix.from_scaled(*grid_combination(self.q, terms))

    def float_image(self) -> np.ndarray:
        """(dim, q, q) complex128 image of the basis, matrix i scaled by
        2^-e_i (see :func:`_float_range`); an unscaled entry equals
        ``complex(entry)``.

        When every den and numerator lies below 2^53 (see :func:`_float_range`),
        all e_i are 0 and each integer converts to float64 exactly, so one
        float64 division of the whole basis gives the correctly rounded
        quotients.  Other bases are divided entry by entry as Python ints,
        whose true division also rounds correctly."""
        shape = (self.dim, self.q, self.q)
        if self._f64:
            grids = self._grids
            den = np.array([g[0] for g in grids], dtype=np.float64).reshape(-1, 1, 1)
            image = np.empty(shape, dtype=np.complex128)
            image.real = np.array([g[1] for g in grids], dtype=np.float64).reshape(shape) / den
            image.imag = np.array([g[2] for g in grids], dtype=np.float64).reshape(shape) / den
            return image
        re_vals: List[float] = []
        im_vals: List[float] = []
        for (den, re, im), e in zip(self._grids, self._exps):
            if e:
                up, den = max(-e, 0), den << max(e, 0)
                re = [[a << up for a in row] for row in re]
                im = [[b << up for b in row] for row in im]
            re_vals += [a / den for row in re for a in row]
            im_vals += [b / den for row in im for b in row]
        image = np.empty(shape, dtype=np.complex128)
        image.real.flat = re_vals
        image.imag.flat = im_vals
        return image

    def _unscale(self, fracs: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        """Basis coefficients of the element that ``fracs`` combine on the
        float image: coefficient i times 2^-e_i, exactly."""
        return tuple(f * Fraction(2) ** -e if e else f for f, e in zip(fracs, self._exps))

    def to_json(self) -> dict:
        return {"q": self.q, "basis": [b.to_json() for b in self.basis]}

    @classmethod
    def from_json(cls, obj: dict) -> "SubspaceBasis":
        json_object(obj, "subspace")
        if "q" not in obj or "basis" not in obj:
            raise ValueError("subspace JSON needs keys 'q' and 'basis'")
        q = json_int(obj["q"], "subspace 'q'")
        basis = json_list(obj["basis"], "subspace 'basis'")
        return cls(q, [HermitianMatrix.from_json(b) for b in basis])


@functools.lru_cache(maxsize=None)
def _draw_layout(q: int):
    """The bounds of one candidate draw, (n, d) pairs with -9 <= n < 10 and
    1 <= d < 10, q^2 of them; where its q^2 values n/d land: the draw
    index of Re and of Im at each (i, j), and the sign of Im there; and the
    draw index of each of its :func:`_coordinates`."""
    re_at = np.zeros((q, q), dtype=np.intp)
    im_at = np.zeros((q, q), dtype=np.intp)
    im_sign = np.zeros((q, q), dtype=np.int64)
    at = 0
    for i in range(q):
        re_at[i, i] = at
        for j in range(i + 1, q):
            re_at[i, j] = re_at[j, i] = at + 1
            im_at[i, j] = im_at[j, i] = at + 2
            im_sign[i, j], im_sign[j, i] = 1, -1
            at += 2
        at += 1
    coord_at = np.array(_coordinates((None, re_at.tolist(), im_at.tolist())), dtype=np.intp)
    bounds = np.array([-9, 1] * (q * q)), np.array([10, 10] * (q * q))
    return bounds, re_at, im_at, im_sign, coord_at


def _draw_block(q: int, rng: np.random.Generator, count: int):
    """``count`` random Hermitian matrices with entries n/d, |n| <= 9,
    1 <= d <= 9, as int64 arrays: each matrix's common denominator (at most
    lcm(1..9) = 2520) and its q^2 numerators over it, in draw order.  Each
    matrix takes 2q^2 integers: per row, the diagonal's (n, d), then (n, d)
    of Re and of Im of each entry right of it (the order of one scalar draw
    per integer).  One call draws all of them with the bounds tiled; that
    gives the same integers, and leaves the generator in the same state, as
    ``count`` draws of one matrix each."""
    (low, high), *_ = _draw_layout(q)
    draws = rng.integers(np.tile(low, count), np.tile(high, count)).reshape(count, -1)
    nums, dens = draws[:, 0::2], draws[:, 1::2]
    g = np.gcd(nums, dens)
    dens = dens // g  # reduced, so den is their least common multiple
    den = np.lcm.reduce(dens, axis=1)
    return den, nums // g * (den[:, None] // dens)


def _grids_of(q: int, den: np.ndarray, vals: np.ndarray) -> List[tuple]:
    """Scaled grids ``(den, re, im)`` of :func:`_draw_block` rows.  Their
    entries lie in [2^-1000, 2^1000] and their integers below 2^53, so a
    grid's :func:`_float_range` is (0, True) and its float image is exact."""
    _, re_at, im_at, im_sign, _ = _draw_layout(q)
    return list(zip(den.tolist(), vals[:, re_at].tolist(), (vals[:, im_at] * im_sign).tolist()))


def random_subspace(q: int, dim: int, seed: int) -> SubspaceBasis:
    """A seeded random subspace of the given dimension; independence is
    enforced exactly, dependent draws are rejected and redrawn.  The
    candidates still needed are drawn in one call, their coordinates are
    one column gather of the drawn integers, and one
    :meth:`ModularEchelon.add_block` tests them in order; grids are built
    only for the rows it accepts.  The basis is the one that drawing and
    testing candidates one at a time gives."""
    if not 1 <= dim <= q * q:
        raise ValueError(f"dim must lie in [1, {q * q}], got {dim}")
    coord_at = _draw_layout(q)[-1]
    rng = _stream(seed, _PURPOSE_BASIS)
    ech = ModularEchelon()
    grids: List[tuple] = []
    while len(grids) < dim:
        den, vals = _draw_block(q, rng, dim - len(grids))
        kept = ech.add_block(vals[:, coord_at])
        grids += _grids_of(q, den[kept], vals[kept])
    return SubspaceBasis._from_grids(q, grids)


def _uncertified(w: "Witness"):
    inr = inertia(w.element)
    if inr != w.inertia or inr.m > 1:
        return f"its element has inertia {inr}, which must equal its 'inertia' and have m <= 1"


@json_record(check=_uncertified)
@dataclass(frozen=True)
class Witness:
    """An exactly certified element with minimal inertia <= 1."""

    coefficients: Tuple[Fraction, ...]
    element: HermitianMatrix
    inertia: Inertia


@json_record
@dataclass(frozen=True)
class SearchReport:
    q: int
    dim: int
    seed: int
    witness: Optional[Witness]
    samples_used: int
    histogram: Dict[int, int]
    workers: int
    backend: str
    escalations: int


_DYADIC_BITS = 24


def _certify(L: SubspaceBasis, coeff_row: np.ndarray) -> Optional[Witness]:
    """Scale float coefficients (on L's float image) to max |c_i| = 1,
    round each to a multiple of 2^-24 (one common dyadic denominator),
    carry them to L's basis and re-verify exactly; None when the row is
    zero or not finite, or the element fails min inertia <= 1."""
    top = np.abs(coeff_row).max(initial=0.0)
    if not (np.isfinite(top) and top > 0):
        return None
    ks = np.rint(coeff_row / top * (1 << _DYADIC_BITS)).astype(np.int64).tolist()
    fracs = L._unscale([Fraction(k, 1 << _DYADIC_BITS) for k in ks])
    element = L.element(fracs)  # nonzero, as the basis is independent
    inr = inertia(element)
    return Witness(fracs, element, inr) if inr.m <= 1 else None


def _exact_m_of_float_coeffs(L: SubspaceBasis, coeff_row: np.ndarray) -> Optional[int]:
    """Exact minimal inertia of the rational lift of a float coefficient
    vector (floats are dyadic rationals, so the lift is exact)."""
    fracs = L._unscale([Fraction(float(x)) for x in coeff_row])
    if not any(fracs):
        return None
    return inertia(L.element(fracs)).m  # a nonzero element, see _certify


def _batched_stats(basisf, coeffs, tol, workers):
    n = coeffs.shape[0]
    chunks = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda se: kernels.batch_stats(basisf, coeffs[se[0] : se[1]], tol), chunks)
            )
    else:
        parts = [kernels.batch_stats(basisf, coeffs[s:e], tol) for s, e in chunks]
    return tuple(np.concatenate(col) for col in zip(*parts))  # npl, nmi, nun, f


def run_search(L: SubspaceBasis, cfg: SearchConfig, _salt: int = 0) -> SearchReport:
    """Full falsifier pass: sampling histogram, exact escalation of
    tolerance-band samples, certification of direct hits, then coordinate
    descent from the most promising starts.

    Descent starts run one at a time in decreasing order of their sampled
    objective, and each is certified as soon as it ends; the first that
    certifies is the witness and no later start runs.  ``samples_used``
    counts the objective evaluations actually made: the samples plus the
    evaluations of the descents that ran."""
    basisf = L.float_image()
    coeffs = _stream(cfg.seed, _PURPOSE_FALSIFY, _salt).standard_normal((cfg.samples, L.dim))
    norms = np.linalg.norm(coeffs, axis=1)
    norms[norms == 0] = 1.0
    coeffs /= norms[:, None]  # seeded unit coefficient rows
    npl, nmi, nun, f = _batched_stats(basisf, coeffs, cfg.float_tolerance, cfg.workers)

    m = np.minimum(npl, nmi)
    certain = nun == 0
    histogram = {k: n for k, n in enumerate(np.bincount(m[certain]).tolist()) if n}
    escalated = np.flatnonzero(~certain)
    for i in escalated:  # tolerance-band samples: their m is decided exactly
        mi = _exact_m_of_float_coeffs(L, coeffs[i])
        if mi is not None:
            histogram[mi] = histogram.get(mi, 0) + 1

    samples_used = int(cfg.samples)
    witness: Optional[Witness] = None
    for i in np.flatnonzero(m <= 1):
        witness = _certify(L, coeffs[i])
        if witness is not None:
            break

    if witness is None:
        for idx in np.argsort(-f, kind="stable")[:DESCENT_STARTS]:
            c, fval, evals, hit = kernels.coordinate_descent(
                basisf, coeffs[idx], cfg.descent_steps, CERTIFY_MARGIN
            )
            samples_used += evals
            if hit or fval >= 0:
                witness = _certify(L, c)
                if witness is not None:
                    break

    return SearchReport(
        q=L.q,
        dim=L.dim,
        seed=cfg.seed,
        witness=witness,
        samples_used=samples_used,
        histogram=histogram,
        workers=cfg.workers,
        backend=kernels.BACKEND,
        escalations=len(escalated),
    )


def falsify_min_inertia(L: SubspaceBasis, cfg: SearchConfig) -> Optional[Witness]:
    """Search for a nonzero element with min(n_plus, n_minus) <= 1.

    A returned witness is exactly certified; None means the budget was
    exhausted without finding one (inconclusive, not a proof)."""
    return run_search(L, cfg).witness


@json_record
@dataclass(frozen=True)
class GrowStep:
    target_slot: int
    attempts: int
    accepted: bool
    rejected_with_witness: int


def _flat_basis(basis: SubspaceBasis) -> list:
    return basis.to_json()["basis"]


def _read_flat_basis(value, doc: dict) -> SubspaceBasis:
    return SubspaceBasis.from_json({"q": doc.get("q"), "basis": value})


@json_record(custom={"basis": (_flat_basis, _read_flat_basis)})
@dataclass(frozen=True)
class GrowReport:
    q: int
    target_dim: int
    achieved_dim: int
    seed: int
    basis: SubspaceBasis
    steps: Tuple[GrowStep, ...]
    certified: bool  # always False: candidates only, never a proof
    warning: Optional[str]

    def __post_init__(self):
        if self.achieved_dim != self.basis.dim:
            raise ValueError(
                f"'achieved_dim' {self.achieved_dim} is not the basis dimension {self.basis.dim}"
            )
        if self.certified is not False:
            raise ValueError("'certified' is true, but growth yields candidates only")


def grow_subspace(q: int, target_dim: int, cfg: SearchConfig) -> GrowReport:
    """Greedy growth of a candidate subspace: a proposal survives when the
    falsifier stays inconclusive on the enlarged span under the configured
    budget.  The result is a non-certified candidate by construction; its
    ``warning`` says when the target exceeds the dimension limit."""
    if not 0 <= target_dim <= q * q:
        raise ValueError(f"target_dim must lie in [0, {q * q}]")
    warning = None
    try:
        limit = dim_limit_min_inertia_ge2(q)
        if target_dim > limit:
            warning = (
                f"target {target_dim} exceeds the dimension limit {limit} "
                f"for q={q}; growth beyond it cannot succeed"
            )
    except HypothesisNotMetError:
        warning = None  # no dimension limit applies to this q

    coord_at = _draw_layout(q)[-1]
    rng = _stream(cfg.seed, _PURPOSE_GROW)
    ech = ModularEchelon()
    grids: List[tuple] = []
    steps: List[GrowStep] = []
    salt = 0
    for slot in range(target_dim):
        attempts = 0
        rejected = 0
        accepted = False
        while attempts < GROW_ATTEMPTS_PER_DIM:
            attempts += 1
            salt += 1
            den, vals = _draw_block(q, rng, 1)
            grown = ech.copy()  # a rejected candidate leaves ech untouched
            if not grown.add_block(vals[:, coord_at]):
                continue
            grid = _grids_of(q, den, vals)[0]
            trial = SubspaceBasis._from_grids(q, grids + [grid])
            report = run_search(trial, cfg, _salt=salt)
            if report.witness is None:
                grids.append(grid)
                ech = grown
                accepted = True
                break
            rejected += 1
        steps.append(GrowStep(slot, attempts, accepted, rejected))
        if not accepted:
            break
    return GrowReport(
        q=q,
        target_dim=target_dim,
        achieved_dim=len(grids),
        seed=cfg.seed,
        basis=SubspaceBasis._from_grids(q, grids),
        steps=tuple(steps),
        certified=False,
        warning=warning,
    )
