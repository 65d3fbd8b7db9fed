"""Randomized falsifier and explorer for real subspaces of Hermitian
matrices in which every nonzero element is supposed to keep at least two
positive and two negative eigenvalues.

The search runs on a float fast path (seeded sampling, then alternating
projection from the best samples) and promotes candidates to exact
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
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import kernels
from .errors import HypothesisNotMetError
from .exactnum import exact_rational
from .hermitian_core import HermitianMatrix, Inertia, grid_inertia, inertia
from .jsonrecord import json_int, json_list, json_object, json_record, record
from .kernels import np
from .strata import dim_limit_min_inertia_ge2

_MASK64 = (1 << 64) - 1
_PURPOSE_BASIS = 1
_PURPOSE_FALSIFY = 2
_PURPOSE_GROW = 4  # 3 is retired: renumbering a purpose would change its outputs

_CHUNK = 4096
_DRAW_DEN = 2520  # lcm(1..9): every drawn denominator divides it


def _stream(seed: int, purpose: int, salt: int = 0) -> np.random.Generator:
    key = [seed & _MASK64, ((purpose & 0xFFFFFFFF) << 32) | (salt & 0xFFFFFFFF)]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@record
class SearchConfig:
    """Budget and reproducibility knobs for the falsifier, the values the
    CLI sets; the rest of the budget is the module's constants below.

    Results are a deterministic function of the full config; ``workers``
    only affects wall time, not output.
    """

    seed: int
    samples: int = 32
    workers: int = 1

    def __post_init__(self):
        json_int(self.seed, "seed")
        if json_int(self.samples, "samples") < 1:
            raise ValueError("samples must be >= 1")
        if json_int(self.workers, "workers") < 1:
            raise ValueError("workers must be >= 1")


FLOAT_TOLERANCE = 1e-9  # a sample with some |lambda| <= this * max|lambda| is decided exactly
PROJECTION_STARTS = 12  # projection runs from at most this many best samples
CERTIFY_MARGIN = 1e-4  # a projection start hits once its objective reaches this
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
    is a cheap snapshot: a :class:`SubspaceBasis` holds the echelon of its
    coordinates and extends a copy of it, leaving its own as it was.
    While the accepted vectors are independent mod p,
    a nonzero reduction proves independence over Q (a rational dependency,
    cleared of denominators and content, would reduce to one mod p).  A
    zero reduction is re-tested by the exact rank of the Gram matrix; a
    vector accepted that way breaks independence mod p, so every later test
    is exact too.  The echelon keeps rows mod p only; its owner passes in
    the accepted vectors.
    """

    def __init__(self):
        self.pivots = np.empty(0, dtype=np.intp)
        self.rows: Optional[np.ndarray] = None  # (rank, n) int64, entries mod p
        self.exact_only = False

    def copy(self) -> "ModularEchelon":
        new = ModularEchelon()
        new.pivots, new.rows, new.exact_only = self.pivots, self.rows, self.exact_only
        return new

    def add_block(self, block: np.ndarray, accepted: Sequence[Sequence[int]]) -> List[int]:
        """Test the rows of the (m, n) integer array ``block`` in order,
        accepting each independent of ``accepted`` (the rows this echelon
        holds) and of the block's rows kept before it; return the indices
        of the rows kept.  ``block`` is int64, or of ``dtype=object`` when
        its integers do not fit int64."""
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
                if self._exact_add([*accepted, *block[kept], vec]):
                    kept.append(k)
                continue
            lead = nonzero[0]
            v = v * pow(int(v[lead]), -1, MODULUS) % MODULUS
            a = (a - a[:, lead, None] * v) % MODULUS  # clear column lead in every row
            a[old + k] = v
            pivots.append(lead)
            echelon.append(old + k)
            kept.append(k)
        self.rows, self.pivots = a[echelon], np.array(pivots, dtype=np.intp)
        return kept

    def _exact_add(self, vecs) -> bool:
        """Accept the last of ``vecs`` (the accepted vectors, then the one
        tested) iff their Gram matrix has full rank; once one is accepted
        so, every later test comes here."""
        vecs = [list(map(int, v)) for v in vecs]
        gram = [[sum(map(mul, u, v)) for v in vecs] for u in vecs]
        if grid_inertia(gram, [[0] * len(vecs) for _ in vecs]).rank < len(vecs):
            return False
        self.exact_only = True
        return True


_F64_EXACT = 1 << 53  # every integer of smaller magnitude is a float64


def _float_range(grid) -> Tuple[int, bool]:
    """How a basis matrix's float image column is made, from one pass over
    its numerators for the largest |Re| or |Im|, top: the exponent e of the
    exact power of two 2^-e that scales the column into range (0 while
    top / den lies in [2^-1000, 2^1000], else about its binary logarithm),
    and whether den and top lie below 2^53, so that every integer of the
    grid converts to float64 exactly."""
    den, re, im = grid
    top = max(map(abs, chain.from_iterable(re + im)))
    in_range = den <= top << 1000 and top <= den << 1000
    exponent = 0 if in_range else top.bit_length() - den.bit_length()
    return exponent, max(den, top) < _F64_EXACT


@functools.lru_cache(maxsize=None)
def _layout(q: int):
    """The order of the q^2 real coordinates of a q x q Hermitian matrix,
    the order one draw produces them in: per row, Re of the diagonal entry,
    then Re and Im of each entry right of it.  Returns the bounds of one
    draw ((n, d) pairs, -9 <= n < 10 and 1 <= d < 10); the gather from the
    Re grid followed by the Im grid, both flattened; the sign of Im at each
    (i, j); the float image's weights, sqrt 2 off the diagonal; and the
    scatter back to a complex grid's real view: the index of Re and of Im
    at each (i, j), (q, q, 2), and their factors, 1 / weight and sign / weight."""
    at = np.zeros((q, q, 2), dtype=np.intp)
    im_sign = np.sign(np.arange(q) - np.arange(q)[:, None])  # sign(j - i)
    gather = []
    for i in range(q):
        at[i, i, 0] = len(gather)
        gather.append(i * q + i)
        for j in range(i + 1, q):
            at[i, j] = at[j, i] = len(gather), len(gather) + 1
            gather += [i * q + j, q * q + i * q + j]
    weight = np.sqrt(2.0 - np.isin(np.arange(q * q), np.diagonal(at[..., 0])))
    unweight = np.stack((1 / weight[at[..., 0]], im_sign / weight[at[..., 1]]), axis=-1)
    bounds = np.array([-9, 1] * (q * q)), np.array([10, 10] * (q * q))
    return bounds, np.array(gather, dtype=np.intp), im_sign, weight, at, unweight


def _grids(coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The Re and Im grids, (..., q, q), of coordinate rows (..., q^2) in
    the order of :func:`_layout`, of the coordinates' dtype."""
    _, _, im_sign, _, at, _ = _layout(math.isqrt(coords.shape[-1]))
    return coords[..., at[..., 0]], coords[..., at[..., 1]] * im_sign


class SubspaceBasis:
    """An ordered, exactly independent list of Hermitian matrices spanning
    a real subspace.

    The matrices are held as integer arrays only: each one's common
    denominator, ``den`` (dim,), not always the least (a drawn matrix's is
    2520), and its numerators over it, ``coords`` (dim, q^2), its real
    coordinates in the order of :func:`_layout`; int64 when every integer
    lies below 2^53 (see :func:`_float_range`) and of ``dtype=object``
    (Python ints) otherwise.  :meth:`float_image` divides and weights
    them, and :meth:`element` is one exact product with them; the tuple
    of ``HermitianMatrix`` in :attr:`basis` is built on first read.
    A basis holds the ``ModularEchelon`` of its coordinates: the
    constructor tests all its matrices in one block on a fresh echelon,
    and :meth:`_extended` tests new rows against a copy of it."""

    __slots__ = ("q", "_den", "_coords", "_exps", "_basis", "_echelon")

    def __init__(self, q: int, basis: Sequence[HermitianMatrix]):
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        basis = tuple(basis)
        if any(b.q != q for b in basis):
            raise ValueError("all basis matrices must share the subspace size")
        if len(basis) > q * q:
            raise ValueError(f"dimension {len(basis)} exceeds q^2 = {q * q}")
        ranges = [_float_range(b.grid) for b in basis]
        dtype = np.int64 if all(f for _, f in ranges) else object
        den = np.array([b.den for b in basis], dtype=dtype)
        grids = np.array([(b.re, b.im) for b in basis], dtype=dtype).reshape(-1, 2 * q * q)
        coords = grids[:, _layout(q)[1]]
        echelon = ModularEchelon()
        kept = echelon.add_block(coords, ())
        if len(kept) < len(basis):  # the first index missing from kept is dependent
            k = next((i for i, j in enumerate(kept) if i != j), len(kept))
            raise ValueError(f"basis matrix {k} is linearly dependent")
        self._set(q, den, coords, tuple(e for e, _ in ranges), basis, echelon)

    def _extended(self, den, coords) -> "SubspaceBasis":
        """This basis followed by each candidate row (``den`` (m,) and
        ``coords`` (m, q^2)) independent of it and of the rows kept before
        it, as a copy of its echelon finds.  A kept row's exponent is 0, as
        a drawn row's is (see :func:`_float_range`)."""
        echelon = self._echelon.copy()
        kept = echelon.add_block(coords, self._coords)
        arrays = (self._den, den[kept]), (self._coords, coords[kept])
        new = object.__new__(SubspaceBasis)
        new._set(self.q, *map(np.concatenate, arrays), self._exps + (0,) * len(kept), None, echelon)
        return new

    def _set(self, q, den, coords, exps, basis, echelon):
        for name, value in zip(self.__slots__, (q, den, coords, exps, basis, echelon)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def basis(self) -> Tuple[HermitianMatrix, ...]:
        if self._basis is None:
            re, im = _grids(self._coords)
            grids = zip(self._den.tolist(), re.tolist(), im.tolist())
            basis = tuple(HermitianMatrix.from_scaled(*g) for g in grids)
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._den)

    def element(self, coeffs: Sequence[Fraction]) -> HermitianMatrix:
        """Exact linear combination sum_i coeffs[i] * basis[i]: the
        coordinates in one product with integer scales over
        den = lcm_i(denominator(coeffs[i]) * den_i), scattered to grids and
        reduced to lowest terms by ``HermitianMatrix.from_scaled``.

        The product is in int64 when the coordinates are and
        sum_i |scale_i| times their largest magnitude lies below 2^63,
        which bounds every partial sum; otherwise it is in Python ints
        (``dtype=object``)."""
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must match dimension")
        fracs = list(map(exact_rational, coeffs))
        dens = [f.denominator * d for f, d in zip(fracs, self._den.tolist())]
        den = math.lcm(*dens)
        scales = [f.numerator * (den // d) for f, d in zip(fracs, dens)]
        coords, dtype = self._coords, object
        total = sum(map(abs, scales))
        if coords.dtype == np.int64 and total < 1 << 63:
            if total * max(1, int(np.abs(coords).max(initial=0))) < 1 << 63:
                dtype = np.int64
        product = np.matmul(np.array(scales, dtype=dtype), coords.astype(dtype, copy=False))
        re, im = _grids(product)
        return HermitianMatrix.from_scaled(den, re.tolist(), im.tolist())

    def float_image(self) -> np.ndarray:
        """(q^2, dim) float64 image of the basis: column i is matrix i's
        coordinates over its denominator times 2^-e_i (see
        :func:`_float_range`), each rounded once (in float64 for int64
        arrays, whose integers convert exactly, and by Python int true
        division for object arrays), then weighted by sqrt 2 off the
        diagonal: the Euclidean inner product of columns is the Frobenius one."""
        den, coords = self._den, self._coords
        if any(self._exps):  # object arrays: multiply by 2^|e_i| on one side
            den = den * np.array([1 << max(e, 0) for e in self._exps], dtype=object)
            coords = coords * np.array([1 << max(-e, 0) for e in self._exps], dtype=object)[:, None]
        image = (coords / den[:, None]).astype(np.float64, copy=False)
        image *= _layout(self.q)[3]
        return image.T

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
def _empty_basis(q: int) -> SubspaceBasis:
    """The basis of no matrices, which drawn bases extend."""
    return SubspaceBasis(q, ())


def _draw_block(q: int, rng: np.random.Generator, count: int):
    """``count`` random Hermitian matrices with entries n/d, |n| <= 9,
    1 <= d <= 9, as int64 arrays: each matrix's denominator, always 2520
    (not always the least; the scale it puts on the coordinates is a unit
    mod the prime ``MODULUS``, so the echelon keeps the same candidates),
    and its q^2 coordinates over it, n * (2520 / d).  Each matrix takes
    2q^2 integers, one (n, d) per coordinate in the order of
    :func:`_layout` (the order of one scalar draw per integer).  One call
    draws all of them, a (count, 2q^2) array on the bounds broadcast; that
    gives the same integers, and leaves the generator in the same state,
    as ``count`` draws of one matrix each."""
    (low, high), *_ = _layout(q)
    draws = rng.integers(low, high, size=(count, low.size))
    return np.full(count, _DRAW_DEN, dtype=np.int64), draws[:, 0::2] * (_DRAW_DEN // draws[:, 1::2])


def random_subspace(q: int, dim: int, seed: int) -> SubspaceBasis:
    """A seeded random subspace of the given dimension; independence is
    enforced exactly, dependent draws are rejected and redrawn.  The
    candidates still needed are drawn in one call and tested in order by
    one :meth:`SubspaceBasis._extended`; the basis is the one that drawing
    and testing candidates one at a time gives."""
    if not 1 <= dim <= q * q:
        raise ValueError(f"dim must lie in [1, {q * q}], got {dim}")
    rng = _stream(seed, _PURPOSE_BASIS)
    L = _empty_basis(q)
    while L.dim < dim:
        L = L._extended(*_draw_block(q, rng, dim - L.dim))
    return L


def _uncertified(w: "Witness"):
    inr = inertia(w.element)
    if inr != w.inertia or inr.m > 1:
        return f"its element has inertia {inr}, which must equal its 'inertia' and have m <= 1"


@json_record(check=_uncertified)
class Witness:
    """An exactly certified element with minimal inertia <= 1."""

    coefficients: Tuple[Fraction, ...]
    element: HermitianMatrix
    inertia: Inertia


def _inconsistent(r: "SearchReport"):
    q, w = r.q, r.witness
    if q < 1 or not 0 <= r.dim <= q * q:
        return f"q = {q} and dim = {r.dim} need q >= 1 and 0 <= dim <= q^2"
    if w is not None and (w.element.q, len(w.coefficients)) != (q, r.dim):
        return f"its witness needs a {q} x {q} element and {r.dim} coefficients"
    if min(r.workers, r.samples_used) < 1 or r.escalations < 0:
        return "'workers' and 'samples_used' must be >= 1 and 'escalations' >= 0"
    if not all(0 <= k <= q // 2 and n >= 1 for k, n in r.histogram.items()):
        return f"'histogram' needs keys in [0, {q // 2}] and counts >= 1"


@json_record(check=_inconsistent)
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
    vector (floats are dyadic rationals, so the lift is exact); None when
    the row is zero or not finite (a lift past a tiny pivot may overflow)."""
    if not (np.isfinite(coeff_row).all() and coeff_row.any()):
        return None
    fracs = L._unscale([Fraction(float(x)) for x in coeff_row])
    return inertia(L.element(fracs)).m  # a nonzero element, see _certify


def _batched_stats(span, coords, tol, workers):
    chunks = [coords[s : s + _CHUNK] for s in range(0, len(coords), _CHUNK)]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda chunk: kernels.batch_stats(span, chunk, tol), chunks))
    else:
        parts = [kernels.batch_stats(span, chunk, tol) for chunk in chunks]
    return tuple(np.concatenate(col) for col in zip(*parts))  # npl, nmi, nun, f


def run_search(L: SubspaceBasis, cfg: SearchConfig, _salt: int = 0) -> SearchReport:
    """Full falsifier pass in the coordinates z on Q of one QR of L's float
    image (:func:`~minertia.kernels.orthonormal_span`), made before the
    samples, seeded unit vectors z: uniform on the unit sphere of L's span
    in the Frobenius norm.  Q's columns become q x q matrices once, by the
    scatter of :func:`_layout`.  A sampling histogram, exact escalation of
    tolerance-band samples and certification of direct hits (m <= 1, by
    the exact m for escalated ones), then alternating projection
    (:func:`~minertia.kernels.alternating_projection`) from the best
    samples, one start at a time, until a hit certifies.  Every candidate
    reaches exact arithmetic through the basis coefficients of Q z.
    ``samples_used`` counts the samples plus the iterations that ran."""
    span, r, keep = kernels.orthonormal_span(L.float_image())
    *_, at, unweight = _layout(L.q)
    span = span[at.ravel()]  # (2q^2, r): each column's matrix as a complex grid's real view
    span *= unweight.reshape(-1, 1)
    z = _stream(cfg.seed, _PURPOSE_FALSIFY, _salt).standard_normal((cfg.samples, len(keep)))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    z /= norms[:, None]  # seeded unit coordinate rows
    npl, nmi, nun, f = _batched_stats(span, z, FLOAT_TOLERANCE, cfg.workers)
    lift = functools.partial(kernels.span_coefficients, r, keep, dim=L.dim)  # z -> c of Q z

    m = np.minimum(npl, nmi)
    certain = nun == 0
    histogram = {k: n for k, n in enumerate(np.bincount(m[certain]).tolist()) if n}
    escalated = np.flatnonzero(~certain)
    for i in escalated:  # tolerance-band samples: their m is decided exactly
        mi = _exact_m_of_float_coeffs(L, lift(z[i]))
        if mi is not None:
            histogram[mi] = histogram.get(mi, 0) + 1
        m[i] = 2 if mi is None else mi  # certify below only an exact m <= 1

    samples_used = int(cfg.samples)
    witness: Optional[Witness] = None
    for i in np.flatnonzero(m <= 1):
        witness = _certify(L, lift(z[i]))
        if witness is not None:
            break

    if witness is None:
        for z0 in z[np.argsort(-f, kind="stable")[:PROJECTION_STARTS]]:
            zh, _, iterations, hit = kernels.alternating_projection(span, z0, CERTIFY_MARGIN)
            samples_used += iterations
            if hit:
                witness = _certify(L, lift(zh))
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
class GrowStep:
    target_slot: int
    attempts: int
    accepted: bool
    rejected_with_witness: int


def _flat_basis(basis: SubspaceBasis) -> list:
    return basis.to_json()["basis"]


def _read_flat_basis(value, doc: dict) -> SubspaceBasis:
    return SubspaceBasis.from_json({"q": doc.get("q"), "basis": value})


@json_record(custom={"basis": (_flat_basis, _read_flat_basis)}, derived=("certified", "warning"))
class GrowReport:
    q: int
    target_dim: int
    achieved_dim: int
    seed: int
    basis: SubspaceBasis
    steps: Tuple[GrowStep, ...]

    def __post_init__(self):
        if self.achieved_dim != self.basis.dim:
            raise ValueError(
                f"'achieved_dim' {self.achieved_dim} is not the basis dimension {self.basis.dim}"
            )

    @property
    def certified(self) -> bool:
        """Always False: growth yields candidates only, never a proof."""
        return False

    @property
    def warning(self) -> Optional[str]:
        """What a target above the dimension limit means, or None."""
        try:
            limit = dim_limit_min_inertia_ge2(self.q)
        except HypothesisNotMetError:
            return None  # no dimension limit applies to this q
        if self.target_dim <= limit:
            return None
        return (
            f"target {self.target_dim} exceeds the dimension limit {limit} for q={self.q}; "
            "every subspace of larger dimension contains an element with m <= 1, "
            "so a larger achieved dimension means the budget missed one"
        )


def grow_subspace(q: int, target_dim: int, cfg: SearchConfig) -> GrowReport:
    """Greedy growth of a candidate subspace: a proposal survives when the
    falsifier stays inconclusive on the enlarged span under the configured
    budget.  The result is a non-certified candidate by construction; its
    ``warning`` says when the target exceeds the dimension limit."""
    if not 0 <= target_dim <= q * q:
        raise ValueError(f"target_dim must lie in [0, {q * q}]")
    rng = _stream(cfg.seed, _PURPOSE_GROW)
    L = _empty_basis(q)
    steps: List[GrowStep] = []
    salt = 0
    for slot in range(target_dim):
        attempts = 0
        rejected = 0
        accepted = False
        while attempts < GROW_ATTEMPTS_PER_DIM:
            attempts += 1
            salt += 1
            trial = L._extended(*_draw_block(q, rng, 1))
            if trial.dim == L.dim:  # a dependent candidate
                continue
            if run_search(trial, cfg, _salt=salt).witness is None:
                L = trial
                accepted = True
                break
            rejected += 1
        steps.append(GrowStep(slot, attempts, accepted, rejected))
        if not accepted:
            break
    return GrowReport(
        q=q,
        target_dim=target_dim,
        achieved_dim=L.dim,
        seed=cfg.seed,
        basis=L,
        steps=tuple(steps),
    )
