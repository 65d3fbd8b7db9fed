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

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import HypothesisNotMetError
from .exactnum import GaussianRational, format_rational, parse_rational, scaled_gaussian_grid
from .hermitian_core import HermitianMatrix, Inertia, grid_inertia, inertia
from .strata import dim_limit_min_inertia_ge2

_MASK64 = (1 << 64) - 1
_PURPOSE_BASIS = 1
_PURPOSE_FALSIFY = 2
_PURPOSE_PROFILE = 3
_PURPOSE_GROW = 4

_CHUNK = 4096


def _stream(seed: int, purpose: int, salt: int = 0) -> np.random.Generator:
    key = [seed & _MASK64, ((purpose & 0xFFFFFFFF) << 32) | (salt & 0xFFFFFFFF)]
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the falsifier.

    Results are a deterministic function of the full config; ``workers``
    only affects wall time, not output.
    """

    seed: int
    samples: int = 400
    descent_steps: int = 80
    float_tolerance: float = 1e-9
    workers: int = 1
    denominator_cap: int = 1 << 16
    descent_starts: int = 12
    certify_margin: float = 1e-4
    verify_fraction: float = 0.02
    grow_attempts_per_dim: int = 8

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.float_tolerance <= 0:
            raise ValueError("float_tolerance must be positive")
        if self.denominator_cap < 1:
            raise ValueError("denominator_cap must be >= 1")
        if not 0 <= self.verify_fraction <= 1:
            raise ValueError("verify_fraction must lie in [0, 1]")


MODULUS = (1 << 61) - 1  # Mersenne prime


class ModularEchelon:
    """Incremental linear independence of integer vectors over Q.

    Vectors are reduced mod the prime ``MODULUS`` against echelon rows that
    are only appended, so :meth:`copy` is a cheap snapshot.  While the
    accepted vectors are independent mod p, a nonzero reduction proves
    independence over Q (a rational dependency, cleared of denominators and
    content, would reduce to one mod p).  A zero reduction is re-tested by
    the exact rank of the Gram matrix; a vector accepted that way breaks
    independence mod p, so every later test is exact too.
    """

    def __init__(self):
        self.rows: List[Tuple[int, List[int]]] = []  # (pivot, row[pivot:])
        self.accepted: List[Sequence[int]] = []
        self.exact_only = False

    def copy(self) -> "ModularEchelon":
        new = ModularEchelon()
        new.rows, new.accepted = list(self.rows), list(self.accepted)
        new.exact_only = self.exact_only
        return new

    def try_add(self, vec: Sequence[int]) -> bool:
        """Accept ``vec`` and return True iff it is independent of the
        vectors accepted so far."""
        if not self.exact_only:
            row = [v % MODULUS for v in vec]
            for p, tail in self.rows:
                f = row[p] % MODULUS
                if f:  # entries are reduced once, at the end
                    row[p:] = [a - f * b for a, b in zip(row[p:], tail)]
            row = [v % MODULUS for v in row]
            lead = next((k for k, v in enumerate(row) if v), None)
            if lead is not None:
                inv = pow(row[lead], -1, MODULUS)
                self.rows.append((lead, [v * inv % MODULUS for v in row[lead:]]))
                self.accepted.append(vec)
                return True
        vecs = self.accepted + [vec]
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


class SubspaceBasis:
    """An ordered, exactly independent list of Hermitian matrices spanning
    a real subspace."""

    __slots__ = ("q", "basis", "_grids")

    def __init__(self, q: int, basis: Sequence[HermitianMatrix]):
        basis = tuple(basis)
        if any(b.q != q for b in basis):
            raise ValueError("all basis matrices must share the subspace size")
        if len(basis) > q * q:
            raise ValueError(f"dimension {len(basis)} exceeds q^2 = {q * q}")
        grids = tuple(scaled_gaussian_grid(b.entries) for b in basis)
        ech = ModularEchelon()
        for k, grid in enumerate(grids):
            if not ech.try_add(_coordinates(grid)):
                raise ValueError(f"basis matrix {k} is linearly dependent")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_grids", grids)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs: Sequence[Fraction]) -> HermitianMatrix:
        """Exact linear combination sum_i coeffs[i] * basis[i], summed on
        the basis' integer grids over one common denominator."""
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must match dimension")
        terms = [(f, g) for f, g in zip(map(Fraction, coeffs), self._grids) if f]
        den = math.lcm(*(f.denominator * g[0] for f, g in terms))
        re = im = [[0] * self.q] * self.q  # rows are replaced below, never mutated
        for f, (d, br, bi) in terms:
            s = f.numerator * (den // (f.denominator * d))
            re = [[a + s * b for a, b in zip(ra, rb)] for ra, rb in zip(re, br)]
            im = [[a + s * b for a, b in zip(ia, ib)] for ia, ib in zip(im, bi)]
        return HermitianMatrix.from_scaled(den, re, im)

    def float_image(self) -> np.ndarray:
        """(dim, q, q) complex128 image of the basis."""
        return np.array(
            [b.to_complex_rows() for b in self.basis], dtype=np.complex128
        ).reshape(self.dim, self.q, self.q)

    def to_json(self) -> dict:
        return {"q": self.q, "basis": [b.to_json() for b in self.basis]}

    @classmethod
    def from_json(cls, obj: dict) -> "SubspaceBasis":
        return cls(
            int(obj["q"]), [HermitianMatrix.from_json(b) for b in obj["basis"]]
        )


def _random_hermitian(q: int, rng: np.random.Generator, max_num=9, max_den=9) -> HermitianMatrix:
    # bounded-denominator rational entries
    def frac():
        return Fraction(
            int(rng.integers(-max_num, max_num + 1)),
            int(rng.integers(1, max_den + 1)),
        )

    entries = [[None] * q for _ in range(q)]
    for i in range(q):
        entries[i][i] = GaussianRational(frac())
        for j in range(i + 1, q):
            z = GaussianRational(frac(), frac())
            entries[i][j] = z
            entries[j][i] = z.conj()
    return HermitianMatrix(entries)


def random_subspace(q: int, dim: int, seed: int) -> SubspaceBasis:
    """A seeded random subspace of the given dimension; independence is
    enforced exactly, dependent draws are rejected and redrawn."""
    if not 1 <= dim <= q * q:
        raise ValueError(f"dim must lie in [1, {q * q}], got {dim}")
    rng = _stream(seed, _PURPOSE_BASIS)
    ech = ModularEchelon()
    basis: List[HermitianMatrix] = []
    while len(basis) < dim:
        cand = _random_hermitian(q, rng)
        if ech.try_add(_coordinates(scaled_gaussian_grid(cand.entries))):
            basis.append(cand)
    return SubspaceBasis(q, basis)


@dataclass(frozen=True)
class Witness:
    """An exactly certified element with minimal inertia <= 1."""

    coefficients: Tuple[Fraction, ...]
    element: HermitianMatrix
    inertia: Inertia

    def to_json(self) -> dict:
        return {
            "coefficients": [format_rational(c) for c in self.coefficients],
            "element": self.element.to_json(),
            "inertia": self.inertia.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Witness":
        return cls(
            tuple(parse_rational(c) for c in obj["coefficients"]),
            HermitianMatrix.from_json(obj["element"]),
            Inertia.from_json(obj["inertia"]),
        )


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

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "dim": self.dim,
            "seed": self.seed,
            "witness": None if self.witness is None else self.witness.to_json(),
            "samples_used": self.samples_used,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "workers": self.workers,
            "backend": self.backend,
            "escalations": self.escalations,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchReport":
        return cls(
            int(obj["q"]),
            int(obj["dim"]),
            int(obj["seed"]),
            None if obj["witness"] is None else Witness.from_json(obj["witness"]),
            int(obj["samples_used"]),
            {int(k): int(v) for k, v in obj["histogram"].items()},
            int(obj["workers"]),
            str(obj["backend"]),
            int(obj["escalations"]),
        )


def _certify(
    L: SubspaceBasis, coeff_row: np.ndarray, cap: int
) -> Optional[Witness]:
    """Round float coefficients to rationals and re-verify exactly;
    None when the rounded element is zero or fails min inertia <= 1."""
    fracs = tuple(Fraction(float(x)).limit_denominator(cap) for x in coeff_row)
    if not any(fracs):
        return None
    element = L.element(fracs)  # nonzero, as the basis is independent
    inr = inertia(element)
    return Witness(fracs, element, inr) if inr.m <= 1 else None


def _exact_m_of_float_coeffs(L: SubspaceBasis, coeff_row: np.ndarray) -> Optional[int]:
    """Exact minimal inertia of the rational lift of a float coefficient
    vector (floats are dyadic rationals, so the lift is exact)."""
    fracs = tuple(Fraction(float(x)) for x in coeff_row)
    if not any(fracs):
        return None
    return inertia(L.element(fracs)).m  # a nonzero element, see _certify


def _batched_stats(basisf, coeffs, tol, workers):
    n = coeffs.shape[0]
    chunks = [(s, min(s + _CHUNK, n)) for s in range(0, n, _CHUNK)]
    if workers > 1 and len(chunks) > 1:
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
    descent from the most promising starts."""
    basisf = L.float_image()
    rng = _stream(cfg.seed, _PURPOSE_FALSIFY, _salt)
    coeffs = rng.standard_normal((cfg.samples, L.dim))
    norms = np.linalg.norm(coeffs, axis=1)
    norms[norms == 0] = 1.0
    coeffs /= norms[:, None]

    npl, nmi, nun, f = _batched_stats(basisf, coeffs, cfg.float_tolerance, cfg.workers)

    histogram: Dict[int, int] = {}
    escalations = 0
    samples_used = int(cfg.samples)
    for i in range(cfg.samples):
        if nun[i] > 0:
            escalations += 1
            m = _exact_m_of_float_coeffs(L, coeffs[i])
            if m is None:
                continue
        else:
            m = int(min(npl[i], nmi[i]))
        histogram[m] = histogram.get(m, 0) + 1

    witness: Optional[Witness] = None
    candidate_idx = np.nonzero(np.minimum(npl, nmi) <= 1)[0]
    for i in candidate_idx:
        witness = _certify(L, coeffs[i], cfg.denominator_cap)
        if witness is not None:
            break

    if witness is None and cfg.descent_starts > 0:
        order = np.argsort(-f, kind="stable")[: cfg.descent_starts]
        descent_results = []
        for rank_pos, idx in enumerate(order):
            c, fval, evals, hit = kernels.coordinate_descent(
                basisf, coeffs[idx], cfg.descent_steps, cfg.certify_margin
            )
            samples_used += evals
            descent_results.append((rank_pos, c, fval, hit))
        for rank_pos, c, fval, hit in descent_results:
            if hit or fval >= 0:
                w = _certify(L, c, cfg.denominator_cap)
                if w is not None:
                    witness = w
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
        escalations=escalations,
    )


def falsify_min_inertia(L: SubspaceBasis, cfg: SearchConfig) -> Optional[Witness]:
    """Search for a nonzero element with min(n_plus, n_minus) <= 1.

    A returned witness is exactly certified; None means the budget was
    exhausted without finding one (inconclusive, not a proof)."""
    return run_search(L, cfg).witness


@dataclass(frozen=True)
class ProfileReport:
    q: int
    dim: int
    seed: int
    samples: int
    histogram: Dict[int, int]
    escalations: int
    spot_checked: int
    spot_mismatches: int
    workers: int
    backend: str

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "dim": self.dim,
            "seed": self.seed,
            "samples": self.samples,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "escalations": self.escalations,
            "spot_checked": self.spot_checked,
            "spot_mismatches": self.spot_mismatches,
            "workers": self.workers,
            "backend": self.backend,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ProfileReport":
        return cls(
            int(obj["q"]),
            int(obj["dim"]),
            int(obj["seed"]),
            int(obj["samples"]),
            {int(k): int(v) for k, v in obj["histogram"].items()},
            int(obj["escalations"]),
            int(obj["spot_checked"]),
            int(obj["spot_mismatches"]),
            int(obj["workers"]),
            str(obj["backend"]),
        )


def empirical_min_inertia_profile(L: SubspaceBasis, cfg: SearchConfig) -> ProfileReport:
    """Histogram of minimal inertia over sampled unit elements.

    Float fast path with exact escalation of tolerance-band samples and
    exact spot verification of a configurable fraction; identical output
    for any worker count."""
    basisf = L.float_image()
    rng = _stream(cfg.seed, _PURPOSE_PROFILE)
    coeffs = rng.standard_normal((cfg.samples, L.dim))
    norms = np.linalg.norm(coeffs, axis=1)
    norms[norms == 0] = 1.0
    coeffs /= norms[:, None]

    npl, nmi, nun, _ = _batched_stats(basisf, coeffs, cfg.float_tolerance, cfg.workers)

    spot_every = int(round(1 / cfg.verify_fraction)) if cfg.verify_fraction > 0 else 0
    histogram: Dict[int, int] = {}
    escalations = 0
    spot_checked = 0
    spot_mismatches = 0
    for i in range(cfg.samples):
        if nun[i] > 0:
            escalations += 1
            m = _exact_m_of_float_coeffs(L, coeffs[i])
            if m is None:
                continue
        else:
            m = int(min(npl[i], nmi[i]))
            if spot_every and i % spot_every == 0:
                spot_checked += 1
                exact = _exact_m_of_float_coeffs(L, coeffs[i])
                if exact is not None and exact != m:
                    spot_mismatches += 1
                    m = exact
        histogram[m] = histogram.get(m, 0) + 1

    return ProfileReport(
        q=L.q,
        dim=L.dim,
        seed=cfg.seed,
        samples=cfg.samples,
        histogram=histogram,
        escalations=escalations,
        spot_checked=spot_checked,
        spot_mismatches=spot_mismatches,
        workers=cfg.workers,
        backend=kernels.BACKEND,
    )


@dataclass(frozen=True)
class GrowStep:
    target_slot: int
    attempts: int
    accepted: bool
    rejected_with_witness: int

    def to_json(self) -> dict:
        return {
            "target_slot": self.target_slot,
            "attempts": self.attempts,
            "accepted": self.accepted,
            "rejected_with_witness": self.rejected_with_witness,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GrowStep":
        return cls(
            int(obj["target_slot"]),
            int(obj["attempts"]),
            bool(obj["accepted"]),
            int(obj["rejected_with_witness"]),
        )


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

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "target_dim": self.target_dim,
            "achieved_dim": self.achieved_dim,
            "seed": self.seed,
            "basis": [b.to_json() for b in self.basis.basis],
            "steps": [s.to_json() for s in self.steps],
            "certified": self.certified,
            "warning": self.warning,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GrowReport":
        q = int(obj["q"])
        return cls(
            q=q,
            target_dim=int(obj["target_dim"]),
            achieved_dim=int(obj["achieved_dim"]),
            seed=int(obj["seed"]),
            basis=SubspaceBasis(
                q, [HermitianMatrix.from_json(b) for b in obj["basis"]]
            ),
            steps=tuple(GrowStep.from_json(s) for s in obj["steps"]),
            certified=bool(obj["certified"]),
            warning=obj["warning"],
        )


def grow_subspace(q: int, target_dim: int, cfg: SearchConfig) -> GrowReport:
    """Greedy growth of a candidate subspace: a proposal survives when the
    falsifier stays inconclusive on the enlarged span under the configured
    budget.  The result is a non-certified candidate by construction."""
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
    if warning:
        warnings.warn(warning)

    rng = _stream(cfg.seed, _PURPOSE_GROW)
    ech = ModularEchelon()
    basis: List[HermitianMatrix] = []
    steps: List[GrowStep] = []
    salt = 0
    for slot in range(target_dim):
        attempts = 0
        rejected = 0
        accepted = False
        while attempts < cfg.grow_attempts_per_dim:
            attempts += 1
            salt += 1
            cand = _random_hermitian(q, rng)
            grown = ech.copy()  # a rejected candidate leaves ech untouched
            if not grown.try_add(_coordinates(scaled_gaussian_grid(cand.entries))):
                continue
            trial = SubspaceBasis(q, basis + [cand])
            report = run_search(trial, cfg, _salt=salt)
            if report.witness is None:
                basis.append(cand)
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
        achieved_dim=len(basis),
        seed=cfg.seed,
        basis=SubspaceBasis(q, basis),
        steps=tuple(steps),
        certified=False,
        warning=warning,
    )
