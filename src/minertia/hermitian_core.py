"""Hermitian matrices over the Gaussian rationals and their exact inertia.

The central routine is :func:`inertia`: a fraction-free (Bareiss-style)
symmetric congruence elimination on the matrix scaled to Gaussian integers,
reading the signature off the pivots.  Sylvester's law of inertia makes the
sign counts independent of the congruences chosen, so no eigenvalues are
ever computed.  :func:`char_poly` uses Berkowitz's division-free algorithm
on the same integer form; the two share no elimination step, so they serve
as independent checks of each other (see :mod:`minertia.oracles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import InconsistencyError, NotHermitianError, SingularTransformError
from .exactnum import GaussianRational, RationalPolynomial, scaled_gaussian_grid


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a Hermitian matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def q(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def m(self) -> int:
        """Minimal inertia min(n_plus, n_minus); 0 iff the matrix is semidefinite."""
        return min(self.n_plus, self.n_minus)

    def negated(self) -> "Inertia":
        return Inertia(self.n_minus, self.n_plus, self.n_zero)

    def to_json(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "n_zero": self.n_zero,
            "m": self.m,
            "rank": self.rank,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Inertia":
        return cls(int(obj["n_plus"]), int(obj["n_minus"]), int(obj["n_zero"]))


def _as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, tuple) and len(value) == 2:
        return GaussianRational(Fraction(value[0]), Fraction(value[1]))
    raise TypeError(f"cannot interpret {value!r} as a matrix entry")


class HermitianMatrix:
    """Immutable q x q matrix with exact Gaussian-rational entries.

    Conjugate symmetry (entries[i][j] == conj(entries[j][i])) is validated
    once, on construction; every operation below preserves it.
    """

    __slots__ = ("q", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        rows = [tuple(_as_gaussian(e) for e in row) for row in entries]
        q = len(rows)
        if q == 0 or any(len(row) != q for row in rows):
            raise NotHermitianError("entries must form a nonempty square grid")
        for i in range(q):
            for j in range(i, q):
                if rows[i][j] != rows[j][i].conj():
                    raise NotHermitianError(
                        f"conjugate symmetry fails at ({i},{j}): "
                        f"{rows[i][j]} vs conj({rows[j][i]})"
                    )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @classmethod
    def zero(cls, q: int) -> "HermitianMatrix":
        return cls([[0] * q for _ in range(q)])

    @classmethod
    def identity(cls, q: int) -> "HermitianMatrix":
        return cls([[1 if i == j else 0 for j in range(q)] for i in range(q)])

    @classmethod
    def diagonal(cls, values: Sequence) -> "HermitianMatrix":
        vals = [Fraction(v) for v in values]
        q = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(q)] for i in range(q)])

    @classmethod
    def scalar(cls, q: int, s) -> "HermitianMatrix":
        return cls.diagonal([Fraction(s)] * q)

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i][j]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_scalar(self) -> bool:
        d = self.entries[0][0]
        rows = enumerate(self.entries)
        return all(e == (d if i == j else 0) for i, row in rows for j, e in enumerate(row))

    def trace(self) -> Fraction:
        return sum((self.entries[i][i].re for i in range(self.q)), Fraction(0))

    def add(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_size(other)
        pairs = zip(self.entries, other.entries)
        return HermitianMatrix([[a + b for a, b in zip(r, s)] for r, s in pairs])

    def sub(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_size(other)
        pairs = zip(self.entries, other.entries)
        return HermitianMatrix([[a - b for a, b in zip(r, s)] for r, s in pairs])

    def scale(self, factor) -> "HermitianMatrix":
        """Scale by a real rational; complex factors would break Hermitian symmetry."""
        f = Fraction(factor)
        return HermitianMatrix(
            [[e * f for e in row] for row in self.entries]
        )

    def neg(self) -> "HermitianMatrix":
        return self.scale(-1)

    def shift(self, s) -> "HermitianMatrix":
        """X - s*I for a real rational s."""
        s = Fraction(s)
        rows = enumerate(self.entries)
        return HermitianMatrix([[e - s if i == j else e for j, e in enumerate(r)] for i, r in rows])

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"HermitianMatrix(q={self.q})"

    def _check_size(self, other: "HermitianMatrix"):
        if self.q != other.q:
            raise ValueError(f"size mismatch: {self.q} vs {other.q}")

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianMatrix":
        if not isinstance(obj, dict) or "q" not in obj or "entries" not in obj:
            raise ValueError("matrix JSON needs keys 'q' and 'entries'")
        q = int(obj["q"])
        entries = obj["entries"]
        if len(entries) != q or any(len(row) != q for row in entries):
            raise ValueError(f"entries must be a full {q}x{q} grid")
        return cls([[GaussianRational.from_json(e) for e in row] for row in entries])

    @classmethod
    def from_scaled(cls, den: int, re: list, im: list) -> "HermitianMatrix":
        """Inverse of :func:`~minertia.exactnum.scaled_gaussian_grid`."""
        def z(a, b):
            return GaussianRational(Fraction(a, den), Fraction(b, den))

        return cls([[z(a, b) for a, b in zip(ra, ia)] for ra, ia in zip(re, im)])

    def to_complex_rows(self) -> list:
        """Float image, row-major nested lists of python complex."""
        return [[complex(e) for e in row] for row in self.entries]


def _exact_quotient(a: int, b: int) -> int:
    quo, rem = divmod(a, b)
    if rem:
        raise InconsistencyError(f"fraction-free division by {b} left remainder {rem}")
    return quo


def grid_inertia(re: list, im: list) -> Inertia:
    """Exact signature of the Hermitian matrix re + i*im of integer grids
    (any positive scale; overwritten) by fraction-free symmetric elimination.

    Bareiss' scheme with symmetric pivots: after pivots d_1..d_k each active
    entry is a (k+1)-minor of a congruent copy of the input, so the update
    (d*a_kl - a_kp*a_pl) / prev divides exactly (checked), and the step's
    true pivot is d / prev.  Pivot on the nonzero diagonal entry of smallest
    bit size; if the active diagonal is all zero but some h_ij is not, the
    congruence e_i -> e_i + c*e_j with c in {1, i} makes (i,i) nonzero.
    Sylvester's law makes the pivot signs the eigenvalue sign counts.
    """
    active = list(range(len(re)))
    n_plus = n_minus = n_zero = 0
    prev = 1
    while active:
        pivot = best = None
        for p in active:
            if im[p][p]:
                raise InconsistencyError(f"non-real diagonal at {p}: {im[p][p]}i")
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
            cr, ci = (1, 0) if re[i][j] else (0, 1)  # c = cr + i*ci
            for l in active:  # row i += conj(c) * row j
                re[i][l] += cr * re[j][l] + ci * im[j][l]
                im[i][l] += cr * im[j][l] - ci * re[j][l]
            for k in active:  # then column i += c * column j
                re[k][i] += cr * re[k][j] - ci * im[k][j]
                im[k][i] += cr * im[k][j] + ci * re[k][j]
            continue
        d = re[pivot][pivot]
        positive = (d > 0) == (prev > 0)  # the true pivot is d / prev
        n_plus, n_minus = n_plus + positive, n_minus + (not positive)
        active.remove(pivot)
        pr, pi = re[pivot], im[pivot]
        for k in active:
            rk, ik = re[k], im[k]
            a, b = rk[pivot], ik[pivot]
            for l in active:
                rk[l] = _exact_quotient(d * rk[l] - a * pr[l] + b * pi[l], prev)
                ik[l] = _exact_quotient(d * ik[l] - a * pi[l] - b * pr[l], prev)
        prev = d
    return Inertia(n_plus, n_minus, n_zero)


def inertia(X: HermitianMatrix) -> Inertia:
    """Exact signature of X (see :func:`grid_inertia`); no eigenvalues."""
    _, re, im = scaled_gaussian_grid(X.entries)
    return grid_inertia(re, im)


def minimal_inertia(X: HermitianMatrix) -> int:
    """min(n_plus, n_minus): zero exactly for semidefinite matrices."""
    return inertia(X).m


def rank(X: HermitianMatrix) -> int:
    return inertia(X).rank


def _gaussian_dot(xr, xi, ur, ui):
    # sum_k (xr_k + i*xi_k)(ur_k + i*ui_k) as (re, im)
    return (
        sum(map(mul, xr, ur)) - sum(map(mul, xi, ui)),
        sum(map(mul, xr, ui)) + sum(map(mul, xi, ur)),
    )


def _gaussian_mat_mul(ar, ai, br, bi):
    # (ar + i*ai)(br + i*bi) on integer grids
    cols = list(zip(zip(*br), zip(*bi)))
    prods = [[_gaussian_dot(xr, xi, cr, ci) for cr, ci in cols] for xr, xi in zip(ar, ai)]
    return [[z[0] for z in row] for row in prods], [[z[1] for z in row] for row in prods]


def congruence_transform(X: HermitianMatrix, P: Sequence[Sequence]) -> HermitianMatrix:
    """P* X P for an invertible Gaussian-rational matrix P, on integer grids."""
    q = X.q
    rows = [[_as_gaussian(e) for e in row] for row in P]
    if len(rows) != q or any(len(r) != q for r in rows):
        raise ValueError(f"transform must be {q}x{q}")
    dp, pr, pi = scaled_gaussian_grid(rows)
    sr, si = [list(c) for c in zip(*pr)], [[-v for v in c] for c in zip(*pi)]  # P*
    # P is invertible iff P*P is positive definite
    if grid_inertia(*_gaussian_mat_mul(sr, si, pr, pi)).n_plus < q:
        raise SingularTransformError("transform matrix is singular")
    dx, xr, xi = scaled_gaussian_grid(X.entries)
    re, im = _gaussian_mat_mul(sr, si, *_gaussian_mat_mul(xr, xi, pr, pi))
    return HermitianMatrix.from_scaled(dx * dp * dp, re, im)


def _berkowitz(re: list, im: list) -> list:
    """Coefficients [1, c_1, ..., c_q] of det(yI - B) = sum c_k y^(q-k) for a
    Hermitian Gaussian-integer matrix B = re + i*im, division free.

    Berkowitz's recursion borders the trailing principal block A with corner
    a, row R and column C = R*: the new polynomial is the Toeplitz matrix of
    (1, -a, -RC, -RAC, ..., -RA^(n-2)C) times the old one.  Each R A^s C is
    a Hermitian form, so a nonzero imaginary part is an arithmetic fault.
    """
    q = len(re)
    poly = [1]
    for r in range(q - 1, -1, -1):
        if im[r][r]:
            raise InconsistencyError(f"non-real diagonal at {r} in characteristic polynomial")
        col = [1, -re[r][r]]
        rr, ri = re[r][r + 1 :], im[r][r + 1 :]  # border row R; block A; column C = R*
        ar, ai = [row[r + 1 :] for row in re[r + 1 :]], [row[r + 1 :] for row in im[r + 1 :]]
        vr, vi = [row[r] for row in re[r + 1 :]], [row[r] for row in im[r + 1 :]]
        for s in range(q - 1 - r):
            if s:  # v = A v
                vr, vi = zip(*[_gaussian_dot(xr, xi, vr, vi) for xr, xi in zip(ar, ai)])
            t_re, t_im = _gaussian_dot(rr, ri, vr, vi)
            if t_im:
                raise InconsistencyError("non-real Berkowitz coefficient")
            col.append(-t_re)
        padded = poly + [0]  # Toeplitz product: new[i] = sum_j col[i - j] * poly[j]
        poly = [sum(col[i - j] * padded[j] for j in range(i + 1)) for i in range(len(padded))]
    return poly


def char_poly(X: HermitianMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(xI - X), exact rational coefficients.

    Berkowitz's division-free algorithm runs on the integer matrix den*X;
    the coefficient of x^(q-k) is then divided by den^k.  Every coefficient
    of a Hermitian matrix must come out real, which is asserted.
    """
    den, re, im = scaled_gaussian_grid(X.entries)
    poly = _berkowitz(re, im)
    return RationalPolynomial([Fraction(c, den**k) for k, c in enumerate(poly)][::-1])
