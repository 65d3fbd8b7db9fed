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

import math
from fractions import Fraction
from itertools import chain
from operator import mul, ne, neg
from typing import Sequence

from .errors import InconsistencyError, NotHermitianError, SingularTransformError
from .exactnum import (
    GaussianRational,
    RationalPolynomial,
    exact_rational,
    grid_combination,
    scaled_gaussian_grid,
)
from .jsonrecord import json_int, json_record


@json_record(derived=("m", "rank"))
class Inertia:
    """Eigenvalue sign counts (n_plus, n_minus, n_zero) of a Hermitian matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    def __post_init__(self):
        a, b, c = self.n_plus, self.n_minus, self.n_zero
        if type(a) is type(b) is type(c) is int and min(a, b, c) >= 0:
            return  # the common case, without building the error texts
        for name in ("n_plus", "n_minus", "n_zero"):
            if json_int(getattr(self, name), f"inertia {name!r}") < 0:
                raise ValueError(f"inertia has a negative count: {self}")

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


def _asymmetry(den: int, re, im) -> NotHermitianError:
    """The error naming the first (i, j), i <= j, where the grid is not
    conjugate symmetric; only here are its entries made rationals."""
    q = len(re)
    i, j = next((i, j) for i in range(q) for j in range(i, q)
                if re[i][j] != re[j][i] or im[i][j] != -im[j][i])
    u, v = (GaussianRational(Fraction(re[a][b], den), Fraction(im[a][b], den))
            for a, b in ((i, j), (j, i)))
    return NotHermitianError(f"conjugate symmetry fails at ({i},{j}): {u} vs conj({v})")


class HermitianMatrix:
    """Immutable q x q Hermitian matrix with exact Gaussian-rational entries,
    stored as a scaled Gaussian-integer grid: the least common denominator
    ``den`` and tuples of integer rows ``re``, ``im``, entry (i, j) being
    ``(re[i][j] + i*im[i][j]) / den``.  Every operation reads the grid; the
    ``GaussianRational`` rows :attr:`entries` are built on first use.
    Conjugate symmetry is checked once, on the integers."""

    __slots__ = ("q", "den", "re", "im", "_entries")

    def __init__(self, entries: Sequence[Sequence]):
        """Rows of entries as :func:`~minertia.exactnum.scaled_gaussian_grid`
        reads them: ``GaussianRational``, int, ``Fraction`` or ``(re, im)``."""
        self._set(*scaled_gaussian_grid(entries))

    @classmethod
    def from_scaled(cls, den: int, re, im) -> "HermitianMatrix":
        """The matrix (re + i*im) / den of integer grids, for any den > 0."""
        new = object.__new__(cls)
        new._set(den, re, im)
        return new

    def _set(self, den, re, im, lowest=False):
        """Check and store the grid, first divided by gcd(den, entries)
        unless the caller knows that gcd is 1 (``lowest``)."""
        q = len(re)
        if q == 0 or any(len(row) != q for row in re):
            raise NotHermitianError("entries must form a nonempty square grid")
        if den <= 0:
            raise ValueError(f"the common denominator must be positive, got {den}")
        g = 1 if lowest else math.gcd(den, *chain.from_iterable(re), *chain.from_iterable(im))
        if g > 1:
            den //= g
            re = [[v // g for v in row] for row in re]
            im = [[v // g for v in row] for row in im]
        re = tuple(map(tuple, re))
        im = tuple(map(tuple, im))
        if re != tuple(zip(*re)) or im != tuple(tuple(map(neg, col)) for col in zip(*im)):
            raise _asymmetry(den, re, im)
        for name, value in zip(self.__slots__, (q, den, re, im, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    @property
    def grid(self) -> tuple:
        return self.den, self.re, self.im

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            def z(a, b):
                return GaussianRational(Fraction(a, self.den), Fraction(b, self.den))

            rows = tuple(tuple(map(z, ra, ia)) for ra, ia in zip(self.re, self.im))
            object.__setattr__(self, "_entries", rows)
        return self._entries

    @classmethod
    def zero(cls, q: int) -> "HermitianMatrix":
        return cls.diagonal([0] * q)

    @classmethod
    def identity(cls, q: int) -> "HermitianMatrix":
        return cls.diagonal([1] * q)

    @classmethod
    def diagonal(cls, values: Sequence) -> "HermitianMatrix":
        vals = [exact_rational(v) for v in values]
        q = len(vals)
        den = math.lcm(*(v.denominator for v in vals))
        re = [[0] * q for _ in range(q)]
        for i, v in enumerate(vals):
            re[i][i] = v.numerator * (den // v.denominator)
        return cls.from_scaled(den, re, [[0] * q] * q)

    @classmethod
    def scalar(cls, q: int, s) -> "HermitianMatrix":
        return cls.diagonal([s] * q)

    def is_zero(self) -> bool:
        return not any(map(any, self.re + self.im))

    def is_scalar(self) -> bool:
        d = self.re[0][0]
        rows = enumerate(self.re)
        diagonal = all(v == (d if i == j else 0) for i, row in rows for j, v in enumerate(row))
        return diagonal and not any(map(any, self.im))

    def trace(self) -> Fraction:
        return Fraction(sum(self.re[i][i] for i in range(self.q)), self.den)

    def _combine(self, terms) -> "HermitianMatrix":
        return HermitianMatrix.from_scaled(*grid_combination(self.q, terms))

    def add(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_size(other)
        return self._combine([(1, self.grid), (1, other.grid)])

    def sub(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._check_size(other)
        return self._combine([(1, self.grid), (-1, other.grid)])

    def scale(self, factor) -> "HermitianMatrix":
        """Scale by a real rational; complex factors would break Hermitian symmetry."""
        return self._combine([(exact_rational(factor), self.grid)])

    def neg(self) -> "HermitianMatrix":
        return self.scale(-1)

    def shift(self, s) -> "HermitianMatrix":
        """X - s*I for a real rational s."""
        q = self.q
        eye = (1, [[int(i == j) for j in range(q)] for i in range(q)], [[0] * q] * q)
        return self._combine([(1, self.grid), (-exact_rational(s), eye)])

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return self.grid == other.grid

    def __hash__(self):
        return hash(self.grid)

    def __repr__(self):
        return f"HermitianMatrix(q={self.q})"

    def _check_size(self, other: "HermitianMatrix"):
        if self.q != other.q:
            raise ValueError(f"size mismatch: {self.q} vs {other.q}")

    def to_json(self) -> dict:
        """Each component ``a/den`` of the grid reduced by one gcd, written
        as :func:`~minertia.exactnum.format_rational` writes a Fraction."""
        den = self.den

        def text(a):
            g = math.gcd(a, den)
            return str(a // g) if g == den else f"{a // g}/{den // g}"

        return {
            "q": self.q,
            "entries": [[{"re": text(a), "im": text(b)} for a, b in zip(ra, ia)]
                        for ra, ia in zip(self.re, self.im)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianMatrix":
        """Read the ``"p/q"`` strings straight into one scaled grid."""
        if not isinstance(obj, dict) or "q" not in obj or "entries" not in obj:
            raise ValueError("matrix JSON needs keys 'q' and 'entries'")
        q, entries = json_int(obj["q"], "matrix 'q'"), obj["entries"]
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ValueError("matrix 'entries' must be a list of rows (lists)")
        if len(entries) != q or any(len(row) != q for row in entries):
            raise ValueError(f"entries must be a full {q}x{q} grid")
        nums, dens = GaussianRational.json_grid_parts([e for row in entries for e in row])
        # the lcm of the reduced denominators: unreduced ones could multiply
        # up, and over this lcm gcd(den, entries) is 1, so _set skips it
        den = math.lcm(*{d // math.gcd(n, d) for n, d in zip(nums, dens)})
        vals = tuple(n * den // d for n, d in zip(nums, dens))  # per row: re, im of each entry
        rows = [vals[2 * q * i : 2 * q * (i + 1)] for i in range(q)]
        new = object.__new__(cls)
        new._set(den, [r[0::2] for r in rows], [r[1::2] for r in rows], lowest=True)
        return new


def grid_inertia(re: list, im: list) -> Inertia:
    """Exact signature of the Hermitian matrix re + i*im of integer grids
    (any positive scale; overwritten) by fraction-free symmetric elimination.

    Bareiss' scheme with symmetric pivots: after pivots d_1..d_k each active
    entry is a (k+1)-minor of a congruent copy of the input, so the update
    (d*a_kl - a_kp*a_pl) / prev divides exactly (checked: a remainder is an
    arithmetic fault), and the step's true pivot is d / prev.  The updated
    matrix is Hermitian again, so each step computes the entries (k, l) with
    l at or after k in the active order and mirrors their conjugates into
    (l, k); the diagonal keeps its computed imaginary part, which must be 0.
    Pivot on the nonzero diagonal entry of smallest bit size; if the active
    diagonal is all zero but some h_ij is not, the congruence
    e_i -> e_i + c*e_j with c in {1, i} makes (i,i) nonzero.  Sylvester's
    law makes the pivot signs the eigenvalue sign counts.
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
        for n, k in enumerate(active):
            rk, ik = re[k], im[k]
            a, b = rk[pivot], ik[pivot]
            for l in active[n:]:
                x, rx = divmod(d * rk[l] - a * pr[l] + b * pi[l], prev)
                y, ry = divmod(d * ik[l] - a * pi[l] - b * pr[l], prev)
                if rx or ry:
                    raise InconsistencyError(
                        f"fraction-free division by {prev} left remainder {rx or ry}"
                    )
                re[l][k], im[l][k] = x, -y
                rk[l], ik[l] = x, y  # after the mirror: (k, k) keeps +y
        prev = d
    return Inertia(n_plus, n_minus, n_zero)


def inertia(X: HermitianMatrix) -> Inertia:
    """Exact signature of X (see :func:`grid_inertia`, run on a copy of
    X's grid); no eigenvalues."""
    return grid_inertia([list(r) for r in X.re], [list(r) for r in X.im])


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
    dp, pr, pi = scaled_gaussian_grid(P)
    if len(pr) != q or any(len(r) != q for r in pr):
        raise ValueError(f"transform must be {q}x{q}")
    sr, si = [list(c) for c in zip(*pr)], [[-v for v in c] for c in zip(*pi)]  # P*
    # P is invertible iff P*P is positive definite
    if grid_inertia(*_gaussian_mat_mul(sr, si, pr, pi)).n_plus < q:
        raise SingularTransformError("transform matrix is singular")
    dx, xr, xi = X.grid
    re, im = _gaussian_mat_mul(sr, si, *_gaussian_mat_mul(xr, xi, pr, pi))
    return HermitianMatrix.from_scaled(dx * dp * dp, re, im)


def _berkowitz(re: list, im: list) -> list:
    """Coefficients [c_q, ..., c_1, 1] of det(yI - B) = sum c_k y^(q-k), in
    ascending degree, for a Hermitian Gaussian-integer matrix B = re + i*im,
    division free.

    Berkowitz's recursion borders the leading principal block A (m x m)
    with corner a, row R and column C: the new polynomial is the Toeplitz
    matrix of (1, -a, -RC, -RAC, ..., -RA^(m-1)C) times the old one.  R must
    be C*, which is checked at every border (together the borders cover
    every off-diagonal pair, so A is Hermitian too); then R A^s C is the
    inner product <A^a C, A^b C> with a = s // 2 and b = s - a, so only the
    powers A^j C, j <= m // 2, are formed.  Its imaginary part vanishes by
    symmetry when a == b; when a != b a nonzero one is an arithmetic fault.

    The products run on the real 2q x 2q form E of B, whose (j, k) block
    [[re, -im], [im, re]] sits at rows 2j, 2j + 1 and columns 2k, 2k + 1,
    and on vectors of interleaved real and imaginary parts: A is E's
    leading block, C the column right of it, and R == C* says that E's row
    below A starts with C.  Every product stops at the end of the shorter
    operand, so no row of E is ever cut to the block.
    """
    q = len(re)
    E = []
    for ra, ia in zip(re, im):
        E.append([v for a, b in zip(ra, ia) for v in (a, -b)])
        E.append([v for a, b in zip(ra, ia) for v in (b, a)])
    poly = [1]
    for m in range(q):
        if im[m][m]:
            raise InconsistencyError(f"non-real diagonal at {m} in characteristic polynomial")
        rows = E[: 2 * m]
        v = [row[2 * m] for row in rows]  # the column C
        if any(map(ne, E[2 * m], v)):
            raise InconsistencyError(
                f"non-real Berkowitz border: row {m} is not the conjugate of column {m}"
            )
        powers = [v]  # A^j C for j = 0 .. m // 2
        for _ in range(m // 2):
            v = [sum(map(mul, row, v)) for row in rows]
            powers.append(v)
        col = [1, -re[m][m]]
        for s in range(m):
            x, y = powers[s // 2], powers[s - s // 2]
            if s & 1 and sum(map(mul, x[0::2], y[1::2])) != sum(map(mul, x[1::2], y[0::2])):
                raise InconsistencyError("non-real Berkowitz coefficient")
            col.append(-sum(map(mul, x, y)))
        # Toeplitz product in ascending degree: new[k] = col . ([0] + poly)[k:],
        # each sum ending with its shorter operand
        padded = [0, *poly]
        poly = [sum(map(mul, col, padded[k:])) for k in range(m + 2)]
    return poly


def char_poly(X: HermitianMatrix) -> RationalPolynomial:
    """Characteristic polynomial det(xI - X), exact rational coefficients.

    Berkowitz's division-free algorithm (see :func:`_berkowitz`, which
    rechecks conjugate symmetry) runs on the integer matrix den*X; the
    coefficient of x^k is then divided by den^(q-k).
    """
    poly = _berkowitz(X.re, X.im)
    return RationalPolynomial([Fraction(c, X.den ** (X.q - k)) for k, c in enumerate(poly)])
