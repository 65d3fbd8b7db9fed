"""Exact scalar and polynomial arithmetic.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator).  On top of that this module provides complex numbers with
rational real and imaginary parts, and univariate polynomials with rational
coefficients including a multiplicity-detecting gcd tower.

Hot loops do not use these types: they work on scaled Gaussian integers,
a matrix as ``(den, re, im)`` with one positive common denominator and two
integer grids (:func:`scaled_gaussian_grid`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

Rational = Fraction

RationalLike = Union[Fraction, int]


def parse_rational(text: str) -> Fraction:
    """Parse the text form ``p/q`` or ``p``."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational; denominator 1 renders as a bare integer."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    Instances are immutable by convention; all operators return fresh
    values.  Division is exact field division, so the only failure mode is
    dividing by zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        n = other.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return format_rational(self.re)
        return f"{format_rational(self.re)}{'+' if self.im > 0 else ''}{format_rational(self.im)}i"

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
            raise ValueError(f"expected {{'re': ..., 'im': ...}}, got {obj!r}")
        return cls(parse_rational(obj["re"]), parse_rational(obj["im"]))


GAUSSIAN_ZERO = GaussianRational(0)
GAUSSIAN_ONE = GaussianRational(1)
GAUSSIAN_I = GaussianRational(0, 1)


def gaussian_arith(a: GaussianRational, b: GaussianRational, op: str) -> GaussianRational:
    """Dispatch form of the field operations; ``op`` is one of
    add, sub, mul, div, conj (conj ignores ``b``)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    if op == "conj":
        return a.conj()
    raise ValueError(f"unknown operation {op!r}")


class RationalPolynomial:
    """Univariate polynomial with rational coefficients, ascending degree.

    The zero polynomial has an empty coefficient tuple; otherwise trailing
    zeros are trimmed so ``degree == len(coeffs) - 1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @classmethod
    def from_roots(cls, roots: Sequence[RationalLike]) -> "RationalPolynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-Fraction(r), 1])
        return p

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def evaluate(self, x: RationalLike) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [k * c for k, c in enumerate(self.coeffs)][1:]
        )

    def monic(self) -> "RationalPolynomial":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return RationalPolynomial([c / lead for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc = RationalPolynomial([1])
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RationalPolynomial({list(self.coeffs)!r})"


def _primitive_int_coeffs(p: RationalPolynomial) -> list:
    """Clear denominators and divide out the content; sign-normalize the
    leading coefficient to be positive."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _content_strip([int(c * den) for c in p.coeffs])


def _trim_int(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists: a scaled copy of a
    reduced mod b, staying in integer arithmetic throughout."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    while len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - len(b)
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[i + shift] -= lead * bc
        _trim_int(r)
        if not r:
            break
    return r


def _content_strip(cs: list) -> list:
    g = 0
    for v in cs:
        g = math.gcd(g, v)
    cs = [v // g for v in cs]
    if cs[-1] < 0:
        cs = [-v for v in cs]
    return cs


def poly_gcd(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd via the primitive pseudo-remainder sequence.

    Content is stripped after every step, which keeps coefficient growth in
    check for the characteristic polynomials this package produces.
    """
    if p.is_zero() and q.is_zero():
        return RationalPolynomial()
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    a = _primitive_int_coeffs(p)
    b = _primitive_int_coeffs(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        if not r:
            break
        a, b = b, _content_strip(r)
        if len(a) < len(b):
            a, b = b, a
    return RationalPolynomial(b if b else a).monic()


def poly_gcd_tower(p: RationalPolynomial, depth: int) -> RationalPolynomial:
    """Monic gcd of p and its first ``depth`` derivatives.

    The roots of the result are exactly the roots of p of multiplicity at
    least depth + 1.
    """
    if p.is_zero():
        raise ValueError("gcd tower of the zero polynomial")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    g = p.monic()
    d = p
    for _ in range(depth):
        if g.degree == 0:
            break
        d = d.derivative()
        g = poly_gcd(g, d)
    return g


def scaled_gaussian_grid(rows) -> Tuple[int, List[List[int]], List[List[int]]]:
    """A grid of Gaussian rationals (such as ``HermitianMatrix.entries``) as
    ``(den, re, im)``: the least common denominator ``den > 0`` and fresh
    integer grids with ``rows[i][j] == (re[i][j] + i*im[i][j]) / den``."""
    den = math.lcm(*(c.denominator for row in rows for z in row for c in (z.re, z.im)))
    re = [[z.re.numerator * (den // z.re.denominator) for z in row] for row in rows]
    im = [[z.im.numerator * (den // z.im.denominator) for z in row] for row in rows]
    return den, re, im
