"""Exact scalars and polynomials.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator); :func:`exact_rational` says what the API takes as one.  On
top of that this module provides the entry value type ``GaussianRational``
(rational real and imaginary parts, no arithmetic), and a gcd tower that
detects multiplicities on integer coefficient lists (:func:`_int_gcd_tower`).
``RationalPolynomial`` is only the result type of the public ``char_poly``,
:func:`poly_gcd` and :func:`poly_gcd_tower`, with no arithmetic.

From the JSON edge inward a matrix is a scaled Gaussian-integer grid
``(den, re, im)``, one positive common denominator and two integer grids
(:func:`parse_ratio`, :func:`scaled_gaussian_grid`, :func:`grid_combination`);
these types are built from it only for an API caller, a JSON writer or an error.
The JSON reader takes all of a matrix's ``"p/q"`` strings in one pass
(:meth:`GaussianRational.json_grid_parts`).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter, mul
from typing import Iterable, List, Optional, Tuple, Union

from .errors import InconsistencyError

RationalLike = Union[Fraction, int]


_RATIO = r"\s*-?[0-9]+(?:/[0-9]+)?\s*"  # \s is what str.strip() and str.split() take
_RATIONALS = re.compile(rf"{_RATIO}(?:,{_RATIO})*")  # no valid text holds a comma
_PARTS = frozenset(("re", "im"))
_PART_TEXTS = itemgetter("re", "im")


def parse_ratio(text: str) -> Tuple[int, int]:
    """Parse ``p/q`` or ``p`` (ASCII digits, an optional leading minus,
    surrounding whitespace ignored; no exponent, decimal point, underscore
    or plus sign) to the integers ``(p, q)``, q > 0 and not reduced."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r} (expected a string 'p/q')")
    parts = _parse_ratios([text])
    if parts is None:
        raise ValueError(f"not a rational: {text!r}")
    (num,), (den,) = parts
    return num, den


def _parse_ratios(texts: list) -> Optional[Tuple[List[int], List[int]]]:
    """What :func:`parse_ratio` reads from each of ``texts``, as a list of
    numerators and a list of denominators, or None if it refuses any.  One
    regex match checks all the texts joined by commas, then each numeral,
    without its whitespace, goes through ``int`` once."""
    try:
        joined = ",".join(texts)
    except TypeError:  # a text that is not a string
        return None
    if not texts:
        return [], []
    if joined.count(",") != len(texts) - 1 or _RATIONALS.fullmatch(joined) is None:
        return None
    nums, _, dens = zip(*[t.partition("/") for t in "".join(joined.split()).split(",")])
    try:
        nums, dens = list(map(int, nums)), [int(d) if d else 1 for d in dens]
    except ValueError:  # more digits than int() converts
        return None
    return (nums, dens) if all(dens) else None


def _entry_texts(cells: list) -> Optional[list]:
    """The "re" and "im" texts of each cell in turn, or None unless every
    cell is a dict with exactly those two keys."""
    if set(map(type, cells)) <= {dict}:  # two items with "re" and "im" among them: no other key
        if sum(map(len, cells)) != 2 * len(cells):
            return None
    elif not all(isinstance(e, dict) and e.keys() == _PARTS for e in cells):
        return None
    try:
        return list(chain.from_iterable(map(_PART_TEXTS, cells)))
    except KeyError:
        return None


def parse_rational(text: str) -> Fraction:
    """The rational that :func:`parse_ratio` reads."""
    return Fraction(*parse_ratio(text))


def exact_rational(value) -> Fraction:
    """An int or a ``Fraction`` as a ``Fraction`` (a ``Fraction`` unchanged):
    the one rule for an exact scalar or matrix entry part given through the
    API.  A float, str, Decimal, complex or anything else raises TypeError,
    so no rounded value and no text is read as exact here; text goes
    through :func:`parse_ratio`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational (an int or a Fraction): {value!r}")


def format_rational(x: Fraction) -> str:
    """Inverse of parse_rational for an :func:`exact_rational` (a float or
    a str raises TypeError); denominator 1 renders as a bare integer."""
    x = exact_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GaussianRational:
    """A complex number with rational real and imaginary parts: the API and
    JSON value type of a matrix entry.  It has no arithmetic; the exact
    kernels work on scaled integer grids (:func:`scaled_gaussian_grid`).
    Instances are immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", exact_rational(re))
        object.__setattr__(self, "im", exact_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

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

    @staticmethod
    def json_parts(obj) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """``{"re": "p/q", "im": "p/q"}`` as two :func:`parse_ratio` pairs."""
        if not isinstance(obj, dict) or obj.keys() != _PARTS:
            raise ValueError(f"expected {{'re': ..., 'im': ...}}, got {obj!r}")
        return parse_ratio(obj["re"]), parse_ratio(obj["im"])

    @staticmethod
    def json_grid_parts(cells: list) -> Tuple[List[int], List[int]]:
        """The numerators and denominators that :meth:`json_parts` reads
        from each of ``cells`` (re, then im) as two flat lists, read in one
        pass (:func:`_parse_ratios`).  If that pass refuses anything, the
        cells are read again one at a time, so the error is the one
        :meth:`json_parts` raises for the first bad cell."""
        texts = _entry_texts(cells)
        parts = None if texts is None else _parse_ratios(texts)
        if parts is None:
            for e in cells:
                GaussianRational.json_parts(e)
            raise InconsistencyError("the one-pass reader refused entries that json_parts reads")
        return parts

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        return cls(*(Fraction(*part) for part in cls.json_parts(obj)))


class RationalPolynomial:
    """Univariate polynomial with rational coefficients, ascending degree,
    immutable: the result type of ``char_poly`` and the two gcds below.

    The zero polynomial has an empty coefficient tuple; otherwise trailing
    zeros are trimmed so ``degree == len(coeffs) - 1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [exact_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree of a nonzero polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "RationalPolynomial":
        if not self.coeffs:
            return self
        lead = self.coeffs[-1]
        return RationalPolynomial([c / lead for c in self.coeffs])


def _primitive_int_coeffs(p: RationalPolynomial) -> list:
    """Clear denominators and divide out the content; sign-normalize the
    leading coefficient to be positive."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _content_strip([c.numerator * (den // c.denominator) for c in p.coeffs])


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists: a scaled copy of a
    reduced mod b, staying in integer arithmetic throughout."""
    r = list(a)
    lb, n = b[-1], len(b) - 1
    while len(r) > n:
        lead = r.pop()  # lb * r - lead * x^shift * b cancels the top term
        shift = len(r) - n
        r[:shift] = [lb * c for c in r[:shift]]
        r[shift:] = [lb * c - lead * bc for c, bc in zip(r[shift:], b)]
        while r and not r[-1]:
            r.pop()
    return r


def _content_strip(cs: list) -> list:
    """A nonzero integer coefficient list divided by its content, the
    leading coefficient made positive."""
    g = math.gcd(*cs)
    if cs[-1] < 0:
        g = -g
    return [v // g for v in cs]


def _int_gcd(a: list, b: list) -> list:
    """Gcd of two nonzero integer coefficient lists, each primitive with a
    positive leading coefficient (as :func:`_content_strip` leaves them),
    in the same form, by the primitive pseudo-remainder sequence.

    Content is stripped after every step, which keeps coefficient growth in
    check for the characteristic polynomials this package produces.
    """
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _content_strip(r)


def poly_gcd(p: RationalPolynomial, q: RationalPolynomial) -> RationalPolynomial:
    """Monic gcd of p and q (see :func:`_int_gcd`)."""
    if p.is_zero() and q.is_zero():
        return RationalPolynomial()
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    return RationalPolynomial(_int_gcd(_primitive_int_coeffs(p), _primitive_int_coeffs(q))).monic()


def _int_gcd_tower(g: list, depth: int) -> list:
    """Gcd of the integer coefficient list g, primitive with a positive
    leading coefficient (as :func:`_content_strip` leaves it), and its
    first ``depth`` derivatives, in the same form.

    A root of multiplicity m in g has multiplicity max(m - k, 0) in the gcd
    g_k of g and its first k derivatives, so g_(k+1) = gcd(g_k, g_k'),
    which is what is iterated (:func:`_int_gcd`).
    """
    for _ in range(depth):
        if len(g) == 1:
            break
        g = _int_gcd(g, _content_strip([k * c for k, c in enumerate(g)][1:]))
    return g


def poly_gcd_tower(p: RationalPolynomial, depth: int) -> RationalPolynomial:
    """Monic gcd of p and its first ``depth`` derivatives.

    The roots of the result are exactly the roots of p of multiplicity at
    least depth + 1.  Denominators are cleared once, the tower runs on
    integer lists (:func:`_int_gcd_tower`), and only the result is made a
    rational polynomial.
    """
    if p.is_zero():
        raise ValueError("gcd tower of the zero polynomial")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return RationalPolynomial(_int_gcd_tower(_primitive_int_coeffs(p), depth)).monic()


def _entry_parts(z) -> Tuple[Fraction, Fraction]:
    """The real and imaginary parts of a ``GaussianRational``, of a real
    :func:`exact_rational` or of an ``(re, im)`` pair of them."""
    if isinstance(z, GaussianRational):
        return z.re, z.im
    try:
        if isinstance(z, tuple) and len(z) == 2:
            return exact_rational(z[0]), exact_rational(z[1])
        return exact_rational(z), Fraction(0)
    except TypeError:
        raise TypeError(f"cannot interpret {z!r} as a matrix entry") from None


def scaled_gaussian_grid(rows) -> Tuple[int, List[List[int]], List[List[int]]]:
    """Rows of exact entries (see :func:`_entry_parts`) as ``(den, re, im)``:
    the least common denominator ``den > 0`` and fresh integer grids with
    ``rows[i][j] == (re[i][j] + i*im[i][j]) / den``."""
    parts = [[_entry_parts(z) for z in row] for row in rows]
    den = math.lcm(*(c.denominator for row in parts for z in row for c in z))
    re = [[a.numerator * (den // a.denominator) for a, _ in row] for row in parts]
    im = [[b.numerator * (den // b.denominator) for _, b in row] for row in parts]
    return den, re, im


def grid_combination(q: int, terms) -> Tuple[int, List[List[int]], List[List[int]]]:
    """sum f * (re + i*im) / den over pairs ``(f, (den, re, im))`` of a rational
    (or int) f and a q x q scaled grid, read and never written, as one scaled
    grid over the lcm of the denominators (not always the least)."""
    terms = [(f, g) for f, g in terms if f]
    if not terms:
        return 1, [[0] * q for _ in range(q)], [[0] * q for _ in range(q)]
    den = math.lcm(*(f.denominator * g[0] for f, g in terms))
    scales = [f.numerator * (den // (f.denominator * g[0])) for f, g in terms]

    def combine(grids):  # each entry in one pass over the terms
        return [[sum(map(mul, scales, col)) for col in zip(*rows)] for rows in zip(*grids)]

    return den, combine([g[1] for _, g in terms]), combine([g[2] for _, g in terms])
