"""Lower bounds for the Hodge number h^{1,1} of irregular surfaces of
general type, surface-invariant identities, and a catalog of known
surfaces used for regression checks.

Each bound function returns None when its hypotheses are not met; the
aggregator collects every bound with an applicability flag and reports the
maximum of the applicable ones.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import HypothesisNotMetError
from .jsonrecord import json_bool, json_int, json_record, record


@json_record
class PencilData:
    """A fibration over a genus-b curve; fiber_component_counts lists the
    number of irreducible components l(F) for each scored fiber."""

    b: int
    fiber_component_counts: Tuple[int, ...] = ()

    def __post_init__(self):
        if json_int(self.b, "base genus") < 1:
            raise ValueError(f"base genus must be >= 1, got {self.b}")
        counts = self.fiber_component_counts
        if not isinstance(counts, tuple):
            raise ValueError(f"fiber component counts must be a tuple, got {counts!r}")
        if any(json_int(l, "fiber component count") < 1 for l in counts):
            raise ValueError("every fiber component count must be >= 1")


@json_record
class Assumptions:
    q: int
    p_g: Optional[int] = None
    no_irregular_pencils_genus_ge2: bool = False
    pencil: Optional[PencilData] = None
    minimal_surface: bool = False

    def __post_init__(self):
        if json_int(self.q, "irregularity") < 1:
            raise ValueError(f"irregularity must be >= 1, got {self.q}")
        if self.p_g is not None and json_int(self.p_g, "geometric genus") < 0:
            raise ValueError("geometric genus must be nonnegative")
        json_bool(self.no_irregular_pencils_genus_ge2, "no_irregular_pencils_genus_ge2")
        json_bool(self.minimal_surface, "minimal_surface")
        if self.pencil is not None and not isinstance(self.pencil, PencilData):
            raise ValueError(f"pencil must be None or a PencilData, got {self.pencil!r}")
        if (
            self.pencil is not None
            and self.pencil.b >= 2
            and self.no_irregular_pencils_genus_ge2
        ):
            raise ValueError(
                "inconsistent assumptions: a genus >= 2 pencil is given while "
                "no_irregular_pencils_genus_ge2 is set"
            )
        if self.pencil is not None and self.pencil.b > self.q:
            raise ValueError(f"base genus must lie in [1, q]={self.q}, got {self.pencil.b}")


@json_record
class BoundEntry:
    name: str
    value: Optional[int]
    applicable: bool
    note: str


@json_record
class BoundReport:
    q: int
    assumptions: Assumptions
    bounds: Tuple[BoundEntry, ...]
    best: int
    best_names: Tuple[str, ...]


def bmy_bound(p_g: int, q: int) -> int:
    """p_g + q + 1, from the Bogomolov-Miyaoka-Yau inequality c2 >= 3*chi."""
    if p_g < 0 or q < 0:
        raise ValueError("p_g and q must be nonnegative")
    return p_g + q + 1


def general_bound(q: int) -> int:
    """3q - 2, unconditional for surfaces of general type."""
    if q < 1:
        raise ValueError("q must be >= 1")
    return 3 * q - 2


def odd_q_bound(q: int, no_pencils: bool) -> Optional[int]:
    """3q - 1 for odd q, under the no-irregular-pencils hypothesis."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if q % 2 == 1 and no_pencils:
        return 3 * q - 1
    return None


def pencil_bound(q: int, pencil: PencilData) -> int:
    """2b(q - b) + 2 + sum(l(F) - 1) for a pencil over a genus-b curve."""
    if not 1 <= pencil.b <= q:
        raise ValueError(f"base genus must lie in [1, q]={q}, got {pencil.b}")
    return (
        2 * pencil.b * (q - pencil.b)
        + 2
        + sum(l - 1 for l in pencil.fiber_component_counts)
    )


def power_of_two_q_bound(q: int, no_pencils: bool) -> Optional[int]:
    """4q - 3 when q - 1 is a power of two, under no-irregular-pencils."""
    if q < 3:
        raise ValueError("q must be >= 3")
    if no_pencils and (q - 1) & (q - 2) == 0:
        return 4 * q - 3
    return None


def epsilon_bound(q: int, no_pencils: bool) -> Optional[int]:
    """4q - 3 - 4*eps for q = 2^k + 1 + eps with 0 < eps < 2^k.

    Inapplicable when q - 1 is itself a power of two (eps would be 0) or
    when the no-pencil hypothesis is absent.
    """
    if q < 4:
        return None
    if not no_pencils:
        return None
    k = (q - 2).bit_length() - 1
    eps = q - (1 << k) - 1
    if eps <= 0 or eps >= (1 << k):
        return None
    return 4 * q - 3 - 4 * eps


_PREVIOUSLY_KNOWN_POW2 = {3, 5}

# (name, value for the assumptions or None when they do not give it, note)
_BOUNDS = (
    ("bmy", lambda a: None if a.p_g is None else bmy_bound(a.p_g, a.q),
     "p_g + q + 1; needs p_g"),
    ("general_type", lambda a: general_bound(a.q), "3q - 2, unconditional for general type"),
    ("odd_q", lambda a: odd_q_bound(a.q, a.no_irregular_pencils_genus_ge2),
     "3q - 1 for odd q without irregular pencils of genus >= 2"),
    ("power_of_two_q",
     lambda a: power_of_two_q_bound(a.q, a.no_irregular_pencils_genus_ge2) if a.q >= 3 else None,
     "4q - 3 when q - 1 is a power of two, without irregular pencils"),
    ("epsilon_offset", lambda a: epsilon_bound(a.q, a.no_irregular_pencils_genus_ge2),
     "4q - 3 - 4*eps for q = 2^k + 1 + eps, 0 < eps < 2^k, without pencils"),
    ("pencil", lambda a: pencil_bound(a.q, a.pencil), "2b(q - b) + 2 + sum(l(F) - 1)"),
)


def best_bound(a: Assumptions) -> BoundReport:
    """Evaluate every bound whose hypotheses are met and take the maximum;
    the pencil bound is listed only when a pencil is given."""
    entries: List[BoundEntry] = []
    for name, bound, note in _BOUNDS:
        if name == "pencil" and a.pencil is None:
            continue
        v = bound(a)
        if name == "power_of_two_q" and v is not None and a.q in _PREVIOUSLY_KNOWN_POW2:
            note += " (case known previously)"
        entries.append(BoundEntry(name, v, v is not None, note))
    applicable = [e for e in entries if e.applicable]
    best = max(e.value for e in applicable)
    best_names = tuple(e.name for e in applicable if e.value == best)
    return BoundReport(a.q, a, tuple(entries), best, best_names)


@record
class SurfaceIdentities:
    chi: int
    c2: int
    K2: int


def surface_identities(q: int, p_g: int, h11: int) -> SurfaceIdentities:
    """chi = 1 - q + p_g, c2 = 2 - 4q + 2*p_g + h11, K2 = 12*chi - c2
    (Noether's formula)."""
    if q < 0 or p_g < 0 or h11 < 0:
        raise ValueError("all invariants must be nonnegative")
    chi = 1 - q + p_g
    c2 = 2 - 4 * q + 2 * p_g + h11
    return SurfaceIdentities(chi, c2, 12 * chi - c2)


@record
class K2GapRecord:
    q: int
    chi: int
    K2_upper: int
    eight_chi: int
    strict: bool


def k2_less_than_8chi(q: int) -> K2GapRecord:
    """For p_g = 2q - 3 and q = 2^k + 1 with k >= 3: the h11 >= 4q - 3
    bound forces K^2 <= 8q - 17 < 8*chi = 8q - 16 (Noether's formula, as
    :func:`surface_identities` gives it for h11 = 4q - 3)."""
    h11_min = power_of_two_q_bound(q, no_pencils=True) if q >= 9 else None
    if h11_min is None:
        raise HypothesisNotMetError(
            f"requires q = 2^k + 1 with k >= 3 (q >= 9); got q={q}"
        )
    s = surface_identities(q, 2 * q - 3, h11_min)
    return K2GapRecord(q, s.chi, s.K2, 8 * s.chi, s.K2 < 8 * s.chi)


@json_record
class SurfaceRecord:
    name: str
    q: int
    p_g: Optional[int]
    h11: int
    no_irregular_pencils: bool
    note: str


def _product_family(q: int) -> SurfaceRecord:
    return SurfaceRecord(
        name=f"product of a genus-2 and a genus-{q - 2} curve",
        q=q,
        p_g=2 * (q - 2),
        h11=4 * q - 6,
        no_irregular_pencils=False,
        note="family member; both projections are irregular pencils",
    )


_CATALOG: Tuple[SurfaceRecord, ...] = (
    SurfaceRecord(
        "symmetric square of a genus-3 curve",
        q=3,
        p_g=3,
        h11=10,
        no_irregular_pencils=True,
        note="smallest known h11 for q=3; the sharp lower bound 9 is unrealized",
    ),
    SurfaceRecord(
        "Schoen surface",
        q=4,
        p_g=5,
        h11=12,
        no_irregular_pencils=True,
        note="smallest known h11 for q=4; literature lower bound 11 not derived here",
    ),
    SurfaceRecord(
        "symmetric square of a genus-4 curve",
        q=4,
        p_g=6,
        h11=17,
        no_irregular_pencils=True,
        note="next known value after the Schoen surface",
    ),
    SurfaceRecord(
        "Fano surface of lines on a smooth cubic threefold",
        q=5,
        p_g=10,
        h11=25,
        no_irregular_pencils=True,
        note="smallest known h11 for q=5",
    ),
    SurfaceRecord(
        "symmetric square of a genus-5 curve",
        q=5,
        p_g=10,
        h11=26,
        no_irregular_pencils=True,
        note="",
    ),
) + tuple(_product_family(q) for q in range(4, 9))


def catalog() -> List[SurfaceRecord]:
    """Known-surface table; the product family p_g = 2(q-2), h11 = 4q - 6
    is instantiated for q = 4..8."""
    return list(_CATALOG)


def catalog_best_bound(record: SurfaceRecord) -> int:
    """The aggregated bound applicable to a catalog record's assumptions."""
    return best_bound(
        Assumptions(
            q=record.q,
            p_g=record.p_g,
            no_irregular_pencils_genus_ge2=record.no_irregular_pencils,
            pencil=None if record.no_irregular_pencils else PencilData(b=2),
        )
    ).best
