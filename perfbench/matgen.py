"""Seeded Hermitian matrix requests for the ``matrices`` workload.

Only the standard library is used (``random`` and ``fractions``), so the
inputs and the time to make them do not change when the package's own
number and matrix types are reworked.  Each request is a JSON document in
the CLI's matrix format plus the label its construction implies.

Every block holds the same 48 (q, operation, category) slots in a seeded
order: for q in 3..8, eight requests each, with ``classify --cone`` only
at q >= 5.  The category lists rotate with the block index, and each block
reaches every stratum label and every cone label, so the in-cone path
(gcd-tower multiplicity, shift, rank cross-check) runs in every run.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

INERTIA, CLASSIFY, CONE = "inertia", "classify", "cone"
ARGV = {
    INERTIA: ["inertia", "--matrix", "-"],
    CLASSIFY: ["classify", "--matrix", "-"],
    CONE: ["classify", "--cone", "--matrix", "-"],
}

# Rank <= 2 matrices: (number of terms, signs of the terms).
LOW_RANK = {
    "rank1": (1, None),
    "psd2": (2, (1, 1)),
    "nsd2": (2, (-1, -1)),
    "indef2": (2, (1, -1)),
}
# Cone members t*Y + s*I with Y of the named low-rank kind.
CONE_MEMBER = {"cone_c0": "psd2", "cone_c1": "indef2", "cone_bb": "rank1"}

D2_OF_LOW_RANK = {
    "rank1": "D0_and_D1",
    "psd2": "D0_only",
    "nsd2": "D0_only",
    "indef2": "D1_only",
}
CONE_OF_LOW_RANK = {
    "rank1": "BothBoundary",
    "psd2": "C0",
    "nsd2": "C0",
    "indef2": "C1",
}
D2_LABELS = ("D0_only", "D1_only", "D0_and_D1", "NotInD2")
CONE_LABELS = ("C1", "C0", "Vertex", "BothBoundary", "NotInC2")

INERTIA_CATS = (
    "generic", "zero_diag", "psd2", "nsd2", "indef2", "rank1",
    "scalar", "cone_c1", "generic", "cone_c0", "zero_diag", "generic",
)
CLASSIFY_CATS = (
    "rank1", "psd2", "indef2", "nsd2", "generic", "zero_diag", "cone_bb", "scalar",
)
CONE_CATS = (
    "generic", "scalar", "cone_c0", "cone_c1", "cone_bb", "zero_diag", "indef2", "rank1",
)
BLOCK = 48


def block_slots(b: int) -> list:
    """The 48 (q, operation, category) slots of block ``b``, unshuffled."""
    slots = []
    n_inertia = n_classify = n_cone = 0
    for q in range(3, 9):
        ops = [INERTIA] * 5 + [CLASSIFY] * 3 if q < 5 else [INERTIA] * 4 + [CLASSIFY] * 2 + [CONE] * 2
        for op in ops:
            if op == INERTIA:
                cat = INERTIA_CATS[(n_inertia + 5 * b) % len(INERTIA_CATS)]
                n_inertia += 1
            elif op == CLASSIFY:
                cat = CLASSIFY_CATS[(n_classify + 3 * b) % len(CLASSIFY_CATS)]
                n_classify += 1
            else:
                cat = CONE_CATS[(n_cone + b) % len(CONE_CATS)]
                n_cone += 1
            slots.append((q, op, cat))
    return slots


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def frac(self) -> Fraction:
        return Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 9))

    def nonzero(self) -> Fraction:
        return Fraction(self.rng.choice((-1, 1)) * self.rng.randint(1, 9), self.rng.randint(1, 9))

    def weight(self) -> Fraction:
        return Fraction(self.rng.randint(1, 9), self.rng.randint(1, 4))

    def gauss_vector(self, q: int) -> list:
        while True:
            v = [(self.rng.randint(-3, 3), self.rng.randint(-3, 3)) for _ in range(q)]
            if any(a or b for a, b in v):
                return v

    def generic(self, q: int, zero_diag: bool) -> list:
        re = [[Fraction(0)] * q for _ in range(q)]
        im = [[Fraction(0)] * q for _ in range(q)]
        for i in range(q):
            if not zero_diag:
                re[i][i] = self.frac()
            for j in range(i + 1, q):
                re[i][j] = re[j][i] = self.frac()
                im[i][j] = self.frac()
                im[j][i] = -im[i][j]
        return [re, im]

    def low_rank(self, q: int, kind: str) -> list:
        """sum_k sign_k * w_k * v_k v_k^* with independent Gaussian-integer v_k."""
        terms, signs = LOW_RANK[kind]
        if terms == 1:
            vecs = [self.gauss_vector(q)]
            signs = (self.rng.choice((-1, 1)),)
        else:
            while True:
                vecs = [self.gauss_vector(q), self.gauss_vector(q)]
                if _independent(vecs[0], vecs[1]):
                    break
        re = [[Fraction(0)] * q for _ in range(q)]
        im = [[Fraction(0)] * q for _ in range(q)]
        for sign, v in zip(signs, vecs):
            w = sign * self.weight()
            for i, (a, b) in enumerate(v):
                for j, (c, d) in enumerate(v):
                    # v_i * conj(v_j) = (a + bi)(c - di)
                    re[i][j] += w * (a * c + b * d)
                    im[i][j] += w * (b * c - a * d)
        return [re, im]


def _independent(u: list, v: list) -> bool:
    """Two complex vectors are independent iff some 2x2 minor is nonzero."""
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            (a, b), (c, d) = u[i], u[j]
            (e, f), (g, h) = v[i], v[j]
            # (a+bi)(g+hi) - (c+di)(e+fi)
            if a * g - b * h - c * e + d * f or a * h + b * g - c * f - d * e:
                return True
    return False


def make_request(gen: _Gen, q: int, op: str, cat: str) -> dict:
    """One request: its CLI text, the matrix as exact parts, and the
    labels its construction implies (None where it implies none)."""
    expect_d2 = expect_cone = expect_apex = None
    if cat in ("generic", "zero_diag"):
        re, im = gen.generic(q, cat == "zero_diag")
        expect_cone = "NotInC2"
    elif cat == "scalar":
        s = gen.nonzero()
        re = [[s if i == j else Fraction(0) for j in range(q)] for i in range(q)]
        im = [[Fraction(0)] * q for _ in range(q)]
        expect_cone, expect_apex = "Vertex", s
    elif cat in LOW_RANK:
        re, im = gen.low_rank(q, cat)
        expect_d2, expect_cone, expect_apex = D2_OF_LOW_RANK[cat], CONE_OF_LOW_RANK[cat], Fraction(0)
    else:
        kind = CONE_MEMBER[cat]
        t, s = gen.nonzero(), gen.nonzero()
        re, im = gen.low_rank(q, kind)
        re = [[t * x + (s if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(re)]
        im = [[t * x for x in row] for row in im]
        expect_cone, expect_apex = CONE_OF_LOW_RANK[kind], s
    doc = {
        "q": q,
        "entries": [
            [{"re": fmt(re[i][j]), "im": fmt(im[i][j])} for j in range(q)] for i in range(q)
        ],
    }
    return {
        "q": q,
        "op": op,
        "category": cat,
        "argv": ARGV[op],
        "text": json.dumps(doc),
        "re": re,
        "im": im,
        "expect_d2": expect_d2,
        "expect_cone": expect_cone,
        "expect_apex": expect_apex,
    }


def make_pool(seed: int, blocks: int) -> list:
    """``blocks`` blocks of requests, each block shuffled by the seed."""
    rng = random.Random(seed)
    gen = _Gen(rng)
    pool = []
    for b in range(blocks):
        slots = block_slots(b)
        rng.shuffle(slots)
        pool.extend(make_request(gen, q, op, cat) for q, op, cat in slots)
    return pool
