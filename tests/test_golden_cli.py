"""Byte-identical CLI outputs on a fixed, committed corpus.

``tests/data/golden_cli.json`` holds seeded input matrices and the exact
stdout, stderr and exit code of every command run on them: ``inertia``,
``classify`` and ``classify --cone`` on each matrix (q = 2..8: generic,
zero-diagonal, low-rank of both signs, scalar, cone members, and entries
with numerators and denominators near 2^100), ``search --q 5 --dim 9`` at
three seeds, ``grow --q 5 --target 4`` at one seed and a smaller-budget
``grow`` that rejects candidates, each at one and two workers.  Any change
to the exact core must reproduce it byte for byte.

Regenerate (only when an output change is intended and documented):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from minertia.cli import main

CORPUS = Path(__file__).parent / "data" / "golden_cli.json"


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _entry(z):
    return {"re": str(z[0]), "im": str(z[1])}


def _matrix_json(rows):
    return {"q": len(rows), "entries": [[_entry(z) for z in row] for row in rows]}


def _build_matrices():
    """About 60 Hermitian matrices as (re, im) Fraction grids, stdlib only."""
    rng = random.Random(20261018)

    def frac(bits):
        hi = (1 << bits) + 1
        return Fraction(rng.randint(-hi, hi), rng.randint(1, hi))

    def hermitian(q, bits, zero_diag=False):
        m = [[None] * q for _ in range(q)]
        for i in range(q):
            m[i][i] = (Fraction(0) if zero_diag else frac(bits), Fraction(0))
            for j in range(i + 1, q):
                z = (frac(bits), frac(bits))
                m[i][j], m[j][i] = z, (z[0], -z[1])
        return m

    def low_rank(q, signs, bits):
        # sum of sign * v v* over random Gaussian-rational vectors v
        m = [[(Fraction(0), Fraction(0))] * q for _ in range(q)]
        for s in signs:
            v = [(frac(bits), frac(bits)) for _ in range(q)]
            for i in range(q):
                for j in range(q):
                    # v_i * conj(v_j)
                    re = v[i][0] * v[j][0] + v[i][1] * v[j][1]
                    im = v[i][1] * v[j][0] - v[i][0] * v[j][1]
                    m[i][j] = (m[i][j][0] + s * re, m[i][j][1] + s * im)
        return m

    def shifted(m, t, s):
        q = len(m)
        return [
            [(t * m[i][j][0] + (s if i == j else 0), t * m[i][j][1]) for j in range(q)]
            for i in range(q)
        ]

    out = []
    for q in range(2, 9):
        out.append(hermitian(q, 3))
        out.append(hermitian(q, 3, zero_diag=True))
        out.append(low_rank(q, [1, 1], 3))
        out.append(low_rank(q, [-1, -1], 3))
        out.append(low_rank(q, [1, -1], 3))
        out.append(low_rank(q, [rng.choice([1, -1])], 3))
        out.append(shifted(low_rank(q, [], 0), 0, frac(3) or Fraction(1)))
        if q >= 5:
            for signs in ([1, 1], [1, -1], [1]):
                out.append(shifted(low_rank(q, signs, 3), frac(3) or Fraction(1), frac(3)))
    for q in (2, 3, 5, 6, 8):
        out.append(hermitian(q, 100))
        out.append(low_rank(q, [1, -1], 100))
    for q in (5, 7):
        out.append(shifted(low_rank(q, [1, -1], 100), frac(100) or 1, frac(100)))
        out.append(hermitian(q, 100, zero_diag=True))
    return [_matrix_json(m) for m in out]


_MATRIX_ARGVS = (
    ["inertia", "--matrix", "-"],
    ["classify", "--matrix", "-"],
    ["classify", "--cone", "--matrix", "-"],
)
_RUN_ARGVS = [
    ["search", "--q", "5", "--dim", "9", "--seed", str(s), "--workers", str(w)]
    for s in (1, 2, 3)
    for w in (1, 2)
] + [
    ["grow", "--q", "5", "--target", "4", "--seed", "1", "--workers", str(w)] for w in (1, 2)
] + [
    # rejects ten candidates, so it covers the echelon rollback in grow
    ["grow", "--q", "5", "--target", "6", "--seed", "1", "--samples", "100",
     "--descent-steps", "20", "--workers", str(w)]
    for w in (1, 2)
]


def write_corpus(path=CORPUS):
    matrices = _build_matrices()
    cases = []
    for k, mat in enumerate(matrices):
        for argv in _MATRIX_ARGVS:
            cases.append({"argv": argv, "matrix": k, **run_cli(argv, json.dumps(mat))})
    for argv in _RUN_ARGVS:
        cases.append({"argv": argv, "matrix": None, **run_cli(argv)})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"matrices": matrices, "cases": cases}, indent=1) + "\n")


def _load():
    doc = json.loads(CORPUS.read_text())
    return doc["matrices"], doc["cases"]


_MATRICES, _CASES = _load() if CORPUS.exists() else ([], [])


def test_corpus_is_present_and_covers_the_commands():
    assert len(_MATRICES) >= 60
    assert {m["q"] for m in _MATRICES} == set(range(2, 9))
    commands = {tuple(c["argv"][:2]) for c in _CASES}
    assert ("classify", "--cone") in commands and ("grow", "--q") in commands


@pytest.mark.parametrize(
    "case", _CASES, ids=[f"{k}-{'_'.join(c['argv'][:2])}" for k, c in enumerate(_CASES)]
)
def test_output_is_byte_identical(case):
    stdin = "" if case["matrix"] is None else json.dumps(_MATRICES[case["matrix"]])
    got = run_cli(case["argv"], stdin)
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


if __name__ == "__main__":
    write_corpus()
