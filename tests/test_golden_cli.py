"""Byte-identical CLI outputs on a fixed, committed corpus.

``tests/data/golden_cli.json`` holds seeded input matrices and the exact
stdout, stderr and exit code of every command run on them: ``inertia``,
``classify`` and ``classify --cone`` on each matrix (q = 2..8: generic,
zero-diagonal, low-rank of both signs, scalar, cone members, and entries
with numerators and denominators near 2^100), ``search --q 5 --dim 9`` at
three seeds, ``grow --q 5 --target 4`` at one seed and a smaller-budget
``grow`` that rejects candidates, each at one and two workers, and the
table commands: ``degree`` at single q and as json/csv tables (with and
without ``--parity-only``), ``bound`` with pencil hypotheses and as
json/csv tables, and ``catalog`` as json and csv.  It also fixes the edges
of the command line: usage errors, ``--help`` of the program and of every
subcommand (with ``COLUMNS`` pinned, as for every case), malformed matrix
input (invalid JSON, a ragged grid, a zero denominator, broken conjugate
symmetry off and on the diagonal, an empty grid), matrices written with
unreduced rationals and stray whitespace, and ``classify --cone`` at
q = 6..8 on matrices whose leading 5 x 5 block alone would mislead the cone
decision, and command lines at the edge between the program's parser and a
subcommand's (``-h inertia``, ``inert``, ``inertia --mat -``, a left-over
argument, ``--`` before ``--matrix``), and runs that once wrote a Python
warning to stderr (``grow`` past the dimension limit, ``search`` with a
tolerance whose threshold overflows).  Any change to the exact core or
the CLI must reproduce it byte for byte, and every JSON report in it must
read back through its class's ``from_json`` to the same document.

List the cases whose output would change (argv and the changed JSON
keys, or ``code`` / ``stderr`` / ``stdout`` when those are not JSON
documents), without writing anything; exit status 1 when any differ:

    PYTHONPATH=src python tests/test_golden_cli.py --check

Regenerate (only when an output change is intended and documented):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from minertia.bounds import BoundReport, SurfaceRecord
from minertia.cli import main
from minertia.degree import DegreeRecord
from minertia.hermitian_core import Inertia
from minertia.search import GrowReport, SearchReport

CORPUS = Path(__file__).parent / "data" / "golden_cli.json"
COLUMNS = "80"  # argparse wraps usage and help text to the terminal width


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _stdin(case, matrices):
    """The stdin text of a case: its corpus matrix, its own text, or none."""
    if case["matrix"] is not None:
        return json.dumps(matrices[case["matrix"]])
    return case.get("stdin", "")


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
] + [
    ["degree", "--q", q] for q in ("3", "5", "9", "17", "201")
] + [
    ["degree", "--table", "3..40"],
    ["degree", "--table", "3..40", "--format", "csv"],
    ["degree", "--table", "195..205", "--parity-only"],
    ["bound", "--q", "5", "--no-irregular-pencils"],
    ["bound", "--q", "4", "--pg", "5", "--pencil", "b=2,fibers=3,2"],
    ["bound", "--table", "1..20", "--no-irregular-pencils"],
    ["bound", "--table", "1..20", "--no-irregular-pencils", "--format", "csv"],
    ["catalog"],
    ["catalog", "--format", "csv"],
]
_SUBCOMMANDS = ("inertia", "classify", "degree", "bound", "search", "grow", "catalog", "check")
_USAGE_ARGVS = [
    ["frobnicate"],
    [],
    ["inertia"],
    ["catalog", "--format", "xml"],
    ["degree", "--q", "5", "--bogus"],
    ["search", "--q", "five", "--dim", "9", "--seed", "1"],
    ["--help"],
] + [[name, "--help"] for name in _SUBCOMMANDS]


def _edge_inputs():
    """(argvs, stdin text) of the malformed and the oddly written matrices."""
    def doc(rows, q=None):
        entries = [[{"re": re, "im": im} for re, im in row] for row in rows]
        return json.dumps({"q": len(rows) if q is None else q, "entries": entries})

    one, zero = ("1", "0"), ("0", "0")
    inertia = [["inertia", "--matrix", "-"]]
    malformed = [
        "{not json",
        "[1, 2",
        doc([[one, zero], [zero]], q=2),
        doc([[("1/0", "0"), zero], [zero, one]]),
        doc([[one, ("1/2", "3/4"), zero], [("1/2", "-3/4"), one, ("1/2", "3/4")],
             [zero, ("1/3", "2/5"), one]]),
        doc([[one, zero], [zero, ("2", "-7/3")]]),
        doc([]),
        doc([[one, zero], [zero, one]]).replace('{"re": "1", "im": "0"}', '{"re": "1"}', 1),
    ]
    half = ("2/4", "0/7")
    scalar = [[half if i == j else (" 0/3", "-0") for j in range(5)] for i in range(5)]
    # diag(3, 3, 3, 1, 1) in unreduced rationals: a cone member, C0 with apex 3
    diag = ["6/2", "6/2", "6/2", "4/4", "4/4"]
    cone = [[(diag[i] if i == j else "0/9", "00") for j in range(5)] for i in range(5)]
    unreduced = [
        doc([[("10/4", "0"), ("-6/8", "9/12")], [("-3/4", "-3/4"), ("-00/5", "0/1")]]),
        doc(scalar),
        doc(cone),
    ]
    return [(inertia, text) for text in malformed] + [
        (list(_MATRIX_ARGVS), text) for text in unreduced
    ]


def _cone_block_inputs():
    """(argvs, stdin text) of ``classify --cone`` at q = 6, 7, 8 on matrices
    whose leading 5 x 5 block misleads: diag(1, 1, 1, 2, 3, ...) with a
    last row and column of ones, a triple eigenvalue 1 in the block but
    not in the cone, and cone members whose low-rank part lies outside the
    block, which is then scalar."""
    def doc(re, im):
        q = len(re)
        entries = [[_entry((re[i][j], im[i][j])) for j in range(q)] for i in range(q)]
        return json.dumps({"q": q, "entries": entries})

    def bordered(diag):
        q = len(diag)
        re = [[Fraction(d if i == j else 0) for j in range(q)] for i, d in enumerate(diag)]
        for i in range(q - 1):
            re[i][q - 1] = re[q - 1][i] = Fraction(1)
        return doc(re, [[Fraction(0)] * q for _ in range(q)])

    def outside(q, s, corner):
        # s*I plus the Hermitian 2 x 2 block corner (re, im pairs) on the
        # last two indices
        re = [[s if i == j else Fraction(0) for j in range(q)] for i in range(q)]
        im = [[Fraction(0)] * q for _ in range(q)]
        for a in range(2):
            for b in range(2):
                re[q - 2 + a][q - 2 + b] += corner[a][b][0]
                im[q - 2 + a][q - 2 + b] += corner[a][b][1]
        return doc(re, im)

    half = Fraction(1, 2)
    texts = [bordered([1, 1, 1] + list(range(2, q - 1))) for q in (6, 7, 8)] + [
        outside(6, Fraction(3), [[(0, 0), (0, 0)], [(0, 0), (2, 0)]]),
        # v v* with v = (0, ..., 0, 1 + i, 2)
        outside(7, Fraction(3), [[(2, 0), (2, 2)], [(2, -2), (4, 0)]]),
        outside(8, 3 * half, [[(1, 0), (2, 1)], [(2, -1), (-half, 0)]]),
    ]
    return [([list(_MATRIX_ARGVS[2])], text) for text in texts]


def _dispatch_inputs():
    """(argvs, stdin text) of command lines at the edge between the
    program's parser and a subcommand's: an option before the subcommand,
    a prefix of a subcommand's name, an abbreviated option, an argument
    the subcommand leaves over, and ``--`` before its options."""
    text = json.dumps(_matrix_json([[(Fraction(2), Fraction(0)), (Fraction(1, 2), Fraction(-1))],
                                    [(Fraction(1, 2), Fraction(1)), (Fraction(-3), Fraction(0))]]))
    argvs = [["-h", "inertia"], ["inert"], ["inertia", "--mat", "-"],
             ["inertia", "--matrix", "-", "extra"], ["inertia", "--", "--matrix", "-"]]
    return [([argv], text) for argv in argvs]


# after every case above, so that adding them moved no case
_WARNING_ARGVS = [
    # past q = 5's dimension limit 8: the report's warning is also one stderr line
    ["grow", "--q", "5", "--target", "9", "--seed", "1", "--samples", "20",
     "--descent-steps", "2"],
    # the threshold tol * max|lambda| overflows, so every sample is escalated
    ["search", "--q", "5", "--dim", "9", "--seed", "1", "--samples", "5",
     "--float-tolerance", "1e308"],
]


def write_corpus(path=CORPUS):
    matrices = _build_matrices()
    cases = []
    for k, mat in enumerate(matrices):
        for argv in _MATRIX_ARGVS:
            cases.append({"argv": argv, "matrix": k, **run_cli(argv, json.dumps(mat))})
    for argv in _RUN_ARGVS + _USAGE_ARGVS:
        cases.append({"argv": argv, "matrix": None, **run_cli(argv)})
    for argvs, text in _edge_inputs() + _cone_block_inputs() + _dispatch_inputs():
        for argv in argvs:
            cases.append({"argv": argv, "matrix": None, "stdin": text, **run_cli(argv, text)})
    for argv in _WARNING_ARGVS:
        cases.append({"argv": argv, "matrix": None, **run_cli(argv)})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"matrices": matrices, "cases": cases}, indent=1) + "\n")


def _load():
    doc = json.loads(CORPUS.read_text())
    return doc["matrices"], doc["cases"]


def _changed_keys(old, new, path=""):
    """Dotted paths of the values that differ between two JSON documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
        return [p for k in keys for p in _changed_keys(old.get(k), new.get(k), f"{path}{k}.")]
    return [] if old == new else [path.rstrip(".") or "stdout"]


def diff_corpus():
    """(argv, changed keys) of every corpus case whose output differs now."""
    matrices, cases = _load()
    diffs = []
    for case in cases:
        got = run_cli(case["argv"], _stdin(case, matrices))
        keys = [k for k in ("code", "stderr") if got[k] != case[k]]
        if got["stdout"] != case["stdout"]:
            try:
                keys += _changed_keys(json.loads(case["stdout"]), json.loads(got["stdout"]))
            except json.JSONDecodeError:
                keys.append("stdout")
        if keys:
            diffs.append((case["argv"], keys))
    return diffs


_MATRICES, _CASES = _load() if CORPUS.exists() else ([], [])


def test_corpus_is_present_and_covers_the_commands():
    assert len(_MATRICES) >= 60
    assert {m["q"] for m in _MATRICES} == set(range(2, 9))
    commands = {tuple(c["argv"][:2]) for c in _CASES}
    assert ("classify", "--cone") in commands and ("grow", "--q") in commands
    assert {(name, "--help") for name in _SUBCOMMANDS} <= commands
    assert {c["code"] for c in _CASES} == {0, 1, 2}


@pytest.mark.parametrize(
    "case", _CASES, ids=[f"{k}-{'_'.join(c['argv'][:2])}" for k, c in enumerate(_CASES)]
)
def test_output_is_byte_identical(case):
    got = run_cli(case["argv"], _stdin(case, _MATRICES))
    assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


def test_invalid_choice_texts_do_not_depend_on_the_argparse_release(monkeypatch):
    # newer argparse patch releases list the choices without quotes
    def unquoted(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(str, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)

    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", unquoted)
    cases = [c for c in _CASES if "invalid choice" in c["stderr"]]
    assert [c["argv"] for c in cases] == [["frobnicate"], ["catalog", "--format", "xml"], ["inert"]]
    for case in cases:
        got = run_cli(case["argv"], _stdin(case, _MATRICES))
        assert got == {k: case[k] for k in ("code", "stdout", "stderr")}


# the report class of each subcommand whose JSON output is a report, or a list of them
_READERS = {
    "inertia": Inertia,
    "degree": DegreeRecord,
    "bound": BoundReport,
    "catalog": SurfaceRecord,
    "search": SearchReport,
    "grow": GrowReport,
}
_JSON_REPORTS = [
    c
    for c in _CASES
    if c["argv"] and c["argv"][0] in _READERS and c["code"] == 0
    and not {"csv", "--help"} & set(c["argv"])
]


@pytest.mark.parametrize(
    "case", _JSON_REPORTS, ids=[" ".join(c["argv"]) for c in _JSON_REPORTS]
)
def test_report_reads_back_to_the_same_document(case):
    doc = json.loads(case["stdout"])
    cls = _READERS[case["argv"][0]]
    for record in doc if isinstance(doc, list) else [doc]:
        assert cls.from_json(record).to_json() == record


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        found = diff_corpus()
        for argv, keys in found:
            print(" ".join(argv), "->", ", ".join(keys))
        sys.exit(1 if found else 0)
    write_corpus()
