"""The three workloads: their inputs, their requests and the exact checks
of their outputs.

Every request is one in-process call of the CLI entry point
``minertia.cli.main`` with the arguments (and, for matrices, the stdin
text) a CLI user would pass, so the outputs are the CLI's own bytes.

A workload object is built in set-up; ``request(i)`` gives the i-th
request of the closed loop, and ``check(outputs)`` runs after the timed
loop and returns one failure flag per request plus the workload's
properties.  The first ``prefix`` requests are always run inside the timed
loop; their outputs are digested so that runs of one seed can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import matgen

FALSIFY_Q, FALSIFY_DIM = 5, 9
GROW_Q, GROW_TARGET = 5, 4


def _sha256(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
    return h.hexdigest()


def _op_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


class Matrices:
    """Exact decisions on single matrices: inertia, classify, classify --cone."""

    name = "matrices"
    BLOCKS = 5
    prefix = BLOCKS * matgen.BLOCK
    rerun = ()  # every pool request repeats in the loop and is compared there

    def __init__(self, seed: int):
        self.pool = matgen.make_pool(seed, self.BLOCKS)

    def request(self, i: int):
        r = self.pool[i % len(self.pool)]
        return r["argv"], r["text"]

    def check(self, outputs, rerun):
        from minertia.hermitian_core import HermitianMatrix

        n = len(self.pool)
        verdict = []
        d2_hist = {label: 0 for label in matgen.D2_LABELS}
        cone_hist = {label: 0 for label in matgen.CONE_LABELS}
        problems = []
        for k, req in enumerate(self.pool):
            rc, out = outputs[k]
            ok = rc == 0
            if ok:
                q = req["q"]
                X = HermitianMatrix([[(req["re"][i][j], req["im"][i][j]) for j in range(q)] for i in range(q)])
                try:
                    ok = _check_matrix_output(req, json.loads(out), X, d2_hist, cone_hist)
                except (ValueError, KeyError, TypeError):
                    ok = False
            if not ok and len(problems) < 5:
                problems.append(f"request {k} ({req['op']}, q={req['q']}, {req['category']}) failed: rc={rc} out={out[:200]!r}")
            verdict.append(ok)
        failed = []
        for i, (rc, out) in enumerate(outputs):
            k = i % n
            failed.append(not verdict[k] or (rc, out) != outputs[k])
        missing = [l for l, c in d2_hist.items() if not c] + [l for l, c in cone_hist.items() if not c]
        props = {
            "distinct_requests": n,
            "cycles_run": len(outputs) / n,
            "d2_label_histogram": d2_hist,
            "cone_label_histogram": cone_hist,
            "labels_missing": missing,
            "outputs_sha256": _sha256(out for _, out in outputs[:n]),
            "op_mix": _count(r["op"] for r in self.pool),
            "category_mix": _count(r["category"] for r in self.pool),
            "q_mix": _count(str(r["q"]) for r in self.pool),
            "problems": problems,
        }
        return failed, props, not missing


def _check_matrix_output(req, doc, X, d2_hist, cone_hist) -> bool:
    """Check one CLI output against the sign-variation oracle, which shares
    no code with the elimination behind ``inertia``, and against the labels
    the request's construction implies."""
    from minertia.exactnum import poly_gcd
    from minertia.hermitian_core import char_poly
    from minertia.oracles import descartes_inertia

    q = req["q"]
    ref = descartes_inertia(X)
    if req["op"] == matgen.INERTIA:
        return doc == {
            "n_plus": ref.n_plus,
            "n_minus": ref.n_minus,
            "n_zero": ref.n_zero,
            "m": min(ref.n_plus, ref.n_minus),
            "rank": ref.n_plus + ref.n_minus,
        }
    d2 = _d2_label(ref)
    if doc["d2"] != d2 or doc["q"] != q or doc["d2_real_dimension"] != 4 * q - 5:
        return False
    if req["expect_d2"] is not None and d2 != req["expect_d2"]:
        return False
    d2_hist[d2] += 1
    if req["op"] == matgen.CLASSIFY:
        return doc["cone"] is None and doc["apex_shift"] is None
    label = doc["cone"]
    apex = None if doc["apex_shift"] is None else Fraction(doc["apex_shift"])
    if label != req["expect_cone"] or apex != req["expect_apex"]:
        return False
    if label == "NotInC2":
        # No eigenvalue of multiplicity >= q - 2 when gcd(p, p') has degree < q - 3.
        p = char_poly(X)
        ok = poly_gcd(p, p.derivative()).degree < q - 3
    elif label == "Vertex":
        ok = all(
            req["im"][i][j] == 0 and req["re"][i][j] == (apex if i == j else 0)
            for i in range(q)
            for j in range(q)
        )
    else:
        shifted = descartes_inertia(X.shift(apex))
        ok = shifted.n_plus + shifted.n_minus <= 2 and label == _cone_label(shifted)
    if ok:
        cone_hist[label] += 1
    return ok


def _d2_label(inr) -> str:
    rank = inr.n_plus + inr.n_minus
    if rank > 2:
        return "NotInD2"
    if rank <= 1:
        return "D0_and_D1"
    return "D0_only" if min(inr.n_plus, inr.n_minus) == 0 else "D1_only"


def _cone_label(inr) -> str:
    if inr.n_plus + inr.n_minus <= 1:
        return "BothBoundary"
    return "C0" if min(inr.n_plus, inr.n_minus) == 0 else "C1"


def _count(items) -> dict:
    out: dict = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


class _SeededCli:
    """Workloads whose i-th request is one CLI call with the i-th op seed."""

    def __init__(self, seed: int):
        self._gen = _op_seeds(seed)
        self.seeds: list = []

    def seed_of(self, i: int) -> int:
        while len(self.seeds) <= i:
            self.seeds.append(next(self._gen))
        return self.seeds[i]


class Falsify(_SeededCli):
    """``minertia search --q 5 --dim 9``: random_subspace + run_search, the
    criterion-11 shape, where every subspace contains a witness."""

    name = "falsify"
    prefix = 64
    rerun = (0, 1, 2, 3)
    MIN_FALSIFIED = 0.95  # criterion 11

    def request(self, i: int):
        s = str(self.seed_of(i))
        return ["search", "--q", str(FALSIFY_Q), "--dim", str(FALSIFY_DIM), "--seed", s], ""

    def check(self, outputs, rerun):
        from minertia import kernels, search
        from minertia.hermitian_core import HermitianMatrix, inertia

        failed = []
        witnesses = 0
        problems = []
        for i, (rc, out) in enumerate(outputs):
            ok = rc == 0
            if ok:
                try:
                    rep = json.loads(out)
                    seed = self.seed_of(i)
                    ok = (rep["q"], rep["dim"], rep["seed"], rep["workers"], rep["backend"]) == (
                        FALSIFY_Q, FALSIFY_DIM, seed, 1, kernels.BACKEND
                    )
                    w = rep["witness"]
                    if ok and w is not None:
                        L = search.random_subspace(FALSIFY_Q, FALSIFY_DIM, seed)
                        X = L.element([Fraction(c) for c in w["coefficients"]])
                        inr = inertia(X)
                        ok = (
                            X == HermitianMatrix.from_json(w["element"])
                            and inr.m <= 1
                            and w["inertia"] == inr.to_json()
                        )
                        witnesses += ok
                except (ValueError, KeyError, TypeError):
                    ok = False
            if not ok and len(problems) < 5:
                problems.append(f"search {i} failed: rc={rc} out={out[:200]!r}")
            failed.append(not ok)
        failed = _rerun_check(outputs, rerun, failed, problems)
        frac = witnesses / len(outputs)
        props = {
            "searches": len(outputs),
            "witnesses": witnesses,
            "falsified_frac": frac,
            "min_falsified_frac": self.MIN_FALSIFIED,
            "prefix_sha256": _sha256(out for _, out in outputs[: self.prefix]),
            "problems": problems,
        }
        return failed, props, frac >= self.MIN_FALSIFIED


class Grow(_SeededCli):
    """``minertia grow --q 5 --target 4``: the falsifier on subspaces that
    mostly survive, so descent runs its full budget without a hit."""

    name = "grow"
    prefix = 8
    rerun = (0, 1)

    def request(self, i: int):
        s = str(self.seed_of(i))
        return ["grow", "--q", str(GROW_Q), "--target", str(GROW_TARGET), "--seed", s], ""

    def check(self, outputs, rerun):
        failed = []
        problems = []
        achieved: dict = {}
        accepted = attempts = 0
        for i, (rc, out) in enumerate(outputs):
            ok = rc == 0
            if ok:
                try:
                    rep = json.loads(out)
                    steps = rep["steps"]
                    n_acc = sum(1 for s in steps if s["accepted"])
                    ok = (
                        rep["certified"] is False
                        and (rep["q"], rep["target_dim"], rep["seed"]) == (GROW_Q, GROW_TARGET, self.seed_of(i))
                        and rep["achieved_dim"] == len(rep["basis"]) == n_acc
                        and _exact_rank([_coordinates(b) for b in rep["basis"]]) == len(rep["basis"])
                    )
                    key = str(rep["achieved_dim"])
                    achieved[key] = achieved.get(key, 0) + 1
                    accepted += n_acc
                    attempts += sum(s["attempts"] for s in steps)
                except (ValueError, KeyError, TypeError):
                    ok = False
            if not ok and len(problems) < 5:
                problems.append(f"grow {i} failed: rc={rc} out={out[:200]!r}")
            failed.append(not ok)
        failed = _rerun_check(outputs, rerun, failed, problems)
        props = {
            "grows": len(outputs),
            "achieved_dim_histogram": achieved,
            "trial_subspaces": attempts,
            "trials_accepted": accepted,
            "prefix_sha256": _sha256(out for _, out in outputs[: self.prefix]),
            "problems": problems,
        }
        return failed, props, True


def _rerun_check(outputs, rerun, failed, problems):
    """Search and grow are deterministic per seed: rerun outputs must match."""
    failed = list(failed)
    for i, again in rerun.items():
        if again != outputs[i]:
            failed[i] = True
            problems.append(f"request {i} is not deterministic on rerun")
    return failed


def _coordinates(doc: dict) -> list:
    """Real coordinates of a Hermitian matrix document: the diagonal, then
    Re and Im of the upper triangle."""
    e = doc["entries"]
    q = len(e)
    coords = [Fraction(e[i][i]["re"]) for i in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            coords.append(Fraction(e[i][j]["re"]))
            coords.append(Fraction(e[i][j]["im"]))
    return coords


def _exact_rank(rows: list) -> int:
    """Rank over Q by plain Gaussian elimination on Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / p[col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], p)]
        rank += 1
    return rank


WORKLOADS = {w.name: w for w in (Matrices, Falsify, Grow)}
