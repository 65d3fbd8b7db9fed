import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import minertia
from minertia import criteria
from minertia.cli import main
from minertia.hermitian_core import HermitianMatrix
from minertia.search import SearchConfig, SearchReport


def write_matrix(tmp_path, matrix, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix.to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInertiaCommand:
    def test_diagonal(self, tmp_path, capsys):
        path = write_matrix(tmp_path, HermitianMatrix.diagonal([1, -1, 0]))
        code, out, _ = run(capsys, "inertia", "--matrix", path)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n_plus": 1, "n_minus": 1, "n_zero": 1, "m": 1, "rank": 2}

    def test_non_hermitian_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        bad = {
            "q": 2,
            "entries": [
                [{"re": "1", "im": "0"}, {"re": "2", "im": "0"}],
                [{"re": "3", "im": "0"}, {"re": "1", "im": "0"}],
            ],
        }
        path.write_text(json.dumps(bad))
        code, _, err = run(capsys, "inertia", "--matrix", str(path))
        assert code == 2
        assert "(0,1)" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "inertia", "--matrix", str(path))
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code, _, _ = run(capsys, "inertia", "--matrix", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"q": 1, "entries": [[{"re": 1, "im": 0}]]},
            {"q": 2, "entries": [1, 2]},
        ],
        ids=["numeric-rational", "flat-entries"],
    )
    def test_malformed_matrix_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "inertia", "--matrix", str(path))
        assert code == 2
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text", ["1e-10000000", "1.5", "1_000", "\u0663"])
    def test_rational_outside_the_grammar_exits_2_at_once(self, tmp_path, capsys, text):
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps({"q": 1, "entries": [[{"re": text, "im": "0"}]]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "inertia", "--matrix", str(path))
        assert time.perf_counter() - start < 1.0
        assert (code, out, len(err.splitlines())) == (2, "", 1)

    def test_deeply_nested_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, "inertia", "--matrix", str(path))
        assert (code, out, len(err.splitlines())) == (2, "", 1)


class TestClassifyCommand:
    def test_d2_label(self, tmp_path, capsys):
        path = write_matrix(tmp_path, HermitianMatrix.diagonal([1, -1, 0, 0, 0]))
        code, out, _ = run(capsys, "classify", "--matrix", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["d2"] == "D1_only"
        assert doc["cone"] is None

    def test_cone_label(self, tmp_path, capsys):
        path = write_matrix(tmp_path, HermitianMatrix.diagonal([2, 1, 1, 1, 0]))
        code, out, _ = run(capsys, "classify", "--matrix", path, "--cone")
        doc = json.loads(out)
        assert doc["d2"] == "NotInD2"
        assert doc["cone"] == "C1"
        assert doc["apex_shift"] == "1"

    def test_labels_round_trip_through_parsers(self, tmp_path, capsys):
        from minertia.strata import ConeClassification, StratumLabel

        path = write_matrix(tmp_path, HermitianMatrix.diagonal([3, 2, 1, 1, 1]))
        _, out, _ = run(capsys, "classify", "--matrix", path, "--cone")
        doc = json.loads(out)
        assert StratumLabel(doc["d2"]) is StratumLabel.NOT_IN_D2
        parsed = ConeClassification.from_json(doc)
        assert parsed.to_json() == {k: doc[k] for k in ("cone", "apex_shift")}

    def test_zero_matrix_exits_2(self, tmp_path, capsys):
        path = write_matrix(tmp_path, HermitianMatrix.zero(3))
        code, _, _ = run(capsys, "classify", "--matrix", path)
        assert code == 2


class TestDegreeCommand:
    def test_single_q(self, capsys):
        code, out, _ = run(capsys, "degree", "--q", "5")
        doc = json.loads(out)
        assert code == 0
        assert doc["degree"] == 175
        assert doc["is_odd"] is True
        assert doc["k"] == 2

    def test_record_round_trips(self, capsys):
        from minertia.degree import DegreeRecord

        _, out, _ = run(capsys, "degree", "--q", "8")
        doc = json.loads(out)
        assert DegreeRecord.from_json(doc).to_json() == doc

    def test_table_csv(self, capsys):
        code, out, _ = run(capsys, "degree", "--table", "3..6", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "q,degree,v2,is_odd,q_is_2k_plus_1"
        assert lines[1].startswith("3,3,0,True,True")
        assert lines[3].startswith("5,175,0,True,True")

    def test_parity_only_omits_degree(self, capsys):
        code, out, _ = run(
            capsys, "degree", "--table", "3..5", "--parity-only", "--format", "csv"
        )
        assert "omitted" in out
        code, out, _ = run(capsys, "degree", "--table", "3..5", "--parity-only")
        assert all(doc["degree"] is None for doc in json.loads(out))

    def test_missing_selector_exits_2(self, capsys):
        code, _, _ = run(capsys, "degree")
        assert code == 2


class TestBoundCommand:
    def test_q5_no_pencils(self, capsys):
        code, out, _ = run(capsys, "bound", "--q", "5", "--no-irregular-pencils")
        doc = json.loads(out)
        assert code == 0
        assert doc["best"] == 17

    def test_report_round_trips(self, capsys):
        from minertia.bounds import BoundReport

        _, out, _ = run(capsys, "bound", "--q", "6", "--no-irregular-pencils")
        doc = json.loads(out)
        assert BoundReport.from_json(doc).to_json() == doc

    def test_pencil_flag(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--q", "5", "--pencil", "b=2,fibers=3,2"
        )
        doc = json.loads(out)
        names = {b["name"]: b for b in doc["bounds"]}
        assert names["pencil"]["value"] == 17

    def test_table_csv(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--table", "3..7", "--no-irregular-pencils",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "q,best,best_names"
        assert lines[1].startswith("3,9")
        assert lines[3].startswith("5,17")

    def test_bad_pencil_spec_exits_2(self, capsys):
        code, _, _ = run(capsys, "bound", "--q", "5", "--pencil", "nonsense")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--q", "5", "--pencil", "b=7"), "base genus must lie in [1, q]=5, got 7"),
            (("--table", "1..4", "--pencil", "b=2"), "base genus must lie in [1, q]=1, got 2"),
            (("--q", "5", "--pencil", "b=7", "--no-irregular-pencils"), "inconsistent assumptions"),
        ],
    )
    def test_pencil_out_of_range_exits_2_with_its_message(self, capsys, argv, message):
        code, out, err = run(capsys, "bound", *argv)
        assert code == 2 and out == "" and message in err


class TestSearchCommand:
    def test_report_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "search", "--q", "4", "--dim", "3", "--seed", "5",
            "--samples", "40",
        )
        assert code == 0
        doc = json.loads(out)
        assert SearchReport.from_json(doc).to_json() == doc
        assert doc["q"] == 4 and doc["dim"] == 3 and doc["seed"] == 5

    def test_witness_matrix_feeds_inertia_subcommand(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "search", "--q", "5", "--dim", "9", "--seed", "8",
        )
        doc = json.loads(out)
        assert doc["witness"] is not None
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc["witness"]["element"]))
        code, out2, _ = run(capsys, "inertia", "--matrix", str(path))
        assert code == 0
        assert json.loads(out2) == doc["witness"]["inertia"]

    def test_seed_required(self, capsys):
        code, _, _ = run(capsys, "search", "--q", "4", "--dim", "3")
        assert code == 1

    @pytest.mark.parametrize("command", [["search", "--dim", "9"], ["grow", "--target", "4"]])
    def test_removed_descent_steps_flag_is_a_usage_error(self, capsys, command):
        code, out, err = run(
            capsys, *command, "--q", "5", "--seed", "1", "--descent-steps", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage: minertia")
        assert err.splitlines()[-1] == "minertia: error: unrecognized arguments: --descent-steps 3"

    @pytest.mark.parametrize("command", [["search", "--dim", "9"], ["grow", "--target", "4"]])
    def test_removed_float_tolerance_flag_is_a_usage_error(self, capsys, command):
        # the tolerance is the constant search.FLOAT_TOLERANCE
        code, out, err = run(
            capsys, *command, "--q", "5", "--seed", "1", "--float-tolerance", "1e-9",
        )
        assert (code, out) == (1, "")
        assert err.startswith("usage: minertia")
        assert err.splitlines()[-1] == (
            "minertia: error: unrecognized arguments: --float-tolerance 1e-9"
        )

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["search", "--q", "-3", "--dim", "1"], "q must be >= 1, got -3"),
            (["grow", "--q", "0", "--target", "0"], "q must be >= 1, got 0"),
            (["grow", "--q", "-2", "--target", "1"], "q must be >= 1, got -2"),
            # random_subspace checks the dimension first
            (["search", "--q", "0", "--dim", "1"], "dim must lie in [1, 0], got 1"),
        ],
    )
    def test_q_below_1_exits_2_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("message", ["", "Unable to allocate 5.96 GiB for an array"])
    def test_memory_error_exits_2_with_one_line(self, capsys, monkeypatch, message):
        # an input too large for the memory available, without allocating it
        def out_of_memory(q, dim, seed):
            raise MemoryError(message)

        monkeypatch.setattr(minertia.search, "random_subspace", out_of_memory)
        code, out, err = run(capsys, "search", "--q", "20000", "--dim", "1", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == "error: out of memory" + (f": {message}" if message else "") + "\n"


class TestGrowCommand:
    def test_basic(self, capsys):
        code, out, _ = run(
            capsys, "grow", "--q", "5", "--target", "2", "--seed", "3",
            "--samples", "40",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["certified"] is False
        assert doc["achieved_dim"] <= 2

    def test_report_round_trips(self, capsys):
        from minertia.search import GrowReport

        _, out, _ = run(
            capsys, "grow", "--q", "4", "--target", "2", "--seed", "6",
            "--samples", "30",
        )
        doc = json.loads(out)
        assert GrowReport.from_json(doc).to_json() == doc


class TestCatalogCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "catalog")
        docs = json.loads(out)
        assert any(r["name"] == "Schoen surface" and r["h11"] == 12 for r in docs)

    def test_records_round_trip(self, capsys):
        from minertia.bounds import SurfaceRecord

        _, out, _ = run(capsys, "catalog")
        for doc in json.loads(out):
            assert SurfaceRecord.from_json(doc).to_json() == doc

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "csv")
        assert out.splitlines()[0] == "name,q,p_g,h11,no_irregular_pencils,note"


class TestCheckCommand:
    def test_passes_on_correct_build(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok") >= 10

    def test_failing_criterion_exits_3_and_the_others_still_run(self, capsys, monkeypatch):
        entries = list(criteria.CRITERIA)
        broken = entries[4].__name__

        def fail(budget):
            raise AssertionError("forced failure")

        fail.__name__ = broken
        entries[4] = fail
        monkeypatch.setattr(criteria, "CRITERIA", tuple(entries))
        code, out, err = run(capsys, "check")
        assert code == 3
        assert err == f"inconsistency: failed: {broken}\n"
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            f"FAIL {broken}: AssertionError: forced failure"
        ]
        ok = [line.split(":")[0] for line in lines if line.startswith("ok ")]
        assert ok == [f"ok   {c.__name__}" for c in entries if c is not fail]
        assert len(lines) == len(entries)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "degree", "--q", "5", "--bogus")
        assert code == 1


class TestConsoleScript:
    @pytest.mark.parametrize(
        "argv", [["degree", "--q", "5"], ["inertia", "--matrix", "-", "extra"], ["--help"]]
    )
    def test_argv_none_reads_the_command_line(self, capsys, monkeypatch, argv):
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["minertia", *argv])
        code = main()
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected


class TestParserReuse:
    """One parser serves every call of a process, so no call may see the
    options of the one before."""

    def test_cone_flag_does_not_carry_over(self, tmp_path, capsys):
        path = write_matrix(tmp_path, HermitianMatrix.diagonal([3, 3, 3, 1, 1]))
        _, cone, _ = run(capsys, "classify", "--cone", "--matrix", path)
        _, plain, _ = run(capsys, "classify", "--matrix", path)
        assert json.loads(cone)["cone"] == "C0"
        assert json.loads(plain)["cone"] is None and json.loads(plain)["apex_shift"] is None

    def test_samples_do_not_carry_over(self, capsys):
        argv = ["search", "--q", "3", "--dim", "2", "--seed", "4"]
        _, before, _ = run(capsys, *argv)
        _, few, _ = run(capsys, *argv, "--samples", "10")
        _, after, _ = run(capsys, *argv)
        assert after == before
        assert sum(json.loads(few)["histogram"].values()) == 10
        assert sum(json.loads(after)["histogram"].values()) == SearchConfig(seed=0).samples

    @pytest.mark.parametrize(
        "first", [["frobnicate"], ["inertia"], ["--help"], ["search", "--help"]]
    )
    def test_usage_error_or_help_then_a_valid_call(self, capsys, first):
        argv = ["bound", "--q", "5", "--no-irregular-pencils"]
        expected = run(capsys, *argv)
        code, _, _ = run(capsys, *first)
        assert code == (0 if "--help" in first else 1)
        assert run(capsys, *argv) == expected

    def test_import_builds_no_parser_and_main_builds_one(self):
        assert _probe(_PARSER_PROBE) == "0 True True"


def _fresh_env(**extra):
    """The environment of a fresh interpreter that imports this package."""
    path = [str(Path(minertia.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


def _probe(script, *args):
    """Run ``script`` with ``args`` in a fresh interpreter with this package
    importable; return the last line it prints."""
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=_fresh_env(), check=True)
    return done.stdout.splitlines()[-1]


class TestNumpyLoadsOnFirstFloatUse:
    """The exact commands never run numpy; the float layer loads it on its
    first call, and an already imported numpy is used as it is."""

    def test_exact_commands_then_a_two_worker_search(self):
        doc = json.loads(_probe(_NUMPY_PROBE))
        assert doc["exact_codes"] == [0] * 5
        assert doc["numpy_after_exact"] is False
        corpus = json.loads(_CORPUS.read_text())
        golden = next(c for c in corpus["cases"] if c["argv"] == _NUMPY_PROBE_SEARCH)
        assert doc["search"] == {"code": golden["code"], "stdout": golden["stdout"]}
        assert doc["numpy_after_search"] is True

    def test_numpy_imported_first_is_bound_as_is(self):
        script = "import numpy, minertia; print(minertia.kernels.np is numpy)"
        assert _probe(script) == "True"

    def test_first_use_from_two_threads(self):
        # stdlib modules stand in for numpy, each first used by two threads at once
        assert json.loads(_probe(_TWO_THREAD_PROBE)) == []


# the modules perfbench's tracer looks up in sys.modules after warm-up
_TRACED = {f"minertia.{m}" for m in ("hermitian_core", "exactnum", "strata", "search", "kernels")}
_UNUSED_BY_SEARCH = {f"minertia.{m}" for m in ("bounds", "degree", "criteria", "oracles")} | {"csv"}
_CORPUS = Path(__file__).parent / "data" / "golden_cli.json"

# one argv per subcommand, each taken from the golden corpus
_ONE_PER_SUBCOMMAND = [
    ["inertia", "--matrix", "-"],
    ["classify", "--cone", "--matrix", "-"],
    ["degree", "--table", "3..40", "--format", "csv"],
    ["bound", "--q", "4", "--pg", "5", "--pencil", "b=2,fibers=3,2"],
    ["search", "--q", "5", "--dim", "9", "--seed", "1", "--workers", "1"],
    ["grow", "--q", "5", "--target", "4", "--seed", "1", "--workers", "1"],
    ["catalog", "--format", "csv"],
]


class TestImportsFollowTheSubcommand:
    """The package namespace is lazy and the CLI imports bounds, degree,
    criteria and csv in the handlers that use them, so a process loads
    only what its subcommand runs."""

    def test_cli_import_and_a_search_load_no_unused_module(self):
        doc = json.loads(_probe(_IMPORT_PROBE))
        for stage in ("after_import", "after_search"):
            assert not _UNUSED_BY_SEARCH & set(doc[stage]), stage
            assert _TRACED <= set(doc[stage]), stage
        assert doc["code"] == 0

    def test_bare_import_loads_no_submodule(self):
        script = "import sys, minertia; print([m for m in sys.modules if m.startswith('minertia.')])"
        assert _probe(script) == "[]"

    def test_submodule_after_bare_import(self):
        script = "import minertia; print(minertia.kernels.__name__, minertia.bounds.__name__)"
        assert _probe(script) == "minertia.kernels minertia.bounds"

    def test_exported_names_are_the_defining_modules_objects(self):
        import importlib

        for module, names in minertia._EXPORTS.items():
            defining = importlib.import_module(f"minertia.{module}")
            for name in names:
                assert getattr(minertia, name) is getattr(defining, name), name
        assert sorted(minertia.__all__) == sorted(minertia._MODULE_OF)
        assert set(minertia.__all__) <= set(dir(minertia))

    def test_submodule_table_names_every_module(self):
        package = Path(minertia.__file__).parent
        modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
        assert minertia._SUBMODULES == modules
        assert modules <= set(dir(minertia))

    def test_star_import_binds_every_exported_name(self):
        script = ("from minertia import *\n"
                  "import minertia\n"
                  "print(all(globals()[n] is getattr(minertia, n) for n in minertia.__all__))")
        assert _probe(script) == "True"

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            minertia.no_such_name
        with pytest.raises(ImportError, match="no_such_name"):
            from minertia import no_such_name  # noqa: F401

    @pytest.mark.parametrize("argv", _ONE_PER_SUBCOMMAND, ids=lambda a: a[0])
    def test_subcommand_in_its_own_process_matches_the_corpus(self, argv):
        # the golden check runs every case in one process, where an earlier
        # case's import could hide a handler's missing one
        case, stdin = _corpus_case(argv)
        # bytes, so that csv's \r\n line ends reach the comparison as written
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "minertia", *argv],
                              input=stdin.encode(), capture_output=True, env=_fresh_env(COLUMNS="80"))
        got = (done.returncode, done.stdout.decode(), done.stderr.decode())
        assert got == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("argv", _ONE_PER_SUBCOMMAND, ids=lambda a: a[0])
    def test_subcommand_loads_no_dataclasses_and_exact_ones_no_inspect(self, argv):
        # the records are built without dataclasses, whose import loads
        # inspect, ast and dis; only numpy, in search and grow, loads those
        _, stdin = _corpus_case(argv, succeeded=True)
        doc = json.loads(_probe(_INTROSPECTION_PROBE, stdin, *argv))
        assert doc["code"] == 0
        assert "dataclasses" not in doc["loaded"]
        if argv[0] not in ("search", "grow"):
            assert doc["loaded"] == []


def _corpus_case(argv, succeeded=False):
    """The first golden corpus case of ``argv`` (with exit code 0 if
    ``succeeded``) and its stdin text."""
    corpus = json.loads(_CORPUS.read_text())
    case = next(c for c in corpus["cases"] if c["argv"] == argv and not (succeeded and c["code"]))
    return case, json.dumps(corpus["matrices"][case["matrix"]]) if case["matrix"] is not None else ""


# argv[1] is the stdin text, argv[2:] the command line
_INTROSPECTION_PROBE = """
import contextlib, io, json, sys
from minertia.cli import main
sys.stdin = io.StringIO(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
loaded = sorted({"dataclasses", "inspect", "ast", "dis"} & set(sys.modules))
print(json.dumps({"code": code, "loaded": loaded}))
"""

_IMPORT_PROBE = """
import contextlib, io, json, sys
import minertia.cli
after_import = sorted(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = minertia.cli.main(["search", "--q", "3", "--dim", "2", "--seed", "1", "--samples", "20"])
print(json.dumps({"after_import": after_import, "after_search": sorted(sys.modules), "code": code}))
"""

_NUMPY_PROBE_SEARCH = ["search", "--q", "5", "--dim", "9", "--seed", "1", "--workers", "2"]

# exact commands, then numpy's first use in a two-worker search
_NUMPY_PROBE = f"""
import contextlib, io, json, sys
from minertia.cli import main
from minertia.hermitian_core import HermitianMatrix
def call(argv, stdin=""):
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()
cone = json.dumps(HermitianMatrix.diagonal([3, 3, 3, 1, -1]).to_json())
exact = [
    call(["inertia", "--matrix", "-"], cone),
    call(["classify", "--cone", "--matrix", "-"], cone),
    call(["degree", "--q", "5"]),
    call(["bound", "--q", "5", "--no-irregular-pencils"]),
    call(["catalog"]),
]
after_exact = "numpy._core" in sys.modules
code, out = call({_NUMPY_PROBE_SEARCH!r})
print(json.dumps({{
    "exact_codes": [c for c, _ in exact],
    "numpy_after_exact": after_exact,
    "search": {{"code": code, "stdout": out}},
    "numpy_after_search": "numpy._core" in sys.modules,
}}))
"""

_TWO_THREAD_PROBE = """
import json, sys, threading
from minertia.kernels import _lazy_import
failures = []
for name, attr in [("asyncio", "run"), ("unittest", "main"), ("http.client", "HTTPConnection"),
                   ("xml.dom.minidom", "parseString"), ("logging.handlers", "QueueListener")]:
    if name in sys.modules:
        failures.append(name + " was imported before its first use")
        continue
    module, barrier = _lazy_import(name), threading.Barrier(2, timeout=60)
    def first_use():
        barrier.wait()
        try:
            getattr(module, attr)
        except Exception as exc:
            failures.append(f"{name}.{attr}: {exc!r}")
    threads = [threading.Thread(target=first_use) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        if t.is_alive():
            failures.append(f"{name}: a thread did not finish")
print(json.dumps(failures))
"""

# counts argparse parsers made at import and by two main() calls
_PARSER_PROBE = """
import argparse
made = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    made.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import minertia.cli as cli
at_import = len(made)
cli.main(["degree", "--q", "5"])
once = len(made)
cli.main(["catalog"])
print(at_import, once > 0, len(made) == once)
"""
