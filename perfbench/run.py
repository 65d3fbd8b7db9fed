"""minertia benchmark: exact decisions, falsifier and grow, end to end and per layer.

Run one workload, as the contract in BENCHMARK.json states::

    python3 perfbench/run.py --workload matrices --seed 1 --seconds 35 --trace 0

or every workload, untraced and then traced, with a table of the results::

    python3 perfbench/run.py --all --seed 1 --seconds 35

Each workload is a closed loop with one client: the next request is sent
when the previous one has returned.  A request is one in-process call of
the CLI entry point ``minertia.cli.main``; everything runs in one process
with ``workers=1`` and BLAS pinned to one thread.  The package is imported
from ``src/`` of the checkout that holds this file.  A second of untimed
requests warms the process up before the timed loop.

* ``matrices``: ``inertia``, ``classify`` and ``classify --cone`` on a
  seeded pool of 240 Hermitian matrices, q in 3..8, cycled.  The pool is
  small enough that every distinct request is checked against the oracle
  (which costs about three times the request); a result cache in the
  package would therefore show here as a gain it would not give users.
* ``falsify``: ``search --q 5 --dim 9`` (random_subspace + run_search).
* ``grow``: ``grow --q 5 --target 4``.  It runs with ``--workload grow``
  and in ``--all`` but is not among the workloads BENCHMARK.json gates:
  with about a hundred requests of 0.3 s each per run, its figures follow
  the host's drift (the same seed's first twenty requests took up to 20%
  longer from one run to the next) more than the bound allows.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import of the
package plus making the inputs; the median of several fresh processes),
``ops_per_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
``peak_rss_mb``.  The tail is p99.5 on matrices (at least ten samples lie
beyond it at the run length; p99 falls on a step between two cost classes
of cone requests, so it jumps between seeds), p90 on falsify and p75 on
grow (higher percentiles of their fewer requests move with the seed's few
slowest searches).  Every percentile is also recorded in the
properties with a flag telling whether ten samples lie beyond it.

``--trace 1`` wraps the package's layers (see ``tracing.py``) and reports
the per-layer metrics; its spans are written to ``perfbench/results``.
Layer counts (``calls``, ``evals``, ``samples``, the ratios) cover the
workload's fixed prefix of requests and repeat exactly for a seed; self
times and per-call times cover the whole run.

Outputs are checked exactly after the timed loop; ``failed`` counts the
requests whose output was wrong or that raised.  The line before the last
holds the run's properties (label histograms, digests, run metadata and a
drift gauge); the last line is the result.  Exit status is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import tracing  # noqa: E402  (BLAS threads are pinned before numpy loads)
import workloads  # noqa: E402

SETUP_SAMPLES = 7
WARMUP_S = 1.0
TAIL_PERCENTILE = {"matrices": 99.5, "falsify": 90, "grow": 75}
PERCENTILES = (50, 75, 90, 95, 99, 99.5)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(msg: str, code: int = 2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def set_up(name: str, seed: int):
    """Import the package from this checkout and build the workload's inputs."""
    if not (SRC / "minertia" / "__init__.py").is_file():
        fail(f"no minertia package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import minertia.cli  # noqa: F401

    wl = workloads.WORKLOADS[name](seed)
    elapsed = time.perf_counter() - t0
    if Path(sys.modules["minertia"].__file__).resolve().parent != SRC / "minertia":
        fail("imported minertia is not the one under src/")
    return wl, elapsed


def call_cli(argv, stdin_text):
    """One CLI call in process; returns (exit code, stdout text)."""
    from minertia import cli

    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, io.StringIO()
    try:
        rc = cli.main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue()


def warm_up(wl, seconds: float):
    """Untimed requests from the start of the workload, so that lazy imports
    and first-call set-up inside the package are done before timing."""
    i = 0
    start = time.perf_counter()
    while i < 2 or time.perf_counter() - start < seconds:
        call_cli(*wl.request(i))
        i += 1


def timed_loop(wl, seconds: float, spool, tracer=None):
    """Closed loop for ``seconds``, and at least the workload's prefix.

    Outputs go to ``spool``, one JSON line each, so that the memory the
    loop holds does not grow with the number of requests."""
    latencies, errors = array("d"), []
    i = 0
    start = end = time.perf_counter()
    while i < wl.prefix or end - start < seconds:
        argv, text = wl.request(i)
        if tracer is not None:
            tracer.request = i
            tracer.enter(tracing.ROOT)
        t0 = time.perf_counter()
        try:
            result = call_cli(argv, text)
        except Exception:  # a raising request is a failed request; keep measuring
            result = (None, "")
            if len(errors) < 3:
                errors.append(traceback.format_exc())
        end = time.perf_counter()
        if tracer is not None:
            tracer.exit()
        latencies.append(end - t0)
        spool.write(json.dumps(result) + "\n")
        i += 1
        if tracer is not None and i == wl.prefix:
            tracer.snapshot_prefix()
    return latencies, errors, end - start


def percentile(values, p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(10 * p) - 1]


def reference_loop_ms(reps: int = 5) -> float:
    """Drift gauge: a fixed pure-Python loop that never calls the package."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for k in range(200_000):
            acc = (acc * 31 + k) % 1_000_003
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def setup_probe_samples(name: str, seed: int, n: int) -> list:
    """Set-up times of ``n`` fresh processes, each timing its own import
    and input generation."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def metadata() -> dict:
    import numpy as np
    from minertia import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "git_revision": git_revision(),
        "src_sha256": src_digest(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "minertia").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(args) -> int:
    wl, first_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(first_setup))
        return 0
    warm_up(wl, WARMUP_S)
    tracer = None
    setup_samples = [first_setup]
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        setup_samples += setup_probe_samples(args.workload, args.seed, SETUP_SAMPLES // 2)
    RESULTS.mkdir(exist_ok=True)
    spool_path = RESULTS / f"{args.workload}-outputs.jsonl"
    ref_before = reference_loop_ms()
    with open(spool_path, "w", encoding="utf-8") as spool:
        latencies, errors, wall = timed_loop(wl, args.seconds, spool, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    ref_after = reference_loop_ms()
    with open(spool_path, encoding="utf-8") as fh:
        outputs = [tuple(json.loads(line)) for line in fh]

    rerun = {i: call_cli(*wl.request(i)) for i in wl.rerun}
    failed, props, workload_ok = wl.check(outputs, rerun)
    if tracer is None:
        # The rest of the set-up samples come after the loop, so that the
        # median spans the machine's state over the whole run.
        setup_samples += setup_probe_samples(args.workload, args.seed, SETUP_SAMPLES - len(setup_samples))
    n_failed = sum(failed)
    attempted = len(outputs)
    tail = TAIL_PERCENTILE[args.workload]
    lat_ms = [1e3 * x for x in latencies]
    percentiles = {
        f"p{p}": {"ms": percentile(lat_ms, p), "supported": attempted * (100 - p) >= 1000}
        for p in PERCENTILES
    }
    props.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": attempted,
        "wall_s": wall,
        "error_rate": n_failed / attempted,
        "latency_percentiles": percentiles,
        "tail_percentile": tail,
        "setup_samples_s": setup_samples,
        "reference_loop_ms": {"before": ref_before, "after": ref_after},
        "exceptions": errors,
        "metadata": metadata(),
    })
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": attempted / wall,
            "latency_p50_ms": percentiles["p50"]["ms"],
            "latency_tail_ms": percentiles[f"p{tail}"]["ms"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        per_span = tracing.span_overhead_s()
        metrics = tracing.layer_metrics(tracer, wall, attempted, per_span)
        self_sum = sum(tracer.self_s.values())
        props["trace_summary"] = {
            "spans": len(tracer.spans),
            "span_overhead_us": 1e6 * per_span,
            "self_s_sum": self_sum,
            "self_s_sum_le_wall": self_sum <= wall,
        }
        tracer.write_spans(RESULTS / f"{args.workload}-spans.jsonl")
    correct = n_failed == 0 and workload_ok and not errors
    result = {"correct": correct, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"properties": props, "result": result, "latencies_s": list(latencies)}
    out_path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"properties": props}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, in fresh processes."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        res = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
            if len(lines) >= 2:
                res[trace] = (json.loads(lines[-2])["properties"], json.loads(lines[-1]))
        rows.append((name, res))
    for name, res in rows:
        print(f"== {name}")
        if 0 in res:
            props, result = res[0]
            print(f"  requests {result['attempted']}  failed {result['failed']}  "
                  f"error_rate {props['error_rate']:.4g}  correct {result['correct']}")
            for k, m in result["metrics"].items():
                print(f"  {k:<20} {m['value']:.6g} {m['unit']}")
            print(f"  latency percentiles over n={result['attempted']} requests:")
            for p, v in props["latency_percentiles"].items():
                note = "" if v["supported"] else "  (not reported: fewer than 10 samples beyond it)"
                print(f"    {p:<4} {v['ms']:.6g} ms{note}")
            if "falsified_frac" in props:
                print(f"  falsified_frac       {props['falsified_frac']:.4g}")
        if 1 in res:
            tprops, tres = res[1]
            layers = sorted(
                ((k[: -len('.self_s')], m["value"]) for k, m in tres["metrics"].items() if k.endswith(".self_s")),
                key=lambda kv: -kv[1],
            )
            wall = tprops["wall_s"]
            print(f"  traced: wall {wall:.3f} s, self-time sum {tprops['trace_summary']['self_s_sum']:.3f} s, "
                  f"{tprops['trace_summary']['spans']} spans")
            for layer, s in layers:
                if s > 0:
                    print(f"    {layer:<40} self {s:8.3f} s  {100 * s / wall:5.1f}%")
            if 0 in res:
                untraced = res[0][1]["metrics"]["ops_per_s"]["value"]
                traced = tres["metrics"]["trace.ops_per_s"]["value"]
                print(f"  tracing overhead: ops_per_s {untraced:.4g} untraced vs {traced:.4g} traced "
                      f"({100 * (1 - traced / untraced):.1f}%); calibrated "
                      f"{100 * tres['metrics']['trace.overhead_frac']['value']:.1f}% of wall")
                digest = next((k for k in ("outputs_sha256", "prefix_sha256") if k in res[0][0]), None)
                if digest and res[0][0][digest] != tprops[digest]:
                    print(f"  {digest} differs between the untraced and traced runs", file=sys.stderr)
                    ok = False
            if not tres["correct"]:
                ok = False
        if 0 in res and not res[0][1]["correct"]:
            ok = False
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
