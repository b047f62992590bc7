"""The klrcalc benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload coeff-stream --seed 7
    python3 perfbench/run.py --workload coeff-stream --trace 1   # per-layer
    python3 perfbench/run.py --selfcheck           # determinism check

Each workload is a closed loop with one client and no threads.  Every
session runs in a fresh interpreter (perfbench/worker.py), so the
package's caches start cold as they do for one `klrcalc` invocation;
sessions follow each other until the run_seconds of BENCHMARK.json are
used up.  Every metric is printed by name with its unit; the last line
of stdout is one JSON object.  The exit code is 0 when every correctness gate held, 1 when one
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("coeff-stream", "witness-certs", "bijection-sweep", "verify-sweep")
SETUP_PROBES = 25
MIN_SESSIONS = 2
SESSION_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(spec: dict):
    """Run one worker; returns (set-up seconds, its last stdout line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, json.dumps(spec)], cwd=ROOT,
                            env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=SESSION_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker for {spec} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def _setup_seconds() -> float:
    """Median time from spawning a process until the package is imported.

    In reference seconds (see refclock): in wall seconds the median of a
    run moved by a quarter from run to run with the speed of the machine.
    """
    _spawn({"probe": True})  # the first import may write bytecode caches
    clock = refclock.Clock()
    for _ in range(SETUP_PROBES):
        before = refclock.kernel_s()
        clock.record(_spawn({"probe": True})[0], before)
    return statistics.median(clock.reference_s())


def _session(workload, seed, session=0, trace=False, spans_out=None) -> dict:
    spec = {"workload": workload, "seed": seed, "session": session, "trace": trace,
            "spans_out": spans_out}
    line = _spawn(spec)[1]
    if not line.startswith("{"):
        raise BenchError(f"worker for {spec} printed no result")
    return json.loads(line)


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _correct(results) -> bool:
    return all(r["failed"] == 0 and not r["gate_failures"] for r in results)


def _timing_metrics(results, key="latencies") -> dict:
    """Rate and latency percentiles over every op of every session."""
    latencies = [x for r in results for x in r[key]]
    if not latencies:
        raise BenchError("no op was timed")
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": _p90(latencies) * 1e3}


def run_timed(workload: str, seed: int, seconds: float):
    """Run sessions 0, 1, ... of the seed until `seconds` are used.

    Returns (results, metrics); times are in reference seconds (see
    refclock).
    """
    setup_s = _setup_seconds()
    results = []
    start = time.perf_counter()
    while len(results) < MIN_SESSIONS or time.perf_counter() - start < seconds:
        results.append(_session(workload, seed, len(results)))
    metrics = {"setup_s": setup_s, **_timing_metrics(results),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)}
    return results, metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("ops_per_s") else "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "ratio", "overhead")):
        return "ratio"
    return "count"


def run_traced(workload: str, seed: int):
    """One untraced and one traced session on the same inputs.

    The traced session gives the per-layer metrics; the untraced one
    gives the overhead the tracing adds.  Spans and metrics are written
    to perfbench/out/.
    """
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{workload}-seed{seed}")
    plain = _session(workload, seed)
    traced = _session(workload, seed, trace=True, spans_out=stem + ".spans.json")
    layers = dict(traced["layers"])
    layers["trace.ops_per_s"] = _timing_metrics([traced])["ops_per_s"]
    layers["trace.untraced_ops_per_s"] = _timing_metrics([plain])["ops_per_s"]
    layers["trace.overhead"] = layers["trace.untraced_ops_per_s"] / layers["trace.ops_per_s"]
    with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "metrics": {k: {"value": v, "unit": layer_unit(k)}
                               for k, v in layers.items()}}, fh, indent=1)
    return [plain, traced], layers


def _print_metric(workload, name, value, unit):
    print(f"{workload:16s} {name:52s} {value:14.6g} {unit}")


def _report(workload, results, metrics, units) -> None:
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    for name, value in metrics.items():
        _print_metric(workload, name, value, units(name))
    _print_metric(workload, "failed_frac", failed / attempted, "ratio")
    # what the wall clock saw, and how slow the machine ran meanwhile
    for name, value in _timing_metrics(results, "wall_latencies").items():
        _print_metric(workload, f"wall.{name}", value, E2E_UNITS[name])
    slowdown = statistics.median(r["slowdown"] for r in results)
    _print_metric(workload, "wall.slowdown", slowdown, "ratio")
    for r in results:
        for gate in r["gate_failures"]:
            print(f"{workload:16s} GATE FAILED: {gate}")


def selfcheck(workloads, seed: int) -> bool:
    """Same seed, same inputs, outputs and exact per-layer counts."""
    all_ok = True
    for workload in workloads:
        plain = _session(workload, seed)
        first = _session(workload, seed, trace=True)
        second = _session(workload, seed, trace=True)
        problems = []
        for key in ("inputs_digest", "outputs_digest", "ops", "failed", "witness_counts"):
            values = {json.dumps(r.get(key)) for r in (plain, first, second)}
            if len(values) != 1:
                problems.append(f"{key} differs: {sorted(values)}")
        for name, value in first["layers"].items():
            if layer_unit(name) == "count" and second["layers"][name] != value:
                problems.append(f"{name}: {value} != {second['layers'][name]}")
        if not _correct([plain, first, second]):
            problems.append("a correctness gate failed")
        counts = sum(layer_unit(n) == "count" for n in first["layers"])
        status = "ok" if not problems else "FAILED"
        print(f"selfcheck {workload}: {status} ({first['ops']} ops, {counts} exact "
              f"counts, inputs {first['inputs_digest']}, outputs {first['outputs_digest']})")
        for problem in problems:
            print(f"  {problem}")
        all_ok = all_ok and not problems
    return all_ok


def _run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as the run_seconds of BENCHMARK.json, "
                             "which fixes the run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check that a seed fixes inputs, outputs and counts")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seconds = _run_seconds()
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must be {seconds}, the run_seconds of BENCHMARK.json")
    chosen = [args.workload] if args.workload else list(WORKLOADS)

    if not os.path.isfile(os.path.join(SRC, "klrcalc", "__init__.py")):
        print(f"error: no klrcalc package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return 0 if selfcheck(chosen, args.seed) else 1
        every_result, summary = [], {}
        for workload in chosen:
            if args.trace:
                results, metrics = run_traced(workload, args.seed)
                units = layer_unit
            else:
                results, metrics = run_timed(workload, args.seed, seconds)
                units = E2E_UNITS.get
            _report(workload, results, metrics, units)
            every_result += results
            prefix = "" if args.workload else f"{workload}."
            summary.update({prefix + k: {"value": v, "unit": units(k)}
                            for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = _correct(every_result)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["ops"] for r in every_result),
                      "failed": sum(r["failed"] for r in every_result),
                      "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
