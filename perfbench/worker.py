"""One benchmark session in a fresh interpreter.

Usage: python3 worker.py '<spec as JSON>', with the package on PYTHONPATH.
The spec names the workload and the seed, and says whether to trace.
The worker imports the package first and prints ``ready``: the parent
times set-up from spawning the process to that line.  It then draws the
seed's inputs, runs every op with its correctness gate, and prints one
JSON result line.
"""

import sys

import klrcalc
import klrcalc.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from functools import partial  # noqa: E402

import refclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class InstanceTimer:
    """Clocks each verify instance: one check_* call per instance.

    The verify-sweep op is a whole CLI run, so its instances are the ops
    that are counted and timed.
    """

    def __init__(self, verify, clock: refclock.Clock):
        self.clock = clock
        self.oks = []
        for name in ("check_bijections", "check_rules"):
            setattr(verify, name, self._timed(getattr(verify, name)))

    def _timed(self, fn):
        def timed(*args):
            detail = self.clock.measure(fn, *args)
            self.oks.append(not detail)
            return detail
        return timed


def _safe(op, item):
    try:
        return op(klrcalc, item)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        return False, f"{type(exc).__name__}: {exc}"


def run_session(spec: dict) -> dict:
    name = spec["workload"]
    make_inputs, op = workloads.WORKLOADS[name]
    inputs = make_inputs(spec["seed"], spec["session"])
    trace = None
    if spec["trace"]:
        trace = tracer.Tracer()
        trace.install(klrcalc)
    kernel = refclock.kernel_s
    if trace is not None:
        # on verify-sweep the kernel runs inside verify.run_verify; a span of
        # its own keeps it out of that span's self time
        kernel = partial(trace.call, tracer.CALIBRATION, refclock.kernel_s)
    clock = refclock.Clock(kernel)
    instances = InstanceTimer(klrcalc.verify, clock) if name == "verify-sweep" else None

    def run_op(item):
        if trace is None:
            return _safe(op, item)
        return trace.call(tracer.OP, _safe, op, item)

    oks, records = [], []
    for item in inputs:
        ok, record = run_op(item) if instances else clock.measure(run_op, item)
        oks.append(bool(ok))
        records.append(record)

    gates = []
    if name == "witness-certs":
        gates.append(workloads.worked_example_gate(klrcalc))
    if instances is not None:
        # the op is the whole sweep; its instances are the counted ops
        oks = instances.oks if oks[0] else [False] * max(1, len(instances.oks))
    result = {
        "ops": len(oks),
        "failed": oks.count(False),
        "latencies": clock.reference_s(),
        "wall_latencies": clock.wall_s,
        "slowdown": statistics.median(clock.kernel_s) / refclock.REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gate_failures": [g for g in gates if g],
        "inputs_digest": _digest(inputs),
        "outputs_digest": _digest(records),
    }
    if name == "witness-certs":
        result["witness_counts"] = [len(certs) if isinstance(certs, list) else None
                                    for certs in records]
    if trace is not None:
        result["layers"] = trace.metrics()
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w", encoding="utf-8") as fh:
                json.dump(trace.span_dump(), fh)
    return result


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("probe"):
        return 0
    result = run_session(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
