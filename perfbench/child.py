"""One workload at one seed in a fresh process; ``run.py`` starts it.

    python3 perfbench/child.py --workload W --seed S --mode MODE [--seconds T]

Modes:
  setup  import npshare and set the workload up, then stop;
  timed  run whole cycles of operations until T seconds have passed
         (and at least the workload's ``trace_ops`` operations);
  fixed  run exactly the workload's ``trace_ops`` operations;
  trace  as ``fixed``, with every npshare function wrapped in a span.

Set-up time runs from just before ``import npshare`` to the first
operation.  The last line on stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / ".out"
# The tail percentile of every latency.  p99 would still leave ten samples
# beyond it on share_idealized, but one slow second on a shared machine
# moves it by a third; p90 holds still.
TAIL_PCT = 90


def reference_ms() -> float:
    """Wall time of a fixed pure-Python computation (dict, tuples, sort,
    JSON), run right after every operation.  An operation's time divided
    by it is its cost in units of this computation, which cancels the
    machine's momentary speed; see README.md.

    The garbage collector is paused while it runs.  Its allocations would
    otherwise trigger collections whose cost grows with everything the
    library keeps alive, and the reference would measure the library."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i * 7919) % 1009, i & 7] = [i, i * i, str(i)]
        json.dumps(sorted((key[0], value[1]) for key, value in table.items()))
        return (time.perf_counter() - start) * 1000.0
    finally:
        if collecting:
            gc.enable()


def percentile(sorted_values: list, pct: float) -> float:
    """Linear interpolation between closest ranks (``numpy``'s default)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summarize(values: list) -> dict:
    ordered = sorted(values)
    tail = percentile(ordered, TAIL_PCT)
    return {
        "p50": percentile(ordered, 50),
        f"p{TAIL_PCT}": tail,
        "mean": sum(ordered) / len(ordered) if ordered else 0.0,
        "n": len(ordered),
        f"beyond_p{TAIL_PCT}": sum(v > tail for v in ordered),
    }


def measure(wl, mode: str, seconds: float, seed: int) -> dict:
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    step_ms = {name: [] for name in wl.step_names}
    op_ms, op_ref, ref_ms = [], [], []
    attempted = failed = 0
    failures = []
    digest = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while True:
            # trace_ops is a whole number of cycles, so every mode ends on
            # a cycle boundary.
            if i >= wl.trace_ops and (mode != "timed" or (
                    i % wl.cycle_len == 0 and time.perf_counter() >= deadline)):
                break
            op = wl.op(i)
            outputs, elapsed, ok = [], 0.0, True
            if tracer is not None:
                tracer.op = i
            try:
                for name, step in op.steps:
                    t = time.perf_counter()
                    outputs.append(step())
                    dt = time.perf_counter() - t
                    step_ms[name].append(dt * 1000.0)
                    elapsed += dt
            except Exception as exc:  # a failed operation is counted, not fatal
                ok = False
                failures.append(f"op {i} ({op.label}): {exc!r}")
            finally:
                if tracer is not None:
                    tracer.op = -1
            ref_ms.append(reference_ms())
            evidence = b"failed"
            if ok:
                try:
                    ok, evidence = op.verify(outputs, op.expected)
                except Exception as exc:  # a check that crashes is a failed check
                    ok = False
                    failures.append(f"op {i} ({op.label}) check: {exc!r}")
                else:
                    if not ok:
                        failures.append(f"op {i} ({op.label}): wrong output")
            attempted += 1
            failed += not ok
            if ok:
                op_ms.append(elapsed * 1000.0)
                op_ref.append(elapsed * 1000.0 / ref_ms[-1])
            if i < wl.trace_ops:
                digest.update(hashlib.sha256(evidence).digest())
            i += 1
    checks = wl.finish()
    timed_s = sum(op_ms) / 1000.0
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and checks["ok"],
        "checks": checks,
        "failures": failures[:5],
        "cycles": attempted / wl.cycle_len,
        "timed_s": timed_s,
        "latency_ms": summarize(op_ms),
        "latency_ref": summarize(op_ref),
        "reference_ms": summarize(ref_ms),
        "steps_ms": {name: summarize(v) for name, v in step_ms.items()},
        "ops_per_s": len(op_ms) / timed_s if timed_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "digest_ops": min(attempted, wl.trace_ops),
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        result["top_self_ms"] = tracer.top_self()
        path = OUT / f"trace-{wl.name}-{seed}.csv.gz"
        result["spans"] = tracer.dump(path)
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports npshare

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        setup_s = time.perf_counter() - start
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            result.update(measure(wl, args.mode, args.seconds, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
