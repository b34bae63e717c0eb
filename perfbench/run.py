"""The npshare benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: reduction, share_cnf, share_idealized, decide (README.md says
why each exists).  Every process below is a fresh child, one caller, a
closed loop: each operation starts when the previous one has returned.

--trace 0  runs one timed child for T seconds, and the workload's set-up
           alone in SETUP_CHILDREN more children, half before and half
           after it; prints the end-to-end metrics.  setup_s is the median
           over all those set-ups.
--trace 1  runs the workload's fixed traced operation count twice, plain
           and traced (same seed, same inputs), and prints the per-layer
           metrics plus the tracing overhead; T is not used.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
named per-operation figures and the output digest.  Exit code 0 means
the run completed (``correct`` says whether every check held); any
other exit code means it did not, and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_CHILDREN = 8
TIME_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(argv: list, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {argv} timed out after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child {argv} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def named_figures(res: dict) -> dict:
    """The per-operation figures under their own names, e.g. deal_ms_p50."""
    out = {}
    for step, summary in res["steps_ms"].items():
        out[f"{step}_ms_p50"] = summary["p50"]
        out[f"{step}_ms_p90"] = summary["p90"]
    out["failed_frac"] = res["failed"] / res["attempted"]
    return out


def timed_run(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_times(count: int) -> list:
        return [run_child(base + ["--mode", "setup"], deadline)["setup_s"]
                for _ in range(count)]

    extra = ["--mode", "timed", "--seconds", str(args.seconds)]
    # Half the set-ups before the timed child and half after it, so that
    # the median does not hang on the machine's speed at a single moment.
    setups = setup_times(SETUP_CHILDREN // 2)
    res = run_child(base + extra, deadline)
    setups += [res["setup_s"]] + setup_times(SETUP_CHILDREN - SETUP_CHILDREN // 2)
    detail = {
        **named_figures(res),
        "latency_ms_p50": res["latency_ms"]["p50"],
        "latency_ms_p90": res["latency_ms"]["p90"],
        "ops_per_s": res["ops_per_s"],
        "reference_ms_p50": res["reference_ms"]["p50"],
        "latency_samples": res["latency_ms"]["n"],
        "beyond_p90": res["latency_ms"]["beyond_p90"],
        "cycles": res["cycles"],
        "setup_samples_s": setups,
        "checks": res["checks"],
        "failures": res["failures"],
        "digest": res["digest"],
        "digest_ops": res["digest_ops"],
    }
    metrics = {
        "latency_ref_p50": metric(res["latency_ref"]["p50"], "ref"),
        "latency_ref_p90": metric(res["latency_ref"]["p90"], "ref"),
        "latency_ref_mean": metric(res["latency_ref"]["mean"], "ref"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}, detail


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = run_child(base + ["--mode", "fixed"], deadline)
    traced = run_child(base + ["--mode", "trace"], deadline)
    # In reference units, so that the machine's speed drifting between the
    # two children does not show up as tracing overhead.
    plain_mean, traced_mean = plain["latency_ref"]["mean"], traced["latency_ref"]["mean"]
    overhead = (traced_mean / plain_mean - 1.0) * 100.0 if plain_mean else 0.0
    metrics = {name: metric(value, unit) for name, (value, unit) in traced["per_layer"].items()}
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    # The tracer must not change what the program computes.
    same_outputs = plain["digest"] == traced["digest"]
    detail = {
        **named_figures(traced),
        "untraced_s": plain["timed_s"],
        "traced_s": traced["timed_s"],
        "spans": traced["spans"],
        "trace_file": traced["trace_file"],
        "top_self_ms": traced["top_self_ms"],
        "checks": traced["checks"],
        "failures": traced["failures"],
        "digest": traced["digest"],
        "digest_matches_untraced": same_outputs,
    }
    correct = plain["correct"] and traced["correct"] and same_outputs
    return {"correct": correct, "attempted": traced["attempted"],
            "failed": traced["failed"], "metrics": metrics}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="npshare benchmark (see README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "npshare" / "__init__.py").is_file():
        print(f"error: no npshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        result, detail = (traced_run if args.trace else timed_run)(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
