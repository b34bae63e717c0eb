"""Span tracer for the benchmark's traced run.

``install`` wraps, from outside the library, every public function of
every loaded ``npshare`` module and the public methods of its classes.
A function is replaced at every module attribute bound to it, because
modules import each other's functions by name (``harness.sample_opening``
is ``commitments.sample_opening``); methods are replaced on the class.
Generator functions are left alone, since a wrapper would time only the
creation of the generator.  The methods of ``Stream`` (one call per
64-bit draw), ``Builder`` (one call per gate) and the per-block
accessors of ``CRS``, ``Commitment``, ``Opening`` and ``CompileMeta``,
like the per-block helpers in SKIP_FUNCTIONS, are too fine-grained for a
span: the wrapper would cost more than the call.  Their time stays
with the caller; ``Stream.next64`` only counts draws.

Each call becomes a span with a name, a start, an end, its parent span
and the operation id current when it started (-1 outside a timed
operation).  Spans stay in memory and are written out once by ``dump``.
Self time is a span's duration minus the durations of its child spans.
Calls, self times and the counts taken from return values cover the
spans of timed operations only, not input building or checks;
``rng.Stream.draws`` counts every draw, since it guards the draw order.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from types import FunctionType

SKIP_CLASSES = ("Stream", "Builder", "CRS", "Commitment", "Opening", "CompileMeta")
SKIP_FUNCTIONS = ("value_bit_length", "block_preimage")

# Layers reported as per-layer metrics (calls and self time of each).
LAYER_SPANS = (
    "harness.dprime", "harness.mest", "harness.dver",
    "commitments.sample_opening", "commitments.commit", "commitments.find_opening",
    "we.we_encrypt", "we.we_decrypt", "we.leak_message",
    "induced.exhaustive_witness_search", "induced.mprime_verify",
    "induced.MPrimeInstance.digest",
    "serde.canonical_json_bytes", "serde.digest_of",
    "scheme.setup", "scheme.recon", "scheme.share_parse", "scheme.Share.from_json",
    "cli.main",
    "circuits.compile_mprime", "circuits.CnfMPrimeRelation.check",
    "cnf.tseitin", "cnf.check_assignment",
    "sat.solve_cnf",
    "structures.evaluate",
)

# Counts taken from return values (or exceptions) at the same boundaries.
COUNTS = (
    ("serde.canonical_json_bytes.bytes_out", "bytes"),
    ("circuits.compile_mprime.gates", "count"),
    ("cnf.tseitin.vars", "count"),
    ("cnf.tseitin.clauses", "count"),
    ("sat.solve_cnf.sat", "count"),
    ("sat.solve_cnf.unsat", "count"),
    ("sat.solve_cnf.budget_exceeded", "count"),
    ("rng.Stream.draws", "count"),
)


def _observe_mest(counts, result, exc):
    counts["harness.mest.fired"] += result == 1


def _observe_json(counts, result, exc):
    if exc is None:
        counts["serde.canonical_json_bytes.bytes_out"] += len(result)


def _observe_compile(counts, result, exc):
    if exc is None:
        counts["circuits.compile_mprime.gates"] += len(result.gates)


def _observe_tseitin(counts, result, exc):
    if exc is None:
        counts["cnf.tseitin.vars"] += result.num_vars
        counts["cnf.tseitin.clauses"] += len(result.clauses)


def _observe_solve(counts, result, exc):
    if isinstance(exc, RuntimeError):
        counts["sat.solve_cnf.budget_exceeded"] += 1
    elif exc is None:
        counts["sat.solve_cnf.sat" if result is not None else "sat.solve_cnf.unsat"] += 1


OBSERVERS = {
    "harness.mest": _observe_mest,
    "serde.canonical_json_bytes": _observe_json,
    "circuits.compile_mprime": _observe_compile,
    "cnf.tseitin": _observe_tseitin,
    "sat.solve_cnf": _observe_solve,
}


class Tracer:
    def __init__(self):
        self.op = -1
        self.t0 = perf_counter()
        self.names: list[str] = []
        # One entry per span, column-wise to keep memory small.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []        # [span index, seconds spent in children]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, calls, self_s, counts = self.stack, self.calls, self.self_s, self.counts
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        def wrapper(*args, **kwargs):
            idx = len(names)
            op = self.op
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if op >= 0:
                    calls[name] += 1
                    self_s[name] += duration - frame[1]
                    if observe is not None:
                        observe(counts, result, exc)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def count_draws(self, stream_cls) -> None:
        next64 = stream_cls.next64
        counts = self.counts

        def counted(stream):
            counts["rng.Stream.draws"] += 1
            return next64(stream)

        stream_cls.next64 = counted

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for name in LAYER_SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1000.0, "ms")
        mest, dprime = self.calls["harness.mest"], self.calls["harness.dprime"]
        out["harness.mest.fired_frac"] = (
            self.counts["harness.mest.fired"] / mest if mest else 0.0, "ratio")
        out["harness.mest_per_dprime"] = (mest / dprime if dprime else 0.0, "ratio")
        for name, unit in COUNTS:
            out[name] = (self.counts[name], unit)
        return out

    def top_self(self, limit: int = 12) -> list:
        """The functions with the most self time, for the human summary."""
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:limit]
        return [[name, round(s * 1000.0, 3), self.calls[name]] for name, s in ranked]

    def dump(self, path) -> int:
        """Write the name table as a JSON line, then one CSV line per span;
        returns the span count."""
        t0 = self.t0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            fh.write("# name, start_ns, end_ns, parent, op\n")
            for idx in range(len(self.span_name)):
                fh.write("%d,%d,%d,%d,%d\n" % (
                    self.span_name[idx],
                    (self.span_start[idx] - t0) * 1e9,
                    (self.span_end[idx] - t0) * 1e9,
                    self.span_parent[idx],
                    self.span_op[idx],
                ))
        return len(self.span_name)


def install(tracer: Tracer) -> None:
    """Wrap npshare's public functions and methods, once each."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "npshare" or name.startswith("npshare."))]
    wrappers: dict = {}

    def wrapped(fn):
        if fn not in wrappers:
            module = fn.__module__.rsplit(".", 1)[-1]
            wrappers[fn] = tracer.wrap(f"{module}.{fn.__qualname__}", fn)
        return wrappers[fn]

    def ours(obj) -> bool:
        return getattr(obj, "__module__", "").split(".")[0] == "npshare"

    classes = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, FunctionType) and ours(value) \
                    and not value.__name__.startswith("_") \
                    and value.__name__ not in SKIP_FUNCTIONS \
                    and not inspect.isgeneratorfunction(value):
                setattr(module, attr, wrapped(value))
            elif isinstance(value, type) and ours(value) and value not in classes:
                classes.append(value)

    for cls in classes:
        if cls.__name__ in SKIP_CLASSES:
            if cls.__name__ == "Stream":
                tracer.count_draws(cls)
            continue
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, FunctionType) and not inspect.isgeneratorfunction(member):
                setattr(cls, attr, wrapped(member))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(wrapped(member.__func__)))
