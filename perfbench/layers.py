"""Per-layer timing from outside the program, by wrapping its public functions.

Each target is a module attribute that callers look up at call time, so
replacing it routes every call through a timing wrapper without touching the
package.  Spans (name, parent, op, start, end) stay in memory in compact arrays
and are written once, when the run ends.  A layer's self time is its span's
wall-clock duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  A span name may have several call sites.
TARGETS = (
    ("nsshare.cli", "main", "cli.main"),
    ("nsshare.cli", "run_experiment", "cli.run_experiment"),
    ("nsshare.cli", "run_sequence", "engine.run_sequence"),
    ("nsshare.cli", "build_gghz", "states.build_gghz"),
    ("nsshare.cli", "gamma_sequence", "measurements.gamma_sequence"),
    ("nsshare.measurements", "gamma_sequence", "measurements.gamma_sequence"),
    ("nsshare.cli", "validity_region", "measurements.validity_region"),
    ("nsshare.cli", "ns2_value", "inequality.ns2_value"),
    ("nsshare.cli", "closed_form_ns2", "inequality.closed_form_ns2"),
    ("nsshare.cli", "lp_feasible", "certifier.lp_feasible"),
    ("nsshare.cli", "import_behavior", "behavior_io.import_behavior"),
    ("nsshare.cli", "atomic_write_text", "behavior_io.atomic_write_text"),
    ("nsshare.engine", "behavior", "engine.behavior"),
    ("nsshare.engine", "luders_update", "engine.luders_update"),
    ("nsshare.engine", "charlie_setting", "measurements.charlie_setting"),
    ("nsshare.inequality", "no_signaling_residual", "engine.no_signaling_residual"),
    ("nsshare.certifier", "no_signaling_residual", "engine.no_signaling_residual"),
    ("nsshare.simplex", "solve", "simplex.solve"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# layers whose per-call latency distribution is reported, with the unit scale
PER_CALL = {
    "engine.behavior": ("p50_us", 1e6),
    "engine.luders_update": ("p50_us", 1e6),
    "certifier.lp_feasible": ("p50_ms", 1e3),
    "simplex.solve": ("p50_ms", 1e3),
}


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; always put the originals back."""
    saved = []
    try:
        for module, attribute, value in replacements:
            saved.append((module, attribute, getattr(module, attribute)))
            setattr(module, attribute, value)
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)


@contextmanager
def capture_lp_results(sink: list):
    """Record (table, DecompositionResult) for every verdict the CLI asks for."""
    cli = importlib.import_module("nsshare.cli")
    original = cli.lp_feasible

    def capturing(table, *args, **kwargs):
        result = original(table, *args, **kwargs)
        sink.append((table, result))
        return result

    with patched([(cli, "lp_feasible", capturing)]):
        yield


class Tracer:
    """Spans and counters for one run; install() wraps every target it finds."""

    def __init__(self):
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[list] = []  # [span index, time covered by children]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(lambda: array("d"))
        self.counters: Counter = Counter()

    def _observe(self, name, args, result):
        if name == "simplex.solve":
            self.counters["simplex.iterations"] += int(result.iterations)
        elif name == "certifier.lp_feasible":
            self.counters["certifier.feasible"] += bool(result.feasible)
        elif name == "behavior_io.atomic_write_text":
            self.counters["behavior_io.atomic_write_text.bytes"] += len(args[1].encode("utf-8"))

    def _wrap(self, name: str, fn):
        name_id = SPAN_NAMES.index(name)
        keep_durations = name in PER_CALL

        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if keep_durations:
                    self.durations[name].append(duration)
            self._observe(name, args, result)
            return result

        return wrapper

    @contextmanager
    def install(self):
        replacements = []
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attribute):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            replacements.append((module, attribute, self._wrap(name, getattr(module, attribute))))
        with patched(replacements):
            yield self

    def layer_metrics(self, batches: int) -> dict[str, float]:
        """Per-batch calls and self time of every layer, plus the derived ratios."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / batches
            out[f"{name}.self_s"] = self.self_s[name] / batches
        for name, (suffix, scale) in PER_CALL.items():
            samples = self.durations[name]
            out[f"{name}.{suffix}"] = statistics.median(samples) * scale if samples else 0.0
        verdicts = self.calls["certifier.lp_feasible"]
        solves = self.calls["simplex.solve"]
        iterations = self.counters["simplex.iterations"]
        out["certifier.feasible_ratio"] = self.counters["certifier.feasible"] / verdicts if verdicts else 0.0
        out["certifier.lp_solves_per_verdict"] = solves / verdicts if verdicts else 0.0
        out["simplex.iterations"] = iterations / batches
        out["simplex.iterations_per_solve"] = iterations / solves if solves else 0.0
        out["behavior_io.atomic_write_text.bytes"] = (
            self.counters["behavior_io.atomic_write_text.bytes"] / batches
        )
        return out

    def write_spans(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
