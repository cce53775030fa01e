"""Span recorder for the traced benchmark run, and the per-layer metrics.

The tracer wraps the public calls that ``cli_runner`` makes into each
module of the package, from the benchmark's side: nothing inside the
package is traced.  A span records its name, start, end, thread and
parent; the parent comes from a thread-local stack, so spans opened in
the scan pool's worker threads nest on their own thread.  Spans stay in
memory and are written out when the run ends.

This module uses the standard library only, so the benchmark runner can
import it without starting the numerical stack.
"""

import functools
import inspect
import threading
import time
from dataclasses import dataclass

# (layer, call label, module the name is looked up in, attribute path).
# The module is the one whose global the caller resolves at call time:
# ``cli_runner`` for the names it imports, ``fock`` for the noise sampler
# that ``propagate_ensemble`` calls, and the classes for ``en_series``.
TIMED_CALLS = (
    ("kernel", "sample_noise_batch", "fock", "sample_noise_batch"),
    ("kernel", "read_kernel_table", "cli_runner", "read_kernel_table"),
    ("ocoeff", "solve_ocoeff", "cli_runner", "solve_ocoeff"),
    ("thermal", "effective_kernels", "cli_runner", "effective_kernels"),
    ("thermal", "solve_thermal_ocoeff", "cli_runner", "solve_thermal_ocoeff"),
    ("thermal", "integrate_thermal_master", "cli_runner", "integrate_thermal_master"),
    ("moments", "integrate_moments", "cli_runner", "integrate_moments"),
    ("gaussian_ent", "MomentTrajectory.en_series", "moments", "MomentTrajectory.en_series"),
    ("gaussian_ent", "RhoTrajectory.en_series", "fock", "RhoTrajectory.en_series"),
    ("gaussian_ent", "log_negativity", "cli_runner", "log_negativity"),
    ("fock", "integrate_master", "cli_runner", "integrate_master"),
    ("fock", "propagate_ensemble", "cli_runner", "propagate_ensemble"),
    ("fock", "average_trajectories", "cli_runner", "average_trajectories"),
    ("fock", "moments_from_rho", "cli_runner", "moments_from_rho"),
    ("fock", "build_operators", "cli_runner", "build_operators"),
    ("cli_runner", "parse_config", "cli_runner", "parse_config"),
    ("cli_runner", "write_csv", "cli_runner", "_write_csv"),
    ("cli_runner", "write_svg_lines", "cli_runner", "_write_svg_lines"),
    ("cli_runner", "write_svg_heat", "cli_runner", "_write_svg_heat"),
)

LAYERS = ("kernel", "ocoeff", "thermal", "moments", "gaussian_ent", "fock", "cli_runner")

# work counters: span name -> (counter name, multiply by this argument).
# Each call advances grid.n_steps time steps, times the path count for
# the trajectory ensemble.
STEP_COUNTERS = {
    "ocoeff.solve_ocoeff": ("ocoeff.steps", None),
    "moments.integrate_moments": ("moments.steps", None),
    "fock.integrate_master": ("fock.rho_steps", None),
    "thermal.integrate_thermal_master": ("thermal.rho_steps", None),
    "fock.propagate_ensemble": ("fock.path_steps", "n_paths"),
}

CALL_STATS = (("calls", "count"), ("self_s", "s"), ("cpu_s", "s"), ("wait_s", "s"))


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, call, _, _ in TIMED_CALLS:
        out += [(f"{layer}.{call}.{stat}", unit) for stat, unit in CALL_STATS]
    for counter, _ in STEP_COUNTERS.values():
        out += [(counter, "count"), (counter + "_per_s", "1/s")]
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.share", "1")]
    out += [
        ("cli_runner.output_bytes", "bytes"),
        ("cli_runner.other_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.span_self_s", "s"),
        ("trace.span_cpu_s", "s"),
    ]
    return out


@dataclass
class Span:
    id: int
    name: str
    parent: int  # id of the enclosing span on the same thread, or None
    thread: int
    start: float
    end: float = None
    cpu: float = None  # thread CPU seconds between start and end


class Tracer:
    """Collects spans and step counts from wrapped calls, in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {counter: 0 for counter, _ in STEP_COUNTERS.values()}
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        counter = STEP_COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                bound = sig.bind(*args, **kwargs).arguments
                steps = bound["grid"].n_steps
                if counter[1]:
                    steps *= bound[counter[1]]
                with self._lock:
                    self.counts[counter[0]] += steps
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                span = Span(id=len(self.spans), name=name,
                            parent=stack[-1].id if stack else None,
                            thread=threading.get_ident(), start=0.0)
                self.spans.append(span)
            stack.append(span)
            # the CPU readings sit inside the wall readings, so a span's
            # thread CPU never exceeds its wall time by the cost of a read
            span.start = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - cpu0
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package):
        """Patch every name in TIMED_CALLS on the imported ``package``.

        Returns a function that restores the original attributes.
        """
        undo = []
        for layer, call, module_name, attr in TIMED_CALLS:
            owner = getattr(package, module_name)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            undo.append((owner, last, original))
            setattr(owner, last, self.wrap(f"{layer}.{call}", original))

        def restore():
            for owner, last, original in reversed(undo):
                setattr(owner, last, original)

        return restore


def self_times(spans):
    """Per span id: (self wall seconds, self thread-CPU seconds).

    Self time is the span's duration minus the durations of its direct
    children; children run on the parent's thread, so they lie inside it.
    """
    child_wall = {}
    child_cpu = {}
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] = child_wall.get(s.parent, 0.0) + (s.end - s.start)
            child_cpu[s.parent] = child_cpu.get(s.parent, 0.0) + s.cpu
    return {s.id: ((s.end - s.start) - child_wall.get(s.id, 0.0),
                   s.cpu - child_cpu.get(s.id, 0.0)) for s in spans}


def covered_time(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def summarize(spans, counts, run_windows, output_bytes, untraced_wall_s):
    """Per-layer metrics from one traced run.

    ``run_windows`` are the (start, end) clock readings around each CLI
    ``main()`` call; ``untraced_wall_s`` is the wall time of the same
    workload with tracing off, for the overhead.
    """
    selfs = self_times(spans)
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0
               for name, unit in per_layer_metrics()}
    for s in spans:
        self_wall, self_cpu = selfs[s.id]
        metrics[s.name + ".calls"] += 1
        metrics[s.name + ".self_s"] += self_wall
        metrics[s.name + ".cpu_s"] += self_cpu
        metrics[s.name + ".wait_s"] += self_wall - self_cpu
        layer = s.name.split(".", 1)[0]
        metrics[layer + ".self_s"] += self_wall
        metrics["trace.span_self_s"] += self_wall
        metrics["trace.span_cpu_s"] += self_cpu
    for call, (counter, _) in STEP_COUNTERS.items():
        metrics[counter] = counts[counter]
        busy = metrics[call + ".self_s"]
        metrics[counter + "_per_s"] = counts[counter] / busy if busy > 0 else 0.0
    total_self = metrics["trace.span_self_s"]
    for layer in LAYERS:
        metrics[layer + ".share"] = metrics[layer + ".self_s"] / total_self if total_self > 0 else 0.0
    wall = sum(hi - lo for lo, hi in run_windows)
    top_level = [(s.start, s.end) for s in spans if s.parent is None]
    metrics["cli_runner.other_s"] = wall - covered_time(top_level)
    metrics["cli_runner.output_bytes"] = output_bytes
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - untraced_wall_s
    return metrics
