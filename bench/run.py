"""nmoptomech benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all
    python3 bench/run.py --record-reference

NAME is one of gauss-scan, number-basis, memory-grid, trajectories, or
``all`` for the four one after another.  Every workload iteration runs
in a fresh child process (``child.py``) that
imports the package from ``src/`` of this checkout and calls the public
CLI entry point ``nmoptomech.cli_runner.main``; the program's own
threading is left alone, and this runner runs one child at a time.

With ``--trace 0`` the workload repeats until its iterations have taken
``--seconds`` (at least once) and the end-to-end metrics are medians
over iterations, ``setup_s`` among them: each iteration's child sets up
afresh.  With ``--trace 1`` it runs once untraced and once traced, and reports
the per-layer metrics of the traced run.  Every CLI
run's outputs are checked against ``reference.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A result file with the machine block, the raw samples and, when traced,
the spans, is written to ``.bench_out/<workload>/``.

The runner uses the standard library only.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".bench_out"

END_TO_END = (("wall_s", "s"), ("steps_per_s", "1/s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
# the whole run of one workload, children included, ends within this
BUDGET_S = 170.0


class SetupError(Exception):
    """The program could not be set up at all, so nothing was measured."""


def _now():
    # system-wide monotonic clock, comparable between parent and child
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _host_steal_s():
    """CPU seconds the hypervisor gave to other guests, summed over CPUs.

    Timings on a shared host move with it, so each sample records it.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


class _Session:
    """One workload's working directory, child processes and tallies."""

    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.machine = None  # machine block of the first child that finished
        self._n = 0
        for run in workload.runs:
            self.config_path(run).write_text(run.config, encoding="utf-8")

    def config_path(self, run):
        return self.work / f"{run.label}.cfg"

    def spawn(self, runs, trace=False):
        """Run one child to completion; return its record, or None."""
        self._n += 1
        tag = f"{self._n:03d}-{'trace' if trace else 'run'}"
        record_path = self.work / f"{tag}.record.json"
        spec = {
            "root": str(ROOT), "trace": trace,
            "record": str(record_path), "kernel_table": self.workload.kernel_table,
            "runs": [{"scenario": r.scenario, "config_path": str(self.config_path(r)),
                      "argv": r.argv(self.config_path(r))} for r in runs],
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = self.deadline - _now()
        if timeout <= 0:
            raise SetupError("time budget of the run is spent")
        steal0 = _host_steal_s()
        with open(self.work / f"{tag}.log", "w", encoding="utf-8") as log:
            spawned = _now()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), repr(spawned)],
                    stdout=log, stderr=subprocess.STDOUT, cwd=self.work, timeout=timeout)
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not record_path.exists():
            return None
        record = json.loads(record_path.read_text(encoding="utf-8"))
        steal1 = _host_steal_s()
        record["host_steal_s"] = None if steal0 is None or steal1 is None else steal1 - steal0
        if self.machine is None:
            self.machine = record["machine"]
        return record

    def log_tail(self):
        logs = sorted(self.work.glob("*.log"))
        if not logs:
            return ""
        return "\n".join(logs[-1].read_text(encoding="utf-8").splitlines()[-20:])

    def iterate(self, reference, trace=False):
        """Run the workload once in a fresh child and check its outputs.

        Returns the child's record when every CLI run succeeded and
        passed the check, else None.
        """
        for run in self.workload.runs:
            shutil.rmtree(run.out, ignore_errors=True)
        record = self.spawn(self.workload.runs, trace)
        results = record["runs"] if record else [None] * len(self.workload.runs)
        ok = True
        for run, res in zip(self.workload.runs, results):
            self.attempted += 1
            if res is None:
                found = ["the child process died or timed out"]
            elif res["rc"] != 0:
                found = [f"exit code {res['rc']}"]
            else:
                found = workloads.check(self.workload, run, self.seed, reference)
            if found:
                self.failed += 1
                ok = False
                self.problems += [f"{run.label}: {p}" for p in found]
        return record if ok else None


def _output_bytes(workload):
    return sum(f.stat().st_size for run in workload.runs
               for f in Path(run.out).rglob("*") if f.is_file())


def _wall(record):
    return sum(r["wall_s"] for r in record["runs"])


def _end_to_end(workload, records):
    med = statistics.median
    return {
        "wall_s": med(_wall(r) for r in records),
        "steps_per_s": med(workload.steps / _wall(r) for r in records),
        "cpu_s": med(sum(x["cpu_s"] for x in r["runs"]) for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
        "setup_s": med(r["setup_s"] for r in records),
    }


def _per_layer(workload, untraced, traced):
    span_list = [spans.Span(**s) for s in traced["spans"]]
    metrics = spans.summarize(span_list, traced["counts"],
                              [r["window"] for r in traced["runs"]],
                              _output_bytes(workload), _wall(untraced))
    engine_steps = sum(metrics[c] for c in ("moments.steps", "fock.rho_steps",
                                            "thermal.rho_steps", "fock.path_steps"))
    return metrics, span_list, engine_steps


def run_workload(name, seed, seconds, trace, work_root=WORK_ROOT,
                 reference_path=REFERENCE, toy=False):
    """Measure one workload; return the result (see the module docstring)."""
    started = _now()
    load_at_start = os.getloadavg()
    if not (ROOT / "src" / "nmoptomech" / "cli_runner.py").is_file():
        raise SetupError(f"no package source under {ROOT / 'src'}")
    try:
        reference = json.loads(Path(reference_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read the reference outputs: {exc}") from None
    work = Path(work_root) / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed, work, toy=toy)
    session = _Session(workload, seed, work, started + BUDGET_S)
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "load_at_start": load_at_start}
    if trace:
        untraced = session.iterate(reference)
        traced = session.iterate(reference, trace=True)
        if untraced is None or traced is None:
            metrics = {name: 0.0 for name, _ in spans.per_layer_metrics()}
        else:
            metrics, span_list, engine_steps = _per_layer(workload, untraced, traced)
            (work / "trace_spans.json").write_text(
                json.dumps([vars(s) for s in span_list]), encoding="utf-8")
            del traced["spans"]
            result["samples"] = [untraced, traced]
            result["engine_steps"] = {"counted": engine_steps, "expected": workload.steps}
            if engine_steps != workload.steps:
                print(f"warning: traced engine steps {engine_steps} differ from the "
                      f"{workload.steps} that steps_per_s assumes")
        units = dict(spans.per_layer_metrics())
    else:
        # repeat until the iterations have taken --seconds, at least once,
        # and stop early rather than overrun the run's time budget
        records = []
        durations = []
        while not durations or sum(durations) < seconds:
            t0 = _now()
            record = session.iterate(reference)
            durations.append(_now() - t0)
            if record is not None:
                records.append(record)
            if _now() - started + max(durations) > BUDGET_S:
                break
        result["samples"] = records
        metrics = (_end_to_end(workload, records) if records
                   else {name: 0.0 for name, _ in END_TO_END})
        units = dict(END_TO_END)
    if session.machine is None:
        raise SetupError(f"no child process finished:\n{session.log_tail()}")
    result.update(machine=session.machine, attempted=session.attempted, failed=session.failed,
                  problems=session.problems, metrics=metrics, units=units)
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def _summary_line(result):
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": result["units"][k]}
                        for k, v in result["metrics"].items()}}


def _print_human(result):
    m = result["machine"]
    print(f"# {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
          f"nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['blas']['openblas configuration']}, "
          f"load at start {result['load_at_start'][0]:.2f}, host steal during the "
          f"iterations {sum(r['host_steal_s'] or 0.0 for r in result.get('samples', [])):.2f} s")
    for name, value in result["metrics"].items():
        print(f"{result['workload']:>13}  {name:<50} {value:>16.6g} {result['units'][name]}")
    frac = result["failed"] / result["attempted"]
    print(f"{result['workload']:>13}  {'failed_frac':<50} {frac:>16.6g} 1"
          f"  ({result['failed']} of {result['attempted']} CLI runs)")
    for p in result["problems"]:
        print(f"{result['workload']:>13}  problem: {p}")


def record_reference(path=REFERENCE, work_root=WORK_ROOT, toy=False):
    """Run every workload once at the reference seed and store its outputs."""
    reference = {}
    for name in workloads.NAMES:
        work = Path(work_root) / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = workloads.build(name, workloads.REFERENCE_SEED, work, toy=toy)
        session = _Session(workload, workloads.REFERENCE_SEED, work, _now() + 10 * BUDGET_S)
        runs = workload.runs
        if name == "trajectories":
            twin = workloads.moments_twin(workload)
            session.config_path(twin).write_text(twin.config, encoding="utf-8")
            runs = runs + (twin,)
        record = session.spawn(runs)
        if record is None or any(r["rc"] != 0 for r in record["runs"]):
            raise SetupError(f"{name}: reference run failed:\n{session.log_tail()}")
        reference[name] = {r.label: workloads.observe(r) for r in workload.runs}
        if name == "trajectories":
            reference[name]["moments_en_final"] = workloads.observe(twin)["metrics"]["en_final"]
    # one line per workload: the En columns hold every row
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(reference.items())]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def _exit_on_sigterm(signum, frame):
    # raising here makes subprocess.run kill and reap the running child
    sys.exit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.record_reference == bool(args.workload):
        parser.error("give exactly one of --workload and --record-reference")
    try:
        if args.record_reference:
            record_reference()
            print(f"wrote {REFERENCE}")
            return 0
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    for result in results:
        _print_human(result)
    if len(results) == 1:
        print(json.dumps(_summary_line(results[0])))
        return 0
    lines = [_summary_line(r) for r in results]
    print(json.dumps({
        "correct": all(x["correct"] for x in lines),
        "attempted": sum(x["attempted"] for x in lines),
        "failed": sum(x["failed"] for x in lines),
        "metrics": {f"{r['workload']}.{k}": v for r, x in zip(results, lines)
                    for k, v in x["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
