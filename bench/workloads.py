"""The four benchmark workloads and the check of their outputs.

Each workload is one or more CLI runs (``nmoptomech run ...``) with
config text generated here.  The inputs depend on the seed only through
the ``trajectories`` run, which receives it as ``--seed``; the other
three workloads are deterministic.  Why each workload exists is written
in ``NOTES.md`` next to this file.

Standard library only: the runner imports this without numpy.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 12345

# deterministic engines: En and manifest metrics must repeat to this
# absolute tolerance (the refactor target in ROADMAP.md)
EN_ABS_TOL = 1e-12

# trajectories at a seed other than the reference: the final En of 1,000
# paths at dims (6,6) must lie this close to the moments-engine En at the
# same parameters.  The spread over seeds and the truncation bias are
# recorded in NOTES.md.
TRAJ_EN_TOL = 0.04

TABLE_NAME = "kernel_table.txt"


@dataclass(frozen=True)
class CliRun:
    """One ``nmoptomech run`` call of a workload."""

    label: str
    scenario: str
    config: str  # config text, with the output directory filled in
    flags: tuple  # extra command-line flags, e.g. ("--seed", "7")
    out: str  # output directory
    steps: int  # engine time steps advanced, summed over points and paths
    en_columns: tuple  # (csv file, column-name prefix) pairs holding En

    def argv(self, config_path):
        return ["run", "--scenario", self.scenario, "--config", str(config_path),
                *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple
    kernel_table: str = None  # path of the OU kernel table to write, if any

    @property
    def steps(self):
        return sum(r.steps for r in self.runs)


NAMES = ("gauss-scan", "number-basis", "memory-grid", "trajectories")

# full sizes, and the toy sizes the benchmark's self-test runs
_SIZES = {
    False: {"fig4_tfinal": None, "dims": "10,10", "t0": 10.0, "tT": 5.0,
            "grid_t": 10.0, "traj_dims": "6,6", "paths": 1000, "traj_t": 10.0},
    True: {"fig4_tfinal": 0.2, "dims": "3,3", "t0": 0.2, "tT": 0.2,
           "grid_t": 0.3, "traj_dims": "3,3", "paths": 8, "traj_t": 0.2},
}

DT = 0.01


def _steps(t_final):
    return int(round(t_final / DT))


def _custom_config(out, system, bath, t_final, run):
    lines = ["[system]", "delta = 1.0", "coupling = 0.1", *system,
             "[bath]", *bath,
             "[grid]", f"dt = {DT}", f"t_final = {t_final}",
             "[run]", f"out = {out}", *run]
    return "\n".join(lines) + "\n"


def build(name, seed, work_dir, toy=False):
    """The workload called ``name`` with its outputs under ``work_dir``."""
    size = _SIZES[toy]
    work_dir = Path(work_dir)

    def out(label):
        return str(work_dir / label)

    if name == "gauss-scan":
        flags = ("--tfinal", str(size["fig4_tfinal"])) if toy else ()
        t_final = size["fig4_tfinal"] or 30.0
        cfg = f"[run]\nout = {out('fig4')}\nformat = csv,svg\n"
        runs = (CliRun("fig4", "fig4", cfg, flags, out("fig4"),
                       21 * _steps(t_final), (("fig4_en_grid.csv", "en_"),)),)
        return Workload(name, runs)
    if name == "number-basis":
        zero_t = _custom_config(
            out("zero-t"), [], ["decay = 2.0", "gamma = 0.6"], size["t0"],
            ["engine = fock-master", f"dims = {size['dims']}"])
        finite_t = _custom_config(
            out("finite-t"), [], ["decay = 0.4", "gamma = 2.0", "temperature = 0.1"],
            size["tT"], ["engine = fock-master", f"dims = {size['dims']}"])
        runs = (
            CliRun("zero-t", "custom", zero_t, (), out("zero-t"),
                   _steps(size["t0"]), (("timeseries.csv", "en"),)),
            CliRun("finite-t", "custom", finite_t, (), out("finite-t"),
                   _steps(size["tT"]), (("timeseries.csv", "en"),)),
        )
        return Workload(name, runs)
    if name == "memory-grid":
        table = str(work_dir / TABLE_NAME)
        cfg = _custom_config(out("grid"), [], ["kernel = tabulated", f"table = {table}"],
                             size["grid_t"], ["engine = moments"])
        runs = (CliRun("grid", "custom", cfg, (), out("grid"),
                       _steps(size["grid_t"]), (("timeseries.csv", "en"),)),)
        return Workload(name, runs, kernel_table=table)
    if name == "trajectories":
        cfg = _custom_config(
            out("traj"), [], ["decay = 2.0", "gamma = 0.6"], size["traj_t"],
            ["engine = trajectories", f"dims = {size['traj_dims']}",
             f"paths = {size['paths']}"])
        runs = (CliRun("traj", "custom", cfg, ("--seed", str(seed)), out("traj"),
                       size["paths"] * _steps(size["traj_t"]),
                       (("timeseries.csv", "en"),)),)
        return Workload(name, runs)
    raise ValueError(f"unknown workload {name!r}")


def moments_twin(workload):
    """The trajectories run on the moments engine: the statistical oracle."""
    (run,) = workload.runs
    cfg = (run.config.replace("engine = trajectories", "engine = moments")
           .replace(run.out, run.out + "-moments"))
    return CliRun("traj-moments", "custom", cfg, (), run.out + "-moments",
                  0, run.en_columns)


# ------------------------------------------------------------ output check


def _read_columns(path, prefix):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [float(r[i]) for r in body]
            for i, name in enumerate(header) if name.startswith(prefix)}


def observe(run):
    """What the check compares for one finished CLI run."""
    out = Path(run.out)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    missing = [f for f in manifest["outputs"] if not (out / f).exists()]
    if missing:
        raise ValueError(f"outputs listed in the manifest are missing: {missing}")
    en = {}
    for fname, prefix in run.en_columns:
        for col, values in _read_columns(out / fname, prefix).items():
            en[f"{fname}:{col}"] = values
    return {"metrics": manifest["metrics"], "en": en}


def _close(a, b, tol):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= tol


def _compare(got, ref, tol, where):
    """Differences between two JSON-like values, as readable strings."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ"]
        return [d for k in sorted(ref) for d in _compare(got[k], ref[k], tol, f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: length differs"]
        return [d for i, (g, r) in enumerate(zip(got, ref))
                for d in _compare(g, r, tol, f"{where}[{i}]")]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(got, (int, float)) and _close(float(got), float(ref), tol):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def check(workload, run, seed, reference):
    """Problems with one finished run's outputs; an empty list means correct.

    At the reference seed every run must match the recorded manifest
    metrics and En columns to EN_ABS_TOL.  The trajectories run at any
    other seed must end within TRAJ_EN_TOL of the moments-engine En.
    """
    try:
        got = observe(run)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc}"]
    if workload.name == "trajectories" and seed != REFERENCE_SEED:
        en_final = got["metrics"].get("en_final")
        oracle = reference[workload.name]["moments_en_final"]
        if isinstance(en_final, float) and abs(en_final - oracle) <= TRAJ_EN_TOL:
            return []
        return [f"en_final {en_final!r} is not within {TRAJ_EN_TOL} "
                f"of the moments engine's {oracle!r}"]
    return _compare(got, reference[workload.name][run.label], EN_ABS_TOL, "output")
