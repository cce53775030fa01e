"""One fresh benchmark process: set up, then run a workload's CLI calls.

Usage: ``python3 bench/child.py SPEC_JSON SPAWN_TIME``

The runner (``run.py``) writes SPEC_JSON and reads the record this
process writes back.  SPAWN_TIME is the runner's CLOCK_MONOTONIC reading
just before it started this process, so the set-up time covers
interpreter start, ``import nmoptomech`` and ``parse_config`` of every
config of the workload, i.e. everything before the first coefficient
solve.  The process then writes the memory-grid kernel table if the
workload needs one and it is not there yet, records the machine block,
and times each CLI call from the call into ``cli_runner.main`` to its
return.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
              "BLIS_NUM_THREADS")


def machine_block():
    """Facts that decide whether two benchmark results are comparable."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _write_kernel_table(nmoptomech, path):
    """OU kernel (Gamma=2, gamma=0.6) at lag step 0.01 up to lag 5."""
    import numpy as np

    lags = np.round(np.arange(0.0, 5.0 + 0.005, 0.01), 10)
    kernel = nmoptomech.OUKernel(Gamma=2.0, gamma=0.6)
    nmoptomech.write_kernel_table(path, lags, kernel.alpha(lags))


def main(spec_path, spawn_time):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import nmoptomech
    from nmoptomech import cli_runner

    if Path(nmoptomech.__file__).resolve().parent != (src / "nmoptomech").resolve():
        raise RuntimeError(f"imported nmoptomech from {nmoptomech.__file__}, not {src}")
    for run in spec["runs"]:
        cli_runner.parse_config(Path(run["config_path"]).read_text(encoding="utf-8"),
                                scenario=run["scenario"])
    record = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawn_time}

    # after the set-up timestamp and before the first timed CLI call
    table = spec["kernel_table"]
    if table and not Path(table).exists():
        _write_kernel_table(nmoptomech, table)
    record["machine"] = machine_block()
    tracer = restore = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from spans import Tracer

        tracer = Tracer()
        restore = tracer.install(nmoptomech)
    record["runs"] = []
    for run in spec["runs"]:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = cli_runner.main(run["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed run, not a lost record
            traceback.print_exc()
            rc = 1
        t1 = time.perf_counter()
        record["runs"].append({"rc": rc, "wall_s": t1 - t0, "cpu_s": _cpu_seconds() - cpu0,
                               "window": [t0, t1]})
    if tracer is not None:
        restore()
        record["spans"] = [vars(s) for s in tracer.spans]
        record["counts"] = tracer.counts
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(spec["record"]).write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
