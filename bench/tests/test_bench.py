"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench/tests

Runs every workload with tiny grids through the same runner, child
process and output check as the real benchmark, against a reference
recorded at toy size in a temporary directory.
"""

import json
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
OTHER_SEED = 7


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    work = tmp_path_factory.mktemp("bench")
    reference = work / "reference.json"
    run.record_reference(path=reference, work_root=work, toy=True)
    return work, reference


def _run(toy, name, trace, reference=None, seed=OTHER_SEED):
    work, recorded = toy
    return run.run_workload(name, seed, 0, trace, work_root=work,
                            reference_path=reference or recorded, toy=True)


def test_spans_nest_and_no_self_time_is_negative():
    tracer = spans.Tracer()
    leaf = tracer.wrap("a.leaf", lambda: time.sleep(0.002))

    def body():
        leaf()
        time.sleep(0.001)
        leaf()

    outer = tracer.wrap("a.outer", body)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == 6
    for s in tracer.spans:
        if s.name == "a.outer":
            assert s.parent is None
        else:
            parent = by_id[s.parent]
            assert parent.name == "a.outer" and parent.thread == s.thread
            assert parent.start <= s.start <= s.end <= parent.end
    selfs = spans.self_times(tracer.spans)
    assert all(wall >= 0.0 for wall, _ in selfs.values())
    total_self = sum(wall for wall, _ in selfs.values())
    top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert total_self == pytest.approx(top)
    # the two outer spans overlap in time, so their union is shorter
    assert spans.covered_time([(s.start, s.end) for s in tracer.spans
                               if s.parent is None]) < top


def test_declared_metrics_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in DECLARED["per_layer"]] == spans.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_named_metric(toy, trace):
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    for name in workloads.NAMES:
        result = _run(toy, name, trace)
        assert result["failed"] == 0, result["problems"]
        line = run._summary_line(result)
        assert line["correct"] and line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        if trace:
            m = result["metrics"]
            assert result["engine_steps"]["counted"] == result["engine_steps"]["expected"]
            assert all(m[f"{layer}.share"] >= 0.0 for layer in spans.LAYERS)
            assert sum(m[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(1.0)
        else:
            assert all(result["metrics"][k] > 0 for k in declared)


def test_wrong_reference_counts_as_failure(toy, tmp_path):
    work, recorded = toy
    reference = json.loads(recorded.read_text(encoding="utf-8"))
    column = reference["gauss-scan"]["fig4"]["en"]["fig4_en_grid.csv:en_omega0p1"]
    column[len(column) // 2] += 1e-9  # one row in the middle of the column
    reference["trajectories"]["moments_en_final"] += 1.0
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(reference), encoding="utf-8")

    scan = _run(toy, "gauss-scan", 0, reference=wrong, seed=workloads.REFERENCE_SEED)
    assert scan["attempted"] >= 1 and scan["failed"] == scan["attempted"]
    assert not run._summary_line(scan)["correct"]
    assert "en_omega0p1" in scan["problems"][0]

    traj = _run(toy, "trajectories", 0, reference=wrong, seed=OTHER_SEED)
    assert traj["failed"] == traj["attempted"]
    # the reference seed is checked against the recorded outputs instead
    traj = _run(toy, "trajectories", 0, reference=wrong, seed=workloads.REFERENCE_SEED)
    assert traj["failed"] == 0
