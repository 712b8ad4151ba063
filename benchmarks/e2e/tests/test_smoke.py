"""--tiny smoke runs of every workload (scene 300, 3 passes, 200 chips).

Each run goes through ``run.main`` exactly as the command line does, in
this process: the engine's autotune cache is process-wide, so only the
first run pays for the conv-variant probes.
"""

import json
import math

import pytest

from e2e import harness, metrics, run

WORKLOADS = harness.WORKLOADS
SPEC = metrics.contract()


def _run(capsys, tmp_path, workload, trace=0, sabotage=None):
    out = tmp_path / f"{workload}_{trace}.json"
    argv = ["--workload", workload, "--seed", "5", "--seconds", "9",
            "--trace", str(trace), "--tiny", "--out", str(out)]
    if sabotage:
        argv += ["--sabotage", sabotage]
    code = run.main(argv)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last), json.loads(out.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return {}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_exactly_the_contract_metrics(capsys, tmp_path, results,
                                            workload, trace):
    code, last, full = _run(capsys, tmp_path, workload, trace)
    results[workload, trace] = full
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: e["unit"] for n, e in last["metrics"].items()} == \
        {e["name"]: e["unit"] for e in listed}
    # with the scoped metrics: exactly what is listed for this workload,
    # less what the run withheld (tiny chip_serve has no p99)
    emitted = {n: e["unit"] for group in ("metrics", "scoped")
               for n, e in full[group].items()}
    want = metrics.expected(workload, trace, SPEC)
    assert emitted == {n: u for n, u in want.items()
                       if n not in full["withheld"]}
    assert set(full["withheld"]) <= set(want) - set(last["metrics"])
    for name, entry in last["metrics"].items():
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name
    assert full["info"]["machine"]["nproc"] >= 1
    assert full["fingerprint"] == harness.host.fingerprint()
    for key in ("env", "git_sha", "seed", "plan", "kernel_choices", "timers"):
        assert key in full["info"], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_two_metrics_are_one_measurement(results, workload):
    """PR 12 published ms_per_tile, tiles_per_s and a bit-equal p90: three
    names, one number.  No two emitted timings may be equal, and the
    reciprocal of ms_per_tile must not be a contract metric."""
    for trace in (0, 1):
        full = results[workload, trace]
        timed = {n: e["value"] for group in ("metrics", "scoped")
                 for n, e in full[group].items()
                 if e["unit"] in ("ms", "s") and e["value"] != 0}
        values = list(timed.values())
        assert len(set(values)) == len(values), timed
    names = {e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert not names & set(metrics.SCOPED), "one name, one list"
    names |= set(metrics.SCOPED)
    assert "tiles_per_s" not in names
    assert not any(n.endswith(("_p90", "_p95")) for n in names)


def test_traced_scan_seq_is_scan_scene(results):
    """The spans describe the real pipeline only if the benchmark's own
    composition returns what ``scan_scene`` returns."""
    full = results["scan_seq", 1]
    checks = {c["name"]: c["ok"] for c in full["checks"]}
    assert checks["traced composition returns the entry point's result"]
    assert full["metrics"]["trace.residual_frac"]["value"] <= 0.05
    assert "span_self_ms_per_pass" in full["info"]
    trace_file = harness.OUT / "trace_scan_seq.json"
    events = json.loads(trace_file.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {"pass", "scanpar.tiling.gather", "engine.predict",
            "detect.scan.decode", "detect.scan.nms"} <= {e["name"] for e in spans}
    roots = [e for e in spans if e["name"] == "pass"]
    assert all(e["args"]["parent"] is None for e in roots)
    assert {e["args"]["pass"] for e in roots} == set(range(len(roots)))


def test_percentile_is_withheld_when_the_sample_is_too_small(results):
    """150 tiny requests leave one sample beyond p99: not emitted."""
    full = results["chip_serve", 0]
    assert "request_ms_p50" in full["scoped"]
    assert "request_ms_p99" not in full["scoped"]
    assert "required" in full["withheld"]["request_ms_p99"]


@pytest.mark.parametrize("workload,sabotage,tripped", [
    ("scan_seq", "eager_confidence", "engine matches eager on the tile sample"),
    ("scan_robust", "quarantine",
     "quarantined tiles are exactly the unrepairable ones"),
    ("chip_serve", "served_result",
     "served results match direct GuardedEngine.predict_batch"),
])
def test_each_correctness_check_trips(capsys, tmp_path, workload, sabotage,
                                      tripped):
    code, last, full = _run(capsys, tmp_path, workload, 0, sabotage)
    assert code != 0
    assert last["correct"] is False
    failed = [c["name"] for c in full["checks"] if not c["ok"]]
    assert tripped in failed
