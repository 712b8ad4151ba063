"""The paper's simulated artifacts regenerate from the code, byte for byte.

Each case runs ``python -m repro.experiments <id> --out DIR`` in-process,
at the CLI's defaults, and compares the file it writes with the committed
``results/<id>.json``.  The paper's claims are then asserted on the
regenerated artifact, which that comparison proves is the committed one.

The experiments that train (``table1``, ``baseline-comparison`` and the
NAS ``pipeline``) are not compared: their bits follow the BLAS thread
count, and the committed files record neither count nor kernel (ROADMAP
item 20).  Their runners get one slow smoke each at a minimal budget.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS
from repro.experiments import (
    BaselineSettings,
    Table1Settings,
    run_baseline_comparison,
    run_table1,
    select_optimal_batch,
)
from repro.experiments.cli import EXPERIMENTS, main

RESULTS = Path(__file__).resolve().parents[1] / "results"
TRAINED = {"pipeline", "table1", "baseline-comparison"}
SIMULATED = [name for name in EXPERIMENTS if name not in TRAINED]
#: the one column measured on the host's clock (how long the scheduler
#: itself ran), so it differs on every run and is not compared
WALL_CLOCK = "Scheduling time (ms)"


@pytest.fixture(scope="module")
def regenerate(tmp_path_factory):
    """``regenerate(id)``: the path of the artifact the CLI writes for
    ``id``, run once per module."""
    out = tmp_path_factory.mktemp("results")

    def run(name: str) -> Path:
        path = out / f"{name}.json"
        if not path.exists():
            assert main([name, "--out", str(out)]) == 0
        return path

    return run


@pytest.fixture(scope="module")
def rows(regenerate):
    """``rows(id)``: the regenerated artifact's rows."""
    return lambda name: json.loads(regenerate(name).read_text())["rows"]


def _fields(payload: dict) -> dict[str, str]:
    """Each top-level field, and each row cell under its column header,
    as JSON text; wall-clock cells are left out."""
    headers = payload.get("headers", [])
    fields = {}
    for key, value in payload.items():
        if key not in ("rows", "paper_reference"):
            fields[key] = json.dumps(value)
            continue
        for r, row in enumerate(value):
            for c, cell in enumerate(row):
                header = headers[c] if c < len(headers) else f"column {c}"
                if header != WALL_CLOCK:
                    fields[f"{key}[{r}] {header!r}"] = json.dumps(cell)
    return fields


def differences(regenerated: dict, committed: dict) -> list[str]:
    new, old = _fields(regenerated), _fields(committed)
    return [f"{key}: committed {old.get(key, '(absent)')}, "
            f"regenerated {new.get(key, '(absent)')}"
            for key in dict.fromkeys([*old, *new]) if new.get(key) != old.get(key)]


def test_every_committed_artifact_is_checked_or_trained():
    committed = {path.stem for path in RESULTS.glob("*.json")}
    assert set(SIMULATED) <= committed
    # table1-augmented has no writer: no Table1Settings(augment=True) caller
    assert committed - set(SIMULATED) == {"table1", "table1-augmented",
                                          "baseline-comparison"}


@pytest.mark.parametrize("name", SIMULATED)
def test_artifact_regenerates(name, regenerate):
    path, committed = regenerate(name), RESULTS / f"{name}.json"
    diff = differences(json.loads(path.read_text()),
                       json.loads(committed.read_text()))
    assert not diff, (
        f"{name}: the CLI's output differs from results/{name}.json "
        f"(Python {platform.python_version()}, numpy {np.__version__}):\n  "
        + "\n  ".join(diff))
    if WALL_CLOCK not in json.loads(committed.read_text())["headers"]:
        assert path.read_bytes() == committed.read_bytes(), (
            f"{name}: same values as results/{name}.json, other bytes")


def test_differences_name_the_cell_and_skip_the_wall_clock():
    committed = {"headers": ["Scheduler", WALL_CLOCK, "Stages"],
                 "rows": [["ios-dp", "1239.86", 2]], "notes": "n"}
    regenerated = json.loads(json.dumps(committed))
    regenerated["rows"][0][1] = "278.62"
    assert differences(regenerated, committed) == []
    regenerated["rows"][0][2] = 2.0
    regenerated["notes"] = "m"
    assert differences(regenerated, committed) == [
        "rows[0] 'Stages': committed 2, regenerated 2.0",
        'notes: committed "n", regenerated "m"']


# -- the paper's claims, on the regenerated artifacts ---------------------

def _number(cell) -> float:
    return float(str(cell).split()[0].rstrip("%x"))


def test_table2_ios_beats_sequential_for_every_model(rows):
    table = rows("table2")
    assert [row[0] for row in table] == list(TABLE1_MODELS)
    for _, sequential, optimized, _ in table:
        assert _number(optimized) < _number(sequential)


def test_table3_conv_share_rises_and_matmul_share_falls(rows):
    by_batch = {row[0]: [_number(cell) for cell in row[1:]]
                for row in rows("table3")}
    matmul, _, conv = zip(*(by_batch[b] for b in (1, 64)))
    assert conv[1] > conv[0]
    assert matmul[0] > matmul[1]


def test_fig5_selects_exactly_one_model(rows):
    assert sum(1 for row in rows("fig5") if row[-1]) == 1


def test_fig6_batching_pays_with_diminishing_gains(rows):
    per_image = {row[0]: _number(row[2]) for row in rows("fig6")}
    assert per_image[64] < per_image[1]
    assert select_optimal_batch(per_image) in (16, 32, 64)


def test_fig7_memops_amortize_and_memory_stays_far_from_capacity(rows):
    fig7 = rows("fig7")
    assert _number(fig7[0][1]) > _number(fig7[-1][1])
    assert all(_number(row[3]) < 5.0 for row in fig7)


def test_fig8_sync_overtakes_libload_by_batch_64(rows):
    first, last = rows("fig8")[0], rows("fig8")[-1]
    libload, sync = 1, 2
    assert _number(first[libload]) > 60.0
    assert _number(last[sync]) > _number(first[sync])
    assert _number(last[sync]) > _number(last[libload])


def test_ablation_scheduler_dp_never_loses(rows):
    for _, sequential, greedy, single_stage, dp, _ in rows("ablation-scheduler"):
        assert _number(dp) <= min(map(_number, (sequential, greedy, single_stage)))


def test_ablation_spp_and_strategy_cover_every_variant(rows):
    assert len(rows("ablation-spp")) == 4
    assert [row[0] for row in rows("ablation-strategy")] == [
        "random (paper)", "grid", "evolution", "bandit"]


def test_rammer_style_is_cheaper_than_the_dp_but_not_faster(rows):
    by = {row[0]: row for row in rows("ablation-scheduling-cost")}
    assert _number(by["rammer-style"][1]) < _number(by["ios-dp"][1])
    assert _number(by["ios-dp"][2]) <= _number(by["rammer-style"][2])


def test_input_size_sweep_latency_grows_with_the_input(rows):
    sweep = rows("input-size-sweep")
    assert [row[0] for row in sweep] == ["100x100", "200x200", "400x400",
                                         "800x800"]
    latency = [_number(row[2]) for row in sweep]
    assert latency == sorted(latency)


def test_pareto_front_has_a_knee(rows):
    assert any("knee" in row[3] for row in rows("pareto-front"))


# -- the trained runners, at a minimal budget ----------------------------

@pytest.mark.slow
def test_table1_runner_is_well_formed():
    result = run_table1(
        Table1Settings(epochs=1, num_scenes=1, chips_per_crossing=1),
        models={"SPP-Net #1": TABLE1_MODELS["SPP-Net #1"]})
    assert [row[0] for row in result.rows] == ["SPP-Net #1"]
    assert 0.0 <= _number(result.rows[0][2]) <= 100.0


@pytest.mark.slow
def test_baseline_runner_is_well_formed():
    result = run_baseline_comparison(BaselineSettings(
        num_scenes=1, chips_per_crossing=1, sppnet_epochs=1, rcnn_epochs=1))
    assert len(result.rows) == 2
    for _, ap, accuracy, _, parameters in result.rows:
        assert 0.0 <= _number(ap) <= 100.0
        assert 0.0 <= _number(accuracy) <= 100.0
        assert parameters > 0
