import json

from e2e import agree, metrics, run

SPEC = metrics.contract()


def _set(ms, rss=600.0, workload="scan_seq", scoped=None):
    return [{
        "workload": workload, "trace": 0, "fingerprint": "f", "info": {},
        "metrics": {"ms_per_tile": {"value": v, "unit": "ms"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}},
        "scoped": scoped or {},
    } for v in ms]


def _bound(name):
    return next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == name)


def test_same_code_sets_must_agree_in_both_directions():
    bound = _bound("ms_per_tile")
    a = _set([8.0, 8.2, 7.8])
    inside = _set([v * (1 + bound * 0.9) for v in (8.0, 8.2, 7.8)])
    over = _set([v * (1 + bound * 1.1) for v in (8.0, 8.2, 7.8)])
    rows = {r["metric"]: r for r in agree.compare(a, inside, SPEC)}
    assert rows["ms_per_tile"]["ok"] and rows["ms_per_tile"]["bound"] == bound
    assert abs(rows["ms_per_tile"]["gap"] - bound * 0.9) < 1e-9
    assert rows["ms_per_tile"]["median_a"] == 8.0
    assert rows["peak_rss_mb"]["ok"]
    # the verdict must not depend on which set is named first
    for first, second in ((a, over), (over, a)):
        rows = {r["metric"]: r for r in agree.compare(first, second, SPEC)}
        assert not rows["ms_per_tile"]["ok"]
        assert abs(rows["ms_per_tile"]["gap"] - bound * 1.1) < 1e-9
    assert rows["ms_per_tile"]["b_worse"] is False


def test_one_sided_is_parent_versus_change():
    bound = _bound("ms_per_tile")
    parent = _set([8.0, 8.2, 7.8])
    slower = _set([v * (1 + bound * 1.1) for v in (8.0, 8.2, 7.8)])
    rows = agree.compare(parent, slower, SPEC, one_sided=True)
    assert not {r["metric"]: r for r in rows}["ms_per_tile"]["ok"]
    # an improvement is never a regression
    rows = agree.compare(slower, parent, SPEC, one_sided=True)
    assert all(r["ok"] for r in rows)


def test_traced_runs_and_unbounded_metrics_are_ignored():
    a = _set([8.0] * 3)
    traced = _set([80.0] * 3)
    for r in traced:
        r["trace"] = 1
    rows = agree.compare(a, a + traced, SPEC)
    assert {r["metric"] for r in rows} == {"ms_per_tile", "peak_rss_mb"}
    assert all(r["gap"] == 0 for r in rows)


def test_chip_serve_latency_is_bounded_from_the_scoped_table():
    def scoped(p50):
        return {"request_ms_p50": {"value": p50, "unit": "ms"}}
    a = _set([9.0] * 3, workload="chip_serve", scoped=scoped(80.0))
    b = _set([9.0] * 3, workload="chip_serve", scoped=scoped(110.0))
    rows = {r["metric"]: r for r in agree.compare(a, b, SPEC)}
    assert rows["request_ms_p50"]["bound"] == \
        metrics.SCOPED["request_ms_p50"].bound
    assert not rows["request_ms_p50"]["ok"]


def test_cli_exit_code_and_table(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_set([8.0, 8.1, 7.9])))
    b.write_text(json.dumps(_set([8.0, 8.1, 7.9])))
    assert run.main(["agree", str(a), str(b)]) == 0
    table = capsys.readouterr().out
    assert "ms_per_tile" in table and "verdict" in table and "ok" in table
    b.write_text(json.dumps(_set([80.0, 81.0, 79.0])))
    assert run.main(["agree", str(a), str(b)]) == 1
    assert "OVER BOUND" in capsys.readouterr().out
    assert run.main(["agree", "--one-sided", str(b), str(a)]) == 0
