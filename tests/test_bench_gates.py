"""Tests for the shared benchmark gate helpers and the regression tracker.

``benchmarks/`` is not a package (its scripts import each other by
sys.path adjacency), so these tests add it to ``sys.path`` explicitly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import check_regression  # noqa: E402
import gates  # noqa: E402


def make_payload(bench="demo", checks=()):
    payload = {"benchmark": bench, "detail": {"latency_ms": 1.0}}
    gates.attach(payload, list(checks))
    return payload


class TestCheck:
    def test_ge_passes_and_fails(self):
        assert gates.check("x", 4.2, ">=", 4.0).passed
        assert not gates.check("x", 3.9, ">=", 4.0).passed

    def test_le_passes_and_fails(self):
        assert gates.check("x", 0.05, "<=", 0.10).passed
        assert not gates.check("x", 0.15, "<=", 0.10).passed

    def test_bool_check(self):
        assert gates.check("x", True, "bool").passed
        assert not gates.check("x", False, "bool").passed

    def test_info_check_records_without_a_verdict(self):
        row = gates.check("ratio", 1e9, "info", track=False)
        assert row.passed and gates.evaluate([row]) == []
        assert row.to_json()["threshold"] is None

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            gates.check("x", 1.0, "==", 1.0).passed

    def test_evaluate_collects_failure_messages(self):
        msgs = gates.evaluate([gates.check("good", 2.0, ">=", 1.0),
                               gates.check("bad", 0.5, ">=", 1.0)])
        assert len(msgs) == 1 and "bad" in msgs[0]

    def test_attach_embeds_machine_readable_gates(self):
        payload = make_payload(checks=[
            gates.check("a", 2.0, ">=", 1.0),
            gates.check("b", 9.9, "<=", 1.0, track=False)])
        section = payload["gates"]
        assert section["passed"] is False
        by_name = {c["name"]: c for c in section["checks"]}
        assert by_name["a"]["passed"] is True
        assert by_name["b"]["passed"] is False
        assert by_name["b"]["track"] is False
        assert by_name["b"]["op"] == "<="
        json.dumps(payload)  # must be serializable as-is

    def test_finish_writes_payload_before_enforcing(self, tmp_path, capsys):
        out = tmp_path / "BENCH_x.json"
        with pytest.raises(SystemExit):
            gates.finish({"benchmark": "x"},
                         [gates.check("bad", 0.0, ">=", 1.0)], out)
        saved = json.loads(out.read_text())
        assert saved["gates"]["passed"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_finish_gate_off_never_exits(self, tmp_path):
        out = tmp_path / "BENCH_x.json"
        gates.finish({"benchmark": "x"},
                     [gates.check("bad", 0.0, ">=", 1.0)], out,
                     enforce=False)
        assert json.loads(out.read_text())["gates"]["passed"] is False


class TestCompare:
    def nominal(self):
        return make_payload(checks=[
            gates.check("speedup", 4.2, ">=", 4.0),
            gates.check("share", 0.05, "<=", 0.10),
            gates.check("err", 1e-6, "<=", 1e-5, track=False),
            gates.check("flag", True, "bool")])

    def test_identical_payload_passes(self):
        base = self.nominal()
        rows, failures = check_regression.compare(base, base, 0.10)
        assert failures == []
        assert all(r["status"] in ("ok", "untracked") for r in rows)

    def test_small_drift_within_tolerance_passes(self):
        cur = make_payload(checks=[
            gates.check("speedup", 4.05, ">=", 4.0),  # -3.6% vs 4.2
            gates.check("share", 0.053, "<=", 0.10),
            gates.check("err", 1e-6, "<=", 1e-5, track=False),
            gates.check("flag", True, "bool")])
        _, failures = check_regression.compare(cur, self.nominal(), 0.10)
        assert failures == []

    def test_over_ten_percent_drop_on_ge_check_fails(self):
        base = make_payload(checks=[gates.check("speedup", 5.0, ">=", 4.0)])
        cur = make_payload(checks=[gates.check("speedup", 4.4, ">=", 4.0)])
        _, failures = check_regression.compare(cur, base, 0.10)
        assert len(failures) == 1 and "-12.0%" in failures[0]

    def test_over_ten_percent_rise_on_le_check_fails(self):
        base = make_payload(checks=[gates.check("share", 0.05, "<=", 0.10)])
        cur = make_payload(checks=[gates.check("share", 0.06, "<=", 0.10)])
        _, failures = check_regression.compare(cur, base, 0.10)
        assert len(failures) == 1 and "+20.0%" in failures[0]

    def test_improvement_never_fails(self):
        base = make_payload(checks=[
            gates.check("speedup", 4.2, ">=", 4.0),
            gates.check("share", 0.08, "<=", 0.10)])
        cur = make_payload(checks=[
            gates.check("speedup", 8.4, ">=", 4.0),   # 2x better
            gates.check("share", 0.01, "<=", 0.10)])  # 8x better
        _, failures = check_regression.compare(cur, base, 0.10)
        assert failures == []

    def test_untracked_check_exempt_from_drift(self):
        base = make_payload(checks=[
            gates.check("err", 1e-7, "<=", 1e-5, track=False)])
        cur = make_payload(checks=[
            gates.check("err", 9e-6, "<=", 1e-5, track=False)])  # 90x worse
        rows, failures = check_regression.compare(cur, base, 0.10)
        assert failures == []
        assert rows[0]["status"] == "untracked"

    def test_untracked_check_still_gate_enforced(self):
        cur = make_payload(checks=[
            gates.check("err", 2e-5, "<=", 1e-5, track=False)])
        _, failures = check_regression.compare(cur, cur, 0.10)
        assert len(failures) == 1 and "gate failed" in failures[0]

    def test_info_check_is_carried_and_may_not_vanish(self):
        base = make_payload(checks=[
            gates.check("ratio", 2.5, "info", track=False)])
        cur = make_payload(checks=[
            gates.check("ratio", 25.0, "info", track=False)])
        rows, failures = check_regression.compare(cur, base, 0.10)
        assert failures == []
        assert (rows[0]["baseline"], rows[0]["current"]) == (2.5, 25.0)
        _, failures = check_regression.compare(make_payload(), base, 0.10)
        assert len(failures) == 1 and "missing" in failures[0]

    def test_boolean_true_to_false_fails(self):
        base = make_payload(checks=[gates.check("flag", True, "bool")])
        cur = make_payload(checks=[gates.check("flag", False, "bool")])
        _, failures = check_regression.compare(cur, base, 0.10)
        # once as a gate failure, once as a baseline flip
        assert len(failures) == 2
        assert any("now false" in msg for msg in failures)

    def test_failed_gate_fails_even_when_baseline_agrees(self):
        bad = make_payload(checks=[gates.check("speedup", 3.0, ">=", 4.0)])
        _, failures = check_regression.compare(bad, bad, 0.10)
        assert len(failures) == 1 and "gate failed" in failures[0]

    def test_check_missing_from_current_fails(self):
        base = make_payload(checks=[
            gates.check("speedup", 4.2, ">=", 4.0),
            gates.check("share", 0.05, "<=", 0.10)])
        cur = make_payload(checks=[gates.check("speedup", 4.2, ">=", 4.0)])
        rows, failures = check_regression.compare(cur, base, 0.10)
        assert len(failures) == 1 and "missing" in failures[0]
        assert any(r["status"] == "MISSING" for r in rows)

    def test_new_check_is_informational(self):
        base = make_payload(checks=[gates.check("speedup", 4.2, ">=", 4.0)])
        cur = make_payload(checks=[
            gates.check("speedup", 4.2, ">=", 4.0),
            gates.check("extra", 1.0, ">=", 0.5)])
        rows, failures = check_regression.compare(cur, base, 0.10)
        assert failures == []
        assert any(r["status"] == "new" for r in rows)

    def test_no_baseline_is_gate_only(self):
        _, failures = check_regression.compare(self.nominal(), None, 0.10)
        assert failures == []
        bad = make_payload(checks=[gates.check("speedup", 3.0, ">=", 4.0)])
        _, failures = check_regression.compare(bad, None, 0.10)
        assert len(failures) == 1


class TestCli:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, str(BENCHMARKS / "check_regression.py"),
             *map(str, argv)],
            capture_output=True, text=True)

    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_update_then_pass_then_injected_regression(self, tmp_path):
        """Acceptance: the committed-baseline workflow end to end — a CI
        run against fresh baselines passes, and an injected >10% perf
        regression makes the same command exit nonzero."""
        baselines = tmp_path / "baselines"
        payload = make_payload("engine", [
            gates.check("speedup", 4.2, ">=", 4.0),
            gates.check("share", 0.05, "<=", 0.10)])
        cur = self.write(tmp_path, "BENCH_engine.json", payload)

        updated = self.run_cli(cur, "--baselines", baselines, "--update")
        assert updated.returncode == 0
        assert (baselines / "BENCH_engine.json").exists()

        clean = self.run_cli(cur, "--baselines", baselines)
        assert clean.returncode == 0

        regressed = make_payload("engine", [
            gates.check("speedup", 4.1, ">=", 4.0),   # passes its gate...
            gates.check("share", 0.09, "<=", 0.10)])  # ...but +80% drift
        bad = self.write(tmp_path, "BENCH_regressed.json", regressed)
        run = self.run_cli(bad, "--baselines", baselines)
        assert run.returncode == 1
        assert "FAIL" in run.stdout and "share" in run.stdout

    def test_summary_markdown_written(self, tmp_path):
        baselines = tmp_path / "baselines"
        payload = make_payload("engine",
                               [gates.check("speedup", 4.2, ">=", 4.0)])
        cur = self.write(tmp_path, "BENCH_engine.json", payload)
        self.run_cli(cur, "--baselines", baselines, "--update")
        summary = tmp_path / "trend.md"
        run = self.run_cli(cur, "--baselines", baselines,
                           "--summary", summary)
        assert run.returncode == 0
        text = summary.read_text()
        assert "## engine" in text and "| speedup |" in text

    def test_baseline_stores_only_gates_section(self, tmp_path):
        baselines = tmp_path / "baselines"
        payload = make_payload("engine",
                               [gates.check("speedup", 4.2, ">=", 4.0)])
        cur = self.write(tmp_path, "BENCH_engine.json", payload)
        self.run_cli(cur, "--baselines", baselines, "--update")
        stored = json.loads((baselines / "BENCH_engine.json").read_text())
        assert set(stored) == {"benchmark", "gates"}
        assert "detail" not in stored  # machine-specific ms never compared
        # ... except a section the payload itself marks as the absolute
        # record: kept beside its machine fingerprint, never compared
        payload["absolute"] = {"fingerprint": "abc123", "ms_per_tile": 6.9}
        cur = self.write(tmp_path, "BENCH_engine.json", payload)
        self.run_cli(cur, "--baselines", baselines, "--update")
        stored = json.loads((baselines / "BENCH_engine.json").read_text())
        assert set(stored) == {"benchmark", "gates", "absolute"}
        assert stored["absolute"] == payload["absolute"]
        assert self.run_cli(cur, "--baselines", baselines).returncode == 0
