"""CI perf-regression tracker: diff BENCH payloads against baselines.

Every gated benchmark embeds a machine-readable ``gates`` section in its
``BENCH_*.json`` payload (see ``gates.py``).  This tool compares those
check values against the committed baselines in
``benchmarks/baselines/`` and fails (nonzero exit) when:

* any gate check in the current payload fails outright — a hard
  acceptance criterion dropped below its threshold;
* a tracked numeric check drifted more than ``--tolerance`` (default
  10%) in its bad direction — ``>=`` checks may not fall, ``<=`` checks
  may not rise.  Ratios and shares are machine-relative, so relative
  tracking is meaningful on heterogeneous runners where absolute
  milliseconds are not (absolute latencies are recorded in the payloads
  but never compared);
* a boolean check that held in the baseline is now false;
* a check recorded in the baseline disappeared from the current payload
  — silently dropping a tracked metric is how regressions go unnoticed.

Checks marked ``track: false`` (values that legally jump between runs,
e.g. a max-abs-error that moves with any change to kernel arithmetic
order) are exempt from drift comparison but still gate-enforced; an
``info`` check has no threshold to enforce either, so with ``track:
false`` it is only carried in the table and may not disappear.

Baselines store the gates section, plus a payload's ``absolute``
section when it has one: absolute latencies next to the fingerprint of
the machine that measured them, kept as the perf trajectory and never
compared.  Refresh them after an accepted perf change with ``--update``.

Usage::

    python benchmarks/check_regression.py BENCH_engine.json [more.json...]
        [--baselines DIR] [--tolerance 0.10] [--summary PATH] [--update]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_BASELINES = HERE / "baselines"
DEFAULT_TOLERANCE = 0.10


def load_checks(payload: dict) -> dict[str, dict]:
    gates = payload.get("gates") or {}
    return {row["name"]: row for row in gates.get("checks", [])}


def compare(current: dict, baseline: dict | None,
            tolerance: float) -> tuple[list[dict], list[str]]:
    """Diff one payload against its baseline.

    Returns ``(rows, failures)`` where ``rows`` drive the markdown
    summary and ``failures`` are human-readable regression messages.
    """
    rows: list[dict] = []
    failures: list[str] = []
    cur = load_checks(current)
    base = load_checks(baseline) if baseline else {}

    for name, row in cur.items():
        entry = {"name": name, "op": row["op"], "current": row["value"],
                 "baseline": None, "delta_pct": None, "status": "ok"}
        if not row["passed"]:
            entry["status"] = "GATE FAIL"
            failures.append(
                f"{name}: gate failed "
                f"(value {row['value']} vs {row['op']} {row['threshold']})")
        ref = base.get(name)
        if ref is not None:
            entry["baseline"] = ref["value"]
            if row["op"] == "bool":
                if ref["value"] and not row["value"]:
                    entry["status"] = "REGRESSED"
                    failures.append(f"{name}: was true in baseline, now false")
            elif row.get("track", True) and ref.get("track", True):
                ref_v, cur_v = float(ref["value"]), float(row["value"])
                if ref_v != 0.0:
                    delta = (cur_v - ref_v) / abs(ref_v)
                    entry["delta_pct"] = 100.0 * delta
                    worse = (-delta if row["op"] == ">=" else delta)
                    if worse > tolerance:
                        entry["status"] = "REGRESSED"
                        failures.append(
                            f"{name}: {cur_v:.4g} vs baseline {ref_v:.4g} "
                            f"({100 * delta:+.1f}%, tolerance "
                            f"{100 * tolerance:.0f}%)")
            else:
                entry["status"] = "untracked"
        elif baseline is not None:
            entry["status"] = "new"
        rows.append(entry)

    for name in base:
        if name not in cur:
            rows.append({"name": name, "op": base[name]["op"],
                         "current": None, "baseline": base[name]["value"],
                         "delta_pct": None, "status": "MISSING"})
            failures.append(
                f"{name}: tracked in baseline but missing from the "
                f"current payload")
    return rows, failures


def summarize(results: dict[str, list[dict]]) -> str:
    """Markdown trend table (written to $GITHUB_STEP_SUMMARY by CI)."""
    lines = ["# Benchmark regression check", ""]
    for bench, rows in results.items():
        lines += [f"## {bench}", "",
                  "| check | baseline | current | delta | status |",
                  "|---|---|---|---|---|"]
        for r in rows:
            fmt = lambda v: ("—" if v is None
                             else str(v) if isinstance(v, bool)
                             else f"{float(v):.4g}")
            delta = ("—" if r["delta_pct"] is None
                     else f"{r['delta_pct']:+.1f}%")
            lines.append(f"| {r['name']} | {fmt(r['baseline'])} | "
                         f"{fmt(r['current'])} | {delta} | {r['status']} |")
        lines.append("")
    return "\n".join(lines)


def baseline_path(baselines: Path, payload: dict, source: Path) -> Path:
    name = payload.get("benchmark")
    return baselines / (f"BENCH_{name}.json" if name else source.name)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("payloads", nargs="+", type=Path,
                        help="BENCH_*.json files produced by the benchmarks")
    parser.add_argument("--baselines", type=Path, default=DEFAULT_BASELINES)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed relative drift for tracked checks")
    parser.add_argument("--summary", type=Path, default=None,
                        help="write a markdown trend table here")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baselines from these payloads "
                        "instead of comparing")
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    all_failures: list[str] = []
    for path in args.payloads:
        payload = json.loads(path.read_text())
        bench = payload.get("benchmark", path.stem)
        target = baseline_path(args.baselines, payload, path)
        if args.update:
            target.parent.mkdir(parents=True, exist_ok=True)
            kept = {"benchmark": bench, "gates": payload.get("gates", {})}
            if "absolute" in payload:
                kept["absolute"] = payload["absolute"]
            target.write_text(json.dumps(kept, indent=2) + "\n")
            print(f"updated {target}")
            continue
        baseline = (json.loads(target.read_text())
                    if target.exists() else None)
        if baseline is None:
            print(f"note: no baseline for {bench} "
                  f"(expected {target}); gate-only check")
        rows, failures = compare(payload, baseline, args.tolerance)
        results[bench] = rows
        all_failures.extend(f"[{bench}] {msg}" for msg in failures)

    if args.update:
        return
    if args.summary:
        args.summary.parent.mkdir(parents=True, exist_ok=True)
        args.summary.write_text(summarize(results) + "\n")
    for bench, rows in results.items():
        worst = [r for r in rows if r["status"] in
                 ("REGRESSED", "GATE FAIL", "MISSING")]
        print(f"{bench}: {len(rows)} checks, {len(worst)} failing")
    for failure in all_failures:
        print(f"FAIL: {failure}")
    if all_failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
