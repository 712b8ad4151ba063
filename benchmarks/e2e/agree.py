"""``run.py agree A.json B.json``: do two result sets agree?

A result set is the JSON list ``run.py set`` writes.  For every workload
and every bounded metric -- the end-to-end ones of ``BENCHMARK.json``,
and chip_serve's request latencies from ``metrics.SCOPED`` -- the medians
of the two sets are compared against the metric's bound.

Two sets of the *same* code must agree whichever is named first, so the
gap is ``|median B - median A|`` as a share of the better of the two
medians: a set reading 40% faster than its twin is as much a failed
repeat as one reading 40% slower.  ``--one-sided`` is the other
question, parent (A) versus change (B): only B *worse* than A by more
than the bound fails, an improvement never does.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

from . import metrics, stats

__all__ = ["compare", "agree_main"]


def _values(results: list[dict]) -> dict[tuple[str, str], list[float]]:
    """{(workload, metric): values} over a set's untraced runs."""
    out = defaultdict(list)
    for run in results:
        if run["trace"]:
            continue
        for group in ("metrics", "scoped"):
            for name, entry in run.get(group, {}).items():
                out[run["workload"], name].append(entry["value"])
    return out


def compare(a: list[dict], b: list[dict], spec: dict,
            one_sided: bool = False) -> list[dict]:
    """One row per (workload, bounded metric) present in both sets."""
    bounds = metrics.bounds(spec)
    va, vb = _values(a), _values(b)
    rows = []
    for workload, name in sorted(va):
        if name not in bounds or (workload, name) not in vb:
            continue
        better, bound = bounds[name]
        xs, ys = va[workload, name], vb[workload, name]
        ma, mb = stats.median(xs), stats.median(ys)
        worse = (mb - ma) if better == "lower" else (ma - mb)
        if one_sided:
            gap = worse / ma
        else:
            best = min(ma, mb) if better == "lower" else max(ma, mb)
            gap = abs(mb - ma) / best
        rows.append({
            "workload": workload, "metric": name, "n": (len(xs), len(ys)),
            "median_a": ma, "median_b": mb,
            "iqr_a": stats.iqr(xs) if len(xs) > 1 else 0.0,
            "iqr_b": stats.iqr(ys) if len(ys) > 1 else 0.0,
            "b_worse": worse > 0, "gap": gap, "bound": bound,
            "ok": gap <= bound,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    head = (f"{'workload':<12} {'metric':<16} {'n':>5} {'median A':>10} "
            f"{'IQR A':>8} {'median B':>10} {'IQR B':>8} {'gap':>12} "
            f"{'bound':>6}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        side = "B worse" if r["b_worse"] else "B better"
        lines.append(
            f"{r['workload']:<12} {r['metric']:<16} "
            f"{r['n'][0]:>2}/{r['n'][1]:<2} {r['median_a']:>10.4g} "
            f"{r['iqr_a']:>8.3g} {r['median_b']:>10.4g} {r['iqr_b']:>8.3g} "
            f"{abs(r['gap']):>6.1%} {side:<8} {r['bound']:>5.0%}  "
            f"{'ok' if r['ok'] else 'OVER BOUND'}")
    return "\n".join(lines)


def agree_main(argv) -> int:
    parser = argparse.ArgumentParser(prog="run.py agree", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--one-sided", action="store_true",
                        help="A is the parent and B the change: only B worse "
                             "than A by more than the bound fails")
    args = parser.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    prints = {run["fingerprint"] for run in a + b}
    if len(prints) > 1:
        print(f"warning: sets come from different machines {sorted(prints)}")
    rows = compare(a, b, metrics.contract(), one_sided=args.one_sided)
    if not rows:
        print("no metric is present in both sets")
        return 2
    print(format_rows(rows))
    for name in ("host.ref_gemm_ms", "host.steal_frac"):
        xs = [r["info"].get(name) for r in a if r["info"].get(name) is not None]
        ys = [r["info"].get(name) for r in b if r["info"].get(name) is not None]
        if xs and ys:
            print(f"{name}: A {stats.median(xs):.4g}  B {stats.median(ys):.4g}")
    return 0 if all(r["ok"] for r in rows) else 1
