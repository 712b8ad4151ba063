"""Command-line entry point: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments table1 --fast
    python -m repro.experiments all --fast --out /tmp/results/

Each command prints the measured table next to the paper's values and can
persist JSON under ``--out``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .ablations import (
    run_ablation_scheduler,
    run_ablation_scheduling_cost,
    run_ablation_spp,
    run_ablation_strategy,
)
from .baseline import BaselineSettings, run_baseline_comparison
from .figures import (
    run_constrained_selection,
    run_fig6,
    run_fig7,
    run_fig8,
    run_input_size_sweep,
    run_pareto_front,
)
from .results import ExperimentResult
from .tables import Table1Settings, run_table1, run_table2, run_table3

__all__ = ["main", "EXPERIMENTS"]


def _table1(args) -> ExperimentResult:
    settings = Table1Settings.fast() if args.fast else Table1Settings()
    return run_table1(settings, verbose=args.verbose)


def _pipeline(args) -> ExperimentResult:
    """End-to-end Figure 5 pipeline with journaled, resumable NAS trials."""
    from ..pipeline import PipelineConfig, run_pipeline

    config = PipelineConfig(
        nas_trials=2 if args.fast else 3,
        train_epochs=1 if args.fast else 3,
        # CI-sized training never clears the real constraint; keep the
        # selection step meaningful but satisfiable.
        accuracy_threshold=-1.0 if args.fast else 0.5,
        journal_path=str(args.journal) if args.journal else None,
        resume=args.resume,
    )
    result = run_pipeline(config, verbose=args.verbose)
    rows = [
        [t.trial_id, t.status, t.attempts,
         "nan" if not t.ok else f"{t.value:.4f}", f"{t.duration_s:.2f}s"]
        for t in result.trials
    ]
    winner = result.winner_config.name if result.winner_config else "-"
    notes = f"winner: {winner}"
    if args.journal:
        notes += f"; journal: {args.journal} (resume with --resume)"
    return ExperimentResult(
        experiment_id="pipeline",
        title="End-to-end NAS pipeline (fault-tolerant, journaled trials)",
        headers=["trial", "status", "attempts", "value", "duration"],
        rows=rows,
        notes=notes,
    )


EXPERIMENTS = {
    "pipeline": _pipeline,
    "table1": _table1,
    "table2": lambda args: run_table2(),
    "table3": lambda args: run_table3(iterations=50 if args.fast else 200),
    "fig5": lambda args: run_constrained_selection(),
    "fig6": lambda args: run_fig6(),
    "fig7": lambda args: run_fig7(iterations=50 if args.fast else 200),
    "fig8": lambda args: run_fig8(iterations=200 if args.fast else 1000),
    "ablation-scheduler": lambda args: run_ablation_scheduler(),
    "ablation-spp": lambda args: run_ablation_spp(),
    "ablation-strategy": lambda args: run_ablation_strategy(),
    "ablation-scheduling-cost": lambda args: run_ablation_scheduling_cost(),
    "input-size-sweep": lambda args: run_input_size_sweep(),
    "pareto-front": lambda args: run_pareto_front(),
    "baseline-comparison": lambda args: run_baseline_comparison(
        BaselineSettings.fast() if args.fast else None, verbose=args.verbose),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the "
                    "simulated substrate.",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"],
                        help="which artifact to regenerate")
    parser.add_argument("--fast", action="store_true",
                        help="reduced workload (CI-sized)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for JSON results")
    parser.add_argument("--journal", type=Path, default=None,
                        help="pipeline: JSONL trial journal for checkpoint/"
                             "resume of the NAS sweep")
    parser.add_argument("--resume", action="store_true",
                        help="pipeline: continue the sweep recorded in "
                             "--journal instead of starting fresh")
    args = parser.parse_args(argv)
    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        result = EXPERIMENTS[name](args)
        print(result.to_text())
        print()
        if args.out is not None:
            path = result.save_json(args.out / f"{name}.json")
            print(f"[saved {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
