"""Multi-trial NAS experiment driver (Retiarii's experiment loop).

Runs strategy-proposed architectures through an evaluator, records every
trial, and aggregates results — "the tuning workflow organized by
aggregating and comparing tuning results" the paper credits NNI with.

Trial concurrency is a setting of this loop, not a second experiment
class: ``workers`` is the width of a synchronous batch.  The loop proposes up
to ``workers`` samples from the seeded strategy RNG, evaluates them
(inline at one worker, on a thread pool otherwise; NumPy's BLAS
releases the GIL inside the GEMMs that dominate trial training), and
records them in proposal order.  The proposal stream therefore does not
depend on ``workers``; strategies that adapt to history see it only at
batch boundaries — the standard synchronous-batch NAS semantics.

Fault tolerance: an evaluator exception no longer kills the sweep.  Each
trial gets ``RetryPolicy.max_attempts`` tries with exponential backoff +
jitter; a trial that exhausts them is *quarantined* as a failed
:class:`TrialRecord` (``status="failed"``, NaN value) that ``best()`` and
the constrained-selection path skip.  Retries run inside the worker, so
one failing trial neither kills its batch nor loses its siblings'
results.  With a ``journal`` configured, every finished trial is appended
to a crash-safe JSONL file and :meth:`Experiment.resume` continues a
killed sweep from it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .evaluator import EvaluationResult, FunctionalEvaluator
from .retry import RetryPolicy
from .space import ModelSpace
from .strategy import ExplorationStrategy, RandomStrategy

if TYPE_CHECKING:  # pragma: no cover
    from .journal import TrialJournal

__all__ = ["TrialRecord", "Experiment", "run_trial_with_retries"]


@dataclass(frozen=True)
class TrialRecord:
    """One evaluated architecture.

    status is ``"ok"`` for a successful evaluation or ``"failed"`` for a
    quarantined trial (all retry attempts exhausted; ``value`` is NaN and
    ``error`` holds the last exception).  ``attempts`` counts evaluator
    calls including retries; ``duration_s`` is the wall-clock time of the
    final attempt only (backoff sleeps excluded), measured per trial even
    under parallel dispatch.
    """

    trial_id: int
    sample: Mapping
    value: float
    metrics: Mapping
    duration_s: float
    status: str = "ok"
    error: str | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def metric(self, key: str, default=None):
        return self.metrics.get(key, default)


def run_trial_with_retries(
    evaluator: FunctionalEvaluator,
    sample: Mapping,
    trial_id: int,
    policy: RetryPolicy,
    backoff_rng: np.random.Generator | None = None,
) -> TrialRecord:
    """Evaluate one sample under the retry policy; never raises.

    The body of every :class:`Experiment` worker.  Only ``Exception`` is
    absorbed — ``KeyboardInterrupt`` and friends still propagate.
    """
    attempts = 0
    while True:
        attempts += 1
        start = time.perf_counter()
        try:
            result: EvaluationResult = evaluator.evaluate(sample)
        except Exception as exc:
            duration = time.perf_counter() - start
            if attempts >= policy.max_attempts:
                return TrialRecord(
                    trial_id=trial_id,
                    sample=dict(sample),
                    value=float("nan"),
                    metrics={},
                    duration_s=duration,
                    status="failed",
                    error=f"{type(exc).__name__}: {exc}",
                    attempts=attempts,
                )
            time.sleep(policy.delay(attempts, backoff_rng))
        else:
            return TrialRecord(
                trial_id=trial_id,
                sample=dict(sample),
                value=result.value,
                metrics={k: v for k, v in result.items() if k != "value"},
                duration_s=time.perf_counter() - start,
                status="ok",
                attempts=attempts,
            )


def _as_journal(journal) -> "TrialJournal | None":
    from .journal import TrialJournal

    if journal is None or isinstance(journal, TrialJournal):
        return journal
    return TrialJournal(journal)


@dataclass
class Experiment:
    """Multi-trial search experiment.

    Parameters
    ----------
    space : the model space to explore.
    evaluator : trial evaluator (typically :class:`FunctionalEvaluator`).
    strategy : exploration strategy; defaults to the paper's random search.
    max_trials : trial budget (quarantined failures count against it).
    seed : seeds the strategy RNG; trial ``i`` draws its retry jitter
        from ``(seed, 0x5E11, i)``.
    deduplicate : re-draw a proposal already in the sweep up to
        ``dedup_patience`` times; a duplicate that survives them is still
        evaluated, and the sweep stops early only once every point of the
        space has been evaluated.
    retry_policy : per-trial retry/backoff knobs; ``RetryPolicy.none()``
        quarantines on the first failure.
    journal : path or :class:`~repro.nas.journal.TrialJournal`; when set,
        every finished trial is appended (JSONL) so the sweep can be
        resumed after a crash.
    workers : trials evaluated concurrently, one synchronous batch at a
        time; 1 runs each trial on the calling thread.
    """

    space: ModelSpace
    evaluator: FunctionalEvaluator
    strategy: ExplorationStrategy = field(default_factory=RandomStrategy)
    max_trials: int = 20
    seed: int = 0
    deduplicate: bool = True
    dedup_patience: int = 50
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    journal: "TrialJournal | str | Path | None" = None
    trials: list[TrialRecord] = field(default_factory=list)
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def resume(cls, journal: "TrialJournal | str | Path", space: ModelSpace,
               evaluator: FunctionalEvaluator, **kwargs) -> "Experiment":
        """Rebuild an experiment from its trial journal and continue.

        The journaled trials seed both the trial DB and the dedup seen-set,
        so ``run()`` picks up exactly where the killed sweep stopped: with
        a history-independent strategy (random/grid) and the same seed the
        proposal stream replays from the start and already-journaled
        samples are skipped, yielding the identical trial sequence an
        uninterrupted run would have produced, at any ``workers``.
        ``dedup_patience`` is raised to cover the replayed prefix.
        """
        store = _as_journal(journal)
        trials = store.load()
        kwargs.setdefault("dedup_patience", max(50, 2 * len(trials) + 50))
        return cls(space=space, evaluator=evaluator, journal=store,
                   trials=trials, **kwargs)

    def _propose(self, rng: np.random.Generator, seen: set) -> Mapping | None:
        """The next sample under the dedup rule, added to ``seen``; None
        once the space is exhausted."""
        sample = self.strategy.propose(self.space, self.trials, rng)
        if self.deduplicate:
            retries = 0
            while ModelSpace.encode(sample) in seen and retries < self.dedup_patience:
                sample = self.strategy.propose(self.space, self.trials, rng)
                retries += 1
            if ModelSpace.encode(sample) in seen and len(seen) >= self.space.size:
                return None
        self.space.validate(sample)
        seen.add(ModelSpace.encode(sample))
        return sample

    def run(self) -> list[TrialRecord]:
        """Execute the trial loop, ``workers`` trials per batch, and
        return all records."""
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        rng = np.random.default_rng(self.seed)
        journal = _as_journal(self.journal)
        seen = {ModelSpace.encode(t.sample) for t in self.trials}

        def trial(trial_id: int, sample: Mapping) -> TrialRecord:
            # a Generator per trial: worker threads must not share one
            backoff_rng = np.random.default_rng((self.seed, 0x5E11, trial_id))
            return run_trial_with_retries(
                self.evaluator, sample, trial_id=trial_id,
                policy=self.retry_policy, backoff_rng=backoff_rng,
            )

        pool = ThreadPoolExecutor(self.workers) if self.workers > 1 else nullcontext()
        with pool as executor:
            evaluate = map if executor is None else executor.map
            while len(self.trials) < self.max_trials:
                want = min(self.workers, self.max_trials - len(self.trials))
                batch = []
                for _ in range(want):
                    sample = self._propose(rng, seen)
                    if sample is None:
                        break
                    batch.append(sample)
                base = len(self.trials)
                for record in evaluate(trial, range(base, base + len(batch)), batch):
                    self.trials.append(record)
                    if journal is not None:
                        journal.append(record)
                if len(batch) < want:
                    break  # space exhausted
        return self.trials

    # -- aggregation ------------------------------------------------------
    def succeeded(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.ok]

    def failed(self) -> list[TrialRecord]:
        """Quarantined trials (all retry attempts exhausted)."""
        return [t for t in self.trials if not t.ok]

    def best(self) -> TrialRecord:
        ok = self.succeeded()
        if not ok:
            if self.trials:
                raise RuntimeError(
                    f"all {len(self.trials)} trials failed (quarantined)"
                )
            raise RuntimeError("experiment has not run")
        return max(ok, key=lambda t: t.value)

    def top_k(self, k: int) -> list[TrialRecord]:
        return sorted(self.succeeded(), key=lambda t: t.value, reverse=True)[:k]

    def above_threshold(self, threshold: float) -> list[TrialRecord]:
        """Trials meeting the accuracy constraint of §5.4 (a(n) > A)."""
        return [t for t in self.succeeded() if t.value > threshold]

    def results_table(self) -> str:
        """Tuning-result comparison table, best first, failures last."""
        if not self.trials:
            return "(no trials)"
        names = [c.name for c in self.space.choices]
        header = f"{'trial':>5}  {'value':>8}  " + "  ".join(f"{n:>14}" for n in names)
        lines = [header, "-" * len(header)]
        ordered = sorted(self.succeeded(), key=lambda t: t.value, reverse=True)
        ordered += self.failed()
        for t in ordered:
            cells = "  ".join(f"{str(t.sample.get(n)):>14}" for n in names)
            shown = f"{t.value:8.4f}" if t.ok else f"{'FAILED':>8}"
            lines.append(f"{t.trial_id:>5}  {shown}  {cells}")
        return "\n".join(lines)
