"""Trial retries, quarantine, journaling, and checkpoint/resume."""

import json
import time
import warnings

import numpy as np
import pytest

from repro.faults import FatalOn, Flaky, InjectedFault
from repro.nas import (
    Experiment,
    FunctionalEvaluator,
    GridSearchStrategy,
    ModelSpace,
    RetryPolicy,
    TrialJournal,
    ValueChoice,
    run_trial_with_retries,
    sppnet_search_space,
)

FAST_RETRIES = RetryPolicy(max_attempts=3, backoff_s=0.001, max_backoff_s=0.01)


def objective(sample):
    return sample["fc_width"] / 8192 + sample["spp_first_level"] / 100


class TestRetryPolicy:
    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=2.0, jitter=0.0,
                             max_backoff_s=0.3)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(10) == pytest.approx(0.3)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_s=0.1, multiplier=1.0, jitter=0.5)
        rng = np.random.default_rng(0)
        delays = [policy.delay(1, rng) for _ in range(100)]
        assert all(0.1 <= d <= 0.15 for d in delays)
        assert len(set(delays)) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestRunTrialWithRetries:
    def test_flaky_succeeds_on_retry(self):
        from repro.faults import FailFirst

        fn = FailFirst(objective, n=1)  # transient: first attempt fails
        record = run_trial_with_retries(
            FunctionalEvaluator(fn), {"fc_width": 4096, "spp_first_level": 2},
            trial_id=0, policy=FAST_RETRIES,
        )
        assert record.ok
        assert record.attempts == 2
        assert record.value == pytest.approx(objective(record.sample))

    def test_fatal_is_quarantined(self):
        def always_fails(sample):
            raise InjectedFault("boom")

        record = run_trial_with_retries(
            FunctionalEvaluator(always_fails), {"a": 1},
            trial_id=3, policy=FAST_RETRIES,
        )
        assert not record.ok
        assert record.status == "failed"
        assert record.attempts == FAST_RETRIES.max_attempts
        assert "InjectedFault" in record.error
        assert np.isnan(record.value)
        assert record.trial_id == 3


class TestExperimentQuarantine:
    def test_flaky_sweep_completes_and_matches_fault_free(self):
        """20% injected failures: same trials, same winner as fault-free."""
        clean = Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                           max_trials=12, seed=4)
        clean.run()

        # 6 attempts: P(6 consecutive injected faults) ~ 6e-5 per trial,
        # so every trial deterministically succeeds within the budget
        flaky = Flaky(objective, rate=0.2, seed=11)
        faulty = Experiment(
            sppnet_search_space(), FunctionalEvaluator(flaky),
            max_trials=12, seed=4,
            retry_policy=RetryPolicy(max_attempts=6, backoff_s=0.001),
        )
        faulty.run()

        assert flaky.faults > 0  # faults were actually injected
        assert len(faulty.trials) == 12
        assert [t.sample for t in faulty.trials] == [t.sample for t in clean.trials]
        assert faulty.best().sample == clean.best().sample
        assert faulty.best().value == pytest.approx(clean.best().value)
        assert any(t.attempts > 1 for t in faulty.trials)

    def test_fatal_trials_quarantined_and_excluded_from_best(self):
        space = ModelSpace([ValueChoice("a", (1, 2, 3, 4, 5))])
        poisoned = {repr({"a": 5})}  # would otherwise win

        fn = FatalOn(lambda s: s["a"] / 10, poisoned, key=lambda s: repr(dict(s)))
        exp = Experiment(space, FunctionalEvaluator(fn), max_trials=5, seed=0,
                         retry_policy=RetryPolicy(max_attempts=1))
        exp.run()

        assert len(exp.trials) == 5
        assert len(exp.failed()) == 1
        assert not exp.failed()[0].ok
        assert exp.best().sample["a"] == 4  # 5 is quarantined
        assert all(t.sample["a"] != 5 for t in exp.above_threshold(0.0))
        assert "FAILED" in exp.results_table()

    def test_all_failed_raises(self):
        space = ModelSpace([ValueChoice("a", (1, 2))])

        def boom(sample):
            raise RuntimeError("dead evaluator")

        exp = Experiment(space, FunctionalEvaluator(boom), max_trials=2, seed=0,
                         retry_policy=RetryPolicy(max_attempts=1))
        exp.run()
        with pytest.raises(RuntimeError, match="quarantined"):
            exp.best()


class TestParallelQuarantine:
    def test_flaky_parallel_sweep_matches_fault_free_winner(self):
        clean = Experiment(
            sppnet_search_space(), FunctionalEvaluator(objective),
            max_trials=12, workers=4, seed=4)
        clean.run()

        flaky = Flaky(objective, rate=0.2, seed=23)
        faulty = Experiment(
            sppnet_search_space(), FunctionalEvaluator(flaky),
            max_trials=12, workers=4, seed=4,
            retry_policy=RetryPolicy(max_attempts=6, backoff_s=0.001),
        )
        faulty.run()

        assert flaky.faults > 0
        assert len(faulty.trials) == 12
        assert [t.sample for t in faulty.trials] == [t.sample for t in clean.trials]
        assert faulty.best().sample == clean.best().sample

    def test_fatal_trial_does_not_lose_batch_siblings(self):
        """One poisoned trial in a batch: siblings' results survive."""
        space = ModelSpace([ValueChoice("a", (1, 2, 3, 4))])
        fn = FatalOn(lambda s: s["a"] / 10, {repr({"a": 2})},
                     key=lambda s: repr(dict(s)))
        exp = Experiment(space, FunctionalEvaluator(fn),
                         max_trials=4, workers=4, seed=0,
                         retry_policy=RetryPolicy(max_attempts=1))
        exp.run()
        assert len(exp.trials) == 4
        assert len(exp.succeeded()) == 3
        assert len(exp.failed()) == 1
        assert exp.failed()[0].sample["a"] == 2
        assert exp.best().sample["a"] == 4

    def test_per_trial_duration_measured_in_worker(self):
        """duration_s is each trial's own cost, not the batch wall-clock
        split evenly (the old fiction)."""
        space = ModelSpace([ValueChoice("a", (1, 2, 3, 4))])

        def uneven(sample):
            time.sleep(0.25 if sample["a"] == 1 else 0.0)
            return float(sample["a"])

        exp = Experiment(space, FunctionalEvaluator(uneven),
                         max_trials=4, workers=4, seed=0)
        exp.run()
        by_a = {t.sample["a"]: t for t in exp.trials}
        assert by_a[1].duration_s >= 0.2
        for a in (2, 3, 4):
            assert by_a[a].duration_s < 0.1


class TestJournalResume:
    def test_journal_roundtrip_including_failures(self, tmp_path):
        journal = TrialJournal(tmp_path / "trials.jsonl")
        space = ModelSpace([ValueChoice("a", (1, 2, 3))])
        fn = FatalOn(lambda s: s["a"] / 10, {repr({"a": 2})},
                     key=lambda s: repr(dict(s)))
        exp = Experiment(space, FunctionalEvaluator(fn), max_trials=3, seed=0,
                         retry_policy=RetryPolicy(max_attempts=1),
                         journal=journal)
        exp.run()

        loaded = journal.load()
        assert len(loaded) == 3
        for original, restored in zip(exp.trials, loaded):
            assert restored.trial_id == original.trial_id
            assert dict(restored.sample) == dict(original.sample)
            assert restored.status == original.status
            assert restored.attempts == original.attempts
            if original.ok:
                assert restored.value == pytest.approx(original.value)
            else:
                assert np.isnan(restored.value)

    def test_corrupt_line_mid_file_raises(self, tmp_path):
        """A malformed line followed by more lines is corruption, not a
        crash artifact; the trial journal raises its own error for it,
        not the scan journal's."""
        path = tmp_path / "trials.jsonl"
        Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                   max_trials=3, seed=0, journal=path).run()
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = '{"trial_id": 1, "sam\n'
        path.write_text("".join(lines))
        with pytest.raises(RuntimeError, match="corrupt line 2") as raised:
            TrialJournal(path).load()
        assert raised.type is RuntimeError

    def test_resumed_sweep_identical_to_uninterrupted(self, tmp_path):
        """Kill after k trials, resume from the journal: same trial DB."""
        full = Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                          max_trials=10, seed=5)
        full.run()

        path = tmp_path / "trials.jsonl"
        partial = Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                             max_trials=4, seed=5, journal=path)
        partial.run()  # "killed" after 4 trials

        resumed = Experiment.resume(
            path, sppnet_search_space(), FunctionalEvaluator(objective),
            max_trials=10, seed=5)
        assert len(resumed.trials) == 4  # restored from the journal
        resumed.run()

        assert len(resumed.trials) == 10
        assert [t.sample for t in resumed.trials] == [t.sample for t in full.trials]
        assert [t.trial_id for t in resumed.trials] == [t.trial_id for t in full.trials]
        assert [t.value for t in resumed.trials] == pytest.approx(
            [t.value for t in full.trials])
        assert resumed.best().sample == full.best().sample
        # the journal now holds the complete run
        assert len(TrialJournal(path).load()) == 10

    def test_parallel_resume_matches_uninterrupted(self, tmp_path):
        full = Experiment(
            sppnet_search_space(), FunctionalEvaluator(objective),
            max_trials=9, workers=3, seed=7)
        full.run()

        path = tmp_path / "trials.jsonl"
        partial = Experiment(
            sppnet_search_space(), FunctionalEvaluator(objective),
            max_trials=5, workers=3, seed=7, journal=path)
        partial.run()

        resumed = Experiment.resume(
            path, sppnet_search_space(), FunctionalEvaluator(objective),
            max_trials=9, workers=3, seed=7)
        resumed.run()

        assert [t.sample for t in resumed.trials] == [t.sample for t in full.trials]
        assert resumed.best().sample == full.best().sample

    @pytest.mark.parametrize("workers", [1, 3])
    def test_torn_tail_resumes_at_every_byte_offset(self, tmp_path, workers):
        """A sweep killed mid-append leaves its last line cut anywhere.
        Wherever the cut falls, resume repairs the tail, re-runs no
        journaled trial and finds the fault-free winner."""
        kwargs = dict(seed=5, workers=workers)
        full = Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                          max_trials=8, **kwargs)
        full.run()
        whole = tmp_path / "whole.jsonl"
        Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                   max_trials=5, journal=whole, **kwargs).run()
        data = whole.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1   # start of line 5
        for cut in range(last, len(data)):
            path = tmp_path / f"torn{cut}.jsonl"
            path.write_bytes(data[:cut])
            evaluated = []

            def counting(sample):
                evaluated.append(dict(sample))
                return objective(sample)

            resumed = Experiment.resume(path, sppnet_search_space(),
                                        FunctionalEvaluator(counting),
                                        max_trials=8, **kwargs)
            # only a cut after the closing brace keeps the fifth trial
            restored = [dict(t.sample) for t in resumed.trials]
            assert len(restored) == (5 if cut == len(data) - 1 else 4)
            resumed.run()
            assert len(evaluated) == 8 - len(restored)
            assert all(sample not in restored for sample in evaluated)
            assert [t.sample for t in resumed.trials] \
                == [t.sample for t in full.trials]
            assert resumed.best().sample == full.best().sample
            assert len(TrialJournal(path).load()) == 8

    def test_a_fresh_sweep_starts_its_journal(self, tmp_path):
        """Without resume, a sweep over an existing journal starts it
        afresh instead of appending a second copy of the sweep."""
        path = tmp_path / "trials.jsonl"
        for _ in range(2):
            Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                       max_trials=3, seed=0, journal=path).run()
        assert [t.trial_id for t in TrialJournal(path).load()] == [0, 1, 2]
        resumed = Experiment.resume(path, sppnet_search_space(),
                                    FunctionalEvaluator(objective),
                                    max_trials=5, seed=0)
        assert [t.trial_id for t in resumed.run()] == [0, 1, 2, 3, 4]

    def test_resume_from_missing_journal_starts_fresh(self, tmp_path):
        exp = Experiment.resume(
            tmp_path / "new.jsonl", sppnet_search_space(),
            FunctionalEvaluator(objective), max_trials=3, seed=0)
        assert exp.trials == []
        exp.run()
        assert len(exp.trials) == 3


#: three trials of ``sppnet_search_space()`` / random / seed 5, as a
#: trial journal was written before it had a header line
HEADERLESS_JOURNAL = (
    '{"trial_id": 0, "sample": {"first_kernel": 7, "spp_first_level": 5, '
    '"fc_width": 128}, "value": 0.065625, "metrics": {}, "duration_s": '
    '8.3564999954433e-05, "status": "ok", "error": null, "attempts": 1}\n'
    '{"trial_id": 1, "sample": {"first_kernel": 9, "spp_first_level": 3, '
    '"fc_width": 1024}, "value": 0.155, "metrics": {}, "duration_s": '
    '5.1286000029904244e-05, "status": "ok", "error": null, "attempts": 1}\n'
    '{"trial_id": 2, "sample": {"first_kernel": 7, "spp_first_level": 2, '
    '"fc_width": 8192}, "value": 1.02, "metrics": {}, "duration_s": '
    '2.8292000024521258e-05, "status": "ok", "error": null, "attempts": 1}\n'
)


class TestJournalHeader:
    """A trial journal names its sweep on line 1, and a resume into
    another sweep is refused instead of replaying foreign trials."""

    def write_sweep(self, path, **kwargs):
        Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                   max_trials=4, seed=5, journal=path, **kwargs).run()

    def test_journal_is_a_header_then_the_trials(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        self.write_sweep(path)
        first, *trials = [json.loads(line) for line in
                          path.read_text().splitlines()]
        assert first == {
            "kind": "trial_journal", "version": 1,
            "space": [[c.name, list(c.candidates)]
                      for c in sppnet_search_space().choices],
            "strategy": "random", "seed": 5}
        assert [t["trial_id"] for t in trials] == [0, 1, 2, 3]

    @pytest.mark.parametrize("key, change", [
        ("space", dict(space=ModelSpace([ValueChoice("fc_width", (128,))]))),
        ("strategy", dict(strategy=GridSearchStrategy())),
        ("seed", dict(seed=99)),
    ])
    def test_resume_into_another_sweep_raises_naming_the_key(
            self, tmp_path, key, change):
        path = tmp_path / "trials.jsonl"
        self.write_sweep(path)
        before = path.read_bytes()
        kwargs = dict(space=sppnet_search_space(), seed=5, max_trials=8)
        kwargs.update(change)
        space = kwargs.pop("space")
        with pytest.raises(RuntimeError, match=f"different run.*{key}: file"
                           ) as raised:
            Experiment.resume(path, space, FunctionalEvaluator(objective),
                              **kwargs)
        assert str(path) in str(raised.value)
        assert path.read_bytes() == before

    def test_a_refused_journal_stays_refused(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        self.write_sweep(path)
        journal = TrialJournal(path)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="seed: file 5, this run 9"):
                Experiment.resume(journal, sppnet_search_space(),
                                  FunctionalEvaluator(objective), seed=9)

    def test_budget_and_workers_may_change_across_a_resume(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        self.write_sweep(path)
        resumed = Experiment.resume(path, sppnet_search_space(),
                                    FunctionalEvaluator(objective),
                                    seed=5, max_trials=6, workers=2,
                                    retry_policy=RetryPolicy(max_attempts=1))
        assert len(resumed.run()) == 6

    def test_other_logs_are_refused_with_the_trial_journal_error(
            self, tmp_path):
        from repro.fleet import JobQueue
        from repro.robust import ScanJournal

        scan = ScanJournal(tmp_path / "scan.jsonl")
        scan.start({"scene_size": 100, "window": 50, "stride": 25})
        queue = JobQueue(tmp_path / "queue.jsonl")
        queue.submit("a", {"scene": {}})
        for path in (scan.path, queue.path):
            with pytest.raises(RuntimeError,
                               match="not a trial journal file") as raised:
                Experiment.resume(path, sppnet_search_space(),
                                  FunctionalEvaluator(objective), seed=5)
            assert raised.type is RuntimeError

    def test_headerless_journal_resumes_with_one_warning(self, tmp_path):
        full = Experiment(sppnet_search_space(), FunctionalEvaluator(objective),
                          max_trials=8, seed=5)
        full.run()
        path = tmp_path / "trials.jsonl"
        path.write_text(HEADERLESS_JOURNAL)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resumed = Experiment.resume(path, sppnet_search_space(),
                                        FunctionalEvaluator(objective),
                                        max_trials=8, seed=5)
            assert len(resumed.trials) == 3
            resumed.run()
        assert [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)] == [
            f"{path}: trial journal has no header, so the search space, "
            "strategy and seed it was written with could not be checked"]
        assert [t.sample for t in resumed.trials] \
            == [t.sample for t in full.trials]
        # appended to, never rewritten: still header-less
        assert path.read_text().startswith(HEADERLESS_JOURNAL)
        assert len(TrialJournal(path).load()) == 8
