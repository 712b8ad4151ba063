"""JobQueue: backoff, dead-letter, crash replay, and a stateful model.

All timing runs on an injected fake clock, so backoff gates are exact
instead of sleep-based.  A crash is a reopen: the queue file is all a
killed process leaves behind.
"""

import json
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.fleet import DEAD, DONE, PENDING, RUNNING, JobQueue, JobQueueError
from repro.retry import RetryPolicy
from tests.faults import tear_trailing_line

PAYLOAD = {"scene": {"size": 64}, "scan": {}}
RETRY = RetryPolicy(max_attempts=3, backoff_s=10.0, multiplier=2.0,
                    jitter=0.0, max_backoff_s=100.0)


class FakeClock:
    """Mutable fake wall clock: ``clock.now`` is the current time."""

    def __init__(self) -> None:
        self.now = 1_000.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


def make_queue(tmp_path, clock, **kwargs):
    kwargs.setdefault("retry", RETRY)
    return JobQueue(tmp_path / "queue.jsonl", clock=clock, **kwargs)


class TestSubmit:
    def test_submit_then_claim_in_order(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        assert queue.submit("a", PAYLOAD)
        assert queue.submit("b", PAYLOAD)
        first = queue.claim()
        second = queue.claim()
        assert (first.job_id, second.job_id) == ("a", "b")
        assert first.payload == PAYLOAD
        assert first.attempts == 1
        assert queue.claim() is None

    def test_resubmit_same_payload_is_noop(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        assert queue.submit("a", PAYLOAD)
        assert not queue.submit("a", PAYLOAD)
        assert queue.job_ids() == ["a"]

    def test_resubmit_different_payload_raises(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        with pytest.raises(JobQueueError, match="different payload"):
            queue.submit("a", {"scene": {"size": 128}, "scan": {}})


class TestLifecycle:
    def test_complete_records_result(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        job = queue.claim()
        assert queue.status("a") == RUNNING
        queue.complete(job.job_id, result={"detections": 3})
        assert queue.status("a") == DONE
        assert queue.result("a") == {"detections": 3}
        assert queue.counts() == {PENDING: 0, RUNNING: 0, DONE: 1, DEAD: 0}
        assert queue.drained()

    def test_complete_requires_a_running_job(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        with pytest.raises(JobQueueError, match="not running"):
            queue.complete("a")
        with pytest.raises(JobQueueError, match="not running"):
            queue.fail("a", OSError("boom"))
        queue.claim()
        queue.complete("a")
        with pytest.raises(JobQueueError, match="not running"):
            queue.complete("a")
        with pytest.raises(JobQueueError, match="unknown job"):
            queue.complete("zz")

    def test_interrupted_job_reopens_pending_with_its_attempt_spent(
            self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.submit("b", PAYLOAD)
        queue.claim()                      # "a" starts; the process dies
        reopened = make_queue(tmp_path, clock)
        assert reopened.status("a") == PENDING
        assert reopened.attempts("a") == 1
        assert not reopened.drained()
        reclaimed = reopened.claim()       # at once: no clock advance
        assert reclaimed.job_id == "a"
        assert reclaimed.attempts == 2     # the interrupted run counted


class TestRetries:
    def test_fail_gates_retry_behind_backoff(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.claim()
        assert queue.fail("a", OSError("boom")) == PENDING
        assert queue.claim() is None            # not_before = now + 10
        clock.now += 10.0
        job = queue.claim()
        assert job is not None and job.attempts == 2

    def test_backoff_grows_exponentially(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.claim()
        queue.fail("a", OSError("boom"))
        clock.now += 10.0
        queue.claim()
        queue.fail("a", OSError("boom again"))
        clock.now += 10.0                       # second delay is 20 s
        assert queue.claim() is None
        clock.now += 10.0
        assert queue.claim() is not None

    def test_budget_exhaustion_dead_letters(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock,
                           retry=RetryPolicy(max_attempts=2, backoff_s=0.0,
                                             jitter=0.0))
        queue.submit("a", PAYLOAD)
        queue.claim()
        assert queue.fail("a", OSError("first")) == PENDING
        queue.claim()
        assert queue.fail("a", OSError("second")) == DEAD
        assert queue.status("a") == DEAD
        assert queue.dead_letters() == {"a": "OSError: second"}
        assert queue.claim() is None
        assert queue.drained()

    def test_a_permanent_error_dead_letters_at_once(self, tmp_path, clock):
        """A ``ValueError`` cannot change on retry: the first attempt
        writes the ``dead`` event every queue file already knows."""
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.claim()
        assert queue.fail("a", ValueError("stride must be positive")) == DEAD
        kinds = [json.loads(line)["kind"] for line in
                 (tmp_path / "queue.jsonl").read_text().splitlines()]
        assert kinds == ["fleet_queue", "job", "start", "dead"]
        reopened = make_queue(tmp_path, clock)
        assert reopened.status("a") == DEAD
        assert reopened.attempts("a") == 1
        assert reopened.dead_letters() == {
            "a": "ValueError: stride must be positive"}

    def test_interrupted_attempts_spend_the_budget(self, tmp_path, clock):
        """A job whose final attempt was interrupted by a crash is
        dead-lettered at the next claim — never silently stuck pending."""
        retry = RetryPolicy(max_attempts=1, backoff_s=0.0, jitter=0.0)
        queue = make_queue(tmp_path, clock, retry=retry)
        queue.submit("a", PAYLOAD)
        queue.claim()
        reopened = make_queue(tmp_path, clock, retry=retry)
        assert reopened.claim() is None
        assert reopened.status("a") == DEAD
        assert "interrupted" in reopened.dead_letters()["a"]
        assert reopened.drained()


class TestDurability:
    def test_replay_restores_full_state(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.submit("b", PAYLOAD)
        queue.submit("c", PAYLOAD)
        queue.claim()
        queue.complete("a", result={"detections": 2})
        queue.claim()
        queue.fail("b", OSError("boom"))
        reopened = make_queue(tmp_path, clock)
        assert reopened.job_ids() == ["a", "b", "c"]
        assert reopened.status("a") == DONE
        assert reopened.result("a") == {"detections": 2}
        assert reopened.status("b") == PENDING
        assert reopened.attempts("b") == 1
        assert reopened.status("c") == PENDING

    def test_torn_trailing_event_is_dropped_on_reopen(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.submit("b", PAYLOAD)
        assert tear_trailing_line(queue.path) > 0
        reopened = make_queue(tmp_path, clock)
        # the torn submit of "b" is gone; resubmitting it works
        assert reopened.job_ids() == ["a"]
        assert reopened.submit("b", PAYLOAD)
        assert reopened.job_ids() == ["a", "b"]

    def test_corrupt_line_mid_file_raises_queue_error(self, tmp_path, clock):
        queue = make_queue(tmp_path, clock)
        queue.submit("a", PAYLOAD)
        queue.submit("b", PAYLOAD)
        lines = queue.path.read_text().splitlines(keepends=True)
        lines[1] = '{"kind": "job", "job_\n'
        queue.path.write_text("".join(lines))
        with pytest.raises(JobQueueError, match="corrupt line 2"):
            make_queue(tmp_path, clock)

    def test_foreign_file_is_rejected(self, tmp_path, clock):
        path = tmp_path / "queue.jsonl"
        path.write_text(json.dumps({"kind": "scan_journal"}) + "\n")
        with pytest.raises(JobQueueError, match="not a fleet queue"):
            JobQueue(path, clock=clock)

    def test_unsupported_version_is_rejected(self, tmp_path, clock):
        # version 1 is the format with leases, which this queue cannot
        # replay
        path = tmp_path / "queue.jsonl"
        for version in (1, 99):
            path.write_text(json.dumps({"kind": "fleet_queue",
                                        "version": version}) + "\n")
            with pytest.raises(JobQueueError, match="version"):
                JobQueue(path, clock=clock)


JOB_IDS = ("a", "b", "c")
#: two attempts, so a few steps reach a spent budget
MODEL_RETRY = RetryPolicy(max_attempts=2, backoff_s=10.0, jitter=0.0)


class QueueModel(RuleBasedStateMachine):
    """The queue against a dict model, with a reopen (a crash) as one
    of the rules.  The model holds ``[status, attempts, not_before]``
    per job, in submission order."""

    @initialize()
    def open_queue(self):
        self.tmp = tempfile.mkdtemp(prefix="jobqueue-model-")
        self.clock = FakeClock()
        self.queue = JobQueue(f"{self.tmp}/queue.jsonl", retry=MODEL_RETRY,
                              clock=self.clock)
        self.jobs: dict[str, list] = {}
        self.dead: set[str] = set()

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @rule(job_id=st.sampled_from(JOB_IDS))
    def submit(self, job_id):
        assert self.queue.submit(job_id, PAYLOAD) == (job_id not in self.jobs)
        self.jobs.setdefault(job_id, [PENDING, 0, 0.0])

    @rule()
    def claim(self):
        expected = None
        for job_id, job in self.jobs.items():
            status, attempts, not_before = job
            if status != PENDING or self.clock.now < not_before:
                continue
            if attempts >= MODEL_RETRY.max_attempts:
                job[0] = DEAD
                self.dead.add(job_id)
                continue
            job[0], job[1] = RUNNING, attempts + 1
            expected = job_id
            break
        claimed = self.queue.claim()
        assert (claimed and claimed.job_id) == (expected or None)
        if claimed is not None:
            assert claimed.job_id not in self.dead
            assert claimed.attempts == self.jobs[expected][1]

    def _running(self):
        return [job_id for job_id, job in self.jobs.items()
                if job[0] == RUNNING]

    @precondition(lambda self: self._running())
    @rule(data=st.data())
    def complete(self, data):
        job_id = data.draw(st.sampled_from(self._running()))
        self.queue.complete(job_id, result={"job": job_id})
        self.jobs[job_id][0] = DONE

    @precondition(lambda self: self._running())
    @rule(data=st.data(), permanent=st.booleans())
    def fail(self, data, permanent):
        job_id = data.draw(st.sampled_from(self._running()))
        job = self.jobs[job_id]
        exc = ValueError("bad payload") if permanent else OSError("boom")
        status = self.queue.fail(job_id, exc)
        if permanent or job[1] >= MODEL_RETRY.max_attempts:
            assert status == DEAD
            job[0] = DEAD
            self.dead.add(job_id)
        else:
            assert status == PENDING
            job[0] = PENDING
            job[2] = self.clock.now + MODEL_RETRY.delay(job[1])

    @rule(job_id=st.sampled_from(JOB_IDS))
    def finish_a_job_not_running(self, job_id):
        if job_id in self._running():
            return
        with pytest.raises(JobQueueError):
            self.queue.complete(job_id)
        with pytest.raises(JobQueueError):
            self.queue.fail(job_id, OSError("boom"))

    @rule(dt=st.sampled_from((0.5, 10.0, 25.0, 100.0)))
    def advance(self, dt):
        self.clock.now += dt

    @rule()
    def reopen(self):
        live = self._snapshot(self.queue)
        self.queue = JobQueue(self.queue.path, retry=MODEL_RETRY,
                              clock=self.clock)
        for job_id, (status, *rest) in live["jobs"].items():
            if status == RUNNING:
                live["jobs"][job_id] = (PENDING, *rest)
                self.jobs[job_id][0] = PENDING
        assert self._snapshot(self.queue) == live

    @staticmethod
    def _snapshot(queue):
        return {"jobs": {job_id: (queue.status(job_id),
                                  queue.attempts(job_id),
                                  queue.result(job_id))
                         for job_id in queue.job_ids()},
                "dead_letters": queue.dead_letters()}

    @invariant()
    def matches_model(self):
        assert self.queue.job_ids() == list(self.jobs)
        for job_id, (status, attempts, _) in self.jobs.items():
            assert self.queue.status(job_id) == status
            assert self.queue.attempts(job_id) == attempts
            assert attempts <= MODEL_RETRY.max_attempts
        assert set(self.queue.dead_letters()) == self.dead
        assert self.queue.drained() == all(
            job[0] in (DONE, DEAD) for job in self.jobs.values())


QueueModel.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None,
    derandomize=True)
TestQueueModel = QueueModel.TestCase
