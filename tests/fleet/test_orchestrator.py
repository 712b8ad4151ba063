"""ScanFleet: durable multi-scene sweeps, retries, dead-letter, resume."""

import pytest

from repro.detect import scan_scene
from repro.fleet import DEAD, DONE, PENDING, JobQueue, ScanFleet
from repro.retry import RetryPolicy

SCAN_KWARGS = dict(window=64, stride=32, batch_size=8,
                   confidence_threshold=0.3)


def make_fleet(tmp_path, model, scene, **kwargs):
    kwargs.setdefault("queue", JobQueue(tmp_path / "queue.jsonl"))
    kwargs.setdefault("n_workers", 1)
    kwargs.setdefault("scene_provider", lambda payload: scene)
    queue = kwargs.pop("queue")
    return ScanFleet(queue, model, workdir=tmp_path / "work", **kwargs)


class TestSweep:
    def test_sweep_drains_and_matches_direct_scan(self, tmp_path, model,
                                                  scene):
        fleet = make_fleet(tmp_path, model, scene)
        assert fleet.submit_scene("j1", scene.config, **SCAN_KWARGS)
        assert fleet.submit_scene("j2", scene.config, **SCAN_KWARGS)
        summary = fleet.run()
        direct = scan_scene(model, scene,
                            journal=str(tmp_path / "direct.jsonl"),
                            **SCAN_KWARGS)
        assert summary["jobs_run"] == 2
        assert summary["counts"][DONE] == 2
        assert summary["dead_letters"] == {}
        assert summary["outcomes"] == {"j1": ["done"], "j2": ["done"]}
        for job_id in ("j1", "j2"):
            result = summary["results"][job_id]
            assert result["detections"] == len(direct)
            assert result["tiles_scanned"] == result["tiles_total"] \
                == direct.coverage.tiles_total
            assert result["tiles_quarantined"] == 0
            assert fleet.journal_path(job_id).exists()
        assert fleet.queue.drained()

    def test_run_one_returns_none_when_idle(self, tmp_path, model, scene):
        fleet = make_fleet(tmp_path, model, scene)
        assert fleet.run_one() is None

    def test_submit_rejects_unknown_scan_kwargs(self, tmp_path, model,
                                                scene):
        fleet = make_fleet(tmp_path, model, scene)
        with pytest.raises(ValueError, match="unsupported scan parameters"):
            fleet.submit_scene("j1", scene.config, n_workers=4)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(stride=0), "stride"), (dict(window="100"), "window"),
        (dict(nms_radius=-1), "nms_radius"),
        (dict(confidence_threshold=float("nan")), "confidence_threshold"),
        (dict(stride=0, window="100", nms_radius=-1), "window"),
        (dict(n_workers=4), "unsupported scan parameters"),
        (dict(timeout_s=0), "timeout_s"), (dict(timeout_s=0.0), "timeout_s"),
        (dict(timeout_s=True), "timeout_s"),
        (dict(timeout_s=float("nan")), "timeout_s")])
    def test_submit_refuses_an_invalid_spec_before_writing(
            self, tmp_path, model, scene, kwargs, field):
        """A bad value is refused by name at submit, before the queue
        file is touched, instead of dead-lettering the job at run."""
        fleet = make_fleet(tmp_path, model, scene)
        fleet.submit_scene("j0", scene.config, **SCAN_KWARGS)
        before = fleet.queue.path.read_bytes()
        with pytest.raises(ValueError, match=field):
            fleet.submit_scene("j1", scene.config, **kwargs)
        assert fleet.queue.path.read_bytes() == before

    def test_a_parent_format_queue_file_runs(self, tmp_path, model, scene):
        """A queue file an earlier release wrote (this literal text: the
        payload's ``"scan"`` dict holds ``window``, ``stride`` and
        ``timeout_s``) is what ``submit_scene`` writes today, and it runs
        to the direct scan's result."""
        literal = (
            '{"kind": "fleet_queue", "version": 2}\n'
            '{"kind": "job", "job_id": "j1", "payload": {"scene": '
            '{"size": 200, "relief_m": 6.0, "gradient_m": 10.0, "beta": 2.2, '
            '"road_spacing": 64, "road_width": 3, "embankment_m": 1.6, '
            '"stream_threshold": 600, "seed": 5}, "scan": {"window": 64, '
            '"stride": 32, "timeout_s": 30.0}}}\n')
        fresh = make_fleet(tmp_path, model, scene,
                           queue=JobQueue(tmp_path / "fresh.jsonl"))
        fresh.submit_scene("j1", scene.config, window=64, stride=32,
                           timeout_s=30.0)
        assert fresh.queue.path.read_text() == literal
        path = tmp_path / "parent.jsonl"
        path.write_text(literal)
        fleet = ScanFleet(JobQueue(path), model, workdir=tmp_path / "w",
                          n_workers=1)
        summary = fleet.run()
        direct = scan_scene(model, scene, window=64, stride=32,
                            journal=str(tmp_path / "direct.jsonl"))
        assert summary["outcomes"] == {"j1": ["done"]}
        assert summary["results"]["j1"]["detections"] == len(direct)
        assert summary["results"]["j1"]["tiles_total"] \
            == direct.coverage.tiles_total
        assert fleet.journal_path("j1").read_bytes() \
            == (tmp_path / "direct.jsonl").read_bytes()

    def test_default_provider_rebuilds_scene_from_payload(
            self, tmp_path, model, scene):
        # no injected provider: the payload's WatershedConfig rebuilds
        # the exact pixels, so detections match the prebuilt scene's
        fleet = ScanFleet(JobQueue(tmp_path / "q2.jsonl"), model,
                          workdir=tmp_path / "work2", n_workers=1)
        fleet.submit_scene("j1", scene.config, **SCAN_KWARGS)
        summary = fleet.run()
        direct = scan_scene(model, scene,
                            journal=str(tmp_path / "direct2.jsonl"),
                            **SCAN_KWARGS)
        assert summary["counts"][DONE] == 1
        assert summary["results"]["j1"]["detections"] == len(direct)


class TestFailures:
    def test_broken_scene_retries_then_dead_letters(self, tmp_path, model,
                                                    scene):
        def broken_provider(payload):
            raise RuntimeError("no such raster")

        queue = JobQueue(tmp_path / "queue.jsonl",
                         retry=RetryPolicy(max_attempts=2, backoff_s=0.0,
                                           jitter=0.0))
        fleet = make_fleet(tmp_path, model, scene, queue=queue,
                           scene_provider=broken_provider)
        fleet.submit_scene("bad", scene.config, **SCAN_KWARGS)
        summary = fleet.run()
        assert summary["outcomes"]["bad"] == ["failed", "dead"]
        assert summary["counts"][DEAD] == 1
        assert "RuntimeError: no such raster" in \
            summary["dead_letters"]["bad"]
        assert queue.drained()

    @pytest.mark.parametrize("scan, field", [
        ('{"stride": 0}', "stride"), ('{"timeout_s": 0}', "timeout_s"),
        ('{"n_workers": 4}', "unsupported scan parameters")])
    def test_a_bad_spec_line_never_builds_its_scene(self, tmp_path, model,
                                                    scene, scan, field):
        """A queue line ``submit_scene`` would refuse (written by hand, or
        before submit checked specs) is dead-lettered at its first
        attempt, a ``ValueError`` no retry can change, without one call
        to the scene provider."""
        calls = []
        path = tmp_path / "queue.jsonl"
        path.write_text(
            '{"kind": "fleet_queue", "version": 2}\n'
            '{"kind": "job", "job_id": "bad", "payload": {"scene": {}, '
            f'"scan": {scan}}}}}\n')
        queue = JobQueue(path, retry=RetryPolicy(max_attempts=3, backoff_s=0.0,
                                                 jitter=0.0))
        fleet = make_fleet(tmp_path, model, scene, queue=queue,
                           scene_provider=lambda payload: calls.append(1) or scene)
        summary = fleet.run()
        assert summary["outcomes"]["bad"] == ["dead"]
        assert summary["dead_letters"]["bad"].startswith("ValueError: ")
        assert field in summary["dead_letters"]["bad"]
        assert calls == []

    def test_one_broken_scene_does_not_block_the_sweep(self, tmp_path,
                                                       model, scene):
        def provider(payload):
            if payload["scene"]["seed"] == 999:
                raise RuntimeError("poisoned scene")
            return scene

        queue = JobQueue(tmp_path / "queue.jsonl",
                         retry=RetryPolicy(max_attempts=1, backoff_s=0.0,
                                           jitter=0.0))
        fleet = make_fleet(tmp_path, model, scene, queue=queue,
                           scene_provider=provider)
        fleet.submit_scene("good", scene.config, **SCAN_KWARGS)
        from dataclasses import replace
        fleet.submit_scene("bad", replace(scene.config, seed=999),
                           **SCAN_KWARGS)
        summary = fleet.run()
        assert summary["counts"][DONE] == 1
        assert summary["counts"][DEAD] == 1
        assert summary["counts"][PENDING] == 0
        assert "good" in summary["results"]


class TestResume:
    def test_retried_job_resumes_its_journal(self, tmp_path, model, scene):
        # sweep once to completion, then re-run the same job id against
        # the same workdir through a fresh queue: the scan must resume
        # the finished journal instead of rescanning a single tile
        first = make_fleet(tmp_path, model, scene)
        first.submit_scene("j1", scene.config, **SCAN_KWARGS)
        before = first.run()["results"]["j1"]
        assert before["tiles_resumed"] == 0

        second = make_fleet(tmp_path, model, scene,
                            queue=JobQueue(tmp_path / "queue2.jsonl"))
        second.submit_scene("j1", scene.config, **SCAN_KWARGS)
        after = second.run()["results"]["j1"]
        assert after["tiles_resumed"] == after["tiles_total"]
        assert after["detections"] == before["detections"]


class TestOnePool:
    def test_a_plain_process_runs_one_pool(self, tmp_path, model, scene):
        """A pooled plain scan and a pooled sweep in one process share
        the one ``get_pool`` pool: the fleet starts no thread that
        would flip the start method."""
        from repro.scanpar import pool as scanpar_pool
        from repro.scanpar import shutdown_pools

        shutdown_pools()                # start from no shared pool
        scan_scene(model, scene, n_workers=2,
                   **dict(SCAN_KWARGS, batch_size=4))
        fleet = make_fleet(tmp_path, model, scene, n_workers=2)
        fleet.submit_scene("j1", scene.config, **SCAN_KWARGS)
        assert fleet.run()["outcomes"] == {"j1": ["done"]}
        assert len(scanpar_pool._POOLS) == 1
        (pool,) = scanpar_pool._POOLS.values()
        assert pool.stats["workers_spawned"] == 2
        assert pool.stats["runs"] == 2
