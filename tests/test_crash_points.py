"""Crash points, enumerated: a kill at every durable boundary of three
scripted runs, and a resume that must equal the uninterrupted run.

The durable boundaries are ``repro.durable``'s truncate-open, write,
fsync and repair-truncate, and ``ScanJournal.absorb_shards``' unlink of
a merged shard journal.  For each script (a 6-trial NAS sweep, a
journaled robust scan that first absorbs pre-written shard journals, a
3-job fleet sweep) an uninterrupted run counts the calls of each
boundary.  Then, for every boundary and every k up to its count, a
forked child runs the script with the k-th call replaced by
``os._exit``: a write lands half its bytes first (the torn line a kill
mid-append leaves), a truncate-open dies with the file emptied.  The
parent resumes from what the child left, and the result must equal the
uninterrupted one.
"""

import builtins
import json
import os
import pathlib
import signal
import time
import traceback
import types
from dataclasses import replace

import pytest

from repro import durable
from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_scene
from repro.detect.scan import scan_origins
from repro.faults import corrupt_scene
from repro.fleet import DONE, PENDING, JobQueue, ScanFleet
from repro.geo import WatershedConfig, build_scene
from repro.nas import Experiment, FunctionalEvaluator, sppnet_search_space
from repro.robust import ScanJournal

BOUNDARIES = ("truncate-open", "write", "fsync", "repair-truncate", "unlink")
KILLED = 86
SCENE_CONFIG = WatershedConfig(size=200, road_spacing=64,
                               stream_threshold=600, seed=5)
SCAN = dict(window=100, stride=50, confidence_threshold=0.3)


@pytest.fixture(scope="module")
def model():
    arch = SPPNetConfig(
        convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
        spp_levels=(2, 1), fc_sizes=(32,), name="crash-test",
    )
    detector = SPPNetDetector(arch, seed=0)
    detector.eval()
    return detector


@pytest.fixture(scope="module")
def scene():
    scene = build_scene(SCENE_CONFIG)
    image, applied = corrupt_scene(
        scene.image, scan_origins(scene.size, SCAN["window"], SCAN["stride"]),
        SCAN["window"], fraction=0.3, seed=7)
    assert applied
    return replace(scene, image=image)


class Kill:
    """Counts boundary calls; ``reached`` is true at the k-th call of
    ``boundary`` (never when ``boundary`` is None)."""

    def __init__(self, boundary=None, k=0):
        self.boundary, self.k = boundary, k
        self.calls = dict.fromkeys(BOUNDARIES, 0)

    def reached(self, name):
        self.calls[name] += 1
        return name == self.boundary and self.calls[name] == self.k


def install(kill, mp):
    """Route every durable boundary through ``kill``."""
    real_open, real_fsync, real_unlink = (builtins.open, os.fsync,
                                          pathlib.Path.unlink)

    class File:
        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def write(self, data):
            if kill.reached("write"):
                self._fh.write(data[:len(data) // 2])
                self._fh.flush()
                os._exit(KILLED)
            return self._fh.write(data)

        def truncate(self, size):
            if kill.reached("repair-truncate"):
                os._exit(KILLED)
            return self._fh.truncate(size)

    def open_(path, mode="r", **kwargs):
        fh = real_open(path, mode, **kwargs)
        if "w" in mode and kill.reached("truncate-open"):
            os._exit(KILLED)
        return File(fh)

    def fsync(fd):
        if kill.reached("fsync"):
            os._exit(KILLED)
        real_fsync(fd)

    def unlink(self, *args, **kwargs):
        if ".shard" in self.name and kill.reached("unlink"):
            os._exit(KILLED)
        real_unlink(self, *args, **kwargs)

    mp.setattr(durable, "open", open_, raising=False)
    mp.setattr(os, "fsync", fsync)
    mp.setattr(pathlib.Path, "unlink", unlink)


def killed_child(script, kill):
    """Exit code of a forked child that runs ``script`` under ``kill``."""
    pid = os.fork()
    if pid == 0:   # pragma: no cover - the child never returns
        code = 0
        try:
            install(kill, pytest.MonkeyPatch())
            script()
        except BaseException:
            traceback.print_exc()
            code = 1
        os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"child hung at {kill.boundary} "
                                 f"#{kill.k}")
        time.sleep(0.002)


def every_crash_point(tmp_path, setup, script, resume):
    """Kill ``script`` at every boundary call of its uninterrupted run
    and check each resume against that run; returns ``(uninterrupted
    result, boundary call counts)``."""
    reference = tmp_path / "uninterrupted"
    setup(reference)
    counted = Kill()
    with pytest.MonkeyPatch.context() as mp:
        install(counted, mp)
        script(reference)
    expected = resume(reference)
    for boundary, n in counted.calls.items():
        for k in range(1, n + 1):
            case = tmp_path / f"{boundary}-{k}"
            setup(case)
            code = killed_child(lambda: script(case), Kill(boundary, k))
            assert code == KILLED, f"{boundary} #{k}: child exited {code}"
            assert resume(case) == expected, f"killed at {boundary} #{k}"
    return expected, counted.calls


def test_nas_sweep(tmp_path):
    def objective(sample):
        return sample["fc_width"] / 8192 + sample["spp_first_level"] / 100

    sweep = dict(space=sppnet_search_space(), seed=5, max_trials=6)

    def script(case):
        Experiment(evaluator=FunctionalEvaluator(objective),
                   journal=case / "trials.jsonl", **sweep).run()

    def resume(case):
        path = case / "trials.jsonl"
        trials = Experiment.resume(
            path, evaluator=FunctionalEvaluator(objective), **sweep).run()
        header, *lines = map(json.loads, path.read_text().splitlines())
        for line in lines:
            del line["duration_s"]
        return ([(t.trial_id, t.sample, t.value, t.status, t.attempts)
                 for t in trials], header, lines)

    expected, calls = every_crash_point(
        tmp_path, lambda case: case.mkdir(), script, resume)
    plain = Experiment(evaluator=FunctionalEvaluator(objective), **sweep)
    assert expected[0] == [(t.trial_id, t.sample, t.value, t.status,
                            t.attempts) for t in plain.run()]
    assert calls == {"truncate-open": 1, "write": 7, "fsync": 7,
                     "repair-truncate": 0, "unlink": 0}


def test_robust_scan_with_shard_absorb(tmp_path, model, scene):
    """A sequential resume that finds a torn main journal and two shard
    journals a crashed 2-worker scan left (one of them torn)."""
    full_path = tmp_path / "full.jsonl"
    full = scan_scene(model, scene, journal=str(full_path), batch_size=3,
                      **SCAN)
    header, *tiles = full_path.read_text().splitlines(keepends=True)
    assert len(tiles) == 9

    def torn(line):
        return line[:len(line) // 2]

    def setup(case):
        case.mkdir()
        journal = ScanJournal(case / "scan.jsonl")
        journal.path.write_text(header + tiles[0] + tiles[1] + torn(tiles[2]))
        journal.shard_path(0).write_text(header + tiles[3] + tiles[4])
        journal.shard_path(1).write_text(header + tiles[6] + torn(tiles[7]))

    def scan(case):
        return scan_scene(model, scene, journal=str(case / "scan.jsonl"),
                          resume=True, batch_size=3, **SCAN)

    def resume(case):
        result = scan(case)
        assert ScanJournal(case / "scan.jsonl").shard_paths() == []
        return (list(result), replace(result.coverage, tiles_resumed=0),
                (case / "scan.jsonl").read_text())

    expected, calls = every_crash_point(tmp_path, setup, scan, resume)
    assert expected[:2] == (list(full), full.coverage)
    assert sorted(expected[2].splitlines(True)[1:]) == sorted(tiles)
    assert calls == {"truncate-open": 0, "write": 4, "fsync": 6,
                     "repair-truncate": 2, "unlink": 2}


def test_fleet_sweep(tmp_path, model, monkeypatch):
    """A killed sweep restarts at once: an interrupted job reopens
    pending, claimable with no wait, and spends its second attempt.
    Per kill, the queue counts, the attempts and every job's journal
    bytes are compared; a journal's replay is a function of its bytes,
    so the detections are checked once, on the uninterrupted sweep."""
    jobs = ("j1", "j2", "j3")
    config = replace(SCENE_CONFIG, size=150)
    scene = build_scene(config)

    def no_sleep(seconds):
        raise AssertionError("an interrupted job was not claimable")

    monkeypatch.setattr("repro.fleet.orchestrator.time",
                        types.SimpleNamespace(sleep=no_sleep))

    def fleet(case):
        sweep = ScanFleet(JobQueue(case / "queue.jsonl"), model,
                          workdir=case, n_workers=1,
                          scene_provider=lambda payload: scene)
        for job_id in jobs:
            sweep.submit_scene(job_id, config, batch_size=4, **SCAN)
        return sweep

    def resume(case):
        queue = JobQueue(case / "queue.jsonl")
        interrupted = {j for j in queue.job_ids()
                       if queue.status(j) == PENDING and queue.attempts(j)}
        sweep = fleet(case)
        sweep.run()
        queue = sweep.queue
        assert {j: queue.attempts(j) for j in jobs} \
            == {j: 2 if j in interrupted else 1 for j in jobs}
        return queue.counts(), [sweep.journal_path(j).read_text()
                                for j in jobs]

    expected, calls = every_crash_point(
        tmp_path, lambda case: None, lambda case: fleet(case).run(), resume)
    assert expected[0][DONE] == len(jobs)
    direct = scan_scene(model, scene, journal=str(tmp_path / "direct.jsonl"),
                        batch_size=4, **SCAN)
    assert expected[1] == [(tmp_path / "direct.jsonl").read_text()] * 3
    for job_id in jobs:
        replay = scan_scene(model, scene, resume=True, batch_size=4, **SCAN,
                            journal=str(tmp_path / "uninterrupted"
                                        / f"{job_id}.journal.jsonl"))
        assert list(replay) == list(direct)
    # the queue: a header, then submit, start and done per job; each
    # journal: a header and one commit
    assert calls == {"truncate-open": 1 + len(jobs),
                     "write": 1 + 5 * len(jobs), "fsync": 1 + 5 * len(jobs),
                     "repair-truncate": 0, "unlink": 0}
