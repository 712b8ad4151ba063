"""Robust full-scene scanning: quarantine, journal, resume, NMS hygiene."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.detect import (
    ScanCoverage,
    SceneDetection,
    evaluate_scene_detections,
    non_max_suppression,
    scan_origins,
    scan_scene,
)
from repro.detect.scan import ScanDeadlineError
from repro.engine import CompiledModel
from repro.faults import corrupt_scene
from repro.robust import (
    GuardedEngine,
    SanitizePolicy,
    ScanJournal,
    ScanJournalError,
    TileRecord,
    sanitize_chip,
)
from tests.faults import (
    FatalOn,
    InjectedFault,
    PoisonedInput,
    tear_trailing_line,
    window_batches,
)

WINDOW = 64
STRIDE = 64


@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(192)


@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


def corrupted(scene, fraction=0.25, seed=7):
    origins = scan_origins(scene.size, WINDOW, STRIDE)
    image, applied = corrupt_scene(scene.image, origins, WINDOW,
                                   fraction=fraction, seed=seed)
    return replace(scene, image=image), applied


def above_guard(monkeypatch, hook):
    """Call ``hook(stack)`` before every engine call of the robust stage,
    above the guard (its faults are not the engine's): the window stack
    of each micro-batch (``GuardedEngine.predict_windows``) and the
    stack of each tile re-run alone (``GuardedEngine.predict_batch``)."""
    windows, batch = GuardedEngine.predict_windows, GuardedEngine.predict_batch

    def predict_windows(guard, image, origins, window, batch_size=20,
                        span=None):
        answers = windows(guard, image, origins, window, batch_size, span)
        for stack in window_batches(image, origins, window, batch_size, span):
            hook(stack)
            yield next(answers)

    def predict_batch(guard, stack, batch_size=None):
        hook(stack)
        return batch(guard, stack, batch_size)

    monkeypatch.setattr(GuardedEngine, "predict_windows", predict_windows)
    monkeypatch.setattr(GuardedEngine, "predict_batch", predict_batch)


def boom(*args, **kwargs):
    raise AssertionError("the model ran")


def det(r, c, conf):
    return SceneDetection(row=r, col=c, height=12.0, width=12.0,
                          confidence=conf)


class TestNMSFiniteness:
    def test_nan_confidence_dropped_before_sorting(self):
        kept = non_max_suppression(
            [det(10, 10, float("nan")), det(80, 80, 0.9)], radius=10)
        assert [k.confidence for k in kept] == [0.9]

    def test_nan_coordinates_dropped(self):
        kept = non_max_suppression(
            [det(float("nan"), 10, 0.95), det(80, 80, 0.9)], radius=10)
        assert [k.confidence for k in kept] == [0.9]

    def test_inf_geometry_dropped(self):
        bad = SceneDetection(row=1.0, col=1.0, height=float("inf"),
                             width=12.0, confidence=0.99)
        assert non_max_suppression([bad, det(80, 80, 0.9)], radius=10) \
            == [det(80, 80, 0.9)]

    def test_survivors_serialize_with_allow_nan_false(self):
        kept = non_max_suppression(
            [det(10, 10, float("nan")), det(80, 80, 0.9)], radius=10)
        json.dumps([k.__dict__ for k in kept], allow_nan=False)


class TestRobustScan:
    def test_clean_scene_matches_plain_scan(self, scene, model):
        kwargs = dict(window=WINDOW, stride=STRIDE, confidence_threshold=0.6)
        plain = scan_scene(model, scene, **kwargs)
        robust = scan_scene(model, scene, sanitize=SanitizePolicy.for_scene(),
                            **kwargs)
        assert len(plain) == len(robust)
        for a, b in zip(sorted(plain, key=lambda d: d.center),
                        sorted(robust, key=lambda d: d.center)):
            assert a.center == b.center
            assert a.confidence == pytest.approx(b.confidence, abs=1e-5)
        cov = robust.coverage
        assert cov.coverage == 1.0 and cov.tiles_quarantined == 0

    def test_corrupted_scene_scans_to_completion(self, scene, model):
        bad_scene, applied = corrupted(scene)
        assert applied  # the injection actually happened
        result = scan_scene(model, bad_scene, window=WINDOW, stride=STRIDE,
                            confidence_threshold=0.6,
                            sanitize=SanitizePolicy.for_scene())
        cov = result.coverage
        assert cov.tiles_total == len(scan_origins(scene.size, WINDOW, STRIDE))
        assert cov.tiles_scanned + cov.tiles_quarantined == cov.tiles_total
        assert cov.tiles_repaired > 0
        for d in result:
            assert d.is_finite()

    def test_quarantine_only_policy_skips_damaged_tiles(self, scene, model):
        bad_scene, applied = corrupted(scene)
        result = scan_scene(
            model, bad_scene, window=WINDOW, stride=STRIDE,
            confidence_threshold=0.6,
            sanitize=SanitizePolicy.quarantine_only(
                valid_range=(0.0, 1.0), expected_bands=4),
        )
        assert result.coverage.tiles_quarantined == len(applied)
        assert result.coverage.tiles_repaired == 0

    def test_model_crash_is_contained_to_the_tile(self, scene, model,
                                                  monkeypatch):
        """A guarded engine call that blows up on a micro-batch holding a
        poisoned tile fails the micro-batch, whose tiles re-run alone:
        the poisoned ones are quarantined and the scan still
        completes."""
        poisoned = FatalOn(lambda stack: None, poisoned={True},
                           key=lambda stack: bool(np.any(
                               stack[:, :, :8, :8] > 0.999)))
        # poison whichever tiles have a near-1 corner pixel; force some
        bad_image = scene.image.copy()
        bad_image[:, 64:72, 64:72] = 0.9999
        bad_scene = replace(scene, image=bad_image)
        above_guard(monkeypatch, poisoned)
        result = scan_scene(model, bad_scene, window=WINDOW, stride=STRIDE,
                            confidence_threshold=0.6,
                            sanitize=SanitizePolicy.for_scene())
        # one micro-batch of all 9 tiles faulted, then each poisoned tile
        quarantined = result.coverage.tiles_quarantined
        assert quarantined >= 1 and poisoned.faults == 1 + quarantined
        assert result.coverage.tiles_scanned \
            == result.coverage.tiles_total - quarantined

    def test_non_finite_model_output_quarantines_tile(self, scene, model,
                                                      monkeypatch, tmp_path):
        """A non-finite engine row for tile 2 fails its micro-batch's
        check; the tiles re-run alone on the engine and only tile 2 is
        quarantined, with the guard's reason."""
        r, c = scan_origins(scene.size, WINDOW, STRIDE)[2]
        tile = np.asarray(scene.image[:, r:r + WINDOW, c:c + WINDOW],
                          dtype=np.float32)
        real, real_windows = CompiledModel.predict, CompiledModel.predict_windows

        def nan_rows(stack, conf):
            conf = conf.copy()
            conf[[np.array_equal(chip, tile) for chip in stack]] = np.nan
            return conf

        def nan_for_tile_2(compiled, stack, batch_size=20):
            conf, boxes = real(compiled, stack, batch_size=batch_size)
            return nan_rows(stack, conf), boxes

        def nan_windows(compiled, image, origins, window, batch_size=20,
                        span=None):
            answers = real_windows(compiled, image, origins, window,
                                   batch_size=batch_size, span=span)
            for stack, (conf, boxes) in zip(window_batches(
                    image, origins, window, batch_size, span), answers):
                yield nan_rows(stack, conf), boxes

        monkeypatch.setattr(CompiledModel, "predict", nan_for_tile_2)
        monkeypatch.setattr(CompiledModel, "predict_windows", nan_windows)
        path = tmp_path / "scan.jsonl"
        result = scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                            confidence_threshold=0.6,
                            sanitize=SanitizePolicy.for_scene(), journal=path)
        assert result.coverage.tiles_quarantined == 1
        # the micro-batch's check, then tile 2's own call
        assert result.coverage.engine_fallbacks == 2
        _, records = ScanJournal(path).load()
        assert [(rec.index, rec.reason) for rec in records
                if rec.status == "quarantined"] == [
                    (2, "model failure: EngineError('non_finite')")]
        for d in result:
            assert d.is_finite()

    def test_resume_without_journal_rejected(self, scene, model):
        with pytest.raises(ValueError):
            scan_scene(model, scene, resume=True)

    @pytest.mark.parametrize("stage", ["plain", "sanitize", "journal"])
    @pytest.mark.parametrize("backend", ["engine"])
    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_batch_size_below_one_rejected_before_any_work(
            self, scene, model, tmp_path, batch_size, backend, stage):
        """A robust scan at ``batch_size < 1`` would run and never
        commit: no group of finished tiles ever reaches the size.  A
        batch size that is not an int is refused the same way."""
        path = tmp_path / "scan.jsonl"
        kwargs = {"plain": {},
                  "sanitize": {"sanitize": SanitizePolicy.for_scene()},
                  "journal": {"journal": path}}[stage]
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                       batch_size=batch_size, backend=backend, **kwargs)
        assert not path.exists()

    @pytest.mark.parametrize("stage", ["plain", "sanitize", "journal"])
    @pytest.mark.parametrize("field, value", [
        ("nms_radius", 0), ("nms_radius", -1.0), ("nms_radius", float("inf")),
        ("confidence_threshold", float("nan")),
        ("confidence_threshold", float("-inf")),
        ("window", 0), ("window", -5), ("window", 100.5), ("window", True),
        ("stride", 0), ("stride", "32"), ("timeout_s", 0.0),
        ("timeout_s", True)])
    def test_an_invalid_spec_is_rejected_before_any_tile_runs(
            self, scene, model, tmp_path, monkeypatch, field, value, stage):
        """Every ``ScanSpec`` value, and ``timeout_s`` (a bool is no
        deadline), is checked before a tile runs or a journal is
        created, and the error names the field."""
        from repro.engine import CompiledModel

        def ran(*args, **kwargs):
            raise AssertionError("a tile ran before the spec was checked")

        monkeypatch.setattr(CompiledModel, "predict_windows", ran)
        monkeypatch.setattr(GuardedEngine, "predict_batch", ran)
        path = tmp_path / "scan.jsonl"
        kwargs = {"plain": {},
                  "sanitize": {"sanitize": SanitizePolicy.for_scene()},
                  "journal": {"journal": path}}[stage]
        kwargs = {"window": WINDOW, "stride": STRIDE, **kwargs, field: value}
        with pytest.raises(ValueError, match=field):
            scan_scene(model, scene, **kwargs)
        assert not path.exists()

    def test_an_expected_shape_other_than_the_window_is_refused(
            self, scene, model, tmp_path):
        """A truncated tile is padded out to ``expected_shape``, which no
        crop of the one repaired raster can be: refused before the
        journal is created."""
        path = tmp_path / "scan.jsonl"
        with pytest.raises(ValueError, match="expected_shape"):
            scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                       sanitize=SanitizePolicy.for_scene(
                           expected_shape=(WINDOW + 8, WINDOW + 8)),
                       journal=path)
        assert not path.exists()

    def test_coverage_flows_into_scores(self, scene, model):
        bad_scene, _ = corrupted(scene)
        result = scan_scene(model, bad_scene, window=WINDOW, stride=STRIDE,
                            confidence_threshold=0.6,
                            sanitize=SanitizePolicy.for_scene())
        scores = evaluate_scene_detections(result, scene.crossings)
        assert scores.coverage is result.coverage


class TestJournalResume:
    def scan(self, model, scene, journal, resume=False):
        return scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                          confidence_threshold=0.6,
                          sanitize=SanitizePolicy.for_scene(),
                          journal=journal, resume=resume)

    def test_journal_records_every_tile(self, scene, model, tmp_path):
        bad_scene, applied = corrupted(scene)
        path = tmp_path / "scan.jsonl"
        result = self.scan(model, bad_scene, path)
        meta, records = ScanJournal(path).load()
        assert meta["window"] == WINDOW and meta["scene_size"] == scene.size
        assert len(records) == result.coverage.tiles_total
        statuses = {rec.index: rec.status for rec in records}
        assert all(statuses[i] != "ok" for i in applied)

    def test_interrupted_scan_resumes_identically(self, scene, model,
                                                  tmp_path):
        """Truncating the journal after k tiles and resuming reproduces
        the uninterrupted scan's detections exactly (same bytes)."""
        bad_scene, _ = corrupted(scene)
        full_path = tmp_path / "full.jsonl"
        full = self.scan(model, bad_scene, full_path)

        lines = full_path.read_text().splitlines()
        for cut in (1, 4, len(lines) - 1):  # header + k tiles
            part_path = tmp_path / f"part{cut}.jsonl"
            part_path.write_text("\n".join(lines[:cut + 1]) + "\n")
            resumed = self.scan(model, bad_scene, part_path, resume=True)
            assert json.dumps([d.__dict__ for d in resumed]) \
                == json.dumps([d.__dict__ for d in full])
            assert resumed.coverage.tiles_resumed == cut
            # the resumed journal converges to the full one
            assert part_path.read_text().splitlines()[1:] == lines[1:]

    def test_resume_replays_without_running_the_model(self, scene, model,
                                                      tmp_path, monkeypatch):
        path = tmp_path / "scan.jsonl"
        self.scan(model, scene, path)
        above_guard(monkeypatch, boom)    # not on a complete journal
        resumed = self.scan(model, scene, path, resume=True)
        assert resumed.coverage.tiles_resumed == resumed.coverage.tiles_total

    def test_resume_against_mismatched_scan_raises(self, scene, model,
                                                   tmp_path):
        path = tmp_path / "scan.jsonl"
        self.scan(model, scene, path)
        with pytest.raises(ScanJournalError):
            scan_scene(model, scene, window=WINDOW, stride=32,
                       confidence_threshold=0.6,
                       sanitize=SanitizePolicy.for_scene(),
                       journal=path, resume=True)

    def test_an_eager_journal_does_not_resume_on_the_engine(self, scene,
                                                            model, tmp_path):
        """Eager and engine answers differ in low-order bits, so a
        journal an eager scan wrote is refused, not mixed with engine
        records."""
        path = tmp_path / "scan.jsonl"
        self.scan(model, scene, path)
        header, *records = path.read_text().splitlines(keepends=True)
        eager = json.dumps({**json.loads(header), "backend": "eager"})
        path.write_text(eager + "\n" + "".join(records[:3]))
        with pytest.raises(ScanJournalError, match="backend"):
            self.scan(model, scene, path, resume=True)

    def test_a_parent_format_header_is_refused(self, scene, model, tmp_path):
        """A journal written before repair became cell-local (this
        literal header, with this machine's BLAS) holds repaired records
        of another semantics: a resume refuses it, naming the key, rather
        than mixing the two."""
        from repro.blas import blas_info

        blas = json.dumps({k: v for k, v in blas_info().items() if k != "why"})
        parent = ('{"kind": "scan_header", "scene_size": 192, "bands": 4, '
                  '"window": 64, "stride": 64, "confidence_threshold": 0.6, '
                  '"backend": "engine", "blas": ' + blas + '}')
        full_path = tmp_path / "full.jsonl"
        self.scan(model, scene, full_path)
        lines = full_path.read_text().splitlines()
        assert lines[0] == parent.replace(
            '"backend": "engine", ', '"backend": "engine", "repair_cell": 32, ')
        path = tmp_path / "parent.jsonl"
        path.write_text("\n".join([parent, *lines[1:4]]) + "\n")
        with pytest.raises(ScanJournalError, match="repair_cell"):
            self.scan(model, scene, path, resume=True)
        assert path.read_text().splitlines() == [parent, *lines[1:4]]

    def test_torn_final_line_is_dropped(self, scene, model, tmp_path):
        path = tmp_path / "scan.jsonl"
        self.scan(model, scene, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "tile", "index":')  # the crash-torn write
        _, records = ScanJournal(path).load()
        assert len(records) == len(scan_origins(scene.size, WINDOW, STRIDE))

    def test_torn_record_is_rescanned_on_resume(self, scene, model,
                                                tmp_path):
        """Tearing the journal mid-way through its *last complete
        record* (what SIGKILL during an unflushed append leaves) loses
        exactly that tile; a resume rescans it and converges to the
        uninterrupted scan byte for byte."""
        full_path = tmp_path / "full.jsonl"
        full = self.scan(model, scene, full_path)
        torn_path = tmp_path / "torn.jsonl"
        torn_path.write_text(full_path.read_text())
        assert tear_trailing_line(torn_path) > 0

        resumed = self.scan(model, scene, torn_path, resume=True)
        assert json.dumps([d.__dict__ for d in resumed]) \
            == json.dumps([d.__dict__ for d in full])
        assert resumed.coverage.tiles_resumed \
            == resumed.coverage.tiles_total - 1
        # the repaired journal converges to the full one
        assert torn_path.read_text() == full_path.read_text()

    def test_fresh_scan_truncates_stale_journal(self, scene, model, tmp_path):
        path = tmp_path / "scan.jsonl"
        path.write_text('{"kind": "scan_header", "window": 1}\n')
        result = self.scan(model, scene, path, resume=False)
        assert result.coverage.tiles_resumed == 0
        meta, _ = ScanJournal(path).load()
        assert meta["window"] == WINDOW


class TestJournalFaults:
    def test_fatalon_poisoned_tiles_quarantined_and_journaled(
            self, scene, model, tmp_path, monkeypatch):
        """The quarantine fault model end to end: deterministic poisoned
        inputs never succeed, and a resume does not retry them."""
        origins = scan_origins(scene.size, WINDOW, STRIDE)
        poison_origin = origins[4]
        r, c = poison_origin
        key_tile = scene.image[:, r:r + WINDOW, c:c + WINDOW]

        poison = key_tile[0, 0, 0].tobytes()
        poisoned = FatalOn(
            lambda stack: None, poisoned={True},
            key=lambda stack: any(
                chip[0, 0, 0].tobytes() == poison for chip in stack),
        )
        above_guard(monkeypatch, poisoned)
        path = tmp_path / "scan.jsonl"
        result = scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                            confidence_threshold=0.6,
                            sanitize=SanitizePolicy.for_scene(),
                            journal=path)
        assert result.coverage.tiles_quarantined >= 1
        _, records = ScanJournal(path).load()
        quarantined = [rec for rec in records if rec.status == "quarantined"]
        assert any(rec.origin == poison_origin for rec in quarantined)
        assert all("PoisonedInput" in (rec.reason or "")
                   for rec in quarantined)

        monkeypatch.undo()
        above_guard(monkeypatch, boom)  # a journaled quarantine is not retried
        resumed = scan_scene(model, scene, window=WINDOW, stride=STRIDE,
                             confidence_threshold=0.6,
                             sanitize=SanitizePolicy.for_scene(),
                             journal=path, resume=True)
        assert resumed.coverage == replace(
            result.coverage, tiles_resumed=len(records))

    def test_a_micro_batch_that_raises_quarantines_only_its_poisoned_tile(
            self, scene, model, tmp_path, monkeypatch):
        """The fault boundary is per tile: the micro-batch holding the
        poisoned tile fails, its tiles re-run one engine call each, and
        every record but the poisoned tile's is the bytes a clean scan
        journals."""
        kw = dict(window=WINDOW, stride=STRIDE, confidence_threshold=0.0,
                  batch_size=4, sanitize=SanitizePolicy.for_scene())
        clean = tmp_path / "clean.jsonl"
        scan_scene(model, scene, journal=clean, **kw)

        r, c = scan_origins(scene.size, WINDOW, STRIDE)[5]
        poison = scene.image[:, r:r + WINDOW, c:c + WINDOW][0, 0, 0].tobytes()
        stacks = []

        def poisoned(stack):
            stacks.append(len(stack))
            if any(chip[0, 0, 0].tobytes() == poison for chip in stack):
                raise PoisonedInput("poisoned tile")

        above_guard(monkeypatch, poisoned)
        path = tmp_path / "scan.jsonl"
        result = scan_scene(model, scene, journal=path, **kw)
        # tiles 0-3, then 4-7 failing and re-run alone, then tile 8
        assert stacks == [4, 4, 1, 1, 1, 1, 1]
        assert result.coverage.tiles_quarantined == 1
        got = path.read_text().splitlines()
        want = clean.read_text().splitlines()
        (bad,) = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert json.loads(got[bad])["index"] == 5
        assert "PoisonedInput" in json.loads(got[bad])["reason"]
        assert len(got) == len(want) == 10

    def test_a_transient_tile_error_propagates_and_is_not_journaled(
            self, scene, model, tmp_path, monkeypatch):
        """A tile whose own call raises an error a retry may change (an
        ``InjectedFault``) is not quarantined: the error leaves the scan,
        the tile is on no journal line, and a resume answers it with the
        bytes a clean scan journals."""
        kw = dict(window=WINDOW, stride=STRIDE, confidence_threshold=0.0,
                  batch_size=4, sanitize=SanitizePolicy.for_scene())
        clean = tmp_path / "clean.jsonl"
        scan_scene(model, scene, journal=clean, **kw)

        r, c = scan_origins(scene.size, WINDOW, STRIDE)[5]
        poison = scene.image[:, r:r + WINDOW, c:c + WINDOW][0, 0, 0].tobytes()

        def flaky(stack):
            if any(chip[0, 0, 0].tobytes() == poison for chip in stack):
                raise InjectedFault("transient")

        above_guard(monkeypatch, flaky)
        path = tmp_path / "scan.jsonl"
        with pytest.raises(InjectedFault, match="transient"):
            scan_scene(model, scene, journal=path, **kw)
        _, records = ScanJournal(path).load()
        assert [rec.index for rec in records] == [0, 1, 2, 3]

        monkeypatch.undo()
        resumed = scan_scene(model, scene, journal=path, resume=True, **kw)
        assert resumed.coverage.tiles_quarantined == 0
        assert path.read_text() == clean.read_text()


class TestGroupCommit:
    """The journal commits once per micro-batch of ``batch_size`` tiles
    (one model call each), and a scan that ends early still leaves every
    finished micro-batch on disk."""

    KW = dict(window=WINDOW, stride=STRIDE, confidence_threshold=0.6,
              batch_size=4, sanitize=SanitizePolicy.for_scene())

    @pytest.fixture()
    def ticking(self, monkeypatch):
        """A scan clock that advances one second per model call (one
        per micro-batch)."""
        import repro.detect.scan as scan_mod

        clock = SimpleNamespace(now=0.0, calls=0)

        def tick(stack):
            clock.now += 1.0
            clock.calls += 1

        above_guard(monkeypatch, tick)
        monkeypatch.setattr(scan_mod, "time",
                            SimpleNamespace(monotonic=lambda: clock.now))
        return clock

    def test_deadline_mid_buffer_leaves_the_finished_tiles_resumable(
            self, scene, model, tmp_path, ticking):
        full = scan_scene(model, scene, journal=tmp_path / "full.jsonl",
                          **self.KW)
        path = tmp_path / "cut.jsonl"
        with pytest.raises(ScanDeadlineError, match="after 8 of 9 tiles"):
            # two micro-batches committed; the third is due past 1.5 s
            scan_scene(model, scene, journal=path, timeout_s=1.5, **self.KW)
        _, records = ScanJournal(path).load()
        assert [rec.index for rec in records] == list(range(8))

        ticking.calls = 0
        resumed = scan_scene(model, scene, journal=path, resume=True,
                             **self.KW)
        assert ticking.calls == 1           # none of the eight re-ran
        assert resumed.coverage.tiles_resumed == 8
        assert list(resumed) == list(full)
        assert path.read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    def test_a_crash_out_of_the_loop_flushes_the_buffer(
            self, scene, model, tmp_path, monkeypatch):
        """A crash mid-scan loses the micro-batch in flight only."""
        calls = []

        def interrupt(stack):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt     # not the tile's to contain

        above_guard(monkeypatch, interrupt)
        path = tmp_path / "scan.jsonl"
        with pytest.raises(KeyboardInterrupt):
            scan_scene(model, scene, journal=path, **self.KW)
        assert len(calls) == 2      # not re-run tile by tile either
        _, records = ScanJournal(path).load()
        assert [rec.index for rec in records] == list(range(4))

    def test_a_commit_that_fails_is_not_written_again(
            self, scene, model, tmp_path, monkeypatch):
        """The second commit reaches the disk and then raises (an
        ``EIO`` on close): the error propagates as itself and the flush
        on the way out does not append the group a second time."""
        real, groups = ScanJournal.extend, []

        def extend(journal, records):
            real(journal, records)
            if records:
                groups.append([rec.index for rec in records])
                if len(groups) == 2:
                    raise OSError("injected write failure")

        monkeypatch.setattr(ScanJournal, "extend", extend)
        path = tmp_path / "scan.jsonl"
        with pytest.raises(OSError, match="injected write failure"):
            scan_scene(model, scene, journal=path, **self.KW)
        assert groups == [[0, 1, 2, 3], [4, 5, 6, 7]]
        _, records = ScanJournal(path).load()
        assert [rec.index for rec in records] == list(range(8))

        monkeypatch.setattr(ScanJournal, "extend", real)
        resumed = scan_scene(model, scene, journal=path, resume=True,
                             **self.KW)
        full = scan_scene(model, scene, journal=tmp_path / "full.jsonl",
                          **self.KW)
        assert resumed.coverage.tiles_resumed == 8
        assert list(resumed) == list(full)
        assert path.read_bytes() == (tmp_path / "full.jsonl").read_bytes()

    def test_one_fsync_per_micro_batch(self, scene, model, tmp_path,
                                       monkeypatch):
        """121 tiles at ``batch_size=20``: the header and seven commits,
        not one per tile."""
        import repro.durable as durable

        synced = []
        real = durable.os.fsync
        monkeypatch.setattr(durable.os, "fsync",
                            lambda fd: (synced.append(fd), real(fd))[1])
        result = scan_scene(model, scene, window=32, stride=16,
                            confidence_threshold=0.6, batch_size=20,
                            sanitize=SanitizePolicy.for_scene(),
                            journal=tmp_path / "scan.jsonl")
        assert result.coverage.tiles_total == 121
        assert len(synced) == 8
        _, records = ScanJournal(tmp_path / "scan.jsonl").load()
        assert [rec.index for rec in records] == list(range(121))


def per_tile_reference(model, scene, stride, threshold, path, meta,
                       window=WINDOW):
    """The robust scan composed from public calls, tile by tile: every
    tile alone through ``sanitize_chip ->
    GuardedEngine.predict_batch(chip[None]) -> decode ->
    ScanJournal.append``, then NMS."""
    origins = scan_origins(scene.size, window, stride)
    policy = SanitizePolicy.for_scene()
    guarded = GuardedEngine(model)
    journal = ScanJournal(path)
    journal.start(meta)
    records = []
    for index, (r0, c0) in enumerate(origins):
        tile = np.asarray(scene.image[:, r0:r0 + window, c0:c0 + window],
                          dtype=np.float32)
        result = sanitize_chip(tile, policy)
        if result.status == "quarantined":
            record = TileRecord(index, (r0, c0), "quarantined",
                                reason=result.report.summary())
        else:
            conf, box, _ = guarded.predict_batch(result.chip[None])
            conf0 = float(np.asarray(conf).reshape(-1)[0])
            cx, cy, w, h = (float(v) for v in np.asarray(
                box, dtype=np.float64).reshape(-1)[:4])
            found = ()
            if conf0 >= threshold:
                found = ((r0 + cy * window, c0 + cx * window,
                          h * window, w * window, conf0),)
            record = TileRecord(index, (r0, c0), result.status,
                                detections=found,
                                reason="; ".join(result.repairs) or None)
        journal.append(record)
        records.append(record)
    kept = non_max_suppression(
        [SceneDetection(row=r, col=c, height=h, width=w, confidence=p)
         for rec in records for (r, c, h, w, p) in rec.detections])
    status = [rec.status for rec in records]
    return kept, ScanCoverage(
        tiles_total=len(origins),
        tiles_scanned=len(origins) - status.count("quarantined"),
        tiles_repaired=status.count("repaired"),
        tiles_quarantined=status.count("quarantined"),
        engine_fallbacks=sum(guarded.fallback_by_reason.values()))


class TestScanIsThePerTileReference:
    """The journal commits in groups; that may not move a bit of a
    detection or a byte of the journal."""

    STRIDE = 32
    THRESHOLD = 0.3

    def scan(self, model, scene, journal, **kwargs):
        return scan_scene(model, scene, window=WINDOW, stride=self.STRIDE,
                          confidence_threshold=self.THRESHOLD, batch_size=4,
                          sanitize=SanitizePolicy.for_scene(),
                          journal=journal, **kwargs)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_scan_equals_the_per_tile_reference(self, scene, model,
                                                tmp_path, seed):
        bad_scene, applied = corrupted(scene, seed=seed)
        assert applied
        path = tmp_path / "scan.jsonl"
        result = self.scan(model, bad_scene, path)
        cov = result.coverage
        assert 0 < cov.tiles_repaired < cov.tiles_scanned

        meta, _ = ScanJournal(path).load()
        ref_path = tmp_path / "reference.jsonl"
        ref, ref_coverage = per_tile_reference(
            model, bad_scene, self.STRIDE, self.THRESHOLD, ref_path, meta)
        assert list(result) == ref and cov == ref_coverage
        assert len(ref) > 0
        # record order and codec unchanged: the journal a per-tile
        # append wrote
        assert path.read_bytes() == ref_path.read_bytes()

        lines = path.read_text().splitlines(keepends=True)
        for n_workers, cut in [(1, 7), (2, 0), (2, 13)]:
            part = tmp_path / f"part-{n_workers}-{cut}.jsonl"
            part.write_text("".join(lines[:1 + cut]))
            again = self.scan(model, bad_scene, part, resume=cut > 0,
                              n_workers=n_workers)
            assert list(again) == ref
            assert again.coverage == replace(ref_coverage,
                                             tiles_resumed=cut)
            assert sorted(part.read_text().splitlines(True)) \
                == sorted(lines)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_the_deployed_geometry_equals_the_per_tile_reference(
            self, watershed, model, tmp_path, seed):
        """100 px windows at stride 50: every tile's origin is on the
        50 px repair grid, so the scan over the one repaired raster is
        the tile-by-tile composition, bit for bit, and a pooled scan is
        the inline one.  At threshold 0 every scanned tile journals its
        row, so a repaired pixel that differs shows in the bytes."""
        scene = watershed(400)
        origins = scan_origins(scene.size, 100, 50)
        image, applied = corrupt_scene(scene.image, origins, 100,
                                       fraction=0.1, seed=seed)
        assert applied
        bad_scene = replace(scene, image=image)
        kw = dict(window=100, stride=50, confidence_threshold=0.0,
                  batch_size=8, sanitize=SanitizePolicy.for_scene())
        path = tmp_path / "scan.jsonl"
        result = scan_scene(model, bad_scene, journal=path, **kw)
        cov = result.coverage
        assert 0 < cov.tiles_repaired < cov.tiles_scanned

        meta, _ = ScanJournal(path).load()
        ref_path = tmp_path / "reference.jsonl"
        ref, ref_coverage = per_tile_reference(
            model, bad_scene, 50, 0.0, ref_path, meta, window=100)
        assert list(result) == ref and cov == ref_coverage
        assert len(ref) > 0
        assert path.read_bytes() == ref_path.read_bytes()

        pooled_path = tmp_path / "pooled.jsonl"
        pooled = scan_scene(model, bad_scene, journal=pooled_path,
                            n_workers=2, **kw)
        assert pooled.supervision.shards_total == 2
        assert list(pooled) == ref and pooled.coverage == ref_coverage
        assert sorted(pooled_path.read_text().splitlines()) \
            == sorted(path.read_text().splitlines())


class TestVerdictsFromCellStatistics:
    """The robust scan inspects each scene pixel once: ``sanitize_scene``
    keeps every repair cell's damage statistics, a tile of whole cells
    is judged by pooling its four cells', and only a tile off the cell
    grid reads its own pixels."""

    @pytest.mark.parametrize("size, stride, own", [(600, 50, 0),
                                                   (577, 50, 21),
                                                   (600, 48, 140)])
    def test_only_tiles_off_the_cell_grid_read_their_own_pixels(
            self, model, pixel_reads, size, stride, own):
        origins = scan_origins(size, 100, stride)
        clean = np.random.default_rng(size + stride).random(
            (4, size, size), dtype=np.float32)
        image, applied = corrupt_scene(clean, origins, 100, fraction=0.3,
                                       seed=stride)
        assert applied
        with pixel_reads() as reads:
            result = scan_scene(
                model, SimpleNamespace(image=image, size=size), window=100,
                stride=stride, sanitize=SanitizePolicy.for_scene())
        assert result.coverage.tiles_repaired > 0
        assert len(reads) == own
