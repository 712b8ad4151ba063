"""Parallel sharded scanning reproduces the sequential scan exactly."""

import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import ScanSpec, SPPNetDetector, scan_scene
from repro.detect.scan import scan_origins
from repro.faults import corrupt_scene
from repro.geo import WatershedConfig, build_scene
from repro.nas.space import config_from_sample
from repro.robust import ScanJournal
from repro.scanpar import SharedArray, ShardTask, WorkerPool, run_shard

WINDOW = 100
SCENE_SIZE = 200


@pytest.fixture(scope="module")
def scene():
    return build_scene(WatershedConfig(size=SCENE_SIZE, road_spacing=64,
                                       stream_threshold=600, seed=5))


@pytest.fixture(scope="module")
def model():
    arch = SPPNetConfig(
        convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
        spp_levels=(2, 1), fc_sizes=(32,), name="scanpar-test",
    )
    detector = SPPNetDetector(arch, seed=0)
    detector.eval()
    return detector


#: small batches so this 9-origin scene still splits into >= 2
#: micro-batch-aligned shards (one-shard scans inline to sequential)
SPEC = ScanSpec(window=WINDOW, stride=50, confidence_threshold=0.3,
                batch_size=4)


def scan(model, scene, **kwargs):
    return scan_scene(model, scene, **{**asdict(SPEC), **kwargs})


def assert_identical(parallel, sequential):
    assert list(parallel) == list(sequential)
    assert parallel.coverage == sequential.coverage


class TestParity:
    def test_two_workers_match_sequential(self, model, scene):
        sequential = scan(model, scene)
        assert_identical(scan(model, scene, n_workers=2), sequential)

    def test_one_worker_is_the_sequential_scan(self, model, scene):
        assert_identical(scan(model, scene, n_workers=1), scan(model, scene))

    @pytest.mark.slow  # 3 strides x 3 worker counts
    @pytest.mark.parametrize("backend", ["engine"])
    @pytest.mark.parametrize("stride", [25, 50, 100])
    def test_sweep_matches_sequential(self, model, scene, backend, stride):
        n_origins = len(scan_origins(scene.size, WINDOW, stride))
        # at least two micro-batches, so every n_workers > 1 shards
        kwargs = dict(stride=stride, backend=backend,
                      batch_size=min(SPEC.batch_size, n_origins // 2))
        sequential = scan(model, scene, **kwargs)
        for n_workers in (1, 2, 4):
            parallel = scan(model, scene, n_workers=n_workers, **kwargs)
            if n_workers > 1:
                assert parallel.supervision.shards_total >= 2
            assert_identical(parallel, sequential)

    def test_spawn_start_method_matches_fork(self, model, scene):
        sequential = scan(model, scene)
        with WorkerPool(2, start_method="spawn") as pool:
            spawned = scan(model, scene, n_workers=2, pool=pool)
        assert_identical(spawned, sequential)

    def test_cold_private_pool_matches_warm_shared_pool(self, model, scene):
        sequential = scan(model, scene)
        pooled = scan(model, scene, n_workers=2)  # shared persistent pool
        with WorkerPool(2) as pool:               # private, cold
            cold = scan(model, scene, n_workers=2, pool=pool)
        assert_identical(pooled, sequential)
        assert_identical(cold, sequential)

    @pytest.mark.slow  # spawn pays an interpreter boot per worker
    @pytest.mark.parametrize("backend", ["engine"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_backend_start_method_matrix(self, model, scene,
                                                backend, start_method):
        import multiprocessing as mp

        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        sequential = scan(model, scene, backend=backend)
        with WorkerPool(2, start_method=start_method) as pool:
            pooled = scan(model, scene, backend=backend, n_workers=2,
                          pool=pool)
        assert_identical(pooled, sequential)


class TestEdgeWindows:
    """A scene whose size is not a multiple of the stride (577 px at
    50): the 21 windows its edge pins off the lattice run the
    per-window trunk, in a worker as inline, and a worker has that
    trunk bound before its shard's clock starts."""

    @pytest.fixture(scope="class")
    def deployed(self):
        return SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval()

    @pytest.fixture(scope="class")
    def ragged(self):
        return build_scene(WatershedConfig(size=577, road_spacing=96,
                                           stream_threshold=600, seed=5))

    def test_pooled_scan_equals_the_inline_one(self, deployed, ragged):
        kwargs = dict(batch_size=20, confidence_threshold=0.0)
        inline = scan(deployed, ragged, **kwargs)
        pooled = scan(deployed, ragged, n_workers=2, **kwargs)
        assert len(inline) > 0
        assert_identical(pooled, inline)

    def test_a_worker_warms_the_trunk_its_edge_windows_run(self, ragged):
        from repro.engine import compiled_for
        from repro.scanpar.worker import _warm_engine

        # a model no scan has bound anything for, as in a fresh worker
        deployed = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0)
        spec = replace(SPEC, batch_size=20)
        origins = spec.origins(ragged.size)
        # the second of two shards: 61 origins, the edge row among them
        _warm_engine(deployed, ragged.image.shape, spec, 61, origins,
                     robust=False)
        compiled = compiled_for(deployed)
        assert compiled.window_plan(ragged.image.shape, WINDOW,
                                    origins).edge_windows == 21
        bound = (set(compiled._trunks), set(compiled._heads),
                 compiled._scan[2])
        # the one trunk, bound at the window's read extent
        h, w, _ = compiled.read_extent((4, WINDOW, WINDOW))
        assert bound[0] == {(4, h, w)}
        # the full batch and the ragged 1 (bound at one 4-row block)
        assert {key[0] for key in bound[1]} == {20, 4}
        list(compiled.predict_windows(ragged.image, origins, WINDOW,
                                      batch_size=20, span=(60, 121)))
        assert (set(compiled._trunks), set(compiled._heads),
                compiled._scan[2]) == bound


class TestResultSlab:
    """A batched shard returns through a float32 slab, the engine's
    output dtype; a slab of another dtype is refused, never cast into."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float16])
    def test_a_slab_of_another_dtype_raises_naming_both(self, model, scene,
                                                        dtype):
        origins = SPEC.origins(scene.size)
        with SharedArray(scene.image) as shared, \
                SharedArray.allocate((len(origins), 5), dtype) as slab:
            task = ShardTask(shard_index=0, start=0, stop=len(origins),
                             shm=shared.spec(), model_hash="m",
                             scene_size=scene.size, window=SPEC.window,
                             stride=SPEC.stride, batch_size=SPEC.batch_size,
                             confidence_threshold=SPEC.confidence_threshold,
                             result=slab.spec())
            with pytest.raises(TypeError) as raised:
                run_shard(task, {"m": model})
            assert not slab.array().any()       # nothing was cast in
        message = str(raised.value)
        assert np.dtype(dtype).name in message and "float32" in message


class TestShardSpec:
    """A ``ShardTask``'s scan fields are a ``ScanSpec`` on the wire:
    ``run_shard`` refuses an invalid one by name before it looks up the
    model, attaches the raster or opens its shard journal."""

    @pytest.mark.parametrize("field, value", [
        ("window", 0), ("window", 100.5), ("stride", -1),
        ("batch_size", True), ("confidence_threshold", float("nan"))])
    def test_an_invalid_task_is_refused_before_any_work(self, tmp_path,
                                                        field, value):
        from repro.robust import SanitizePolicy

        journal = tmp_path / "scan.jsonl.shard000"
        wire = dict(window=SPEC.window, stride=SPEC.stride,
                    batch_size=SPEC.batch_size,
                    confidence_threshold=SPEC.confidence_threshold)
        task = ShardTask(shard_index=0, start=0, stop=4, shm={},
                         scene_size=SCENE_SIZE, model_hash="m",
                         policy=SanitizePolicy.for_scene(),
                         journal_path=str(journal), **{**wire, field: value})
        with pytest.raises(ValueError, match=field):
            run_shard(task, {})
        assert not journal.exists()


class TestInlineShard:
    """Fewer than two shards means the one tile pipeline runs inline on
    the in-process raster: no pool, no shared memory, one clock, and a
    warning when the caller had asked for workers."""

    @pytest.mark.parametrize("backend, robust", [
        ("engine", False), ("engine", True)])
    def test_one_worker_touches_no_shm_and_no_pool(self, model, scene,
                                                   tmp_path, monkeypatch,
                                                   backend, robust):
        from repro.scanpar import pool, shm

        def forbidden(*args, **kw):
            raise AssertionError("an inline scan must not get here")

        monkeypatch.setattr(shm.shared_memory, "SharedMemory", forbidden)
        monkeypatch.setattr(pool.WorkerPool, "__init__", forbidden)
        stage = {"journal": str(tmp_path / "scan.jsonl")} if robust else {}
        result = scan(model, scene, n_workers=1, backend=backend, **stage)
        assert result.coverage.tiles_scanned == result.coverage.tiles_total

    def test_explicit_workers_without_two_shards_warn_once(self, model,
                                                           scene):
        sequential = scan(model, scene)
        with pytest.warns(RuntimeWarning, match="scanning inline") as caught:
            inlined = scan(model, scene, n_workers=2, batch_size=20)
        assert len(caught) == 1
        message = str(caught[0].message)
        assert "n_workers=2" in message and "9 origins" in message \
            and "batch_size=20" in message
        assert_identical(inlined, sequential)

    @pytest.mark.parametrize("kwargs", [
        dict(n_workers=1), dict(n_workers=1, batch_size=20),
        dict(n_workers="auto"), dict(n_workers="auto", batch_size=20),
        dict(n_workers=2), dict(n_workers=2, backend="engine"),
        dict(n_workers=4, backend="engine")])
    def test_no_other_scan_warns(self, model, scene, kwargs, recwarn):
        scan(model, scene, **kwargs)
        assert not [w for w in recwarn if "inline" in str(w.message)]

    def test_parallel_scan_starts_one_clock(self, model, scene,
                                            monkeypatch):
        """``timeout_s`` becomes one ``deadline_at`` at entry, and that
        instant is what the shard dispatch is handed."""
        from repro.detect import scan as scan_mod
        from repro.scanpar import parallel

        reads = []

        def clock():
            reads.append(1000.0 + len(reads))
            return reads[-1]

        class Dispatched(Exception):
            pass

        def dispatch(*args, deadline_at, **kwargs):
            raise Dispatched(deadline_at)

        monkeypatch.setattr(scan_mod.time, "monotonic", clock)
        monkeypatch.setattr(parallel, "run_shards", dispatch)
        with pytest.raises(Dispatched) as caught:
            scan(model, scene, n_workers=2, timeout_s=5.0)
        assert reads == [1000.0]
        assert caught.value.args == (1005.0,)


class TestValidation:
    def test_zero_workers_rejected(self, model, scene):
        with pytest.raises(ValueError, match="n_workers"):
            scan(model, scene, n_workers=0)

    def test_unknown_worker_policy_rejected(self, model, scene):
        with pytest.raises(ValueError, match="n_workers"):
            scan(model, scene, n_workers="many")


class TestRobustParallel:
    @pytest.fixture()
    def corrupted(self, scene):
        origins = SPEC.origins(scene.size)
        image, applied = corrupt_scene(scene.image, origins, WINDOW,
                                       fraction=0.3, seed=7)
        assert applied
        return replace(scene, image=image)

    def test_corrupt_tiles_scan_identically(self, model, corrupted, tmp_path):
        sequential = scan(model, corrupted,
                          journal=str(tmp_path / "seq.jsonl"))
        parallel = scan(model, corrupted,
                        journal=str(tmp_path / "par.jsonl"), n_workers=2)
        assert_identical(parallel, sequential)
        assert parallel.coverage.tiles_repaired > 0

    def test_shard_journals_absorbed_into_main(self, model, corrupted,
                                               tmp_path):
        journal = ScanJournal(tmp_path / "scan.jsonl")
        result = scan(model, corrupted, journal=journal, n_workers=2)
        assert journal.shard_paths() == []
        _, records = journal.load()
        assert len(records) == result.coverage.tiles_total
        assert [rec.index for rec in records] == sorted(
            rec.index for rec in records
        )

    @pytest.mark.parametrize("backend", ["engine"])
    @pytest.mark.parametrize("writer", [1, 2])
    def test_every_crash_point_resumes_identically(self, model, corrupted,
                                                   tmp_path, backend, writer):
        """Crash-point enumeration: a journal written under ``writer``
        workers, cut after every record count k = 0..9 (and once inside
        a record, the torn tail a kill mid-append leaves), resumes under
        one and under two workers to the uninterrupted scan."""
        full_path = tmp_path / "full.jsonl"
        full = scan(model, corrupted, backend=backend, n_workers=writer,
                    journal=str(full_path))
        lines = full_path.read_text().splitlines(keepends=True)
        n_tiles = full.coverage.tiles_total
        assert len(lines) == 1 + n_tiles == 10
        cuts = [(k, "".join(lines[:1 + k])) for k in range(n_tiles + 1)]
        cuts.append((4, "".join(lines[:5]) + lines[5][:len(lines[5]) // 2]))
        for k, text in cuts:
            for resumer in (1, 2):
                part = ScanJournal(
                    tmp_path / f"cut{k}-{len(text)}-{resumer}.jsonl")
                part.path.write_text(text)
                resumed = scan(model, corrupted, backend=backend,
                               n_workers=resumer, journal=part, resume=True)
                assert list(resumed) == list(full)
                assert resumed.coverage == replace(full.coverage,
                                                   tiles_resumed=k)
                assert part.shard_paths() == []
                # every tile journaled once, none re-run, none lost
                assert sorted(part.path.read_text().splitlines(True)) \
                    == sorted(lines)

    def test_parallel_journal_resumes_sequentially(self, model, corrupted,
                                                   tmp_path):
        # full parallel scan writes the reference journal
        full = scan(model, corrupted, journal=str(tmp_path / "full.jsonl"),
                    n_workers=2)
        # keep the header and half the records, as if killed mid-scan
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:1 + (len(lines) - 1) // 2]) + "\n")

        resumed = scan(model, corrupted, journal=str(partial), resume=True)
        assert list(resumed) == list(full)
        assert resumed.coverage.tiles_resumed > 0

    def test_sequential_journal_resumes_in_parallel(self, model, corrupted,
                                                    tmp_path):
        full = scan(model, corrupted, journal=str(tmp_path / "full.jsonl"))
        lines = (tmp_path / "full.jsonl").read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:1 + (len(lines) - 1) // 2]) + "\n")

        resumed = scan(model, corrupted, journal=str(partial), resume=True,
                       n_workers=2)
        assert list(resumed) == list(full)
        assert resumed.coverage.tiles_resumed > 0


# -- engine fuzz, worker-count axis ------------------------------------------

@pytest.fixture(scope="module")
def fuzz_pool():
    with WorkerPool(2) as pool:
        yield pool


@pytest.fixture(scope="module")
def fuzz_scene():
    return build_scene(WatershedConfig(size=160, road_spacing=64,
                                       stream_threshold=600, seed=9))


@settings(derandomize=True, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(first_kernel=st.sampled_from((1, 3, 5, 7, 9)),
       spp_first_level=st.integers(1, 5),
       fc_width=st.sampled_from((8, 16, 24)),
       window=st.integers(32, 44),
       stride=st.sampled_from((8, 12, 16, 20, 24)),
       steps=st.integers(2, 4),
       remainder=st.sampled_from((0, 1, 3, 7)),
       batch=st.sampled_from((2, 3, 5)),
       journaled=st.booleans(),
       seed=st.integers(0, 2**16))
def test_pooled_scan_is_the_inline_scan_property(
        fuzz_pool, fuzz_scene, first_kernel, spp_first_level, fc_width,
        window, stride, steps, remainder, batch, journaled, seed):
    """Random search-space samples x scan geometries (scene sizes the
    stride does not divide among them) x batch x journaling: two pool
    workers return the inline scan's detections, coverage and journal
    records."""
    config = replace(
        config_from_sample({"first_kernel": first_kernel,
                            "spp_first_level": spp_first_level,
                            "fc_width": fc_width}),
        convs=(ConvSpec(8, first_kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)))
    model = SPPNetDetector(config, seed=seed).eval()
    size = window + steps * stride + remainder
    scene = replace(fuzz_scene,
                    config=replace(fuzz_scene.config, size=size),
                    image=np.ascontiguousarray(
                        fuzz_scene.image[:, :size, :size]))
    with tempfile.TemporaryDirectory() as tmp:
        def run(n_workers, **kwargs):
            if journaled:
                kwargs["journal"] = Path(tmp) / f"w{n_workers}.jsonl"
            return scan_scene(model, scene, window=window, stride=stride,
                              confidence_threshold=0.0, batch_size=batch,
                              n_workers=n_workers, **kwargs)

        inline = run(1)
        runs = fuzz_pool.stats["runs"]
        pooled = run(2, pool=fuzz_pool)
        assert fuzz_pool.stats["runs"] == runs + 1     # it did shard
        if journaled:
            lines = [sorted((Path(tmp) / f"w{n}.jsonl").read_text()
                            .splitlines()) for n in (1, 2)]
            assert lines[0] == lines[1]
    assert_identical(pooled, inline)
    assert inline.coverage.tiles_total == len(
        scan_origins(size, window, stride))
