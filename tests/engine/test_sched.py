"""IOS-scheduled engine execution: byte-identity with the sequential
path across the NAS search axes and quant modes, sticky schedule
caching, snapshot/seed shipping, and the escape hatches."""

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.sppnet import SPPNetDetector
from repro.engine import CompiledModel, sched
from repro.graph.ir import OpType
from repro.ios.schedule import Schedule


def small_config(kernel: int = 3, spp_levels=(2, 1), fc_sizes=(32,),
                 use_batchnorm: bool = False) -> SPPNetConfig:
    return SPPNetConfig(
        convs=(ConvSpec(8, kernel, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=tuple(spp_levels),
        fc_sizes=tuple(fc_sizes),
        in_channels=4,
        use_batchnorm=use_batchnorm,
    )


def chips(n: int, size: int = 32, channels: int = 4,
          seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, channels, size, size)).astype(np.float32)


@pytest.fixture()
def forced_parallel(monkeypatch):
    """Deterministic parallel schedules on any host: zero concurrency
    overheads and a 4-lane worker budget, so the DP parallelizes every
    profitable branch regardless of cpu count or timing noise."""
    monkeypatch.setattr(sched, "DISPATCH_US", 0.0)
    monkeypatch.setattr(sched, "SYNC_US", 0.0)
    monkeypatch.setenv(sched.ENV_WORKERS, "4")
    sched.clear_cache()
    yield
    sched.clear_cache()


def build_pair(config, images, quant="float32", seed=1):
    """(sequential outputs, scheduled outputs, scheduled model)."""
    model = SPPNetDetector(config, seed=seed)
    model.eval()
    shape = (config.in_channels,) + images.shape[2:]
    plain = CompiledModel(model, shape, quant=quant, schedule=False)
    staged = CompiledModel(model, shape, quant=quant, schedule=True)
    return plain(images), staged(images), staged


def assert_bytes_equal(seq_out, sch_out):
    for a, b in zip(seq_out, sch_out):
        assert a.tobytes() == b.tobytes()


class TestByteIdentity:
    """Scheduled execution must be bitwise-identical to sequential:
    same kernels, disjoint buffers, only the interleaving differs."""

    @pytest.mark.parametrize("quant", ["float32", "float16", "int8"])
    def test_quant_modes(self, forced_parallel, quant):
        config = small_config()
        seq, sch, staged = build_pair(config, chips(3), quant=quant)
        assert_bytes_equal(seq, sch)
        plan = staged.schedule_for(3, (4, 32, 32))
        assert plan is not None and plan.max_parallelism > 1

    @pytest.mark.parametrize("spp_levels", [(1,), (2, 1), (4, 2, 1)])
    def test_spp_pyramid_axis(self, forced_parallel, spp_levels):
        config = small_config(spp_levels=spp_levels)
        seq, sch, _ = build_pair(config, chips(2))
        assert_bytes_equal(seq, sch)

    @pytest.mark.parametrize("kernel", [1, 5])
    def test_first_conv_kernel_axis(self, forced_parallel, kernel):
        config = small_config(kernel=kernel)
        seq, sch, _ = build_pair(config, chips(2))
        assert_bytes_equal(seq, sch)

    def test_fc_widths_and_batchnorm(self, forced_parallel):
        config = small_config(fc_sizes=(48, 16), use_batchnorm=True)
        seq, sch, _ = build_pair(config, chips(4))
        assert_bytes_equal(seq, sch)

    def test_repeated_runs_stay_identical(self, forced_parallel):
        """Thread interleavings vary run to run; bytes must not."""
        config = small_config()
        images = chips(3)
        seq, sch, staged = build_pair(config, images)
        for _ in range(5):
            assert_bytes_equal(seq, staged(images))

    def test_int8_calibration_matches_sequential(self, forced_parallel):
        config = small_config()
        images = chips(4)
        model = SPPNetDetector(config, seed=2)
        model.eval()
        shape = (4, 32, 32)
        plain = CompiledModel(model, shape, quant="int8", schedule=False)
        staged = CompiledModel(model, shape, quant="int8", schedule=True)
        assert plain.calibrate(images) == staged.calibrate(images)
        assert_bytes_equal(plain(images), staged(images))


class TestScheduleShape:
    def test_spp_branches_form_parallel_stage(self, forced_parallel):
        config = small_config(spp_levels=(4, 2, 1))
        _, _, staged = build_pair(config, chips(2))
        plan = staged.schedule_for(2, (4, 32, 32))
        assert plan.strategy == "ios-dp-measured"
        assert plan.max_parallelism >= 3  # the three pyramid branches

    def test_profile_works_on_scheduled_program(self, forced_parallel):
        config = small_config()
        _, _, staged = build_pair(config, chips(2))
        report = staged.profile(chips(2), repeats=2, warmup=1)
        assert report["per_run_ms"] > 0
        assert report["categories"]  # thread-time attribution merged

    def test_memory_plan_has_no_stage_aliasing(self, forced_parallel):
        config = small_config(spp_levels=(4, 2, 1))
        _, _, staged = build_pair(config, chips(2))
        plan = staged.schedule_for(2, (4, 32, 32))
        mem = staged.memory_plan(2, (4, 32, 32))
        # the plan was made for the scheduled trunk's stages, and the
        # invariant (also asserted at bind time) holds over them
        assert plan.stage_groups() == [
            [list(group) for group in stage] for stage in mem.stages]
        assert any(len(stage) > 1 for stage in mem.stages)
        assert mem.check()


class TestStickyCache:
    def test_second_compile_pays_zero_solves(self, forced_parallel):
        config = small_config()
        images = chips(3)
        build_pair(config, images)
        before = sched.stats()
        assert before["solves"] >= 1
        # same structure, fresh model object: schedule comes from cache
        model = SPPNetDetector(config, seed=9)
        model.eval()
        staged = CompiledModel(model, (4, 32, 32), schedule=True)
        staged(images)
        after = sched.stats()
        assert after["solves"] == before["solves"]
        assert after["hits"] > before["hits"]

    def test_key_separates_quant_modes(self, forced_parallel):
        config = small_config()
        images = chips(2)
        build_pair(config, images, quant="float32")
        solves = sched.stats()["solves"]
        build_pair(config, images, quant="int8")
        assert sched.stats()["solves"] > solves


class TestSnapshotSeed:
    def test_round_trip(self, forced_parallel):
        config = small_config()
        build_pair(config, chips(3))
        snap = sched.snapshot()
        assert snap
        plans = {key: Schedule.from_json(text).stage_groups()
                 for key, text in snap.items()}
        sched.clear_cache()
        assert sched.seed(snap) == len(snap)
        assert sched.stats()["seeded"] == len(snap)
        for key, stage_groups in plans.items():
            assert sched.cached_schedule(key).stage_groups() == stage_groups

    def test_seed_respects_first_writer(self, forced_parallel):
        config = small_config()
        build_pair(config, chips(3))
        snap = sched.snapshot()
        resident = {key: sched.cached_schedule(key) for key in snap}
        assert sched.seed(snap) == 0  # every key already decided locally
        for key, schedule in resident.items():
            assert sched.cached_schedule(key) is schedule

    def test_corrupted_payload_raises(self, forced_parallel):
        config = small_config()
        build_pair(config, chips(3))
        key, text = next(iter(sched.snapshot().items()))
        tampered = text.replace('"batch"', '"batch_" ', 1)
        sched.clear_cache()
        with pytest.raises((ValueError, KeyError, TypeError)):
            sched.seed({key: tampered})


class TestEscapeHatches:
    def test_env_off_disables_scheduling(self, forced_parallel,
                                         monkeypatch):
        monkeypatch.setenv(sched.ENV_SCHEDULE, "off")
        assert not sched.scheduling_enabled()
        config = small_config()
        model = SPPNetDetector(config, seed=1)
        model.eval()
        staged = CompiledModel(model, (4, 32, 32), schedule=True)
        staged(chips(2))
        assert staged.schedule_for(2, (4, 32, 32)) is None
        assert sched.stats()["solves"] == 0

    def test_model_level_opt_out(self, forced_parallel):
        config = small_config()
        model = SPPNetDetector(config, seed=1)
        model.eval()
        plain = CompiledModel(model, (4, 32, 32), schedule=False)
        plain(chips(2))
        assert plain.schedule_for(2, (4, 32, 32)) is None
        assert sched.stats()["solves"] == 0

    def test_enabled_values(self, monkeypatch):
        for value in ("off", "0", "false", "no", " OFF "):
            monkeypatch.setenv(sched.ENV_SCHEDULE, value)
            assert not sched.scheduling_enabled()
        for value in ("", "on", "1"):
            monkeypatch.setenv(sched.ENV_SCHEDULE, value)
            assert sched.scheduling_enabled()

    def test_workers_env(self, monkeypatch):
        monkeypatch.setenv(sched.ENV_WORKERS, "3")
        assert sched.schedule_workers() == 3
        monkeypatch.setenv(sched.ENV_WORKERS, "0")
        with pytest.raises(ValueError):
            sched.schedule_workers()


class TestLoudFallbacks:
    """A schedule failure degrades to sequential execution — counted in
    ``stats()["fallbacks"]`` and warned with its reason, never silent."""

    def run_rigged(self, monkeypatch, target, name):
        def boom(*args, **kwargs):
            raise RuntimeError("rigged failure")

        monkeypatch.setattr(target, name, boom)
        images = chips(2)
        with pytest.warns(RuntimeWarning, match="rigged failure"):
            seq_out, sch_out, staged = build_pair(small_config(), images)
        assert sched.stats()["fallbacks"] == 1
        plan = staged.schedule_for(2, (4, 32, 32))
        assert plan is None or plan.max_parallelism == 1
        assert_bytes_equal(seq_out, sch_out)

    def test_failed_dp_solve_is_counted_and_runs_sequentially(
            self, forced_parallel, monkeypatch):
        self.run_rigged(monkeypatch, sched.DPScheduler, "solve")

    def test_failed_cost_measurement_is_counted(self, forced_parallel,
                                                monkeypatch):
        from repro.engine.compiled import _Program

        self.run_rigged(monkeypatch, _Program, "step_costs")

    def test_clean_table1_compiles_never_fall_back(self, forced_parallel,
                                                   recwarn):
        for config in TABLE1_MODELS.values():
            model = SPPNetDetector(config, seed=0).eval()
            CompiledModel(model, (4, 100, 100)).warmup([1])
        assert sched.stats()["solves"] >= 1
        assert sched.stats()["fallbacks"] == 0
        assert not [w for w in recwarn if w.category is RuntimeWarning]


class TestStepsToGraph:
    def test_program_steps_lower_to_valid_ir(self):
        config = small_config(spp_levels=(2, 1))
        model = SPPNetDetector(config, seed=0)
        model.eval()
        compiled = CompiledModel(model, (4, 32, 32), schedule=False)
        graph = sched.steps_to_graph(compiled.steps)
        names = {op.name for op in graph.compute_nodes()}
        assert names == {s.name for s in compiled.steps
                         if s.kind != "input"}
        assert graph["input"].op_type is OpType.INPUT

    def test_unknown_kind_rejected(self):
        from repro.engine.fusion import Step

        bogus = [Step("input", "input", (), (4,), {}, ("input",), 0),
                 Step("warp", "w0", ("input",), (4,), {}, ("w0",), 0)]
        with pytest.raises(ValueError, match="no IR mapping"):
            sched.steps_to_graph(bogus)

    def test_fingerprint_distinguishes_programs(self):
        a = SPPNetDetector(small_config(spp_levels=(2, 1)), seed=0)
        b = SPPNetDetector(small_config(spp_levels=(4, 2, 1)), seed=0)
        a.eval(), b.eval()
        ca = CompiledModel(a, (4, 32, 32), schedule=False)
        cb = CompiledModel(b, (4, 32, 32), schedule=False)
        key_a = sched.schedule_key(ca.steps, 1, (4, 32, 32), "float32",
                                   "float32", workers=2)
        key_b = sched.schedule_key(cb.steps, 1, (4, 32, 32), "float32",
                                   "float32", workers=2)
        assert key_a.program != key_b.program


class TestStepCosts:
    def test_costs_cover_every_compute_step(self):
        config = small_config()
        model = SPPNetDetector(config, seed=0)
        model.eval()
        compiled = CompiledModel(model, (4, 32, 32), schedule=False)
        trunk, head = compiled._programs_for(2, (4, 32, 32))
        costs = trunk.step_costs(chips(1), repeats=2)
        # the DP schedules the one-sample trunk; the head runs flat
        linear = {s.name for s in compiled.steps if s.kind == "linear"}
        assert linear and not linear & set(costs)
        assert set(costs) | set(head.views) == {
            s.name for s in compiled.steps if s.kind != "input"}
        assert all(c > 0 for c in costs.values())
