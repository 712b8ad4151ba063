"""Deterministic fault-injection wrappers and corruption injectors."""

import numpy as np
import pytest

from repro.faults import (
    NODATA,
    DropBand,
    FailFirst,
    FatalOn,
    Flaky,
    InjectedFault,
    NaNPepper,
    NodataHoles,
    SaturateStripe,
    TruncateTile,
    corrupt_scene,
)


class TestFlaky:
    def test_same_seed_injects_same_faults(self):
        def run(seed):
            flaky = Flaky(lambda x: x, rate=0.3, seed=seed)
            outcomes = []
            for i in range(50):
                try:
                    flaky(i)
                    outcomes.append(True)
                except InjectedFault:
                    outcomes.append(False)
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_rate_zero_never_fails_rate_one_always(self):
        ok = Flaky(lambda: "ok", rate=0.0, seed=0)
        assert all(ok() == "ok" for _ in range(20))
        bad = Flaky(lambda: "ok", rate=1.0, seed=0)
        for _ in range(5):
            with pytest.raises(InjectedFault):
                bad()
        assert bad.faults == 5

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Flaky(lambda: None, rate=1.5)

    def test_custom_exception(self):
        flaky = Flaky(lambda: None, rate=1.0, exc=TimeoutError)
        with pytest.raises(TimeoutError):
            flaky()


class TestFailFirst:
    def test_fails_exactly_n_then_recovers(self):
        fn = FailFirst(lambda: 42, n=3)
        for _ in range(3):
            with pytest.raises(InjectedFault):
                fn()
        assert fn() == 42
        assert fn() == 42
        assert fn.calls == 5

    def test_zero_never_fails(self):
        fn = FailFirst(lambda: 1, n=0)
        assert fn() == 1


class TestFatalOn:
    def test_only_poisoned_inputs_fail(self):
        fn = FatalOn(lambda x: x * 2, poisoned={"3"}, key=lambda x: str(x))
        assert fn(2) == 4
        with pytest.raises(InjectedFault):
            fn(3)
        with pytest.raises(InjectedFault):
            fn(3)  # retries never help
        assert fn.faults == 2


def chip(seed=0, shape=(4, 24, 24)):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


class TestCorruptions:
    def test_calls_are_replayable(self):
        """The k-th corruption is a function of (seed, k) only — two
        instances with the same seed produce identical sequences."""
        a, b = NaNPepper(rate=0.2, seed=9), NaNPepper(rate=0.2, seed=9)
        x = chip()
        for _ in range(3):
            out_a, out_b = a(x), b(x)
            assert np.array_equal(np.isnan(out_a), np.isnan(out_b))
        assert not np.array_equal(
            np.isnan(NaNPepper(rate=0.2, seed=1)(x)), np.isnan(a(x))
        )

    def test_input_never_modified(self):
        x = chip()
        before = x.copy()
        for inj in (NaNPepper(rate=0.5), NodataHoles(), DropBand(),
                    SaturateStripe(), TruncateTile()):
            inj(x)
        assert np.array_equal(x, before)

    def test_nan_pepper_rate(self):
        out = NaNPepper(rate=0.25, seed=0)(chip())
        frac = np.isnan(out).mean()
        assert 0.15 < frac < 0.35

    def test_nodata_holes_use_sentinel(self):
        out = NodataHoles(holes=2, radius=4, seed=0)(chip())
        assert (out == NODATA).any()
        assert np.isfinite(out).all()  # nodata is a value, not NaN
        # holes punch through every band at the same location
        hole = out[0] == NODATA
        for band in out[1:]:
            assert np.array_equal(band == NODATA, hole)

    def test_drop_band_blanks_exactly_one(self):
        out = DropBand(band=1, seed=0)(chip())
        assert np.isnan(out[1]).all()
        assert np.isfinite(np.delete(out, 1, axis=0)).all()

    def test_drop_band_random_choice_is_seeded(self):
        x = chip()
        a = DropBand(seed=3)(x)
        b = DropBand(seed=3)(x)
        assert np.array_equal(np.isnan(a), np.isnan(b))

    def test_saturate_stripe_out_of_range(self):
        out = SaturateStripe(width=5, value=4.0, seed=0)(chip())
        assert (out == 4.0).any()
        assert np.isfinite(out).all()

    def test_truncate_returns_smaller_tile(self):
        out = TruncateTile(max_loss=0.25, seed=0)(chip())
        c, h, w = out.shape
        assert c == 4 and h < 24 and w < 24
        assert h >= 18 and w >= 18  # at most 25% of each axis lost

    def test_validation(self):
        with pytest.raises(ValueError):
            NaNPepper(rate=2.0)
        with pytest.raises(ValueError):
            NodataHoles(holes=0)
        with pytest.raises(ValueError):
            TruncateTile(max_loss=1.5)
        with pytest.raises(ValueError):
            NaNPepper()(np.zeros((3, 3)))  # not (C, H, W)


class TestCorruptScene:
    def test_corrupts_requested_fraction_deterministically(self):
        image = chip(seed=1, shape=(4, 96, 96))
        origins = [(r, c) for r in (0, 32, 64) for c in (0, 32, 64)]
        out1, applied1 = corrupt_scene(image, origins, 32, fraction=0.33, seed=5)
        out2, applied2 = corrupt_scene(image, origins, 32, fraction=0.33, seed=5)
        assert applied1 == applied2 and len(applied1) == 3
        assert np.array_equal(np.isnan(out1), np.isnan(out2))
        # untouched tiles are bit-identical to the original
        for i, (r, c) in enumerate(origins):
            tile = out1[:, r:r + 32, c:c + 32]
            if i not in applied1:
                assert np.array_equal(tile, image[:, r:r + 32, c:c + 32])

    def test_truncation_becomes_nodata_strip(self):
        """A shrunken tile cannot change the scene raster's shape, so the
        lost strip is represented as nodata — like a real mosaicker."""
        image = chip(seed=2, shape=(4, 64, 64))
        out, applied = corrupt_scene(
            image, [(0, 0)], 64, fraction=1.0,
            injectors=[TruncateTile(seed=0)], seed=0,
        )
        assert out.shape == image.shape
        assert applied == {0: "TruncateTile"}
        assert (out == NODATA).any()


class TestWorkerFaultPlan:
    def test_unknown_kind_rejected(self, tmp_path):
        from repro.faults import WorkerFaultPlan

        with pytest.raises(ValueError, match="unknown fault kinds"):
            WorkerFaultPlan(faults={0: "explode"},
                            fuse_dir=str(tmp_path / "fuses"))

    def test_counts_and_fired(self, tmp_path):
        from repro.faults import WorkerFaultPlan

        plan = WorkerFaultPlan(faults={0: "hang", 3: "kill", 5: "hang"},
                               fuse_dir=str(tmp_path / "fuses"))
        assert plan.counts() == {"error": 0, "hang": 2, "kill": 1, "slow": 0}
        assert plan.fired() == 0
        (tmp_path / "fuses" / "call-000003").write_text("123")
        (tmp_path / "fuses" / "call-000004").write_text("123")  # not a fault
        assert plan.fired() == 1


class FaultTargetModel:
    """Minimal picklable model for FaultyDetector delegation tests."""

    hidden = "spp"

    def __init__(self):
        self.mode = None

    def eval(self):
        self.mode = "eval"
        return self

    def train(self):
        self.mode = "train"
        return self

    def __call__(self, batch):
        return batch * 2


@pytest.fixture(scope="module")
def detector_model():
    from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
    from repro.detect import SPPNetDetector

    arch = SPPNetConfig(convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
                        spp_levels=(2, 1), fc_sizes=(16,), name="faulty")
    return SPPNetDetector(arch, seed=0).eval()


CHIPS = np.random.default_rng(0).random((2, 4, 32, 32)).astype(np.float32)


class TestFaultyDetector:
    """The fault point sits in front of the engine calls a scan makes;
    ``parent_pid=0`` simulates running inside a worker process."""

    def plan(self, tmp_path, faults, **kwargs):
        from repro.faults import WorkerFaultPlan

        return WorkerFaultPlan(faults=faults,
                               fuse_dir=str(tmp_path / "fuses"), **kwargs)

    def test_parent_process_never_faults(self, tmp_path, detector_model):
        from repro.engine import compiled_for
        from repro.faults import FaultyDetector

        plan = self.plan(tmp_path, {n: "error" for n in range(5)})
        detector = FaultyDetector(detector_model, plan)
        bare = compiled_for(detector_model).predict(CHIPS)
        for _ in range(5):                 # delegates verbatim, no fuse
            got = compiled_for(detector).predict(CHIPS)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, bare))
        assert plan.fired() == 0

    def test_error_fault_fires_exactly_once(self, tmp_path, detector_model):
        from repro.engine import compiled_for
        from repro.faults import FaultyDetector

        plan = self.plan(tmp_path, {0: "error"})
        detector = FaultyDetector(detector_model, plan, parent_pid=0)
        with pytest.raises(InjectedFault, match="ordinal 0"):
            compiled_for(detector).predict(CHIPS)
        got = compiled_for(detector).predict(CHIPS)   # ordinal 1 is clean
        bare = compiled_for(detector_model).predict(CHIPS)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, bare))
        assert plan.fired() == 1

    def test_an_error_propagates_through_the_guard(
            self, tmp_path, detector_model):
        """The guard re-raises the engine's own error unchanged and
        tallies it; the next call claims the next, clean ordinal."""
        from repro.faults import FaultyDetector
        from repro.robust import GuardedEngine

        plan = self.plan(tmp_path, {0: "error"})
        guard = GuardedEngine(FaultyDetector(detector_model, plan,
                                             parent_pid=0))
        with pytest.raises(InjectedFault, match="ordinal 0"):
            guard.predict_batch(CHIPS[:1])
        assert guard.fallback_by_reason == {"engine_error": 1}
        conf, _, answered = guard.predict_batch(CHIPS[:1])
        assert answered == "engine" and conf.shape == (1,)
        assert plan.fired() == 1

    def test_one_ordinal_per_micro_batch(self, tmp_path, detector_model):
        from repro.detect import scan_origins
        from repro.engine import compiled_for
        from repro.faults import FaultyDetector

        plan = self.plan(tmp_path, {3: "error"})
        detector = FaultyDetector(detector_model, plan, parent_pid=0)
        image = np.random.default_rng(1).random((4, 96, 96)).astype(
            np.float32)
        origins = scan_origins(96, 32, 16)         # 25 windows
        batches = compiled_for(detector).predict_windows(
            image, origins, 32, batch_size=4, span=(2, 14))
        assert [len(conf) for conf, _ in batches] == [4, 4, 4]
        # ordinals 0-2 claimed, the fault at 3 not reached
        assert len(list((tmp_path / "fuses").iterdir())) == 3
        assert plan.fired() == 0
        with pytest.raises(InjectedFault, match="ordinal 3"):
            next(iter(compiled_for(detector).predict_windows(
                image, origins, 32, batch_size=4)))

    def test_ordinals_are_claimed_once_across_instances(self, tmp_path,
                                                        detector_model):
        from repro.engine import compiled_for
        from repro.faults import FaultyDetector

        plan = self.plan(tmp_path, {0: "error"})
        first = FaultyDetector(detector_model, plan, parent_pid=0)
        second = FaultyDetector(detector_model, plan, parent_pid=0)
        with pytest.raises(InjectedFault):
            compiled_for(first).predict(CHIPS)
        # a "redispatched" second instance sees the fuse already burned
        assert compiled_for(second).predict(CHIPS)[0].shape == (2,)

    def test_slow_fault_delays_then_answers(self, tmp_path, detector_model):
        import time as _time

        from repro.engine import compiled_for
        from repro.faults import FaultyDetector

        plan = self.plan(tmp_path, {0: "slow"}, slow_s=0.05)
        detector = FaultyDetector(detector_model, plan, parent_pid=0)
        t0 = _time.monotonic()
        assert compiled_for(detector).predict(CHIPS)[0].shape == (2,)
        assert _time.monotonic() - t0 >= 0.05

    def test_pickle_roundtrip_preserves_plan(self, tmp_path):
        import pickle

        from repro.faults import FaultyDetector

        plan = self.plan(tmp_path, {2: "kill"})
        detector = FaultyDetector(FaultTargetModel(), plan)
        clone = pickle.loads(pickle.dumps(detector))
        assert clone.plan.faults == {2: "kill"}
        assert clone.parent_pid == detector.parent_pid
        assert clone(4) == 8

    def test_delegation_and_eval_train(self, tmp_path):
        from repro.faults import FaultyDetector

        detector = FaultyDetector(FaultTargetModel(),
                                  self.plan(tmp_path, {}))
        assert detector.hidden == "spp"    # attribute falls through
        assert detector.eval() is detector
        assert detector.model.mode == "eval"
        assert detector.train() is detector
        assert detector.model.mode == "train"
        with pytest.raises(AttributeError):
            detector.does_not_exist


class TestTearTrailingLine:
    def test_tears_mid_final_line(self, tmp_path):
        import json

        from repro.faults import tear_trailing_line
        from repro.durable import load_jsonl_repaired

        path = tmp_path / "log.jsonl"
        records = [{"tile": n, "conf": 0.5} for n in range(4)]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        removed = tear_trailing_line(path)
        assert removed > 0
        assert not path.read_bytes().endswith(b"\n")
        # the repair path drops exactly the torn record
        assert load_jsonl_repaired(path, error=ValueError) == records[:3]

    def test_keep_fraction_validation(self, tmp_path):
        from repro.faults import tear_trailing_line

        path = tmp_path / "log.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ValueError, match="keep_fraction"):
            tear_trailing_line(path, keep_fraction=1.0)

    def test_empty_file_is_a_noop(self, tmp_path):
        from repro.faults import tear_trailing_line

        path = tmp_path / "log.jsonl"
        path.write_text("")
        assert tear_trailing_line(path) == 0
