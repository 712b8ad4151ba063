"""Engine warmup: one trunk per input shape, one head per whole block of
``HEAD_ROWS`` rows that a batch size rounds up to."""

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS
from repro.detect import SPPNetDetector
from repro.engine import compile as engine_compile, compiled_for
from repro.engine.compiled import HEAD_ROWS


@pytest.fixture(scope="module")
def compiled(small_arch):
    """A detector of its own: the tests assert on what it has bound."""
    return compiled_for(SPPNetDetector(small_arch, seed=0).eval())


def bound(compiled) -> tuple[set, set]:
    """(shapes with a trunk, (rows,) + shape keys with a head)."""
    return set(compiled._trunks), set(compiled._heads)


class TestWarmup:
    def test_builds_requested_programs(self, compiled):
        elapsed = compiled.warmup([1, 4, 8])
        assert elapsed >= 0.0
        trunks, heads = bound(compiled)
        assert trunks == {compiled.input_shape}
        # one trunk; batches 1 and 4 share the one-block head
        assert {(b,) + compiled.input_shape for b in (4, 8)} <= heads
        assert (1,) + compiled.input_shape not in heads

    def test_warm_batch_runs_without_recompiling(self, compiled):
        compiled.warmup([3])
        before = bound(compiled)
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(3,) + compiled.input_shape).astype(np.float32)
        compiled.predict(stack, batch_size=3)
        assert bound(compiled) == before

    def test_idempotent(self, compiled):
        compiled.warmup([2])
        before = bound(compiled)
        trunk = compiled._trunks[compiled.input_shape]
        compiled.warmup([2])
        assert bound(compiled) == before
        assert compiled._trunks[compiled.input_shape] is trunk

    def test_custom_sample_shape(self, compiled):
        shape = (compiled.input_shape[0], 40, 40)
        compiled.warmup([2], sample_shape=shape)
        trunks, heads = bound(compiled)
        assert shape in trunks and (HEAD_ROWS,) + shape in heads

    def test_rejects_nonpositive_batch(self, compiled):
        with pytest.raises(ValueError, match="batch"):
            compiled.warmup([0])

    def test_guarded_engine_delegates(self, small_arch):
        from repro.robust import GuardedEngine

        guarded = GuardedEngine(SPPNetDetector(small_arch, seed=0))
        assert guarded.warmup([1, 2]) >= 0.0
        trunks, heads = bound(guarded.compiled)
        shape = guarded.compiled.input_shape
        assert trunks == {shape}
        assert heads == {(HEAD_ROWS,) + shape}

    def test_one_trunk_serves_every_batch_size(self):
        """The deployment model warmed the way scans and the serving
        batcher do: one trunk, a head per 4-row block (4, 8, 20), and an
        arena that does not grow with the batch."""
        model = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0).eval()
        compiled = engine_compile(model)
        compiled.warmup(range(1, 9))
        compiled.warmup([20])
        trunks, heads = bound(compiled)
        assert len(trunks) == 1 and {key[0] for key in heads} == {4, 8, 20}
        assert compiled.planned_peak_bytes(20) < 16 * 2**20
        assert (compiled.planned_peak_bytes(20)
                - compiled.planned_peak_bytes(1)) < 2**20
