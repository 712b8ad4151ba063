"""Liveness-based memory planner: slot reuse, aliasing safety, pinning."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.detect.sppnet import SPPNetDetector
from repro.engine import CompiledModel, Step, plan_memory


def step(name, inputs, elems, kind="relu", scratch=0):
    return Step(kind, name, tuple(inputs), (elems,), {}, (name,), scratch)


def chain(*elems):
    steps = [step("input", (), elems[0], kind="input")]
    prev = "input"
    for i, e in enumerate(elems[1:]):
        steps.append(step(f"t{i}", (prev,), e))
        prev = f"t{i}"
    return steps, prev


class TestChain:
    def test_slots_are_recycled(self):
        steps, out = chain(100, 100, 100, 100, 100)
        plan = plan_memory(steps, (out,), batch=1)
        assert plan.check()
        # A pure chain only ever has two tensors live (producer input,
        # consumer output), so the arena needs two slots, not five.
        assert len(plan.slot_sizes) == 2
        assert plan.peak_bytes < plan.naive_bytes
        assert plan.reuse_factor > 1.0

    def test_peak_holds_largest_simultaneous_pair(self):
        steps, out = chain(10, 1000, 10)
        plan = plan_memory(steps, (out,), batch=1, itemsize=4)
        assert plan.peak_bytes >= (1000 + 10) * 4

    def test_batch_scales_bytes(self):
        steps, out = chain(100, 100)
        p1 = plan_memory(steps, (out,), batch=1)
        p8 = plan_memory(steps, (out,), batch=8)
        assert p8.peak_bytes == 8 * p1.peak_bytes

    def test_bad_batch_rejected(self):
        steps, out = chain(10, 10)
        with pytest.raises(ValueError):
            plan_memory(steps, (out,), batch=0)


def moved(plan, name, **changes):
    """``plan`` with one lifetime edited."""
    lifetimes = dict(plan.lifetimes)
    lifetimes[name] = replace(lifetimes[name], **changes)
    return replace(plan, lifetimes=lifetimes)


class TestCheck:
    """``MemoryPlan.check`` must reject what the planner never emits."""

    def plan(self):
        steps, out = chain(100, 100, 100, 100)
        return plan_memory(steps, (out,), batch=1)

    def test_overlapping_lifetimes_in_one_slot(self):
        """A relu output in the slot of its input, which dies at that
        step: the sharing a linear's late write may make, on a step
        that writes as it reads."""
        plan = self.plan()
        assert plan.lifetimes["input"].death == plan.lifetimes["t0"].birth
        clash = moved(plan, "t0", slot=plan.lifetimes["input"].slot)
        with pytest.raises(AssertionError,
                           match=r"input \[0,1\] overlaps t0 \[1,2\]"):
            clash.check()

    def test_lifetime_larger_than_its_slot(self):
        plan = self.plan()
        with pytest.raises(AssertionError, match="holds"):
            moved(plan, "t1", nbytes=10**6).check()


class TestLateWrite:
    """A ``linear`` step reads its input into its stage before writing
    its output, so the output may take the slot of an input that dies at
    the step; nothing else may share a slot at a step boundary."""

    def plan(self, reader="relu"):
        # input -> fc1 -> fc2, and a ``reader`` of input after fc1 when
        # one is given (input then lives past fc1)
        steps = [step("input", (), 300, kind="input"),
                 step("fc1", ("input",), 200, kind="linear", scratch=200)]
        if reader:
            steps.append(step("late", ("input",), 10, kind=reader))
        steps.append(step("fc2", ("fc1",), 100, kind="linear", scratch=100))
        outputs = ("fc2", "late") if reader else ("fc2",)
        return plan_memory(steps, outputs, batch=1)

    def test_lifetimes_are_step_indices(self):
        plan = self.plan(reader=None)
        spans = {name: (lt.birth, lt.death)
                 for name, lt in plan.lifetimes.items()}
        assert spans == {"input": (0, 1), "fc1": (1, 2),
                         "fc1:scratch": (1, 1), "fc2": (2, 2),
                         "fc2:scratch": (2, 2)}

    def test_output_takes_the_slot_of_its_dying_input(self):
        plan = self.plan(reader=None)
        assert plan.check()
        lt = plan.lifetimes
        assert lt["fc1"].slot == lt["input"].slot
        assert lt["fc1:scratch"].slot not in (lt["input"].slot,
                                              lt["fc1"].slot)
        assert plan.late_writes == {"fc1": ("input",), "fc2": ("fc1",)}

    def test_stage_never_shares_with_input_or_output(self):
        plan = self.plan(reader=None)
        lt = plan.lifetimes
        for name in ("input", "fc1"):
            with pytest.raises(AssertionError, match="overlaps"):
                moved(plan, "fc1:scratch", slot=lt[name].slot).check()

    def test_input_living_past_the_step_is_not_shared(self):
        plan = self.plan()
        assert plan.check()
        lt = plan.lifetimes
        assert lt["input"].death == 2 and lt["fc1"].slot != lt["input"].slot
        clash = moved(plan, "fc1", slot=lt["input"].slot)
        with pytest.raises(AssertionError,
                           match=r"input \[0,2\] overlaps fc1 \[1,3\]"):
            clash.check()


class TestPinningAndScratch:
    def test_early_output_is_pinned_until_program_end(self):
        # input -> a -> b (output), a -> c -> d (output): b is produced
        # mid-program but must survive to the end.
        steps = [
            step("input", (), 50, kind="input"),
            step("a", ("input",), 50),
            step("b", ("a",), 50),
            step("c", ("a",), 50),
            step("d", ("c",), 50),
        ]
        plan = plan_memory(steps, ("b", "d"), batch=1)
        assert plan.check()
        last = len(steps) - 1
        assert plan.lifetimes["b"].death == last
        assert plan.lifetimes["d"].death == last
        b_slot = plan.lifetimes["b"].slot
        later = [lt for lt in plan.lifetimes.values()
                 if lt.slot == b_slot and lt.name != "b"]
        assert all(lt.death < plan.lifetimes["b"].birth for lt in later)

    def test_scratch_never_aliases_live_tensors(self):
        steps = [
            step("input", (), 64, kind="input"),
            step("conv", ("input",), 64, kind="conv", scratch=256),
            step("out", ("conv",), 16),
        ]
        plan = plan_memory(steps, ("out",), batch=1)
        assert plan.check()
        scratch = plan.lifetimes["conv:scratch"]
        assert scratch.birth == scratch.death == 1
        # Scratch is live at the same instant as the step's input and
        # output, so it must sit in its own slot.
        assert scratch.slot != plan.lifetimes["conv"].slot
        assert scratch.slot != plan.lifetimes["input"].slot
        # The eager path allocates scratch too, so it counts in naive.
        assert plan.naive_bytes == (64 + 64 + 256 + 16) * 4

    def test_unconsumed_intermediate_is_freed(self):
        steps = [
            step("input", (), 10, kind="input"),
            step("dead", ("input",), 1000),
            step("live", ("input",), 10),
        ]
        plan = plan_memory(steps, ("live",), batch=1)
        assert plan.check()
        assert plan.lifetimes["dead"].death == 1


class TestRealModelPlan:
    def config(self):
        return SPPNetConfig(
            convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
            pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
            spp_levels=(2, 1), fc_sizes=(32,), in_channels=4,
        )

    def test_compiled_plan_has_no_aliasing_and_reuses(self):
        model = SPPNetDetector(self.config(), seed=0)
        compiled = CompiledModel(model, (4, 32, 32))
        plan = compiled.memory_plan(batch=2)
        assert plan.check()
        assert plan.reuse_factor > 1.0
        # what the process holds: the one-sample trunk's arena plus the
        # arena of the head batch 2 runs in, bound at one 4-row block
        trunk, head = compiled._programs_for(2, (4, 32, 32))
        assert (trunk.plan.batch, head.plan.batch, plan.batch) == (1, 4, 4)
        assert compiled.planned_peak_bytes(batch=2) == plan.peak_bytes \
            == trunk.plan.peak_bytes + head.plan.peak_bytes
        # the boundary tensor lives in both arenas, in different slots
        handed = plan.lifetimes["spp_concat1"]
        gathered = plan.lifetimes["spp_concat1:gathered"]
        assert gathered.nbytes == 4 * handed.nbytes
        assert gathered.slot >= len(trunk.plan.slot_sizes) > handed.slot

    def test_head_linear_writes_over_the_gathered_rows(self):
        model = SPPNetDetector(self.config(), seed=0)
        compiled = CompiledModel(model, (4, 32, 32))
        _, head = compiled._programs_for(2, (4, 32, 32))
        lt = head.plan.lifetimes
        assert lt["relu3"].slot == lt["spp_concat1"].slot
        # the late write survives renaming into the process-wide plan
        plan = compiled.memory_plan(batch=2)
        assert plan.late_writes["relu3"] == ("spp_concat1:gathered",)
        assert plan.check()

    def test_arena_does_not_grow_with_the_batch(self):
        model = SPPNetDetector(TABLE1_MODELS["SPP-Net #3"], seed=0)
        compiled = CompiledModel(model, (4, 100, 100))
        assert compiled.planned_peak_bytes(20) < 16 * 2**20
        assert (compiled.planned_peak_bytes(20)
                - compiled.planned_peak_bytes(1)) < 2**20

    def test_plan_matches_execution_dtype(self):
        model = SPPNetDetector(self.config(), seed=0)
        f32 = CompiledModel(model, (4, 32, 32), dtype=np.float32)
        f64 = CompiledModel(model, (4, 32, 32), dtype=np.float64)
        assert f64.planned_peak_bytes() == 2 * f32.planned_peak_bytes()
