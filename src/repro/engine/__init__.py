"""Compiled inference engine: trace -> fuse -> plan -> execute.

``compile(model)`` lowers a live :class:`~repro.tensor.Module` into a
:class:`CompiledModel`: the module is traced into the :mod:`repro.graph`
IR, adjacent operators are fused (conv+bias+relu, linear+bias+relu,
pool+flatten), weights are packed into GEMM-ready layouts, and every
intermediate is assigned to a recycled arena slot by a liveness-based
memory planner.  The result runs single-image chip inference several
times faster than the eager autograd path while producing equivalent
outputs (``docs/engine.md`` walks through each stage).

``repro.serve.InferenceService`` and ``repro.detect.scan_scene`` run on
it only (behind ``repro.robust.GuardedEngine``, which checks every
answer and raises on a faulty one); eager stays the training path and
the tests' oracle (``repro.detect.predict``).

Convolutions bind one of two kernels, chosen by a pure function of the
layer's geometry (:func:`.kernels.conv_variant`): memory-tiled implicit
GEMM for shallow (gather-bound) layers, plain im2col otherwise — so
every process and pool worker binds the same kernels without
measuring or messaging anything.  The engine runs one precision,
float32, the dtype of the detector's weights (``dtype=float64`` is
the tests' reference for a float64 eager forward).

Execution is depth-first (:func:`.fusion.split_trunk_head`): the steps
before the first fully-connected layer are bound at one sample and
looped over the batch, so their working set stays cache-sized whatever
the batch; only the fully-connected head runs at the full batch.  Both
are bound at a chip shape's read extent (:func:`.fusion.read_extent`),
the top-left pixels its outputs read: 94 x 94 of a 100 px chip.

A scene scan hands the engine *windows of one raster*
(:meth:`CompiledModel.predict_windows`): the unpadded leading convs
that overlapping windows share then run once per scene row chunk and
each window runs only the rest, by a rule that is a pure function of
the scan's geometry (:mod:`.windows`; ``CompiledModel.window_plan``
explains any one decision).
"""

from .compiled import CompiledModel, compile, compiled_for
from .fusion import FusionError, Step, fuse_graph
from .kernels import CONV_VARIANTS, conv_variant
from .plan import Lifetime, MemoryPlan, plan_memory
from .trace import Traced, TraceError, register_tracer, trace
from .windows import WindowPlan

__all__ = [
    "CompiledModel",
    "compile",
    "compiled_for",
    "FusionError",
    "Step",
    "fuse_graph",
    "Lifetime",
    "MemoryPlan",
    "plan_memory",
    "WindowPlan",
    "Traced",
    "TraceError",
    "register_tracer",
    "trace",
    "CONV_VARIANTS",
    "conv_variant",
]
