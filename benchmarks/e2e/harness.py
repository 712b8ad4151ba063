"""Shared state of one benchmark run: plan, set-up, pass timing, checks,
result assembly.  The four workload modules drive the program only
through ``repro``'s public entry points and hand their numbers here.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import host, stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOADS = ("scan_seq", "scan_pool", "scan_robust", "chip_serve")

# -- the common set-up every workload shares (ISSUE 14) ----------------------
MODEL_NAME = "SPP-Net #3"       # the paper's NAS winner
WINDOW = 100
STRIDE = 50
BATCH = 20
CONF_THRESHOLD = 0.2
NMS_RADIUS = 20.0
SCENE = dict(size=600, road_spacing=96, stream_threshold=600)
#: what every ``scan_scene`` call of the benchmark passes
SCAN_KW = dict(window=WINDOW, stride=STRIDE,
               confidence_threshold=CONF_THRESHOLD, nms_radius=NMS_RADIUS,
               batch_size=BATCH, backend="engine")
IN_FLIGHT = 8                   # chip_serve closed-loop concurrency
HOT_SHARE = 0.25                # chip_serve share of repeated chips
BLOCK = 125                     # chip_serve completions that make one pass

#: A pass is sized to take about a second on the reference box: one scan
#: of the 121-tile scene (1.0 / 1.2 / 1.3 s on scan_seq / scan_pool /
#: scan_robust), one block of BLOCK completions (1.0 s).  ``--seconds`` is
#: therefore the number of timed passes: the count is fixed by the command
#: line alone, so a run does the same work on every commit.
MIN_PASSES = 10                 # never fewer timed passes than this
WARMUP_PASSES = 2               # discarded before them
TRACE_PASSES = 6                # traced passes of a --trace 1 run


@dataclass(frozen=True)
class Plan:
    """Sizes of one run; fixed by (workload, seconds, tiny) alone."""

    scene_size: int
    passes: int          # timed passes (chip_serve: blocks)
    warmup: int          # discarded passes before them
    trace_passes: int    # traced passes of a --trace 1 run
    block: int           # chip_serve completions per block
    hot: int             # chip_serve hot-set size
    sample: int          # tiles checked against the eager reference
    probe_tiles: int     # 1-tile stacks the batch-1 probe times


def make_plan(workload: str, seconds: float, tiny: bool) -> Plan:
    if tiny:
        return Plan(scene_size=300, passes=3, warmup=1, trace_passes=2,
                    block=50, hot=8, sample=5, probe_tiles=10)
    return Plan(scene_size=SCENE["size"],
                passes=max(MIN_PASSES, round(seconds)),
                warmup=WARMUP_PASSES, trace_passes=TRACE_PASSES,
                block=BLOCK, hot=64, sample=10, probe_tiles=40)


@dataclass
class Bench:
    """Everything one run accumulates."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    started: float                       # perf_counter at process start
    plan: Plan = field(init=False)
    timers: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)
    #: scoped metrics this run refuses to publish, with the reason
    withheld: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: test hook: name of one reference to perturb so its check must trip
    sabotage: str | None = None
    #: the spans of a traced run, written as a chrome trace at the end
    tracer: object | None = None
    #: made by :meth:`end_setup`; sampled between passes ever after
    probe: host.SpeedProbe | None = None

    def __post_init__(self) -> None:
        self.plan = make_plan(self.workload, self.seconds, self.tiny)
        self.steal = host.StealMeter()
        self.tmp = OUT / "tmp" / f"{self.workload}-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)

    # -- bookkeeping -----------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Accumulate wall seconds under ``name`` (set-up phases, input
        generation, verification)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] = (self.timers.get(name, 0.0)
                                 + time.perf_counter() - start)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c["ok"] for c in self.checks)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- set-up (timed into setup_s) --------------------------------------

    def build_model(self):
        from repro.arch import TABLE1_MODELS
        from repro.detect import SPPNetDetector

        with self.phase("setup.model_s"):
            return SPPNetDetector(TABLE1_MODELS[MODEL_NAME], seed=0).eval()

    def scan_batch_sizes(self) -> list[int]:
        """The micro-batch sizes a scan of this plan's scene runs: full
        batches and the ragged last one."""
        from repro.detect import scan_origins

        ragged = len(scan_origins(self.plan.scene_size, WINDOW, STRIDE)) % BATCH
        return [BATCH, ragged] if ragged else [BATCH]

    def compile_engine(self, model, batch_sizes):
        """``compiled_for`` + ``warmup`` of the batch sizes this workload
        runs: autotune probes, IOS solves, arena binding."""
        from repro.engine import compiled_for

        sizes = sorted(set(batch_sizes), reverse=True)
        with self.phase("engine.compile_s"):
            compiled = compiled_for(model)
            compiled.warmup(sizes)
        self.info["warmed_batch_sizes"] = sizes
        return compiled

    def end_setup(self, worker_pids=()) -> None:
        """Everything from process start to here was program set-up: its
        wall, and the CPU seconds this process (all threads) and the pool
        workers burned in user mode, which is what ``setup_s`` reports --
        see :meth:`record_end_to_end`.  The speed probe is made after it,
        so it costs set-up nothing."""
        cpu = os.times()
        self.timers["setup_wall_s"] = time.perf_counter() - self.started
        self.timers["setup_user_cpu_s"] = cpu.user + host.cpu_seconds(
            worker_pids, user_only=True)
        self.timers["setup_sys_cpu_s"] = (
            cpu.system + host.cpu_seconds(worker_pids)
            - host.cpu_seconds(worker_pids, user_only=True))
        self.probe = host.SpeedProbe()

    # -- inputs ------------------------------------------------------------

    def make_scene(self):
        """This seed's scene, built afresh by every run.  Generation is an
        input cost: timed as ``gen.scene_s``, never part of ``setup_s``."""
        from repro.geo import WatershedConfig, build_scene

        config = WatershedConfig(**{**SCENE, "size": self.plan.scene_size},
                                 seed=self.seed)
        with self.phase("gen.scene_s"):
            return build_scene(config)

    # -- timing ------------------------------------------------------------

    def timed_passes(self, one_pass, tiles: int, worker_pids=()) -> list:
        """The untraced measurement: ``plan.passes`` timed calls of
        ``one_pass`` over ``tiles`` tiles each.  Returns their results
        (None for a pass that raised, which counts its tiles as failed)."""
        timer = PassTimer(self.probe, list(worker_pids))
        results = [timer.run(one_pass) for _ in range(self.plan.passes)]
        self.record_end_to_end(timer, tiles)
        self.attempted = self.plan.passes * tiles
        self.failed = len(timer.errors) * tiles
        self.info["pass_errors"] = timer.errors
        return results

    def record_end_to_end(self, timer: "PassTimer", tiles: int) -> None:
        """The four end-to-end metrics (and the host probes) from the
        timed passes of ``tiles`` tiles each.

        Times are *speed-corrected*: each pass's wall and CPU are divided
        by the machine's slowdown around that pass (``host.SpeedProbe``),
        and set-up by the run's median slowdown, before any median is
        taken.  The uncorrected numbers are kept in ``info["raw"]``.

        ``setup_s`` is set-up's *user-mode CPU seconds*, not its wall.  A
        set-up is one sample per process, and on the reference box its
        wall is mostly how long the hypervisor takes to back fresh memory
        that day: the same set-up reads 6.5 to 11.2 s of wall (and 7 to 33
        s from one hour to the next) while its user CPU reads 11.1 to 11.9
        s.  Work moved into compile, autotune or warm-up burns user CPU,
        so it still shows.  The wall is ``info["raw"]["setup_wall_s"]``.
        """
        per_tile = [wall / slow / tiles * 1e3
                    for wall, slow in zip(timer.wall, timer.slow)]
        cpu_per_tile = [cpu / slow / tiles * 1e3
                        for cpu, slow in zip(timer.cpu, timer.slow)]
        run_slowdown = stats.median(self.probe.samples_ms) / self.probe.NOMINAL_MS
        self.samples["pass_ms_per_tile"] = per_tile
        self.samples["pass_slowdown"] = timer.slow
        self.samples["ref_gemm_ms"] = timer.gemm
        self.put("ms_per_tile", stats.median(per_tile))
        # per pass, then the median: one pass that a co-tenant (or BLAS
        # threads spinning against each other) inflates does not move it
        self.put("cpu_ms_per_tile", stats.median(cpu_per_tile))
        self.put("peak_rss_mb",
                 host.peak_rss_mb([os.getpid(), *timer.worker_pids]))
        self.put("setup_s", self.timers["setup_user_cpu_s"] / run_slowdown)
        lo, hi = stats.bootstrap_median_interval(per_tile, seed=self.seed)
        self.info["ms_per_tile_interval95"] = [lo, hi]
        self.info["timed_region_s"] = sum(timer.wall)
        self.info["raw"] = {
            "ms_per_tile": stats.median(
                [wall / tiles * 1e3 for wall in timer.wall]),
            "cpu_ms_per_tile": stats.median(
                [cpu / tiles * 1e3 for cpu in timer.cpu]),
            "setup_s": self.timers["setup_user_cpu_s"],
            "setup_wall_s": self.timers["setup_wall_s"],
            "setup_sys_cpu_s": self.timers["setup_sys_cpu_s"],
        }
        self.info["host.slowdown"] = run_slowdown
        self.info["host.ref_conv_ms"] = stats.median(self.probe.samples_ms)
        self.info["host.ref_gemm_ms"] = stats.median(timer.gemm)
        self.info["host.steal_frac"] = self.steal.fraction()

    # -- the result ----------------------------------------------------------

    def collect_info(self, compiled=None) -> None:
        from repro.scanpar import default_start_method

        env = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update({k: v for k, v in os.environ.items()
                    if k.startswith("REPRO_")})
        self.info.update({
            "machine": host.machine_info(),
            "env": env,
            "git_sha": host.git_sha(ROOT),
            "seed": self.seed,
            "seconds": self.seconds,
            "plan": self.plan.__dict__,
            "model": MODEL_NAME,
            # what a pool made now would use (spawn once threads exist)
            "start_method": default_start_method(),
            "timers": dict(self.timers),
        })
        if compiled is not None:
            warmed = self.info.get("warmed_batch_sizes", [])
            self.info["kernel_choices"] = {
                str(b): compiled.kernel_choices(b) for b in warmed}
            if BATCH in warmed:
                schedule = compiled.schedule_for(BATCH)
                self.info["schedule_b20"] = (
                    None if schedule is None else json.loads(schedule.to_json()))

    def result(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "tiny": self.tiny,
            "fingerprint": host.fingerprint(),
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": dict(self.metrics),
            "samples": self.samples,
            "checks": self.checks,
            "withheld": self.withheld,
            "info": self.info,
        }


class PassTimer:
    """Wall and CPU of each timed pass, and the machine's slowdown around
    it: the speed probe (and the reference GEMM) run between passes,
    outside both clocks."""

    def __init__(self, probe: host.SpeedProbe, worker_pids: list[int]) -> None:
        self.probe = probe
        self.worker_pids = worker_pids
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.slow: list[float] = []
        self.gemm: list[float] = []
        self.errors: list[str] = []
        self._before = probe.sample()

    def _cpu(self) -> float:
        return time.process_time() + host.cpu_seconds(self.worker_pids)

    def run(self, fn):
        """Time one pass.  A pass that raises is an operation that
        failed, not a crash of the benchmark: it is recorded in
        ``errors``, contributes no timing, and returns None."""
        cpu0 = self._cpu()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.errors.append(traceback.format_exc())
            self._before = self.probe.sample()
            return None
        wall = time.perf_counter() - start
        cpu = self._cpu() - cpu0
        after = self.probe.sample()
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.slow.append(self.probe.slowdown(self._before, after))
        self.gemm.append(host.ref_gemm_ms())
        self._before = after
        return out


def sample_indices(n: int, k: int, seed: int) -> list[int]:
    """``k`` distinct seeded indices below ``n`` (all of them if k >= n)."""
    if k >= n:
        return list(range(n))
    rng = np.random.default_rng(seed)
    return sorted(int(i) for i in rng.choice(n, size=k, replace=False))


def ensure_repro_importable() -> None:
    """Put ``<checkout>/src`` on sys.path and PYTHONPATH (spawned pool
    workers re-import ``repro`` from the environment)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src, *filter(None, parts)])
