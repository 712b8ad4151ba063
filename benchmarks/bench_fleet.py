"""Fleet chaos gate: a faulty multi-scene sweep must finish identically.

The fleet stack (``repro.fleet``) promises that supervision makes a
multi-scene scan sweep *crash-surviving* without changing a single
output byte: hung workers are deadline-killed and their shards
redispatched, SIGKILLed workers are revived, torn journals are repaired
and resumed, and every recovery is invisible to the deterministic
merge.  This benchmark is that promise as an executable gate:

* **fault-free sweep** — :class:`~repro.fleet.ScanFleet` scans
  ``N_SCENES`` synthetic watershed scenes under supervision with a
  bare model; its per-scene journals are the reference output and its
  :class:`~repro.fleet.SupervisionReport` must be clean;
* **chaos sweep** — the same scenes through the test suite's engine
  double (``tests.faults.FaultyEngine``) whose worker script faults
  ≥30% of the expected worker engine calls (a mix of hung workers,
  SIGKILLs mid-shard, and slow calls), restarting what a killed sweep
  left: a process that submitted every scene, started one, and died,
  and that scene's journal torn mid-record
  (``tests.faults.tear_trailing_line``);
* **gate** — the chaos sweep must complete every job (no dead
  letters), quarantine nothing, leak no shared-memory segments, never
  stall a hung worker much past its shard deadline, and — the core
  assertion — replaying its journals must produce detections
  byte-identical to the fault-free sweep's, scene for scene.

Fault kinds are restricted to hang/kill/slow: in robust journaled
scans a model *exception* that no retry can change is by design a
quarantined tile (a different contract, gated by
``bench_robustness.py``), while process-level faults must cost
recoveries, not tiles.

Usage::

    python benchmarks/bench_fleet.py [--scenes N] [--out PATH]

Also collectable by pytest (``pytest benchmarks/bench_fleet.py``).
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_scene
from repro.detect.scan import scan_origins
from repro.fleet import JobQueue, ScanFleet, SupervisionPolicy
from repro.geo import WatershedConfig, build_scene
from repro.retry import RetryPolicy
from repro.scanpar import WorkerPool

from gates import bench_arg_parser, check, evaluate, finish

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.faults import WORKER_KINDS, FaultyEngine, tear_trailing_line

N_SCENES = 3
SCENE_SIZE = 200
WINDOW = 64
STRIDE = 32
BATCH_SIZE = 8
CONFIDENCE = 0.3
N_WORKERS = 2
FAULT_FRACTION = 0.30     # of expected worker engine calls
SHARD_DEADLINE_S = 2.0
OVERSHOOT_GATE_S = 1.0    # hung worker may not stall past deadline+this

ARCH = SPPNetConfig(
    convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
    spp_levels=(2, 1), fc_sizes=(32,), name="fleet-bench",
)

SCAN_KWARGS = dict(window=WINDOW, stride=STRIDE, batch_size=BATCH_SIZE,
                   confidence_threshold=CONFIDENCE)

#: a sweep process killed mid-job: it submits every scene, starts the
#: first and dies without a word, leaving that job started in the queue
KILLED_SWEEP = """
import os, sys
from bench_fleet import SCAN_KWARGS, scene_configs
from repro.fleet import ScanFleet

queue, workdir, n_scenes = sys.argv[1:]
fleet = ScanFleet(queue, None, workdir=workdir)
for job_id, config in scene_configs(int(n_scenes)).items():
    fleet.submit_scene(job_id, config, **SCAN_KWARGS)
print(fleet.queue.claim().job_id, flush=True)
os._exit(0)
"""


def scene_configs(n_scenes: int) -> dict[str, WatershedConfig]:
    return {
        f"scene-{i}": WatershedConfig(size=SCENE_SIZE, road_spacing=96,
                                      stream_threshold=600, seed=5 + i)
        for i in range(n_scenes)
    }


def build_faulty(model, n_calls: int, fuse_dir: Path) -> FaultyEngine:
    """``model`` with faults over ``FAULT_FRACTION`` of the expected
    worker calls.

    Hangs are the expensive fault (each costs a shard deadline), so the
    mix is weighted toward kills and slow calls; placement over the
    ordinal range is seeded-deterministic.
    """
    n_faults = max(3, round(FAULT_FRACTION * n_calls))
    rng = np.random.default_rng(7)
    ordinals = rng.choice(n_calls, size=n_faults, replace=False)
    kinds = (["hang"] * 2 + ["kill"] * 4
             + ["slow"] * (n_faults - 6))[:n_faults]
    return FaultyEngine(
        model,
        worker_faults={int(o): k for o, k in zip(sorted(ordinals), kinds)},
        fuse_dir=str(fuse_dir), hang_s=3600.0, slow_s=0.05,
    )


def run_sweep(model, scenes: dict, configs: dict, workdir: Path,
              pool: WorkerPool) -> dict:
    """One fleet sweep over every scene on ``pool``; returns its summary
    plus wall time and aggregated supervision counters."""
    queue = JobQueue(workdir / "queue.jsonl",
                     retry=RetryPolicy(max_attempts=3, backoff_s=0.05))
    fleet = ScanFleet(
        queue, model, workdir=workdir, n_workers=N_WORKERS, pool=pool,
        scene_provider=lambda payload: scenes[payload["scene"]["seed"]],
    )
    for job_id, config in configs.items():
        fleet.submit_scene(job_id, config, **SCAN_KWARGS)
    start = time.perf_counter()
    summary = fleet.run()
    summary["elapsed_s"] = time.perf_counter() - start
    totals = {"deadline_kills": 0, "worker_deaths": 0,
              "workers_replaced": 0, "redispatches": 0,
              "poison_shards": 0,
              "max_overshoot_s": 0.0}
    for result in summary["results"].values():
        sup = result.get("supervision")
        if not sup:
            continue
        for key in ("deadline_kills", "worker_deaths", "workers_replaced",
                    "redispatches"):
            totals[key] += sup[key]
        totals["poison_shards"] += len(sup["poison_shards"])
        totals["max_overshoot_s"] = max(totals["max_overshoot_s"],
                                        sup["max_overshoot_s"])
    summary["supervision_totals"] = totals
    return summary


def kill_a_sweep(workdir: Path, n_scenes: int) -> str:
    """Run :data:`KILLED_SWEEP` on ``workdir``'s queue in a child
    process; returns the job it started."""
    import repro

    path = [str(Path(__file__).resolve().parent),
            str(Path(repro.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    child = subprocess.run(
        [sys.executable, "-c", KILLED_SWEEP, str(workdir / "queue.jsonl"),
         str(workdir), str(n_scenes)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        check=True, capture_output=True, text=True, timeout=120,
    )
    return child.stdout.strip()


def replay_detections(model, scenes: dict, configs: dict,
                      workdir: Path) -> dict[str, list]:
    """Re-derive each scene's detections from its completed journal.

    The journals are fully resumed (the model never runs), so this is
    exactly "what did the sweep write to disk", independent of any
    in-memory result object.
    """
    out = {}
    for job_id, config in configs.items():
        scene = scenes[config.seed]
        result = scan_scene(model, scene,
                            journal=str(workdir / f"{job_id}.journal.jsonl"),
                            resume=True, **SCAN_KWARGS)
        assert result.coverage.tiles_resumed == result.coverage.tiles_total
        out[job_id] = [d.__dict__ for d in result]
    return out


def run_benchmark(n_scenes: int = N_SCENES, root: Path | None = None) -> dict:
    import tempfile

    workroot = Path(root) if root is not None \
        else Path(tempfile.mkdtemp(prefix="bench_fleet_"))
    model = SPPNetDetector(ARCH, seed=0)
    model.eval()
    configs = scene_configs(n_scenes)

    # max_attempts generously exceeds the plan's failing faults (each
    # fires once), so no shard can exhaust its budget and fall back to
    # inline parent execution — every injected fault is guaranteed to
    # cost a *worker-level* recovery, which is what this gate measures
    with WorkerPool(N_WORKERS, supervision=SupervisionPolicy(
            shard_deadline_s=SHARD_DEADLINE_S, max_attempts=8)) as pool:
        return _sweeps(model, configs, workroot, pool)


def _sweeps(model, configs: dict, workroot: Path, pool: WorkerPool) -> dict:
    """The fault-free and the chaos sweep on ``pool``, and the payload."""
    n_scenes = len(configs)
    scenes = {cfg.seed: build_scene(cfg) for cfg in configs.values()}
    tiles_per_scene = len(scan_origins(SCENE_SIZE, WINDOW, STRIDE))

    # ---- fault-free reference sweep -----------------------------------
    clean_dir = workroot / "clean"
    clean = run_sweep(model, scenes, configs, clean_dir, pool)
    clean_replays = replay_detections(model, scenes, configs, clean_dir)

    # ---- chaos sweep ---------------------------------------------------
    chaos_dir = workroot / "chaos"
    chaos_dir.mkdir(parents=True, exist_ok=True)
    # start from a killed sweep's crash pair: the queue holds every
    # scene with the first one started, and that scene's journal is torn
    # mid-record (the SIGKILL-mid-append artifact).  The sweep must
    # reclaim the job at once, repair, resume, and rescan only the torn
    # tile
    torn_job = kill_a_sweep(chaos_dir, n_scenes)
    assert torn_job == next(iter(configs))
    torn_journal = chaos_dir / f"{torn_job}.journal.jsonl"
    shutil.copyfile(clean_dir / f"{torn_job}.journal.jsonl", torn_journal)
    torn_bytes = tear_trailing_line(torn_journal)

    # expected worker engine calls: one per micro-batch scanned in a
    # worker (a robust shard runs each micro-batch as one guarded stack,
    # and shard bounds are multiples of the batch size).  The torn
    # scene's single missing tile rescans *inline* (one remaining tile
    # is below the 2-shard parallel floor), so only the untouched scenes
    # are guaranteed worker calls — faults beyond this floor might never
    # fire, and the fired() gate would flake.
    expected_calls = -(-tiles_per_scene // BATCH_SIZE) * (n_scenes - 1)
    faulty = build_faulty(model, expected_calls, workroot / "fuses")
    kinds = list(faulty.worker_faults.values())

    shm_before = set(os.listdir("/dev/shm")) \
        if os.path.isdir("/dev/shm") else set()
    chaos = run_sweep(faulty, scenes, configs, chaos_dir, pool)
    shm_after = set(os.listdir("/dev/shm")) \
        if os.path.isdir("/dev/shm") else set()
    leaked = {n for n in shm_after - shm_before if n.startswith("psm_")}
    chaos_replays = replay_detections(model, scenes, configs, chaos_dir)

    identical = {job_id: chaos_replays[job_id] == clean_replays[job_id]
                 for job_id in configs}
    quarantined = sum(r["tiles_quarantined"]
                      for r in chaos["results"].values())
    torn_result = chaos["results"][torn_job]

    return {
        "benchmark": "fleet",
        "model": ARCH.name,
        "n_scenes": n_scenes,
        "scene_size": SCENE_SIZE,
        "tiles_per_scene": tiles_per_scene,
        "n_workers": N_WORKERS,
        "shard_deadline_s": SHARD_DEADLINE_S,
        "fault_plan": {
            "fraction_requested": FAULT_FRACTION,
            "expected_calls": expected_calls,
            "n_faults": len(kinds),
            "fraction_injected": len(kinds) / expected_calls,
            "counts": {kind: kinds.count(kind) for kind in WORKER_KINDS},
            "fired": faulty.fired(),
        },
        "torn_journal": {"job": torn_job, "bytes_torn": torn_bytes,
                         "tiles_resumed": torn_result["tiles_resumed"],
                         "attempt": torn_result["attempt"]},
        "clean_sweep": {
            "elapsed_s": clean["elapsed_s"],
            "counts": clean["counts"],
            "supervision": clean["supervision_totals"],
        },
        "chaos_sweep": {
            "elapsed_s": chaos["elapsed_s"],
            "counts": chaos["counts"],
            "dead_letters": chaos["dead_letters"],
            "supervision": chaos["supervision_totals"],
            "outcomes": chaos["outcomes"],
        },
        "recovery_overhead_x": chaos["elapsed_s"] / clean["elapsed_s"],
        "identical_by_scene": identical,
        "tiles_quarantined": quarantined,
        "shm_leaked_segments": sorted(leaked),
    }


def payload_checks(payload: dict) -> list:
    """The chaos gate: completion, identity, hygiene, recovery bounds."""
    chaos = payload["chaos_sweep"]
    sup = chaos["supervision"]
    n = payload["n_scenes"]
    checks = [
        check("chaos_sweep_completed",
              chaos["counts"]["done"] == n
              and chaos["counts"]["dead"] == 0, "bool"),
        check("chaos_detections_identical",
              all(payload["identical_by_scene"].values()), "bool"),
        check("clean_sweep_needed_no_recovery",
              sum(payload["clean_sweep"]["supervision"][k] for k in
                  ("deadline_kills", "worker_deaths", "redispatches")) == 0,
              "bool"),
        check("fault_fraction_injected",
              payload["fault_plan"]["fraction_injected"], ">=",
              FAULT_FRACTION, track=False),
        check("faults_fired",
              payload["fault_plan"]["fired"], ">=",
              payload["fault_plan"]["n_faults"], track=False),
        check("tiles_quarantined", payload["tiles_quarantined"], "<=", 0),
        check("shm_leaked_segments",
              len(payload["shm_leaked_segments"]), "<=", 0),
        check("torn_journal_tiles_resumed",
              payload["torn_journal"]["tiles_resumed"], ">=", 1),
        # the recoveries the plan forces must actually have happened
        check("deadline_kills", sup["deadline_kills"], ">=", 1,
              track=False),
        check("worker_deaths", sup["worker_deaths"], ">=", 1, track=False),
        # a hung worker may never stall dispatch much past its deadline
        check("hang_overshoot_s", sup["max_overshoot_s"], "<=",
              OVERSHOOT_GATE_S, track=False),
    ]
    return checks


def test_chaos_sweep_completes_identically():
    """Acceptance: a 30%-faulty supervised sweep (hangs, SIGKILLs, slow
    workers, one torn journal) completes every scene with detections
    byte-identical to the fault-free sweep, quarantines nothing, leaks
    no shared memory, and never stalls past a shard deadline."""
    payload = run_benchmark()
    assert evaluate(payload_checks(payload)) == []


def main() -> None:
    parser = bench_arg_parser(__doc__, "BENCH_fleet.json")
    parser.add_argument("--scenes", type=int, default=N_SCENES)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="keep sweep artifacts here instead of a "
                        "temp directory")
    args = parser.parse_args()

    payload = run_benchmark(args.scenes, args.workdir)

    plan = payload["fault_plan"]
    sup = payload["chaos_sweep"]["supervision"]
    print(f"{payload['n_scenes']} scenes x {payload['tiles_per_scene']} "
          f"tiles, {payload['n_workers']} workers, "
          f"{plan['n_faults']} faults over {plan['expected_calls']} calls "
          f"({plan['fraction_injected']:.0%}): {plan['counts']}")
    print(f"clean sweep : {payload['clean_sweep']['elapsed_s']:.2f}s  "
          f"counts={payload['clean_sweep']['counts']}")
    print(f"chaos sweep : {payload['chaos_sweep']['elapsed_s']:.2f}s  "
          f"({payload['recovery_overhead_x']:.2f}x)  "
          f"counts={payload['chaos_sweep']['counts']}")
    print(f"recoveries  : kills={sup['deadline_kills']} "
          f"deaths={sup['worker_deaths']} "
          f"redispatch={sup['redispatches']} "
          f"poison={sup['poison_shards']} "
          f"overshoot={sup['max_overshoot_s']:.3f}s")
    torn = payload["torn_journal"]
    print(f"torn journal: {torn['job']} lost {torn['bytes_torn']}B, "
          f"resumed {torn['tiles_resumed']} tiles at attempt "
          f"{torn['attempt']}")
    identical = payload["identical_by_scene"]
    print(f"identity    : "
          f"{json.dumps({k: bool(v) for k, v in identical.items()})}")

    finish(payload, payload_checks(payload), args.out,
           enforce=args.gate == "on")


if __name__ == "__main__":
    main()
