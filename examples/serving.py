"""Serving: run crossing detection behind the dynamic-batching service.

Stands up an :class:`repro.serve.InferenceService` over a compact
detector and demonstrates the serving features end to end:

1. tune the batcher from the Figure 6 batch-efficiency artifact
   (``results/fig6.json``) when available;
2. scan a synthetic watershed scene with the service's model — a
   plain ``scan_scene``, on the compiled program the service runs,
   sharing feature maps between overlapping windows;
3. send chips of that scene as requests, twice, to show open
   micro-batches and repeat chips answered by the content-hash LRU
   cache;
4. print the metrics report (queue depth, batch-size histogram,
   latency quantiles, cache hit rate) in the profiling-report style.

Usage::

    python examples/serving.py [--scene-size N] [--window N] [--stride N]
"""

import argparse

from repro.arch import ConvSpec, PoolSpec, SPPNetConfig
from repro.detect import SPPNetDetector, scan_origins, scan_scene
from repro.geo import WatershedConfig, build_scene
from repro.serve import (
    BatchPolicy,
    InferenceService,
    format_service_report,
    policy_from_fig6,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scene-size", type=int, default=192)
    parser.add_argument("--window", type=int, default=64)
    parser.add_argument("--stride", type=int, default=48)
    args = parser.parse_args()

    print("== 1. Batching policy from the Figure 6 efficiency curve ==")
    try:
        policy = policy_from_fig6()
        print(f"   knee of fig6.json -> max_batch={policy.max_batch}")
    except (OSError, ValueError):
        policy = BatchPolicy()
        print(f"   fig6.json unavailable, default max_batch="
              f"{policy.max_batch}")

    arch = SPPNetConfig(
        convs=(ConvSpec(8, 3, 1), ConvSpec(16, 3, 1)),
        pools=(PoolSpec(2, 2), PoolSpec(2, 2)),
        spp_levels=(2, 1), fc_sizes=(32,), name="serving-demo",
    )
    model = SPPNetDetector(arch, seed=0)
    scene = build_scene(WatershedConfig(size=args.scene_size, seed=5))

    with InferenceService(model, policy) as service:
        print("\n== 2. Scene scan with the service's model ==")
        result = scan_scene(service.model, scene, window=args.window,
                            stride=args.stride, confidence_threshold=0.5)
        print(f"   {result.coverage.tiles_total} windows scanned, "
              f"{len(result)} detections after NMS")

        print("\n== 3. Chip requests, then the same chips again ==")
        chips = [scene.image[:, r:r + args.window, c:c + args.window]
                 for r, c in scan_origins(scene.size, args.window,
                                          args.stride)]
        for future in service.submit_many(chips):
            future.result()
        repeats = [future.result() for future in service.submit_many(chips)]
        print(f"   {sum(r.cached for r in repeats)} of {len(chips)} repeat "
              f"chips answered from the LRU cache; hit rate now "
              f"{100 * service.metrics.cache_hit_rate():.1f}%")

        print("\n== 4. Service metrics ==")
        print(format_service_report(service.metrics, label="serving-demo"))


if __name__ == "__main__":
    main()
