"""Correctness checks shared by the scan workloads.  A check that does
not hold fails the run; it is never a metric."""

from __future__ import annotations

import numpy as np

from .harness import CONF_THRESHOLD, NMS_RADIUS, WINDOW, Bench, sample_indices

__all__ = ["same_scan", "check_decode_share", "check_against_eager"]

CONF_TOL = 1e-4      # engine (float32) vs eager confidence
CENTER_TOL_PX = 1.0  # engine vs eager box centre, in scene pixels


def same_scan(a, b) -> bool:
    """Detections and coverage equal (``==``), the byte-identity contract."""
    return list(a) == list(b) and a.coverage == b.coverage


def check_decode_share(bench: Bench, decoded: int, tiles: int) -> None:
    """20-80% of tiles must decode to a detection before NMS, or decode
    and NMS are not doing real work on this seed."""
    share = decoded / tiles
    bench.info["decode_share"] = share
    bench.check("20-80% of tiles decode to a detection",
                0.2 <= share <= 0.8, f"{decoded}/{tiles}")


def check_against_eager(bench: Bench, model, image, origins, confidences,
                        boxes, kept) -> None:
    """Engine outputs against the eager backend on a seeded tile sample.

    A full eager scan costs ten engine scans, which the run-time cap does
    not leave room for, so the reference is ``plan.sample`` tiles: their
    raw outputs must agree (confidence within 1e-4, centre within 1 px),
    and every sampled tile the eager model turns into a detection must be
    represented after NMS -- kept, or suppressed by a kept detection that
    is at least as confident and within the NMS radius.
    """
    from repro.detect import predict

    picks = sample_indices(len(origins), bench.plan.sample, bench.seed + 1)
    stack = np.stack([
        np.asarray(image[:, r:r + WINDOW, c:c + WINDOW], dtype=np.float32)
        for r, c in (origins[i] for i in picks)])
    # two tiles at a time: the eager path's buffers grow with the batch,
    # and fresh memory is what this box is slowest at
    ref_conf, ref_boxes = predict(model, stack, batch_size=2, backend="eager")
    ref_conf = np.array(ref_conf, dtype=np.float64)
    if bench.sabotage == "eager_confidence":
        ref_conf[0] += 10 * CONF_TOL
    d_conf = np.abs(ref_conf - confidences[picks]).max()
    d_center = np.abs(ref_boxes[:, :2] - boxes[picks][:, :2]).max() * WINDOW
    bench.check("engine matches eager on the tile sample",
                d_conf <= CONF_TOL and d_center <= CENTER_TOL_PX,
                f"max |dconf|={d_conf:.2e}, max centre gap={d_center:.3f}px "
                f"over {len(picks)} tiles")

    orphans = 0
    for i, conf, box in zip(picks, ref_conf, ref_boxes):
        if not conf >= CONF_THRESHOLD + CONF_TOL:
            continue
        r0, c0 = origins[i]
        row, col = r0 + box[1] * WINDOW, c0 + box[0] * WINDOW
        reach = NMS_RADIUS + CENTER_TOL_PX
        if not any((row - k.row) ** 2 + (col - k.col) ** 2 <= reach ** 2
                   and k.confidence >= conf - CONF_TOL for k in kept):
            orphans += 1
    bench.check("every eager detection of the sample survives NMS or is "
                "suppressed by a kept one", orphans == 0, f"{orphans} orphans")
