"""Stream network delineation and termination analysis.

Streams are cells whose D8 flow accumulation exceeds a support threshold.
The module also finds *premature terminations* — stream cells whose flow
path dies in an interior pit instead of reaching the grid edge — which is
precisely the "digital dam" failure mode of Figure 1(A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import FLOW_NONE, downstream_index, flow_accumulation, flow_direction

__all__ = ["StreamNetwork", "delineate_streams", "trace_flow_path"]


@dataclass(frozen=True)
class StreamNetwork:
    """Delineated stream raster plus routing context."""

    mask: np.ndarray          # bool, stream cells
    accumulation: np.ndarray  # int64 flow accumulation
    direction: np.ndarray     # int8 D8 codes
    threshold: int

    @property
    def num_cells(self) -> int:
        return int(self.mask.sum())

    def components(self) -> tuple[np.ndarray, int]:
        """8-connected stream segments (labels array, count)."""
        from scipy import ndimage  # deferred: inference never pays the import

        labels, count = ndimage.label(self.mask, structure=np.ones((3, 3)))
        return labels, count

    def terminations(self) -> list[tuple[int, int]]:
        """Stream cells that drain into an interior pit (digital dams)."""
        down = downstream_index(self.direction)
        rows, cols = self.mask.shape
        border = np.zeros_like(self.mask)
        border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
        out: list[tuple[int, int]] = []
        for r, c in zip(*np.nonzero(self.mask)):
            if self.direction[r, c] == FLOW_NONE and not border[r, c]:
                out.append((int(r), int(c)))
                continue
            target = down[r, c]
            if target < 0 and not border[r, c]:
                out.append((int(r), int(c)))
        return out


def delineate_streams(dem: np.ndarray, threshold: int = 50,
                      direction: np.ndarray | None = None) -> StreamNetwork:
    """Delineate the stream network of a (conditioned) DEM.

    Parameters
    ----------
    dem : depression-filled or raw DEM.
    threshold : minimum upstream cell count for a cell to be a stream.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if direction is None:
        direction = flow_direction(dem)
    acc = flow_accumulation(dem, direction)
    return StreamNetwork(
        mask=acc >= threshold,
        accumulation=acc,
        direction=direction,
        threshold=threshold,
    )


def trace_flow_path(direction: np.ndarray, start: tuple[int, int],
                    max_steps: int | None = None) -> list[tuple[int, int]]:
    """Follow D8 directions downstream from ``start`` until a pit or edge.

    Returns the visited cells including ``start``.  A cycle guard raises
    ``RuntimeError`` (cycles cannot occur on strictly descending DEMs but
    can on raw ties)."""
    down = downstream_index(direction)
    rows, cols = direction.shape
    limit = max_steps if max_steps is not None else rows * cols + 1
    path = [start]
    seen = {start}
    r, c = start
    for _ in range(limit):
        nxt = down[r, c]
        if nxt < 0:
            return path
        r, c = divmod(int(nxt), cols)
        if (r, c) in seen:
            raise RuntimeError(f"flow cycle detected at {(r, c)}")
        seen.add((r, c))
        path.append((r, c))
    return path
