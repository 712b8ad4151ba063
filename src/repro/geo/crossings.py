"""Drainage-crossing placement: where streams pass under roads.

Ground truth for the detection task: the true hydrography (streams
delineated on the *bare-earth* DEM, before embankments break them)
intersected with the road surface.  Each connected intersection blob is
one culvert/bridge, with a bounding box covering the structure extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hydro import delineate_streams

__all__ = ["Crossing", "find_crossings"]


@dataclass(frozen=True)
class Crossing:
    """One drainage crossing (culvert or bridge)."""

    row: int
    col: int
    height: int  # bbox extent in rows (cells)
    width: int   # bbox extent in cols (cells)

    @property
    def center(self) -> tuple[int, int]:
        return (self.row, self.col)

    def bbox(self) -> tuple[int, int, int, int]:
        """(row0, col0, row1, col1), half-open, clipped by caller."""
        return (
            self.row - self.height // 2,
            self.col - self.width // 2,
            self.row + (self.height + 1) // 2,
            self.col + (self.width + 1) // 2,
        )


def find_crossings(
    bare_dem: np.ndarray,
    roads: np.ndarray,
    stream_threshold: int = 150,
    pad: int = 10,
    min_separation: int = 12,
) -> list[Crossing]:
    """Locate stream-under-road crossings on the bare-earth DEM.

    Parameters
    ----------
    bare_dem : DEM *without* embankments (true hydrography).
    roads : road surface mask.
    pad : bbox padding (cells) around the raw intersection extent, so the
        box covers the visible structure, not just the overlap pixels.
    min_separation : crossings closer than this (Chebyshev) to an already
        accepted crossing are dropped, mirroring the digitization rule of
        one structure per road/stream encounter.
    """
    from scipy import ndimage  # deferred: inference never pays the import

    from ..hydro import priority_flood_fill

    filled = priority_flood_fill(np.asarray(bare_dem, dtype=float), epsilon=1e-4)
    network = delineate_streams(filled, threshold=stream_threshold)
    overlap = network.mask & roads
    labels, count = ndimage.label(overlap, structure=np.ones((3, 3)))
    crossings: list[Crossing] = []
    if count == 0:
        return crossings
    slices = ndimage.find_objects(labels)
    centers = ndimage.center_of_mass(overlap, labels, range(1, count + 1))
    for (rs, cs), (cr, cc) in zip(slices, centers):
        height = (rs.stop - rs.start) + 2 * pad
        width = (cs.stop - cs.start) + 2 * pad
        candidate = Crossing(int(round(cr)), int(round(cc)), height, width)
        if any(
            max(abs(candidate.row - c.row), abs(candidate.col - c.col)) < min_separation
            for c in crossings
        ):
            continue
        crossings.append(candidate)
    return crossings
