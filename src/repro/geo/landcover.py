"""Landcover classification of the synthetic scene.

Assigns each cell one of the classes the orthophoto renderer knows how to
color: cropland parcels (the dominant cover — "intensive agriculture"),
riparian buffers along streams, open water, wetlands in depressional
flats, and road surface.  Also produces a continuous vegetation-vigor
field that modulates the rendered NDVI.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = ["LandClass", "LandcoverMap", "classify_landcover"]


class LandClass(IntEnum):
    CROPLAND = 0
    RIPARIAN = 1
    WATER = 2
    WETLAND = 3
    ROAD = 4
    BARE = 5


@dataclass(frozen=True)
class LandcoverMap:
    """Per-cell class raster plus a continuous vigor (greenness) field."""

    classes: np.ndarray  # uint8 LandClass codes
    vigor: np.ndarray    # float in [0, 1]

    def fraction(self, land_class: LandClass) -> float:
        return float((self.classes == int(land_class)).mean())


def _parcels(size: int, rng: np.random.Generator, parcel: int = 32) -> np.ndarray:
    """Quarter-section field parcels with per-parcel vigor."""
    rows = int(np.ceil(size / parcel))
    values = rng.uniform(0.35, 0.95, size=(rows, rows))
    return np.kron(values, np.ones((parcel, parcel)))[:size, :size]


def classify_landcover(
    dem: np.ndarray,
    streams: np.ndarray,
    roads: np.ndarray,
    seed: int = 0,
    riparian_radius: int = 3,
) -> LandcoverMap:
    """Build the :class:`LandcoverMap` for a scene.

    Parameters
    ----------
    dem : conditioned DEM (used to find depressional wetlands).
    streams : boolean stream raster (true hydrography).
    roads : boolean road-surface raster.
    """
    from scipy import ndimage  # deferred: inference never pays the import

    if not (dem.shape == streams.shape == roads.shape):
        raise ValueError("dem/streams/roads shapes must match")
    size = dem.shape[0]
    rng = np.random.default_rng(seed + 15485863)

    classes = np.full(dem.shape, int(LandClass.CROPLAND), dtype=np.uint8)

    # Depressional wetlands: local flats well below their neighborhood mean.
    smooth = ndimage.uniform_filter(dem, size=15)
    wet = (dem - smooth) < -0.35
    classes[wet] = int(LandClass.WETLAND)

    # Riparian buffer, then water on the stream cells themselves.
    buffer = ndimage.binary_dilation(streams, iterations=riparian_radius)
    classes[buffer] = int(LandClass.RIPARIAN)
    classes[streams] = int(LandClass.WATER)

    # Sparse bare patches (farmyards) away from streams.
    bare_seeds = rng.random(dem.shape) > 0.9995
    bare = ndimage.binary_dilation(bare_seeds, iterations=4) & ~buffer & ~wet
    classes[bare] = int(LandClass.BARE)

    # Roads paved last: embankments override everything they cross.
    classes[roads] = int(LandClass.ROAD)

    vigor = _parcels(size, rng)
    vigor = np.clip(vigor + 0.08 * rng.standard_normal(dem.shape), 0.0, 1.0)
    return LandcoverMap(classes=classes, vigor=vigor)
