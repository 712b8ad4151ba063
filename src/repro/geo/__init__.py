"""repro.geo — synthetic watershed scenes and 4-band chip datasets
(the NAIP-imagery stand-in; see DESIGN.md substitution table)."""

from .augment import (
    augment_dataset,
    flip_horizontal,
    flip_vertical,
    radiometric_jitter,
    rotate90,
)
from .chips import ChipDataset, build_dataset, extract_chip
from .crossings import Crossing, find_crossings
from .landcover import LandClass, LandcoverMap, classify_landcover
from .orthophoto import BANDS, REFLECTANCE, render_orthophoto
from .roads import imprint_embankments, road_mask
from .scene import Scene, build_scene
from .synthesis import WatershedConfig, synthesize_dem

__all__ = [
    "WatershedConfig",
    "synthesize_dem",
    "road_mask",
    "imprint_embankments",
    "Crossing",
    "find_crossings",
    "LandClass",
    "LandcoverMap",
    "classify_landcover",
    "BANDS",
    "REFLECTANCE",
    "render_orthophoto",
    "Scene",
    "build_scene",
    "ChipDataset",
    "build_dataset",
    "extract_chip",
    "flip_horizontal",
    "flip_vertical",
    "rotate90",
    "radiometric_jitter",
    "augment_dataset",
]
