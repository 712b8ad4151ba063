"""4-band orthophoto rendering (NAIP stand-in).

Produces a ``(4, H, W)`` float32 image in [0, 1] with bands ordered
R, G, B, NIR at 1 m resolution.  Rendering layers:

1. per-class base reflectance modulated by the vegetation vigor field
   (greener fields: lower red, higher NIR — the NDVI signal CNNs key on);
2. correlated texture noise and a broad illumination gradient;
3. the *crossing signature*: a bright concrete culvert apron where the
   road crosses the channel, with darkened pooled water immediately up-
   and downstream — the visual pattern a human digitizer looks for and
   the pattern the detector must learn.
"""

from __future__ import annotations

import numpy as np

from .crossings import Crossing
from .landcover import LandClass, LandcoverMap

__all__ = ["BANDS", "REFLECTANCE", "render_orthophoto"]

#: Band order of the rendered image.
BANDS: tuple[str, ...] = ("red", "green", "blue", "nir")

#: Base reflectance per land class: (R, G, B, NIR).
REFLECTANCE: dict[LandClass, tuple[float, float, float, float]] = {
    LandClass.CROPLAND: (0.30, 0.34, 0.22, 0.52),
    LandClass.RIPARIAN: (0.14, 0.26, 0.15, 0.46),
    LandClass.WATER: (0.08, 0.11, 0.14, 0.04),
    LandClass.WETLAND: (0.17, 0.24, 0.20, 0.30),
    LandClass.ROAD: (0.46, 0.45, 0.43, 0.24),
    LandClass.BARE: (0.41, 0.36, 0.30, 0.34),
}


def _vigor_modulation(band: int, vigor: np.ndarray) -> np.ndarray:
    """Healthy vegetation darkens red and brightens NIR."""
    centered = vigor - 0.5
    if band == 0:  # red
        return -0.12 * centered
    if band == 3:  # nir
        return 0.25 * centered
    if band == 1:  # green
        return 0.06 * centered
    return np.zeros_like(vigor)


def render_orthophoto(
    landcover: LandcoverMap,
    crossings: list[Crossing],
    seed: int = 0,
    noise_scale: float = 0.035,
) -> np.ndarray:
    """Render the scene image; deterministic in ``seed``."""
    from scipy import ndimage  # deferred: inference never pays the import

    classes = landcover.classes
    h, w = classes.shape
    rng = np.random.default_rng(seed + 32452843)
    image = np.zeros((4, h, w), dtype=np.float64)

    vegetated = np.isin(
        classes,
        (int(LandClass.CROPLAND), int(LandClass.RIPARIAN), int(LandClass.WETLAND)),
    )
    for b in range(4):
        base = np.zeros((h, w))
        for land_class, refl in REFLECTANCE.items():
            base[classes == int(land_class)] = refl[b]
        base += np.where(vegetated, _vigor_modulation(b, landcover.vigor), 0.0)
        # Correlated speckle: smoothed white noise keeps texture realistic.
        speckle = ndimage.gaussian_filter(rng.standard_normal((h, w)), sigma=1.2)
        base += noise_scale * speckle
        # Broad illumination gradient (sun angle / atmospheric falloff).
        illum = 1.0 + 0.04 * np.linspace(-1, 1, w)[None, :]
        image[b] = base * illum

    _paint_crossings(image, classes, crossings, rng)
    return np.clip(image, 0.0, 1.0).astype(np.float32)


def _paint_crossings(
    image: np.ndarray,
    classes: np.ndarray,
    crossings: list[Crossing],
    rng: np.random.Generator,
) -> None:
    """Overlay the culvert signature at each crossing (in place)."""
    _, h, w = image.shape
    for crossing in crossings:
        r, c = crossing.center
        if not (0 <= r < h and 0 <= c < w):
            continue
        # Concrete apron: a bright 3x3-ish blob on the road over the channel.
        rr0, rr1 = max(0, r - 2), min(h, r + 3)
        cc0, cc1 = max(0, c - 2), min(w, c + 3)
        apron = rng.uniform(0.55, 0.68)
        image[0, rr0:rr1, cc0:cc1] = apron
        image[1, rr0:rr1, cc0:cc1] = apron - 0.02
        image[2, rr0:rr1, cc0:cc1] = apron - 0.04
        image[3, rr0:rr1, cc0:cc1] = 0.20
        # Pooled water up/down the channel: dark NIR streaks beside the road.
        half_h = max(2, crossing.height // 2)
        half_w = max(2, crossing.width // 2)
        for dr in range(-half_h, half_h + 1):
            for dc in range(-half_w, half_w + 1):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < h and 0 <= nc < w):
                    continue
                if classes[nr, nc] == int(LandClass.WATER):
                    image[3, nr, nc] = min(image[3, nr, nc], 0.03)
                    image[2, nr, nc] = min(image[2, nr, nc] + 0.02, 1.0)
