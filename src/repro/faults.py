"""Deterministic, replayable corruption of (C, H, W) imagery.

The injectors degrade a tile the way production NAIP tiles actually
degrade — NaN pepper, nodata holes, dropped bands, saturation stripes,
truncated edge tiles — and :func:`corrupt_scene` damages a seeded
fraction of a scene's tiles.  Each is seeded and never wall-clock
dependent, so a run that corrupts 10% of a scene corrupts *the same*
tiles the same way every time.

Used by the ``repro.robust`` sanitizer tests, the severity sweep,
``benchmarks/bench_robustness.py`` and the ``scan_robust`` end-to-end
workload.  The engine and call-level fault doubles the tests use live
in the test suite (``tests/faults.py``), not here.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

__all__ = [
    "Corruption",
    "NaNPepper",
    "NodataHoles",
    "DropBand",
    "SaturateStripe",
    "TruncateTile",
    "default_injectors",
    "corrupt_scene",
]

NODATA = -9999.0  # GDAL-convention sentinel, matches SanitizePolicy's default


class Corruption:
    """Base class: deterministic, replayable image corruption.

    Each call draws from a fresh generator keyed by ``(seed, call
    index)``, so the k-th corruption an instance produces is identical on
    every run regardless of what happened between calls — the property
    the resumable-scan and severity-sweep tests depend on.  The input is
    never modified; every call returns a new float32 array.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, image: np.ndarray) -> np.ndarray:
        image = np.asarray(image)
        if image.ndim != 3:
            raise ValueError(f"expected a (C, H, W) image, got shape {image.shape}")
        with self._lock:
            index = self.calls
            self.calls += 1
        rng = np.random.default_rng((self.seed, index))
        return self._apply(image.astype(np.float32, copy=True), rng)

    def _apply(self, image: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class NaNPepper(Corruption):
    """Scatter NaN over a ``rate`` fraction of pixels (all bands drawn
    independently) — failed radiometric processing."""

    def __init__(self, rate: float = 0.05, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        super().__init__(seed)
        self.rate = rate

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        image[rng.random(image.shape) < self.rate] = np.nan
        return image


class NodataHoles(Corruption):
    """Punch ``holes`` circular nodata holes through every band — the
    camera-footprint voids real mosaics carry, filled with the -9999
    sentinel rather than NaN so the two damage kinds stay distinguishable."""

    def __init__(self, holes: int = 3, radius: int = 6,
                 fill: float = NODATA, seed: int = 0) -> None:
        if holes < 1:
            raise ValueError("holes must be >= 1")
        if radius < 1:
            raise ValueError("radius must be >= 1")
        super().__init__(seed)
        self.holes = holes
        self.radius = radius
        self.fill = fill

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _, h, w = image.shape
        rows = np.arange(h)[:, None]
        cols = np.arange(w)[None, :]
        for _ in range(self.holes):
            cr = rng.integers(0, h)
            cc = rng.integers(0, w)
            mask = (rows - cr) ** 2 + (cols - cc) ** 2 <= self.radius**2
            image[:, mask] = self.fill
        return image


class DropBand(Corruption):
    """Blank one whole band (``band=None`` picks one per call) — a
    dropped spectral band arriving as all-NaN."""

    def __init__(self, band: int | None = None, fill: float = np.nan,
                 seed: int = 0) -> None:
        super().__init__(seed)
        self.band = band
        self.fill = fill

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        band = self.band if self.band is not None \
            else int(rng.integers(0, len(image)))
        image[band] = self.fill
        return image


class SaturateStripe(Corruption):
    """Drive a ``width``-pixel stripe (random orientation and offset) to
    an out-of-range value across all bands — sensor saturation / glint."""

    def __init__(self, width: int = 8, value: float = 4.0,
                 seed: int = 0) -> None:
        if width < 1:
            raise ValueError("width must be >= 1")
        super().__init__(seed)
        self.width = width
        self.value = value

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _, h, w = image.shape
        horizontal = bool(rng.integers(0, 2))
        extent = h if horizontal else w
        start = int(rng.integers(0, max(extent - self.width, 0) + 1))
        if horizontal:
            image[:, start:start + self.width, :] = self.value
        else:
            image[:, :, start:start + self.width] = self.value
        return image


class TruncateTile(Corruption):
    """Cut trailing rows and columns (up to a ``max_loss`` fraction of
    each axis) — the short tile a truncated transfer leaves at a scene
    edge.  The returned array is genuinely smaller; use
    ``SanitizePolicy.expected_shape`` to repair by edge padding."""

    def __init__(self, max_loss: float = 0.25, seed: int = 0) -> None:
        if not 0.0 < max_loss < 1.0:
            raise ValueError("max_loss must be in (0, 1)")
        super().__init__(seed)
        self.max_loss = max_loss

    def _apply(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        _, h, w = image.shape
        cut_h = int(rng.integers(1, max(int(h * self.max_loss), 1) + 1))
        cut_w = int(rng.integers(1, max(int(w * self.max_loss), 1) + 1))
        return image[:, : h - cut_h, : w - cut_w].copy()


def default_injectors(seed: int = 0) -> list[Corruption]:
    """One of each injector at default severity, independently seeded."""
    return [
        NaNPepper(seed=seed),
        NodataHoles(seed=seed + 1),
        DropBand(seed=seed + 2),
        SaturateStripe(seed=seed + 3),
        TruncateTile(seed=seed + 4),
    ]


def corrupt_scene(
    image: np.ndarray,
    origins: Sequence[tuple[int, int]],
    window: int,
    fraction: float = 0.2,
    injectors: Sequence[Corruption] | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, dict[int, str]]:
    """Corrupt a seeded ``fraction`` of a scene's tiles in place-of-copy.

    Picks ``round(fraction * len(origins))`` tile indices with a seeded
    generator and applies one (round-robin) injector to each tile's
    region of a copied scene image.  An injector that shrinks its tile
    (:class:`TruncateTile`) has the lost strip filled with the nodata
    sentinel, which is how a mosaicker represents a short tile inside a
    fixed-size raster.

    Returns ``(corrupted image copy, {tile index: injector name})``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    image = np.asarray(image).astype(np.float32, copy=True)
    if injectors is None:
        injectors = default_injectors(seed)
    rng = np.random.default_rng(seed)
    count = int(round(fraction * len(origins)))
    chosen = sorted(rng.choice(len(origins), size=count, replace=False))
    applied: dict[int, str] = {}
    for slot, index in enumerate(chosen):
        injector = injectors[slot % len(injectors)]
        r, c = origins[index]
        tile = image[:, r:r + window, c:c + window]
        out = injector(tile)
        if out.shape != tile.shape:
            padded = np.full_like(tile, NODATA)
            padded[:, : out.shape[1], : out.shape[2]] = out
            out = padded
        image[:, r:r + window, c:c + window] = out
        applied[int(index)] = type(injector).__name__
    return image, applied
