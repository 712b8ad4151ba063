"""Raster/chip sanitization for degraded production imagery.

Real NAIP tiles arrive broken in a handful of recurring ways: NaN/Inf
pixels from failed radiometric processing, nodata holes where the camera
footprint ends, whole bands dropped or stuck at a constant, sensor
saturation, and truncated edge tiles.  The eager and compiled inference
paths both assume pristine float32 chips, and a single NaN window can
silently poison whole-scene scores — so every degraded chip must be
*detected* and then either *repaired*, *quarantined*, or *rejected*
before it reaches the model.

:func:`validate_chip` inspects one (C, H, W) chip and returns a
:class:`ChipReport` listing every issue found.  :func:`sanitize_chip`
applies a :class:`SanitizePolicy`: repairable damage is fixed in a copy;
damage beyond ``max_bad_fraction``, damage no cell can repair from its
own pixels, or any damage under a no-repair policy quarantines the chip
instead.

Repair is **cell-local**.  A chip is cut into cells of half its side,
rounded up, on each axis (50 px on a 100 px chip), on a grid anchored at
its origin, and every repair value is taken from one cell's pixels
alone: a hole takes the median of its cell-band's good pixels, a band
with no good pixel in the cell is imputed from the per-pixel mean of
the cell's surviving bands, and saturation is clipped per pixel.  What
a cell cannot repair quarantines the chip: a cell with no surviving band
(a *dead* cell), and a band stuck at a constant.  So a repaired pixel's
value does not depend on which chip it was cut into:
:func:`sanitize_scene` repairs a whole scene once on the grid of a
scan's window, and for every tile whose origin lies on that grid (and
whose side is even) :func:`sanitize_chip` of the tile is bitwise the
same-position crop of the repaired scene (:meth:`SceneRepair.tile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SanitizePolicy",
    "ChipIssue",
    "ChipReport",
    "SanitizeResult",
    "validate_chip",
    "sanitize_chip",
    "sanitize_scene",
    "SceneRepair",
]

# Issue kinds, in the order validate_chip reports them.
WRONG_SHAPE = "wrong_shape"
NON_FINITE = "non_finite"
NODATA_HOLE = "nodata_hole"
MISSING_BAND = "missing_band"
CONSTANT_BAND = "constant_band"
SATURATED = "saturated"

# What the repair did to a pixel: the bits of SceneRepair.done.
FILLED = 1      # a hole, given its cell-band's median
IMPUTED = 2     # a band with no good pixel in its cell, from the survivors
CLIPPED = 4     # clipped into the valid range


@dataclass(frozen=True)
class SanitizePolicy:
    """What counts as damage and what to do about it.

    nodata_value     : exact pixel value treated as a nodata hole
                       (None disables the check); -9999 is the common
                       GDAL convention
    valid_range      : inclusive (lo, hi) of physically meaningful
                       values; pixels outside are saturation (None
                       disables the check)
    expected_bands   : band count the model was trained on (None skips
                       the check); fewer bands is unrepairable, a
                       band with no good pixel in a cell is imputed
    expected_shape   : (H, W) a chip must have; a *smaller* chip
                       (truncated tile) is repaired by edge replication,
                       anything else is rejected
    repair           : attempt repairs at all; False quarantines every
                       damaged chip untouched
    max_bad_fraction : when more than this fraction of pixels is
                       damaged, repair would be invention — quarantine
    """

    nodata_value: float | None = -9999.0
    valid_range: tuple[float, float] | None = None
    expected_bands: int | None = None
    expected_shape: tuple[int, int] | None = None
    repair: bool = True
    max_bad_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.max_bad_fraction <= 1.0:
            raise ValueError("max_bad_fraction must be in (0, 1]")
        if self.valid_range is not None and self.valid_range[0] >= self.valid_range[1]:
            raise ValueError("valid_range must be (lo, hi) with lo < hi")

    @classmethod
    def quarantine_only(cls, **overrides) -> "SanitizePolicy":
        """Detect everything, repair nothing."""
        overrides.setdefault("repair", False)
        return cls(**overrides)

    @classmethod
    def for_serving(cls) -> "SanitizePolicy":
        """Cheap request-admission check: non-finite pixels only.

        The service rejects rather than repairs — a caller sending NaN
        gets a typed error back instead of a silently imputed answer.
        """
        return cls(nodata_value=None, valid_range=None, repair=False)

    @classmethod
    def for_scene(cls, bands: int = 4, **overrides) -> "SanitizePolicy":
        """Defaults matched to the synthetic orthophoto: 4 reflectance
        bands in [0, 1], GDAL-style -9999 nodata."""
        overrides.setdefault("valid_range", (0.0, 1.0))
        overrides.setdefault("expected_bands", bands)
        return cls(**overrides)


@dataclass(frozen=True)
class ChipIssue:
    """One kind of damage found in a chip.

    band is the affected band index for band-scoped issues (-1 when the
    issue spans bands); count/fraction measure affected pixels.
    """

    kind: str
    band: int = -1
    count: int = 0
    fraction: float = 0.0

    def describe(self) -> str:
        where = f" band {self.band}" if self.band >= 0 else ""
        return f"{self.kind}{where}: {self.count} px ({100 * self.fraction:.1f}%)"


@dataclass(frozen=True)
class ChipReport:
    """Everything validate_chip found, plus the repair verdict."""

    ok: bool                      # no issues at all
    repairable: bool              # all issues fixable under the policy
    issues: tuple[ChipIssue, ...] = ()
    bad_fraction: float = 0.0     # fraction of pixels needing infill

    def summary(self) -> str:
        if self.ok:
            return "clean"
        return "; ".join(issue.describe() for issue in self.issues)


@dataclass(frozen=True)
class SanitizeResult:
    """Outcome of sanitize_chip.

    status : "ok" (untouched), "repaired" (chip is a fixed copy), or
             "quarantined" (chip is None — do not run the model on it)
    """

    status: str
    chip: np.ndarray | None
    report: ChipReport
    repairs: tuple[str, ...] = field(default=())


def _bad_pixel_mask(chip: np.ndarray, policy: SanitizePolicy) -> np.ndarray:
    """Boolean (C, H, W) mask of pixels that carry no usable signal."""
    bad = ~np.isfinite(chip)
    if policy.nodata_value is not None:
        bad |= chip == policy.nodata_value
    return bad


def _is_clean(chip: np.ndarray, policy: SanitizePolicy) -> bool:
    """True only when :func:`validate_chip`'s full inspection would find
    nothing: two reductions per band instead of a float64 copy, a mask
    per issue kind and a boolean-index copy per band.  ``min``/``max``
    propagate NaN, so finite extrema mean a finite band; they are taken
    on the chip's own float data (float32 -> float64 is exact) and
    compared as arrays, the way the inspection compares the pixels, so
    every verdict is the inspection's.  False means "look closer", never
    "damaged".
    """
    c, h, w = chip.shape
    if (not chip.size or chip.dtype.kind != "f" or chip.dtype.itemsize > 8
            or (policy.expected_bands is not None
                and c != policy.expected_bands)
            or (policy.expected_shape is not None
                and (h, w) != tuple(policy.expected_shape))):
        return False
    lo, hi = chip.min(axis=(1, 2)), chip.max(axis=(1, 2))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()) \
            or (lo == hi).any():
        return False
    if policy.valid_range is not None and (
            (lo < policy.valid_range[0]) | (hi > policy.valid_range[1])).any():
        return False
    nodata = policy.nodata_value
    return (nodata is None or not ((lo <= nodata) & (hi >= nodata)).any()
            or not (chip == nodata).any())


def validate_chip(chip: np.ndarray,
                  policy: SanitizePolicy | None = None) -> ChipReport:
    """Inspect one (C, H, W) chip and report every issue found.

    Never raises on damaged *content*; a non-array or wrong-rank input
    raises ValueError because no policy can repair it.
    """
    policy = policy if policy is not None else SanitizePolicy()
    chip = np.asarray(chip)
    if chip.ndim != 3:
        raise ValueError(f"expected a (C, H, W) chip, got shape {chip.shape}")
    if _is_clean(chip, policy):
        return ChipReport(ok=True, repairable=True)
    return _inspect_chip(chip, policy)


def _inspect_chip(chip: np.ndarray, policy: SanitizePolicy) -> ChipReport:
    """The general path of :func:`validate_chip`: every issue, counted."""
    issues: list[ChipIssue] = []
    c, h, w = chip.shape
    pixels_per_band = h * w
    total = chip.size

    truncated = False
    if policy.expected_bands is not None and c != policy.expected_bands:
        issues.append(ChipIssue(MISSING_BAND, count=pixels_per_band
                                * abs(policy.expected_bands - c),
                                fraction=1.0))
    if policy.expected_shape is not None and (h, w) != tuple(policy.expected_shape):
        eh, ew = policy.expected_shape
        missing = eh * ew - h * w
        truncated = h <= eh and w <= ew
        issues.append(ChipIssue(WRONG_SHAPE, count=max(missing, 0) * c,
                                fraction=max(missing, 0) / (eh * ew)))

    nonfinite = ~np.isfinite(chip)
    nodata = np.zeros_like(nonfinite)
    if policy.nodata_value is not None:
        nodata = chip == policy.nodata_value
    bad = nonfinite | nodata

    # Band-level damage first: a band that is entirely bad (or constant)
    # is one dropped band, not H*W individual pixel holes.
    band_bad = bad.reshape(c, -1).all(axis=1)
    for b in np.flatnonzero(band_bad):
        issues.append(ChipIssue(MISSING_BAND, band=int(b),
                                count=pixels_per_band, fraction=1.0 / c))
    finite = np.where(bad, np.nan, chip.astype(np.float64, copy=False))
    for b in range(c):
        if band_bad[b]:
            continue
        vals = finite[b][~bad[b]]
        if vals.size and float(vals.min()) == float(vals.max()):
            issues.append(ChipIssue(CONSTANT_BAND, band=int(b),
                                    count=pixels_per_band, fraction=1.0 / c))

    # Pixel-level damage, excluding fully-bad bands already reported.
    pixel_bad = bad & ~band_bad[:, None, None]
    n_nonfinite = int((nonfinite & pixel_bad).sum())
    if n_nonfinite:
        issues.append(ChipIssue(NON_FINITE, count=n_nonfinite,
                                fraction=n_nonfinite / total))
    n_nodata = int((nodata & ~nonfinite & pixel_bad).sum())
    if n_nodata:
        issues.append(ChipIssue(NODATA_HOLE, count=n_nodata,
                                fraction=n_nodata / total))

    if policy.valid_range is not None:
        lo, hi = policy.valid_range
        saturated = (~bad) & ((chip < lo) | (chip > hi))
        n_sat = int(saturated.sum())
        if n_sat:
            issues.append(ChipIssue(SATURATED, count=n_sat,
                                    fraction=n_sat / total))

    bad_fraction = float(bad.mean()) if total else 1.0
    repairable = _repairable(issues, bad, band_bad, truncated, policy)
    return ChipReport(ok=not issues, repairable=repairable,
                      issues=tuple(issues), bad_fraction=bad_fraction)


def _repairable(issues: list[ChipIssue], bad: np.ndarray,
                band_bad: np.ndarray, truncated: bool,
                policy: SanitizePolicy) -> bool:
    if not issues:
        return True
    if not policy.repair:
        return False
    for issue in issues:
        if issue.kind == MISSING_BAND and issue.band < 0:
            return False  # physically absent band: nothing to impute from
        if issue.kind == WRONG_SHAPE and not truncated:
            return False  # bigger than expected: not a truncation
        if issue.kind == CONSTANT_BAND:
            return False  # a stuck band looks valid in every cell
    if band_bad.all():
        return False  # every band gone — no donor signal anywhere
    # Repair must interpolate from real signal, not invent most of a chip.
    pixel_bad = bad & ~band_bad[:, None, None]
    surviving = pixel_bad[~band_bad]
    if surviving.size and float(surviving.mean()) > policy.max_bad_fraction:
        return False
    if truncated:
        # the cells the repair sees are those of the edge-padded chip
        (eh, ew), (h, w) = policy.expected_shape, bad.shape[1:]
        bad = np.pad(bad, ((0, 0), (0, eh - h), (0, ew - w)), mode="edge")
    return not _dead_cells(bad, _cell_of(bad.shape)).any()


def repair_cell(side: int) -> int:
    """The side of the repair cell of a ``side``-px chip: half of it,
    rounded up."""
    return -(-int(side) // 2)


def _cell_of(shape: tuple[int, ...]) -> tuple[int, int]:
    """The repair cell of a (C, H, W) chip, on each axis."""
    return repair_cell(shape[1]), repair_cell(shape[2])


def _cells_any(mask: np.ndarray, cell: tuple[int, int]) -> np.ndarray:
    """Per cell of the ``cell`` grid anchored at (0, 0): does the (H, W)
    ``mask`` hold anywhere in it."""
    rows = np.logical_or.reduceat(mask, np.arange(0, mask.shape[0], cell[0]),
                                  axis=0)
    return np.logical_or.reduceat(rows, np.arange(0, mask.shape[1], cell[1]),
                                  axis=1)


def _dead_cells(bad: np.ndarray, cell: tuple[int, int]) -> np.ndarray:
    """The cells with no surviving band: no good pixel in any band."""
    return ~_cells_any(~bad.all(axis=0), cell)


def _repair_cells(raster: np.ndarray, cell: tuple[int, int],
                  policy: SanitizePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Repair the float32 (C, H, W) ``raster`` in place, each cell of the
    ``cell`` grid anchored at its origin from that cell's own pixels.

    Returns ``(done, dead)``: what was done to each pixel (the bits
    :data:`FILLED`, :data:`IMPUTED`, :data:`CLIPPED`) and the (H, W)
    pixels of the dead cells, which are left as they came.  A hole takes
    its cell-band's median over good pixels: deterministic, cheap, and
    robust to the very outliers (saturation spikes) that co-occur with
    holes, where a neighbourhood interpolation can chain-propagate
    corrupted neighbours.  A band with no good pixel in the cell takes
    the per-pixel mean of the cell's other bands once their holes are
    filled, which keeps the spatial structure the classifier keys on.
    """
    c, h, w = raster.shape
    ch, cw = cell
    bad = _bad_pixel_mask(raster, policy)
    damage = bad.any(axis=0)
    if policy.valid_range is not None:
        lo, hi = policy.valid_range
        damage |= ((raster < lo) | (raster > hi)).any(axis=0)
    done = np.zeros(raster.shape, dtype=np.uint8)
    dead = np.zeros((h, w), dtype=bool)
    if not damage.any():
        return done, dead
    for i, j in zip(*np.nonzero(_cells_any(damage, cell))):
        at = (slice(i * ch, (i + 1) * ch), slice(j * cw, (j + 1) * cw))
        px, holes, flags = (a[(slice(None),) + at] for a in (raster, bad, done))
        gone = holes.reshape(c, -1).all(axis=1)
        if gone.all():
            dead[at] = True
            continue
        for b in np.flatnonzero(holes.any(axis=(1, 2)) & ~gone):
            px[b][holes[b]] = np.median(px[b][~holes[b]])
            flags[b][holes[b]] = FILLED
        if gone.any():
            px[gone] = px[~gone].mean(axis=0)
            flags[gone] = IMPUTED
        if policy.valid_range is not None:
            flags[(px < lo) | (px > hi)] |= CLIPPED
            np.clip(px, lo, hi, out=px)
    return done, dead


def _describe(done: np.ndarray, policy: SanitizePolicy) -> list[str]:
    """The repairs list of a chip, from what was done to its pixels."""
    repairs = []
    imputed = np.count_nonzero(done & IMPUTED, axis=(1, 2))
    for b in np.flatnonzero(imputed):
        repairs.append(f"imputed {imputed[b]} px of band {b} "
                       "from the surviving bands")
    filled = np.count_nonzero(done & FILLED)
    if filled:
        repairs.append(f"infilled {filled} hole px")
    clipped = np.count_nonzero(done & CLIPPED)
    if clipped:
        lo, hi = policy.valid_range
        repairs.append(f"clipped {clipped} saturated px into [{lo}, {hi}]")
    return repairs


def sanitize_chip(chip: np.ndarray,
                  policy: SanitizePolicy | None = None) -> SanitizeResult:
    """Validate and, when the policy allows, repair one chip.

    The input array is never modified; a repaired chip is a float32
    copy, repaired cell by cell (a truncated chip is first edge-padded to
    ``policy.expected_shape``, and its cells are the padded chip's).
    Quarantined results carry ``chip=None`` so a caller cannot
    accidentally run the model on known-bad data.
    """
    policy = policy if policy is not None else SanitizePolicy()
    chip = np.asarray(chip)
    report = validate_chip(chip, policy)
    if report.ok:
        return SanitizeResult("ok", chip, report)
    if not report.repairable:
        return SanitizeResult("quarantined", None, report)

    repairs: list[str] = []
    fixed = chip.astype(np.float32, copy=True)
    if policy.expected_shape is not None \
            and fixed.shape[1:] != tuple(policy.expected_shape):
        eh, ew = policy.expected_shape
        pad_h, pad_w = eh - fixed.shape[1], ew - fixed.shape[2]
        fixed = np.pad(fixed, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
        repairs.append(f"padded truncated tile by ({pad_h}, {pad_w}) px")
    done, dead = _repair_cells(fixed, _cell_of(fixed.shape), policy)
    if dead.any():
        # only a float64 pixel past float32's range gets here
        return SanitizeResult("quarantined", None, report)
    repairs += _describe(done, policy)
    return SanitizeResult("repaired", fixed, report, tuple(repairs))


@dataclass(frozen=True)
class SceneRepair:
    """A (C, H, W) scene repaired once on a cell grid
    (:func:`sanitize_scene`).

    image  : the repaired float32 raster: every cell that has a
             surviving band repaired from its own pixels, the dead
             cells as they came
    source : the float32 scene as it came, which tiles are judged on
    cell   : (rows, cols) of one cell; the grid is anchored at (0, 0)
    done   : (C, H, W) uint8, what the repair did to each pixel
             (:data:`FILLED` | :data:`IMPUTED` | :data:`CLIPPED`)
    dead   : (H, W) bool, the pixels of cells with no surviving band
    """

    image: np.ndarray
    source: np.ndarray
    policy: SanitizePolicy
    cell: tuple[int, int]
    done: np.ndarray
    dead: np.ndarray

    def tile(self, r0: int, c0: int, size: int) -> SanitizeResult:
        """The ``size``-px tile at ``(r0, c0)``: its verdict and report
        are its own pixels' (:func:`validate_chip` on the scene as it
        came), its chip is the repaired raster's crop, and a tile that
        holds a dead cell is quarantined.  For a tile whose origin lies
        on the grid and whose side is twice the cell, this is
        :func:`sanitize_chip` of the tile, bit for bit; any other tile
        (a scene-edge origin, a stride off the grid, an odd side) still
        reads the crop, and its repairs name what was done to the
        crop's pixels."""
        at = (slice(r0, r0 + size), slice(c0, c0 + size))
        whole = (slice(None),) + at
        chip = self.image[whole]
        report = validate_chip(self.source[whole], self.policy)
        if report.ok:
            return SanitizeResult("ok", chip, report)
        if not report.repairable or self.dead[at].any():
            return SanitizeResult("quarantined", None, report)
        return SanitizeResult("repaired", chip, report,
                              tuple(_describe(self.done[whole], self.policy)))


def sanitize_scene(image: np.ndarray,
                   policy: SanitizePolicy | None = None,
                   window: int | None = None) -> SceneRepair:
    """Repair a whole (C, H, W) scene raster once, on the cell grid of
    ``window``-px chips (cells of ``ceil(window / 2)`` px anchored at the
    scene origin; ``None`` takes the scene's own sides, so the scene is
    repaired as one chip).

    This is the raster a robust :func:`~repro.detect.scan_scene` runs
    the model on: a tile's repaired pixels are a crop of it, so the scan
    shares feature maps between overlapping tiles.  Nothing is refused
    here — a dead cell stays as it came and
    :meth:`SceneRepair.tile` quarantines every tile that holds it, so
    the clean tiles of a damaged scene still scan.  A no-repair policy
    leaves the raster untouched.
    """
    policy = policy if policy is not None else SanitizePolicy.for_scene()
    source = np.asarray(image, dtype=np.float32)
    if source.ndim != 3:
        raise ValueError(f"expected a (C, H, W) scene, got shape {source.shape}")
    cell = (_cell_of(source.shape) if window is None
            else (repair_cell(window),) * 2)
    raster = source.copy()
    if policy.repair:
        done, dead = _repair_cells(raster, cell, policy)
    else:
        done = np.zeros(raster.shape, dtype=np.uint8)
        dead = np.zeros(raster.shape[1:], dtype=bool)
    return SceneRepair(raster, source, policy, cell, done, dead)
