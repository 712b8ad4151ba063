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

The verdict is cell-local too.  A report is a pooling of per-cell
damage statistics (per-band counts and good-pixel extrema, summed,
min'd and max'd), and one function turns them into a
:class:`ChipReport`: :func:`validate_chip` pools a chip's own cells,
and :func:`sanitize_scene` keeps the statistics of every cell of the
scene, so a tile of two by two whole cells is judged without reading a
pixel.  Only a tile off the grid (a scene-edge origin, a stride that is
not a multiple of the cell, an odd side) is inspected on its own
pixels, which is why a scan inspects each scene pixel once, not once
per tile that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """The general path of :func:`validate_chip`: the damage statistics of
    the chip's own repair cells, pooled into its report (:func:`_report`,
    the rules a tile of whole scene cells is judged by too)."""
    stats = _pool(_cell_stats(chip, _cell_of(chip.shape), policy))
    pad = _padding(chip.shape, policy)
    if pad is not None and chip.size:
        # the cells the repair sees are those of the edge-padded chip
        padded = np.pad(chip, ((0, 0), (0, pad[0]), (0, pad[1])), mode="edge")
        stats = stats._replace(
            dead=_pool(_cell_stats(padded, _cell_of(padded.shape), policy)).dead)
    return _report(stats, chip.shape, policy)


class _Damage(NamedTuple):
    """Damage statistics of a block of pixels: counts, and the extrema of
    its good (finite, not nodata) pixels.

    :func:`_cell_stats` holds one entry per cell of a repair grid (every
    array then ends in the grid's two axes); :func:`_pool` pools the
    cells of a chip by sums, min and max.  Counts are integers and the
    extrema are pixel values, so a pooled entry is exactly the one of
    the pooled pixels."""

    nonfinite: np.ndarray   # per band: NaN/Inf pixels
    nodata: np.ndarray      # per band: finite pixels equal to nodata_value
    lo: np.ndarray          # per band: least good pixel (+inf if none)
    hi: np.ndarray          # per band: greatest good pixel (-inf if none)
    saturated: np.ndarray   # good pixels outside valid_range, all bands
    dead: np.ndarray        # cells with no surviving band
    imputed: np.ndarray     # per band: pixels the repair imputed
    filled: np.ndarray      # pixels the repair infilled
    clipped: np.ndarray     # pixels the repair clipped


# how each statistic pools over cells, and its value over none
_POOL = _Damage(*[(np.add, 0)] * 2, (np.minimum, np.inf),
                (np.maximum, -np.inf), *[(np.add, 0)] * 5)


def _pool(stats: _Damage, block: tuple[int, int] | None = None) -> _Damage:
    """``stats`` pooled over every ``block`` (rows, cols) of cells:
    ``[..., i, j]`` of the result is the block whose first cell is
    ``(i, j)``.  ``None`` pools all the cells into one entry."""
    if block is None:
        return _Damage(*(op.reduce(s, axis=(-2, -1), initial=first)
                         for s, (op, first) in zip(stats, _POOL)))
    return _Damage(*(op.reduce(sliding_window_view(s, block, axis=(-2, -1)),
                               axis=(-2, -1))
                     for s, (op, _) in zip(stats, _POOL)))


def _cell_stats(px: np.ndarray, cell: tuple[int, int], policy: SanitizePolicy,
                done: np.ndarray | None = None) -> _Damage:
    """The damage entry of every cell of the ``cell`` grid anchored at the
    origin of the (C, H, W) ``px``.

    One pass of per-band extrema decides which cells are clean: ``min``
    and ``max`` propagate NaN, so finite extrema that are in range and
    do not bracket the nodata value mean a cell without damage, whose
    entry is zeros plus those extrema (the way :func:`_is_clean` judges
    a chip).  Only the other cells are masked and counted
    (:func:`_mend_cell`); given the ``done`` flags of ``px``, they are
    also repaired in place.
    """
    c, h, w = px.shape
    starts = [np.arange(0, n, max(k, 1)) for n, k in zip((h, w), cell)]
    grid = (c, len(starts[0]), len(starts[1]))
    if px.size:
        # along the contiguous axis first: a fifth of the other order's time
        lo, hi = (op.reduceat(op.reduceat(px, starts[1], axis=2),
                              starts[0], axis=1)
                  for op in (np.minimum, np.maximum))
    else:
        lo = hi = np.empty(grid)
    flagged = ~(np.isfinite(lo) & np.isfinite(hi)).all(axis=0)
    if policy.valid_range is not None:
        flagged |= ((lo < policy.valid_range[0])
                    | (hi > policy.valid_range[1])).any(axis=0)
    if policy.nodata_value is not None:
        flagged |= ((lo <= policy.nodata_value)
                    & (hi >= policy.nodata_value)).any(axis=0)
    bands, cells = grid, grid[1:]
    stats = _Damage(
        nonfinite=np.zeros(bands, np.int64), nodata=np.zeros(bands, np.int64),
        lo=lo.astype(np.float64), hi=hi.astype(np.float64),
        saturated=np.zeros(cells, np.int64), dead=np.zeros(cells, np.int64),
        imputed=np.zeros(bands, np.int64), filled=np.zeros(cells, np.int64),
        clipped=np.zeros(cells, np.int64))
    ch, cw = cell
    for i, j in zip(*np.nonzero(flagged)):
        at = (slice(None), slice(i * ch, (i + 1) * ch),
              slice(j * cw, (j + 1) * cw))
        entry = _mend_cell(px[at], policy, None if done is None else done[at])
        for stat, value in zip(stats, entry):
            stat[..., i, j] = value
    return stats


def _mend_cell(px: np.ndarray, policy: SanitizePolicy,
               done: np.ndarray | None = None) -> _Damage:
    """The damage entry of one cell's (C, h, w) pixels and, given their
    ``done`` flags, the cell repaired in place from its own pixels.

    A hole takes its band's median over the cell's good pixels:
    deterministic, cheap, and robust to the very outliers (saturation
    spikes) that co-occur with holes, where a neighbourhood interpolation
    can chain-propagate corrupted neighbours.  A band with no good pixel
    in the cell takes the per-pixel mean of the cell's other bands once
    their holes are filled, which keeps the spatial structure the
    classifier keys on.  Saturation is clipped per pixel.  A cell with
    no surviving band is *dead* and stays as it came.
    """
    nonfinite = ~np.isfinite(px)
    nodata = np.zeros_like(nonfinite)
    if policy.nodata_value is not None:
        nodata = (px == policy.nodata_value) & ~nonfinite
    holes = nonfinite | nodata
    n_nonfinite = np.count_nonzero(nonfinite, axis=(1, 2))
    n_nodata = np.count_nonzero(nodata, axis=(1, 2))
    n_holes = n_nonfinite + n_nodata
    saturated = 0
    if policy.valid_range is not None:
        lo, hi = policy.valid_range
        saturated = np.count_nonzero(~holes & ((px < lo) | (px > hi)))
    good_lo = np.where(holes, np.inf, px).min(axis=(1, 2))
    good_hi = np.where(holes, -np.inf, px).max(axis=(1, 2))
    gone = n_holes == px[0].size          # bands with no good pixel
    imputed, filled, clipped = np.zeros(len(px), dtype=np.int64), 0, 0
    if done is not None and not gone.all() and (n_holes.any() or saturated):
        for b in np.flatnonzero((n_holes > 0) & ~gone):
            px[b][holes[b]] = np.median(px[b][~holes[b]])
            done[b][holes[b]] = FILLED
        filled = int(n_holes[~gone].sum())
        if gone.any():
            px[gone] = px[~gone].mean(axis=0)
            done[gone] = IMPUTED
            imputed[gone] = px[0].size
        if policy.valid_range is not None:
            outside = (px < lo) | (px > hi)
            done[outside] |= CLIPPED
            clipped = np.count_nonzero(outside)
            np.clip(px, lo, hi, out=px)
    return _Damage(n_nonfinite, n_nodata, good_lo, good_hi, saturated,
                   int(gone.all()), imputed, filled, clipped)


def _padding(shape: tuple[int, ...],
             policy: SanitizePolicy) -> tuple[int, int] | None:
    """The (rows, cols) of edge padding that brings a truncated (C, H, W)
    chip to ``policy.expected_shape``; None for a chip that is not
    truncated."""
    if policy.expected_shape is None:
        return None
    (eh, ew), (h, w) = policy.expected_shape, shape[1:]
    if (h, w) == (eh, ew) or h > eh or w > ew:
        return None
    return eh - h, ew - w


def _report(stats: _Damage, shape: tuple[int, ...],
            policy: SanitizePolicy) -> ChipReport:
    """The report of a (C, H, W) chip from the damage statistics of its
    repair cells, pooled (:func:`_pool`): every issue, counted, and
    whether the policy can repair them all."""
    issues: list[ChipIssue] = []
    c, h, w = shape
    pixels_per_band = h * w
    total = c * pixels_per_band

    truncated = _padding(shape, policy) is not None
    if policy.expected_bands is not None and c != policy.expected_bands:
        issues.append(ChipIssue(MISSING_BAND, count=pixels_per_band
                                * abs(policy.expected_bands - c),
                                fraction=1.0))
    if policy.expected_shape is not None and (h, w) != tuple(policy.expected_shape):
        eh, ew = policy.expected_shape
        missing = eh * ew - h * w
        issues.append(ChipIssue(WRONG_SHAPE, count=max(missing, 0) * c,
                                fraction=max(missing, 0) / (eh * ew)))

    # Band-level damage first: a band that is entirely bad (or constant)
    # is one dropped band, not H*W individual pixel holes.
    bad = stats.nonfinite + stats.nodata
    band_bad = bad == pixels_per_band
    for b in np.flatnonzero(band_bad):
        issues.append(ChipIssue(MISSING_BAND, band=int(b),
                                count=pixels_per_band, fraction=1.0 / c))
    for b in np.flatnonzero(~band_bad & (stats.lo == stats.hi)):
        issues.append(ChipIssue(CONSTANT_BAND, band=int(b),
                                count=pixels_per_band, fraction=1.0 / c))

    # Pixel-level damage, excluding fully-bad bands already reported.
    kept = ~band_bad
    n_nonfinite = int(stats.nonfinite[kept].sum())
    if n_nonfinite:
        issues.append(ChipIssue(NON_FINITE, count=n_nonfinite,
                                fraction=n_nonfinite / total))
    n_nodata = int(stats.nodata[kept].sum())
    if n_nodata:
        issues.append(ChipIssue(NODATA_HOLE, count=n_nodata,
                                fraction=n_nodata / total))
    n_sat = int(stats.saturated)
    if n_sat:
        issues.append(ChipIssue(SATURATED, count=n_sat,
                                fraction=n_sat / total))

    bad_fraction = int(bad.sum()) / total if total else 1.0
    return ChipReport(ok=not issues, repairable=_repairable(
        issues, stats, pixels_per_band, truncated, policy),
        issues=tuple(issues), bad_fraction=bad_fraction)


def _repairable(issues: list[ChipIssue], stats: _Damage, pixels_per_band: int,
                truncated: bool, policy: SanitizePolicy) -> bool:
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
    bad = stats.nonfinite + stats.nodata
    kept = bad < pixels_per_band
    if not kept.any():
        return False  # every band gone — no donor signal anywhere
    # Repair must interpolate from real signal, not invent most of a chip.
    if int(bad[kept].sum()) / (int(kept.sum()) * pixels_per_band) \
            > policy.max_bad_fraction:
        return False
    return not stats.dead   # a cell with no surviving band


def repair_cell(side: int) -> int:
    """The side of the repair cell of a ``side``-px chip: half of it,
    rounded up."""
    return -(-int(side) // 2)


def _cell_of(shape: tuple[int, ...]) -> tuple[int, int]:
    """The repair cell of a (C, H, W) chip, on each axis."""
    return repair_cell(shape[1]), repair_cell(shape[2])


def _describe(imputed: np.ndarray, filled: int, clipped: int,
              policy: SanitizePolicy) -> list[str]:
    """The repairs list of a chip, from the pixels the repair imputed
    (per band), infilled and clipped."""
    repairs = []
    for b in np.flatnonzero(imputed):
        repairs.append(f"imputed {imputed[b]} px of band {b} "
                       "from the surviving bands")
    if filled:
        repairs.append(f"infilled {filled} hole px")
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
    pad = _padding(fixed.shape, policy)
    if pad is not None:
        fixed = np.pad(fixed, ((0, 0), (0, pad[0]), (0, pad[1])), mode="edge")
        repairs.append(f"padded truncated tile by ({pad[0]}, {pad[1]}) px")
    done = np.zeros(fixed.shape, dtype=np.uint8)
    stats = _pool(_cell_stats(fixed, _cell_of(fixed.shape), policy, done))
    if stats.dead:
        # only a float64 pixel past float32's range gets here
        return SanitizeResult("quarantined", None, report)
    repairs += _describe(stats.imputed, stats.filled, stats.clipped, policy)
    return SanitizeResult("repaired", fixed, report, tuple(repairs))


@dataclass(frozen=True)
class SceneRepair:
    """A (C, H, W) scene repaired once on a cell grid
    (:func:`sanitize_scene`), with the damage statistics of every cell.

    image  : the repaired float32 raster: every cell that has a
             surviving band repaired from its own pixels, the dead
             cells as they came
    source : the float32 scene as it came, which tiles are judged on
    cell   : (rows, cols) of one cell; the grid is anchored at (0, 0)
    done   : (C, H, W) uint8, what the repair did to each pixel
             (:data:`FILLED` | :data:`IMPUTED` | :data:`CLIPPED`)
    dead   : (H, W) bool, the pixels of cells with no surviving band
    cells  : the damage statistics of each cell of the grid, taken from
             ``source`` and the repair
    """

    image: np.ndarray
    source: np.ndarray
    policy: SanitizePolicy
    cell: tuple[int, int]
    done: np.ndarray
    dead: np.ndarray
    cells: _Damage = field(repr=False)

    @cached_property
    def _pairs(self) -> _Damage:
        """The statistics of every block of 2 x 2 cells."""
        return _pool(self.cells, (2, 2))

    def tile(self, r0: int, c0: int, size: int) -> SanitizeResult:
        """The ``size``-px tile at ``(r0, c0)``: its verdict and report
        are its own pixels' (:func:`validate_chip` on the scene as it
        came), its chip is the repaired raster's crop, and a tile that
        holds a dead cell is quarantined.

        A tile of whole cells (an origin on the grid, a side of two
        cells) reads none of its pixels: its report, dead-cell check and
        repairs pool the statistics of its four cells, by the rules
        :func:`validate_chip` applies to a chip's own cells, and the
        result is :func:`sanitize_chip` of the tile, bit for bit.  Any
        other tile (a scene-edge origin, a stride off the grid, an odd
        side) is inspected on its own pixels, still reads the crop, and
        its repairs name what was done to the crop's pixels."""
        at = (slice(r0, r0 + size), slice(c0, c0 + size))
        whole = (slice(None),) + at
        chip = self.image[whole]
        (ch, cw), (c, h, w) = self.cell, self.source.shape
        if (size == 2 * ch == 2 * cw and r0 % ch == c0 % cw == 0
                and 0 <= r0 <= h - size and 0 <= c0 <= w - size
                and (self.policy.expected_shape is None
                     or tuple(self.policy.expected_shape) == (size, size))):
            stats = _Damage(*(s[..., r0 // ch, c0 // cw] for s in self._pairs))
            report = _report(stats, (c, size, size), self.policy)
        else:
            stats = None
            report = validate_chip(self.source[whole], self.policy)
        if report.ok:
            return SanitizeResult("ok", chip, report)
        if not report.repairable or self.dead[at].any():
            return SanitizeResult("quarantined", None, report)
        if stats is None:
            done = self.done[whole]
            repairs = _describe(np.count_nonzero(done & IMPUTED, axis=(1, 2)),
                                np.count_nonzero(done & FILLED),
                                np.count_nonzero(done & CLIPPED), self.policy)
        else:
            repairs = _describe(stats.imputed, stats.filled, stats.clipped,
                                self.policy)
        return SanitizeResult("repaired", chip, report, tuple(repairs))


def sanitize_scene(image: np.ndarray,
                   policy: SanitizePolicy | None = None,
                   window: int | None = None) -> SceneRepair:
    """Repair a whole (C, H, W) scene raster once, on the cell grid of
    ``window``-px chips (cells of ``ceil(window / 2)`` px anchored at the
    scene origin; ``None`` takes the scene's own sides, so the scene is
    repaired as one chip), and keep every cell's damage statistics.

    One pass of per-band extrema finds the cells without damage; only
    the others are masked, counted and repaired, so the scene's pixels
    are inspected once, not once per tile that holds them.

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
    done = np.zeros(raster.shape, dtype=np.uint8)
    cells = _cell_stats(raster, cell, policy, done if policy.repair else None)
    dead = np.repeat(np.repeat(cells.dead > 0, cell[0], axis=0),
                     cell[1], axis=1)[:raster.shape[1], :raster.shape[2]]
    return SceneRepair(raster, source, policy, cell, done, dead, cells)
