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
applies a :class:`SanitizePolicy`: repairable damage (band imputation
from the surviving bands, hole infill, saturation clipping, edge
padding) is fixed in a copy; damage beyond ``max_bad_fraction`` — or any
damage under a no-repair policy — quarantines the chip instead.
:func:`sanitize_scene` runs the same machinery over a whole (C, H, W)
scene raster in one pass.
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
]

# Issue kinds, in the order validate_chip reports them.
WRONG_SHAPE = "wrong_shape"
NON_FINITE = "non_finite"
NODATA_HOLE = "nodata_hole"
MISSING_BAND = "missing_band"
CONSTANT_BAND = "constant_band"
SATURATED = "saturated"


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
                       the check); fewer bands is unrepairable, an
                       all-bad band is imputed
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
    if band_bad.all():
        return False  # every band gone — no donor signal anywhere
    # Repair must interpolate from real signal, not invent most of a chip.
    pixel_bad = bad & ~band_bad[:, None, None]
    surviving = pixel_bad[~band_bad]
    if surviving.size and float(surviving.mean()) > policy.max_bad_fraction:
        return False
    return True


def _infill_band(band: np.ndarray, bad: np.ndarray) -> None:
    """Replace bad pixels with the band's finite median (in place).

    Median over surviving pixels is deterministic, cheap, and robust to
    the very outliers (saturation spikes) that co-occur with holes; a
    neighborhood interpolation would read nicer but can chain-propagate
    corrupted neighbors.
    """
    good = band[~bad]
    fill = float(np.median(good)) if good.size else 0.0
    band[bad] = fill


def sanitize_chip(chip: np.ndarray,
                  policy: SanitizePolicy | None = None) -> SanitizeResult:
    """Validate and, when the policy allows, repair one chip.

    The input array is never modified; a repaired chip is a float32
    copy.  Quarantined results carry ``chip=None`` so a caller cannot
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

    bad = _bad_pixel_mask(fixed, policy)
    band_bad = bad.reshape(len(fixed), -1).all(axis=1)
    constant = [i.band for i in report.issues if i.kind == CONSTANT_BAND]
    for b in constant:
        band_bad[b] = True
        bad[b] = True

    # Dropped/constant bands: impute each from the per-pixel mean of the
    # surviving bands (after their own holes are filled), preserving
    # spatial structure the classifier keys on — a flat fill would not.
    if band_bad.any():
        donors = [b for b in range(len(fixed)) if not band_bad[b]]
        for b in donors:
            if bad[b].any():
                _infill_band(fixed[b], bad[b])
        donor_mean = fixed[donors].mean(axis=0)
        for b in np.flatnonzero(band_bad):
            fixed[b] = donor_mean
            repairs.append(f"imputed band {b} from {len(donors)} surviving bands")
        bad[:] = False
    elif bad.any():
        for b in range(len(fixed)):
            if bad[b].any():
                _infill_band(fixed[b], bad[b])
        repairs.append(f"infilled {int(bad.sum())} hole px")

    if policy.valid_range is not None:
        lo, hi = policy.valid_range
        n_sat = int(((fixed < lo) | (fixed > hi)).sum())
        if n_sat:
            np.clip(fixed, lo, hi, out=fixed)
            repairs.append(f"clipped {n_sat} saturated px into [{lo}, {hi}]")

    return SanitizeResult("repaired", fixed, report, tuple(repairs))


def sanitize_scene(image: np.ndarray,
                   policy: SanitizePolicy | None = None
                   ) -> tuple[np.ndarray, SanitizeResult]:
    """Sanitize a whole (C, H, W) scene raster in one pass.

    Returns the (possibly repaired) image and the full
    :class:`SanitizeResult`.  A quarantined scene comes back *unrepaired*
    but is still returned (callers scan scenes tile by tile and apply the
    per-tile quarantine there; refusing the whole scene would throw away
    its clean tiles).
    """
    policy = policy if policy is not None else SanitizePolicy.for_scene()
    result = sanitize_chip(image, policy)
    if result.chip is None:
        return np.asarray(image), result
    return result.chip, result
