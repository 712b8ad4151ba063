"""Chip/raster sanitization: detection, repair, quarantine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import scan_origins
from repro.faults import (
    NODATA,
    Corruption,
    DropBand,
    NaNPepper,
    NodataHoles,
    SaturateStripe,
    TruncateTile,
    corrupt_scene,
    default_injectors,
)
from repro.robust import (
    ChipReport,
    SanitizePolicy,
    sanitize_chip,
    sanitize_scene,
    validate_chip,
)


def chip(seed=0, shape=(4, 24, 24)):
    return np.random.default_rng(seed).random(shape).astype(np.float32)


def kinds(report):
    return {issue.kind for issue in report.issues}


class TestValidate:
    def test_clean_chip_is_ok(self):
        report = validate_chip(chip(), SanitizePolicy.for_scene())
        assert report.ok and report.repairable and report.issues == ()

    def test_detects_non_finite(self):
        bad = chip()
        bad[0, 3, 3] = np.nan
        bad[2, 5, 5] = np.inf
        report = validate_chip(bad)
        assert kinds(report) == {"non_finite"}
        assert report.issues[0].count == 2

    def test_detects_nodata_holes(self):
        report = validate_chip(NodataHoles(seed=0)(chip()))
        assert kinds(report) == {"nodata_hole"}

    def test_nodata_check_can_be_disabled(self):
        bad = NodataHoles(seed=0)(chip())
        assert validate_chip(bad, SanitizePolicy(nodata_value=None)).ok

    def test_detects_dropped_band_as_band_issue(self):
        """An all-NaN band is one missing band, not H*W pixel issues."""
        report = validate_chip(DropBand(band=2, seed=0)(chip()))
        assert kinds(report) == {"missing_band"}
        assert report.issues[0].band == 2

    def test_detects_constant_band(self):
        bad = chip()
        bad[1] = 0.5
        report = validate_chip(bad)
        assert kinds(report) == {"constant_band"}

    def test_detects_saturation_only_with_range(self):
        bad = SaturateStripe(value=4.0, seed=0)(chip())
        assert validate_chip(bad).ok  # no range configured
        report = validate_chip(bad, SanitizePolicy(valid_range=(0.0, 1.0)))
        assert kinds(report) == {"saturated"}

    def test_detects_truncation_via_expected_shape(self):
        small = TruncateTile(seed=0)(chip())
        policy = SanitizePolicy(expected_shape=(24, 24))
        report = validate_chip(small, policy)
        assert kinds(report) == {"wrong_shape"} and report.repairable

    def test_detects_missing_band_count(self):
        policy = SanitizePolicy(expected_bands=4)
        report = validate_chip(chip(shape=(3, 24, 24)), policy)
        assert kinds(report) == {"missing_band"}
        assert not report.repairable  # physically absent: nothing to impute

    def test_wrong_rank_raises(self):
        with pytest.raises(ValueError):
            validate_chip(np.zeros((24, 24)))


class TestRepair:
    def test_ok_chip_returned_unchanged(self):
        x = chip()
        result = sanitize_chip(x, SanitizePolicy.for_scene())
        assert result.status == "ok" and result.chip is x

    def test_never_mutates_input(self):
        bad = NaNPepper(rate=0.1, seed=0)(chip())
        before = bad.copy()
        sanitize_chip(bad)
        assert np.array_equal(np.isnan(bad), np.isnan(before))

    def test_nan_pepper_infilled(self):
        bad = NaNPepper(rate=0.1, seed=0)(chip())
        result = sanitize_chip(bad)
        assert result.status == "repaired"
        assert np.isfinite(result.chip).all()
        untouched = ~np.isnan(bad)
        assert np.array_equal(result.chip[untouched], bad[untouched])

    def test_dropped_band_imputed_from_survivors(self):
        clean = chip()
        result = sanitize_chip(DropBand(band=1, seed=0)(clean))
        assert result.status == "repaired"
        donors = result.chip[[0, 2, 3]]
        assert np.allclose(result.chip[1], donors.mean(axis=0))
        # imputation keeps spatial structure, not a flat fill
        assert result.chip[1].std() > 0.0

    def test_saturation_clipped(self):
        bad = SaturateStripe(value=4.0, seed=0)(chip())
        result = sanitize_chip(bad, SanitizePolicy(valid_range=(0.0, 1.0)))
        assert result.status == "repaired"
        assert result.chip.max() <= 1.0

    def test_truncated_tile_padded_to_expected_shape(self):
        small = TruncateTile(seed=0)(chip())
        result = sanitize_chip(small, SanitizePolicy(expected_shape=(24, 24)))
        assert result.status == "repaired"
        assert result.chip.shape == (4, 24, 24)
        c, h, w = small.shape
        assert np.array_equal(result.chip[:, :h, :w], small)

    def test_oversized_chip_not_repairable(self):
        result = sanitize_chip(chip(shape=(4, 30, 30)),
                               SanitizePolicy(expected_shape=(24, 24)))
        assert result.status == "quarantined" and result.chip is None


class TestQuarantine:
    def test_quarantine_only_policy_never_repairs(self):
        bad = NaNPepper(rate=0.05, seed=0)(chip())
        result = sanitize_chip(bad, SanitizePolicy.quarantine_only())
        assert result.status == "quarantined" and result.chip is None
        assert not result.report.repairable

    def test_mostly_bad_chip_quarantined(self):
        """Beyond max_bad_fraction, repair would be invention."""
        bad = NaNPepper(rate=0.8, seed=0)(chip())
        result = sanitize_chip(bad, SanitizePolicy(max_bad_fraction=0.5))
        assert result.status == "quarantined"

    def test_all_bands_gone_quarantined(self):
        result = sanitize_chip(np.full((4, 24, 24), np.nan, dtype=np.float32))
        assert result.status == "quarantined"

    def test_stuck_band_quarantined_not_imputed(self):
        """A constant band looks valid in every cell, so no cell can
        repair it: the chip is quarantined and the report says why."""
        bad = chip()
        bad[1] = 0.5
        result = sanitize_chip(bad, SanitizePolicy.for_scene())
        assert result.status == "quarantined"
        assert kinds(result.report) == {"constant_band"}

    def test_a_dead_cell_quarantines_the_chip(self):
        """A cell with no good pixel in any band has nothing to repair
        from, though the rest of the chip is clean."""
        bad = chip()
        bad[:, 12:, :12] = np.nan          # one of the four 12 px cells
        result = sanitize_chip(bad, SanitizePolicy(max_bad_fraction=0.9))
        assert result.status == "quarantined"
        assert not result.report.repairable
        bad[3, 23, 0] = 0.5                # one surviving pixel revives it
        result = sanitize_chip(bad, SanitizePolicy(max_bad_fraction=0.9))
        assert result.status == "repaired"
        assert np.all(result.chip[:3, 12:, :12] == result.chip[3, 12:, :12])

    def test_report_summary_names_the_damage(self):
        result = sanitize_chip(DropBand(band=0, seed=0)(chip()),
                               SanitizePolicy.quarantine_only())
        assert "missing_band" in result.report.summary()


class TestPolicies:
    def test_for_serving_checks_only_finiteness(self):
        policy = SanitizePolicy.for_serving()
        assert validate_chip(NodataHoles(seed=0)(chip()), policy).ok
        bad = chip()
        bad[0, 0, 0] = np.nan
        assert not validate_chip(bad, policy).ok

    def test_validation(self):
        with pytest.raises(ValueError):
            SanitizePolicy(max_bad_fraction=0.0)
        with pytest.raises(ValueError):
            SanitizePolicy(valid_range=(1.0, 0.0))


class TestSanitizeScene:
    def test_scene_raster_repaired_in_one_pass(self):
        image = chip(seed=3, shape=(4, 64, 64))
        bad = NaNPepper(rate=0.02, seed=1)(image)
        repaired = sanitize_scene(bad)
        assert repaired.cell == (32, 32) and not repaired.dead.any()
        assert np.isfinite(repaired.image).all()
        assert repaired.tile(0, 0, 64).status == "repaired"
        assert np.isnan(bad).any()      # the scene is never modified

    def test_unrepairable_scene_returned_unrepaired(self):
        image = np.full((4, 32, 32), np.nan, dtype=np.float32)
        repaired = sanitize_scene(image)
        assert repaired.dead.all()
        assert np.isnan(repaired.image).all()  # its tiles are quarantined
        assert repaired.tile(0, 0, 16).status == "quarantined"


class StuckBand(Corruption):
    """One band of the tile stuck at a constant, in range and finite."""

    def _apply(self, image, rng):
        image[int(rng.integers(0, len(image)))] = 0.5
        return image


class DeadCell(Corruption):
    """Every band of one of the tile's four repair cells gone."""

    def _apply(self, image, rng):
        _, h, w = image.shape
        ch, cw = -(-h // 2), -(-w // 2)
        r, c = int(rng.integers(0, 2)) * ch, int(rng.integers(0, 2)) * cw
        image[:, r:r + ch, c:c + cw] = np.nan
        return image


def same_result(got, want):
    """``SceneRepair.tile`` against ``sanitize_chip`` of the crop: status,
    report and repairs equal, and the chip bitwise."""
    assert (got.status, got.report, got.repairs) \
        == (want.status, want.report, want.repairs)
    if want.chip is None:
        assert got.chip is None
    else:
        assert got.chip.dtype == np.float32
        assert got.chip.tobytes() == np.asarray(want.chip, np.float32).tobytes()


class TestOneRepairedRaster:
    """The invariant the robust scan stands on: a tile's repair is a crop
    of the scene repaired once on the ``ceil(window / 2)`` grid."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(side=st.sampled_from((14, 15, 20, 21)), extra=st.integers(1, 3),
           fraction=st.sampled_from((0.3, 1.0)), seed=st.integers(0, 2**16))
    def test_every_on_grid_tile_is_a_crop_of_the_scene_repair(
            self, pixel_reads, side, extra, fraction, seed):
        cell = -(-side // 2)
        size = side + extra * cell
        origins = scan_origins(size, side, cell)
        clean = np.random.default_rng(seed).random((4, size, size),
                                                   dtype=np.float32)
        injectors = default_injectors(seed) + [StuckBand(seed),
                                               DeadCell(seed)]
        image, _ = corrupt_scene(clean, origins, side, fraction=fraction,
                                 injectors=injectors, seed=seed)
        policy = SanitizePolicy.for_scene()
        repaired = sanitize_scene(image, policy, window=side)
        assert repaired.cell == (cell, cell)
        for r, c in origins:
            with pixel_reads() as reads:
                got = repaired.tile(r, c, side)
            # an even side is two whole cells: the verdict pools their
            # statistics and reads no pixel; an odd side reads its own
            assert len(reads) == side % 2
            want = sanitize_chip(image[:, r:r + side, c:c + side], policy)
            # an odd side's second cell is one pixel short of the
            # raster's, except where the scene ends one pixel short too
            if side % 2 == 0 or r == c == size - side:
                same_result(got, want)
            else:
                assert (got.status == "ok") == (want.status == "ok")

    @pytest.mark.parametrize("size, stride, on_grid", [(577, 50, 100),
                                                       (600, 48, 4)])
    def test_off_grid_tiles_read_the_repaired_rasters_crop(self, size,
                                                           stride, on_grid):
        """A scene-edge origin (477 on a 577 px scene) or a stride off the
        50 px grid: the tile's verdict is still its own pixels', but its
        chip is the repaired raster's crop, not its own repair."""
        window = 100
        origins = scan_origins(size, window, stride)
        clean = np.random.default_rng(5).random((4, size, size),
                                                dtype=np.float32)
        image, _ = corrupt_scene(clean, origins, window, fraction=0.1, seed=5)
        policy = SanitizePolicy.for_scene()
        repaired = sanitize_scene(image, policy, window=window)
        on, moved = 0, 0
        for r, c in origins:
            got = repaired.tile(r, c, window)
            want = sanitize_chip(image[:, r:r + window, c:c + window], policy)
            if r % 50 == 0 and c % 50 == 0:
                same_result(got, want)
                on += 1
                continue
            assert got.report == want.report
            if got.chip is not None:
                assert np.shares_memory(got.chip, repaired.image)
                assert np.array_equal(
                    got.chip, repaired.image[:, r:r + window, c:c + window])
                moved += got.status == want.status == "repaired" and \
                    not np.array_equal(got.chip, want.chip)
        assert on == on_grid
        assert moved > 0    # the crop's repair is not the tile's own


class TestCleanFastPath:
    """validate_chip answers clean chips from per-band extrema; every
    verdict, clean or not, must be the full inspection's."""

    POLICIES = {
        "default": SanitizePolicy(),
        "for_serving": SanitizePolicy.for_serving(),
        "for_scene": SanitizePolicy.for_scene(),
        "quarantine_only": SanitizePolicy.quarantine_only(
            valid_range=(0.0, 1.0)),
        "expected_shape": SanitizePolicy(expected_shape=(24, 24),
                                         expected_bands=4),
        "odd_range": SanitizePolicy(nodata_value=0.1, valid_range=(0.1, 0.9)),
    }
    INJECTORS = {
        "none": None,
        "nan": lambda seed: NaNPepper(rate=0.01, seed=seed),
        "holes": lambda seed: NodataHoles(holes=1, radius=2, seed=seed),
        "drop": lambda seed: DropBand(seed=seed),
        "drop_nodata": lambda seed: DropBand(fill=NODATA, seed=seed),
        "stripe": lambda seed: SaturateStripe(width=1, seed=seed),
        "truncate": lambda seed: TruncateTile(seed=seed),
    }

    @staticmethod
    def agree(image, policy):
        from repro.robust.sanitize import _inspect_chip, _is_clean

        full = _inspect_chip(image, policy)
        assert validate_chip(image, policy) == full
        if image.size and image.dtype.kind == "f":
            # exact, not merely conservative: the fast path takes every
            # chip the inspection calls clean
            assert _is_clean(image, policy) == full.ok
        return full

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(policy=st.sampled_from(sorted(POLICIES)),
           injector=st.sampled_from(sorted(INJECTORS)),
           dtype=st.sampled_from(("float32", "float64", "float16")),
           view=st.booleans(), seed=st.integers(0, 2**16))
    def test_same_report_as_the_full_inspection(self, policy, injector,
                                                dtype, view, seed):
        image = chip(seed, shape=(4, 30, 30) if view else (4, 24, 24))
        if self.INJECTORS[injector] is not None:
            image = self.INJECTORS[injector](seed)(image)
        image = image.astype(dtype)
        if view:    # a window of a larger raster, as scans and serving send
            image = image[:, 3:27, 3:27]
        full = self.agree(image, self.POLICIES[policy])
        if injector == "none" and policy != "odd_range":
            assert full == ChipReport(ok=True, repairable=True, issues=(),
                                      bad_fraction=0.0)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_edge_values(self, policy):
        policy = self.POLICIES[policy]
        base = chip()
        edits = {
            "inf": (0, 3, 3, np.inf), "neg_inf": (1, 0, 0, -np.inf),
            "range_lo": (2, 5, 5, 0.0), "range_hi": (2, 5, 5, 1.0),
            "above": (3, 1, 1, np.nextafter(np.float32(1.0), np.float32(2))),
            "below": (3, 1, 1, -1e-30), "nodata": (0, 7, 7, NODATA),
            "odd_nodata": (0, 7, 7, np.float32(0.1)),
        }
        for b, r, c, value in edits.values():
            image = base.copy()
            image[b, r, c] = value
            self.agree(image, policy)
        constant = base.copy()
        constant[2] = 0.25
        self.agree(constant, policy)
        self.agree(np.full((4, 24, 24), np.nan, dtype=np.float32), policy)
        self.agree(base[:3], policy)                    # missing band
        self.agree(base[:, :0], policy)                 # empty chip
        self.agree((base * 100).astype(np.int32), policy)   # not float
