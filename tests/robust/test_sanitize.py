"""Chip/raster sanitization: detection, repair, quarantine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    NODATA,
    DropBand,
    NaNPepper,
    NodataHoles,
    SaturateStripe,
    TruncateTile,
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
        fixed, result = sanitize_scene(bad)
        assert result.status == "repaired"
        assert np.isfinite(fixed).all()

    def test_unrepairable_scene_returned_unrepaired(self):
        image = np.full((4, 32, 32), np.nan, dtype=np.float32)
        fixed, result = sanitize_scene(image)
        assert result.status == "quarantined"
        assert np.isnan(fixed).all()  # caller quarantines per tile instead


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
