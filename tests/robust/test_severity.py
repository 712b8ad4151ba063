"""Seeded severity sweep: degradation scales with damage, repair helps.

Two properties anchor the sanitizer's value:

* model error after sanitize+repair grows monotonically-ish with the
  corruption severity (small inversions from sampling noise allowed);
* on recoverable damage (``DropBand``, ``NodataHoles``) sanitize+repair
  keeps more accuracy than the quarantine-only baseline, which pays a
  full error for every discarded chip.
"""

import numpy as np
import pytest

from repro.detect.predict import predict
from repro.faults import DropBand, NaNPepper, NodataHoles
from repro.robust import SanitizePolicy, sanitize_chip

N_CHIPS = 24
TOLERANCE = 0.02  # allowed monotonicity inversion between adjacent rates


@pytest.fixture(scope="module")
def model(small_detector):
    return small_detector


@pytest.fixture(scope="module")
def chips():
    rng = np.random.default_rng(42)
    return rng.random((N_CHIPS, 4, 24, 24)).astype(np.float32)


@pytest.fixture(scope="module")
def clean_conf(model, chips):
    conf, _ = predict(model, chips, batch_size=N_CHIPS)
    return conf


def sweep_error(model, chips, clean_conf, injector, policy):
    """Mean per-chip error vs the clean prediction.

    A repaired chip contributes |conf - conf_clean|; a quarantined chip
    contributes 1.0 — the full confidence range, the cost of having no
    answer at all for that tile.
    """
    errors = []
    for i, clean in enumerate(chips):
        result = sanitize_chip(injector(clean), policy)
        if result.chip is None:
            errors.append(1.0)
            continue
        conf, _ = predict(model, result.chip[None], batch_size=1)
        errors.append(abs(float(conf[0]) - float(clean_conf[i])))
    return float(np.mean(errors))


class TestMonotonicDegradation:
    def test_nan_pepper_error_grows_with_rate(self, model, chips, clean_conf):
        policy = SanitizePolicy(max_bad_fraction=0.95)
        rates = (0.02, 0.1, 0.3, 0.6)
        errors = [
            sweep_error(model, chips, clean_conf,
                        NaNPepper(rate=rate, seed=11), policy)
            for rate in rates
        ]
        for lo, hi in zip(errors, errors[1:]):
            assert hi >= lo - TOLERANCE, (rates, errors)
        assert errors[-1] > errors[0], (rates, errors)

    def test_nodata_holes_error_grows_with_hole_count(self, model, chips,
                                                      clean_conf):
        policy = SanitizePolicy(max_bad_fraction=0.95)
        counts = (1, 4, 10)
        errors = [
            sweep_error(model, chips, clean_conf,
                        NodataHoles(holes=holes, radius=5, seed=13), policy)
            for holes in counts
        ]
        for lo, hi in zip(errors, errors[1:]):
            assert hi >= lo - TOLERANCE, (counts, errors)
        assert errors[-1] > errors[0], (counts, errors)


class TestRepairBeatsQuarantine:
    @pytest.mark.parametrize("injector", [
        DropBand(seed=21),
        NodataHoles(holes=3, radius=6, seed=22),
    ], ids=["drop_band", "nodata_holes"])
    def test_repair_recovers_at_least_quarantine_baseline(
            self, model, chips, clean_conf, injector):
        repair_err = sweep_error(model, chips, clean_conf, injector,
                                 SanitizePolicy())
        quarantine_err = sweep_error(model, chips, clean_conf, injector,
                                     SanitizePolicy.quarantine_only())
        # quarantine-only discards every damaged chip: error is exactly 1
        assert quarantine_err == 1.0
        assert repair_err <= quarantine_err
        # and the repairs are genuinely informative, not just "an answer"
        assert repair_err < 0.5

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    def test_repaired_chip_closer_than_raw_damage(self, model, chips,
                                                  clean_conf):
        """Repair must beat feeding the damaged pixels straight to the
        model (NaN in, garbage out)."""
        injector = NodataHoles(holes=3, radius=6, seed=23)
        repaired_err = sweep_error(model, chips, clean_conf, injector,
                                   SanitizePolicy())
        raw_errors = []
        for i, clean in enumerate(chips):
            conf, _ = predict(model, injector(clean)[None], batch_size=1)
            delta = abs(float(conf[0]) - float(clean_conf[i]))
            raw_errors.append(min(delta, 1.0) if np.isfinite(delta) else 1.0)
        assert repaired_err <= float(np.mean(raw_errors))
