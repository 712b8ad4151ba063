"""Landcover classification details and reflectance-table coverage."""

import numpy as np
import pytest

from repro.geo import (
    LandClass,
    REFLECTANCE,
    classify_landcover,
)


@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(192)


class TestReflectanceTable:
    def test_every_class_has_reflectance(self):
        for land_class in LandClass:
            assert land_class in REFLECTANCE

    def test_reflectance_in_unit_range(self):
        for values in REFLECTANCE.values():
            assert len(values) == 4
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_water_nir_darkest(self):
        nir = {lc: v[3] for lc, v in REFLECTANCE.items()}
        assert nir[LandClass.WATER] == min(nir.values())

    def test_vegetation_ndvi_positive(self):
        """NDVI = (NIR-R)/(NIR+R) must be high for crops, low for roads."""
        def ndvi(lc):
            r, _, _, n = REFLECTANCE[lc]
            return (n - r) / (n + r)

        assert ndvi(LandClass.CROPLAND) > 0.2
        assert ndvi(LandClass.RIPARIAN) > 0.3
        assert ndvi(LandClass.ROAD) < 0.0


class TestLandcoverMap:
    def test_fraction_helper(self, scene):
        total = sum(scene.landcover.fraction(lc) for lc in LandClass)
        assert total == pytest.approx(1.0)

    def test_vigor_in_unit_range(self, scene):
        assert scene.landcover.vigor.min() >= 0.0
        assert scene.landcover.vigor.max() <= 1.0

    def test_riparian_near_streams(self, scene):
        """Riparian cells border stream cells."""
        from scipy import ndimage

        riparian = scene.landcover.classes == int(LandClass.RIPARIAN)
        if riparian.sum() == 0:
            pytest.skip("no riparian cells in this seed")
        near_stream = ndimage.binary_dilation(scene.streams, iterations=4)
        assert (riparian & near_stream).sum() / riparian.sum() > 0.9

    def test_roads_override_everything(self, scene):
        classes = scene.landcover.classes
        assert (classes[scene.roads] == int(LandClass.ROAD)).all()

    def test_deterministic_in_seed(self):
        a = classify_landcover(np.zeros((64, 64)), np.zeros((64, 64), bool),
                               np.zeros((64, 64), bool), seed=9)
        b = classify_landcover(np.zeros((64, 64)), np.zeros((64, 64), bool),
                               np.zeros((64, 64), bool), seed=9)
        assert np.array_equal(a.classes, b.classes)
        assert np.allclose(a.vigor, b.vigor)
