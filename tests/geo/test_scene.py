"""Synthetic watershed generation: DEM, roads, crossings, landcover, image."""

import numpy as np
import pytest

from repro.geo import (
    LandClass,
    WatershedConfig,
    build_scene,
    classify_landcover,
    find_crossings,
    imprint_embankments,
    render_orthophoto,
    road_mask,
    synthesize_dem,
)

@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(192)


@pytest.fixture(scope="module")
def small(scene):
    """The scene's ``WatershedConfig``, for the synthesis steps."""
    return scene.config


class TestDEM:
    def test_shape_and_determinism(self, small):
        a = synthesize_dem(small)
        b = synthesize_dem(small)
        assert a.shape == (192, 192)
        assert np.allclose(a, b)

    def test_seed_changes_terrain(self, small):
        from dataclasses import replace

        a = synthesize_dem(small)
        b = synthesize_dem(replace(small, seed=6))
        assert not np.allclose(a, b)

    def test_west_east_descent(self, small):
        dem = synthesize_dem(small)
        west = dem[:, :20].mean()
        east = dem[:, -20:].mean()
        assert west > east + 0.5 * small.gradient_m * 0.5

    def test_relief_bounded(self, small):
        dem = synthesize_dem(small)
        assert dem.max() - dem.min() < small.relief_m + small.gradient_m + 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WatershedConfig(size=8)
        with pytest.raises(ValueError):
            WatershedConfig(road_spacing=4)


class TestRoads:
    def test_mask_has_grid_roads(self, small):
        roads = road_mask(small)
        assert 0.01 < roads.mean() < 0.2

    def test_embankments_raise_only_roads(self, small):
        dem = synthesize_dem(small)
        roads = road_mask(small)
        raised = imprint_embankments(dem, roads, 1.5)
        assert np.allclose(raised[roads] - dem[roads], 1.5)
        far = ~roads
        for shift in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            far &= ~np.roll(roads, shift, axis=(0, 1))
        assert np.allclose(raised[far], dem[far])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            imprint_embankments(np.zeros((4, 4)), np.zeros((5, 5), bool), 1.0)


class TestCrossings:
    def test_crossings_on_roads_and_streams(self, scene):
        assert len(scene.crossings) > 0
        for crossing in scene.crossings:
            window = scene.roads[
                max(0, crossing.row - 3):crossing.row + 4,
                max(0, crossing.col - 3):crossing.col + 4,
            ]
            assert window.any(), "crossing should sit on/near a road"

    def test_min_separation(self, scene):
        pts = [(c.row, c.col) for c in scene.crossings]
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) >= 12

    def test_bbox_geometry(self, scene):
        c = scene.crossings[0]
        r0, c0, r1, c1 = c.bbox()
        assert r1 - r0 == c.height and c1 - c0 == c.width
        assert c.center == (c.row, c.col)

    def test_no_roads_no_crossings(self, small):
        dem = synthesize_dem(small)
        crossings = find_crossings(dem, np.zeros_like(dem, dtype=bool),
                                   stream_threshold=600)
        assert crossings == []


class TestLandcoverAndImage:
    def test_class_coverage(self, scene):
        classes = scene.landcover.classes
        assert (classes == int(LandClass.CROPLAND)).mean() > 0.3
        assert (classes == int(LandClass.ROAD)).any()
        assert (classes == int(LandClass.WATER)).any()

    def test_landcover_shape_validation(self):
        with pytest.raises(ValueError):
            classify_landcover(np.zeros((4, 4)), np.zeros((5, 5), bool),
                               np.zeros((4, 4), bool))

    def test_image_four_bands_in_range(self, scene):
        assert scene.image.shape == (4, 192, 192)
        assert scene.image.dtype == np.float32
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_water_is_nir_dark(self, scene):
        water = scene.landcover.classes == int(LandClass.WATER)
        if water.sum() > 10:
            nir = scene.image[3]
            assert nir[water].mean() < nir[~water].mean() - 0.1

    def test_roads_brighter_red_than_crops(self, scene):
        classes = scene.landcover.classes
        red = scene.image[0]
        road = classes == int(LandClass.ROAD)
        crop = classes == int(LandClass.CROPLAND)
        assert red[road].mean() > red[crop].mean()

    def test_crossing_signature_visible(self, scene):
        """The culvert apron brightens the red band at the crossing."""
        red = scene.image[0]
        diffs = []
        for c in scene.crossings:
            patch = red[max(0, c.row - 2):c.row + 3, max(0, c.col - 2):c.col + 3]
            diffs.append(patch.mean())
        assert np.mean(diffs) > red.mean() + 0.1

    def test_render_deterministic(self, scene):
        again = render_orthophoto(scene.landcover, scene.crossings,
                                  seed=scene.config.seed)
        assert np.allclose(again, scene.image)


class TestSceneAssembly:
    def test_scene_layers_consistent(self, scene):
        assert scene.dem.shape == scene.bare_dem.shape == scene.roads.shape
        assert (scene.dem >= scene.bare_dem - 1e-9).all()

    def test_build_scene_overrides(self, small):
        s = build_scene(small, seed=9)
        assert s.config.seed == 9
        assert s.config.size == small.size
