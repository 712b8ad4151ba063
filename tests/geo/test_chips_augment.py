"""Chip extraction, dataset building, splits, and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import (
    ChipDataset,
    augment_dataset,
    build_dataset,
    extract_chip,
    flip_horizontal,
    flip_vertical,
    radiometric_jitter,
    rotate90,
)

settings.register_profile("geo", deadline=None, max_examples=30)
settings.load_profile("geo")

@pytest.fixture(scope="module")
def scene(watershed):
    return watershed(192)


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(num_scenes=1, chips_per_crossing=2, chip_size=64,
                         seed=11, scene_size=256)


class TestExtractChip:
    def test_centered_chip(self, scene):
        image, found, origin = extract_chip(scene, (96, 96), 64)
        assert image.shape == (4, 64, 64)
        assert origin == (64, 64)

    def test_border_clamping(self, scene):
        _, _, origin = extract_chip(scene, (0, 0), 64)
        assert origin == (0, 0)
        _, _, origin = extract_chip(scene, (191, 191), 64)
        assert origin == (128, 128)

    def test_oversize_chip_rejected(self, scene):
        with pytest.raises(ValueError):
            extract_chip(scene, (10, 10), 500)

    def test_crossing_found_when_centered(self, scene):
        interior = [c for c in scene.crossings
                    if 40 <= c.row <= 152 and 40 <= c.col <= 152]
        assert interior, "test scene should have an interior crossing"
        c = interior[0]
        _, found, _ = extract_chip(scene, c.center, 64)
        assert found is not None
        assert found.center == c.center


class TestDataset:
    def test_balanced_and_typed(self, dataset):
        assert dataset.images.dtype == np.float32
        assert set(np.unique(dataset.labels)) <= {0, 1}
        assert dataset.num_positive > 0
        assert len(dataset) > dataset.num_positive  # negatives exist

    def test_positive_boxes_valid(self, dataset):
        pos = dataset.boxes[dataset.labels == 1]
        assert (pos[:, 2:] > 0).all()
        assert (pos[:, :2] > 0).all() and (pos[:, :2] < 1).all()

    def test_negative_boxes_zero(self, dataset):
        neg = dataset.boxes[dataset.labels == 0]
        assert np.allclose(neg, 0)

    def test_split_ratio_and_disjoint(self, dataset):
        train, test = dataset.split(0.8, seed=1)
        assert len(train) + len(test) == len(dataset)
        assert abs(len(train) - round(0.8 * len(dataset))) <= 1

    def test_split_deterministic(self, dataset):
        a1, _ = dataset.split(0.8, seed=2)
        a2, _ = dataset.split(0.8, seed=2)
        assert np.allclose(a1.images[0], a2.images[0])

    def test_split_validation(self, dataset):
        with pytest.raises(ValueError):
            dataset.split(1.5)

    def test_batches_cover_everything(self, dataset):
        seen = 0
        for images, labels, boxes in dataset.batches(7):
            assert len(images) == len(labels) == len(boxes)
            seen += len(images)
        assert seen == len(dataset)

    def test_batches_shuffle_with_seed(self, dataset):
        b1 = next(iter(dataset.batches(5, seed=3)))[1]
        b2 = next(iter(dataset.batches(5, seed=4)))[1]
        assert len(b1) == len(b2)

    def test_concatenate(self, dataset):
        both = ChipDataset.concatenate([dataset, dataset])
        assert len(both) == 2 * len(dataset)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ChipDataset(np.zeros((2, 4, 8, 8), np.float32), np.zeros(3),
                        np.zeros((2, 4), np.float32), 8)


def unit_box(cx, cy, w, h):
    return np.array([cx, cy, w, h], dtype=np.float32)


class TestAugmentTransforms:
    def test_hflip_involution(self):
        rng = np.random.default_rng(0)
        image = rng.random((4, 8, 8)).astype(np.float32)
        box = unit_box(0.3, 0.6, 0.2, 0.1)
        im2, b2 = flip_horizontal(*flip_horizontal(image, box))
        assert np.allclose(im2, image) and np.allclose(b2, box)

    def test_vflip_moves_cy(self):
        image = np.zeros((4, 8, 8), np.float32)
        _, box = flip_vertical(image, unit_box(0.3, 0.2, 0.1, 0.1))
        assert np.isclose(box[1], 0.8)

    def test_rot90_four_times_identity(self):
        rng = np.random.default_rng(1)
        image = rng.random((4, 8, 8)).astype(np.float32)
        box = unit_box(0.25, 0.7, 0.2, 0.1)
        im, b = image, box
        for _ in range(4):
            im, b = rotate90(im, b, k=1)
        assert np.allclose(im, image) and np.allclose(b, box, atol=1e-6)

    def test_rot90_swaps_wh(self):
        _, box = rotate90(np.zeros((4, 8, 8), np.float32),
                          unit_box(0.5, 0.5, 0.4, 0.2), k=1)
        assert np.isclose(box[2], 0.2) and np.isclose(box[3], 0.4)

    @given(st.floats(0.1, 0.9), st.floats(0.1, 0.9),
           st.floats(0.05, 0.3), st.floats(0.05, 0.3), st.integers(0, 3))
    def test_rotation_tracks_pixel(self, cx, cy, w, h, k):
        """The box centre transforms exactly like the marked pixel."""
        size = 32
        image = np.zeros((4, size, size), np.float32)
        px = min(int(cy * size), size - 1)
        py = min(int(cx * size), size - 1)
        image[0, px, py] = 1.0
        out_image, out_box = rotate90(image, unit_box(cx, cy, w, h), k=k)
        mr, mc = np.unravel_index(out_image[0].argmax(), (size, size))
        assert abs(out_box[1] * size - (mr + 0.5)) < 1.5
        assert abs(out_box[0] * size - (mc + 0.5)) < 1.5

    def test_negative_box_stays_zero(self):
        _, box = flip_horizontal(np.zeros((4, 4, 4), np.float32), np.zeros(4, np.float32))
        assert np.allclose(box, 0)

    def test_jitter_bounded(self):
        rng = np.random.default_rng(0)
        image = np.full((4, 8, 8), 0.5, np.float32)
        out = radiometric_jitter(image, rng, scale=0.05)
        assert out.min() >= 0 and out.max() <= 1
        assert not np.allclose(out, image)


class TestAugmentDataset:
    def test_doubles_size_same_balance(self, dataset):
        out = augment_dataset(dataset, seed=0)
        assert len(out) == 2 * len(dataset)
        assert out.num_positive == 2 * dataset.num_positive

    def test_deterministic(self, dataset):
        a = augment_dataset(dataset, seed=1)
        b = augment_dataset(dataset, seed=1)
        assert np.allclose(a.images, b.images)
