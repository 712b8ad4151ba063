"""Fixtures shared by the test tree.

What several modules build is built once per session here: the small
scan detector, the seeded watershed scene of a size, the four Table-1
detectors and the per-window reference of a (model, geometry).  A test
shares one only if it leaves it as it found it.  A test that trains,
edits weights, wraps a model so that its bits change, or asserts on
what a compiled model has bound builds its own instance (from
``small_arch`` or ``TABLE1_MODELS``).  Each shared detector and scene
checks at session teardown that its bytes are the ones it was built
with, so a leak fails the run.
"""

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from repro.arch import TABLE1_MODELS, ConvSpec, PoolSpec, SPPNetConfig
from repro.blas import BlasError, blas_info, set_blas_threads
from repro.detect import SPPNetDetector, scan_origins
from repro.engine import compiled_for
from repro.geo import WatershedConfig, build_scene
from repro.robust import sanitize
from repro.scanpar import TileSource


@pytest.fixture(params=[1, 2])
def blas_threads(request):
    """Run the test at 1 and at 2 BLAS threads, then restore the count.

    Output bits depend on the count (docs/engine.md), so a test taking
    this fixture compares bits within one count, never across two."""
    before = blas_info()["threads"]
    try:
        set_blas_threads(request.param)
    except BlasError as exc:
        pytest.skip(str(exc))
    yield request.param
    set_blas_threads(before)


class _Shared(dict):
    """Values built on first lookup.  Given ``digest``, each value is
    digested when built, and ``changed()`` names those whose digest
    has moved since."""

    def __init__(self, build, digest=None):
        super().__init__()
        self._build, self._digest, self._digests = build, digest, {}

    def __missing__(self, key):
        value = self[key] = self._build(key)
        if self._digest is not None:
            self._digests[key] = self._digest(value)
        return value

    def changed(self) -> list:
        return [key for key, digest in self._digests.items()
                if self._digest(self[key]) != digest]


def _digest(arrays) -> str:
    sha = hashlib.sha1()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _weights(model) -> str:
    return _digest(p.data for p in model.parameters())


@pytest.fixture(scope="session")
def small_arch():
    """The small scan detector: one 8-filter conv, SPP levels (2, 1)
    and a 32-wide FC, so a 24 px chip still feeds the pyramid."""
    return SPPNetConfig(convs=(ConvSpec(8, 3, 1),), pools=(PoolSpec(2, 2),),
                        spp_levels=(2, 1), fc_sizes=(32,), name="small")


@pytest.fixture(scope="session")
def small_detector(small_arch):
    """``small_arch`` at seed 0 in eval mode, shared by every test that
    only runs it."""
    model = SPPNetDetector(small_arch, seed=0).eval()
    before = _weights(model)
    yield model
    assert _weights(model) == before, \
        "a test changed the parameters of the shared small_detector"


@pytest.fixture(scope="session")
def watershed():
    """``watershed(size)``: the seeded watershed scene of that size
    (roads every 64 px, streams from 600 cells, seed 5), built once per
    size.  ``scene.config`` is its ``WatershedConfig``."""
    scenes = _Shared(
        lambda size: build_scene(WatershedConfig(
            size=size, road_spacing=64, stream_threshold=600, seed=5)),
        lambda scene: _digest([scene.image, scene.dem]))
    yield scenes.__getitem__
    assert not scenes.changed(), \
        f"a test changed the shared watershed scenes {scenes.changed()}"


@pytest.fixture(scope="session")
def table1():
    """The four Table-1 detectors by name, at seed 0 in eval mode, each
    built on first lookup.  Run them through ``compiled_for``, so that
    the tests sharing a detector share its compiled program too."""
    models = _Shared(
        lambda name: SPPNetDetector(TABLE1_MODELS[name], seed=0).eval(),
        _weights)
    yield models
    assert not models.changed(), \
        f"a test changed the parameters of {models.changed()}"


@pytest.fixture(scope="session")
def pixel_reads():
    """``with pixel_reads() as reads:`` collects, by the address of its
    first pixel, every chip whose own pixels the sanitizer inspects inside
    the block: its clean fast path (``_is_clean``) or the full inspection
    (``_inspect_chip``).  ``len(reads)`` counts the distinct chips."""
    @contextmanager
    def reads():
        seen: set[int] = set()

        def spy(inspect):
            def spied(chip, policy):
                seen.add(chip.__array_interface__["data"][0])
                return inspect(chip, policy)
            return spied

        with mock.patch.object(sanitize, "_is_clean",
                               spy(sanitize._is_clean)), \
                mock.patch.object(sanitize, "_inspect_chip",
                                  spy(sanitize._inspect_chip)):
            yield seen
    return reads


@dataclass(frozen=True)
class WindowReference:
    """``predict`` over the gathered window stacks of one scan geometry
    of a standard-normal raster seeded by its size."""

    image: np.ndarray
    origins: list
    conf: np.ndarray
    boxes: np.ndarray

    @property
    def outputs(self):
        return self.conf, self.boxes


@pytest.fixture(scope="session")
def window_reference(table1):
    """``window_reference(name, size, window, stride)``: the per-window
    reference of a Table-1 model at one geometry, at batch 20 (a row
    does not depend on its batch for these models,
    ``tests/engine/test_row_contract.py``).  Computed once per model,
    geometry and BLAS (threads and kernel), since bits follow the BLAS;
    the arrays are read-only."""
    def build(key):
        name, size, window, stride, _, _ = key
        compiled = compiled_for(table1[name])
        image = np.random.default_rng(size).standard_normal(
            (4, size, size)).astype(np.float32)
        origins = scan_origins(size, window, stride)
        parts = [compiled.predict(stack, batch_size=len(stack))
                 for _, stack in TileSource(image, window, 20).batches(
                     origins)]
        arrays = (image, np.concatenate([conf for conf, _ in parts]),
                  np.concatenate([box for _, box in parts]))
        for array in arrays:
            array.flags.writeable = False
        return WindowReference(arrays[0], origins, *arrays[1:])

    references = _Shared(build)

    def reference(name, size, window, stride):
        info = blas_info()
        return references[name, size, window, stride, info["threads"],
                          info["kernel"]]
    return reference
