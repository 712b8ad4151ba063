"""Shared fixtures for the fleet supervision / job-queue / sweep tests."""

import pytest


@pytest.fixture(scope="package")
def scene(watershed):
    return watershed(200)


@pytest.fixture(scope="package")
def model(small_detector):
    return small_detector
