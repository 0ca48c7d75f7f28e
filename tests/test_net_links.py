"""Unit tests for the access-link capacity model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import CapacityClass, CapacityModel
from repro.net.links import UNIT_CAPACITY, capacity_of


class TestHeterogeneityConfig:
    def test_default_matches_paper(self):
        # "The highest link capacity is 10 times of the lowest."
        assert capacity_of(CapacityClass.HIGH) == pytest.approx(
            10.0 * capacity_of(CapacityClass.LOW)
        )
        # Medium sits at the geometric midpoint.
        assert capacity_of(CapacityClass.MEDIUM) == pytest.approx(
            UNIT_CAPACITY * 10.0 ** 0.5
        )


class TestCapacityModel:
    def test_thirds_split(self, rng):
        model = CapacityModel(999, rng)
        classes = model.classes()
        for cls in CapacityClass:
            assert classes.count(cls) == 333

    def test_rounding_remainder_goes_to_high(self, rng):
        model = CapacityModel(1000, rng)
        classes = model.classes()
        assert sum(classes.count(c) for c in CapacityClass) == 1000

    def test_assignment_is_shuffled(self, rng):
        model = CapacityModel(300, rng)
        classes = model.classes()
        # Not all of the first hundred should share a class.
        assert len(set(classes[:100])) > 1

    def test_deterministic_given_rng(self):
        a = CapacityModel(50, np.random.default_rng(3)).classes()
        b = CapacityModel(50, np.random.default_rng(3)).classes()
        assert a == b
