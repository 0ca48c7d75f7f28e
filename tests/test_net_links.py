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

    def test_transfer_delay_bottleneck(self, rng):
        model = CapacityModel(30, rng)
        fast = next(i for i in range(30) if model.capacity_class(i) == CapacityClass.HIGH)
        slow = next(i for i in range(30) if model.capacity_class(i) == CapacityClass.LOW)
        size = 100.0
        # The slow endpoint bounds the transfer either way.
        assert model.transfer_delay(fast, slow, size) == pytest.approx(
            size / model.capacity(slow)
        )
        assert model.transfer_delay(slow, fast, size) == model.transfer_delay(
            fast, slow, size
        )

    def test_zero_size_transfer_is_free(self, rng):
        model = CapacityModel(10, rng)
        assert model.transfer_delay(0, 1, 0.0) == 0.0

    def test_negative_size_rejected(self, rng):
        model = CapacityModel(10, rng)
        with pytest.raises(ValueError):
            model.transfer_delay(0, 1, -1.0)

    def test_deterministic_given_rng(self):
        a = CapacityModel(50, np.random.default_rng(3)).classes()
        b = CapacityModel(50, np.random.default_rng(3)).classes()
        assert a == b
