"""Unit tests for the message-delay models."""

import pytest

from repro.sim.delays import (
    ExponentialDelay,
    FixedDelay,
    JitteredDelay,
    PerLinkDelay,
    UniformDelay,
)


class TestFixedDelay:
    def test_always_returns_delta(self):
        model = FixedDelay(2.5)
        assert all(model.sample(i, j) == 2.5 for i in range(3) for j in range(3) if i != j)

    def test_max_delay_is_delta(self):
        assert FixedDelay(3.0).max_delay() == 3.0

    def test_rejects_non_positive_delta(self):
        with pytest.raises(ValueError):
            FixedDelay(0.0)
        with pytest.raises(ValueError):
            FixedDelay(-1.0)


class TestUniformDelay:
    def test_samples_within_bounds(self):
        model = UniformDelay(0.5, 2.0, seed=1)
        for _ in range(200):
            delay = model.sample(0, 1)
            assert 0.5 <= delay <= 2.0

    def test_reproducible_with_same_seed(self):
        samples_a = [UniformDelay(0.0, 1.0, seed=7).sample(0, 1) for _ in range(1)]
        samples_b = [UniformDelay(0.0, 1.0, seed=7).sample(0, 1) for _ in range(1)]
        assert samples_a == samples_b

    def test_different_seeds_differ(self):
        a = UniformDelay(0.0, 1.0, seed=1)
        b = UniformDelay(0.0, 1.0, seed=2)
        assert [a.sample(0, 1) for _ in range(5)] != [b.sample(0, 1) for _ in range(5)]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            UniformDelay(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformDelay(-1.0, 1.0)

    def test_max_delay(self):
        assert UniformDelay(0.1, 0.9).max_delay() == 0.9


class TestExponentialDelay:
    def test_samples_bounded_by_cap_and_base(self):
        model = ExponentialDelay(base=0.2, mean=1.0, cap=3.0, seed=0)
        for _ in range(300):
            delay = model.sample(0, 1)
            assert 0.2 <= delay <= 3.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDelay(base=-1.0)
        with pytest.raises(ValueError):
            ExponentialDelay(mean=0.0)
        with pytest.raises(ValueError):
            ExponentialDelay(base=5.0, cap=1.0)

    def test_max_delay_is_cap(self):
        assert ExponentialDelay(cap=42.0).max_delay() == 42.0


class TestJitteredDelay:
    def test_samples_within_jitter_band(self):
        model = JitteredDelay(delta=2.0, jitter=0.25, seed=3)
        for _ in range(200):
            delay = model.sample(0, 1)
            assert 1.5 <= delay <= 2.5

    def test_max_delay_includes_jitter(self):
        assert JitteredDelay(delta=2.0, jitter=0.5).max_delay() == pytest.approx(3.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            JitteredDelay(delta=0.0)
        with pytest.raises(ValueError):
            JitteredDelay(delta=1.0, jitter=1.0)


class TestPerLinkDelay:
    def test_override_applies_to_specific_link_only(self):
        model = PerLinkDelay(default=FixedDelay(1.0), overrides={(0, 1): FixedDelay(5.0)})
        assert model.sample(0, 1) == 5.0
        assert model.sample(1, 0) == 1.0
        assert model.sample(2, 3) == 1.0

    def test_max_delay_is_max_over_links(self):
        model = PerLinkDelay(default=FixedDelay(1.0), overrides={(0, 1): FixedDelay(5.0)})
        assert model.max_delay() == 5.0

    def test_empty_overrides(self):
        model = PerLinkDelay(default=FixedDelay(2.0))
        assert model.sample(4, 5) == 2.0
        assert model.max_delay() == 2.0
