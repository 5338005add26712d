"""Unit tests for the seeded RNG helpers."""

from repro.sim.rng import derive_seed, make_rng


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "delays") == derive_seed(42, "delays")

    def test_derive_seed_varies_with_labels(self):
        assert derive_seed(42, "delays") != derive_seed(42, "workload")
        assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)

    def test_derive_seed_varies_with_master(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_make_rng_reproducible(self):
        a = make_rng(7, "stream")
        b = make_rng(7, "stream")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_make_rng_independent_streams(self):
        a = make_rng(7, "stream-a")
        b = make_rng(7, "stream-b")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_make_rng_none_seed_gives_unseeded_generator(self):
        rng = make_rng(None)
        assert 0.0 <= rng.random() < 1.0
