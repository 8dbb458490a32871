import numpy as np
import numpy.testing as npt
import pytest

from coincast.errors import DomainError, ShapeError
from coincast.numkernel import Rng, seeded_uniform, sigmoid


class TestActivations:
    def test_fixed_points(self):
        assert sigmoid(0.0) == 0.5
        assert np.tanh(0.0) == 0.0

    def test_sigmoid_known_value(self):
        npt.assert_allclose(sigmoid(1.0), 0.7310585786300049, rtol=1e-12)

    def test_sigmoid_symmetry(self):
        xs = np.array([-700.0, -50.0, -3.2, -0.1, 0.0, 0.1, 3.2, 50.0, 700.0])
        npt.assert_allclose(sigmoid(xs) + sigmoid(-xs), np.ones_like(xs), atol=1e-12)

    def test_tanh_sigmoid_identity(self):
        xs = np.linspace(-20.0, 20.0, 81)
        npt.assert_allclose(np.tanh(xs), 2.0 * sigmoid(2.0 * xs) - 1.0, atol=1e-12)

    def test_bounds_hold_for_extreme_inputs(self):
        xs = np.array([-1e6, -800.0, 800.0, 1e6])
        s = sigmoid(xs)
        assert np.all((s >= 0.0) & (s <= 1.0))
        u = np.tanh(xs)
        assert np.all((u >= -1.0) & (u <= 1.0))

    def test_strictly_inside_for_moderate_inputs(self):
        xs = np.linspace(-30.0, 30.0, 61)
        s = sigmoid(xs)
        assert np.all((s > 0.0) & (s < 1.0))

    def test_monotone(self):
        xs = np.sort(np.random.default_rng(3).normal(size=200) * 10)
        assert np.all(np.diff(sigmoid(xs)) >= 0)
        assert np.all(np.diff(np.tanh(xs)) >= 0)

    def test_elementwise_shape(self):
        out = sigmoid(np.zeros((3, 4)))
        assert out.shape == (3, 4)
        npt.assert_array_equal(out, np.full((3, 4), 0.5))


class TestRng:
    def test_same_seed_same_stream(self):
        a = seeded_uniform(Rng(42), 5, 7, 0.25)
        b = seeded_uniform(Rng(42), 5, 7, 0.25)
        npt.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_uniform(Rng(42), 5, 7, 0.25)
        b = seeded_uniform(Rng(43), 5, 7, 0.25)
        assert not np.array_equal(a, b)

    def test_draws_respect_scale(self):
        draws = seeded_uniform(Rng(7), 100, 10, 0.03)
        assert draws.shape == (100, 10)
        assert np.all(np.abs(draws) <= 0.03)

    def test_sequential_draws_advance_the_stream(self):
        rng = Rng(5)
        first = rng.uniform(4, 4, 1.0)
        second = rng.uniform(4, 4, 1.0)
        assert not np.array_equal(first, second)

    def test_seed_domain(self):
        with pytest.raises(DomainError):
            Rng(-1)
        with pytest.raises(DomainError):
            Rng(2**64)

    def test_scale_must_be_positive(self):
        with pytest.raises(DomainError):
            seeded_uniform(Rng(1), 2, 2, 0.0)

    def test_negative_shape_rejected(self):
        with pytest.raises(ShapeError):
            seeded_uniform(Rng(1), -1, 2, 1.0)
