import numpy as np
import numpy.testing as npt
import pytest

from coincast.errors import DomainError, ShapeError, SizingError
from coincast.metrics import mape, minmax_rmse, rmse


class TestMape:
    def test_hand_value(self):
        # |100-110|/100 = 10%, |200-190|/200 = 5% -> mean 7.5%
        npt.assert_allclose(mape([100.0, 200.0], [110.0, 190.0]), 7.5, rtol=1e-12)

    def test_perfect_forecast_is_zero(self):
        assert mape([3.0, 5.0, 9.0], [3.0, 5.0, 9.0]) == 0.0

    def test_zero_actual_raises_with_index(self):
        with pytest.raises(DomainError, match="index 1"):
            mape([4.0, 0.0, 2.0], [4.0, 1.0, 2.0])

    def test_epsilon_smooths_zero_actuals(self):
        # denominators become |A| + 1: errors 1/1 and 0/2 -> mean 50%
        npt.assert_allclose(mape([0.0, 1.0], [1.0, 1.0], epsilon=1.0), 50.0, rtol=1e-12)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(DomainError):
            mape([1.0], [1.0], epsilon=0.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        actual = rng.uniform(10.0, 90.0, size=40)
        forecast = actual + rng.normal(0.0, 3.0, size=40)
        npt.assert_allclose(
            mape(4.0 * actual, 4.0 * forecast), mape(actual, forecast), rtol=1e-12
        )

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(1.0, 50.0, size=13)
            f = rng.uniform(-10.0, 70.0, size=13)
            assert mape(a, f) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mape([1.0, 2.0], [1.0])

    def test_empty_input(self):
        with pytest.raises(SizingError):
            mape([], [])


class TestRmseMae:
    def test_hand_values(self):
        # errors 3 and 4: rmse = 5/sqrt(2)
        npt.assert_allclose(rmse([0.0, 0.0], [3.0, 4.0]), 3.5355339059327378, rtol=1e-12)

    def test_zero_iff_equal(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert rmse([1.0, 2.0], [1.0, 2.5]) > 0.0


class TestMinMaxRmse:
    def test_hand_value(self):
        # rmse([0,10],[2,8]) = 2, range = 10 -> 0.2
        npt.assert_allclose(minmax_rmse([0.0, 10.0], [2.0, 8.0]), 0.2, rtol=1e-12)

    def test_shift_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.0, 10.0, size=25)
        f = a + rng.normal(0.0, 0.5, size=25)
        npt.assert_allclose(minmax_rmse(a + 64.0, f + 64.0), minmax_rmse(a, f), rtol=1e-12)

    def test_constant_actual_raises(self):
        with pytest.raises(DomainError, match="zero range"):
            minmax_rmse([5.0, 5.0, 5.0], [4.0, 5.0, 6.0])

    def test_needs_two_points(self):
        with pytest.raises(SizingError):
            minmax_rmse([1.0], [1.0])
