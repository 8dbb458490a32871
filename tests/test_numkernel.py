import numpy as np
import numpy.testing as npt
import pytest

from coincast.errors import DomainError, ShapeError
from coincast import numkernel
from coincast.numkernel import Rng, one_blas_thread, sigmoid


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


def masked_sigmoid(x, dtype=np.float64):
    """The two-branch masked form: 1/(1+exp(-a)) where a >= 0, exp(a)/(1+exp(a)) elsewhere."""
    a = np.atleast_1d(np.asarray(x, dtype=dtype))
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoidExactness:
    @pytest.mark.parametrize("shape", [(1,), (7,), (64, 64), (296, 64), (3, 5, 4)])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0, 800.0])
    def test_bitwise_equal_to_masked_form(self, shape, scale):
        a = np.random.default_rng(int(scale * 10) + len(shape)).normal(size=shape) * scale
        flat = a.reshape(-1)
        flat[: min(4, flat.size)] = [0.0, -0.0, np.inf, -np.inf][: min(4, flat.size)]
        # float32 in is computed and returned in float32
        for dtype in (np.float64, np.float32):
            x = a.astype(dtype)
            out = sigmoid(x)
            assert out.shape == a.shape and out.dtype == dtype
            assert out.tobytes() == masked_sigmoid(x, dtype).reshape(shape).tobytes()

    @pytest.mark.parametrize("value", [0.0, -0.0, 2.5, -2.5, 750.0, -750.0, np.inf, -np.inf])
    def test_scalar_and_0d_return_float(self, value):
        expected = masked_sigmoid(value)[0]
        for x in (value, np.float64(value), np.array(value)):
            got = sigmoid(x)
            assert type(got) is float
            assert np.float64(got).tobytes() == expected.tobytes()

    def test_integer_input(self):
        ints = np.array([-800, -3, 0, 3, 800])
        assert sigmoid(ints).tobytes() == masked_sigmoid(ints.astype(np.float64)).tobytes()
        assert sigmoid(2) == masked_sigmoid(2.0)[0]

    def test_nan_in_nan_out(self):
        out = sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2])
        assert out[1] == masked_sigmoid(1.0)[0]
        assert np.isnan(sigmoid(float("nan")))

    def test_input_left_unchanged(self):
        a = np.array([-5.0, 0.0, 5.0])
        sigmoid(a)
        npt.assert_array_equal(a, [-5.0, 0.0, 5.0])


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).uniform(5, 7, 0.25)
        b = Rng(42).uniform(5, 7, 0.25)
        npt.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = Rng(42).uniform(5, 7, 0.25)
        b = Rng(43).uniform(5, 7, 0.25)
        assert not np.array_equal(a, b)

    def test_draws_respect_scale(self):
        draws = Rng(7).uniform(100, 10, 0.03)
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
            Rng(1).uniform(2, 2, 0.0)

    def test_negative_shape_rejected(self):
        with pytest.raises(ShapeError):
            Rng(1).uniform(-1, 2, 1.0)


class TestOneBlasThread:
    @pytest.fixture
    def blas_threads(self):
        calls = numkernel._blas_thread_calls()
        if calls is None:
            pytest.skip("the loaded BLAS exposes no thread-count entry point")
        get, set_ = calls
        caller = get()
        yield get, set_
        set_(caller)

    def test_one_thread_inside_and_the_callers_count_after(self, blas_threads):
        get, set_ = blas_threads
        set_(3)
        before = get()
        with one_blas_thread() as blas:
            assert blas.pinned
            assert get() == 1
        assert get() == before

    def test_the_callers_count_comes_back_after_an_error(self, blas_threads):
        get, _ = blas_threads
        before = get()
        with pytest.raises(ZeroDivisionError):
            with one_blas_thread():
                1 / 0
        assert get() == before

    def test_without_an_entry_point_the_block_runs_unpinned(self, monkeypatch):
        monkeypatch.setattr(numkernel, "_blas_thread_calls", lambda: None)
        with one_blas_thread() as blas:
            assert not blas.pinned
