import dataclasses
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import stored, unstored
from coincast.errors import DomainError, SchemaError, ShapeError, SizingError, TrainingError
from coincast.lstm import (
    LinearHead,
    LstmParams,
    LstmState,
    StepCache,
    TrainConfig,
    _backward,
    _forward,
    _step,
    cell_forward,
    extract_latents,
    init_params,
    sequence_backward,
    sequence_forward,
    train,
)
from coincast.market_data import MinMaxScaler, make_windows
from coincast.numkernel import Rng, sigmoid

PARAM_NAMES = ("W_f", "b_f", "W_i", "b_i", "W_C", "b_C", "W_o", "b_o")


def zero_params(hidden: int, inputs: int) -> LstmParams:
    shape = (hidden, hidden + inputs)
    return LstmParams(
        W_f=np.zeros(shape), b_f=np.zeros(hidden),
        W_i=np.zeros(shape), b_i=np.zeros(hidden),
        W_C=np.zeros(shape), b_C=np.zeros(hidden),
        W_o=np.zeros(shape), b_o=np.zeros(hidden),
    )


def zero_state(hidden: int) -> LstmState:
    return LstmState(h=np.zeros(hidden), C=np.zeros(hidden))


def as_dtype(params: LstmParams, dtype) -> LstmParams:
    return LstmParams(**{name: getattr(params, name).astype(dtype) for name in PARAM_NAMES})


def with_field(params: LstmParams, name: str, value: np.ndarray) -> LstmParams:
    fields = {field: getattr(params, field) for field in PARAM_NAMES}
    fields[name] = value
    return LstmParams(**fields)


def tiny_dataset(n_samples=12, n_in=5, d=2, n_out=1, seed=5):
    rng = np.random.default_rng(seed)
    rows = np.cumsum(rng.normal(size=(n_samples + n_in + n_out - 1, d)), axis=0)
    rows = (rows - rows.min(0)) / (rows.max(0) - rows.min(0))  # keep in [0,1]
    scaler = MinMaxScaler.fit(rows)
    return make_windows(
        rows,
        target_col=d - 1,
        n_steps_in=n_in,
        n_steps_out=n_out,
        feature_names=[f"f{j}" for j in range(d)],
        scaler=scaler,
    )


class TestCell:
    def test_zero_everything_gives_zero_h(self):
        params = zero_params(3, 2)
        state, _ = cell_forward(params, np.zeros(2), zero_state(3))
        npt.assert_array_equal(state.h, np.zeros(3))
        npt.assert_array_equal(state.C, np.zeros(3))

    def test_closed_form_with_carried_state(self):
        # zero weights/biases: f = i = o = 1/2, c_tilde = 0, so
        # C = C_prev/2 and h = tanh(C)/2.
        params = zero_params(1, 1)
        state = LstmState(h=np.zeros(1), C=np.array([2.0]))
        new, cache = cell_forward(params, np.array([7.0]), state)
        assert new.C[0] == 1.0
        npt.assert_allclose(new.h[0], 0.5 * math.tanh(1.0), atol=1e-12)
        npt.assert_allclose(new.h[0], 0.38079707797788245, atol=1e-9)
        assert cache.f[0] == 0.5 and cache.o[0] == 0.5

    def test_forget_bias_controls_retention(self):
        # large positive forget bias: the cell keeps its memory nearly intact
        params = with_field(zero_params(1, 1), "b_f", np.array([15.0]))
        state = LstmState(h=np.zeros(1), C=np.ones(1))
        for _ in range(50):
            state, _ = cell_forward(params, np.zeros(1), state)
        assert abs(state.C[0] - 1.0) < 1e-3

    def test_gates_bounded(self):
        params = init_params(3, 4, Rng(9))
        _, cache = cell_forward(params, np.array([0.3, -2.0, 1.5]), zero_state(4))
        for gate in (cache.f, cache.i, cache.o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(cache.c_tilde) < 1.0)

    def test_input_width_checked(self):
        params = zero_params(3, 2)
        with pytest.raises(ShapeError):
            cell_forward(params, np.zeros(5), zero_state(3))

    def test_params_validate_names_offender(self):
        bad = with_field(zero_params(3, 2), "W_i", np.zeros((2, 5)))
        with pytest.raises(ShapeError, match="W_i"):
            bad.validate()


class TestSequence:
    def test_single_step_matches_cell(self):
        params = init_params(2, 4, Rng(11))
        x = np.array([[0.25, -0.5]])
        h_n, _ = sequence_forward(params, x)
        expected, _ = cell_forward(params, x[0], zero_state(4))
        npt.assert_array_equal(h_n, expected.h)

    def test_final_hidden_shape_and_cache_depth(self):
        params = init_params(3, 6, Rng(12))
        h_n, cache = sequence_forward(params, np.zeros((9, 3)))
        assert h_n.shape == (6,)
        assert len(cache.steps) == 9

    def test_empty_sequence_rejected(self):
        params = init_params(2, 3, Rng(13))
        with pytest.raises(SizingError):
            sequence_forward(params, np.zeros((0, 2)))

    def test_width_mismatch_rejected(self):
        params = init_params(2, 3, Rng(13))
        with pytest.raises(ShapeError):
            sequence_forward(params, np.zeros((4, 3)))


def loss_and_grads(params, x, v):
    """Scalar probe loss L = v . h_n and its analytic parameter gradients."""
    h_n, cache = sequence_forward(params, x)
    loss = float(v @ h_n)
    grads = sequence_backward(params, cache, v)
    return loss, grads


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(2, 4, Rng(14))
        x = Rng(15).uniform(6, 2, 1.0)
        _, cache = sequence_forward(params, x)
        grads = sequence_backward(params, cache, np.zeros(4))
        for name in PARAM_NAMES:
            npt.assert_array_equal(getattr(grads, name), np.zeros_like(getattr(grads, name)))

    def test_matches_finite_differences(self):
        k, d, n = 3, 2, 4
        params = init_params(d, k, Rng(16))
        x = Rng(17).uniform(n, d, 1.0)
        v = Rng(18).uniform(1, k, 1.0)[0]
        _, grads = loss_and_grads(params, x, v)
        eps = 1e-6
        worst = 0.0
        for name in PARAM_NAMES:
            theta = getattr(params, name)
            analytic = getattr(grads, name)
            it = np.nditer(theta, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = theta[ix]
                theta[ix] = orig + eps
                up, _ = loss_and_grads(params, x, v)
                theta[ix] = orig - eps
                down, _ = loss_and_grads(params, x, v)
                theta[ix] = orig
                numeric = (up - down) / (2 * eps)
                denom = max(abs(analytic[ix]), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic[ix] - numeric) / denom)
        assert worst < 1e-4

    def test_grads_zeros_like(self):
        params = init_params(2, 3, Rng(19))
        _, cache = sequence_forward(params, np.ones((2, 2)))
        grads = sequence_backward(params, cache, np.zeros(3))
        assert isinstance(grads, LstmParams)
        for name in PARAM_NAMES:
            assert getattr(grads, name).shape == getattr(params, name).shape
            assert not np.any(getattr(grads, name))

    def test_gradient_length_checked(self):
        params = init_params(2, 3, Rng(19))
        _, cache = sequence_forward(params, np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            sequence_backward(params, cache, np.zeros(5))


class TestInit:
    def test_bounds_and_forget_bias(self):
        d, k = 5, 8
        params = init_params(d, k, Rng(20))
        bound = 1.0 / math.sqrt(k + d)
        for name in ("W_f", "W_i", "W_C", "W_o"):
            W = getattr(params, name)
            assert W.shape == (k, k + d)
            assert np.all(np.abs(W) <= bound)
        npt.assert_array_equal(params.b_f, np.ones(k))
        npt.assert_array_equal(params.b_i, np.zeros(k))

    def test_deterministic_per_seed(self):
        a = init_params(3, 4, Rng(21))
        b = init_params(3, 4, Rng(21))
        c = init_params(3, 4, Rng(22))
        npt.assert_array_equal(a.W_C, b.W_C)
        assert not np.array_equal(a.W_C, c.W_C)

    def test_sizes_validated(self):
        with pytest.raises(SizingError):
            init_params(3, 0, Rng(23))
        with pytest.raises(SizingError):
            init_params(0, 4, Rng(23))


class TestTrain:
    def test_loss_history_length(self):
        ds = tiny_dataset()
        cfg = TrainConfig(hidden_size=4, epochs=3, learning_rate=0.01, seed=1)
        _, _, history = train(ds, cfg)
        assert len(history) == 3

    def test_loss_decreases_on_learnable_signal(self):
        ds = tiny_dataset(n_samples=30, seed=6)
        cfg = TrainConfig(hidden_size=8, epochs=25, learning_rate=0.01, seed=3)
        _, _, history = train(ds, cfg)
        assert history[-1] < history[0]

    def test_bitwise_deterministic(self):
        ds = tiny_dataset()
        cfg = TrainConfig(hidden_size=5, epochs=4, learning_rate=0.02, seed=7)
        params_a, head_a, hist_a = train(ds, cfg)
        params_b, head_b, hist_b = train(ds, cfg)
        npt.assert_array_equal(params_a.W_o, params_b.W_o)
        npt.assert_array_equal(head_a.W, head_b.W)
        assert hist_a == hist_b

    def test_seed_changes_outcome(self):
        ds = tiny_dataset()
        params_a, _, _ = train(ds, TrainConfig(hidden_size=5, epochs=2, learning_rate=0.02, seed=7))
        params_b, _, _ = train(ds, TrainConfig(hidden_size=5, epochs=2, learning_rate=0.02, seed=8))
        assert not np.array_equal(params_a.W_f, params_b.W_f)

    def test_divergence_raises_training_error(self):
        # Adam's step is about learning_rate whatever the gradient, so only a
        # huge step overflows the loss (in float32, 1e30 already does)
        ds = tiny_dataset()
        cfg = TrainConfig(hidden_size=4, epochs=50, learning_rate=1e200, seed=6)
        with pytest.raises(TrainingError, match="diverged at epoch 1"):
            train(ds, cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(DomainError, match="learning_rate must be positive"):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(DomainError, match="clip_norm must be positive"):
            TrainConfig(clip_norm=0.0)
        with pytest.raises(SizingError):
            TrainConfig(hidden_size=0)
        with pytest.raises(SizingError):
            TrainConfig(epochs=0)

    def test_runs_in_float32_throughout(self):
        ds = tiny_dataset(n_samples=20)
        params, head, _ = train(ds, TrainConfig(hidden_size=5, epochs=2, learning_rate=0.01, seed=4))
        assert {getattr(params, name).dtype for name in PARAM_NAMES} == {np.dtype(np.float32)}
        assert head.W.dtype == head.b.dtype == np.float32
        Hn, steps = _forward(params, ds.X.astype(np.float32))
        assert Hn.dtype == np.float32
        for step in steps:
            for field in dataclasses.fields(StepCache):
                assert getattr(step, field.name).dtype == np.float32, field.name
        grads = _backward(params, steps, (Hn @ head.W.T - ds.Y.astype(np.float32)) @ head.W)
        for name in PARAM_NAMES:
            assert getattr(grads, name).dtype == np.float32, name
        assert head.predict(Hn).dtype == np.float32

    def test_peak_memory_is_one_epoch_of_caches(self):
        # one epoch of BPTT state is n*N*(6k+d) float32 values: concat (k+d)
        # plus f, i, c_tilde, o and C (k each) per step and window; holding a
        # second epoch's caches, or tanh(C) beside C, goes past the bound
        N, n, k, d = 208, 12, 16, 5
        ds = tiny_dataset(n_samples=N, n_in=n, d=d)
        tracemalloc.start()
        try:
            train(ds, TrainConfig(hidden_size=k, epochs=3, learning_rate=0.01, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * N * (6 * k + d) * 4


def reference_latent(params: LstmParams, X) -> np.ndarray:
    """Plain per-vector loop over one window: the cell equations as written."""
    h = np.zeros(params.hidden_size)
    C = np.zeros(params.hidden_size)
    for x in X:
        concat = np.concatenate([h, x])
        f = sigmoid(params.W_f @ concat + params.b_f)
        i = sigmoid(params.W_i @ concat + params.b_i)
        c_tilde = np.tanh(params.W_C @ concat + params.b_C)
        o = sigmoid(params.W_o @ concat + params.b_o)
        C = f * C + i * c_tilde
        h = o * np.tanh(C)
    return h


# the kernel follows its params' dtype: float32 as trained and stored, float64 as tested
DTYPES = (np.float64, np.float32)


class TestLatents:
    @pytest.mark.parametrize("n_samples", [12, 64, 65, 130])
    def test_shape_and_bitwise_contract(self, n_samples):
        ds = tiny_dataset(n_samples=n_samples)
        trained, _, _ = train(ds, TrainConfig(hidden_size=5, epochs=2, learning_rate=0.01, seed=9))
        for dtype in DTYPES:
            params = as_dtype(trained, dtype)
            latents = extract_latents(params, ds)
            assert latents.shape == (ds.n_samples, 5)
            assert latents.dtype == dtype
            for row in range(ds.n_samples):
                h_n, _ = sequence_forward(params, ds.X[row])
                assert same_bits(latents[row], h_n)

    def test_slice_matches_full_dataset_rows(self):
        ds = tiny_dataset(n_samples=150)
        for dtype in DTYPES:
            params = as_dtype(init_params(2, 6, Rng(26)), dtype)
            full = extract_latents(params, ds)
            for start, stop in ((0, 1), (5, 69), (63, 150), (70, 71)):
                part = dataclasses.replace(ds, X=ds.X[start:stop], Y=ds.Y[start:stop])
                assert same_bits(extract_latents(params, part), full[start:stop])

    def test_matches_per_vector_reference(self):
        ds = tiny_dataset(n_samples=70, d=3)
        params = init_params(3, 7, Rng(27))
        latents = extract_latents(params, ds)
        expected = np.array([reference_latent(params, window) for window in ds.X])
        npt.assert_allclose(latents, expected, rtol=1e-12, atol=1e-12)

    def test_width_mismatch_rejected(self):
        params = init_params(3, 4, Rng(28))
        with pytest.raises(ShapeError):
            extract_latents(params, tiny_dataset(d=2))

    def test_all_tiles_at_once_give_each_windows_own_latent(self):
        # the README's hidden size and feature count, where BLAS picks its
        # largest kernels; 150 windows fill two tiles and part of a third
        ds = tiny_dataset(n_samples=150, n_in=6, d=5)
        trained, _, _ = train(ds, TrainConfig(hidden_size=64, epochs=2, seed=29))
        latents = extract_latents(trained, ds)
        assert latents.shape == (150, 64) and latents.dtype == np.float32
        for row in range(ds.n_samples):
            h_n, _ = sequence_forward(trained, ds.X[row])
            assert same_bits(latents[row], h_n), row


class TestSerialization:
    def test_params_round_trip(self):
        params, _, _ = train(tiny_dataset(), TrainConfig(hidden_size=4, epochs=3, seed=25))
        payload = json.loads(json.dumps(params.to_dict()))
        clone = LstmParams.from_dict(payload)
        for name in PARAM_NAMES:
            # the file holds the float32 bytes of every value
            assert payload[name] == stored(getattr(params, name), "<f4")
            assert same_bits(getattr(clone, name), getattr(params, name))

    def test_head_round_trip(self):
        ds = tiny_dataset()
        params, head, _ = train(ds, TrainConfig(hidden_size=4, epochs=3, seed=25))
        clone = LinearHead.from_dict(json.loads(json.dumps(head.to_dict())))
        assert same_bits(clone.W, head.W) and same_bits(clone.b, head.b)
        latents = extract_latents(params, ds)
        assert same_bits(clone.predict(latents), head.predict(latents))

    def test_a_value_past_float32_is_refused(self):
        # float64 weights, which can hold it, are not what the file declares
        payload = json.loads(json.dumps(as_dtype(init_params(3, 4, Rng(25)), np.float32).to_dict()))
        W_C = unstored(payload["W_C"]).astype(np.float64)
        W_C[1, 2] = 1e300
        payload["W_C"] = stored(W_C, "<f8")
        with pytest.raises(SchemaError, match="^LSTM W_C dtype must be '<f4', got '<f8'$"):
            LstmParams.from_dict(payload)
        with np.errstate(over="ignore"):
            payload["W_C"] = stored(W_C, "<f4")  # which holds it as infinity
        with pytest.raises(SchemaError, match="^LSTM W_C has non-finite values$"):
            LstmParams.from_dict(payload)

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_a_non_number_is_refused(self, value):
        # a non-number where an array's numbers go: its base64 text
        payload = json.loads(json.dumps(init_params(3, 4, Rng(25)).to_dict()))
        payload["b_o"]["data"] = value
        with pytest.raises(SchemaError, match=f"^LSTM b_o data must be base64 text, got {re.escape(repr(value))}$"):
            LstmParams.from_dict(payload)
        with pytest.raises(SchemaError, match="^linear head W data must be base64 text"):
            LinearHead.from_dict({"W": {**stored([[1.5, 2.5]], "<f4"), "data": value}, "b": stored([0.25], "<f4")})

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["W_f"].update(shape=p["W_f"]["shape"][::-1]), "W_f is (7, 4); expected (k, k+d) with d >= 1"),
            (lambda p: p.update(W_f=stored(unstored(p["W_f"]).ravel(), "<f4")), "LSTM W_f shape must be a list of 2"),
            (lambda p: p.update(b_f=stored(unstored(p["b_f"])[:, None], "<f4")), "LSTM b_f shape must be a list of 1"),
            (lambda p: p.pop("b_i"), "malformed LSTM parameters: KeyError('b_i')"),
        ],
        ids=["transposed", "flat-weights", "nested-bias", "no-bias"],
    )
    def test_a_malformed_array_is_refused(self, edit, message):
        payload = json.loads(json.dumps(init_params(3, 4, Rng(25)).to_dict()))
        edit(payload)
        with pytest.raises((SchemaError, ShapeError), match=re.escape(message)):
            LstmParams.from_dict(payload)


def test_sigmoid_matches_gate_usage():
    # the gate nonlinearity at zero pre-activation is exactly one half
    assert sigmoid(0.0) == 0.5


def plain_step(params: LstmParams, h, C, x):
    """The cell step as out-of-place expressions: the reference for ``_step``."""
    concat = np.concatenate([h, x], axis=1)
    f = sigmoid(concat @ params.W_f.T + params.b_f)
    i = sigmoid(concat @ params.W_i.T + params.b_i)
    c_tilde = np.tanh(concat @ params.W_C.T + params.b_C)
    o = sigmoid(concat @ params.W_o.T + params.b_o)
    C_new = f * C + i * c_tilde
    cache = StepCache(concat=concat, f=f, i=i, c_tilde=c_tilde, o=o, C_prev=C, C=C_new)
    return o * np.tanh(C_new), C_new, cache


def plain_backward(params: LstmParams, steps, dHn) -> LstmParams:
    """BPTT as out-of-place expressions: the reference for ``_backward``."""
    k = params.hidden_size
    grads = LstmParams(**{name: np.zeros_like(getattr(params, name)) for name in PARAM_NAMES})
    dh = dHn.copy()
    dC = np.zeros_like(dHn)
    for step in reversed(steps):
        tanh_C = np.tanh(step.C)
        do = dh * tanh_C
        dC = dC + dh * step.o * (1.0 - tanh_C**2)
        df = dC * step.C_prev
        di = dC * step.c_tilde
        dct = dC * step.i
        da_f = df * step.f * (1.0 - step.f)
        da_i = di * step.i * (1.0 - step.i)
        da_c = dct * (1.0 - step.c_tilde**2)
        da_o = do * step.o * (1.0 - step.o)
        grads.W_f += da_f.T @ step.concat
        grads.W_i += da_i.T @ step.concat
        grads.W_C += da_c.T @ step.concat
        grads.W_o += da_o.T @ step.concat
        grads.b_f += da_f.sum(axis=0)
        grads.b_i += da_i.sum(axis=0)
        grads.b_C += da_c.sum(axis=0)
        grads.b_o += da_o.sum(axis=0)
        dconcat = da_f @ params.W_f + da_i @ params.W_i + da_c @ params.W_C + da_o @ params.W_o
        dh = dconcat[:, :k]
        dC = dC * step.f
    return grads


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelExactness:
    @pytest.mark.parametrize("N, k, d", [(1, 8, 1), (64, 64, 5), (65, 32, 5), (296, 64, 5)])
    def test_step_and_backward_match_plain_expressions(self, N, k, d):
        rng = np.random.default_rng(N * 1000 + k * 10 + d)
        params = init_params(d, k, Rng(N + k))
        for name in ("b_f", "b_i", "b_C", "b_o"):
            params = with_field(params, name, rng.normal(size=k))
        X3 = rng.normal(size=(N, 4, d)) * 3.0
        h = ref_h = np.zeros((N, k))
        C = ref_C = np.zeros((N, k))
        steps, ref_steps = [], []
        for t in range(X3.shape[1]):
            h, C, cache = _step(params, h, C, X3[:, t, :])
            ref_h, ref_C, ref_cache = plain_step(params, ref_h, ref_C, X3[:, t, :])
            assert same_bits(h, ref_h) and same_bits(C, ref_C)
            for field in dataclasses.fields(StepCache):
                assert same_bits(getattr(cache, field.name), getattr(ref_cache, field.name)), field.name
            steps.append(cache)
            ref_steps.append(ref_cache)
        dHn = rng.normal(size=(N, k))
        dHn_before = dHn.copy()
        grads = _backward(params, steps, dHn)
        expected = plain_backward(params, ref_steps, dHn)
        for name in PARAM_NAMES:
            assert same_bits(getattr(grads, name), getattr(expected, name)), name
        assert same_bits(dHn, dHn_before)


def test_no_numpy_warnings_on_large_finite_inputs():
    # inputs far outside [0, 1] drive the first step's gate pre-activations
    # past +-709, where exp(-x) overflows in the naive logistic form;
    # extract_latents runs outside train's errstate block
    ds = tiny_dataset(n_samples=70, d=3)
    big = dataclasses.replace(ds, X=ds.X * 6000.0 - 3000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params, _, _ = train(big, TrainConfig(hidden_size=6, epochs=3, learning_rate=0.01, seed=11))
        latents = extract_latents(params, big)
    z = big.X[:, 0, :] @ params.W_o[:, 6:].T + params.b_o
    assert z.min() < -800.0 and z.max() > 800.0
    assert np.all(np.isfinite(latents))
