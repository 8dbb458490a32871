"""A from-scratch LSTM used as a temporal feature extractor.

One cell step, with x_t the input row and [h, x] denoting concatenation:

    f_t = sigmoid(W_f [h_{t-1}, x_t] + b_f)        forget gate
    i_t = sigmoid(W_i [h_{t-1}, x_t] + b_i)        input gate
    c~_t = tanh(W_C [h_{t-1}, x_t] + b_C)          candidate cell
    C_t = f_t * C_{t-1} + i_t * c~_t               cell state
    o_t = sigmoid(W_o [h_{t-1}, x_t] + b_o)        output gate
    h_t = o_t * tanh(C_t)

The final hidden state h_n of a sequence is the latent feature vector
handed to the downstream tree ensemble. Training attaches a temporary
linear head, minimizes mean squared error on the window targets with full
backpropagation through time, and discards the head afterwards. Each epoch
is one full-batch Adam step on the gradient clipped to a global norm, so
``loss_history[e]`` is the loss of the parameters at the start of epoch e.

Training holds one epoch of BPTT state at a time: per window and step, the
k+d values of [h_{t-1}, x_t] and the k values each of f, i, c~, o and C_t,
so n_steps_in x windows x (6k + d) float32 values, about 110 MB per symbol
at the README defaults (30 steps, 2,376 windows, k=64, d=5). C_{t-1} is the
previous step's C_t, not a copy, and the backward pass recomputes tanh(C_t)
rather than store it.

There is one batched kernel: a step function over (N, k) rows and one BPTT
function, computing in the dtype of its inputs. Training runs it in float32
(DTYPE) on all windows at once. Latent extraction and the single-sequence
functions run it in the params' dtype on zero-padded tiles of TILE_ROWS rows,
so a window's latent is bitwise the same whichever windows share its tile.

All gate weights are (k, k+d) acting on the concatenated [h, x] vector;
initial h and C are zero. Weight init is uniform on +-1/sqrt(k+d) drawn in
the fixed order W_f, W_i, W_C, W_o, head; b_f starts at 1.0 so memory is
retained early in training, all other biases at zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemaError, ShapeError, SizingError, TrainingError, check_field_kinds
from .market_data import WindowedDataset, array_from_json, array_json
from .numkernel import Rng, one_blas_thread, sigmoid

_WEIGHTS = ("W_f", "W_i", "W_C", "W_o")
_BIASES = ("b_f", "b_i", "b_C", "b_o")
PARAM_FIELDS = _WEIGHTS + _BIASES

# Rows per forward tile outside training. BLAS picks its kernel by matrix
# shape, so running every window in a tile of this fixed height makes a
# window's result independent of the batch it arrives in.
TILE_ROWS = 64

# What training runs in and model files store; the kernel follows its inputs.
DTYPE = np.float32
_STORED = "<f4"  # DTYPE as a model file's array dtype

# Adam moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class LstmParams:
    W_f: np.ndarray
    W_i: np.ndarray
    W_C: np.ndarray
    W_o: np.ndarray
    b_f: np.ndarray
    b_i: np.ndarray
    b_C: np.ndarray
    b_o: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_f.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_f.shape[1] - self.W_f.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.W_f.dtype

    def validate(self) -> None:
        if self.W_f.ndim != 2 or self.W_f.shape[1] <= self.W_f.shape[0]:
            raise ShapeError(f"W_f is {self.W_f.shape}; expected (k, k+d) with d >= 1")
        k, width = self.W_f.shape
        for name in _WEIGHTS:
            w = getattr(self, name)
            if w.shape != (k, width):
                raise ShapeError(f"{name} has shape {w.shape}, expected {(k, width)}")
        for name in _BIASES:
            b = getattr(self, name)
            if b.shape != (k,):
                raise ShapeError(f"{name} has shape {b.shape}, expected {(k,)}")

    def to_dict(self) -> dict:
        return {name: array_json(getattr(self, name), _STORED) for name in PARAM_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "LstmParams":
        """Inverse of :meth:`to_dict`; raises SchemaError for a missing or malformed array."""
        try:
            arrays = {
                name: array_from_json(payload[name], f"LSTM {name}", _STORED, 2 if name in _WEIGHTS else 1)
                for name in PARAM_FIELDS
            }
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed LSTM parameters: {exc!r}") from None
        params = cls(**arrays)
        params.validate()
        return params


@dataclass
class LstmState:
    h: np.ndarray
    C: np.ndarray


def init_params(input_size: int, hidden_size: int, rng: Rng) -> LstmParams:
    """Seeded uniform init on +-1/sqrt(k+d); forget bias 1.0, others zero."""
    if input_size < 1 or hidden_size < 1:
        raise SizingError(
            f"input and hidden sizes must be at least 1, got d={input_size}, k={hidden_size}"
        )
    k, width = hidden_size, hidden_size + input_size
    if k * width > np.iinfo(np.intp).max // 8:
        raise DomainError(f"hidden size {k} needs {k}x{width} weight matrices, more than numpy can index")
    scale = 1.0 / math.sqrt(width)
    weights = {name: rng.uniform(k, width, scale) for name in _WEIGHTS}
    return LstmParams(
        **weights,
        b_f=np.ones(k),
        b_i=np.zeros(k),
        b_C=np.zeros(k),
        b_o=np.zeros(k),
    )


@dataclass
class StepCache:
    """What BPTT needs of one step: (N, k+d) for ``concat``, (N, k) for the rest."""

    concat: np.ndarray  # [h_{t-1}, x_t]
    f: np.ndarray
    i: np.ndarray
    c_tilde: np.ndarray
    o: np.ndarray
    C_prev: np.ndarray  # C_{t-1}: the previous step's ``C`` object, not a copy
    C: np.ndarray  # C_t; backward recomputes tanh(C_t) rather than store it


@dataclass
class SequenceCache:
    steps: list[StepCache]
    hidden_size: int
    input_size: int


def _affine(concat: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One gate's pre-activation concat @ W.T + b, the bias added in place."""
    z = concat @ W.T
    z += b
    return z


def _step(params: LstmParams, h: np.ndarray, C: np.ndarray, x: np.ndarray):
    """One cell step over a batch of rows: (..., k), (..., k), (..., d) -> (h, C, cache);
    stacked batches make one matrix product each, as a single batch would."""
    concat = np.concatenate([h, x], axis=-1)
    f = sigmoid(_affine(concat, params.W_f, params.b_f))
    i = sigmoid(_affine(concat, params.W_i, params.b_i))
    z_C = _affine(concat, params.W_C, params.b_C)
    c_tilde = np.tanh(z_C, out=z_C)
    o = sigmoid(_affine(concat, params.W_o, params.b_o))
    C_new = f * C
    C_new += i * c_tilde
    cache = StepCache(concat=concat, f=f, i=i, c_tilde=c_tilde, o=o, C_prev=C, C=C_new)
    return o * np.tanh(C_new), C_new, cache


def _forward(params: LstmParams, X: np.ndarray, keep_steps: bool = True):
    """Run (..., n, d) sequences from zero state; returns (H_n, per-step caches),
    the caches an empty list without ``keep_steps``."""
    h = np.zeros(X.shape[:-2] + (params.hidden_size,), X.dtype)
    C = np.zeros_like(h)
    steps = []
    for t in range(X.shape[-2]):
        h, C, cache = _step(params, h, C, X[..., t, :])
        if keep_steps:
            steps.append(cache)
    return h, steps


def _tile(rows: np.ndarray) -> np.ndarray:
    """Zero-pad along the first axis up to a whole number of TILE_ROWS rows."""
    out = np.zeros((-(-rows.shape[0] // TILE_ROWS) * TILE_ROWS,) + rows.shape[1:], rows.dtype)
    out[: rows.shape[0]] = rows
    return out


def cell_forward(params: LstmParams, x, state: LstmState):
    """One LSTM step in the params' dtype; returns the new state and the cache needed for BPTT."""
    k, d = params.hidden_size, params.input_size
    xv = np.asarray(x, dtype=params.dtype).ravel()
    if xv.size != d:
        raise ShapeError(f"input vector has length {xv.size}, expected {d}")
    if state.h.shape != (k,) or state.C.shape != (k,):
        raise ShapeError(
            f"state vectors have shapes {state.h.shape}/{state.C.shape}, expected {(k,)}"
        )
    tiles = [_tile(np.asarray(v, dtype=params.dtype)[None]) for v in (state.h, state.C, xv)]
    h, C, cache = _step(params, *tiles)
    row = StepCache(**{name: rows[0] for name, rows in vars(cache).items()})
    return LstmState(h=h[0], C=C[0]), row


def sequence_forward(params: LstmParams, X):
    """Run a (n, d) sequence from zero state in the params' dtype; returns (h_n, cache)."""
    mat = np.asarray(X, dtype=params.dtype)
    if mat.ndim != 2:
        raise ShapeError(f"expected a 2-D sequence, got {mat.ndim} dimension(s)")
    if mat.shape[0] < 1:
        raise SizingError("sequence must contain at least one step")
    if mat.shape[1] != params.input_size:
        raise ShapeError(
            f"sequence has {mat.shape[1]} feature(s), params expect {params.input_size}"
        )
    H, steps = _forward(params, _tile(mat[None]))
    seq_cache = SequenceCache(steps=steps, hidden_size=params.hidden_size, input_size=params.input_size)
    return H[0], seq_cache


def _sigmoid_chain(upstream, other, g, scratch):
    """upstream * other * g * (1 - g), left to right; overwrites ``scratch``."""
    out = upstream * other
    out *= g
    np.subtract(1.0, g, out=scratch)
    out *= scratch
    return out


def _tanh_chain(upstream, other, t, scratch):
    """upstream * other * (1 - t**2), left to right; overwrites ``scratch``."""
    out = upstream * other
    np.square(t, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    out *= scratch
    return out


def _backward(params: LstmParams, steps: list[StepCache], dHn: np.ndarray) -> LstmParams:
    """Backpropagation through time over batched step caches from a gradient on H_n;
    the gradients come back as an LstmParams.

    Products are taken left to right in the order the chain rule writes them,
    so the in-place arithmetic rounds exactly like the plain expressions.
    """
    k = params.hidden_size
    grads = LstmParams(**{name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS})
    dh = dHn
    dC = np.zeros_like(dHn)
    scratch = np.empty_like(dHn)
    for step in reversed(steps):
        tanh_C = np.tanh(step.C)
        dC += _tanh_chain(dh, step.o, tanh_C, scratch)
        da_f = _sigmoid_chain(dC, step.C_prev, step.f, scratch)
        da_i = _sigmoid_chain(dC, step.c_tilde, step.i, scratch)
        da_c = _tanh_chain(dC, step.i, step.c_tilde, scratch)
        da_o = _sigmoid_chain(dh, tanh_C, step.o, scratch)
        grads.W_f += da_f.T @ step.concat
        grads.W_i += da_i.T @ step.concat
        grads.W_C += da_c.T @ step.concat
        grads.W_o += da_o.T @ step.concat
        grads.b_f += da_f.sum(axis=0)
        grads.b_i += da_i.sum(axis=0)
        grads.b_C += da_c.sum(axis=0)
        grads.b_o += da_o.sum(axis=0)
        dconcat = da_f @ params.W_f
        dconcat += da_i @ params.W_i
        dconcat += da_c @ params.W_C
        dconcat += da_o @ params.W_o
        dh = dconcat[:, :k]
        dC *= step.f
    return grads


def sequence_backward(params: LstmParams, cache: SequenceCache, grad_h_n) -> LstmParams:
    """Full backpropagation through time from a gradient on h_n alone.

    Returns the parameter gradients as an LstmParams. A zero incoming
    gradient yields exactly zero everywhere.
    """
    k = params.hidden_size
    if cache.hidden_size != k or cache.input_size != params.input_size:
        raise ShapeError(
            f"cache was built for k={cache.hidden_size}, d={cache.input_size}; "
            f"params have k={k}, d={params.input_size}"
        )
    dh = np.asarray(grad_h_n, dtype=params.dtype).ravel()
    if dh.size != k:
        raise ShapeError(f"gradient on h_n has length {dh.size}, expected {k}")
    # the padding rows get a zero gradient, so they add exact zeros
    return _backward(params, cache.steps, _tile(dh[None]))


@dataclass
class LinearHead:
    """Temporary readout h_n -> horizon used only during pre-training."""

    W: np.ndarray  # (n_out, k)
    b: np.ndarray  # (n_out,)

    def predict(self, latents) -> np.ndarray:
        Z = np.asarray(latents, dtype=self.W.dtype)
        if Z.ndim != 2 or Z.shape[1] != self.W.shape[1]:
            raise ShapeError(
                f"latents have shape {Z.shape}, head expects (N, {self.W.shape[1]})"
            )
        return Z @ self.W.T + self.b

    def to_dict(self) -> dict:
        return {"W": array_json(self.W, _STORED), "b": array_json(self.b, _STORED)}

    @classmethod
    def from_dict(cls, payload: dict) -> "LinearHead":
        """Inverse of :meth:`to_dict`; raises SchemaError for a malformed head."""
        try:
            head = cls(
                array_from_json(payload["W"], "linear head W", _STORED, 2),
                array_from_json(payload["b"], "linear head b", _STORED, 1),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed linear head: {exc!r}") from None
        if head.b.shape != head.W.shape[:1]:
            raise SchemaError(f"head W {head.W.shape} and b {head.b.shape} are not (n_out, k) and (n_out,)")
        return head


@dataclass
class TrainConfig:
    hidden_size: int = 64
    epochs: int = 100
    learning_rate: float = 0.005
    seed: int = 42
    clip_norm: float = 5.0

    def __post_init__(self):
        check_field_kinds(self)
        if self.hidden_size < 1:
            raise SizingError(f"hidden_size must be at least 1, got {self.hidden_size}")
        if self.epochs < 1:
            raise SizingError(f"epochs must be at least 1, got {self.epochs}")
        if not self.learning_rate > 0:
            raise DomainError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.seed < 0:
            raise DomainError(f"seed must be at least 0, got {self.seed}")
        if self.seed >= 2**64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if not self.clip_norm > 0:
            raise DomainError(f"clip_norm must be positive, got {self.clip_norm}")


class _Adam:
    def __init__(self, lr: float, tensors: dict):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(t) for name, t in tensors.items()}
        self.v = {name: np.zeros_like(t) for name, t in tensors.items()}

    def step(self, tensors: dict, grads: dict):
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1**self.t
        correction2 = 1.0 - ADAM_BETA2**self.t
        for name, grad in grads.items():
            m = self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * grad
            v = self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / correction1
            v_hat = v / correction2
            tensors[name] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _clip_global(grads: dict, clip_norm: float):
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if norm > clip_norm:
        factor = clip_norm / norm
        for g in grads.values():
            g *= factor


def train(dataset: WindowedDataset, config: TrainConfig):
    """Pre-train an LSTM on windowed data through a temporary linear head.

    Runs in DTYPE. Each epoch is one Adam step on the full-batch gradient,
    clipped to global norm ``config.clip_norm``. Returns (params, head,
    loss_history) where loss_history[e] is the mean squared error over the
    whole dataset of the parameters at the start of epoch e. Deterministic
    for a fixed seed: the epochs run with BLAS on one thread where its
    thread count can be set, so the bits do not depend on the core count.
    """
    N = dataset.n_samples
    if N < 1:
        raise SizingError("cannot train on an empty dataset")
    X3 = np.asarray(dataset.X, dtype=DTYPE)
    Y = np.asarray(dataset.Y, dtype=DTYPE)
    n_out = Y.shape[1]
    d = X3.shape[2]
    k = config.hidden_size

    rng = Rng(config.seed)
    params = LstmParams(**{name: t.astype(DTYPE) for name, t in vars(init_params(d, k, rng)).items()})
    head = LinearHead(W=rng.uniform(n_out, k, 1.0 / math.sqrt(k)).astype(DTYPE), b=np.zeros(n_out, DTYPE))

    tensors = {"head_W": head.W, "head_b": head.b, **vars(params)}
    optimizer = _Adam(config.learning_rate, tensors)
    history: list[float] = []
    # overflow during a diverging run is reported via TrainingError below,
    # not as a numpy warning; one BLAS thread keeps the bits machine-independent
    with np.errstate(over="ignore", invalid="ignore"), one_blas_thread():
        for epoch in range(config.epochs):
            Hn, steps = _forward(params, X3)
            err = Hn @ head.W.T + head.b - Y
            loss = float((err * err).sum()) / (N * n_out)
            if not math.isfinite(loss):
                raise TrainingError(f"training diverged at epoch {epoch}: loss is not finite")
            history.append(loss)
            dpred = (2.0 / (N * n_out)) * err
            lstm_grads = _backward(params, steps, dpred @ head.W)
            # drop this epoch's caches before the next forward builds its own
            del steps
            grads = {"head_W": dpred.T @ Hn, "head_b": dpred.sum(axis=0), **vars(lstm_grads)}
            _clip_global(grads, config.clip_norm)
            optimizer.step(tensors, grads)
    return params, head, history


def extract_latents(params: LstmParams, dataset: WindowedDataset) -> np.ndarray:
    """Final hidden state of every window, one row per sample.

    The windows, zero-padded to a whole number of tiles of TILE_ROWS rows,
    run through the training forward together as (tiles, TILE_ROWS, n, d),
    with no step caches kept. Every product is one tile's, of the same shape,
    so row i is bitwise identical to :func:`sequence_forward` on window i
    alone, whatever other windows are extracted with it.
    """
    X3 = np.asarray(dataset.X, dtype=params.dtype)
    if X3.ndim != 3 or X3.shape[2] != params.input_size:
        raise ShapeError(
            f"windows have shape {X3.shape}, params expect (N, n, {params.input_size})"
        )
    H, _ = _forward(params, _tile(X3).reshape(-1, TILE_ROWS, *X3.shape[1:]), keep_steps=False)
    return H.reshape(-1, params.hidden_size)[: X3.shape[0]]
