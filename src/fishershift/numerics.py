"""Dense MLP numerics on flat parameter vectors.

Everything here is 64-bit: forward passes, softmax cross-entropy, analytic
backpropagation, per-sample squared-score accumulation, and the two
optimizers (plain SGD and bias-corrected Adam). Model parameters live in a
single flat vector with a layout map so penalty and optimizer code can treat
them uniformly.

Each spec's layer slices are resolved once and cached. One backprop routine
serves both the gradient and the squared scores. ``train_visit`` fuses all
minibatch steps of a batch visit into one loop that updates private buffers
in place, with the same floating-point operations in the same order as the
pure functions, so the results are bit-identical to them.

The module also holds the serialisation helpers that the modules above it
share: JSON field checks, the parameter-layout JSON codec and the atomic
file write.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import tempfile
import typing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ACTIVATIONS = ("relu", "identity")
OPTIMIZER_KINDS = ("sgd", "adam")


class NumericsError(ValueError):
    """Shape mismatch or a non-finite value where a finite one is required."""


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a small multilayer perceptron classifier.

    ``hidden_layers`` is a sequence of ``(width, activation)`` pairs; the
    output layer is always linear, with softmax applied inside the loss.
    The default mirrors the tabular configuration used throughout the
    benchmarks: one hidden layer of 4 relu units.
    """

    input_dim: int
    hidden_layers: tuple[tuple[int, str], ...] = ((4, "relu"),)
    output_classes: int = 2
    bias: bool = True

    def __post_init__(self):
        if self.input_dim < 1:
            raise NumericsError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.output_classes < 2:
            raise NumericsError(
                f"output_classes must be >= 2, got {self.output_classes}"
            )
        hidden = tuple((int(w), str(a)) for w, a in self.hidden_layers)
        for width, activation in hidden:
            if width < 1:
                raise NumericsError(f"hidden width must be >= 1, got {width}")
            if activation not in ACTIVATIONS:
                raise NumericsError(f"unknown activation {activation!r}")
        object.__setattr__(self, "hidden_layers", hidden)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        """Unit counts from input to logits, e.g. (2, 4, 2)."""
        return (self.input_dim, *(w for w, _ in self.hidden_layers), self.output_classes)


@dataclass(frozen=True)
class LayerSlice:
    """One named block of the flat parameter vector."""

    name: str
    shape: tuple[int, ...]
    start: int
    stop: int


def parameter_layout(spec: MlpSpec) -> tuple[LayerSlice, ...]:
    """Ordered (weight, bias) slices for every layer of ``spec``."""
    dims = spec.layer_dims
    slices = []
    offset = 0
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        size = fan_in * fan_out
        slices.append(LayerSlice(f"layer{i}.weight", (fan_in, fan_out), offset, offset + size))
        offset += size
        if spec.bias:
            slices.append(LayerSlice(f"layer{i}.bias", (fan_out,), offset, offset + fan_out))
            offset += fan_out
    return tuple(slices)


@dataclass(frozen=True)
class ParameterVector:
    """Flat float64 parameter vector plus the layout that interprets it.

    Immutable to callers: operations return fresh vectors and never write
    through ``values``. ``train_visit`` updates its own private copy in
    place and wraps it in a fresh vector only once the visit is done.
    """

    values: np.ndarray
    layout: tuple[LayerSlice, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise NumericsError("parameter values must be a flat 1-D vector")
        expected = self.layout[-1].stop if self.layout else 0
        if values.size != expected:
            raise NumericsError(
                f"parameter vector has {values.size} entries, layout expects {expected}"
            )
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size

    def view(self, name: str) -> np.ndarray:
        """Reshaped view of one named block."""
        for s in self.layout:
            if s.name == name:
                return self.values[s.start:s.stop].reshape(s.shape)
        raise KeyError(name)

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        return ParameterVector(values, self.layout)

    def same_layout(self, other: "ParameterVector") -> bool:
        return self.layout == other.layout


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(map(check, v))


def _object_of(check):
    return lambda v: isinstance(v, dict) and all(
        isinstance(k, str) and check(x) for k, x in v.items()
    )


# How a JSON payload holds a value of each field type: (check, what an error
# message says is expected). Booleans are neither integers nor numbers.
_JSON_TYPES = {
    str: (lambda v: isinstance(v, str), "a string"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    int: (_is_int, "an integer"),
    float: (_is_number, "a number"),
    float | None: (lambda v: v is None or _is_number(v), "a number or null"),
    list: (lambda v: isinstance(v, list), "a list"),
    dict: (lambda v: isinstance(v, dict), "an object"),
    tuple[int, ...]: (_list_of(_is_int), "a list of integers"),
    tuple[float, ...]: (_list_of(_is_number), "a list of numbers"),
    tuple[tuple[float, float], ...]: (
        _list_of(lambda p: isinstance(p, list) and len(p) == 2 and all(map(_is_number, p))),
        "a list of number pairs",
    ),
    dict[str, float]: (_object_of(_is_number), "an object of numbers"),
    dict[str, tuple[float, ...]]: (_object_of(_list_of(_is_number)), "an object of number lists"),
}


def json_object(value, where: str, error) -> dict:
    """``value`` if it is a JSON object; otherwise raises ``error``."""
    if not isinstance(value, dict):
        raise error(f"{where} must be a JSON object")
    return value


def check_version(payload: dict, key: str, supported: int, what: str, error) -> None:
    """Raise ``error`` unless ``payload[key]`` is the integer ``supported``."""
    version = payload.get(key)
    if not _is_int(version) or version != supported:
        raise error(f"unsupported {what} {version!r}")


def json_field(payload: dict, key: str, kind, where: str, error):
    """``payload[key]`` if present and a ``kind`` (a key of ``_JSON_TYPES``);
    otherwise raises ``error``."""
    if key not in payload:
        raise error(f"{where}: missing key {key!r}")
    check, expected = _JSON_TYPES[kind]
    if not check(payload[key]):
        raise error(f"{where}: {key!r} must be {expected}")
    return payload[key]


_type_hints = functools.lru_cache(maxsize=None)(typing.get_type_hints)


def fields_from_json(cls, payload, where: str, error, keys=None) -> dict:
    """Keyword arguments for dataclass ``cls`` from a JSON object.

    ``keys`` maps a field to its JSON key where the two differ. Raises
    ``error`` on a payload that is not an object, an unknown key, a missing
    field without a default, and a value of the wrong type for its field.
    """
    json_object(payload, where, error)
    hints = _type_hints(cls)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    key_of = {name: (keys or {}).get(name, name) for name in fields}
    unknown = set(payload) - set(key_of.values())
    if unknown:
        raise error(f"unknown {where} fields: {sorted(unknown)}")
    return {
        name: json_field(payload, key_of[name], hints[name], where, error)
        for name, f in fields.items()
        if key_of[name] in payload or f.default is dataclasses.MISSING
    }


def layout_to_json(layout: tuple[LayerSlice, ...]) -> list[dict]:
    """The JSON form of a parameter layout, as snapshots and traces store it."""
    return [{**dataclasses.asdict(s), "shape": list(s.shape)} for s in layout]


def layout_from_json(items: list, where: str, error) -> tuple[LayerSlice, ...]:
    """Parse ``layout_to_json`` output.

    Raises ``error`` on a missing key or a wrongly typed value, and on slices
    that do not tile the flat vector in order, each as long as its shape.
    """
    layout = []
    for i, item in enumerate(items):
        at = f"{where} layout[{i}]"
        fields = fields_from_json(LayerSlice, item, at, error)
        piece = LayerSlice(**{**fields, "shape": tuple(fields["shape"])})
        begins = layout[-1].stop if layout else 0
        size = math.prod(piece.shape)
        if piece.start != begins or piece.stop - begins != size or min(piece.shape, default=1) < 1:
            raise error(f"{at}: slice does not continue the layout")
        layout.append(piece)
    return tuple(layout)


def params_from_json(payload: dict, key: str, where: str, error) -> ParameterVector:
    """Parameters from ``payload[key]``, a number list, laid out by
    ``payload["layout"]``, a ``layout_to_json`` list; raises ``error`` if
    either is missing or malformed."""
    layout = layout_from_json(json_field(payload, "layout", list, where, error), where, error)
    values = json_field(payload, key, tuple[float, ...], where, error)
    size = layout[-1].stop if layout else 0
    if len(values) != size:
        raise error(f"{where}: {key!r} must hold {size} numbers")
    return ParameterVector(np.asarray(values, dtype=np.float64), layout)


def write_atomic(path, content: str) -> None:
    """Write ``content`` exactly (no newline translation) through a temp file
    and a rename: a failed write leaves an earlier file intact and no temp
    file behind."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def zero_params(spec: MlpSpec) -> ParameterVector:
    layout = parameter_layout(spec)
    n = layout[-1].stop if layout else 0
    return ParameterVector(np.zeros(n), layout)


def init_params(spec: MlpSpec, seed: int) -> ParameterVector:
    """Seeded Glorot-uniform weights (bounds sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)
    layout = parameter_layout(spec)
    values = np.zeros(layout[-1].stop if layout else 0)
    for s in layout:
        if s.name.endswith(".weight"):
            fan_in, fan_out = s.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            values[s.start:s.stop] = rng.uniform(-bound, bound, size=s.stop - s.start)
    return ParameterVector(values, layout)


def _check_input(spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise NumericsError(f"input must be 2-D (rows, features), got ndim={x.ndim}")
    if x.shape[1] != spec.input_dim:
        raise NumericsError(
            f"input has {x.shape[1]} features, spec expects {spec.input_dim}"
        )
    return x


def _check_labels(labels, n: int, classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise NumericsError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= classes:
        raise NumericsError(f"label out of range [0, {classes})")
    return labels


class _Layer(NamedTuple):
    """Where one affine layer lives in the flat vector, and its activation."""

    weight: slice
    shape: tuple[int, int]
    bias: slice | None
    relu: bool  # relu on this layer's output; False for identity and the logits


@functools.lru_cache(maxsize=None)
def _layer_plan(spec: MlpSpec) -> tuple[tuple[LayerSlice, ...], tuple[_Layer, ...]]:
    """The spec's layout and per-layer slices, resolved once per spec."""
    layout = parameter_layout(spec)
    by_name = {s.name: s for s in layout}
    n_layers = len(spec.layer_dims) - 1
    layers = []
    for i in range(n_layers):
        w = by_name[f"layer{i}.weight"]
        b = by_name.get(f"layer{i}.bias")
        layers.append(
            _Layer(
                weight=slice(w.start, w.stop),
                shape=w.shape,
                bias=None if b is None else slice(b.start, b.stop),
                relu=i < n_layers - 1 and spec.hidden_layers[i][1] == "relu",
            )
        )
    return layout, tuple(layers)


def _layers_for(spec: MlpSpec, params: ParameterVector) -> tuple[_Layer, ...]:
    layout, layers = _layer_plan(spec)
    if params.layout != layout:
        raise NumericsError("parameter layout does not match the model spec")
    return layers


def _views(layers: tuple[_Layer, ...], values: np.ndarray) -> list:
    """Per-layer (weight, bias) views into ``values``; they track in-place updates."""
    return [
        (
            values[layer.weight].reshape(layer.shape),
            None if layer.bias is None else values[layer.bias],
        )
        for layer in layers
    ]


def _forward_trace(layers, blocks, x: np.ndarray):
    """Each layer's input and pre-activation; the last pre-activation is the logits."""
    activations = [x]
    pre_acts = []
    h = x
    for layer, (w, b) in zip(layers, blocks):
        z = h @ w
        if b is not None:
            z += b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if layer.relu else z
        activations.append(h)
    return activations, pre_acts


def _backprop(layers, blocks, activations, pre_acts, delta, out: np.ndarray, squared: bool):
    """Propagate a logit-level ``delta`` back through every layer into ``out``.

    With ``squared=False`` each block receives the batch gradient, h.T @ delta.
    With ``squared=True`` it receives the batch sum of squared per-sample
    gradients: a weight's per-sample gradient is the outer product
    h_i * delta_j, so the sum of its squares contracts to (h**2).T @ delta**2
    without materialising per-sample gradients.
    """
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        h = activations[i]
        if squared:
            d = delta**2
            out[layer.weight] = ((h**2).T @ d).ravel()
        else:
            d = delta
            out[layer.weight] = (h.T @ d).ravel()
        if layer.bias is not None:
            out[layer.bias] = np.add.reduce(d, axis=0)
        if i > 0:
            delta = delta @ blocks[i][0].T
            if layers[i - 1].relu:
                delta *= pre_acts[i - 1] > 0.0


def forward(spec: MlpSpec, params: ParameterVector, x) -> np.ndarray:
    """Logits of shape (rows, output_classes)."""
    x = _check_input(spec, x)
    layers = _layers_for(spec, params)
    _, pre_acts = _forward_trace(layers, _views(layers, params.values), x)
    logits = pre_acts[-1]
    if not np.all(np.isfinite(logits)):
        raise NumericsError("non-finite logits in forward pass")
    return logits


def _softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, rows: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of already-checked labels, and the softmax rows.

    ``rows`` is ``np.arange(len(logits))``. Reductions are called as ufuncs
    (``np.add.reduce`` for ``.sum()``, a sum over the count for ``.mean()``):
    the same rounding, without the Python-level wrappers that cost more than
    the arithmetic at minibatch sizes.
    """
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    loss = float(-(np.add.reduce(logp[rows, labels]) / rows.size))
    if not math.isfinite(loss):
        raise NumericsError("non-finite cross-entropy loss")
    return loss, np.exp(logp, out=logp)


def cross_entropy_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean negative log softmax probability of the labels.

    Returns ``(loss, prob)`` where ``prob`` holds the softmax rows.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise NumericsError("logits must be 2-D")
    n, c = logits.shape
    return _softmax_cross_entropy(logits, _check_labels(labels, n, c), np.arange(n))


def _loss_and_gradient_into(layers, blocks, x, labels, rows, grad: np.ndarray) -> float:
    """Mean cross-entropy of one checked batch; its gradient goes into ``grad``."""
    activations, pre_acts = _forward_trace(layers, blocks, x)
    loss, delta = _softmax_cross_entropy(pre_acts[-1], labels, rows)
    # Output delta of the mean loss: softmax minus one-hot, over the row count.
    delta[rows, labels] -= 1.0
    delta /= rows.size
    _backprop(layers, blocks, activations, pre_acts, delta, grad, squared=False)
    return loss


def loss_and_gradient(spec: MlpSpec, params: ParameterVector, x, labels):
    """Mean cross-entropy loss and its analytic gradient in one pass."""
    x = _check_input(spec, x)
    labels = _check_labels(labels, x.shape[0], spec.output_classes)
    layers = _layers_for(spec, params)
    grad = np.empty(params.size)
    blocks = _views(layers, params.values)
    loss = _loss_and_gradient_into(layers, blocks, x, labels, np.arange(x.shape[0]), grad)
    if not np.all(np.isfinite(grad)):
        raise NumericsError("non-finite gradient")
    return loss, params.with_values(grad)


def score_square_mean(spec: MlpSpec, params: ParameterVector, x, labels) -> np.ndarray:
    """Per-parameter mean of squared per-sample log-likelihood gradients."""
    x = _check_input(spec, x)
    labels = _check_labels(labels, x.shape[0], spec.output_classes)
    layers = _layers_for(spec, params)
    blocks = _views(layers, params.values)
    activations, pre_acts = _forward_trace(layers, blocks, x)
    n = x.shape[0]
    rows = np.arange(n)
    _, prob = _softmax_cross_entropy(pre_acts[-1], labels, rows)
    # Per-sample score at the logits: one-hot minus softmax.
    delta = -prob
    delta[rows, labels] += 1.0
    acc = np.empty(params.size)
    _backprop(layers, blocks, activations, pre_acts, delta, acc, squared=True)
    acc /= n
    if not np.all(np.isfinite(acc)):
        raise NumericsError("non-finite score accumulation")
    return acc


def mean_log_likelihood(spec: MlpSpec, params: ParameterVector, x, labels) -> float:
    """Mean log P(label | input); the negation of the cross-entropy loss."""
    logits = forward(spec, params, x)
    loss, _ = cross_entropy_loss(logits, labels)
    return -loss


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise NumericsError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate > 0:
            raise NumericsError("learning_rate must be > 0")


@dataclass(frozen=True)
class OptimizerState:
    """Optimizer hyperparameters plus Adam moment vectors sized to the model."""

    config: OptimizerConfig
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        if self.m.shape != self.v.shape:
            raise NumericsError("moment vectors must have equal shapes")
        if np.any(self.v < 0):
            raise NumericsError("second-moment entries must be nonnegative")


def init_optimizer_state(config: OptimizerConfig, n_params: int) -> OptimizerState:
    return OptimizerState(config, np.zeros(n_params), np.zeros(n_params), 0)


def _optimizer_update(
    cfg: OptimizerConfig, values: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int
) -> None:
    """Update number ``t`` (1-based), in place on ``values``, ``m`` and ``v``.

    Every operation matches the out-of-place textbook form in order and
    rounding (``m = b1*m + (1-b1)*g``, ``values - lr*m_hat / (sqrt(v_hat) +
    eps)``), so the results are bit-identical to it.
    """
    if cfg.kind == "sgd":
        values -= cfg.learning_rate * g
        return
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g**2
    step = m / (1.0 - cfg.beta1**t)
    step *= cfg.learning_rate
    denom = v / (1.0 - cfg.beta2**t)
    np.sqrt(denom, out=denom)
    denom += cfg.eps
    step /= denom
    values -= step


def optimizer_step(
    state: OptimizerState, params: ParameterVector, grad: ParameterVector
) -> tuple[ParameterVector, OptimizerState]:
    """One SGD or bias-corrected Adam update; returns fresh values."""
    if not params.same_layout(grad):
        raise NumericsError("parameter and gradient layouts differ")
    g = grad.values
    if not np.all(np.isfinite(g)):
        raise NumericsError("non-finite gradient passed to optimizer")
    if g.size != state.m.size:
        raise NumericsError("optimizer state sized for a different model")
    values, m, v = params.values.copy(), state.m.copy(), state.v.copy()
    t = state.step_count + 1
    _optimizer_update(state.config, values, m, v, g, t)
    return params.with_values(values), OptimizerState(state.config, m, v, t)


def train_visit(
    spec: MlpSpec,
    params: ParameterVector,
    opt_state: OptimizerState,
    x,
    labels,
    minibatch_size: int,
    penalty=None,
) -> tuple[ParameterVector, OptimizerState, float]:
    """Every minibatch step of one batch visit, fused into one loop.

    Each step runs the forward pass, softmax cross-entropy backprop, the
    optional penalty term and the optimizer update on buffers private to
    this call, updated in place. The floating-point operations and their
    order are those of ``loss_and_gradient`` plus the penalty followed by
    ``optimizer_step``, so the results are bit-identical to that composition.

    Input shape and label range are checked once, for the whole batch that
    every minibatch is sliced from; the cross-entropy loss and the combined
    gradient must be finite on every step.

    ``penalty(values) -> (value, gradient)`` adds a term of the live flat
    parameters to each step's loss and gradient; ``None`` trains on plain
    cross-entropy. Returns fresh parameters, a fresh optimizer state and the
    mean step loss; the caller's ``params`` and ``opt_state`` are never
    written.
    """
    x = _check_input(spec, x)
    n = x.shape[0]
    labels = _check_labels(labels, n, spec.output_classes)
    layers = _layers_for(spec, params)
    if opt_state.m.size != params.size:
        raise NumericsError("optimizer state sized for a different model")
    cfg = opt_state.config
    values, m, v = params.values.copy(), opt_state.m.copy(), opt_state.v.copy()
    t = opt_state.step_count
    blocks = _views(layers, values)
    grad = np.empty_like(values)
    all_rows = np.arange(minibatch_size)
    losses = []
    for start in range(0, n, minibatch_size):
        xb = x[start:start + minibatch_size]
        yb = labels[start:start + minibatch_size]
        loss = _loss_and_gradient_into(layers, blocks, xb, yb, all_rows[:yb.size], grad)
        if penalty is not None:
            value, penalty_grad = penalty(values)
            loss += value
            grad += penalty_grad
        if not np.isfinite(grad).all():
            raise NumericsError("non-finite gradient")
        t += 1
        _optimizer_update(cfg, values, m, v, grad, t)
        losses.append(loss)
    return (
        ParameterVector(values, params.layout),
        OptimizerState(cfg, m, v, t),
        float(np.mean(losses)),
    )
