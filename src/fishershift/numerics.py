"""Dense MLP numerics on flat parameter vectors.

Everything here is 64-bit: forward passes, softmax cross-entropy, analytic
backpropagation, per-sample squared-score accumulation, and the two
optimizers (plain SGD and bias-corrected Adam). Model parameters live in a
single flat vector with a layout map so penalty and optimizer code can treat
them uniformly.

Each spec's layer slices are resolved once and cached. The forward pass,
the softmax and the one backprop routine work on a stack of M models whose
flat vectors are the rows of one (M, P) matrix, with batched products;
``forward``, ``loss_and_gradient`` and ``score_square_mean`` are their M=1
case, and the backprop serves both the gradient and the squared scores.
``forward_stack`` takes one (rows, features) batch shared by every member;
``train_visit``, the one step kernel, takes a list of one such batch per
member. The input reaches the layers as a (1 or M, rows, features) array
that broadcasts against the (M, fan_in, fan_out) weights, so every later
array is (M, rows, width). ``train_visit`` runs every minibatch step of a
batch visit for all M members in lockstep, updating private buffers in
place. Per member it performs the same floating-point operations in the
same order as the pure functions on that member's own batch, so each
member's results are bit-identical to them and to a run of that member
alone. Backprop sums each bias term over the rows with ``einsum``, which
adds the rows in order, one at a time, as numpy's own reduction over a
non-contiguous axis does, so the bits are those of ``np.add.reduce``. A
layer one unit wide, whose rows numpy sums pairwise, keeps the ufunc
reduction, as does a term of at most 64 rows in all, where the ufunc is the
faster of the two.

The module also holds the serialisation helpers that the modules above it
share: JSON field checks, the parameter-layout JSON codec, the canonical
JSON text and the atomic file write. The canonical text is byte for byte
``json.dumps(value, sort_keys=True, indent=2)`` plus a newline; a small
recursive writer produces it, joining a list of finite floats, such as a
trace's parameters, in one pass.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import tempfile
import typing
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

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

    def with_values(self, values: np.ndarray) -> "ParameterVector":
        return ParameterVector(values, self.layout)


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


# JSON's "\ud800" escape reads as a lone surrogate, which UTF-8 cannot encode,
# so no file or stream the package writes could hold such a string.
_SURROGATE = re.compile("[\ud800-\udfff]")

# How a JSON payload holds a value of each field type: (check, what an error
# message says is expected). Booleans are neither integers nor numbers.
_JSON_TYPES = {
    str: (lambda v: isinstance(v, str) and not _SURROGATE.search(v),
          "a string that UTF-8 can encode"),
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
    """The JSON form of a parameter layout, as traces store it."""
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
    """Parameters from ``payload[key]``, a list of finite numbers, laid out
    by ``payload["layout"]``, a ``layout_to_json`` list; raises ``error`` if
    either is missing or malformed."""
    layout = layout_from_json(json_field(payload, "layout", list, where, error), where, error)
    values = json_field(payload, key, tuple[float, ...], where, error)
    size = layout[-1].stop if layout else 0
    wanted = f"{where}: {key!r} must hold {size} finite numbers"
    if len(values) != size:
        raise error(wanted)
    try:
        values = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise error(wanted) from None
    if not np.isfinite(values).all():
        raise error(wanted)
    return ParameterVector(values, layout)


def parse_json(text, where: str, error):
    """The JSON value in ``text`` (a string or bytes); raises ``error`` with a
    one-line message if ``text`` is not JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not Unicode
        raise error(f"{where}: not valid JSON ({exc})") from None


def _json_text(value, pad: str) -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a value that
    starts a line indented by ``pad``."""
    inner = pad + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        items = [f"{json.dumps(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)) and value:
        # json writes a finite float as float.__repr__; a parameter list is
        # thousands of them, joined here in one pass.
        if all(type(x) is float and math.isfinite(x) for x in value):
            items = map(float.__repr__, value)
        else:
            items = [_json_text(x, inner) for x in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    # Scalars, empty containers and objects with non-string keys; json
    # escapes every newline inside a string, so each newline here is layout.
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def canonical_json(value) -> str:
    """The text of every JSON file the package writes: equal values, equal
    bytes. It is exactly ``json.dumps(value, sort_keys=True, indent=2) +
    "\\n"``, written by ``_json_text``."""
    return _json_text(value, "") + "\n"


def read_json(path, error):
    """The JSON value in the file at ``path``; raises ``error`` if it is not JSON."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), os.fspath(path), error)


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


def _input_block(spec: MlpSpec, x) -> np.ndarray:
    """``x`` checked as one float64 (rows, features) batch, a view of it
    where its dtype allows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise NumericsError("input must be 2-D (rows, features)")
    if x.shape[1] != spec.input_dim:
        raise NumericsError(f"input has {x.shape[1]} features, spec expects {spec.input_dim}")
    return x


def _block_rows(blocks: list[np.ndarray], start: int, stop: int, out=None) -> np.ndarray:
    """Rows ``start:stop`` (within bounds) of each of M blocks as one (M,
    rows, features) array: a view of a lone block, else a copy (into
    ``out``, if given)."""
    if len(blocks) == 1:
        return blocks[0][None, start:stop]
    if out is None:
        out = np.empty((len(blocks), stop - start, blocks[0].shape[1]))
    for m, block in enumerate(blocks):
        out[m] = block[start:stop]
    return out


def _check_labels(labels, rows: int, classes: int) -> np.ndarray:
    """A list of label vectors, ``rows`` labels for each input block, as one
    (blocks, rows) array."""
    if rows < 1:
        raise NumericsError("a batch needs at least one row")
    if any(np.shape(y) != (rows,) for y in labels):
        raise NumericsError(f"expected {rows} labels for each input block")
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= classes:
        raise NumericsError(f"label out of range [0, {classes})")
    return labels


def _row_offsets(members: int, rows: int, classes: int) -> np.ndarray:
    """Flat position of class 0 of every row of every member in a C-ordered
    (M, rows, classes) array; adding a label gives its logit's position."""
    return (np.arange(members)[:, None] * rows + np.arange(rows)) * classes


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


def _layers_for(spec: MlpSpec, members) -> tuple[_Layer, ...]:
    """The spec's layer plan, once every member is checked to have its layout."""
    if not members:
        raise NumericsError("a stack needs at least one member")
    layout, layers = _layer_plan(spec)
    if any(params.layout != layout for params in members):
        raise NumericsError("parameter layout does not match the model spec")
    return layers


def _views(layers: tuple[_Layer, ...], values: np.ndarray) -> list:
    """Per-layer (weight, bias, transposed weight) views into the (M, P)
    matrix ``values``, one member per row: weights (M, fan_in, fan_out),
    biases (M, 1, fan_out). They track in-place updates of ``values``."""
    views = []
    for layer in layers:
        w = values[:, layer.weight].reshape(-1, *layer.shape)
        b = None if layer.bias is None else values[:, None, layer.bias]
        views.append((w, b, w.swapaxes(-1, -2)))
    return views


def _forward_trace(layers, blocks, x: np.ndarray):
    """Each layer's input and pre-activation for every member; the last
    pre-activation is the logits. The input ``x`` (1 or M, rows, features)
    broadcasts against the members' weights; every later array is (M, rows,
    width)."""
    activations = [x]
    pre_acts = []
    h = x
    for layer, (w, b, _) in zip(layers, blocks):
        z = h @ w
        if b is not None:
            z += b
        pre_acts.append(z)
        h = np.maximum(z, 0.0) if layer.relu else z
        activations.append(h)
    return activations, pre_acts


# Bias terms of at most this many rows in all (members x rows) are summed by
# np.add.reduce, whose per-row loops then cost less than einsum's fixed set-up:
# with numpy 2.4.6 on a Xeon core, the two cross between 64 and 96 rows.
_EINSUM_ROWS = 64


def _backprop(layers, blocks, activations, pre_acts, delta, out_blocks, squared: bool):
    """Propagate each member's logit-level ``delta`` (M, rows, classes)
    back through every layer into ``out_blocks``, the ``_views`` of an (M, P)
    output matrix; the products write straight into it.

    With ``squared=False`` each block receives the batch gradient, h.T @ delta.
    With ``squared=True`` it receives the batch sum of squared per-sample
    gradients: a weight's per-sample gradient is the outer product
    h_i * delta_j, so the sum of its squares contracts to (h**2).T @ delta**2
    without materialising per-sample gradients.

    Each layer's output and pre-activation are dropped from the lists once
    backprop is past them, so a whole-batch pass holds less at once.
    """
    for i in range(len(layers) - 1, -1, -1):
        activations[i + 1] = pre_acts[i] = None
        h = activations[i]
        if squared:
            d = delta**2
            h = h**2
        else:
            d = delta
        out_weight, out_bias, _ = out_blocks[i]
        np.matmul(h.swapaxes(-1, -2), d, out=out_weight)
        if out_bias is not None:
            if d.shape[-1] > 1 and d.shape[0] * d.shape[1] > _EINSUM_ROWS:
                # numpy adds these rows in order, one at a time, running an
                # inner loop only as long as the width per row; einsum adds
                # them in the same order in one pass, so the bits are the same.
                np.einsum("mrw->mw", d, out=out_bias[:, 0, :])
            else:
                # One unit wide, the rows are contiguous and numpy sums them
                # pairwise, which einsum would not; on few rows the ufunc is
                # the faster.
                np.add.reduce(d, axis=-2, keepdims=True, out=out_bias)
        if i > 0:
            delta = delta @ blocks[i][2]
            if layers[i - 1].relu:
                delta *= pre_acts[i - 1] > 0.0


def _stack(members) -> np.ndarray:
    """The members' flat vectors as the rows of a fresh (M, P) matrix."""
    return np.stack([params.values for params in members])


def forward_stack(spec: MlpSpec, members, x) -> np.ndarray:
    """Logits of every member on ``x``, one (rows, features) batch shared
    by all of them; shape (M, rows, output_classes)."""
    x = _input_block(spec, x)
    layers = _layers_for(spec, members)
    _, pre_acts = _forward_trace(layers, _views(layers, _stack(members)), x[None])
    logits = pre_acts[-1]
    if not np.isfinite(logits).all():
        raise NumericsError("non-finite logits in forward pass")
    return logits


def forward(spec: MlpSpec, params: ParameterVector, x) -> np.ndarray:
    """Logits of shape (rows, output_classes)."""
    return forward_stack(spec, (params,), x)[0]


def _class_reduce(ufunc, values: np.ndarray) -> np.ndarray:
    """``ufunc.reduce`` over the class axis, keeping it. Below 8 classes
    numpy reduces left to right, so explicit class slices give the same bits
    without its per-row inner loop; from 8 classes on numpy sums pairwise,
    and the ufunc reduction runs."""
    classes = values.shape[-1]
    if not 2 <= classes < 8:
        return ufunc.reduce(values, axis=-1, keepdims=True)
    out = ufunc(values[..., 0:1], values[..., 1:2])
    for c in range(2, classes):
        ufunc(out, values[..., c:c + 1], out=out)
    return out


def _softmax_cross_entropy(
    logits: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy of already-checked labels per member, and the softmax rows.

    ``logits`` is (M, rows, classes) and ``positions`` (M, rows)
    holds the flat position of each row's label logit (``_row_offsets`` plus
    the label). Reductions are called as ufuncs (``np.add.reduce`` for
    ``.sum()``, a sum over the count for ``.mean()``): the same rounding,
    without the Python-level wrappers that cost more than the arithmetic at
    minibatch sizes.
    """
    shifted = logits - _class_reduce(np.maximum, logits)
    logp = shifted - np.log(_class_reduce(np.add, np.exp(shifted)))
    # Gathered in row-major order, each member's label log-probabilities
    # are contiguous, and numpy sums them pairwise, as it sums a single
    # member's 1-D block.
    picked = logp.take(positions)
    loss = -(np.add.reduce(picked, axis=-1) / positions.shape[-1])
    if not all(map(math.isfinite, loss.tolist())):
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
    labels = _check_labels([labels], n, c)
    loss, prob = _softmax_cross_entropy(logits[None], _row_offsets(1, n, c) + labels)
    return float(loss[0]), prob[0]


def _loss_and_gradient_into(layers, blocks, x, positions, grad_blocks) -> np.ndarray:
    """Mean cross-entropy of one checked batch per member; the gradients go
    into ``grad_blocks``, the ``_views`` of an (M, P) gradient matrix."""
    activations, pre_acts = _forward_trace(layers, blocks, x)
    loss, delta = _softmax_cross_entropy(pre_acts[-1], positions)
    # Output delta of the mean loss: softmax minus one-hot, over the row count.
    delta.reshape(-1)[positions] -= 1.0
    delta /= positions.shape[-1]
    _backprop(layers, blocks, activations, pre_acts, delta, grad_blocks, squared=False)
    return loss


def _single_batch(spec: MlpSpec, params: ParameterVector, x, labels):
    """The checked layers, input block and label positions of one member on
    one batch."""
    x = _input_block(spec, x)
    layers = _layers_for(spec, (params,))
    labels = _check_labels([labels], x.shape[0], spec.output_classes)
    positions = _row_offsets(1, x.shape[0], spec.output_classes) + labels
    return layers, x[None], positions


def loss_and_gradient(spec: MlpSpec, params: ParameterVector, x, labels):
    """Mean cross-entropy loss and its analytic gradient in one pass."""
    layers, x, positions = _single_batch(spec, params, x, labels)
    values = params.values[None]  # read, never written
    grad = np.empty_like(values)
    loss = _loss_and_gradient_into(
        layers, _views(layers, values), x, positions, _views(layers, grad)
    )
    if not np.isfinite(grad).all():
        raise NumericsError("non-finite gradient")
    return float(loss[0]), params.with_values(grad[0])


def score_square_mean(spec: MlpSpec, params: ParameterVector, x, labels) -> np.ndarray:
    """Per-parameter mean of squared per-sample log-likelihood gradients."""
    layers, x, positions = _single_batch(spec, params, x, labels)
    values = params.values[None]  # read, never written
    blocks = _views(layers, values)
    activations, pre_acts = _forward_trace(layers, blocks, x)
    _, prob = _softmax_cross_entropy(pre_acts[-1], positions)
    # Per-sample score at the logits: one-hot minus softmax.
    delta = np.negative(prob, out=prob)
    delta.reshape(-1)[positions] += 1.0
    acc = np.empty_like(values)
    _backprop(layers, blocks, activations, pre_acts, delta, _views(layers, acc), squared=True)
    acc /= positions.shape[-1]
    if not np.isfinite(acc).all():
        raise NumericsError("non-finite score accumulation")
    return acc[0]


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = "adam"
    learning_rate: float = 1e-3
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

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
    if params.layout != grad.layout:
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
    members,
    opt_states,
    x,
    labels,
    minibatch_size: int,
    penalty=None,
) -> tuple[tuple[ParameterVector, ...], tuple[OptimizerState, ...], tuple[float, ...]]:
    """Every minibatch step of one batch visit, for M members in lockstep.

    ``members`` and ``opt_states`` hold one parameter vector and one
    optimizer state per member; the states share one config and step count.
    ``x`` is a list of M batches, one per member, each (rows, features) with
    the same rows, and ``labels`` a list of M label vectors (rows,); members
    may pass the same array. A lone member's minibatches are views of its
    batch; with more members, batches are never stacked whole: each step
    copies only its minibatch rows of each into one (M, rows, features)
    buffer. The members are stacked into one (M, P) matrix, and each step
    runs the forward pass, softmax cross-entropy backprop, the optional
    penalty and the optimizer update for all of them at once, with batched
    products, on buffers private to this call, updated in place. Per
    member, the floating-point operations and their order are those of
    ``loss_and_gradient`` plus the penalty followed by ``optimizer_step`` on
    its own batch, so each member's results are bit-identical to that
    composition.

    Input shape, label range and ``minibatch_size >= 1`` are checked once,
    for the whole batch that every minibatch is sliced from; every member's
    cross-entropy loss and combined gradient must be finite on every step.

    ``penalty`` is ``None`` (plain cross-entropy for every member) or a pair
    ``(rows, term)``: ``rows`` indexes the penalised members, and
    ``term(values) -> (value, gradient)`` maps their live (Mp, P) parameter
    rows to per-member penalty values (Mp,) and gradients (Mp, P). Returns
    fresh parameters, fresh optimizer states and the mean step loss, one per
    member; the caller's vectors and states are never written.
    """
    layers = _layers_for(spec, members)
    for items, what in ((x, "input batch"), (labels, "label vector")):
        if not isinstance(items, (list, tuple)) or len(items) != len(members):
            raise NumericsError(f"expected one {what} per member, as a list of {len(members)}")
    blocks = [_input_block(spec, block) for block in x]
    n = blocks[0].shape[0]
    if any(block.shape[0] != n for block in blocks):
        raise NumericsError("every member's batch must have the same rows")
    labels = _check_labels(labels, n, spec.output_classes)
    if minibatch_size < 1:
        raise NumericsError(f"minibatch_size must be >= 1, got {minibatch_size}")
    shared = {(s.config, s.step_count) for s in opt_states}
    if len(opt_states) != len(members) or len(shared) != 1:
        raise NumericsError("members need optimizer states of one config and step count")
    ((cfg, t),) = shared
    if any(s.m.size != params.size for s, params in zip(opt_states, members)):
        raise NumericsError("optimizer state sized for a different model")
    values = _stack(members)
    m = np.stack([s.m for s in opt_states])
    v = np.stack([s.v for s in opt_states])
    views = _views(layers, values)
    grad = np.empty_like(values)
    grad_views = _views(layers, grad)
    classes = spec.output_classes
    offsets = _row_offsets(len(members), minibatch_size, classes)
    buffer = None  # per-member inputs: every step copies its rows of each into one buffer
    losses = []
    penalised, term = (None, None) if penalty is None else penalty
    for start in range(0, n, minibatch_size):
        yb = labels[:, start:start + minibatch_size]
        rows = yb.shape[-1]
        if rows < minibatch_size:  # the last, shorter minibatch
            offsets, buffer = _row_offsets(len(members), rows, classes), None
        xb = buffer = _block_rows(blocks, start, start + rows, buffer)
        loss = _loss_and_gradient_into(layers, views, xb, offsets + yb, grad_views)
        if term is not None:
            value, penalty_grad = term(values[penalised])
            loss[penalised] += value
            grad[penalised] += penalty_grad
        if not np.isfinite(grad).all():
            raise NumericsError("non-finite gradient")
        t += 1
        _optimizer_update(cfg, values, m, v, grad, t)
        losses.append(loss)
    layout = members[0].layout
    return (
        tuple(ParameterVector(row, layout) for row in values),
        tuple(OptimizerState(cfg, m_row, v_row, t) for m_row, v_row in zip(m, v)),
        # One contiguous row of step losses per member: numpy then sums each
        # pairwise, as it sums a single member's 1-D list.
        tuple(np.mean(np.stack(losses, axis=1), axis=1).tolist()),
    )
