"""Differentiable zero-shot scorers with frozen class embeddings.

A scorer flattens the input image, pushes it through a small stack of
linear(+ReLU) layers to an embedding ``e``, L2-normalizes it, and scores
each class ``j`` as ``temperature * <e_hat, z_j>`` against a frozen,
unit-norm class-embedding matrix.  Training only ever updates the
encoder layers; the class side stays fixed, so the model behaves like a
zero-shot classifier whose prompt embeddings were computed once.

Gradients are exact reverse-mode derivatives of the cross-entropy loss
with respect to every input pixel, including the Jacobian of the L2
normalization, ``(I - e_hat e_hat^T) / ||e||``.
"""

from __future__ import annotations

import copy
import json
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, Sequence

import numpy as np

from .attribution import _integrate_rows
from .tensor import SeededRng, Tensor, require_finite, require_integer

if TYPE_CHECKING:
    from .data import Dataset

NORM_EPS = 1e-12
_ACTIVATIONS = ("relu", "identity")


@dataclass
class Layer:
    weights: Tensor  # (fan_out, fan_in)
    bias: Tensor  # (fan_out,)
    activation: str = "relu"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("layer weights must be rank-2 and bias rank-1")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"layer fan-out mismatch: weights {self.weights.shape}, bias {self.bias.shape}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        require_finite(self.weights, "weights")
        require_finite(self.bias, "bias")


@dataclass
class ScorerModel:
    layers: list[Layer]
    class_embeddings: Tensor  # (num_classes, embed_dim), unit-norm rows
    temperature: float
    input_shape: tuple[int, int, int]
    class_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.class_embeddings = np.asarray(self.class_embeddings, dtype=np.float64)
        self.input_shape = tuple(int(s) for s in self.input_shape)
        check_train_setting("temperature", self.temperature)
        if self.class_embeddings.ndim != 2:
            raise ValueError("class embeddings must be a (classes, dim) matrix")
        # JSON round-trips NaN, and a NaN norm passes the unit-norm test below.
        require_finite(self.class_embeddings, "class embeddings")
        norms = np.linalg.norm(self.class_embeddings, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("class embedding rows must have unit L2 norm")
        n_in = int(np.prod(self.input_shape))
        for i, layer in enumerate(self.layers):
            if layer.weights.shape[1] != n_in:
                raise ValueError(
                    f"layer {i} expects fan-in {layer.weights.shape[1]}, chain provides {n_in}")
            n_in = layer.weights.shape[0]
        if n_in != self.class_embeddings.shape[1]:
            raise ValueError(
                f"encoder output dim {n_in} != class embedding dim {self.class_embeddings.shape[1]}")
        if self.class_names and len(self.class_names) != self.num_classes:
            raise ValueError(f"{len(self.class_names)} class names for "
                             f"{self.num_classes} class embedding rows")

    @property
    def num_classes(self) -> int:
        return self.class_embeddings.shape[0]

    # Looked up by name at call time, so a wrapped module-level forward or
    # backward is the one that runs.
    def logits(self, images: np.ndarray) -> Tensor:
        return forward(self, images)

    def __call__(self, images: np.ndarray, labels) -> LossGrads:
        return backward(self, images, labels)

    def integrate_path(self, baseline: np.ndarray, target: np.ndarray, ts: np.ndarray,
                       ws: np.ndarray, label):
        """The straight path from ``baseline`` to ``target`` at nodes ``ts``,
        integrated in the coordinates of the first layer's pre-activations:
        the weighted mean input gradient (weights ``ws``), and the loss and
        logits at each node.

        The first layer is affine, so its pre-activations along the path are
        z(t) = z0 + t (zN - z0): one 2-row product gives the endpoints, and
        ``_integrate_rows`` integrates that path with a gradient function
        that returns dL/dz, so no (N+1)-row batch of images is built.  The
        input gradient's mean is the mean of dL/dz times the first layer's
        weights, one more product.  Both batched products see their batch in
        one orientation, so swapping the endpoints of a trapezoid path
        negates IG bit for bit.
        """
        ends = check_images(np.stack((baseline, target)), self.input_shape).reshape(2, -1)
        if self.layers:
            rows = _orientation(ends)
            ends = _affine(self.layers[0], ends[rows])[rows]
        mean, losses, logits = _integrate_rows(partial(_oriented_backward, self, from_first=True),
                                               ends[0], ends[1], ts, ws, label)
        if self.layers:
            mean = mean @ self.layers[0].weights
        return mean.reshape(self.input_shape), losses, logits


@dataclass
class LossGrads:
    """One batched gradient call: row ``b`` belongs to ``images[b]``."""
    losses: Tensor  # (batch,)
    grads: Tensor  # (batch, *input_shape)
    logits: Tensor  # (batch, num_classes)


# images[B, H, W, C], labels[B] -> LossGrads
GradFn = Callable[[np.ndarray, np.ndarray], LossGrads]


class Scorer(Protocol):
    """A classifier the harness can sweep and attribute: a ``GradFn`` with
    its input shape, its class count and a batch ``logits`` call.
    ``ScorerModel`` and a connected ``ProviderClient`` both have this form.
    ``integrated_gradients`` also uses an ``integrate_path`` member where a
    scorer has one, as ``ScorerModel`` does: it changes the path's
    coordinates and leaves the integration to ``_integrate_rows``."""
    @property
    def input_shape(self) -> tuple[int, int, int]: ...  # (H, W, C)

    @property
    def num_classes(self) -> int: ...

    def logits(self, images: np.ndarray) -> Tensor: ...  # [B, H, W, C] -> [B, K]

    def __call__(self, images: np.ndarray, labels) -> LossGrads: ...


def check_declaration(input_shape, class_names, where: str) -> None:
    """The rule a checkpoint and a provider hello both follow: ``input_shape``
    is [H, W, 3] of JSON integers >= 1 (bools are not integers), and
    ``class_names`` is a JSON list of strings; ``where`` names the source."""
    if not (isinstance(input_shape, list) and len(input_shape) == 3 and input_shape[2] == 3
            and all(type(v) is int and v >= 1 for v in input_shape)):
        raise ValueError(f"{where} input_shape must be [H, W, 3] with integers H, W >= 1, "
                         f"got {input_shape!r}")
    if not (isinstance(class_names, list) and all(isinstance(c, str) for c in class_names)):
        raise ValueError(f"{where} class names must be a JSON list of strings")


def check_labels(labels, batch: int, num_classes: int) -> np.ndarray:
    """Integer labels, one per batch row, each in [0, num_classes)."""
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ValueError(f"expected {batch} labels, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    bad = labels[(labels < 0) | (labels >= num_classes)]
    if bad.size:
        raise ValueError(f"label {int(bad[0])} out of range for {num_classes} classes")
    return labels.astype(np.intp)


def check_fit(scorer: Scorer, dataset: "Dataset") -> np.ndarray:
    """``dataset``'s labels, once ``scorer`` is found to fit it: the class
    count, then a ``ScorerModel``'s class names in order if it names them (a
    provider's are its own), then every item's label.  The image loop,
    ``train`` and ``mean_loss`` each check here before any image is read."""
    if scorer.num_classes != dataset.num_classes:
        raise ValueError(f"scorer expects {scorer.num_classes} classes, "
                         f"dataset has {dataset.num_classes}")
    if (isinstance(scorer, ScorerModel) and scorer.class_names
            and scorer.class_names != dataset.class_names):
        raise ValueError(f"the scorer scores classes {scorer.class_names}, "
                         f"but the dataset lists classes {dataset.class_names}")
    labels = [it.label for it in dataset.items]
    if not labels:  # no labels at all would be refused as floats
        return np.empty(0, dtype=np.intp)
    return check_labels(labels, len(labels), scorer.num_classes)


def check_images(images, input_shape: tuple) -> np.ndarray:
    """Finite float64 images shaped (batch, *input_shape), batch >= 1."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != tuple(input_shape):
        raise ValueError(f"input shape {images.shape} != (batch, *{tuple(input_shape)})")
    if not len(images):
        raise ValueError(f"a batch of no images, shape {images.shape}")
    return require_finite(images, "input images")


def _orientation(x: np.ndarray) -> slice:
    """The row order in which batch ``x`` goes through BLAS.

    A GEMM row's bits can depend on its position in the batch (OpenBLAS's
    Haswell and Prescott kernels, and some shapes on others), so a batch and
    its exact reverse, as a swapped IG path gives, are evaluated in one
    orientation: first row's bytes no greater than the last's.  Indexing
    with the slice orients the batch, and indexing results with it again
    puts them back in the caller's row order.
    """
    return slice(None, None, -1 if len(x) > 1 and x[0].tobytes() > x[-1].tobytes() else 1)


def _affine(layer: Layer, a: np.ndarray) -> np.ndarray:
    # A reversed batch (see _orientation) is copied for this product alone,
    # so BLAS receives it as it receives any other batch.
    return np.ascontiguousarray(a) @ layer.weights.T + layer.bias


def _encode_batch(model: ScorerModel, x: np.ndarray, from_first: bool = False):
    """Forward pass over a (batch, n_in) matrix, keeping layer caches.  With
    ``from_first``, ``x`` holds the rows' first-layer pre-activations (the
    pixels of a model with no layer) and that layer's product is skipped."""
    acts = [x]
    pres = []
    for i, layer in enumerate(model.layers):
        z = x if from_first and i == 0 else _affine(layer, acts[-1])
        pres.append(z)
        acts.append(np.maximum(z, 0.0) if layer.activation == "relu" else z)
    e = acts[-1]
    norms = np.linalg.norm(e, axis=1)
    denom = np.maximum(norms, NORM_EPS)
    e_hat = e / denom[:, None]
    logits = model.temperature * (e_hat @ model.class_embeddings.T)
    return logits, (acts, pres, e, norms, denom, e_hat)


def softmax(logits: Tensor) -> Tensor:
    """Max-shift stabilized softmax."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=-1, keepdims=True)


def forward(model: ScorerModel, images: np.ndarray) -> Tensor:
    """Class logits, one row per image of a (batch, *input_shape) array."""
    images = check_images(images, model.input_shape)
    logits, _ = _encode_batch(model, images.reshape(len(images), -1))
    return logits


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Row-wise cross-entropy -log softmax(logits)[label], stabilized against
    overflow, over a (batch, classes) logit matrix."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(len(labels)), labels]


def _backward_batch(model: ScorerModel, x: np.ndarray, labels: np.ndarray,
                    want_params: bool = False, from_first: bool = False):
    """Losses, gradients w.r.t. ``x`` and (optionally) parameter gradients;
    ``from_first`` is as in ``_encode_batch``."""
    logits, (acts, pres, e, norms, denom, e_hat) = _encode_batch(model, x, from_first)
    losses = cross_entropy(logits, labels)
    d_logits = softmax(logits)
    d_logits[np.arange(x.shape[0]), labels] -= 1.0
    d_ehat = model.temperature * (d_logits @ model.class_embeddings)
    # Through the normalization: (I - e_hat e_hat^T)/||e|| above the
    # epsilon floor, plain 1/eps scaling below it.
    proj = (d_ehat * e_hat).sum(axis=1, keepdims=True)
    d_e = np.where((norms >= NORM_EPS)[:, None],
                   (d_ehat - e_hat * proj) / denom[:, None],
                   d_ehat / NORM_EPS)

    param_grads = [] if want_params else None
    grad = d_e
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        if layer.activation == "relu":
            grad = grad * (pres[i] > 0.0)  # subgradient 0 exactly at the kink
        if want_params:
            param_grads.append((grad.T @ acts[i], grad.sum(axis=0)))
        if i or not from_first:
            grad = grad @ layer.weights
    if want_params:
        param_grads.reverse()
    return losses, grad, logits, param_grads


def _oriented_backward(model: ScorerModel, x: np.ndarray, labels,
                       from_first: bool = False) -> LossGrads:
    """``_backward_batch`` over the rows of matrix ``x`` in their
    ``_orientation``, with results in the caller's row order."""
    labels = check_labels(labels, len(x), model.num_classes)
    rows = _orientation(x)
    losses, grads, logits, _ = _backward_batch(model, x[rows], labels[rows],
                                               from_first=from_first)
    return LossGrads(losses=losses[rows], grads=grads[rows], logits=logits[rows])


def backward(model: ScorerModel, images: np.ndarray, labels) -> LossGrads:
    """Exact gradient of the cross-entropy of forward(images[b]) at labels[b]
    w.r.t. every pixel, for each row b of a (batch, *input_shape) array."""
    images = check_images(images, model.input_shape)
    result = _oriented_backward(model, images.reshape(len(images), -1), labels)
    result.grads = result.grads.reshape(images.shape)
    return result


_LEAST = {"epochs": 0, "batch": 1, "hidden": 1, "embed_dim": 1}


def check_train_setting(name: str, value):
    """``value`` if training setting ``name`` may take it: ``lr`` finite and
    >= 0 (0 leaves the weights as they are), ``temperature`` positive and
    finite, each count in ``_LEAST`` a whole number of at least its entry
    there, returned as an int.  ``TrainConfig``, ``ScorerModel``,
    ``new_scorer`` and the ``train`` flags all check here."""
    if name == "lr":
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {value}")
    elif name == "temperature":
        if not 0 < value < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {value}")
    else:
        value = require_integer(value, name, _LEAST[name])
    return value


@dataclass
class TrainConfig:
    lr: float = 0.05
    epochs: int = 30
    batch: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("lr", "epochs", "batch"):
            setattr(self, name, check_train_setting(name, getattr(self, name)))


def _require_finite_layers(model: ScorerModel, when: str) -> None:
    for i, layer in enumerate(model.layers):
        for name, values in (("weights", layer.weights), ("bias", layer.bias)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"non-finite {name} in layer {i} {when}")


def _stack_images(dataset: "Dataset") -> np.ndarray:
    """Every item's image, in item order, copied into one preallocated
    (items, H, W, 3) float64 array, so no second copy of the stack is held.
    An image shaped unlike the first is refused."""
    items = dataset.items
    if not items:
        raise ValueError("the dataset has no images")
    out = np.empty((len(items), *items[0].shape))
    for row, it in zip(out, items):
        image = it.image
        if image.shape != row.shape:
            raise ValueError(f"image {it.id!r} is shaped {image.shape}, not {row.shape}")
        row[...] = image
    return out


def train(model: ScorerModel, dataset: "Dataset", cfg: TrainConfig) -> ScorerModel:
    """Plain SGD on the cross-entropy loss; class embeddings stay frozen.

    Deterministic for a given seed: batch order comes from the seeded
    permutation stream, summation order is fixed.  A model that does not
    fit ``dataset`` (``check_fit``) is refused before any image is read, and
    images not shaped as its input before any step.
    """
    items = dataset.items
    y_all = check_fit(model, dataset)

    out = copy.deepcopy(model)
    x_all = check_images(_stack_images(dataset), model.input_shape).reshape(len(items), -1)
    rng = SeededRng(cfg.seed)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(items))
        for start in range(0, len(items), cfg.batch):
            idx = order[start:start + cfg.batch]
            _, _, _, pgrads = _backward_batch(out, x_all[idx], y_all[idx], want_params=True)
            scale = cfg.lr / len(idx)
            for layer, (dw, db) in zip(out.layers, pgrads):
                layer.weights -= scale * dw
                layer.bias -= scale * db
        _require_finite_layers(out, f"after epoch {epoch} (lr {cfg.lr:g})")
    return out


def mean_loss(model: ScorerModel, dataset: "Dataset") -> float:
    """The mean cross-entropy of ``forward`` over ``dataset``; a model that
    does not fit it (``check_fit``) is refused before any image is read."""
    labels = check_fit(model, dataset)
    return float(cross_entropy(forward(model, _stack_images(dataset)), labels).mean())


def gradient_check(model: ScorerModel, image: np.ndarray, k: int, h: float = 1e-5) -> dict:
    """Central-difference audit of the analytic input gradient.

    Relative error per pixel uses max(|analytic|, |numeric|, 1e-8) as
    denominator.  Pixels whose +/-h probes land on different sides of a
    ReLU kink are reported in ``kink_pixels`` and excluded from
    ``max_rel_err``.  The per-pixel ``analytic`` and ``numeric`` gradients
    and the ``loss`` at the image are returned too.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    image = np.asarray(image, dtype=np.float64)
    at_image = backward(model, image[None], [k])  # checks the image and the label
    analytic = at_image.grads[0].reshape(-1)

    flat = image.reshape(-1)
    n = flat.size
    probes = np.repeat(flat[None, :], 2 * n, axis=0)
    rows = np.arange(n)
    probes[2 * rows, rows] += h
    probes[2 * rows + 1, rows] -= h

    logits, (acts, pres, *_rest) = _encode_batch(model, probes)
    losses = cross_entropy(logits, np.full(2 * n, k))
    numeric = (losses[2 * rows] - losses[2 * rows + 1]) / (2.0 * h)

    kink = np.zeros(n, dtype=bool)
    for layer, z in zip(model.layers, pres):
        if layer.activation == "relu":
            kink |= np.any((z[2 * rows] > 0.0) != (z[2 * rows + 1] > 0.0), axis=1)

    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    usable = ~kink
    worst = int(np.argmax(np.where(usable, rel, -1.0))) if usable.any() else -1
    return {
        "max_rel_err": float(rel[worst]) if worst >= 0 else 0.0,
        "argmax_err_index": worst,
        "kink_pixels": rows[kink].tolist(),
        "analytic": analytic,
        "numeric": numeric,
        "loss": float(at_image.losses[0]),
    }


def new_scorer(seed: int, input_shape: Sequence[int], hidden: Sequence[int],
               embed_dim: int, classes: int, temperature: float = 100.0,
               class_names: Sequence[str] | None = None) -> ScorerModel:
    """Seeded random scorer: He-scaled ReLU encoder, unit class embeddings."""
    rng = SeededRng(seed)
    input_shape = tuple(int(s) for s in input_shape)
    dims = ([int(np.prod(input_shape))] + [check_train_setting("hidden", d) for d in hidden]
            + [check_train_setting("embed_dim", embed_dim)])
    layers = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = rng.normal([fan_out, fan_in]) * np.sqrt(2.0 / fan_in)
        act = "relu" if i < len(dims) - 2 else "identity"
        layers.append(Layer(weights=w, bias=np.zeros(fan_out), activation=act))
    z = rng.normal([classes, embed_dim])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return ScorerModel(layers=layers, class_embeddings=z, temperature=temperature,
                       input_shape=input_shape,
                       class_names=list(class_names) if class_names else [])


def linear_softmax_gradfn(weights: Tensor, bias: Tensor | None = None) -> GradFn:
    """Analytic GradFn for plain ``softmax(W x + b)`` cross-entropy.

    Used as an oracle: the gradient has the closed form
    ``W^T (softmax - onehot)`` with no normalization stage in the way.
    """
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.zeros(weights.shape[0]) if bias is None else np.asarray(bias, dtype=np.float64)

    def fn(images: np.ndarray, labels) -> LossGrads:
        x = np.asarray(images, dtype=np.float64)
        labels = check_labels(labels, len(x), weights.shape[0])
        logits = x.reshape(len(x), -1) @ weights.T + bias
        d_logits = softmax(logits)
        d_logits[np.arange(len(x)), labels] -= 1.0
        return LossGrads(losses=cross_entropy(logits, labels),
                         grads=(d_logits @ weights).reshape(x.shape), logits=logits)

    return fn


def linear_model_weights(seed: int, classes: int, n_inputs: int) -> tuple[Tensor, Tensor]:
    """Deterministic small linear model shared with the mock provider."""
    rng = SeededRng(seed)
    w = rng.normal([classes, n_inputs]) * (1.0 / np.sqrt(n_inputs))
    b = rng.normal([classes]) * 0.1
    return w, b


CHECKPOINT_FORMAT = "igprobe-scorer"
CHECKPOINT_VERSION = 1


def _pack(values: Tensor) -> dict:
    """An array as a checkpoint field; ``_unpack`` reads it back."""
    return {"shape": list(values.shape), "data": values.reshape(-1).tolist()}


def save_model(model: ScorerModel, path: str | Path) -> None:
    """Write a JSON checkpoint (field layout documented in the README)."""
    _require_finite_layers(model, "before saving")
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "input_shape": list(model.input_shape),
        "temperature": model.temperature,
        "class_names": model.class_names,
        "class_embeddings": _pack(model.class_embeddings),
        "layers": [{"weights": _pack(l.weights), "bias": _pack(l.bias),
                    "activation": l.activation} for l in model.layers],
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def _json_object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {type(doc).__name__}")
    return doc


def read_json_object(path: str | Path, where: str) -> dict:
    """The JSON object that file ``path`` holds; every refusal names ``where``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ValueError(f"cannot read {where}: {exc}") from None
    return _json_object(doc, where)


# Bytes of a "data" list that are read at a time.
_SLICE_BYTES = 1 << 16
# A "data" key's opening quote follows "{", "," or JSON whitespace, so the
# escaped quote of a key such as "k\"data" opens none.  That check comes
# after the quote, so the search still scans for a literal: placed before
# it, the search took 58 ms on the benchmark's 4.4 MB checkpoint, not 2 ms.
_DATA_LIST = re.compile(rb'"(?<=[{, \t\n\r]")data"[ \t\n\r]*:[ \t\n\r]*\[')
# The bytes of numbers: digits, signs, points, exponents, the letters of NaN
# and Infinity, commas and JSON whitespace.
_NUMBER_BYTES = b"-+.0123456789eENaInfity, \t\n\r"


def _numbers_only(raw: bytes, start: int, stop: int) -> bool:
    """Whether ``raw[start:stop]`` holds only ``_NUMBER_BYTES``, checked a
    slice at a time so that no copy of a whole list is made."""
    return not any(raw[at:min(at + _SLICE_BYTES, stop)].translate(None, _NUMBER_BYTES)
                   for at in range(start, stop, _SLICE_BYTES))


def _read_numbers(raw: bytes, start: int, stop: int) -> Tensor:
    """The numbers of list text ``raw[start:stop]`` (brackets excluded) in
    one float64 array sized by the text's commas.  json parses the text in
    slices of about ``_SLICE_BYTES`` that end at a comma, so no Python list
    as long as the array is held.  An integer reads as ``float`` reads its
    digits, so one too large for a float64 is infinite.  Text that is not a
    list of numbers raises ``ValueError``."""
    out = np.empty(raw.count(b",", start, stop) + 1)
    filled = 0
    while True:
        end = stop
        if stop - start > _SLICE_BYTES:
            end = raw.rfind(b",", start, start + _SLICE_BYTES)
            if end < 0:  # no comma in the slice: one number is longer than it
                end = raw.find(b",", start, stop)
                end = stop if end < 0 else end
        values = json.loads(b"[%b]" % raw[start:end], parse_int=float)
        out[filled:filled + len(values)] = values
        filled += len(values)
        if end == stop:
            break
        start = end + 1
    if filled == len(out):
        return out
    if filled or len(out) > 1:  # a gap before or after a comma
        raise ValueError("Expecting value")
    return out[:0]  # "[]"


def _read_checkpoint(path: str | Path, where: str) -> dict:
    """The JSON object that checkpoint file ``path`` holds, with each
    ``"data"`` list of numbers read by ``_read_numbers`` into a float64
    array.  A ``"data"`` of any other value stays as json reads it.

    Each such list's text is replaced by a number literal that appears
    nowhere in the file: ``mark`` and the list's index.  ``json.loads`` reads
    that much smaller text as UTF-8, and its ``parse_float`` reads each list
    where its literal is, in document order.  So json still judges every
    number's syntax and gives every value's bits, and the load holds the
    file's bytes and the arrays, never a Python float per weight.  A file
    this read refuses is read again by ``json.loads`` whole, so that the
    refusal is json's own, at the file's own line and column.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {where}: {exc}") from None
    lists = []  # each list's text between its brackets, as (start, stop) in raw
    for head in _DATA_LIST.finditer(raw):
        start, stop = head.end(), raw.find(b"]", head.end())
        if stop >= 0 and _numbers_only(raw, start, stop):
            lists.append((start, stop))
    # The file's text around the lists, each list's brackets cut out with it.
    edges = [0, *(edge for start, stop in lists for edge in (start - 1, stop + 1)), len(raw)]
    pieces = [raw[a:b] for a, b in zip(edges[::2], edges[1::2])]
    mark = b"1E-0"
    while any(mark in piece for piece in pieces):
        mark += b"0"
    # A space ends each literal where its list ended.
    literals = [b"%b%d " % (mark, k) for k in range(len(lists))] + [b""]
    text_mark = mark.decode()

    def number(literal: str):
        if literal.startswith(text_mark):
            return _read_numbers(raw, *lists[int(literal[len(text_mark):])])
        return float(literal)

    try:
        try:
            text = b"".join(part for pair in zip(pieces, literals) for part in pair)
            doc = json.loads(text.decode("utf-8"), parse_float=number)
        except ValueError:  # json words the refusal, for the whole file
            json.loads(raw.decode("utf-8"))
            raise  # json took the file, so the fault is this reader's: its error goes on
    except ValueError as exc:  # ValueError: bad UTF-8 or bad JSON
        raise ValueError(f"cannot read {where}: {exc}") from None
    return _json_object(doc, where)


# What a checkpoint field must be, by the type it reads as; a flat list of
# numbers reads as an array.
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", (int, float): "a number",
               np.ndarray: "a flat list of numbers"}


def _field(obj, key: str, kind, where: str):
    """``obj[key]``, checked to be of JSON ``kind``; ``where`` names ``obj``."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{where} has no {key!r} field")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where} field {key!r} must be {_JSON_KINDS[kind]}, "
                         f"got {type(value).__name__}")
    return value


def _unpack(doc: dict, key: str, where: str) -> Tensor:
    """Field ``key`` of checkpoint object ``doc``: its ``"data"``, which
    ``_read_checkpoint`` read as an array, in its ``"shape"``.  A ``"data"``
    that is not a flat list of numbers is refused, naming the field."""
    obj = _field(doc, key, dict, where)
    where = f"{where} field {key!r}"
    data, shape = _field(obj, "data", np.ndarray, where), _field(obj, "shape", list, where)
    try:
        return data.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_model(path: str | Path) -> ScorerModel:
    """Read a checkpoint, naming the first missing or mistyped field."""
    where = f"checkpoint {path}"
    doc = _read_checkpoint(path, where)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a scorer checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{where}: unsupported version {doc.get('version')}")
    layers = []
    for i, l in enumerate(_field(doc, "layers", list, where)):
        at = f"{where} layer {i}"
        weights, bias = _unpack(l, "weights", at), _unpack(l, "bias", at)
        activation = _field(l, "activation", str, at)
        try:
            layers.append(Layer(weights, bias, activation))
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from None
    input_shape, class_names = doc.get("input_shape"), doc.get("class_names", [])
    check_declaration(input_shape, class_names, where)
    class_embeddings = _unpack(doc, "class_embeddings", where)
    try:
        temperature = float(_field(doc, "temperature", (int, float), where))
    except OverflowError:
        raise ValueError(f"{where} field 'temperature' is an integer too large for a float64"
                         ) from None
    try:
        return ScorerModel(layers=layers, class_embeddings=class_embeddings,
                           temperature=temperature, input_shape=tuple(input_shape),
                           class_names=class_names)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
