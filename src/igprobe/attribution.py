"""Integrated gradients along the straight line between two images.

The attribution of pixel ``i`` is ``(target_i - baseline_i)`` times the
quadrature-weighted mean of the loss gradient along the line path, with
the sign fixed so the attributions sum to ``loss(target) -
loss(baseline)`` in the infinite-step limit (the completeness
identity).  Both quadrature schemes evaluate the gradient at the same
N+1 nodes and differ only in their weights.  Endpoint losses are
evaluated at the endpoint rows of the same batch, which hold the
baseline and the target exactly, so the reported completeness gap
measures quadrature error and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GradFn
from .tensor import require_integer

SCHEMES = ("riemann_right", "trapezoid")
# The one default quadrature, for the library and the CLI alike.
DEFAULT_STEPS, DEFAULT_SCHEME = 50, "trapezoid"


def check_quadrature(steps: int, scheme: str = DEFAULT_SCHEME) -> int:
    """The quadrature rule: a whole number N >= 1 of steps and a known scheme;
    returns ``steps`` as an int."""
    steps = require_integer(steps, "steps", least=1)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    return steps


@dataclass
class PathSpec:
    baseline: np.ndarray
    target: np.ndarray
    steps: int = DEFAULT_STEPS
    scheme: str = DEFAULT_SCHEME

    def __post_init__(self):
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.baseline.shape != self.target.shape:
            raise ValueError(
                f"baseline shape {self.baseline.shape} != target shape {self.target.shape}")
        self.steps = check_quadrature(self.steps, self.scheme)


def path_nodes(spec: PathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes t = s/N for s = 0..N and weights summing to 1.

    The scheme picks only the weights: riemann_right gives the baseline
    node weight 0 and every other node 1/N; trapezoid gives the two
    endpoints half weight.
    """
    n = spec.steps
    ts = np.arange(0, n + 1, dtype=np.float64) / n
    ws = np.full(n + 1, 1.0 / n)
    if spec.scheme == "riemann_right":
        ws[0] = 0.0
    else:
        ws[0] *= 0.5
        ws[-1] *= 0.5
    return ts, ws


def _fill_path(spec: PathSpec, ts: np.ndarray, out: np.ndarray) -> None:
    """Write the image at node ``s`` of the discretized path into ``out[s]``.

    Nodes are built mirror-symmetrically: the upper half is anchored at
    the target with the lower half's coefficients, and an even-N midpoint
    averages the endpoints.  Row 0 is the baseline and row N the target,
    bit for bit.  Swapping baseline and target then reproduces the
    identical point set (reversed) down to the last bit, which is what
    makes attribution antisymmetry exact rather than approximate.  Each
    element is the same two IEEE operations as ``baseline + t * delta``,
    so filling all rows at once changes no bit.
    """
    delta = spec.target - spec.baseline
    last = len(ts) - 1
    s = np.arange(len(ts))
    lower, upper = s[2 * s < last], s[2 * s > last]
    shape = (-1,) + (1,) * delta.ndim
    low, up = out[:len(lower)], out[last - len(upper) + 1:last + 1]
    np.multiply(ts[lower].reshape(shape), delta, out=low)
    np.add(spec.baseline, low, out=low)
    np.multiply(ts[last - upper].reshape(shape), delta, out=up)
    np.subtract(spec.target, up, out=up)
    if len(lower) + len(upper) <= last:
        out[last // 2] = 0.5 * spec.baseline + 0.5 * spec.target


@dataclass
class AttributionMap:
    values: np.ndarray  # per-pixel signed attribution, input-shaped
    loss_baseline: float
    loss_target: float
    logits_baseline: np.ndarray  # (num_classes,)
    logits_target: np.ndarray

    @property
    def sum(self) -> float:
        return float(self.values.sum())

    @property
    def completeness_gap(self) -> float:
        """Quadrature gap |sum - (loss(target) - loss(baseline))|."""
        return abs(self.sum - (self.loss_target - self.loss_baseline))

    @property
    def rel_gap(self) -> float:
        """The gap over |loss(target) - loss(baseline)|, floored at 1e-12."""
        return self.completeness_gap / max(abs(self.loss_target - self.loss_baseline), 1e-12)


def integrated_gradients(gradfn: GradFn, spec: PathSpec, label: int) -> AttributionMap:
    """Quadrature approximation of the path integral of the loss gradient.

    All N+1 path nodes go to ``gradfn`` as one batch.  The endpoint
    losses and logits come from that batch's rows 0 (baseline) and N
    (target).
    """
    ts, ws = path_nodes(spec)
    rows = len(ts)
    last = rows - 1
    batch = np.empty((rows,) + spec.baseline.shape)
    _fill_path(spec, ts, batch)
    try:
        result = gradfn(batch, np.full(rows, label))
        if (np.shape(result.losses) != (rows,) or np.shape(result.grads) != batch.shape
                or np.shape(result.logits)[:1] != (rows,)):
            raise ValueError(f"expected {rows} result rows shaped like {batch.shape[1:]}, got "
                             f"losses {np.shape(result.losses)}, grads "
                             f"{np.shape(result.grads)}, logits {np.shape(result.logits)}")
    except Exception as exc:
        raise RuntimeError(f"gradient evaluation failed at path step 0 to {last} "
                           f"(t={ts[0]:g} to {ts[-1]:g}, one batched call): {exc}") from exc
    grads = result.grads

    # Mirror pairs are reduced innermost-first so a baseline/target swap
    # re-adds the same addends in a commuted order, never a different
    # grouping: attribution antisymmetry stays exact.
    acc = np.zeros_like(spec.baseline)
    for s in range((last + 2) // 2):
        m = last - s
        term = ws[s] * grads[s]
        if m != s:
            term = term + ws[m] * grads[m]
        acc = acc + term
    return AttributionMap(
        values=(spec.target - spec.baseline) * acc,
        loss_baseline=float(result.losses[0]),
        loss_target=float(result.losses[last]),
        logits_baseline=result.logits[0],
        logits_target=result.logits[last],
    )


@dataclass
class PolarityMaps:
    negative: np.ndarray  # in [-1, 0]
    positive: np.ndarray  # in [0, 1]
    scale: float  # max-abs normalizer applied before clipping


def split_polarity(values: np.ndarray) -> PolarityMaps:
    """Normalize by the max magnitude, then clip into [-1,0] and [0,1]."""
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    scale = peak if peak > 0.0 else 1.0
    scaled = values / scale
    return PolarityMaps(
        negative=np.clip(scaled, -1.0, 0.0),
        positive=np.clip(scaled, 0.0, 1.0),
        scale=scale,
    )
