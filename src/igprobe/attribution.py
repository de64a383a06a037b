"""Integrated gradients along the straight line between two images.

The attribution of pixel ``i`` is ``(target_i - baseline_i)`` times the
quadrature-weighted mean of the loss gradient along the line path, with
the sign fixed so the attributions sum to ``loss(target) -
loss(baseline)`` in the infinite-step limit (the completeness
identity).  Both quadrature schemes evaluate the gradient at the same
N+1 nodes and differ only in their weights.  Endpoint losses are
evaluated at the endpoint nodes of the same path, which hold the
baseline and the target exactly, so the reported completeness gap
measures quadrature error and nothing else.

A ``ScorerModel`` integrates the path itself, in the coordinates of its
first layer's pre-activations (``ScorerModel.integrate_path``); any other
gradient function gets the N+1 path images as the rows of one call.
Either way ``_fill_path`` builds the path and ``_mirror_sum`` reduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .tensor import require_integer

if TYPE_CHECKING:
    from .model import GradFn

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


def _fill_path(baseline: np.ndarray, target: np.ndarray, ts: np.ndarray,
               out: np.ndarray) -> None:
    """Write the point at node ``s`` of the line from ``baseline`` to
    ``target`` into ``out[s]``; the endpoints are arrays of one shape, images
    or a scorer's first-layer pre-activations.

    Nodes are built mirror-symmetrically: the upper half is anchored at
    the target with the lower half's coefficients, and an even-N midpoint
    averages the endpoints.  Row 0 is the baseline and row N the target,
    bit for bit.  Swapping baseline and target then reproduces the
    identical point set (reversed) down to the last bit, which is what
    makes attribution antisymmetry exact rather than approximate.  Each
    element is the same two IEEE operations as ``baseline + t * delta``,
    so filling all rows at once changes no bit.
    """
    delta = target - baseline
    last = len(ts) - 1
    s = np.arange(len(ts))
    lower, upper = s[2 * s < last], s[2 * s > last]
    shape = (-1,) + (1,) * delta.ndim
    low, up = out[:len(lower)], out[last - len(upper) + 1:last + 1]
    np.multiply(ts[lower].reshape(shape), delta, out=low)
    np.add(baseline, low, out=low)
    np.multiply(ts[last - upper].reshape(shape), delta, out=up)
    np.subtract(target, up, out=up)
    if len(lower) + len(upper) <= last:
        out[last // 2] = 0.5 * baseline + 0.5 * target


def _mirror_sum(ws: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The weighted sum ``sum_s ws[s] * rows[s]`` over a path's node rows.

    Mirror pairs are reduced innermost-first so a baseline/target swap
    re-adds the same addends in a commuted order, never a different
    grouping: attribution antisymmetry stays exact.
    """
    last = len(ws) - 1
    acc = np.zeros(rows.shape[1:])
    for s in range((last + 2) // 2):
        m = last - s
        term = ws[s] * rows[s]
        if m != s:
            term = term + ws[m] * rows[m]
        acc = acc + term
    return acc


def _integrate_rows(gradfn: GradFn, baseline: np.ndarray, target: np.ndarray,
                    ts: np.ndarray, ws: np.ndarray, label: int):
    """``integrate_path`` for any gradient function: all N+1 path images go
    to ``gradfn`` as the rows of one call, row 0 the baseline."""
    rows = len(ts)
    batch = np.empty((rows,) + baseline.shape)
    _fill_path(baseline, target, ts, batch)
    result = gradfn(batch, np.full(rows, label))
    if (np.shape(result.losses) != (rows,) or np.shape(result.grads) != batch.shape
            or np.shape(result.logits)[:1] != (rows,)):
        raise ValueError(f"expected {rows} result rows shaped like {batch.shape[1:]}, got "
                         f"losses {np.shape(result.losses)}, grads "
                         f"{np.shape(result.grads)}, logits {np.shape(result.logits)}")
    return _mirror_sum(ws, result.grads), result.losses, result.logits


@dataclass
class AttributionMap:
    values: np.ndarray  # per-pixel signed attribution, input-shaped
    baseline: np.ndarray  # the path's start, over which ``values`` are drawn
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

    A gradient function with an ``integrate_path`` member, as
    ``ScorerModel`` has, evaluates the path itself; any other gets all N+1
    path nodes as one batch.  Either returns the weighted mean gradient
    and the losses and logits per node; the endpoint losses and logits are
    those of nodes 0 (baseline) and N (target).
    """
    ts, ws = path_nodes(spec)
    last = len(ts) - 1
    integrate = getattr(gradfn, "integrate_path", None) or partial(_integrate_rows, gradfn)
    try:
        mean_grad, losses, logits = integrate(spec.baseline, spec.target, ts, ws, label)
    except Exception as exc:
        raise RuntimeError(f"gradient evaluation failed at path step 0 to {last} "
                           f"(t={ts[0]:g} to {ts[-1]:g}, one batched call): {exc}") from exc
    return AttributionMap(
        values=(spec.target - spec.baseline) * mean_grad,
        baseline=spec.baseline,
        loss_baseline=float(losses[0]),
        loss_target=float(losses[last]),
        logits_baseline=logits[0],
        logits_target=logits[last],
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
