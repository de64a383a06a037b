"""Integrated gradients along the straight line between two images.

The attribution of pixel ``i`` is ``(target_i - baseline_i)`` times the
quadrature-weighted mean of the loss gradient along the line path, with
the sign fixed so the attributions sum to ``loss(target) -
loss(baseline)`` in the infinite-step limit (the completeness
identity).  Endpoint losses are evaluated at the endpoint rows of the
same batch (right-Riemann's target row is ``baseline + 1 * delta``, one
rounding away from the target), so the reported completeness gap
measures quadrature error and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .model import GradFn

Scheme = Literal["riemann_right", "trapezoid"]
SCHEMES = ("riemann_right", "trapezoid")
DEFAULT_STEPS = 50


@dataclass
class PathSpec:
    baseline: np.ndarray
    target: np.ndarray
    steps: int = DEFAULT_STEPS
    scheme: Scheme = "trapezoid"

    def __post_init__(self):
        self.baseline = np.asarray(self.baseline, dtype=np.float64)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.baseline.shape != self.target.shape:
            raise ValueError(
                f"baseline shape {self.baseline.shape} != target shape {self.target.shape}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")


def path_nodes(spec: PathSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes t in [0, 1] and weights summing to 1.

    riemann_right samples s/N for s = 1..N with uniform weights;
    trapezoid samples s/N for s = 0..N with the endpoints at half
    weight.
    """
    n = spec.steps
    if spec.scheme == "riemann_right":
        ts = np.arange(1, n + 1, dtype=np.float64) / n
        ws = np.full(n, 1.0 / n)
    else:
        ts = np.arange(0, n + 1, dtype=np.float64) / n
        ws = np.full(n + 1, 1.0 / n)
        ws[0] *= 0.5
        ws[-1] *= 0.5
    return ts, ws


def _fill_path(spec: PathSpec, ts: np.ndarray, out: np.ndarray) -> None:
    """Write the image at node ``s`` of the discretized path into ``out[s]``.

    Trapezoid nodes are built mirror-symmetrically: the upper half is
    anchored at the target with the lower half's coefficients, and an
    even-N midpoint averages the endpoints.  Swapping baseline and
    target then reproduces the identical point set (reversed) down to
    the last bit, which is what makes attribution antisymmetry exact
    rather than approximate.  Each element is the same two IEEE
    operations as ``baseline + t * delta``, so filling all rows at once
    changes no bit.
    """
    delta = spec.target - spec.baseline
    last = len(ts) - 1
    s = np.arange(len(ts))
    if spec.scheme == "riemann_right":
        lower, upper = s, s[:0]
    else:
        lower, upper = s[2 * s < last], s[2 * s > last]
    shape = (-1,) + (1,) * delta.ndim
    low, up = out[:len(lower)], out[last - len(upper) + 1:last + 1]
    np.multiply(ts[lower].reshape(shape), delta, out=low)
    np.add(spec.baseline, low, out=low)
    np.multiply(ts[last - upper].reshape(shape), delta, out=up)
    np.subtract(spec.target, up, out=up)
    if len(lower) + len(upper) <= last:
        out[last // 2] = 0.5 * spec.baseline + 0.5 * spec.target


def interpolate_path(spec: PathSpec) -> list[np.ndarray]:
    """The images at the quadrature nodes, baseline end first."""
    ts, _ = path_nodes(spec)
    out = np.empty((len(ts),) + spec.baseline.shape)
    _fill_path(spec, ts, out)
    return list(out)


@dataclass
class AttributionMap:
    values: np.ndarray  # per-pixel signed attribution, input-shaped
    sum: float
    loss_baseline: float
    loss_target: float
    completeness_gap: float
    logits_baseline: np.ndarray | None = None  # (num_classes,)
    logits_target: np.ndarray | None = None


def integrated_gradients(gradfn: GradFn, spec: PathSpec, label: int) -> AttributionMap:
    """Quadrature approximation of the path integral of the loss gradient.

    All path nodes go to ``gradfn`` as one batch.  The endpoint losses and
    logits come from the endpoint rows of that batch: trapezoid nodes
    include both endpoints, and right-Riemann gets one baseline row
    appended after its nodes.
    """
    ts, ws = path_nodes(spec)
    last = len(ts) - 1
    rows = len(ts) + (spec.scheme == "riemann_right")
    batch = np.empty((rows,) + spec.baseline.shape)
    _fill_path(spec, ts, batch)
    if spec.scheme == "riemann_right":
        batch[-1] = spec.baseline
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
    values = (spec.target - spec.baseline) * acc

    i0 = rows - 1 if spec.scheme == "riemann_right" else 0
    loss0, loss1 = float(result.losses[i0]), float(result.losses[last])
    total = float(values.sum())
    return AttributionMap(
        values=values,
        sum=total,
        loss_baseline=loss0,
        loss_target=loss1,
        completeness_gap=abs(total - (loss1 - loss0)),
        logits_baseline=result.logits[i0],
        logits_target=result.logits[last],
    )


def completeness_report(att: AttributionMap) -> dict:
    """Absolute and relative quadrature gap of an attribution."""
    delta = abs(att.loss_target - att.loss_baseline)
    return {
        "gap": att.completeness_gap,
        "rel_gap": att.completeness_gap / max(delta, 1e-12),
    }


@dataclass
class PolarityMaps:
    negative: np.ndarray  # in [-1, 0]
    positive: np.ndarray  # in [0, 1]
    scale: float  # max-abs normalizer applied before clipping


def split_polarity(att: AttributionMap) -> PolarityMaps:
    """Normalize by the max magnitude, then clip into [-1,0] and [0,1]."""
    peak = float(np.max(np.abs(att.values))) if att.values.size else 0.0
    scale = peak if peak > 0.0 else 1.0
    scaled = att.values / scale
    return PolarityMaps(
        negative=np.clip(scaled, -1.0, 0.0),
        positive=np.clip(scaled, 0.0, 1.0),
        scale=scale,
    )
