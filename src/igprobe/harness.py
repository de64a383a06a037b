"""Quality-sweep evaluation and per-image attribution maps.

Pipeline order is degrade-then-resize: compression happens at the native
dataset resolution, bicubic resampling to the scorer input comes after.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attribution import (DEFAULT_SCHEME, DEFAULT_STEPS, AttributionMap, PathSpec,
                          check_quadrature, integrated_gradients)
from .codec import ORIGINAL, QualityLevel, check_quality, degrade_jpeg, resize_bicubic
from .data import Dataset, read_csv_rows
from .model import Scorer, softmax
from .tensor import argmax


def _check_pairs(predictions, truths) -> None:
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(truths)} truths")
    if not len(truths):
        raise ValueError("empty prediction list")


def macro_precision(predictions, truths, num_classes: int) -> float:
    """Unweighted mean over classes of TP/(TP+FP); never-predicted classes
    contribute 0."""
    _check_pairs(predictions, truths)
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    total = 0.0
    for c in range(num_classes):
        tp = sum(1 for p, t in zip(predictions, truths) if p == c and t == c)
        predicted = sum(1 for p in predictions if p == c)
        if predicted:
            total += tp / predicted
    return total / num_classes


def accuracy(predictions, truths, num_classes: int | None = None) -> float:
    _check_pairs(predictions, truths)
    return sum(1 for p, t in zip(predictions, truths) if p == t) / len(truths)


METRICS = {"macro_precision": macro_precision, "accuracy": accuracy}


def _check_levels(qualities) -> list[QualityLevel]:
    """A list of quality levels: each level checked, none listed twice."""
    qualities = [check_quality(q) for q in qualities]
    for i, q in enumerate(qualities):
        if q in qualities[:i]:
            raise ValueError(f"quality {q} is listed twice")
    return qualities


@dataclass
class PrecisionTable:
    rows: dict[str, dict[QualityLevel, float]]  # model name -> its scores, in row order
    qualities: list[QualityLevel]

    def __post_init__(self):
        self.qualities = _check_levels(self.qualities)  # written as str(q)
        if not self.qualities:
            raise ValueError("no qualities")
        for name, scores in self.rows.items():
            missing = [q for q in self.qualities if q not in scores]
            if missing:
                raise ValueError(f"row {name!r} missing scores for {missing}")


def check_qualities(qualities) -> list[QualityLevel]:
    """A quality sweep of checked levels: the original level, at least one
    compressed level, no level twice."""
    qualities = _check_levels(qualities)
    if ORIGINAL not in qualities:
        raise ValueError("quality list must include the original level")
    if len(qualities) < 2:
        raise ValueError("quality list must include a compressed level")
    return qualities


def prepare_input(image: np.ndarray, quality: QualityLevel,
                  resize_to: tuple[int, int]) -> np.ndarray:
    """Degrade at native resolution, then resize to the scorer input."""
    out = degrade_jpeg(image, quality)
    if out.shape[:2] != tuple(resize_to):
        out = resize_bicubic(out, resize_to[0], resize_to[1])
    return out


def _each_image(scorer: Scorer, dataset: Dataset, qualities, what: str, work) -> list[dict]:
    """The one per-image loop: per image, ``{q: work(item, base, x)}`` over
    ``qualities``, with the original ``base`` prepared first and ``x`` the input
    prepared at ``q``.  A failure names ``what``, the image and the quality.
    A scorer of another class count than ``dataset``'s is refused first."""
    if scorer.num_classes != dataset.num_classes:
        raise ValueError(f"scorer expects {scorer.num_classes} classes, "
                         f"dataset has {dataset.num_classes}")
    hw = scorer.input_shape[:2]
    results = []
    for item in dataset.items:
        image, q = item.image, ORIGINAL  # converted to float once
        try:
            base = prepare_input(image, ORIGINAL, hw)
            by_q = {}
            for q in qualities:
                by_q[q] = work(item, base, base if q == ORIGINAL else prepare_input(image, q, hw))
        except Exception as exc:
            raise RuntimeError(f"{what} failed on image {item.id!r} at quality {q}: "
                               f"{exc}") from exc
        results.append(by_q)
    return results


def sweep_precision(scorer: Scorer, dataset: Dataset, qualities,
                    metric: str = "macro_precision", name: str = "model") -> PrecisionTable:
    """Degrade, resize, classify and score the whole dataset per quality.

    The table has one row, called ``name``.  Each prepared image is scored
    on its own call to ``logits``: a batch of rows may round differently
    from one row.
    """
    qualities = check_qualities(qualities)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    score_fn = METRICS[metric]
    preds = _each_image(scorer, dataset, qualities, "scoring",
                        lambda item, base, x: argmax(scorer.logits(x[None])[0]))
    truths = [it.label for it in dataset.items]
    scores = {q: score_fn([p[q] for p in preds], truths, dataset.num_classes)
              for q in qualities}
    return PrecisionTable(rows={name: scores}, qualities=qualities)


def attribute_batch(scorer: Scorer, dataset: Dataset, qualities, steps: int = DEFAULT_STEPS,
                    scheme: str = DEFAULT_SCHEME) -> list[dict[QualityLevel, AttributionMap]]:
    """Per image, one attribution map per compressed quality: baseline =
    resized original, target = the compressed-and-resized image.

    Each map is one ``integrated_gradients`` path: a ``ScorerModel``
    integrates it in first-layer coordinates, any other scorer takes its
    N+1 path nodes as the rows of one call.  The path's endpoint nodes hold
    the logits that ``write_attribution_csv`` reads.
    """
    qualities = check_qualities(qualities)
    check_quadrature(steps, scheme)
    return _each_image(
        scorer, dataset, [q for q in qualities if q != ORIGINAL], "attribution",
        lambda item, base, x: integrated_gradients(
            scorer, PathSpec(baseline=base, target=x, steps=steps, scheme=scheme), item.label))


def csv_text(rows) -> str:
    """``rows`` as CSV text, each line ended by ``\\n``; every CSV file is built here."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_precision_csv(table: PrecisionTable, path) -> None:
    """Long format, one (model, quality, score) row per cell."""
    Path(path).write_text(csv_text(
        [["model", "quality", "score"]]
        + [[name, q, repr(scores[q])] for name, scores in table.rows.items()
           for q in table.qualities]), encoding="utf-8")


def read_precision_csv(path) -> PrecisionTable:
    qualities: list[QualityLevel] = []
    by_model: dict[str, dict[QualityLevel, float]] = {}
    lines = read_csv_rows(path)
    header = lines[0][1] if lines else None
    if header != ["model", "quality", "score"]:
        raise ValueError(f"{path}: expected header model,quality,score, got {header}")
    for line_no, row in lines[1:]:
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"{path} line {line_no}: expected 3 cells, got {row}")
        try:
            model, q, score = row[0], check_quality(row[1]), float(row[2])
        except ValueError as exc:
            raise ValueError(f"{path} line {line_no}: quality {row[1]!r}, "
                             f"score {row[2]!r}: {exc}") from exc
        if not 0.0 <= score <= 1.0:  # nan, inf or 1.7 would be drawn off the chart
            raise ValueError(f"{path} line {line_no}: score {row[2]!r} for model "
                             f"{model!r} at quality {q} is not in [0, 1]")
        scores = by_model.setdefault(model, {})
        if q in scores:
            raise ValueError(f"{path} line {line_no}: model {model!r} at quality "
                             f"{q} is listed twice")
        if q not in qualities:
            qualities.append(q)
        scores[q] = score
    try:
        return PrecisionTable(rows=by_model, qualities=qualities)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_attribution_csv(dataset: Dataset, qualities, maps, path) -> None:
    """One row per image of ``dataset``, read from its maps as ``attribute_batch``
    returns them: per quality the predicted class and the softmax score at the
    true label, per compressed quality the IG sum.  Every map starts at the
    same baseline row, so the original's logits are the first map's."""
    compressed = [q for q in qualities if q != ORIGINAL]
    rows = [["id", "true"] + [f"predicted_{q}" for q in qualities]
            + [f"score_{q}" for q in qualities] + [f"ig_{q}" for q in compressed]]
    for item, by_q in zip(dataset.items, maps, strict=True):
        logits = [by_q[compressed[0]].logits_baseline if q == ORIGINAL else by_q[q].logits_target
                  for q in qualities]
        rows.append([item.id, dataset.class_names[item.label]]
                    + [dataset.class_names[argmax(z)] for z in logits]
                    + [f"{float(softmax(z)[item.label]):.6f}" for z in logits]
                    + [f"{by_q[q].sum:.6f}" for q in compressed])
    Path(path).write_text(csv_text(rows), encoding="utf-8")
