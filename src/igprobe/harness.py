"""Quality-sweep evaluation and per-image attribution batches.

Pipeline order is degrade-then-resize: compression happens at the native
dataset resolution, bicubic resampling to the scorer input comes after.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attribution import AttributionMap, PathSpec, integrated_gradients
from .codec import ORIGINAL, QualityLevel, check_quality, degrade_jpeg, resize_bicubic
from .data import Dataset
from .model import Scorer, softmax
from .tensor import argmax


def quality_key(q: QualityLevel) -> str:
    return ORIGINAL if q == ORIGINAL else str(int(q))


def parse_quality(text: str) -> QualityLevel:
    t = text.strip().lower()
    return check_quality(ORIGINAL if t == ORIGINAL else int(t))


def macro_precision(predictions, truths, num_classes: int) -> float:
    """Unweighted mean over classes of TP/(TP+FP); never-predicted classes
    contribute 0."""
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(truths)} truths")
    if not len(truths):
        raise ValueError("empty prediction list")
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
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} predictions, {len(truths)} truths")
    if not len(truths):
        raise ValueError("empty prediction list")
    return sum(1 for p, t in zip(predictions, truths) if p == t) / len(truths)


METRICS = {"macro_precision": macro_precision, "accuracy": accuracy}


@dataclass
class PrecisionRow:
    model_name: str
    scores: dict[QualityLevel, float]


@dataclass
class PrecisionTable:
    rows: list[PrecisionRow]
    qualities: list[QualityLevel]

    def __post_init__(self):
        if not self.qualities:
            raise ValueError("no qualities")
        for row in self.rows:
            missing = [q for q in self.qualities if q not in row.scores]
            if missing:
                raise ValueError(f"row {row.model_name!r} missing scores for {missing}")


@dataclass
class AttributionRecord:
    id: str
    true_label: str
    predicted_labels: list[str]  # one per quality, ORIGINAL included
    predicted_scores: list[float]  # softmax at the true label, per quality
    ig_values: list[float]  # attribution sum, per degraded quality


@dataclass
class AttributionBatch:
    records: list[AttributionRecord]
    maps: list[dict[QualityLevel, AttributionMap]]
    qualities: list[QualityLevel]


def check_qualities(qualities) -> list[QualityLevel]:
    """A quality sweep: the original level included, no level twice."""
    qualities = list(qualities)
    for i, q in enumerate(qualities):
        if q in qualities[:i]:
            raise ValueError(f"quality {quality_key(q)} is listed twice")
    if ORIGINAL not in qualities:
        raise ValueError("quality list must include the original level")
    return qualities


def _check_classes(scorer: Scorer, dataset: Dataset) -> None:
    if scorer.num_classes != dataset.num_classes:
        raise ValueError(f"scorer expects {scorer.num_classes} classes, "
                         f"dataset has {dataset.num_classes}")


def prepare_input(image: np.ndarray, quality: QualityLevel,
                  resize_to: tuple[int, int]) -> np.ndarray:
    """Degrade at native resolution, then resize to the scorer input."""
    out = degrade_jpeg(image, quality)
    if out.shape[:2] != tuple(resize_to):
        out = resize_bicubic(out, resize_to[0], resize_to[1])
    return out


def sweep_precision(scorer: Scorer, dataset: Dataset, qualities,
                    metric: str = "macro_precision", name: str = "model") -> PrecisionTable:
    """Degrade, resize, classify and score the whole dataset per quality.

    The table has one row, called ``name``.  Images are the outer loop,
    so each is converted to float once and only one is held at a time.
    Each prepared image is scored on its own call to ``logits``: a batch
    of rows may round differently from one row.
    """
    qualities = check_qualities(qualities)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    score_fn = METRICS[metric]
    _check_classes(scorer, dataset)
    hw = scorer.input_shape[:2]
    preds: dict[QualityLevel, list[int]] = {q: [] for q in qualities}
    for item in dataset.items:
        image = item.image  # converted once, then degraded at every quality
        for q in qualities:
            try:
                prepared = prepare_input(image, q, hw)
                preds[q].append(argmax(scorer.logits(prepared[None])[0]))
            except Exception as exc:
                raise RuntimeError(
                    f"scoring failed on image {item.id!r} at quality "
                    f"{quality_key(q)}: {exc}") from exc
    truths = [it.label for it in dataset.items]
    scores = {q: score_fn(preds[q], truths, dataset.num_classes) for q in qualities}
    return PrecisionTable(rows=[PrecisionRow(model_name=name, scores=scores)],
                          qualities=qualities)


def attribute_batch(scorer: Scorer, dataset: Dataset, qualities,
                    steps: int = 50, scheme: str = "trapezoid") -> AttributionBatch:
    """Per image: baseline = resized original, one attribution map per
    degraded quality with the degraded-and-resized image as target.

    Each map costs one batched gradient call over its path nodes; the
    predicted labels and scores are read from that call's endpoint rows.
    """
    qualities = check_qualities(qualities)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_classes(scorer, dataset)
    hw = scorer.input_shape[:2]

    degraded = [q for q in qualities if q != ORIGINAL]
    records, all_maps = [], []
    for item in dataset.items:
        image = item.image
        q: QualityLevel = ORIGINAL
        try:
            baseline = prepare_input(image, ORIGINAL, hw)
            maps: dict[QualityLevel, AttributionMap] = {}
            for q in degraded:
                maps[q] = integrated_gradients(
                    scorer,
                    PathSpec(baseline=baseline, target=prepare_input(image, q, hw),
                             steps=steps, scheme=scheme),
                    item.label)
            # Every map starts at the same baseline row; with no degraded
            # quality there is no map, so the original is scored on its own.
            q = ORIGINAL
            original = (maps[degraded[0]].logits_baseline if degraded
                        else scorer.logits(baseline[None])[0])
        except Exception as exc:
            raise RuntimeError(f"attribution failed on image {item.id!r} at quality "
                               f"{quality_key(q)}: {exc}") from exc
        logits = [maps[q].logits_target if q in maps else original for q in qualities]
        records.append(AttributionRecord(
            id=item.id,
            true_label=dataset.class_names[item.label],
            predicted_labels=[dataset.class_names[argmax(z)] for z in logits],
            predicted_scores=[float(softmax(z)[item.label]) for z in logits],
            ig_values=[maps[q].sum for q in degraded]))
        all_maps.append(maps)
    return AttributionBatch(records=records, maps=all_maps, qualities=qualities)


def write_precision_csv(table: PrecisionTable, path) -> None:
    """Long format, one (model, quality, score) row per cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["model", "quality", "score"])
    for row in table.rows:
        for q in table.qualities:
            writer.writerow([row.model_name, quality_key(q), repr(row.scores[q])])
    Path(path).write_text(buf.getvalue())


def read_precision_csv(path) -> PrecisionTable:
    qualities: list[QualityLevel] = []
    by_model: dict[str, dict[QualityLevel, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["model", "quality", "score"]:
            raise ValueError(f"{path}: expected header model,quality,score, got {header}")
        for row in filter(None, reader):
            if len(row) != 3:
                raise ValueError(f"{path} line {reader.line_num}: expected 3 cells, got {row}")
            model, q, score = row[0], parse_quality(row[1]), float(row[2])
            if not 0.0 <= score <= 1.0:  # nan, inf or 1.7 would be drawn off the chart
                raise ValueError(f"{path} line {reader.line_num}: score {row[2]!r} for model "
                                 f"{model!r} at quality {quality_key(q)} is not in [0, 1]")
            scores = by_model.setdefault(model, {})
            if q in scores:
                raise ValueError(f"{path} line {reader.line_num}: model {model!r} at quality "
                                 f"{quality_key(q)} is listed twice")
            if q not in qualities:
                qualities.append(q)
            scores[q] = score
    rows = [PrecisionRow(model_name=m, scores=s) for m, s in by_model.items()]
    return PrecisionTable(rows=rows, qualities=qualities)


def write_attribution_csv(batch: AttributionBatch, path) -> None:
    qs = batch.qualities
    degraded = [q for q in qs if q != ORIGINAL]
    header = (["id", "true"]
              + [f"predicted_{quality_key(q)}" for q in qs]
              + [f"score_{quality_key(q)}" for q in qs]
              + [f"ig_{quality_key(q)}" for q in degraded])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for rec in batch.records:
        writer.writerow([rec.id, rec.true_label]
                        + rec.predicted_labels
                        + [f"{s:.6f}" for s in rec.predicted_scores]
                        + [f"{v:.6f}" for v in rec.ig_values])
    Path(path).write_text(buf.getvalue())
