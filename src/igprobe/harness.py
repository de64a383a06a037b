"""Quality-sweep evaluation and per-image attribution maps.

Pipeline order is degrade-then-resize: compression happens at the native
dataset resolution, bicubic resampling to the scorer input comes after.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .attribution import (DEFAULT_SCHEME, DEFAULT_STEPS, AttributionMap, PathSpec,
                          check_quadrature, integrated_gradients)
from .codec import (ORIGINAL, SUBSAMPLE_BELOW, QualityLevel, check_image, check_quality, jpeg_back,
                    jpeg_forward, resize_each)
from .data import Dataset, read_csv_rows
from .model import Scorer, ScorerModel, check_fit, softmax
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


def prepare_inputs(image: np.ndarray, qualities,
                   resize_to: tuple[int, int]) -> list[np.ndarray]:
    """``image`` prepared at each of ``qualities``, in order: degraded at
    native resolution, then resized to the scorer input.  The JPEG forward
    half runs once per subsampling mode and the back half once per level
    (``degrade_jpeg`` is their composition), and an image not of the scorer's
    size is resized once, as the stack of its levels (``resize_each``).  So
    each input has the bits of its level prepared alone, and a resized one
    owns its data."""
    image = check_image(image)
    qualities = [check_quality(q) for q in qualities]
    forward = {}  # subsample -> the image's JpegCoefficients in that mode

    def degraded(q):
        if q == ORIGINAL:
            return image
        subsample = q < SUBSAMPLE_BELOW
        if subsample not in forward:
            forward[subsample] = jpeg_forward(image, subsample)
        return jpeg_back(forward[subsample], q)

    if image.shape[:2] == tuple(resize_to):
        return [degraded(q) for q in qualities]
    stack = np.empty((len(qualities), *image.shape))
    for level, q in zip(stack, qualities):
        level[...] = degraded(q)
    return resize_each(stack, *resize_to)


def prepare_input(image: np.ndarray, quality: QualityLevel,
                  resize_to: tuple[int, int]) -> np.ndarray:
    """Degrade at native resolution, then resize to the scorer input."""
    return prepare_inputs(image, [quality], resize_to)[0]


def _workers(scorer: Scorer, n_items: int) -> int:
    """How many processes share an image loop: one per usable CPU, and at most
    one per image, for a ``ScorerModel`` where ``os.sched_getaffinity`` names
    the usable CPUs (Linux); 1 for any other scorer.  A ``ProviderClient``
    owns one child process and its pipes, which a forked copy must not share,
    and a plain callable may hold state of the calling process."""
    if not (isinstance(scorer, ScorerModel) and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_items))


def _visit(items, qualities, hw, work, what):
    """Per item in order, its image read and prepared at every level once
    (``prepare_inputs``), then ``{q: work(item, base, x)}``.  The first
    failure is raised as a ``RuntimeError`` naming ``what``, the image and
    the quality, chained from its cause; a failed read or preparation fails
    at the original quality."""
    levels = [ORIGINAL] + [q for q in qualities if q != ORIGINAL]
    results = []
    for item in items:
        q = ORIGINAL
        try:
            prepared = dict(zip(levels, prepare_inputs(item.image, levels, hw)))
            base = prepared[ORIGINAL]
            by_q = {}
            for q in qualities:
                by_q[q] = work(item, base, prepared[q])
        except Exception as exc:
            raise RuntimeError(f"{what} failed on image {item.id!r} at quality {q}: {exc}") from exc
        results.append(by_q)
    return results


def _reply_and_exit(run, chunk, out) -> NoReturn:
    """In a forked child: the reply is ``run(chunk)``, or the text of the
    exception it raised, pickled through ``out``; then ``os._exit``, so the
    child never returns into the caller, runs no atexit handler and flushes
    none of the parent's buffers.  It exits 0 only once the whole reply is
    written; anything but an ``Exception`` ends it with no reply."""
    code = 1
    try:
        try:
            reply = run(chunk)
        except Exception as exc:
            reply = str(exc)
        out.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
        out.flush()
        code = 0
    finally:
        os._exit(code)


def _join(run, chunks):
    """``run`` over each chunk of images: the first in this process, every
    other in a child forked for it.  Returns the results joined in chunk
    order.  The first failure in chunk order is raised: the first chunk's
    as ``run`` raised it, a child's text as a ``RuntimeError``.  On any way
    out, every child not yet joined is killed and reaped."""
    pids, pipes = [], []  # children not yet reaped, read ends not yet closed
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    _reply_and_exit(run, chunk, out)
                pids.append(pid)
        results = run(chunks[0])
        for pid, pipe, chunk in zip(list(pids), pipes, chunks[1:]):
            with pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if status or not reply:
                raise RuntimeError(f"the process for images {chunk[0].id!r} to {chunk[-1].id!r} "
                                   f"ended without a reply (exit status "
                                   f"{os.waitstatus_to_exitcode(status)})")
            more = pickle.loads(reply)
            if isinstance(more, str):
                raise RuntimeError(more)
            results += more
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _each_image(scorer: Scorer, dataset: Dataset, qualities, what: str, work) -> list[dict]:
    """The one per-image loop: per image, ``{q: work(item, base, x)}`` over
    ``qualities``, with the original ``base`` prepared first and ``x`` the
    input prepared at ``q``.  Before any image is read, the scorer must fit
    ``dataset`` (``check_fit``).

    The images are split into one contiguous chunk per worker (``_workers``):
    this process does the first chunk, and a child forked after the scorer
    and dataset are loaded does each other.  Each image is read when the
    loop reaches it (``DatasetItem.image``), so a worker reads only its own
    chunk's files, and no process holds every image's pixels.  The results
    are joined in image order, so they do not depend on the split.  The
    first failure in image order, a failed read included, is raised as a
    ``RuntimeError`` naming ``what``, the image and the quality, where it
    happens (``_visit``); a child sends only its text (``_join``).  A child
    that ends without a reply is named by its first and last image."""
    check_fit(scorer, dataset)
    hw = scorer.input_shape[:2]
    items = dataset.items
    n = _workers(scorer, len(items))
    bounds = [len(items) * i // n for i in range(n + 1)]
    return _join(lambda chunk: _visit(chunk, qualities, hw, work, what),
                 [items[a:b] for a, b in zip(bounds, bounds[1:])])


def sweep_precision(scorer: Scorer, dataset: Dataset, qualities,
                    metric: str = "macro_precision", name: str = "model") -> PrecisionTable:
    """Degrade, resize, classify and score the whole dataset per quality.

    The table has one row, called ``name``.  Each prepared image is scored
    on its own call to ``logits``: a batch of rows may round differently
    from one row.  A ``ScorerModel`` scores its images in forked processes,
    one per usable CPU, and the predictions are joined in image order (see
    ``_each_image``), so the table does not depend on the split.  Any other
    scorer runs in this process.  A scorer that does not fit ``dataset`` is
    refused before any image is read (``_each_image``).
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
    resized original, target = the compressed-and-resized image.  An
    image's maps hold its one prepared original as their ``baseline``.

    Each map is one ``integrated_gradients`` path: a ``ScorerModel``
    integrates it in first-layer coordinates, any other scorer takes its
    N+1 path nodes as the rows of one call.  The path's endpoint nodes hold
    the logits that ``write_attribution_csv`` reads.  A scorer that does not
    fit ``dataset`` is refused before any image is read (``_each_image``).
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
