"""Output checks for the benchmark's recipes, made apart from the program.

Expectations come from the input files alone: the benchmark's own numpy
forward and backward pass over ``checkpoint.json`` (or over the mock
provider's linear model), its own macro precision, PSNR, cross-entropy,
trapezoid IG and overlay rendering.  Only the degradation
and resize of the inputs use the program's ``igprobe.codec``; the PSNR
check bounds that.

A check takes the recipe's output directory as ``{file name: bytes}``
and returns the set of dataset indices it rejects plus one line per
problem, so the self-test can corrupt a copy in memory.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from inputs import CLASSES, parse_ppm, read_ppm

QUALITIES = ("original", 75, 50, 25)
DEGRADED = QUALITIES[1:]
OVERLAY_QUALITY = 25
OVERLAY_MODES = ("negative", "positive", "both")
IMAGE_WEIGHT, IG_WEIGHT = 0.7, 1.5

PRECISION_TOL = 1e-9  # same formula in float64, summed in another order
SCORE_TOL = 1e-6  # scores are written with 6 decimals
WIRE_SCORE_TOL = 1e-5  # the provider scores a float32 copy of the image
IG_CSV_TOL = 1e-6  # ig_ cells are written with 6 decimals
# Completeness at N=50 trapezoid steps: |ig - (L(q) - L(original))| may be
# at most COMPLETENESS_ABS + COMPLETENESS_REL * |L(q) - L(original)|.  On
# seeds 1-10 the ReLU scorer's gaps reach at most 0.22 of that bound: up to
# 2% of the loss change, and up to 2e-6 where the loss barely changes.
COMPLETENESS_ABS = 1e-5
COMPLETENESS_REL = 0.05
# The program's IG sum against the benchmark's, as a share of sum |IG|:
# in process only the summation order differs; over the provider wire,
# float32 image and gradient payloads bound the error by about 1e-6.
IG_REL = 1e-9
WIRE_IG_REL = 1e-5


def load_dataset_images(data_dir: Path) -> tuple[list[str], list[int], np.ndarray]:
    rows = (data_dir / "labels.csv").read_text().splitlines()[1:]
    names = [r.split(",")[0] for r in rows]
    labels = [CLASSES.index(r.split(",")[1]) for r in rows]
    images = np.stack([read_ppm(data_dir / n) for n in names]).astype(np.float64) / 255.0
    return names, labels, images


def prepare(images: np.ndarray, quality, hw: tuple[int, int], codec) -> np.ndarray:
    """Degrade at native size, then resize: the order the recipes use."""
    out = []
    for img in images:
        img = codec.degrade_jpeg(img, quality)
        if img.shape[:2] != hw:
            img = codec.resize_bicubic(img, *hw)
        out.append(img)
    return np.stack(out)


def checkpoint_model(path: Path):
    """Logits and input-gradient functions of a scorer checkpoint, plus its
    input size, in plain numpy.  Both take a (rows, H, W, C) batch."""
    doc = json.loads(path.read_text())

    def unpack(obj):
        return np.array(obj["data"], dtype=np.float64).reshape(obj["shape"])

    layers = [(unpack(l["weights"]), unpack(l["bias"]), l["activation"]) for l in doc["layers"]]
    emb = unpack(doc["class_embeddings"])
    temperature = float(doc["temperature"])

    def encode(x: np.ndarray):
        a, pre = x.reshape(len(x), -1), []
        for w, b, act in layers:
            pre.append(a @ w.T + b)
            a = np.maximum(pre[-1], 0.0) if act == "relu" else pre[-1]
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        e_hat = a / np.maximum(norms, 1e-12)
        return temperature * (e_hat @ emb.T), pre, norms, e_hat

    def logits(x: np.ndarray) -> np.ndarray:
        return encode(x)[0]

    def grad(x: np.ndarray, label: int) -> np.ndarray:
        z, pre, norms, e_hat = encode(x)
        d_z = softmax(z)
        d_z[:, label] -= 1.0
        d_ehat = temperature * (d_z @ emb)
        proj = (d_ehat * e_hat).sum(axis=1, keepdims=True)
        g = np.where(norms >= 1e-12, (d_ehat - e_hat * proj) / np.maximum(norms, 1e-12),
                     d_ehat / 1e-12)
        for (w, _, act), p in zip(reversed(layers), reversed(pre)):
            if act == "relu":
                g = g * (p > 0.0)
            g = g @ w
        return g

    h, w, _ = doc["input_shape"]
    return logits, grad, (int(h), int(w))


def linear_model(weights: np.ndarray, bias: np.ndarray):
    """Logits and input-gradient functions of softmax(Wx + b) cross-entropy."""
    def logits(x: np.ndarray) -> np.ndarray:
        return x.reshape(len(x), -1) @ weights.T + bias

    def grad(x: np.ndarray, label: int) -> np.ndarray:
        p = softmax(logits(x))
        p[:, label] -= 1.0
        return p @ weights

    return logits, grad


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(z: np.ndarray, labels) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(len(z)), labels]


def path_ig(grad, x0, x1, label, steps) -> np.ndarray:
    """Trapezoid IG of the loss from x0 to x1, all path nodes in one batch."""
    t = np.arange(steps + 1) / steps
    w = np.full(steps + 1, 1.0 / steps)
    w[[0, -1]] *= 0.5
    delta = x1 - x0
    return delta * (w @ grad(x0[None] + t[:, None, None, None] * delta[None], label)
                    ).reshape(x0.shape)


def to_u8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)


def render_overlay(base: np.ndarray, values: np.ndarray, mode: str) -> np.ndarray:
    scale = float(np.abs(values).max()) or 1.0
    scaled = values / scale
    color = np.zeros_like(base)
    if mode in ("negative", "both"):
        color[:, :, 0] = np.abs(np.clip(scaled, -1.0, 0.0)).max(axis=2)
    if mode in ("positive", "both"):
        color[:, :, 1] = np.clip(scaled, 0.0, 1.0).max(axis=2)
    return to_u8(np.clip(IMAGE_WEIGHT * base + IG_WEIGHT * color, 0.0, 1.0))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    return float(10.0 * np.log10(1.0 / np.mean((a - b) ** 2)))


def macro_precision(pred: np.ndarray, truth: np.ndarray) -> float:
    total = 0.0
    for c in range(len(CLASSES)):
        predicted = pred == c
        if predicted.any():
            total += float((predicted & (truth == c)).sum()) / float(predicted.sum())
    return total / len(CLASSES)


def _table_label(q) -> str:
    return "Original" if q == "original" else f"Quality {q}"


# ---------------------------------------------------------------- sweep

def expect_sweep(data_dir: Path, checkpoint: Path, codec) -> dict:
    _, labels, images = load_dataset_images(data_dir)
    logits, _, hw = checkpoint_model(checkpoint)
    truth = np.array(labels)
    precision, mean_psnr = {}, {}
    for q in QUALITIES:
        degraded = prepare(images, q, images.shape[1:3], codec)
        if q != "original":
            mean_psnr[q] = float(np.mean([psnr(a, b) for a, b in zip(images, degraded)]))
        scored = prepare(degraded, "original", hw, codec)
        precision[q] = macro_precision(logits(scored).argmax(axis=1), truth)
    return {"images": len(labels), "precision": precision, "psnr": mean_psnr}


def check_sweep(files: dict, exp: dict) -> tuple[set, list]:
    everything = set(range(exp["images"]))
    problems = []
    if exp["psnr"][75] <= exp["psnr"][25]:
        problems.append(f"mean PSNR does not fall from q75 ({exp['psnr'][75]:.2f} dB) "
                        f"to q25 ({exp['psnr'][25]:.2f} dB)")
    try:
        rows = list(csv.reader(io.StringIO(files["precision.csv"].decode())))
        table = list(csv.reader(io.StringIO(files["table.csv"].decode())))
        scores = {quality: float(score) for _, quality, score in rows[1:]}
    except (KeyError, UnicodeDecodeError, ValueError) as exc:
        return everything, [f"unreadable sweep output: {exc!r}"]
    if rows[:1] != [["model", "quality", "score"]] or len(rows) != 1 + len(QUALITIES):
        return everything, [f"precision.csv layout: {rows}"]
    for q in QUALITIES:
        got = scores.get(str(q))
        if got is None or not 0.0 <= got <= 1.0:
            problems.append(f"precision.csv score at {q}: {got}")
        elif abs(got - exp["precision"][q]) > PRECISION_TOL:
            problems.append(f"precision.csv at {q}: {got!r}, own forward pass gives "
                            f"{exp['precision'][q]!r}")
    if len(table) != 2 or table[0] != ["model"] + [_table_label(q) for q in QUALITIES]:
        problems.append(f"table.csv layout: {table}")
    else:
        cells = [f"{scores.get(str(q), float('nan')):.4f}" for q in QUALITIES]
        if table[1][1:] != cells:
            problems.append(f"table.csv {table[1][1:]} disagrees with precision.csv {cells}")
    return (everything if problems else set()), problems


# ---------------------------------------------------------------- attribute / provider

def expect_attribution(data_dir: Path, model: tuple, hw, codec, steps: int,
                       score_tol: float, ig_rel: float) -> dict:
    """Expected rows, IG maps and overlays for a (logits, grad) model."""
    logits, grad = model
    names, labels, images = load_dataset_images(data_dir)
    prepared = {q: prepare(images, q, hw, codec) for q in QUALITIES}
    lab = np.array(labels)
    exp = {"names": names, "labels": labels, "hw": hw, "score_tol": score_tol,
           "ig_rel": ig_rel, "base": prepared["original"], "pred": {}, "score": {}, "loss": {}}
    for q in QUALITIES:
        z = logits(prepared[q])
        exp["pred"][q] = z.argmax(axis=1)
        exp["score"][q] = softmax(z)[np.arange(len(z)), lab]
        exp["loss"][q] = cross_entropy(z, lab)
    exp["ig"] = {q: [path_ig(grad, prepared["original"][i], prepared[q][i], labels[i], steps)
                     for i in range(len(names))] for q in DEGRADED}
    return exp


def _check_overlay(files: dict, name: str, exp: dict, i: int, mode: str) -> str | None:
    try:
        pixels = parse_ppm(files[name])
    except (KeyError, ValueError) as exc:
        return f"overlay {name}: {exc!r}"
    h, w = exp["hw"]
    if pixels.shape != (h, w, 3):
        return f"overlay {name}: shape {pixels.shape}, scorer input is {h}x{w}"
    plain = to_u8(np.clip(IMAGE_WEIGHT * exp["base"][i], 0.0, 1.0))
    untouched = {"negative": (1, 2), "positive": (0, 2), "both": (2,)}[mode]
    for c in untouched:
        if not np.array_equal(pixels[:, :, c], plain[:, :, c]):
            return f"overlay {name}: channel {c} is not 0.7 x image"
    want = render_overlay(exp["base"][i], exp["ig"][OVERLAY_QUALITY][i], mode)
    diff = int(np.abs(want.astype(int) - pixels.astype(int)).max())
    if diff > 1:
        return f"overlay {name}: differs from the benchmark's IG overlay by {diff} levels"
    return None


def check_attribution(files: dict, exp: dict) -> tuple[set, list]:
    names = exp["names"]
    everything = set(range(len(names)))
    failed, problems = set(), []
    try:
        rows = list(csv.reader(io.StringIO(files["attributions.csv"].decode())))
        overlays = json.loads(files["overlays.json"])
    except (KeyError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return everything, [f"unreadable attribute output: {exc!r}"]
    header = (["id", "true"] + [f"predicted_{q}" for q in QUALITIES]
              + [f"score_{q}" for q in QUALITIES] + [f"ig_{q}" for q in DEGRADED])
    if not rows or rows[0] != header or len(rows) != 1 + len(names):
        return everything, [f"attributions.csv layout: header {rows[:1]}, {len(rows)} lines"]
    nq, nd = len(QUALITIES), len(DEGRADED)
    for i, row in enumerate(rows[1:]):
        why = None
        try:
            preds, scores = row[2:2 + nq], [float(v) for v in row[2 + nq:2 + 2 * nq]]
            igs = [float(v) for v in row[2 + 2 * nq:2 + 2 * nq + nd]]
        except ValueError as exc:
            why = f"row {i}: {exc}"
        if why or len(row) != len(header) or row[:2] != [names[i], CLASSES[exp["labels"][i]]]:
            why = why or f"row {i}: {row[:2]}"
        else:
            tol = exp["score_tol"]
            for j, q in enumerate(QUALITIES):
                if preds[j] != CLASSES[exp["pred"][q][i]]:
                    why = f"{names[i]}: predicted {preds[j]} at {q}, own forward pass says " \
                          f"{CLASSES[exp['pred'][q][i]]}"
                elif abs(scores[j] - exp["score"][q][i]) > tol:
                    why = f"{names[i]}: score {scores[j]} at {q}, own {exp['score'][q][i]:.7f}"
            for j, q in enumerate(DEGRADED):
                d_loss = exp["loss"][q][i] - exp["loss"]["original"][i]
                if abs(igs[j] - d_loss) > COMPLETENESS_ABS + COMPLETENESS_REL * abs(d_loss):
                    why = f"{names[i]}: ig_{q} = {igs[j]} but L({q}) - L(original) = {d_loss:.7f}"
                else:
                    own = exp["ig"][q][i]
                    if abs(igs[j] - own.sum()) > IG_CSV_TOL + exp["ig_rel"] * np.abs(own).sum():
                        why = f"{names[i]}: ig_{q} = {igs[j]}, the benchmark's IG {own.sum():.7f}"
        if why:
            failed.add(i)
            problems.append(why)

    listed = set()
    entries = {e.get("id"): e for e in overlays if isinstance(e, dict)}
    for i, name in enumerate(names):
        entry = entries.get(name)
        if entry is None or entry.get("quality") != OVERLAY_QUALITY:
            failed.add(i)
            problems.append(f"{name}: no overlays.json entry at q{OVERLAY_QUALITY}")
            continue
        for mode in OVERLAY_MODES:
            fname = entry.get("files", {}).get(mode)
            listed.add(fname)
            why = _check_overlay(files, fname, exp, i, mode)
            if why:
                failed.add(i)
                problems.append(why)
    stray = sorted(n for n in files if n.endswith(".ppm") and n not in listed)
    if stray or len(overlays) != len(names):
        problems.append(f"{len(overlays)} overlays.json entries for {len(names)} images; "
                        f"unlisted overlay files {stray[:3]}")
        failed = everything
    return failed, problems


# ---------------------------------------------------------------- self-test

def corruptions(workload: str, files: dict) -> dict[str, dict]:
    """One corrupted copy of the outputs per kind of cell the checks guard."""
    out = {}
    if workload == "sweep":
        lines = files["precision.csv"].decode().splitlines()
        model, quality, score = lines[-1].split(",")
        wrong = float(score) - 0.25 if float(score) >= 0.25 else float(score) + 0.25
        lines[-1] = f"{model},{quality},{wrong!r}"
        out["precision cell"] = {**files, "precision.csv": ("\n".join(lines) + "\n").encode()}
        return out
    lines = files["attributions.csv"].decode().splitlines()
    cells = lines[1].split(",")
    value = float(cells[-1])
    cells[-1] = f"{value + 0.5 * abs(value) + 1e-3:.6f}"
    lines[1] = ",".join(cells)
    out["ig_ cell"] = {**files, "attributions.csv": ("\n".join(lines) + "\n").encode()}
    name = json.loads(files["overlays.json"])[0]["files"]["both"]
    data = bytearray(files[name])
    for k in range(data.index(b"\n255\n") + 5, len(data)):
        data[k] ^= 0xFF  # invert every pixel byte, header kept
    out["overlay file"] = {**files, name: bytes(data)}
    return out
