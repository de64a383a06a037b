"""Dataset ingestion and seeded synthetic image generation."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imgio import read_pixels
from .tensor import SeededRng


@dataclass
class DatasetItem:
    """One labelled image.  ``pixels`` holds it as stored: H x W x 3 uint8
    as read from a file (an eighth of the float64 size), or float64 in
    [0, 1] where the values are not 8-bit, as for synthetic data."""

    pixels: np.ndarray
    label: int
    id: str

    @property
    def image(self) -> np.ndarray:
        """The image as H x W x 3 float64 in [0, 1]: a fresh copy of 8-bit
        pixels on each access, the ``pixels`` object itself otherwise."""
        if self.pixels.dtype == np.uint8:
            return self.pixels.astype(np.float64) / 255.0
        return self.pixels


@dataclass
class Dataset:
    items: list[DatasetItem]
    class_names: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.items[0].pixels.shape


def read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """Each row of CSV file ``path``, read as UTF-8 whatever the locale, with
    the line it ends on; every CSV input is read here.  A file that cannot
    be opened, decoded or parsed is refused naming ``path``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, row) for row in reader]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def load_dataset(directory: str | Path) -> Dataset:
    """Load ``labels.csv`` (filename,class_name) plus the image files it names.

    Class indices follow first appearance order in the CSV; item order
    is CSV order.
    """
    directory = Path(directory)
    csv_path = directory / "labels.csv"
    if not csv_path.exists():
        raise ValueError(f"missing labels.csv in {directory}")

    lines = read_csv_rows(csv_path)
    header = lines[0][1] if lines else None
    if header is None or [c.strip() for c in header[:2]] != ["filename", "class_name"]:
        raise ValueError(f"{csv_path}: expected header 'filename,class_name', got {header}")
    rows = [(line_no, row) for line_no, row in lines[1:] if row]

    class_names: list[str] = []
    items: list[DatasetItem] = []
    seen: set[str] = set()
    problems: list[str] = []
    for line_no, row in rows:
        if len(row) < 2:
            problems.append(f"row {line_no}: expected 2 columns, got {len(row)}")
            continue
        filename, class_name = row[0].strip(), row[1].strip()
        if filename in seen:
            problems.append(f"row {line_no}: duplicate id {filename!r}")
            continue
        seen.add(filename)
        if class_name not in class_names:
            class_names.append(class_name)
        path = directory / filename
        if not path.exists():
            problems.append(f"row {line_no}: missing image file {filename!r}")
            continue
        try:
            pixels = read_pixels(path)
        except ValueError as exc:
            problems.append(f"row {line_no}: {exc}")
            continue
        items.append(DatasetItem(pixels=pixels, label=class_names.index(class_name), id=filename))

    shapes = {it.pixels.shape for it in items}
    if len(shapes) > 1:
        counts = sorted(shapes, key=lambda s: sum(1 for it in items if it.pixels.shape == s))
        majority = counts[-1]
        for it in items:
            if it.pixels.shape != majority:
                problems.append(f"{it.id}: shape {it.pixels.shape} != {majority}")
    if problems:
        raise ValueError("dataset errors:\n  " + "\n  ".join(problems))
    if not items:
        raise ValueError(f"{csv_path}: no items")
    return Dataset(items=items, class_names=class_names)


def _sine(side: int, cycles_per_px: float, angle: float, amp: float) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    proj = xx * np.cos(angle) + yy * np.sin(angle)
    return amp * np.sin(2.0 * np.pi * cycles_per_px * proj)


def _disk(side: int, radius: float, cy: float, cx: float) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    dist = np.sqrt((yy - cy) ** 2 + (xx - cx) ** 2)
    # soft edge ~1.5px wide keeps the class learnable after resampling
    return 0.25 + 0.55 / (1.0 + np.exp((dist - radius) / 1.5))

def _ramp(side: int, angle: float, offset: float) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    proj = ((xx - side / 2) * np.cos(angle) + (yy - side / 2) * np.sin(angle)) / side
    return np.clip(0.5 + 0.7 * proj + offset, 0.1, 0.9)


FAMILY_NAMES = ("stripes_a", "stripes_b", "disk", "ramp")


# Stripe geometry: the two stripe families share one low-frequency carrier
# and differ only in the orientation of a ~2.2px-wavelength component whose
# per-block DCT energy sits below the q=25 quantization half-step (so coarse
# compression erases exactly the evidence separating them) while staying an
# order of magnitude above what a matched filter needs against sigma=0.05
# noise at original quality.
_CARRIER_FREQ = 0.06
_CARRIER_AMP = 0.10
_STRIPE_FREQ = 0.45
_STRIPE_AMP = 0.06


def gen_synthetic(seed: int, classes: int, per_class: int, side: int) -> Dataset:
    """Parametric, linearly-separable-ish classes with seeded noise.

    Classes cycle through four pattern families: two oriented stripe
    families (whose high-frequency content is what lossy compression
    destroys first), soft disks, and linear ramps.  Stripe templates are
    deterministic per class; per-image variation is the seeded
    sigma=0.05 Gaussian pixel noise (plus placement jitter for
    disks/ramps), so a seed fully determines every pixel.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if side < 8:
        raise ValueError(f"side must be >= 8, got {side}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")

    rng = SeededRng(seed)
    class_names = [f"{FAMILY_NAMES[c % 4]}_{c}" for c in range(classes)]
    items: list[DatasetItem] = []
    for c in range(classes):
        family = c % 4
        tier = c // 4
        for i in range(per_class):
            if family in (0, 1):
                angle = (np.pi / 4 if family == 0 else 3 * np.pi / 4) + 0.15 * tier
                freq = min(_STRIPE_FREQ + 0.01 * tier, 0.48)
                pattern = (0.5
                           + _sine(side, _CARRIER_FREQ, np.pi / 8, _CARRIER_AMP)
                           + _sine(side, freq, angle, _STRIPE_AMP))
            elif family == 2:
                radius = side * (0.18 + 0.04 * tier)
                cy = side / 2 + side * 0.08 * (2.0 * float(rng.uniform([1])[0]) - 1.0)
                cx = side / 2 + side * 0.08 * (2.0 * float(rng.uniform([1])[0]) - 1.0)
                pattern = _disk(side, radius, cy, cx)
            else:
                angle = 2.0 * np.pi * c / classes + 0.1 * float(rng.normal([1])[0])
                offset = 0.05 * (2.0 * float(rng.uniform([1])[0]) - 1.0)
                pattern = _ramp(side, angle, offset)
            noise = 0.05 * rng.normal([side, side, 3])
            image = np.clip(pattern[:, :, None] + noise, 0.0, 1.0)
            items.append(DatasetItem(pixels=image, label=c, id=f"{class_names[c]}_{i:04d}"))
    return Dataset(items=items, class_names=class_names)
