"""Dataset ingestion and seeded synthetic image generation."""

from __future__ import annotations

import csv
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imgio import decode_pixels
from .tensor import SeededRng, require_integer


@dataclass(frozen=True)
class ImageFile:
    """An image file as ``load_dataset`` checked it: its path, the shape of
    its pixels and a CRC-32 of its bytes, but not the pixels themselves.
    The path is a ``str``: a ``Path`` would hold ~190 B more per item."""

    path: str
    shape: tuple[int, int, int]
    crc: int

    @classmethod
    def check(cls, path: Path) -> ImageFile:
        """Read and decode image file ``path``, keeping what ``read`` must find again."""
        data = path.read_bytes()
        return cls(str(path), decode_pixels(path, data).shape, zlib.crc32(data))

    def read(self) -> np.ndarray:
        """The file's H x W x 3 uint8 pixels, read again.  A file whose bytes
        or shape are no longer the ones checked is refused."""
        data = Path(self.path).read_bytes()
        crc = zlib.crc32(data)
        if crc != self.crc:
            raise ValueError(f"{self.path} changed after the dataset was loaded "
                             f"(CRC-32 {crc:08x}, loaded as {self.crc:08x})")
        pixels = decode_pixels(self.path, data)
        if pixels.shape != self.shape:
            raise ValueError(f"{self.path}: shape {pixels.shape}, loaded as {self.shape}")
        return pixels


class DatasetItem:
    """One labelled image.  ``pixels`` is the image as stored: H x W x 3
    uint8 (an eighth of the float64 size), or float64 in [0, 1] where the
    values are not 8-bit, as for synthetic data.  An item made from an
    ``ImageFile``, as ``load_dataset`` makes them, holds only that record:
    each access of ``pixels`` reads the file's uint8 pixels again."""

    def __init__(self, pixels: np.ndarray | ImageFile, label: int, id: str):
        self._stored, self.label, self.id = pixels, label, id

    @property
    def pixels(self) -> np.ndarray:
        stored = self._stored
        return stored.read() if isinstance(stored, ImageFile) else stored

    @property
    def shape(self) -> tuple[int, int, int]:
        """The image's shape, known without reading its file."""
        return self._stored.shape

    @property
    def image(self) -> np.ndarray:
        """The image as H x W x 3 float64 in [0, 1]: a fresh copy of 8-bit
        pixels on each access, the ``pixels`` object itself otherwise."""
        pixels = self.pixels
        if pixels.dtype == np.uint8:
            return pixels.astype(np.float64) / 255.0
        return pixels


@dataclass
class Dataset:
    items: list[DatasetItem]
    class_names: list[str]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.items[0].shape


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
    is CSV order.  Every listed file is read and checked here, and any bad
    row is refused, before anything else runs.  An item then keeps only its
    file's path, shape and CRC-32 (``ImageFile``), not its pixels: the loop
    that uses an image reads the file again (``DatasetItem.pixels``).
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
            file = ImageFile.check(path)
        except (ValueError, OSError) as exc:
            problems.append(f"row {line_no}: {exc}")
            continue
        items.append(DatasetItem(file, class_names.index(class_name), filename))

    shapes = {it.shape for it in items}
    if len(shapes) > 1:
        counts = sorted(shapes, key=lambda s: sum(1 for it in items if it.shape == s))
        majority = counts[-1]
        for it in items:
            if it.shape != majority:
                problems.append(f"{it.id}: shape {it.shape} != {majority}")
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

_LEAST = {"classes": 2, "per_class": 1, "side": 8}


def check_synthetic_setting(name: str, value: int) -> int:
    """``value`` as an int if ``gen_synthetic``'s setting ``name`` may take it:
    an integer of at least its entry in ``_LEAST``.  The CLI's dataset flags
    check here too."""
    return require_integer(value, name, _LEAST[name])


def gen_synthetic(seed: int, classes: int, per_class: int, side: int) -> Dataset:
    """Parametric, linearly-separable-ish classes with seeded noise.

    Classes cycle through four pattern families: two oriented stripe
    families (whose high-frequency content is what lossy compression
    destroys first), soft disks, and linear ramps.  Stripe templates are
    deterministic per class; per-image variation is the seeded
    sigma=0.05 Gaussian pixel noise (plus placement jitter for
    disks/ramps), so a seed fully determines every pixel.
    """
    classes = check_synthetic_setting("classes", classes)
    side = check_synthetic_setting("side", side)
    per_class = check_synthetic_setting("per_class", per_class)

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
