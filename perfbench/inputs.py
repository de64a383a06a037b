"""Seeded input files for the benchmark: PPM datasets with labels.csv.

The generator is the benchmark's own, so a change to the program's
synthetic corpus does not change what the benchmark feeds it.  Patterns
are drawn in image-relative coordinates, so a 96x96 image resized to
32x32 looks like a 32x32 training image of the same class.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CLASSES = ("stripes_a", "stripes_b", "disk", "ramp")
NOISE_SIGMA = 0.05
# Fine stripes at 14 cycles per image: about 0.44 cycles per pixel at 32x32,
# where q=25 quantization erases most of them.
STRIPE_CYCLES = 14.0

# One random stream per input set, so adding a set never shifts another.
STREAM_TRAIN, STREAM_SWEEP, STREAM_ATTRIBUTE, STREAM_PROVIDER = range(4)


def _pattern(family: int, side: int, rng: np.random.Generator) -> np.ndarray:
    v, u = (np.mgrid[0:side, 0:side] + 0.5) / side
    if family in (0, 1):
        angle = np.pi / 4 if family == 0 else 3 * np.pi / 4
        carrier = 0.10 * np.sin(2 * np.pi * 2.0 * (u * np.cos(np.pi / 8) + v * np.sin(np.pi / 8)))
        fine = 0.08 * np.sin(2 * np.pi * STRIPE_CYCLES * (u * np.cos(angle) + v * np.sin(angle)))
        return 0.5 + carrier + fine
    if family == 2:
        cy, cx = 0.5 + rng.uniform(-0.08, 0.08, size=2)
        radius = rng.uniform(0.18, 0.24)
        dist = np.hypot(v - cy, u - cx)
        return 0.25 + 0.55 / (1.0 + np.exp((dist - radius) / 0.05))
    angle = rng.normal(0.0, 0.3)
    offset = rng.uniform(-0.05, 0.05)
    proj = (u - 0.5) * np.cos(angle) + (v - 0.5) * np.sin(angle)
    return np.clip(0.5 + 0.7 * proj + offset, 0.1, 0.9)


def make_images(seed: int, stream: int, count: int, side: int) -> tuple[list[np.ndarray], list[int]]:
    """``count`` uint8 HxWx3 images, classes round-robin from class 0."""
    rng = np.random.default_rng([seed, stream])
    images, labels = [], []
    for i in range(count):
        family = i % len(CLASSES)
        pattern = _pattern(family, side, rng)
        img = np.clip(pattern[:, :, None] + NOISE_SIGMA * rng.standard_normal((side, side, 3)),
                      0.0, 1.0)
        images.append(np.floor(img * 255.0 + 0.5).astype(np.uint8))
        labels.append(family)
    return images, labels


def write_ppm(path: Path, img: np.ndarray) -> None:
    h, w = img.shape[:2]
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def parse_ppm(data: bytes) -> np.ndarray:
    """uint8 HxWx3 from a P6 file with a plain three-line header."""
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError("not a plain P6 file")
    w, h = (int(t) for t in parts[1].split())
    if len(parts[3]) != w * h * 3:
        raise ValueError(f"{len(parts[3])} pixel bytes for {w}x{h}")
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w, 3)


def read_ppm(path: Path) -> np.ndarray:
    return parse_ppm(path.read_bytes())


def write_dataset(directory: Path, seed: int, stream: int, count: int, side: int) -> None:
    """Write ``count`` images plus labels.csv."""
    directory.mkdir(parents=True, exist_ok=True)
    images, labels = make_images(seed, stream, count, side)
    rows = ["filename,class_name"]
    for i, (img, label) in enumerate(zip(images, labels)):
        name = f"img_{i:04d}.ppm"
        write_ppm(directory / name, img)
        rows.append(f"{name},{CLASSES[label]}")
    (directory / "labels.csv").write_text("\n".join(rows) + "\n")
