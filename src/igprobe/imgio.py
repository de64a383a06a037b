"""Image file I/O: binary PPM (P6) natively, PNG when Pillow is present."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .codec import check_image

try:
    from PIL import Image as _PILImage
    HAS_PNG = True
except ImportError:  # pragma: no cover - depends on optional extra
    _PILImage = None
    HAS_PNG = False


def _to_u8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(img * 255.0 + 0.5), 0, 255).astype(np.uint8)


def write_ppm(path: str | Path, img: np.ndarray) -> None:
    """Write an 8-bit binary PPM (P6, maxval 255)."""
    img = check_image(img)
    h, w = img.shape[:2]
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + _to_u8(img).tobytes())


def _read_header_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated tokens, skipping # comments."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ValueError("truncated PPM header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            start = i
            while i < len(data) and not data[i:i + 1].isspace() and data[i:i + 1] != b"#":
                i += 1
            tokens.append(data[start:i])
    # exactly one whitespace byte separates the header from pixel data
    return tokens, i + 1


def _read_ppm_pixels(path: Path) -> np.ndarray:
    data = path.read_bytes()
    tokens, offset = _read_header_tokens(data, 4)
    if tokens[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (magic {tokens[0]!r})")
    w, h, maxval = (int(t) for t in tokens[1:4])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    if w < 1 or h < 1:
        raise ValueError(f"{path}: bad dimensions {w} x {h}")
    need = w * h * 3
    pixels = data[offset:offset + need]
    if len(pixels) < need:
        raise ValueError(f"{path}: expected {need} pixel bytes, found {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM (P6, maxval 255) into a [0, 1] float image."""
    return _read_ppm_pixels(Path(path)).astype(np.float64) / 255.0


def write_image(path: str | Path, img: np.ndarray) -> None:
    """Write PPM or PNG depending on the file suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        write_ppm(path, img)
    elif suffix == ".png":
        if not HAS_PNG:
            raise ValueError("PNG support needs Pillow (install the 'png' extra)")
        _PILImage.fromarray(_to_u8(check_image(img))).save(path, format="PNG")
    else:
        raise ValueError(f"unsupported image format {suffix!r} (use .ppm or .png)")


def read_pixels(path: str | Path) -> np.ndarray:
    """Read PPM or PNG, by file suffix, as the file's H x W x 3 uint8 pixels."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ppm":
        return _read_ppm_pixels(path)
    if suffix == ".png":
        if not HAS_PNG:
            raise ValueError("PNG support needs Pillow (install the 'png' extra)")
        return np.asarray(_PILImage.open(path).convert("RGB"))
    raise ValueError(f"unsupported image format {suffix!r} (use .ppm or .png)")


def read_image(path: str | Path) -> np.ndarray:
    """Read PPM or PNG, by file suffix, into a [0, 1] float image."""
    return read_pixels(path).astype(np.float64) / 255.0
