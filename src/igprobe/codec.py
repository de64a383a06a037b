"""Lossy JPEG-style image degradation and bicubic resampling.

The degradation pipeline reproduces the lossy stages of a baseline JPEG
encoder (color transform, chroma subsampling, blockwise DCT and
quantization) as a pure function of the image and the quality factor.
Entropy coding is omitted: it is lossless and contributes nothing to
degradation.  Images are H x W x 3 float64 arrays with RGB values in
[0, 1]; every public operation clamps its output back into that range.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .tensor import require_integer

ORIGINAL = "original"
QualityLevel = Union[int, str]

SUBSAMPLE_BELOW = 95  # 4:2:0 chroma below this quality, 4:4:4 at or above it
CUBIC_A = -0.75  # Keys kernel parameter, the common convolutional-resizer choice

# Base luminance/chrominance quantization tables (ITU T.81 Annex K).
LUMA_BASE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99],
], dtype=np.int64)

CHROMA_BASE = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
], dtype=np.int64)


def check_image(img: np.ndarray, name: str = "image") -> np.ndarray:
    """Validate an H x W x 3 float image with values in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"{name} must be H x W x 3, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"{name} has empty dimensions: {img.shape}")
    # Two reductions cover the finiteness check too: a NaN reaches both
    # the min and the max, and an infinity reaches one of them.
    lo, hi = img.min(), img.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"{name} contains non-finite values")
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"{name} values outside [0, 1]: min={lo}, max={hi}")
    return img


def check_quality(q: QualityLevel) -> QualityLevel:
    """An integer in [1, 100] or ORIGINAL; text is read with spaces and case ignored."""
    if isinstance(q, str):
        q = q.strip().lower()
        if q == ORIGINAL:
            return ORIGINAL
        q = int(q)
    q = require_integer(q, "quality")
    if not 1 <= q <= 100:
        raise ValueError(f"quality must be in [1, 100] or '{ORIGINAL}', got {q}")
    return q


@dataclass(frozen=True)
class QuantTable:
    luma: np.ndarray
    chroma: np.ndarray


@lru_cache(maxsize=128)
def quant_table(q: int) -> QuantTable:
    """IJG-convention scaled quantization tables for quality ``q`` in [1, 100].

    Integer arithmetic throughout, matching libjpeg: scale 5000/q below
    50 else 200 - 2q, entries floor((base * scale + 50) / 100) clamped
    to [1, 255].  q=50 reproduces the base tables; q=100 is all ones.
    The tables are read-only, because every call at ``q`` shares them.
    """
    q = check_quality(q)
    if q == ORIGINAL:
        raise ValueError("quant_table is undefined for original quality")
    scale = 5000 // q if q < 50 else 200 - 2 * q
    luma = np.clip((LUMA_BASE * scale + 50) // 100, 1, 255)
    chroma = np.clip((CHROMA_BASE * scale + 50) // 100, 1, 255)
    luma.flags.writeable = False
    chroma.flags.writeable = False
    return QuantTable(luma=luma, chroma=chroma)


def _dct_matrix() -> np.ndarray:
    # Orthonormal 8-point DCT-II basis.
    k = np.arange(8).reshape(8, 1)
    n = np.arange(8).reshape(1, 8)
    m = np.sqrt(2.0 / 8.0) * np.cos((2 * n + 1) * k * np.pi / 16.0)
    m[0, :] /= np.sqrt(2.0)
    return m


_DCT = _dct_matrix()


def dct8x8(block: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of an 8x8 block, or of each block in a
    ``(..., 8, 8)`` stack."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != (8, 8):
        raise ValueError(f"dct8x8 expects 8x8 blocks, got {block.shape}")
    return _DCT @ block @ _DCT.T


def idct8x8(block: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct8x8` (2-D DCT-III), also over a ``(..., 8, 8)`` stack."""
    block = np.asarray(block, dtype=np.float64)
    if block.shape[-2:] != (8, 8):
        raise ValueError(f"idct8x8 expects 8x8 blocks, got {block.shape}")
    return _DCT.T @ block @ _DCT


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _quantize_plane(planes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """DCT -> quantize -> dequantize -> inverse DCT of each 8x8 block of (..., H, W) planes."""
    *lead, h, w = planes.shape
    blocks = planes.reshape(*lead, h // 8, 8, w // 8, 8).swapaxes(-3, -2)
    recon = _round_half_away(dct8x8(blocks) / table) * table
    return idct8x8(recon).swapaxes(-3, -2).reshape(planes.shape)


def _rgb_to_ycbcr(rgb255: np.ndarray) -> np.ndarray:
    # The (3, H, W) Y, Cb, Cr stack: BT.601 full-range JPEG matrix on contiguous R, G, B planes.
    r, g, b = np.ascontiguousarray(np.moveaxis(rgb255, -1, 0))
    ycc = np.empty((3,) + r.shape)
    ycc[0] = 0.299 * r + 0.587 * g + 0.114 * b
    ycc[1] = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    ycc[2] = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return ycc


def _ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    rgb = np.empty(y.shape + (3,))
    rgb[..., 0] = y + 1.402 * (cr - 128.0)
    rgb[..., 1] = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
    rgb[..., 2] = y + 1.772 * (cb - 128.0)
    return rgb


def _pad_to_multiple(planes: np.ndarray, m: int) -> np.ndarray:
    # Edge padding of the last two axes; an aligned plane or stack is returned itself.
    h, w = planes.shape[-2:]
    if h % m == 0 and w % m == 0:
        return planes
    pad = [(0, 0)] * (planes.ndim - 2) + [(0, -h % m), (0, -w % m)]
    return np.pad(planes, pad, mode="edge")


def _subsample_420(planes: np.ndarray) -> np.ndarray:
    """2x2 box average over the last two axes, each of even length.  Pairing
    the sums as ``(a + b) + (c + d)`` matches ``mean`` over each 2x2 block
    bit for bit; the running order ``((a + b) + c) + d`` does not."""
    return ((planes[..., 0::2, 0::2] + planes[..., 0::2, 1::2])
            + (planes[..., 1::2, 0::2] + planes[..., 1::2, 1::2])) / 4


def degrade_jpeg(img: np.ndarray, q: QualityLevel) -> np.ndarray:
    """JPEG-style lossy round trip at quality ``q``; ORIGINAL passes through.

    Chroma is 4:2:0 subsampled (2x2 box average down, nearest-neighbor
    up) for q < ``SUBSAMPLE_BELOW``, 4:4:4 otherwise, mirroring common
    encoder behavior.
    """
    img = check_image(img)
    q = check_quality(q)
    if q == ORIGINAL:
        return img

    tables = quant_table(q)
    subsample = q < SUBSAMPLE_BELOW
    pad = 16 if subsample else 8

    h, w = img.shape[0], img.shape[1]
    ycc = _pad_to_multiple(_rgb_to_ycbcr(img * 255.0), pad)
    y = _quantize_plane(ycc[0] - 128.0, tables.luma) + 128.0
    chroma = _subsample_420(ycc[1:]) if subsample else ycc[1:]
    chroma = _quantize_plane(chroma - 128.0, tables.chroma) + 128.0
    if subsample:
        chroma = chroma.repeat(2, axis=-2).repeat(2, axis=-1)

    rgb = _ycbcr_to_rgb(y[:h, :w], *chroma[:, :h, :w])
    return np.clip(rgb / 255.0, 0.0, 1.0)


def cubic_kernel(t: np.ndarray) -> np.ndarray:
    """Keys cubic convolution kernel with parameter ``CUBIC_A``."""
    at = np.abs(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(at)
    near = at <= 1.0
    far = (at > 1.0) & (at < 2.0)
    out[near] = ((CUBIC_A + 2.0) * at[near] - (CUBIC_A + 3.0)) * at[near] ** 2 + 1.0
    out[far] = CUBIC_A * (((at[far] - 5.0) * at[far] + 8.0) * at[far] - 4.0)
    return out


@lru_cache(maxsize=64)
def _axis_taps(in_len: int, out_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Source indices and kernel weights, ``(out_len, 4)`` each, read-only
    because every resize along the same axis lengths shares them."""
    # Half-pixel alignment: dst center i maps to (i + 0.5) * scale - 0.5.
    scale = in_len / out_len
    src = (np.arange(out_len, dtype=np.float64) + 0.5) * scale - 0.5
    base = np.floor(src)
    frac = src - base
    taps = base[:, None].astype(np.int64) + np.arange(-1, 3)[None, :]
    taps = np.clip(taps, 0, in_len - 1)
    offsets = frac[:, None] - np.arange(-1, 3)[None, :]
    weights = cubic_kernel(offsets)
    taps.flags.writeable = False
    weights.flags.writeable = False
    return taps, weights


def _resize_axis(arr: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    taps, weights = _axis_taps(arr.shape[axis], out_len)
    # Tap k of every output position, gathered along ``axis`` itself.
    p = [arr.take(taps[:, k], axis=axis) for k in range(4)]
    wshape = (out_len,) + (1,) * (arr.ndim - 1 - axis)
    w = [weights[:, k].reshape(wshape) for k in range(4)]
    # Anchored form of the 4-tap dot product: the floor tap carries the
    # residual kernel mass, so constants survive bit-exactly whatever
    # the rounding of the individual weights.
    anchor = p[1]
    return anchor + (w[0] * (p[0] - anchor)
                     + w[2] * (p[2] - anchor)
                     + w[3] * (p[3] - anchor))


def resize_bicubic(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable cubic-convolution resize with edge clamping.

    Uses half-pixel center alignment and the Keys kernel at ``CUBIC_A``.
    Output is clamped to [0, 1].
    """
    img = check_image(img)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be >= 1, got {out_h} x {out_w}")
    out = _resize_axis(img, out_h, axis=0)
    out = _resize_axis(out, out_w, axis=1)
    return np.clip(out, 0.0, 1.0)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two [0, 1] images."""
    a = check_image(a, "first image")
    b = check_image(b, "second image")
    if a.shape != b.shape:
        raise ValueError(f"psnr shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)
