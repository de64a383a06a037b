"""Deterministic float64 tensor helpers and a counter-based seeded RNG.

All numeric state in this package is carried by row-major ``numpy``
arrays of 64-bit floats ("tensors").  The helpers here add the input
validation and determinism guarantees the rest of the package relies on:
no NaN/Inf ever escapes a public operation, argmax ties break to the
lowest index, and the RNG produces the same stream for the same seed on
every platform.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Tensor = np.ndarray

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
# SplitMix64 constants (Steele, Lea & Flood 2014).
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def _checked_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ValueError("rank zero unsupported")
    for s in shape:
        if s < 1:
            raise ValueError(f"shape entries must be >= 1, got {shape}")
    return shape


def require_finite(t: Tensor, name: str = "tensor") -> Tensor:
    """Raise if any element is NaN or infinite."""
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{name} contains non-finite values")
    return t


def require_integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an int if it is a whole number, and at least ``least`` if
    given.  An int, a numpy integer or a float such as 50.0 is whole; a bool,
    2.5, NaN or text is refused, naming ``name``."""
    whole = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer, got {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def argmax(t: Tensor) -> int:
    """Index of the maximum of a rank-1 tensor; ties break to the lowest index."""
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 1:
        raise ValueError(f"argmax expects a rank-1 tensor, got rank {t.ndim}")
    if t.size == 0:
        raise ValueError("argmax of empty tensor")
    return int(np.argmax(t))


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 output function; uint64 arithmetic wraps mod 2**64.
    z = x.astype(np.uint64)
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


class SeededRng:
    """Counter-based SplitMix64 stream with Box-Muller normal draws.

    Output ``k`` of the stream is a pure function of ``(seed, k)``, so
    draws vectorise and the stream is identical on every platform.  A
    generator instance is single-owner: each draw advances its counter.
    """

    def __init__(self, seed: int):
        self._seed = _U64(int(seed) & _MASK64)
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._seed + idx * _GOLDEN)

    def uniform(self, shape: Sequence[int]) -> Tensor:
        """i.i.d. draws from [0, 1) with 53-bit resolution."""
        shape = _checked_shape(shape)
        n = int(np.prod(shape))
        u = (self._raw(n) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        return u.reshape(shape)

    def normal(self, shape: Sequence[int]) -> Tensor:
        """i.i.d. standard normal draws via Box-Muller on the stream."""
        shape = _checked_shape(shape)
        n = int(np.prod(shape))
        m = (n + 1) // 2
        # 1 - u is in (0, 1], keeping the log argument away from zero.
        u1 = 1.0 - (self._raw(m) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        u2 = (self._raw(m) >> _U64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic random permutation of range(n)."""
        if n < 1:
            raise ValueError("permutation needs n >= 1")
        return np.argsort(self.uniform([n]), kind="stable")
