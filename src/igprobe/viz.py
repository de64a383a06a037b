"""Overlay rendering, precision tables, and SVG line charts."""

from __future__ import annotations

from html import escape

import numpy as np

from .attribution import PolarityMaps
from .codec import ORIGINAL, QualityLevel
from .harness import PrecisionTable, csv_text

POLARITY_MODES = ("negative", "positive", "both")
TABLE_FORMATS = ("csv", "markdown")
IMAGE_WEIGHT = 0.7  # overlay blend weights, see render_overlay
IG_WEIGHT = 1.5

# tab10-style line colors, cycled per series
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")


def _plane(values: np.ndarray, hw: tuple[int, int], name: str) -> np.ndarray:
    """Collapse an attribution-shaped map to one magnitude plane.

    3-channel maps reduce by peak magnitude per pixel, so a full-strength
    value in any channel saturates the overlay color there.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[:2] != hw or values.ndim not in (2, 3):
        raise ValueError(f"{name} shape {values.shape} does not align with image plane {hw}")
    mag = np.abs(values)
    return mag if mag.ndim == 2 else mag.max(axis=2)


def render_overlay(img: np.ndarray, pol: PolarityMaps, polarity: str = "both") -> np.ndarray:
    """clamp(IMAGE_WEIGHT * img + IG_WEIGHT * IGcolor) with negative
    magnitudes on the red channel, positive on green, blue untouched;
    ``polarity`` picks which of the two is drawn."""
    if polarity not in POLARITY_MODES:
        raise ValueError(f"polarity must be one of {POLARITY_MODES}, got {polarity!r}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"overlay base must be HxWx3, got {img.shape}")
    hw = img.shape[:2]
    ig_color = np.zeros_like(img)
    if polarity in ("negative", "both"):
        ig_color[:, :, 0] = _plane(pol.negative, hw, "negative map")
    if polarity in ("positive", "both"):
        ig_color[:, :, 1] = _plane(pol.positive, hw, "positive map")
    return np.clip(IMAGE_WEIGHT * img + IG_WEIGHT * ig_color, 0.0, 1.0)


def quality_label(q: QualityLevel) -> str:
    return "Original" if q == ORIGINAL else f"Quality {int(q)}"


def emit_table(table: PrecisionTable, format: str = "csv") -> str:
    """Scores fixed to 4 decimals, one row per model; a model name is quoted
    as CSV needs it, and a ``|`` in it is written ``\\|`` in markdown."""
    if format not in TABLE_FORMATS:
        raise ValueError(f"format must be one of {TABLE_FORMATS}, got {format!r}")
    header = ["model"] + [quality_label(q) for q in table.qualities]
    rows = [[name] + [f"{scores[q]:.4f}" for q in table.qualities]
            for name, scores in table.rows.items()]
    if format == "csv":
        return csv_text([header] + rows)
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join([name.replace("|", "\\|"), *scores]) + " |"
              for name, *scores in rows]
    return "\n".join(lines) + "\n"


_VIEW_W, _VIEW_H = 800, 500
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 630.0, 50.0, 440.0


def _f(v: float) -> str:
    return f"{v:.2f}"


def emit_chart_svg(table: PrecisionTable, y_label: str = "macro precision") -> str:
    """Fixed 800x500 viewport, one polyline per table row in table order,
    y in [0, 1]."""
    qualities = table.qualities
    if not table.rows:
        raise ValueError("chart needs at least one series")
    if len(qualities) < 2:
        raise ValueError("need >=2 points on the quality axis")

    def x_at(i: int) -> float:
        return _LEFT + (_RIGHT - _LEFT) * i / (len(qualities) - 1)

    def y_at(score: float) -> float:
        return _BOTTOM - (_BOTTOM - _TOP) * score

    # The title names the y axis's metric, without its averaging qualifier.
    metric = y_label.removeprefix("macro ")
    title = f"{metric[:1].upper()}{metric[1:]} vs JPEG quality"
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        f'<rect x="0" y="0" width="{_VIEW_W}" height="{_VIEW_H}" fill="white"/>',
        f'<text x="{_f((_LEFT + _RIGHT) / 2)}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{escape(title, quote=False)}</text>',
    ]
    for i in range(5):
        frac = i / 4.0
        y = y_at(frac)
        out.append(f'<line x1="{_f(_LEFT)}" y1="{_f(y)}" x2="{_f(_RIGHT)}" y2="{_f(y)}" '
                   f'stroke="#cccccc" stroke-width="1"/>')
        out.append(f'<text x="{_f(_LEFT - 8)}" y="{_f(y + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{frac:.2f}</text>')
    for i, q in enumerate(qualities):
        x = x_at(i)
        out.append(f'<line x1="{_f(x)}" y1="{_f(_BOTTOM)}" x2="{_f(x)}" y2="{_f(_BOTTOM + 5)}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_f(x)}" y="{_f(_BOTTOM + 20)}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{q}</text>')
    out.append(f'<text x="{_f((_LEFT + _RIGHT) / 2)}" y="{_f(_BOTTOM + 42)}" '
               'text-anchor="middle" font-family="sans-serif" font-size="14">quality</text>')
    out.append(f'<text x="18" y="{_f((_TOP + _BOTTOM) / 2)}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="14" '
               f'transform="rotate(-90 18 {_f((_TOP + _BOTTOM) / 2)})">'
               f'{escape(y_label, quote=False)}</text>')

    for idx, (name, scores) in enumerate(table.rows.items()):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{_f(x_at(i))},{_f(y_at(scores[q]))}"
                          for i, q in enumerate(qualities))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                   f'points="{points}"/>')
        ly = _TOP + 18 * idx
        out.append(f'<rect x="{_f(_RIGHT + 12)}" y="{_f(ly)}" width="12" height="12" '
                   f'fill="{color}"/>')
        out.append(f'<text x="{_f(_RIGHT + 30)}" y="{_f(ly + 10)}" font-family="sans-serif" '
                   f'font-size="12">{escape(name, quote=False)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
