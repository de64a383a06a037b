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
    as CSV needs it, and a ``|`` in any cell is written ``\\|`` in markdown."""
    if format not in TABLE_FORMATS:
        raise ValueError(f"format must be one of {TABLE_FORMATS}, got {format!r}")
    header = ["model"] + [quality_label(q) for q in table.qualities]
    rows = [[name] + [f"{scores[q]:.4f}" for q in table.qualities]
            for name, scores in table.rows.items()]
    if format == "csv":
        return csv_text([header] + rows)
    return "".join("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |\n"
                   for row in [header, ["---"] * len(header), *rows])


_VIEW_W, _VIEW_H = 800, 500
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 630.0, 50.0, 440.0


def _f(v: float) -> str:
    return f"{v:.2f}"


def _el(tag: str, text: str | None = None, **attrs: object) -> str:
    """One SVG element: attributes in call order with ``a_b`` written
    ``a-b``, floats to 2 decimals and ``None`` left out; self-closing
    without ``text``, which is escaped."""
    head = " ".join([tag] + [f'{k.replace("_", "-")}="{_f(v) if isinstance(v, float) else v}"'
                             for k, v in attrs.items() if v is not None])
    return f"<{head}/>" if text is None else f"<{head}>{escape(text, quote=False)}</{tag}>"


def _label(text: str, x: float, y: float, size: int, anchor: str | None = "middle",
           **attrs: object) -> str:
    return _el("text", text, x=x, y=y, text_anchor=anchor, font_family="sans-serif",
               font_size=size, **attrs)


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
    mid_x, mid_y = (_LEFT + _RIGHT) / 2, (_TOP + _BOTTOM) / 2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW_W}" height="{_VIEW_H}" '
        f'viewBox="0 0 {_VIEW_W} {_VIEW_H}">',
        _el("rect", x=0, y=0, width=_VIEW_W, height=_VIEW_H, fill="white"),
        _label(f"{metric[:1].upper()}{metric[1:]} vs JPEG quality", mid_x, 28, 18),
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_at(frac)
        out += [_el("line", x1=_LEFT, y1=y, x2=_RIGHT, y2=y, stroke="#cccccc", stroke_width=1),
                _label(f"{frac:.2f}", _LEFT - 8, y + 4, 12, anchor="end")]
    for i, q in enumerate(qualities):
        x = x_at(i)
        out += [_el("line", x1=x, y1=_BOTTOM, x2=x, y2=_BOTTOM + 5, stroke="#333333",
                    stroke_width=1),
                _label(str(q), x, _BOTTOM + 20, 12)]
    out += [_label("quality", mid_x, _BOTTOM + 42, 14),
            _label(y_label, 18, mid_y, 14, transform=f"rotate(-90 18 {_f(mid_y)})")]
    for idx, (name, scores) in enumerate(table.rows.items()):
        color, ly = PALETTE[idx % len(PALETTE)], _TOP + 18 * idx
        points = " ".join(f"{_f(x_at(i))},{_f(y_at(scores[q]))}" for i, q in enumerate(qualities))
        out += [_el("polyline", fill="none", stroke=color, stroke_width=2, points=points),
                _el("rect", x=_RIGHT + 12, y=ly, width=12, height=12, fill=color),
                _label(name, _RIGHT + 30, ly + 10, 12, anchor=None)]
    return "\n".join(out + ["</svg>"]) + "\n"
