"""Overlay compositing, table emission, and SVG chart layout."""

import hashlib

import numpy as np
import pytest

from igprobe.attribution import PolarityMaps, split_polarity
from igprobe.codec import ORIGINAL
from igprobe.harness import PrecisionTable
from igprobe.tensor import SeededRng
from igprobe.viz import (
    emit_chart_svg,
    emit_table,
    quality_label,
    render_overlay,
)


def zero_polarity(hw=(5, 4)) -> PolarityMaps:
    z = np.zeros(hw + (3,))
    return PolarityMaps(negative=z.copy(), positive=z.copy(), scale=1.0)


# ---------------------------------------------------------------- overlay


def test_overlay_spec_validation():
    with pytest.raises(ValueError, match="polarity"):
        render_overlay(np.zeros((5, 4, 3)), zero_polarity(), "all")


def test_zero_attribution_dims_image_only():
    img = SeededRng(1).uniform([5, 4, 3])
    for mode in ("negative", "positive", "both"):
        out = render_overlay(img, zero_polarity(), mode)
        assert np.array_equal(out, 0.7 * img)


def test_overlay_bounds_and_blue_untouched():
    img = SeededRng(2).uniform([6, 6, 3])
    vals = SeededRng(3).normal([6, 6, 3]) * 2.0
    out = render_overlay(img, split_polarity(vals))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.array_equal(out[:, :, 2], np.clip(0.7 * img[:, :, 2], 0.0, 1.0))


def test_negative_magnitude_lands_on_red():
    img = np.zeros((2, 2, 3))
    pol = zero_polarity((2, 2))
    pol.negative[0, 1] = -0.5  # all channels
    out = render_overlay(img, pol)
    assert out[0, 1, 0] == pytest.approx(1.5 * 0.5)
    assert out[0, 1, 1] == 0.0
    assert np.all(out[1] == 0.0)


def test_positive_magnitude_lands_on_green():
    img = np.zeros((2, 2, 3))
    pol = zero_polarity((2, 2))
    pol.positive[1, 0] = 0.4
    out = render_overlay(img, pol)
    assert out[1, 0, 1] == pytest.approx(1.5 * 0.4)
    assert out[1, 0, 0] == 0.0


def test_polarity_mode_masks_other_channel():
    img = np.zeros((2, 2, 3))
    pol = zero_polarity((2, 2))
    pol.negative[:] = -0.3
    pol.positive[:] = 0.6
    neg_only = render_overlay(img, pol, "negative")
    pos_only = render_overlay(img, pol, "positive")
    assert np.all(neg_only[:, :, 1] == 0.0) and np.all(neg_only[:, :, 0] > 0.0)
    assert np.all(pos_only[:, :, 0] == 0.0) and np.all(pos_only[:, :, 1] > 0.0)


def test_three_channel_map_reduces_by_peak_magnitude():
    img = np.zeros((1, 1, 3))
    pol = zero_polarity((1, 1))
    pol.positive[0, 0] = [0.1, 0.6, 0.3]
    out = render_overlay(img, pol)
    assert out[0, 0, 1] == pytest.approx(1.5 * 0.6)


def test_overlay_clamps_saturation():
    img = np.full((1, 1, 3), 0.9)
    pol = zero_polarity((1, 1))
    pol.positive[0, 0] = 1.0
    out = render_overlay(img, pol)
    assert out[0, 0, 1] == 1.0  # 0.63 + 1.5 clamps


def test_overlay_rejects_bad_shapes():
    with pytest.raises(ValueError, match="HxWx3"):
        render_overlay(np.zeros((4, 4)), zero_polarity((4, 4)))
    img = np.zeros((4, 4, 3))
    bad = PolarityMaps(negative=np.zeros((3, 4, 3)),
                       positive=np.zeros((4, 4, 3)), scale=1.0)
    with pytest.raises(ValueError, match="does not align"):
        render_overlay(img, bad)


# ---------------------------------------------------------------- tables


EXAMPLE_TABLE = PrecisionTable(
    rows={"ResNet50": {ORIGINAL: 0.7141, 75: 0.5457, 50: 0.4689, 25: 0.3562}},
    qualities=[ORIGINAL, 75, 50, 25])


def test_quality_label():
    assert quality_label(ORIGINAL) == "Original"
    assert quality_label(75) == "Quality 75"


def test_emit_table_csv_golden():
    assert emit_table(EXAMPLE_TABLE, "csv") == (
        "model,Original,Quality 75,Quality 50,Quality 25\n"
        "ResNet50,0.7141,0.5457,0.4689,0.3562\n")


def test_emit_table_markdown_golden():
    got = emit_table(EXAMPLE_TABLE, "markdown")
    assert got == (
        "| model | Original | Quality 75 | Quality 50 | Quality 25 |\n"
        "| --- | --- | --- | --- | --- |\n"
        "| ResNet50 | 0.7141 | 0.5457 | 0.4689 | 0.3562 |\n")


def test_emit_table_rounds_to_four_decimals():
    table = PrecisionTable(rows={"m": {ORIGINAL: 1.0 / 3.0}},
                           qualities=[ORIGINAL])
    assert "0.3333" in emit_table(table)


def test_emit_table_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit_table(EXAMPLE_TABLE, "latex")


# ---------------------------------------------------------------- charts


def test_chart_fixed_viewport():
    svg = emit_chart_svg(EXAMPLE_TABLE)
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" '
                          'width="800" height="500" viewBox="0 0 800 500">')
    assert svg.rstrip().endswith("</svg>")


def test_chart_score_one_sits_on_top_gridline():
    table = PrecisionTable(rows={"m": {ORIGINAL: 1.0, 50: 0.5, 25: 0.0}},
                           qualities=[ORIGINAL, 50, 25])
    svg = emit_chart_svg(table)
    # y(1.0) coincides with the 1.00 gridline; x spans 70..630 evenly
    assert 'points="70.00,50.00 350.00,245.00 630.00,440.00"' in svg
    assert '<line x1="70.00" y1="50.00" x2="630.00" y2="50.00"' in svg


def test_chart_contains_axis_ticks_and_legend():
    svg = emit_chart_svg(EXAMPLE_TABLE)
    for token in (">original<", ">75<", ">50<", ">25<", ">ResNet50<",
                  ">macro precision<", ">quality<"):
        assert token in svg


def test_chart_y_label():
    svg = emit_chart_svg(EXAMPLE_TABLE, "accuracy")
    assert ">accuracy<" in svg and ">macro precision<" not in svg


def test_chart_title_names_the_y_label_metric():
    svg = emit_chart_svg(EXAMPLE_TABLE, "accuracy")
    assert ">Accuracy vs JPEG quality<" in svg and "Precision" not in svg
    default = emit_chart_svg(EXAMPLE_TABLE)
    assert ">Precision vs JPEG quality<" in default
    # the macro-precision chart keeps its bytes
    assert (hashlib.sha256(default.encode()).hexdigest()
            == "51705bb7e298b82dad49b82d3f9d59e3dae9e71fee6a7e0859c34f454a3df887")


def test_chart_draws_every_row_in_table_order():
    table = PrecisionTable(rows={"b": {ORIGINAL: 0.9, 50: 0.4},
                                 "a": {ORIGINAL: 1.0, 50: 0.5}},
                           qualities=[ORIGINAL, 50])
    svg = emit_chart_svg(table)
    assert svg.count("<polyline") == 2
    assert svg.index(">b<") < svg.index(">a<")
    assert 'stroke="#1f77b4" stroke-width="2" points="70.00,89.00 630.00,284.00"' in svg


def test_chart_errors():
    with pytest.raises(ValueError, match="at least one series"):
        emit_chart_svg(PrecisionTable(rows={}, qualities=[ORIGINAL, 50]))
    narrow = PrecisionTable(rows={"m": {ORIGINAL: 1.0}},
                            qualities=[ORIGINAL])
    with pytest.raises(ValueError, match=">=2 points"):
        emit_chart_svg(narrow)


def test_chart_bytes_stable():
    assert emit_chart_svg(EXAMPLE_TABLE) == emit_chart_svg(EXAMPLE_TABLE)
    assert emit_table(EXAMPLE_TABLE) == emit_table(EXAMPLE_TABLE)
