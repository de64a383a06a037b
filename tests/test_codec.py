"""JPEG-style degradation: quant tables, DCT identities, PSNR behavior,
bicubic resampling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe.codec import (CHROMA_BASE, LUMA_BASE, ORIGINAL, check_quality,
                           cubic_kernel, dct8x8, degrade_jpeg, idct8x8, psnr,
                           quant_table, resize_bicubic)
from igprobe.data import gen_synthetic
from igprobe.tensor import SeededRng

# q=25 tables dumped from an independent reference encoder (libjpeg via
# Pillow); frozen here so the scaling formula is checked against a second
# implementation rather than against itself
REFERENCE_Q25_LUMA = np.array([
    [32, 22, 20, 32, 48, 80, 102, 122],
    [24, 24, 28, 38, 52, 116, 120, 110],
    [28, 26, 32, 48, 80, 114, 138, 112],
    [28, 34, 44, 58, 102, 174, 160, 124],
    [36, 44, 74, 112, 136, 218, 206, 154],
    [48, 70, 110, 128, 162, 208, 226, 184],
    [98, 128, 156, 174, 206, 242, 240, 202],
    [144, 184, 190, 196, 224, 200, 206, 198],
])
REFERENCE_Q25_CHROMA = np.array([
    [34, 36, 48, 94, 198, 198, 198, 198],
    [36, 42, 52, 132, 198, 198, 198, 198],
    [48, 52, 112, 198, 198, 198, 198, 198],
    [94, 132, 198, 198, 198, 198, 198, 198],
    [198, 198, 198, 198, 198, 198, 198, 198],
    [198, 198, 198, 198, 198, 198, 198, 198],
    [198, 198, 198, 198, 198, 198, 198, 198],
    [198, 198, 198, 198, 198, 198, 198, 198],
])


# ---------------------------------------------------------------- quant tables

def test_q50_equals_base_tables():
    t = quant_table(50)
    assert np.array_equal(t.luma, LUMA_BASE)
    assert np.array_equal(t.chroma, CHROMA_BASE)


def test_q100_all_ones():
    t = quant_table(100)
    assert np.all(t.luma == 1) and np.all(t.chroma == 1)


def test_q25_matches_reference_codec_dump():
    t = quant_table(25)
    assert np.array_equal(t.luma, REFERENCE_Q25_LUMA)
    assert np.array_equal(t.chroma, REFERENCE_Q25_CHROMA)


def test_quant_table_rejects_out_of_range():
    for q in (0, 101, -3):
        with pytest.raises(ValueError):
            quant_table(q)
    with pytest.raises(ValueError):
        quant_table(ORIGINAL)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 100))
def test_quant_entries_within_bounds(q):
    t = quant_table(q)
    for table in (t.luma, t.chroma):
        assert table.min() >= 1 and table.max() <= 255


def test_check_quality_accepts_original_and_range():
    assert check_quality(ORIGINAL) == ORIGINAL
    assert check_quality(50) == 50
    with pytest.raises(ValueError):
        check_quality(0)


# ------------------------------------------------------------------------- DCT

def test_dct_constant_block_is_pure_dc():
    coef = dct8x8(np.full((8, 8), 3.25))
    assert coef[0, 0] == pytest.approx(8 * 3.25, abs=1e-12)
    ac = coef.copy()
    ac[0, 0] = 0.0
    assert np.max(np.abs(ac)) < 1e-12


def test_dct_zero_block():
    assert np.array_equal(dct8x8(np.zeros((8, 8))), np.zeros((8, 8)))


def test_dct_round_trip_and_parseval():
    block = SeededRng(4).normal([8, 8])
    coef = dct8x8(block)
    assert np.max(np.abs(idct8x8(coef) - block)) < 1e-12
    assert abs(np.sum(block ** 2) - np.sum(coef ** 2)) < 1e-12


def test_dct_rejects_wrong_shape():
    with pytest.raises(ValueError):
        dct8x8(np.zeros((4, 4)))


def test_dct_stack_equals_per_block_results():
    # The codec transforms every block of a plane in one stacked call.
    stack = SeededRng(5).normal([12, 12, 8, 8])
    for fn in (dct8x8, idct8x8):
        per_block = np.array([[fn(block) for block in row] for row in stack])
        assert np.array_equal(fn(stack), per_block)
        with pytest.raises(ValueError, match="8x8 blocks"):
            fn(np.zeros((8, 7)))


# --------------------------------------------------------------------- degrade

def test_degrade_original_is_bit_identical():
    img = SeededRng(5).uniform([12, 15, 3])
    assert np.array_equal(degrade_jpeg(img, ORIGINAL), img)


def test_degrade_constant_image_stays_constant_within_dc_step():
    img = np.empty((24, 24, 3))
    img[..., 0], img[..., 1], img[..., 2] = 0.43, 0.61, 0.27
    for q in (90, 75, 50, 25, 10):
        out = degrade_jpeg(img, q)
        for c in range(3):
            assert float(out[..., c].max() - out[..., c].min()) == 0.0
        t = quant_table(q)
        # constant planes carry only DC; one rounding step of the DC
        # quantizer bounds the color shift (orthonormal DC gain is 8,
        # chroma feeds RGB through BT.601 gains <= 1.772)
        bound = (t.luma[0, 0] / 2 + 1.772 * t.chroma[0, 0] / 2) / 8.0 / 255.0
        assert float(np.max(np.abs(out - img))) <= bound


def test_degrade_psnr_ordering_on_pinned_image():
    img = gen_synthetic(5, classes=2, per_class=1, side=32).items[0].image
    p = {q: psnr(img, degrade_jpeg(img, q)) for q in (95, 75, 50, 25)}
    assert p[95] >= p[75] >= p[50] >= p[25]


def test_degrade_q100_near_lossless_on_pinned_image():
    img = gen_synthetic(5, classes=2, per_class=1, side=32).items[0].image
    assert psnr(img, degrade_jpeg(img, 100)) >= 45.0


def test_degrade_monotone_over_quality_ladder():
    for seed in (1, 2, 3):
        img = gen_synthetic(seed, classes=4, per_class=1, side=24).items[seed % 4].image
        ladder = [psnr(img, degrade_jpeg(img, q)) for q in (95, 75, 50, 25, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(ladder, ladder[1:]))


def test_degrade_output_in_unit_range_and_shape_preserved():
    img = SeededRng(6).uniform([13, 18, 3])  # sides force padding paths
    out = degrade_jpeg(img, 30)
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


# ------------------------------------------------------------------------ PSNR

def test_psnr_identical_is_infinite():
    img = SeededRng(7).uniform([4, 4, 3])
    assert psnr(img, img.copy()) == float("inf")


def test_psnr_unit_mse_is_zero_db():
    assert psnr(np.zeros((2, 2, 3)), np.ones((2, 2, 3))) == pytest.approx(0.0, abs=1e-12)


def test_psnr_mse_001_is_20db():
    a = np.zeros((5, 5, 3))
    b = np.full((5, 5, 3), 0.1)
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))


# ---------------------------------------------------------------------- resize

def test_resize_constant_exact():
    out = resize_bicubic(np.full((9, 7, 3), 0.37), 23, 31)
    assert np.all(out == 0.37)


def test_resize_same_size_identity():
    img = SeededRng(8).uniform([12, 17, 3])
    assert np.max(np.abs(resize_bicubic(img, 12, 17) - img)) < 1e-12


def test_kernel_partition_of_unity_1000_offsets():
    fracs = (np.arange(1000) + 0.5) / 1000.0
    sums = sum(cubic_kernel(fracs - off) for off in (-1.0, 0.0, 1.0, 2.0))
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_kernel_cardinal_values():
    assert cubic_kernel(np.array([0.0]))[0] == 1.0
    for t in (1.0, 2.0, -1.0, -2.0):
        assert cubic_kernel(np.array([t]))[0] == pytest.approx(0.0, abs=1e-12)


def test_resize_32_to_224_pinned_checksum():
    # independently reproduced by two reference resamplers (agreement
    # 2e-15 and 1e-6 respectively), then frozen from this implementation
    src = SeededRng(2024).uniform([32, 32, 3]) * 0.6 + 0.2
    out = resize_bicubic(src, 224, 224)
    assert float(out.mean()) == pytest.approx(0.502742951085898, abs=1e-12)
    digest = hashlib.sha256(np.ascontiguousarray(np.round(out, 9)).tobytes()).hexdigest()
    assert digest == "d0a8903738c1e92428ac32fe9bd0c5f4afb53a907888c1cbb015dd45a0d8d782"


def test_resize_clamps_overshoot_into_unit_range():
    img = np.zeros((8, 8, 3))
    img[::2, ::2] = 1.0  # high contrast drives cubic overshoot
    out = resize_bicubic(img, 32, 32)
    assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12), st.integers(2, 12),
       st.integers(1, 24), st.integers(1, 24))
def test_resize_shape_contract(seed, h, w, oh, ow):
    out = resize_bicubic(SeededRng(seed).uniform([h, w, 3]), oh, ow)
    assert out.shape == (oh, ow, 3)
