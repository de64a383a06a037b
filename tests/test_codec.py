"""JPEG-style degradation: quant tables, DCT identities, PSNR behavior,
bicubic resampling."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe.codec import (CHROMA_BASE, LUMA_BASE, ORIGINAL, _axis_taps, _pad_to_multiple,
                           _quantize_plane, _resize_axis, _subsample_420, check_image,
                           check_quality, cubic_kernel, dct8x8, degrade_jpeg, idct8x8, psnr,
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


# ---------------------------------------------------------------- image check

@pytest.mark.parametrize("bad, message", [
    (np.nan, "image contains non-finite values"),
    (np.inf, "image contains non-finite values"),
    (-np.inf, "image contains non-finite values"),
    (-0.1, "image values outside [0, 1]: min=-0.1, max=0.5"),
    (1.1, "image values outside [0, 1]: min=0.5, max=1.1"),
])
def test_check_image_messages(bad, message):
    img = np.full((4, 4, 3), 0.5)
    img[1, 2, 0] = bad
    with pytest.raises(ValueError) as exc:
        check_image(img)
    assert str(exc.value) == message


def test_check_image_reports_non_finite_before_range():
    img = np.full((4, 4, 3), 0.5)
    img[0, 0, 0] = np.nan
    img[3, 3, 2] = 2.0
    with pytest.raises(ValueError) as exc:
        check_image(img, "photo")
    assert str(exc.value) == "photo contains non-finite values"


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


def test_quant_table_is_cached_and_read_only():
    t = quant_table(30)
    assert quant_table(30) is t
    for table in (t.luma, t.chroma):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_quant_table_values_unchanged():
    # sha256 of every table at q = 1..100, luma then chroma, as int64
    h = hashlib.sha256()
    for q in range(1, 101):
        t = quant_table(q)
        h.update(t.luma.astype(np.int64).tobytes())
        h.update(t.chroma.astype(np.int64).tobytes())
    assert h.hexdigest() == "42f35afbfb0850f55a87780b9fcef8a4ae8a5d83426285483768682386567fca"


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


def test_axis_taps_are_cached_read_only_and_unchanged():
    taps, weights = _axis_taps(96, 32)
    again = _axis_taps(96, 32)
    assert again[0] is taps and again[1] is weights
    assert not taps.flags.writeable and not weights.flags.writeable
    fresh_taps, fresh_weights = _axis_taps.__wrapped__(96, 32)
    assert np.array_equal(taps, fresh_taps)
    assert weights.tobytes() == fresh_weights.tobytes()


def test_pad_to_multiple_returns_an_aligned_plane_itself():
    plane = np.zeros((96, 32))
    assert _pad_to_multiple(plane, 16) is plane
    ragged = np.arange(20.0 * 20).reshape(20, 20)
    padded = _pad_to_multiple(ragged, 16)
    assert padded.shape == (32, 32)
    assert np.array_equal(padded[:20, :20], ragged)
    assert np.array_equal(padded[20:, :20], np.repeat(ragged[-1:], 12, axis=0))


def _block_mean(plane):
    ph, pw = plane.shape
    return plane.reshape(ph // 2, 2, pw // 2, 2).mean(axis=(1, 3))


def test_subsample_420_equals_block_mean_bit_for_bit():
    rng = SeededRng(7)
    planes = [rng.uniform([96, 96]) * 255.0 for _ in range(20)]
    planes += [2.0 * np.floor(rng.uniform([32, 48]) * 128.0) + 1.0 for _ in range(5)]
    planes += [_pad_to_multiple(rng.uniform([side, side]) * 255.0, 16) for side in (20, 33)]
    for plane in planes:
        assert _subsample_420(plane).tobytes() == _block_mean(plane).tobytes()


@pytest.mark.parametrize("h, w", [(16, 16), (20, 33), (37, 45)])
@pytest.mark.parametrize("stage", ["pad8", "pad16", "subsample", "quantize"])
def test_codec_stages_on_a_stack_equal_each_plane_bit_for_bit(stage, h, w):
    # degrade_jpeg carries Cb and Cr through each stage as one (2, H, W) stack
    stack = SeededRng(h * 100 + w).uniform([2, h, w]) * 255.0
    apply = {
        "pad8": lambda x: _pad_to_multiple(x, 8),
        "pad16": lambda x: _pad_to_multiple(x, 16),
        "subsample": lambda x: _subsample_420(_pad_to_multiple(x, 16)),
        "quantize": lambda x: _quantize_plane(_pad_to_multiple(x, 8) - 128.0,
                                              quant_table(25).chroma),
    }[stage]
    got = apply(stack)
    assert got.shape[0] == 2
    for plane, out in zip(stack, got):
        assert out.tobytes() == apply(plane).tobytes()


def _resize_axis_reference(arr, out_len, axis):
    # The former formulation: move the axis first and gather all four
    # taps into one (out_len, 4, ...) array.
    arr = np.moveaxis(arr, axis, 0)
    taps, weights = _axis_taps(arr.shape[0], out_len)
    p = arr[taps]
    w = weights.reshape((out_len, 4) + (1,) * (arr.ndim - 1))
    anchor = p[:, 1]
    out = anchor + (w[:, 0] * (p[:, 0] - anchor)
                    + w[:, 2] * (p[:, 2] - anchor)
                    + w[:, 3] * (p[:, 3] - anchor))
    return np.moveaxis(out, 0, axis)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 20), st.integers(1, 20), st.integers(1, 24),
       st.sampled_from([0, 1]), st.booleans())
def test_resize_axis_equals_moveaxis_gather(seed, h, w, out_len, axis, strided):
    arr = SeededRng(seed).uniform([h, 2 * w if strided else w, 3])
    if strided:
        arr = arr[:, ::2]
    got = _resize_axis(arr, out_len, axis)
    want = _resize_axis_reference(arr, out_len, axis)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# sha256 of the raw float64 output bytes, per image shape: an int key is
# a quality for degrade_jpeg, a pair is a resize_bicubic target.  Side 20
# is a multiple of neither 8 nor 16, so its planes go through the edge
# padding.  The 33x50 image is neither square nor aligned, and its resize
# to 13x41 shrinks one axis and enlarges the other.
CODEC_DIGESTS = {
    (96, 96): {95: "d5b98ba0aeaf226cbbffc1fa0653cffb8c6f57f06ce28519538759a68eb42679",
               75: "adcfc1ea832270e590a095640e49388f24e8284c33e61f7810370c0a6dee937a",
               25: "64b9d965d64fd240f7aad85d724f1842789d281bdfa1c3d19263b710129a09f5",
               (32, 32): "97f8e9b4bdca1ef7e17e3b9256989a6e1dc500859b918cbc0dbe8a68e1f9eaf9"},
    (32, 32): {95: "d0184889ec8ec35335a3dbb0d8f0af5eb9a63339fde08e2d597a9d435cfb91b0",
               75: "30ed547a8ca6e633b545840ea6b5fcef06001fdbe3b48052ae340f777947a3ab",
               25: "051e6bfcae3ccfea8ca892bf7fabee447af0faf53da8d0d8103f2120b4dd1fbb",
               (32, 32): "ae52d5543f70c8e4dc081186103685da4ddad9be7601a347bf1cdf05000b4011"},
    (20, 20): {95: "3d0d8799a8e5647d834cc4e638a3b0e6afc2661c09df1ce2d900f18e0b0b27e7",
               75: "b2e4668e5fc2906fec16f366ffb4bc25bdfd6d680dda8c86161101205ccfc1f9",
               25: "2f20953a157e3decba3f603ddb7195fe660a6d01b6b794c7bc59c74d4a4a94d2",
               (32, 32): "1a6b5d8887d871c7ac40bfb5a5c9dc11b6a92f2b56e188815fb31cb403ce5295"},
    (33, 50): {95: "7efe3a80b3a7639a26eab219bcf138a54cea3da0caa237940841116eb784261a",
               50: "c9cd2235a0837e01d3d10a9e3ab9fe8b70db949ad101b94de0b73a0dbe85b266",
               (13, 41): "37d66b5a3f549a13ef47078bb23e683719cea5778202987c000cb66f03e7fa9c"},
}


def _pinned_image(h, w):
    if h == w:
        return gen_synthetic(4, classes=4, per_class=1, side=h).items[0].image
    return SeededRng(33).uniform([h, w, 3])


@pytest.mark.parametrize("shape", sorted(CODEC_DIGESTS),
                         ids=lambda s: str(s[0]) if s[0] == s[1] else f"{s[0]}x{s[1]}")
def test_codec_outputs_match_pinned_digests(shape):
    img = _pinned_image(*shape)
    got = {}
    for key in CODEC_DIGESTS[shape]:
        out = resize_bicubic(img, *key) if isinstance(key, tuple) else degrade_jpeg(img, key)
        got[key] = hashlib.sha256(out.tobytes()).hexdigest()
    assert got == CODEC_DIGESTS[shape]


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
