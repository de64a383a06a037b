"""PPM P6 read/write with golden bytes; optional PNG path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe import imgio
from igprobe.imgio import (HAS_PNG, read_image, read_pixels, write_image,
                           write_ppm)
from igprobe.tensor import SeededRng

GOLDEN_2X2 = (b"P6\n2 2\n255\n"
              b"\x00\x00\x00"  # black
              b"\xff\x00\x00"  # red
              b"\x00\xff\x00"  # green
              b"\xff\xff\xff")  # white


def golden_image() -> np.ndarray:
    return np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                     [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]])


def test_write_matches_golden_bytes(tmp_path):
    path = tmp_path / "img.ppm"
    write_ppm(path, golden_image())
    assert path.read_bytes() == GOLDEN_2X2


def test_read_golden_bytes(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(GOLDEN_2X2)
    assert np.array_equal(read_image(path), golden_image())


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6 # magic\n# a comment line\n2 2 # dims\n255\n"
                     + GOLDEN_2X2[len(b"P6\n2 2\n255\n"):])
    assert np.array_equal(read_image(path), golden_image())


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P3\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError, match="magic"):
        read_image(path)


def test_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P6\n2 2\n65535\n" + bytes(24))
    with pytest.raises(ValueError, match="maxval"):
        read_image(path)


def test_rejects_truncated_pixels(tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(GOLDEN_2X2[:-3])
    with pytest.raises(ValueError, match="pixel bytes"):
        read_image(path)


@pytest.mark.parametrize("header, message", [
    (b"P6\n4", "truncated PPM header"),
    (b"P6\n4 abc\n255\n", "PPM width, height and maxval must be integers, got b'4 abc 255'"),
    (b"P6\n0 4\n255\n", "bad dimensions 0 x 4"),
])
def test_a_bad_header_names_the_file(tmp_path, header, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header)
    with pytest.raises(ValueError) as caught:
        read_image(path)
    assert str(caught.value) == f"{path}: {message}"


def test_rejects_unknown_suffix(tmp_path):
    with pytest.raises(ValueError, match="format"):
        write_image(tmp_path / "img.bmp", golden_image())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 9), st.integers(1, 9))
def test_roundtrip_is_quantization_exact(tmp_path_factory, seed, h, w):
    img = SeededRng(seed).uniform([h, w, 3])
    path = tmp_path_factory.mktemp("ppm") / "img.ppm"
    write_ppm(path, img)
    back = read_image(path)
    # one 8-bit quantization step of error, then exact thereafter
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12
    write_ppm(path, back)
    assert np.array_equal(read_image(path), back)


@pytest.mark.skipif(not HAS_PNG, reason="Pillow not installed")
def test_png_roundtrip(tmp_path):
    img = golden_image()
    path = tmp_path / "img.png"
    write_image(path, img)
    assert np.array_equal(read_image(path), img)


class _StubPIL:
    """Stands in for Pillow's Image module and records what reaches it."""

    def __init__(self):
        self.calls = []

    def fromarray(self, pixels):
        stub = self

        class Saved:
            def save(self, path, format):
                stub.calls.append(("save", path.name, format, pixels.tobytes()))
        return Saved()

    def open(self, fh):
        stub = self

        class Opened:
            def convert(self, mode):
                stub.calls.append(("open", fh.read(), mode))
                return np.zeros((1, 2, 3), dtype=np.uint8)
        return Opened()


@pytest.mark.parametrize("name", ["img.png", "img.PNG"])
def test_png_suffix_reaches_pillow_both_ways(tmp_path, monkeypatch, name):
    stub = _StubPIL()
    monkeypatch.setattr(imgio, "_PILImage", stub)
    monkeypatch.setattr(imgio, "HAS_PNG", True)
    write_image(tmp_path / name, golden_image())
    assert not (tmp_path / name).exists()
    (tmp_path / name).write_bytes(b"PNG file bytes")  # Pillow decodes the bytes read
    assert read_pixels(tmp_path / name).shape == (1, 2, 3)
    assert stub.calls == [("save", name, "PNG", GOLDEN_2X2[len(b"P6\n2 2\n255\n"):]),
                          ("open", b"PNG file bytes", "RGB")]


@pytest.mark.parametrize("name, message", [
    ("img.png", "PNG support needs Pillow (install the 'png' extra)"),
    ("img.PNG", "PNG support needs Pillow (install the 'png' extra)"),
    ("img.gif", "unsupported image format '.gif' (use .ppm or .png)"),
    ("img", "unsupported image format '' (use .ppm or .png)"),
])
def test_format_refusals_keep_their_text_both_ways(tmp_path, monkeypatch, name, message):
    monkeypatch.setattr(imgio, "_PILImage", None)
    monkeypatch.setattr(imgio, "HAS_PNG", False)
    (tmp_path / name).write_bytes(GOLDEN_2X2)
    for call in (lambda p: write_image(p, golden_image()), read_pixels):
        with pytest.raises(ValueError) as exc:
            call(tmp_path / name)
        assert str(exc.value) == message
    assert (tmp_path / name).read_bytes() == GOLDEN_2X2
