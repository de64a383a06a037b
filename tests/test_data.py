"""Dataset directory ingestion and the seeded synthetic corpus."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from igprobe.data import Dataset, gen_synthetic, load_dataset
from igprobe.imgio import read_image, write_ppm
from igprobe.tensor import SeededRng


def put_image(directory, name, seed=1, side=8):
    write_ppm(directory / name, SeededRng(seed).uniform([side, side, 3]))


def test_load_two_rows_two_classes(tmp_path):
    put_image(tmp_path, "a.ppm", 1)
    put_image(tmp_path, "b.ppm", 2)
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\na.ppm,cat\nb.ppm,dog\n")
    ds = load_dataset(tmp_path)
    assert len(ds.items) == 2
    assert ds.num_classes == 2
    assert ds.class_names == ["cat", "dog"]  # first-appearance order
    assert [it.label for it in ds.items] == [0, 1]
    assert [it.id for it in ds.items] == ["a.ppm", "b.ppm"]


def test_load_missing_file_names_the_row(tmp_path):
    put_image(tmp_path, "a.ppm")
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\na.ppm,cat\nghost.ppm,dog\n")
    with pytest.raises(ValueError, match=r"row 3.*ghost\.ppm"):
        load_dataset(tmp_path)


def test_load_duplicate_id_rejected(tmp_path):
    put_image(tmp_path, "a.ppm")
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\na.ppm,cat\na.ppm,dog\n")
    with pytest.raises(ValueError, match="duplicate id"):
        load_dataset(tmp_path)


def test_load_requires_labels_csv(tmp_path):
    with pytest.raises(ValueError, match="labels.csv"):
        load_dataset(tmp_path)


def test_load_rejects_bad_header(tmp_path):
    (tmp_path / "labels.csv").write_text("file,klass\na.ppm,cat\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(tmp_path)


def test_load_rejects_mixed_shapes_naming_offenders(tmp_path):
    put_image(tmp_path, "a.ppm", 1, side=8)
    put_image(tmp_path, "b.ppm", 2, side=8)
    put_image(tmp_path, "odd.ppm", 3, side=9)
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\na.ppm,cat\nb.ppm,cat\nodd.ppm,dog\n")
    with pytest.raises(ValueError, match=r"odd\.ppm.*shape"):
        load_dataset(tmp_path)


def test_load_aggregates_multiple_problems(tmp_path):
    put_image(tmp_path, "a.ppm")
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\na.ppm,cat\na.ppm,cat\nmissing.ppm,dog\nshort\n")
    with pytest.raises(ValueError) as err:
        load_dataset(tmp_path)
    msg = str(err.value)
    assert "duplicate id" in msg and "missing.ppm" in msg and "columns" in msg


def test_an_image_file_that_cannot_be_read_is_refused_with_its_row(tmp_path):
    put_image(tmp_path, "a.ppm")
    (tmp_path / "b.ppm").mkdir()
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\na.ppm,cat\nb.ppm,dog\nc.ppm,dog\n")
    with pytest.raises(ValueError) as err:
        load_dataset(tmp_path)
    assert str(err.value).splitlines() == [
        "dataset errors:",
        f"  row 3: [Errno 21] Is a directory: '{tmp_path / 'b.ppm'}'",
        "  row 4: missing image file 'c.ppm'"]


# ------------------------------------------------------------------- synthetic

def test_loaded_dataset_stays_8_bit(tmp_path):
    names = [f"{i:02d}.ppm" for i in range(50)]
    for i, name in enumerate(names):
        put_image(tmp_path, name, seed=i, side=96)
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\n" + "".join(f"{n},c{i % 2}\n" for i, n in enumerate(names)))
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the pixels are 1.38 MB as uint8 and would be 11.06 MB as float64; a
    # loaded item holds only its file's path, shape and CRC-32, under 1 KB
    assert held < 1e5
    assert ds.image_shape == (96, 96, 3)
    for it in ds.items:
        assert it.pixels.dtype == np.uint8
        image = it.image
        assert image.dtype == np.float64
        assert image.tobytes() == read_image(tmp_path / it.id).tobytes()


def test_a_loaded_item_holds_under_560_bytes(tmp_path):
    # enough files that the per-item cost, not the dataset's fixed cost, is bounded
    names = [f"img_{i:04d}.ppm" for i in range(1000)]
    for name in names:
        (tmp_path / name).write_bytes(b"P6\n8 8\n255\n" + bytes(range(192)))
    (tmp_path / "labels.csv").write_text(
        "filename,class_name\n" + "".join(f"{n},c{i % 3}\n" for i, n in enumerate(names)))
    gc.collect()
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path)
        gc.collect()  # a full collection frees the free lists' temporaries too
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an item keeps its id, its label and an ImageFile with a str path, about
    # 460 B; a pathlib.Path there, with its cached parts, makes it about 650 B
    assert held / len(ds.items) < 560


def test_synthetic_image_is_its_float_pixels():
    item = gen_synthetic(1, classes=2, per_class=1, side=8).items[0]
    assert item.pixels.dtype == np.float64
    assert item.image is item.pixels


def test_synthetic_counts_and_balance():
    ds = gen_synthetic(1, classes=4, per_class=25, side=32)
    assert len(ds.items) == 100
    assert ds.num_classes == 4
    labels = [it.label for it in ds.items]
    assert all(labels.count(c) == 25 for c in range(4))
    assert ds.image_shape == (32, 32, 3)


def test_synthetic_determinism():
    a = gen_synthetic(3, classes=4, per_class=2, side=16)
    b = gen_synthetic(3, classes=4, per_class=2, side=16)
    for ia, ib in zip(a.items, b.items):
        assert np.array_equal(ia.image, ib.image)
        assert ia.id == ib.id


def test_synthetic_seeds_differ():
    def corpus_hash(seed):
        h = hashlib.sha256()
        for it in gen_synthetic(seed, classes=2, per_class=2, side=16).items:
            h.update(it.image.tobytes())
        return h.hexdigest()
    assert corpus_hash(1) != corpus_hash(2)


def test_synthetic_pixels_in_unit_range():
    ds = gen_synthetic(9, classes=5, per_class=2, side=16)
    for it in ds.items:
        assert it.image.min() >= 0.0 and it.image.max() <= 1.0


def test_synthetic_ids_are_unique_and_class_prefixed():
    ds = gen_synthetic(2, classes=4, per_class=3, side=8)
    ids = [it.id for it in ds.items]
    assert len(set(ids)) == len(ids)
    for it in ds.items:
        assert it.id.startswith(ds.class_names[it.label])


def test_synthetic_validation_errors():
    with pytest.raises(ValueError, match="classes"):
        gen_synthetic(1, classes=1, per_class=2, side=16)
    with pytest.raises(ValueError, match="side"):
        gen_synthetic(1, classes=2, per_class=2, side=4)
    with pytest.raises(ValueError, match="per_class"):
        gen_synthetic(1, classes=2, per_class=0, side=16)
