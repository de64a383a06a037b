"""Quality-sweep metrics, attribution maps, and their CSV round-trips."""

import gc
import os
import re
import signal
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe import harness
from igprobe import model as model_module
from igprobe.attribution import AttributionMap
from igprobe.codec import ORIGINAL, check_quality, degrade_jpeg
from igprobe.data import Dataset, DatasetItem, gen_synthetic, load_dataset
from igprobe.harness import (
    PrecisionTable,
    accuracy,
    attribute_batch,
    macro_precision,
    prepare_input,
    read_precision_csv,
    sweep_precision,
    write_attribution_csv,
    write_precision_csv,
)
from igprobe.model import (
    Layer,
    ScorerModel,
    TrainConfig,
    cross_entropy,
    forward,
    new_scorer,
    softmax,
    train,
)
from igprobe.imgio import write_ppm
from igprobe.provider import provider_connect
from igprobe.tensor import SeededRng, argmax


# ---------------------------------------------------------------- metrics


def test_macro_precision_absorbing_class():
    # class 0 absorbs all predictions: precision 2/4; class 1 never
    # predicted contributes 0 -> mean 0.25
    assert macro_precision([0, 0, 0, 0], [0, 0, 1, 1], 2) == 0.25


def test_macro_precision_perfect():
    assert macro_precision([0, 1, 2, 0], [0, 1, 2, 0], 3) == 1.0


def test_macro_precision_never_predicted_is_zero_not_skipped():
    # two clean classes out of three: (1 + 1 + 0) / 3
    got = macro_precision([0, 1], [0, 1], 3)
    assert got == pytest.approx(2.0 / 3.0)


def test_macro_precision_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        macro_precision([0, 1], [0], 2)


def test_macro_precision_empty():
    with pytest.raises(ValueError, match="empty"):
        macro_precision([], [], 2)


def test_macro_precision_bad_class_count():
    with pytest.raises(ValueError, match="num_classes"):
        macro_precision([0], [0], 0)


@given(st.integers(2, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_macro_precision_unit_interval(classes, data):
    n = data.draw(st.integers(1, 30))
    preds = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    truths = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    score = macro_precision(preds, truths, classes)
    assert 0.0 <= score <= 1.0


@given(st.integers(2, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_macro_precision_relabel_invariance(classes, data):
    # renaming the classes consistently must not move the score
    n = data.draw(st.integers(1, 20))
    preds = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    truths = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n))
    perm = data.draw(st.permutations(range(classes)))
    base = macro_precision(preds, truths, classes)
    relabeled = macro_precision([perm[p] for p in preds],
                                [perm[t] for t in truths], classes)
    assert relabeled == pytest.approx(base, abs=1e-12)


def test_accuracy_basic():
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy([0], [0, 1])


# ---------------------------------------------------------------- sweeps


class FakeScorer:
    """The four ``Scorer`` members around a bare gradient function."""

    def __init__(self, fn, input_shape=(8, 8, 3), num_classes=2):
        self.fn, self.input_shape, self.num_classes = fn, input_shape, num_classes

    def logits(self, images):
        return self.fn(images, np.zeros(len(images), dtype=int)).logits

    def __call__(self, images, labels):
        return self.fn(images, labels)


def brightness_scorer(side: int = 8) -> ScorerModel:
    """Two-class scorer keyed on mean brightness vs the 0.5 midpoint.

    Constant images survive compression as constants, so this model's
    decisions are quality-proof by construction.
    """
    n = side * side * 3
    w = np.vstack([np.full(n, 1.0 / n), np.full(n, -1.0 / n)])
    layer = Layer(weights=w, bias=np.array([-0.5, 0.5]), activation="identity")
    return ScorerModel(layers=[layer], class_embeddings=np.eye(2),
                       temperature=10.0, input_shape=(side, side, 3),
                       class_names=["bright", "dark"])


def brightness_dataset(side: int = 8) -> Dataset:
    bright = np.full((side, side, 3), 0.9)
    dark = np.full((side, side, 3), 0.1)
    return Dataset(items=[DatasetItem(pixels=bright, label=0, id="bright_0"),
                          DatasetItem(pixels=dark, label=1, id="dark_0")],
                   class_names=["bright", "dark"])


def test_sweep_quality_proof_model_is_flat_ones():
    table = sweep_precision(brightness_scorer(), brightness_dataset(),
                            [ORIGINAL, 90, 75, 50, 25, 10])
    assert list(table.rows) == ["model"]
    assert table.qualities == [ORIGINAL, 90, 75, 50, 25, 10]
    assert all(s == 1.0 for s in table.rows["model"].values())


def test_sweep_original_only_matches_direct_classification():
    data = gen_synthetic(9, classes=3, per_class=4, side=8)
    model = new_scorer(11, (8, 8, 3), (16,), 8, 3)
    table = sweep_precision(model, data, [ORIGINAL, 50])
    preds = [argmax(forward(model, it.image[None])[0]) for it in data.items]
    truths = [it.label for it in data.items]
    want = macro_precision(preds, truths, data.num_classes)
    assert table.rows["model"][ORIGINAL] == want


def test_sweep_computes_no_gradient_rows(monkeypatch):
    data = gen_synthetic(9, classes=3, per_class=4, side=8)
    model = new_scorer(11, (8, 8, 3), (16,), 8, 3)
    want = sweep_precision(model, data, [ORIGINAL, 50])

    def no_backward(*args):
        raise AssertionError("the sweep asked for a gradient row")

    monkeypatch.setattr(model_module, "backward", no_backward)
    got = sweep_precision(model, data, [ORIGINAL, 50])
    assert got.rows == want.rows


def loaded(directory, source):
    """``source``'s images written as PPM files under ``directory``, with
    labels.csv, and loaded back, so that the loop reads each from its file."""
    for it in source.items:
        write_ppm(directory / f"{it.id}.ppm", it.image)
    (directory / "labels.csv").write_text("filename,class_name\n" + "".join(
        f"{it.id}.ppm,{source.class_names[it.label]}\n" for it in source.items))
    return load_dataset(directory)


@contextmanager
def counting_codec():
    """The harness's calls of the JPEG halves and of the stacked resize, each
    recorded by what it was asked: the subsampling mode, the level, the
    number of levels resized together."""
    calls = {"jpeg_forward": [], "jpeg_back": [], "resize_each": []}
    asked = {"jpeg_forward": lambda img, subsample: subsample,
             "jpeg_back": lambda coef, q: q,
             "resize_each": lambda levels, h, w: len(levels)}

    def counting(name):
        fn = getattr(harness, name)

        def wrapper(*args):
            calls[name].append(asked[name](*args))
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(harness, name, counting(name))
        yield calls


def test_sweep_transforms_each_image_once_per_mode_and_resizes_its_levels_once(tmp_path,
                                                                              monkeypatch):
    # 12x12 files for an 8x8 scorer, so every image's levels are resized too
    data = loaded(tmp_path, gen_synthetic(6, classes=2, per_class=3, side=12))
    as_float = Dataset(items=[DatasetItem(pixels=it.image, label=it.label, id=it.id)
                              for it in data.items], class_names=data.class_names)
    model = new_scorer(12, (8, 8, 3), (16,), 8, 2)
    qualities = [75, ORIGINAL, 95, 25]
    inputs = []  # what each call of the scorer saw
    logits = model.logits
    monkeypatch.setattr(model, "logits", lambda x: inputs.append(x[0]) or logits(x))
    # one process, so that the counters see every image: a forked child counts its own
    monkeypatch.setattr(harness, "_workers", lambda scorer, n_items: 1)
    n = len(data.items)
    with counting_codec() as calls:
        table = sweep_precision(model, data, qualities)
    # per image: 4:2:0 for 75 and 25, 4:4:4 for 95; the original first, in one stack
    assert calls == {"jpeg_forward": [True, False] * n, "jpeg_back": [75, 95, 25] * n,
                     "resize_each": [4] * n}
    want = [prepare_input(it.image, q, (8, 8)) for it in data.items for q in qualities]
    assert [x.tobytes() for x in inputs] == [x.tobytes() for x in want]
    assert sweep_precision(model, as_float, qualities) == table

    # attribution too: the original once per image, as every path's baseline
    with counting_codec() as calls:
        maps = attribute_batch(model, data, qualities, steps=2)
    assert calls == {"jpeg_forward": [True, False] * n, "jpeg_back": [75, 95, 25] * n,
                     "resize_each": [4] * n}
    assert [list(by_q) for by_q in maps] == [[75, 95, 25]] * n


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 40), st.integers(1, 40),
       st.lists(st.sampled_from([ORIGINAL, 100, 97, 95, 94, 75, 50, 25, 3]), min_size=1,
                max_size=6, unique=True),
       st.booleans())
def test_prepare_inputs_equals_each_level_prepared_alone(seed, h, w, qualities, resize):
    # sides that are multiples of neither 8 nor 16 go through the edge padding
    image = SeededRng(seed).uniform([h, w, 3])
    hw = (8, 13) if resize else (h, w)
    with counting_codec() as calls:
        got = harness.prepare_inputs(image, qualities, hw)
    compressed = [q for q in qualities if q != ORIGINAL]
    assert sorted(calls["jpeg_forward"]) == sorted({q < 95 for q in compressed})
    assert calls["jpeg_back"] == compressed
    assert calls["resize_each"] == ([len(qualities)] if resize and (h, w) != hw else [])
    assert len(got) == len(qualities)
    for q, x in zip(qualities, got):
        assert x.shape == (*hw, 3)
        assert x.tobytes() == prepare_input(image, q, hw).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_each_map_keeps_the_resized_original_it_started_from(tmp_path, monkeypatch, workers):
    # 12x12 files for an 8x8 scorer: the baseline is the original resized, and
    # an image's maps share that one array, in this process and through a
    # child's pickled reply alike
    data = loaded(tmp_path, gen_synthetic(6, classes=2, per_class=2, side=12))
    pin_workers(monkeypatch, workers)
    maps = attribute_batch(new_scorer(12, (8, 8, 3), (16,), 8, 2), data, [ORIGINAL, 75, 25],
                           steps=2)
    for item, by_q in zip(data.items, maps, strict=True):
        want = prepare_input(item.image, ORIGINAL, (8, 8))
        assert by_q[75].baseline is by_q[25].baseline
        assert by_q[75].baseline.shape == want.shape == (8, 8, 3)
        assert by_q[75].baseline.tobytes() == want.tobytes()


def kept_alive(a: np.ndarray) -> int:
    """The bytes of the buffer at the root of ``a``'s chain of bases: the
    memory that ``a`` keeps alive."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return memoryview(a).nbytes


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("side", [12, 8], ids=["resized", "not_resized"])
def test_each_images_maps_share_one_baseline_that_owns_its_data(tmp_path, monkeypatch,
                                                                 workers, side):
    # a baseline that were a view of an image's level stack would keep the
    # whole stack alive, in the process that makes the map and, once
    # unpickled, in the parent that joins a child's reply
    data = loaded(tmp_path, gen_synthetic(6, classes=2, per_class=2, side=side))
    pin_workers(monkeypatch, workers)
    integrate = harness.integrated_gradients

    def owned_baseline(scorer, spec, label):
        assert spec.baseline.base is None, "a path's baseline is a view"
        return integrate(scorer, spec, label)

    # forked children inherit the check, and a child's failure fails the run
    monkeypatch.setattr(harness, "integrated_gradients", owned_baseline)
    maps = attribute_batch(new_scorer(12, (8, 8, 3), (16,), 8, 2), data, [ORIGINAL, 95, 25],
                           steps=2)
    for by_q in maps:
        baseline = by_q[95].baseline
        assert by_q[25].baseline is baseline
        assert baseline.shape == (8, 8, 3) and kept_alive(baseline) == baseline.nbytes
    if workers == 1:
        assert all(by_q[95].baseline.base is None for by_q in maps)


def test_sweep_accuracy_metric():
    table = sweep_precision(brightness_scorer(), brightness_dataset(),
                            [ORIGINAL, 50], metric="accuracy")
    assert table.rows["model"][50] == 1.0


def test_sweep_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        sweep_precision(brightness_scorer(), brightness_dataset(),
                        [ORIGINAL, 50], metric="f1")


def test_sweep_requires_original_level():
    with pytest.raises(ValueError, match="original"):
        sweep_precision(brightness_scorer(), brightness_dataset(), [75, 50])


def test_quality_list_needs_a_compressed_level():
    data = brightness_dataset()
    with pytest.raises(ValueError, match="must include a compressed level"):
        sweep_precision(brightness_scorer(), data, [ORIGINAL])
    with pytest.raises(ValueError, match="must include a compressed level"):
        attribute_batch(brightness_scorer(), data, (ORIGINAL,))


def test_repeated_quality_rejected():
    data = brightness_dataset()
    with pytest.raises(ValueError, match="quality 25 is listed twice"):
        sweep_precision(brightness_scorer(), data, [ORIGINAL, 25, 25])
    with pytest.raises(ValueError, match="quality original is listed twice"):
        attribute_batch(brightness_scorer(), data, (ORIGINAL, 50, ORIGINAL))


def test_quality_list_is_checked_before_any_image():
    data = brightness_dataset()
    for run in (sweep_precision, attribute_batch):
        with pytest.raises(ValueError, match=r"quality must be in \[1, 100\]") as exc:
            run(brightness_scorer(), data, [ORIGINAL, 250])
        assert "image" not in str(exc.value)


def test_attribute_batch_checks_its_path_settings_before_any_image():
    data = brightness_dataset()
    for settings, message in (({"scheme": "simpson"}, "unknown scheme 'simpson'"),
                              ({"steps": 0}, "steps must be >= 1, got 0")):
        with pytest.raises(ValueError, match=message) as exc:
            attribute_batch(brightness_scorer(), data, (ORIGINAL, 50), **settings)
        assert "image" not in str(exc.value)


def test_sweep_row_is_named():
    table = sweep_precision(brightness_scorer(), brightness_dataset(), [ORIGINAL, 50],
                            name="wide")
    assert list(table.rows) == ["wide"]
    assert set(table.rows["wide"]) == {ORIGINAL, 50}


def test_sweep_class_count_mismatch():
    data = gen_synthetic(3, classes=3, per_class=1, side=8)
    with pytest.raises(ValueError, match="classes"):
        sweep_precision(brightness_scorer(), data, [ORIGINAL, 50])


def test_sweep_failure_names_image_and_quality():
    def broken(images, labels):
        raise RuntimeError("boom")

    data = brightness_dataset()
    with pytest.raises(RuntimeError,
                       match=r"scoring failed on image 'bright_0' at quality 50: boom"):
        sweep_precision(FakeScorer(broken), data, [50, ORIGINAL])


def test_precision_table_validates_missing_cells():
    with pytest.raises(ValueError, match="missing scores"):
        PrecisionTable(rows={"m": {50: 1.0}}, qualities=[ORIGINAL, 50])
    with pytest.raises(ValueError, match="no qualities"):
        PrecisionTable(rows={}, qualities=[])


def test_precision_table_levels_are_checked(tmp_path):
    # a level is written as str(q), so 50.0 must become 50 before any file is written
    table = PrecisionTable(rows={"m": {ORIGINAL: 1.0, 50.0: 0.5}}, qualities=[ORIGINAL, 50.0])
    assert [type(q) for q in table.qualities] == [str, int]
    write_precision_csv(table, tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text() == "model,quality,score\nm,original,1.0\nm,50,0.5\n"
    with pytest.raises(ValueError, match=r"quality must be in \[1, 100\]"):
        PrecisionTable(rows={"m": {ORIGINAL: 1.0, 250: 0.5}}, qualities=[ORIGINAL, 250])


def test_precision_table_refuses_a_level_listed_twice():
    # one rule for every list of levels: a table would write the level's column twice
    with pytest.raises(ValueError, match="^quality 25 is listed twice$"):
        PrecisionTable(rows={"m": {ORIGINAL: 1.0, 25: 0.5}}, qualities=[ORIGINAL, 25, 25])
    with pytest.raises(ValueError, match="^quality 25 is listed twice$"):
        PrecisionTable(rows={"m": {ORIGINAL: 1.0, 25: 0.5}}, qualities=[ORIGINAL, 25, "25"])


def test_a_scorer_of_another_class_count_is_refused_before_any_image():
    data = brightness_dataset()
    data.class_names.append("grey")
    for run in (sweep_precision, attribute_batch):
        with pytest.raises(ValueError, match="^scorer expects 2 classes, dataset has 3$"):
            run(brightness_scorer(), data, [ORIGINAL, 50])


def four_classes(seed: int = 41):
    """Four 8x8 images, one per class, and an untrained 4-class scorer that
    names the dataset's classes in the dataset's order."""
    data = gen_synthetic(seed, classes=4, per_class=1, side=8)
    return data, new_scorer(seed + 1, (8, 8, 3), (16,), 8, 4, class_names=data.class_names)


@pytest.fixture
def prepared(monkeypatch):
    """The levels ``prepare_inputs`` is asked for, one list per image."""
    calls = []
    prepare = harness.prepare_inputs

    def counting(image, qualities, resize_to):
        calls.append(qualities)
        return prepare(image, qualities, resize_to)

    monkeypatch.setattr(harness, "prepare_inputs", counting)
    return calls


@pytest.mark.parametrize("run", [sweep_precision, attribute_batch])
def test_a_scorer_model_refuses_a_dataset_in_another_class_order(prepared, run):
    # the scorer's classes, listed in reverse: every label index names another class
    data, model = four_classes()
    names = data.class_names
    reversed_data = Dataset([DatasetItem(it.pixels, 3 - it.label, it.id) for it in data.items],
                            names[::-1])
    with pytest.raises(ValueError) as exc:
        run(model, reversed_data, [ORIGINAL, 50])
    assert str(exc.value) == (f"the scorer scores classes {names}, "
                              f"but the dataset lists classes {names[::-1]}")
    assert prepared == []


@pytest.mark.parametrize("run", [sweep_precision, attribute_batch])
def test_a_label_outside_the_scorers_classes_is_refused_before_any_image(prepared, run):
    data, model = four_classes()
    data.items.append(DatasetItem(data.items[0].pixels, 7, "x"))
    with pytest.raises(ValueError, match=r"^label 7 out of range for 4 classes$"):
        run(model, data, [ORIGINAL, 25])
    assert prepared == []


def test_a_scorer_that_names_no_classes_and_a_provider_are_not_compared():
    data, model = four_classes()
    model.class_names = []
    assert sweep_precision(model, data, [ORIGINAL, 50]).qualities == [ORIGINAL, 50]
    # the mock provider calls its classes class_0 .. class_3, the dataset does not
    command = [sys.executable, "-m", "igprobe.mock_provider", "--seed", "3", "--classes", "4",
               "--side", "8"]
    with provider_connect(command) as client:
        assert client.class_names != data.class_names
        assert len(attribute_batch(client, data, [ORIGINAL, 50], steps=2)) == len(data.items)


def test_an_empty_dataset_passes_the_fit_check():
    _, model = four_classes()
    empty = Dataset([], model.class_names)
    with pytest.raises(ValueError, match="^empty prediction list$"):
        sweep_precision(model, empty, [ORIGINAL, 50])
    assert attribute_batch(model, empty, [ORIGINAL, 50]) == []


# ---------------------------------------------------------------- attribution batches


def test_attribute_batch_structure():
    data = gen_synthetic(3, classes=2, per_class=2, side=8)
    model = new_scorer(5, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    maps = attribute_batch(model, data, (ORIGINAL, 75, 50), steps=8)
    assert len(maps) == 4
    for by_q in maps:
        assert list(by_q) == [75, 50]  # compressed qualities only, in sweep order
        for att in by_q.values():
            assert att.values.shape == (8, 8, 3)
            assert att.logits_baseline.shape == att.logits_target.shape == (2,)


def test_attribute_batch_completeness_against_recomputed_losses():
    data = gen_synthetic(21, classes=2, per_class=2, side=8)
    model = new_scorer(22, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    maps = attribute_batch(model, data, (ORIGINAL, 50), steps=64)
    for item, by_q in zip(data.items, maps):
        # recompute both endpoint losses through the plain forward pass
        logits = np.stack([forward(model, prepare_input(item.image, q, (8, 8))[None])[0]
                           for q in (ORIGINAL, 50)])
        l0, l1 = cross_entropy(logits, [item.label] * 2)
        att = by_q[50]
        assert abs(att.sum - (l1 - l0)) <= att.completeness_gap + 1e-9
        assert att.loss_baseline == pytest.approx(l0, abs=1e-12)
        assert att.loss_target == pytest.approx(l1, abs=1e-12)


def test_attribute_batch_requires_original():
    data = brightness_dataset()
    with pytest.raises(ValueError, match="original"):
        attribute_batch(brightness_scorer(), data, (75, 50))


def test_attribute_batch_rejects_bad_steps():
    data = brightness_dataset()
    with pytest.raises(ValueError, match="steps"):
        attribute_batch(brightness_scorer(), data, (ORIGINAL, 50), steps=0)


def test_attribute_batch_failure_names_image():
    def broken(images, labels):
        raise RuntimeError("boom")

    # the failed batched call still names the image, the quality and the path steps
    with pytest.raises(RuntimeError,
                       match=r"attribution failed on image 'bright_0' at quality 50: "
                             r"gradient evaluation failed at path step 0 to 8 .*boom"):
        attribute_batch(FakeScorer(broken), brightness_dataset(), (ORIGINAL, 50), steps=8)


@pytest.mark.parametrize("scheme", ["trapezoid", "riemann_right"])
def test_attribute_batch_requests_one_row_per_path_node(scheme):
    data = gen_synthetic(23, classes=2, per_class=1, side=8)
    model = new_scorer(24, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    calls = []

    def counting(images, labels):
        calls.append(len(images))
        return model(images, labels)

    attribute_batch(FakeScorer(counting, model.input_shape, model.num_classes), data,
                    (ORIGINAL, 75, 50, 25), steps=50, scheme=scheme)
    # one call of N+1 rows per map, three maps per image: 153 rows each
    assert calls == [51] * 3 * len(data.items)


def test_attribute_batch_golden_record():
    # Frozen output of a fixed recipe: seeded data, seeded init, seeded
    # training. Guards the whole degrade -> score -> attribute pipeline
    # against silent numeric drift.
    data = gen_synthetic(61, classes=4, per_class=5, side=32)
    model = new_scorer(62, (32, 32, 3), (64,), 32, 4, class_names=data.class_names)
    model = train(model, data, TrainConfig(lr=0.05, epochs=200, batch=4, seed=61))
    probe = Dataset(items=[data.items[0], data.items[5], data.items[10]],
                    class_names=data.class_names)
    maps = attribute_batch(model, probe, (ORIGINAL, 50, 25), steps=50)

    golden = [
        ("stripes_a_0_0000", "stripes_a_0", ["stripes_a_0"] * 3,
         [0.458510007468, 0.448797789865, 0.432977223220],
         [0.021409692965, 0.057297028153]),
        ("stripes_b_1_0000", "stripes_b_1", ["stripes_a_0"] * 3,
         [0.428212097719, 0.422833643259, 0.420091481644],
         [0.012639807160, 0.019146131814]),
        ("disk_2_0000", "disk_2", ["disk_2"] * 3,
         [0.692014233038, 0.675886592352, 0.669863909514],
         [0.023581226464, 0.032531955717]),
    ]
    names = data.class_names
    for item, by_q, (gid, gtrue, gpred, gscores, gigs) in zip(probe.items, maps, golden):
        # the original's logits are the first map's baseline row, as the CSV writer reads them
        logits = [by_q[50].logits_baseline, by_q[50].logits_target, by_q[25].logits_target]
        assert item.id == gid
        assert names[item.label] == gtrue
        assert [names[argmax(z)] for z in logits] == gpred
        assert [float(softmax(z)[item.label]) for z in logits] == pytest.approx(gscores, abs=1e-9)
        assert [by_q[q].sum for q in (50, 25)] == pytest.approx(gigs, abs=1e-9)
        for q in (50, 25):
            assert by_q[q].completeness_gap < 1e-6


# ---------------------------------------------------------------- images over processes


def five_images():
    """Five 12x12 images and an 8x8 scorer, so every prepared input is
    resized too; 5 images split unevenly over 2 or 3 workers."""
    data = gen_synthetic(31, classes=5, per_class=1, side=12)
    return data, new_scorer(32, (8, 8, 3), (16,), 8, 5, class_names=data.class_names)


def pin_workers(monkeypatch, n):
    monkeypatch.setattr(harness, "_workers", lambda scorer, n_items: n)


@contextmanager
def leaves_nothing_behind():
    """The block leaves no child process unreaped and no pipe unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_follow_the_scorer_and_the_usable_cpus(monkeypatch):
    data, model = five_images()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert harness._workers(model, 5) == 3
    assert harness._workers(model, 2) == 2  # at most one per image
    assert harness._workers(model, 0) == 1
    assert harness._workers(FakeScorer(model, model.input_shape, model.num_classes), 5) == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_loop_gives_the_serial_results_bit_for_bit(monkeypatch, workers):
    data, model = five_images()
    qualities = [ORIGINAL, 75, 25]
    pin_workers(monkeypatch, 1)
    table = sweep_precision(model, data, qualities)
    maps = attribute_batch(model, data, qualities, steps=8)
    pin_workers(monkeypatch, workers)
    with leaves_nothing_behind():
        probe = harness._each_image(model, data, [ORIGINAL], "probing",
                                    lambda item, base, x: (os.getpid(), item.id))
        assert sweep_precision(model, data, qualities) == table
        forked = attribute_batch(model, data, qualities, steps=8)

    # one contiguous chunk per worker, this process's first, joined in image order
    pids, ids = zip(*(by_q[ORIGINAL] for by_q in probe))
    assert list(ids) == [it.id for it in data.items]
    assert pids[0] == os.getpid() and len(set(pids)) == workers
    assert sum(a != b for a, b in zip(pids, pids[1:])) == workers - 1
    for got, want in zip(forked, maps, strict=True):
        assert list(got) == list(want)
        for q in want:
            for field in ("values", "sum", "completeness_gap", "logits_baseline",
                          "logits_target"):
                assert np.array_equal(getattr(got[q], field), getattr(want[q], field)), field


class Refused(Exception):
    """An exception pickle cannot rebuild: ``__init__`` takes two
    arguments, and ``args`` holds one message."""

    def __init__(self, image_id, q):
        super().__init__(f"{image_id} refused at quality {q}")


ERRORS = {"picklable": lambda image_id: ValueError(f"no pixels for {image_id}"),
          "unpicklable": lambda image_id: Refused(image_id, 75)}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("error", sorted(ERRORS))
@pytest.mark.parametrize("bad", [(3,), (0, 3), (2, 4), (1, 2, 4)])
def test_a_failure_reads_as_in_one_process(monkeypatch, workers, error, bad):
    # chunks: [0, 1] [2, 3, 4] over 2 workers, [0] [1, 2] [3, 4] over 3
    data, model = five_images()
    ids = {data.items[i].id for i in bad}

    def work(item, base, x):
        if item.id in ids and x is not base:
            raise ERRORS[error](item.id)
        return 0

    def message():
        with pytest.raises(RuntimeError) as exc:
            harness._each_image(model, data, [ORIGINAL, 75], "probing", work)
        return str(exc.value)

    pin_workers(monkeypatch, 1)
    serial = message()
    assert serial.startswith(f"probing failed on image {data.items[bad[0]].id!r} at quality 75: ")
    pin_workers(monkeypatch, workers)
    with leaves_nothing_behind():
        assert message() == serial


@pytest.mark.parametrize("ending, status", [(lambda: os._exit(0), 0), (lambda: os._exit(3), 3),
                                            (lambda: os.kill(os.getpid(), signal.SIGKILL), -9)])
def test_a_child_that_ends_without_a_reply_is_named(monkeypatch, ending, status):
    data, model = five_images()
    parent = os.getpid()

    def work(item, base, x):
        if os.getpid() != parent:
            ending()
        return 0

    pin_workers(monkeypatch, 2)
    want = (f"the process for images {data.items[2].id!r} to {data.items[4].id!r} "
            f"ended without a reply (exit status {status})")
    with leaves_nothing_behind():
        with pytest.raises(RuntimeError, match=f"^{re.escape(want)}$"):
            harness._each_image(model, data, [ORIGINAL, 75], "probing", work)


@pytest.mark.parametrize("error, raised", [(ValueError, RuntimeError),
                                           (KeyboardInterrupt, KeyboardInterrupt)])
def test_the_parent_kills_its_children_when_it_stops_early(monkeypatch, error, raised):
    data, model = five_images()
    parent = os.getpid()

    def work(item, base, x):
        if os.getpid() != parent:
            time.sleep(60)
        raise error("stop")

    pin_workers(monkeypatch, 3)
    start = time.monotonic()
    with leaves_nothing_behind():
        with pytest.raises(raised, match="stop"):
            harness._each_image(model, data, [ORIGINAL, 75], "probing", work)
    assert time.monotonic() - start < 30


def five_files(directory):
    """``five_images`` written as PPM files and loaded back, so that the loop
    reads each image from its file."""
    data, model = five_images()
    return loaded(directory, data), model


def _same_length(path):
    data = path.read_bytes()
    path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))


# a change after loading: (how, what the read reports)
FILE_CHANGES = {
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-7]), "changed after"),
    "same length": (_same_length, "changed after"),
    "shape": (lambda path: write_ppm(path, np.zeros((12, 16, 3))), "changed after"),
    "deleted": (lambda path: path.unlink(), "No such file or directory"),
}


@pytest.mark.parametrize("change", sorted(FILE_CHANGES))
@pytest.mark.parametrize("changed", [(1,), (3,), (1, 3), (3, 4)],
                         ids=["chunk0", "child", "chunk0+child", "child+child"])
def test_a_file_changed_after_loading_fails_where_it_is_read(tmp_path, monkeypatch, change,
                                                             changed):
    # chunks over 2 workers: [0, 1] in this process, [2, 3, 4] in a child
    data, model = five_files(tmp_path)
    how, cause = FILE_CHANGES[change]
    for i in changed:
        how(tmp_path / data.items[i].id)
    pin_workers(monkeypatch, 2)
    with leaves_nothing_behind():
        with pytest.raises(RuntimeError) as exc:
            sweep_precision(model, data, [ORIGINAL, 75])
    first = data.items[changed[0]].id
    assert str(exc.value).startswith(f"scoring failed on image {first!r} at quality original: ")
    assert f"{tmp_path / first}" in str(exc.value) and cause in str(exc.value)


def test_a_scorer_other_than_a_scorer_model_runs_in_this_process(monkeypatch):
    data, model = five_images()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    calls = []

    def counting(images, labels):
        calls.append(os.getpid())
        return model(images, labels)

    sweep_precision(FakeScorer(counting, model.input_shape, model.num_classes), data,
                    [ORIGINAL, 75, 25])
    assert calls == [os.getpid()] * (len(data.items) * 3)


# ---------------------------------------------------------------- csv io


def test_quality_key_roundtrip():
    # a level is written as str(q), and check_quality reads that text back
    for q in [ORIGINAL, 1, 10, 50, 95, 100]:
        assert check_quality(str(q)) == q
    assert check_quality(" Original ") == ORIGINAL


def test_precision_csv_roundtrip_exact(tmp_path):
    table = PrecisionTable(
        rows={"a": {ORIGINAL: 1.0, 50: 1.0 / 3.0},
              "b": {ORIGINAL: 0.625, 50: 0.9019607843137255}},
        qualities=[ORIGINAL, 50])
    path = tmp_path / "sweep.csv"
    write_precision_csv(table, path)
    back = read_precision_csv(path)
    assert back.qualities == table.qualities
    assert list(back.rows) == ["a", "b"]
    assert back.rows == table.rows  # repr round-trip is lossless


def test_precision_csv_with_a_byte_order_mark_reads_as_without(tmp_path):
    table = PrecisionTable(rows={"a": {ORIGINAL: 1.0, 50: 0.625}}, qualities=[ORIGINAL, 50])
    path = tmp_path / "precision.csv"
    write_precision_csv(table, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = read_precision_csv(path)
    assert back.qualities == table.qualities and back.rows == table.rows


def test_precision_csv_skips_a_blank_line(tmp_path):
    table = PrecisionTable(rows={"a": {ORIGINAL: 1.0, 50: 0.625}}, qualities=[ORIGINAL, 50])
    path = tmp_path / "precision.csv"
    write_precision_csv(table, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + rows[0] + "\n" + "".join(rows[1:]), encoding="utf-8")
    back = read_precision_csv(path)
    assert back.qualities == table.qualities and back.rows == table.rows


def test_precision_csv_bytes_deterministic(tmp_path):
    table = sweep_precision(brightness_scorer(), brightness_dataset(),
                            [ORIGINAL, 75, 25])
    write_precision_csv(table, tmp_path / "one.csv")
    write_precision_csv(table, tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_precision_csv_header_pin(tmp_path):
    table = PrecisionTable(rows={"m": {ORIGINAL: 1.0}},
                           qualities=[ORIGINAL])
    path = tmp_path / "sweep.csv"
    write_precision_csv(table, path)
    assert path.read_text() == "model,quality,score\nm,original,1.0\n"


def test_precision_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("model,q,value\nm,50,1.0\n")
    with pytest.raises(ValueError, match="expected header"):
        read_precision_csv(path)


def test_precision_csv_rejects_repeated_cell(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("model,quality,score\na,original,1.0\nb,original,0.5\na,original,0.5\n")
    with pytest.raises(ValueError, match="line 4: model 'a' at quality original is listed twice"):
        read_precision_csv(path)


def test_attribution_csv_layout(tmp_path):
    # true class "cat" at index 1: softmax (0.25, 0.75) at the original, and a
    # tie (0.5, 0.5) at q50 that breaks to the lower index, "dog"
    data = Dataset(items=[DatasetItem(pixels=np.zeros((1, 1, 3)), label=1, id="img_0")],
                   class_names=["dog", "cat"])
    att = AttributionMap(values=np.array([[[0.123456789, 0.0, 0.0]]]),
                         baseline=np.zeros((1, 1, 3)),
                         loss_baseline=0.0, loss_target=0.0,
                         logits_baseline=np.array([0.0, np.log(3.0)]),
                         logits_target=np.array([0.0, 0.0]))
    path = tmp_path / "att.csv"
    write_attribution_csv(data, [ORIGINAL, 50], [{50: att}], path)
    assert path.read_text() == (
        "id,true,predicted_original,predicted_50,score_original,score_50,ig_50\n"
        "img_0,cat,cat,dog,0.750000,0.500000,0.123457\n")


def test_attribution_csv_bytes_deterministic(tmp_path):
    data = gen_synthetic(3, classes=2, per_class=1, side=8)
    model = new_scorer(5, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    maps = attribute_batch(model, data, (ORIGINAL, 50), steps=8)
    write_attribution_csv(data, [ORIGINAL, 50], maps, tmp_path / "one.csv")
    write_attribution_csv(data, [ORIGINAL, 50], maps, tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_prepare_input_original_is_identity_without_resize():
    img = gen_synthetic(2, classes=2, per_class=1, side=8).items[0].image
    assert np.array_equal(prepare_input(img, ORIGINAL, (8, 8)), img)
    assert np.array_equal(prepare_input(img, 50, (8, 8)), degrade_jpeg(img, 50))


def test_prepare_input_resizes_after_degrading():
    img = gen_synthetic(2, classes=2, per_class=1, side=8).items[0].image
    out = prepare_input(img, 50, resize_to=(12, 12))
    assert out.shape == (12, 12, 3)


# ---------------------------------------------------------------- README


def test_readme_library_blocks_run():
    # every python block of "Library entry points", in order, in one namespace
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert isinstance(namespace["att"], AttributionMap)
