"""Quality-sweep metrics, attribution batches, and their CSV round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe import harness
from igprobe import model as model_module
from igprobe.codec import ORIGINAL, degrade_jpeg
from igprobe.data import Dataset, DatasetItem, gen_synthetic, load_dataset
from igprobe.harness import (
    AttributionBatch,
    AttributionRecord,
    PrecisionRow,
    PrecisionTable,
    accuracy,
    attribute_batch,
    macro_precision,
    parse_quality,
    prepare_input,
    quality_key,
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
    train,
)
from igprobe.imgio import write_ppm
from igprobe.tensor import argmax


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
    assert [r.model_name for r in table.rows] == ["model"]
    assert table.qualities == [ORIGINAL, 90, 75, 50, 25, 10]
    assert all(s == 1.0 for s in table.rows[0].scores.values())


def test_sweep_original_only_matches_direct_classification():
    data = gen_synthetic(9, classes=3, per_class=4, side=8)
    model = new_scorer(11, (8, 8, 3), (16,), 8, 3)
    table = sweep_precision(model, data, [ORIGINAL])
    preds = [argmax(forward(model, it.image[None])[0]) for it in data.items]
    truths = [it.label for it in data.items]
    want = macro_precision(preds, truths, data.num_classes)
    assert table.rows[0].scores[ORIGINAL] == want


def test_sweep_computes_no_gradient_rows(monkeypatch):
    data = gen_synthetic(9, classes=3, per_class=4, side=8)
    model = new_scorer(11, (8, 8, 3), (16,), 8, 3)
    want = sweep_precision(model, data, [ORIGINAL, 50])

    def no_backward(*args):
        raise AssertionError("the sweep asked for a gradient row")

    monkeypatch.setattr(model_module, "backward", no_backward)
    got = sweep_precision(model, data, [ORIGINAL, 50])
    assert got.rows[0].scores == want.rows[0].scores


def test_sweep_calls_the_public_codec_per_image_and_quality(tmp_path, monkeypatch):
    # 12x12 files for an 8x8 scorer, so every prepared image is resized too
    source = gen_synthetic(6, classes=2, per_class=3, side=12)
    for it in source.items:
        write_ppm(tmp_path / f"{it.id}.ppm", it.image)
    (tmp_path / "labels.csv").write_text("filename,class_name\n" + "".join(
        f"{it.id}.ppm,{source.class_names[it.label]}\n" for it in source.items))
    data = load_dataset(tmp_path)
    as_float = Dataset(items=[DatasetItem(pixels=it.image, label=it.label, id=it.id)
                              for it in data.items], class_names=data.class_names)
    model = new_scorer(12, (8, 8, 3), (16,), 8, 2)
    qualities = [ORIGINAL, 75, 25]

    calls = {"degrade_jpeg": 0, "resize_bicubic": 0}

    def counting(name):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    table = sweep_precision(model, data, qualities)
    n = len(data.items) * len(qualities)
    assert calls == {"degrade_jpeg": n, "resize_bicubic": n}
    assert sweep_precision(model, as_float, qualities) == table


def test_sweep_accuracy_metric():
    table = sweep_precision(brightness_scorer(), brightness_dataset(),
                            [ORIGINAL, 50], metric="accuracy")
    assert table.rows[0].scores[50] == 1.0


def test_sweep_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric"):
        sweep_precision(brightness_scorer(), brightness_dataset(),
                        [ORIGINAL], metric="f1")


def test_sweep_requires_original_level():
    with pytest.raises(ValueError, match="original"):
        sweep_precision(brightness_scorer(), brightness_dataset(), [75, 50])


def test_repeated_quality_rejected():
    data = brightness_dataset()
    with pytest.raises(ValueError, match="quality 25 is listed twice"):
        sweep_precision(brightness_scorer(), data, [ORIGINAL, 25, 25])
    with pytest.raises(ValueError, match="quality original is listed twice"):
        attribute_batch(brightness_scorer(), data, (ORIGINAL, 50, ORIGINAL))


def test_sweep_row_is_named():
    table = sweep_precision(brightness_scorer(), brightness_dataset(), [ORIGINAL, 50],
                            name="wide")
    assert [r.model_name for r in table.rows] == ["wide"]
    assert set(table.rows[0].scores) == {ORIGINAL, 50}


def test_sweep_class_count_mismatch():
    data = gen_synthetic(3, classes=3, per_class=1, side=8)
    with pytest.raises(ValueError, match="classes"):
        sweep_precision(brightness_scorer(), data, [ORIGINAL])


def test_sweep_failure_names_image_and_quality():
    def broken(images, labels):
        raise RuntimeError("boom")

    data = brightness_dataset()
    with pytest.raises(RuntimeError,
                       match=r"scoring failed on image 'bright_0' at quality 50: boom"):
        sweep_precision(FakeScorer(broken), data, [50, ORIGINAL])


def test_precision_table_validates_missing_cells():
    with pytest.raises(ValueError, match="missing scores"):
        PrecisionTable(rows=[PrecisionRow("m", {50: 1.0})], qualities=[ORIGINAL, 50])
    with pytest.raises(ValueError, match="no qualities"):
        PrecisionTable(rows=[], qualities=[])


# ---------------------------------------------------------------- attribution batches


def test_attribute_batch_structure():
    data = gen_synthetic(3, classes=2, per_class=2, side=8)
    model = new_scorer(5, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    batch = attribute_batch(model, data, (ORIGINAL, 75, 50), steps=8)
    assert batch.qualities == [ORIGINAL, 75, 50]
    assert len(batch.records) == len(batch.maps) == 4
    for rec, maps in zip(batch.records, batch.maps):
        assert len(rec.predicted_labels) == 3
        assert len(rec.predicted_scores) == 3
        assert len(rec.ig_values) == 2  # degraded qualities only
        assert set(maps) == {75, 50}
        for att in maps.values():
            assert att.values.shape == (8, 8, 3)
        assert rec.true_label in data.class_names
        assert all(p in data.class_names for p in rec.predicted_labels)


def test_attribute_batch_completeness_against_recomputed_losses():
    data = gen_synthetic(21, classes=2, per_class=2, side=8)
    model = new_scorer(22, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    batch = attribute_batch(model, data, (ORIGINAL, 50), steps=64)
    for item, rec, maps in zip(data.items, batch.records, batch.maps):
        # recompute both endpoint losses through the plain forward pass
        logits = np.stack([forward(model, prepare_input(item.image, q, (8, 8))[None])[0]
                           for q in (ORIGINAL, 50)])
        l0, l1 = cross_entropy(logits, [item.label] * 2)
        att = maps[50]
        assert abs(rec.ig_values[0] - (l1 - l0)) <= att.completeness_gap + 1e-9
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
    batch = attribute_batch(model, probe, (ORIGINAL, 50, 25), steps=50)

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
    for rec, maps, (gid, gtrue, gpred, gscores, gigs) in zip(
            batch.records, batch.maps, golden):
        assert rec.id == gid
        assert rec.true_label == gtrue
        assert rec.predicted_labels == gpred
        assert rec.predicted_scores == pytest.approx(gscores, abs=1e-9)
        assert rec.ig_values == pytest.approx(gigs, abs=1e-9)
        for q in (50, 25):
            assert maps[q].completeness_gap < 1e-6


# ---------------------------------------------------------------- csv io


def test_quality_key_roundtrip():
    for q in [ORIGINAL, 1, 10, 50, 95, 100]:
        assert parse_quality(quality_key(q)) == q
    assert parse_quality(" Original ") == ORIGINAL


def test_precision_csv_roundtrip_exact(tmp_path):
    table = PrecisionTable(
        rows=[PrecisionRow("a", {ORIGINAL: 1.0, 50: 1.0 / 3.0}),
              PrecisionRow("b", {ORIGINAL: 0.625, 50: 0.9019607843137255})],
        qualities=[ORIGINAL, 50])
    path = tmp_path / "sweep.csv"
    write_precision_csv(table, path)
    back = read_precision_csv(path)
    assert back.qualities == table.qualities
    assert [r.model_name for r in back.rows] == ["a", "b"]
    for got, want in zip(back.rows, table.rows):
        assert got.scores == want.scores  # repr round-trip is lossless


def test_precision_csv_bytes_deterministic(tmp_path):
    table = sweep_precision(brightness_scorer(), brightness_dataset(),
                            [ORIGINAL, 75, 25])
    write_precision_csv(table, tmp_path / "one.csv")
    write_precision_csv(table, tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_precision_csv_header_pin(tmp_path):
    table = PrecisionTable(rows=[PrecisionRow("m", {ORIGINAL: 1.0})],
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
    rec = AttributionRecord(id="img_0", true_label="cat",
                            predicted_labels=["cat", "dog"],
                            predicted_scores=[0.75, 0.5],
                            ig_values=[0.123456789])
    batch = AttributionBatch(records=[rec], maps=[{}],
                             qualities=[ORIGINAL, 50])
    path = tmp_path / "att.csv"
    write_attribution_csv(batch, path)
    assert path.read_text() == (
        "id,true,predicted_original,predicted_50,score_original,score_50,ig_50\n"
        "img_0,cat,cat,dog,0.750000,0.500000,0.123457\n")


def test_attribution_csv_bytes_deterministic(tmp_path):
    data = gen_synthetic(3, classes=2, per_class=1, side=8)
    model = new_scorer(5, (8, 8, 3), (16,), 8, 2, class_names=data.class_names)
    batch = attribute_batch(model, data, (ORIGINAL, 50), steps=8)
    write_attribution_csv(batch, tmp_path / "one.csv")
    write_attribution_csv(batch, tmp_path / "two.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_prepare_input_original_is_identity_without_resize():
    img = gen_synthetic(2, classes=2, per_class=1, side=8).items[0].image
    assert np.array_equal(prepare_input(img, ORIGINAL, (8, 8)), img)
    assert np.array_equal(prepare_input(img, 50, (8, 8)), degrade_jpeg(img, 50))


def test_prepare_input_resizes_after_degrading():
    img = gen_synthetic(2, classes=2, per_class=1, side=8).items[0].image
    out = prepare_input(img, 50, resize_to=(12, 12))
    assert out.shape == (12, 12, 3)
