"""Scorer forward/backward, the cross-entropy loss, training, checkpoints."""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igprobe import model as model_module
from igprobe.data import Dataset, DatasetItem, gen_synthetic, load_dataset
from igprobe.imgio import write_image
from igprobe.model import (Layer, ScorerModel, TrainConfig, backward, forward,
                           cross_entropy, gradient_check, load_model, mean_loss,
                           new_scorer, save_model, softmax, train)
from igprobe.tensor import SeededRng


def identity_model(c: int, tau: float = 1.0) -> ScorerModel:
    """Encoder = identity over a (1,1,c) input; class embeddings = I rows."""
    return ScorerModel(
        layers=[Layer(np.eye(c), np.zeros(c), "identity")],
        class_embeddings=np.eye(c),
        temperature=tau,
        input_shape=(1, 1, c),
    )


def linear_model(seed: int, n: int, d: int, c: int, tau: float = 1.0) -> ScorerModel:
    rng = SeededRng(seed)
    emb = rng.normal([c, d])
    emb = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    return ScorerModel(
        layers=[Layer(rng.normal([d, n]) / math.sqrt(n), np.zeros(d), "identity")],
        class_embeddings=emb,
        temperature=tau,
        input_shape=(1, 1, n),
    )


# --------------------------------------------------------------------- forward

def test_forward_identity_encoder_one_hot():
    model = identity_model(4)
    for k in range(4):
        x = np.zeros((1, 1, 4))
        x[0, 0, k] = 1.0
        assert int(np.argmax(forward(model, x[None])[0])) == k


def test_forward_positive_scaling_invariance():
    model = linear_model(3, 6, 5, 3)
    x = SeededRng(4).uniform([1, 1, 6])
    assert np.allclose(forward(model, x[None]), forward(model, 2.0 * x[None]), atol=1e-12)


def test_forward_zero_image_zero_logits():
    model = linear_model(5, 6, 4, 3)
    logits = forward(model, np.zeros((1, 1, 1, 6)))
    assert np.array_equal(logits, np.zeros((1, 3)))


def test_forward_shape_mismatch():
    model = identity_model(4)
    with pytest.raises(ValueError, match="shape"):
        forward(model, np.zeros((1, 2, 1, 4)))


def test_scorer_members_call_module_functions_by_name(monkeypatch):
    # A wrapper installed over model.forward or model.backward (the
    # benchmark's tracer does this) must see the scorer's own calls.
    model = linear_model(3, 6, 5, 3)
    x = SeededRng(4).uniform([2, 1, 1, 6])
    seen = []
    monkeypatch.setattr(model_module, "forward",
                        lambda *args: seen.append("forward") or forward(*args))
    monkeypatch.setattr(model_module, "backward",
                        lambda *args: seen.append("backward") or backward(*args))
    assert np.array_equal(model.logits(x), forward(model, x))
    assert np.array_equal(model(x, [0, 2]).grads, backward(model, x, [0, 2]).grads)
    assert seen == ["forward", "backward"]


def test_class_embeddings_must_be_unit_rows():
    with pytest.raises(ValueError, match="unit"):
        ScorerModel(layers=[Layer(np.eye(2), np.zeros(2), "identity")],
                    class_embeddings=2.0 * np.eye(2),
                    temperature=1.0, input_shape=(1, 1, 2))


def test_temperature_must_be_positive():
    with pytest.raises(ValueError, match="temperature"):
        ScorerModel(layers=[Layer(np.eye(2), np.zeros(2), "identity")],
                    class_embeddings=np.eye(2),
                    temperature=0.0, input_shape=(1, 1, 2))


# --------------------------------------------------------------- cross_entropy

def loss_of(logits, k: int) -> float:
    return float(cross_entropy(np.array([logits], dtype=np.float64), [k])[0])


def test_loss_uniform_logits_is_log_c():
    assert loss_of(np.zeros(10), 3) == pytest.approx(math.log(10.0), abs=1e-12)


def test_loss_extreme_logits_no_overflow():
    assert loss_of([1000.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)


def test_loss_1_2_3_at_k2():
    # -log(e^3 / (e + e^2 + e^3)), evaluated independently at high precision
    assert loss_of([1.0, 2.0, 3.0], 2) == pytest.approx(0.40760596444438, abs=1e-12)


def test_loss_label_out_of_range():
    # cross_entropy trusts its labels; backward checks them first
    model = identity_model(3)
    for k in (3, -1):
        with pytest.raises(ValueError, match="out of range"):
            backward(model, np.zeros((1, 1, 1, 3)), [k])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.data())
def test_loss_nonnegative_and_softmax_sums_to_one(logits, data):
    z = np.array(logits)
    k = data.draw(st.integers(0, len(logits) - 1))
    assert loss_of(z, k) >= 0.0
    assert float(softmax(z).sum()) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- backward

def test_backward_dead_relu_gives_zero_grad():
    model = ScorerModel(
        layers=[Layer(0.01 * np.eye(3), np.full(3, -10.0), "relu")],
        class_embeddings=np.eye(3),
        temperature=1.0, input_shape=(1, 1, 3))
    out = backward(model, np.array([[[[0.2, 0.5, 0.8]]]]), [1])
    assert np.array_equal(out.grads, np.zeros((1, 1, 1, 3)))


def central_diff(model, image, k, h=1e-5):
    flat = image.reshape(-1).copy()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            probe = flat.copy()
            probe[i] += sign * h
            grad[i] += sign * loss_of(forward(model, probe.reshape((1,) + image.shape))[0], k)
    return (grad / (2 * h)).reshape(image.shape)


def test_backward_single_linear_matches_finite_differences():
    model = linear_model(11, 12, 6, 4)
    image = SeededRng(12).uniform([1, 1, 12])
    grad = backward(model, image[None], [2]).grads[0]
    fd = central_diff(model, image, 2)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-8)
    assert float(np.max(np.abs(grad - fd) / denom)) < 1e-6


def test_backward_identity_encoder_one_hot_matches_finite_differences():
    model = identity_model(4)
    x = np.zeros((1, 1, 4))
    x[0, 0, 1] = 1.0
    grad = backward(model, x[None], [1]).grads[0]
    fd = central_diff(model, x, 1)
    assert np.max(np.abs(grad - fd)) < 1e-9


def test_backward_loss_and_logits_consistent_with_forward():
    model = new_scorer(3, (4, 4, 3), (8,), 6, 5)
    img = SeededRng(6).uniform([4, 4, 3])
    out = backward(model, img[None], [4])
    logits = forward(model, img[None])[0]
    assert np.allclose(out.logits[0], logits, atol=1e-12)
    assert out.losses[0] == pytest.approx(loss_of(logits, 4), abs=1e-12)


# -------------------------------------------------------------- gradient_check

def test_gradient_check_trained_model_under_1e5():
    data = gen_synthetic(12, classes=4, per_class=3, side=16)
    model = new_scorer(13, (16, 16, 3), (32,), 16, 4)
    model = train(model, data, TrainConfig(lr=0.05, epochs=8, batch=8, seed=2))
    res = gradient_check(model, SeededRng(14).uniform([16, 16, 3]), 2)
    assert res["max_rel_err"] < 1e-5


def test_gradient_check_flags_relu_kink():
    model = ScorerModel(
        layers=[Layer(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                      np.array([0.0, 0.5]), "relu")],
        class_embeddings=np.eye(2),
        temperature=1.0, input_shape=(1, 1, 3))
    res = gradient_check(model, np.array([[[0.0, 0.3, 0.9]]]), 0)
    assert 0 in res["kink_pixels"]


def test_gradient_check_error_grows_with_coarse_step():
    model = new_scorer(21, (8, 8, 3), (24,), 12, 4, 10.0)
    img = SeededRng(22).uniform([8, 8, 3])
    fine = gradient_check(model, img, 1, h=1e-5)
    coarse = gradient_check(model, img, 1, h=1e-1)
    assert coarse["max_rel_err"] > fine["max_rel_err"]


@example(491)
@example(3603)
@example(6452)
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_gradient_check_property_over_seeded_models(seed):
    h = 1e-5
    model = new_scorer(seed, (8, 8, 3), (24,), 12, 4, 10.0)
    img = SeededRng(seed * 97 + 3).uniform([8, 8, 3])
    res = gradient_check(model, img, seed % 4, h=h)
    analytic, numeric = res["analytic"], res["numeric"]
    err = np.abs(analytic - numeric)
    # A central difference cannot resolve a gradient below its own
    # roundoff: each probe loss is off by up to about 2 eps max(1, |L|)
    # (the log and the subtraction), so their difference over 2h is off
    # by up to 2 eps max(1, |L|) / h.  Only pixels whose gradient is
    # below that floor / 1e-5 can pass on the floor.
    floor = 2.0 * np.finfo(np.float64).eps * max(1.0, abs(res["loss"])) / h
    ok = (err < 1e-5 * np.maximum(np.abs(analytic), np.abs(numeric))) | (err <= floor)
    ok[res["kink_pixels"]] = True
    worst = int(np.argmax(np.where(ok, -1.0, err)))
    assert ok.all(), (f"pixel {worst}: analytic {analytic[worst]:.3e}, numeric "
                      f"{numeric[worst]:.3e}, floor {floor:.1e}")


# ----------------------------------------------------------------------- train

def make_separable(seed=8):
    return gen_synthetic(seed, classes=2, per_class=10, side=8)


def test_train_descends_on_separable_data():
    data = make_separable()
    model = new_scorer(9, (8, 8, 3), (16,), 8, 2)
    before = mean_loss(model, data)
    trained = train(model, data, TrainConfig(lr=0.05, epochs=50, batch=4, seed=1))
    assert mean_loss(trained, data) < before


def test_mean_loss_is_the_mean_cross_entropy_of_forward():
    data = make_separable()
    model = new_scorer(9, (8, 8, 3), (16,), 8, 2)
    images = np.stack([it.image for it in data.items])
    labels = np.array([it.label for it in data.items])
    assert mean_loss(model, data) == float(cross_entropy(forward(model, images), labels).mean())
    with pytest.raises(ValueError, match=r"input shape \(20, 8, 8, 3\) != \(batch, \*\(4, 4, 3\)\)"):
        mean_loss(new_scorer(9, (4, 4, 3), (16,), 8, 2), data)
    mixed = Dataset([*data.items, DatasetItem(np.zeros((4, 4, 3)), 0, "small")],
                    data.class_names)
    with pytest.raises(ValueError, match=r"image 'small' is shaped \(4, 4, 3\), not \(8, 8, 3\)"):
        mean_loss(model, mixed)


def test_mean_loss_holds_one_stack_of_a_loaded_dataset(tmp_path):
    # Each loaded image is read and converted when the stack reaches it, into
    # the one preallocated array: a list of float copies beside the stack
    # would double the peak.
    source = gen_synthetic(6, classes=2, per_class=40, side=32)
    for it in source.items:
        write_image(tmp_path / f"{it.id}.ppm", it.image)
    (tmp_path / "labels.csv").write_text("filename,class_name\n" + "".join(
        f"{it.id}.ppm,{source.class_names[it.label]}\n" for it in source.items))
    data = load_dataset(tmp_path)
    model = new_scorer(9, (32, 32, 3), (16,), 8, 2)
    stack_bytes = len(data.items) * 32 * 32 * 3 * 8
    tracemalloc.start()
    try:
        loss = mean_loss(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * stack_bytes, (peak, stack_bytes)
    images = np.stack([it.image for it in data.items])
    labels = np.array([it.label for it in data.items])
    assert loss == float(cross_entropy(forward(model, images), labels).mean())


def test_train_lr_zero_is_identity():
    data = make_separable()
    model = new_scorer(9, (8, 8, 3), (16,), 8, 2)
    trained = train(model, data, TrainConfig(lr=0.0, epochs=3, batch=4, seed=1))
    for before, after in zip(model.layers, trained.layers):
        assert np.array_equal(before.weights, after.weights)
        assert np.array_equal(before.bias, after.bias)


def test_train_deterministic():
    data = make_separable()
    cfg = TrainConfig(lr=0.05, epochs=5, batch=4, seed=3)
    a = train(new_scorer(9, (8, 8, 3), (16,), 8, 2), data, cfg)
    b = train(new_scorer(9, (8, 8, 3), (16,), 8, 2), data, cfg)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)


def test_train_freezes_class_embeddings():
    data = make_separable()
    model = new_scorer(9, (8, 8, 3), (16,), 8, 2)
    trained = train(model, data, TrainConfig(lr=0.1, epochs=5, batch=4, seed=1))
    assert np.array_equal(model.class_embeddings, trained.class_embeddings)


@pytest.mark.parametrize("setting, message", [
    ({"batch": 0}, "batch must be >= 1, got 0"),
    ({"epochs": -1}, "epochs must be >= 0, got -1"),
    ({"lr": -0.5}, "lr must be finite and >= 0, got -0.5"),
    ({"lr": float("nan")}, "lr must be finite and >= 0, got nan"),
])
def test_train_config_refuses_settings_before_any_epoch(setting, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        TrainConfig(**setting)


@pytest.mark.parametrize("hidden, embed_dim, message", [
    ((16, 0), 8, "hidden must be >= 1, got 0"),
    ((16,), 0, "embed_dim must be >= 1, got 0"),
])
def test_new_scorer_refuses_widths_below_one(hidden, embed_dim, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        new_scorer(9, (8, 8, 3), hidden, embed_dim, 2)


def test_train_empty_dataset_rejected():
    data = make_separable()
    empty = type(data)(items=[], class_names=data.class_names)
    with pytest.raises(ValueError):
        train(new_scorer(9, (8, 8, 3), (16,), 8, 2), empty, TrainConfig())


# ----------------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip(tmp_path):
    model = new_scorer(17, (8, 8, 3), (16, 12), 8, 5, 42.0,
                       class_names=[f"c{i}" for i in range(5)])
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.temperature == model.temperature
    assert loaded.input_shape == model.input_shape
    assert loaded.class_names == model.class_names
    assert np.array_equal(loaded.class_embeddings, model.class_embeddings)
    for la, lb in zip(loaded.layers, model.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.bias, lb.bias)
        assert la.activation == lb.activation
    img = SeededRng(18).uniform([1, 8, 8, 3])
    assert np.array_equal(forward(loaded, img), forward(model, img))


@pytest.mark.parametrize("field,message", [
    ("weights", "layer 1: weights contains non-finite"),
    ("bias", "layer 1: bias contains non-finite"),
    ("class_embeddings", "class embeddings contains non-finite"),
    ("temperature", "temperature must be positive and finite"),
    ("version", "unsupported version 2"),
    ("activation", "layer 1: unknown activation 'tanh'"),
], ids=["weights", "bias", "class_embeddings", "temperature", "version", "activation"])
def test_checkpoint_rejects_non_finite_values(tmp_path, field, message):
    # JSON writes and reads NaN, so a checkpoint corrupted on disk parses.
    # A checkpoint that parses but that this version cannot use is refused too.
    path = tmp_path / "model.json"
    save_model(new_scorer(17, (8, 8, 3), (16, 12), 8, 5), path)
    doc = json.loads(path.read_text())
    if field == "temperature":
        doc["temperature"] = float("nan")
    elif field == "class_embeddings":
        doc["class_embeddings"]["data"][2 * 8 + 3] = float("nan")
    elif field == "version":
        doc["version"] = 2
    elif field == "activation":
        doc["layers"][1]["activation"] = "tanh"
    else:
        doc["layers"][1][field]["data"][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"checkpoint {path}")


def test_save_model_refuses_non_finite_layers(tmp_path):
    model = new_scorer(17, (8, 8, 3), (16, 12), 8, 5)
    model.layers[1].bias[0] = np.inf
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="non-finite bias in layer 1"):
        save_model(model, path)
    assert not path.exists()


@pytest.mark.parametrize("model,edit,message", [
    ((8, 8, 3), {"class_names": [1, 2, 3]}, "class names must be a JSON list of strings"),
    ((8, 8, 1), {}, "input_shape must be [H, W, 3] with integers H, W >= 1, got [8, 8, 1]"),
    ((8, 8, 3), {"class_names": ["a", "b"]}, "2 class names for 3 class embedding rows"),
], ids=["numbers-as-names", "one-channel", "too-few-names"])
def test_checkpoint_refuses_a_declaration_it_cannot_keep(tmp_path, model, edit, message):
    path = tmp_path / "model.json"
    save_model(new_scorer(17, model, (16,), 8, 3, class_names=["a", "b", "c"]), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}")) as exc:
        load_model(path)
    assert message in str(exc.value)


def test_class_names_must_match_class_embedding_rows():
    with pytest.raises(ValueError, match="2 class names for 3 class embedding rows"):
        new_scorer(17, (8, 8, 3), (16,), 8, 3, class_names=["a", "b"])


def test_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"hello": 1}')
    with pytest.raises(ValueError, match="checkpoint"):
        load_model(path)
