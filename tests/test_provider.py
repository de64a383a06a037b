"""Gradient-provider wire protocol: handshake, payloads, failure paths."""

import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from igprobe import provider
from igprobe.attribution import PathSpec, integrated_gradients
from igprobe.codec import ORIGINAL
from igprobe.data import gen_synthetic
from igprobe.harness import sweep_precision
from igprobe.mock_provider import MISBEHAVE_MODES, SLOW_ROW_S
from igprobe.model import linear_model_weights, linear_softmax_gradfn
from igprobe.provider import (
    ProviderError,
    ProviderSpec,
    decode_f32,
    encode_f32,
    provider_connect,
)
from igprobe.tensor import SeededRng

README = Path(__file__).resolve().parents[1] / "README.md"

SIDE = 6
CLASSES = 3
N_INPUTS = SIDE * SIDE * 3


def mock_command(misbehave: str = "none", seed: int = 3, side: int = SIDE) -> list[str]:
    return [sys.executable, "-m", "igprobe.mock_provider",
            "--seed", str(seed), "--classes", str(CLASSES),
            "--side", str(side), "--misbehave", misbehave]


def spawn(misbehave: str = "none", **kwargs):
    return provider_connect(ProviderSpec(command=mock_command(misbehave), **kwargs))


class WireLog:
    """Stands in for ``json`` inside the provider module, the hook the
    benchmark's tracer uses, and keeps every object sent and received."""

    def __init__(self):
        self.sent: list[dict] = []
        self.received: list[dict] = []
        self.texts: list[str] = []  # what loads was given, one text per received object

    def __getattr__(self, name):
        return getattr(json, name)

    def dumps(self, obj, *args, **kwargs):
        self.sent.append(obj)
        return json.dumps(obj, *args, **kwargs)

    def loads(self, text, *args, **kwargs):
        self.texts.append(text)
        obj = json.loads(text, *args, **kwargs)
        self.received.append(obj)
        return obj


@pytest.fixture
def wire(monkeypatch):
    log = WireLog()
    monkeypatch.setattr(provider, "json", log)
    return log


# ---------------------------------------------------------------- payload codec


def test_f32_roundtrip_exact_on_representable_values():
    vals = np.array([0.0, 1.0, -2.5, 0.125, 1e-3], dtype=np.float32).astype(np.float64)
    assert np.array_equal(decode_f32(encode_f32(vals), 5, "x"), vals)


def test_decode_length_mismatch():
    text = encode_f32(np.zeros(4))
    with pytest.raises(ProviderError, match="expected 5 floats, got 4"):
        decode_f32(text, 5, "grad")


def test_decode_rejects_bad_base64():
    with pytest.raises(ProviderError, match="undecodable base64"):
        decode_f32("!!!not-base64!!!", 1, "image")


def test_spec_validation():
    with pytest.raises(ValueError, match="nonempty"):
        ProviderSpec(command=[])
    with pytest.raises(ValueError, match="timeout"):
        ProviderSpec(command=["x"], timeout=0.0)


# ---------------------------------------------------------------- happy path


def test_mock_provider_matches_in_process_gradfn():
    # Same weights both sides of the wire; the image crosses as float32,
    # so the reference must see the rounded copy too.
    rng = SeededRng(40)
    image = rng.uniform([SIDE, SIDE, 3])
    rounded = np.asarray(image, dtype="<f4").astype(np.float64)
    weights, bias = linear_model_weights(3, CLASSES, N_INPUTS)
    reference = linear_softmax_gradfn(weights, bias)

    with spawn() as client:
        assert client.class_names == [f"class_{i}" for i in range(CLASSES)]
        assert client.input_shape == (SIDE, SIDE, 3)
        labels = np.arange(CLASSES)
        batch = np.repeat(image[None], CLASSES, axis=0)
        got = client(batch, labels)
        want = reference(np.repeat(rounded[None], CLASSES, axis=0), labels)
        assert got.losses == pytest.approx(want.losses, abs=1e-6)
        assert got.logits.ravel() == pytest.approx(want.logits.ravel(), abs=1e-6)
        assert got.grads.shape == (CLASSES, SIDE, SIDE, 3)
        # gradient comes back as float32
        assert np.max(np.abs(got.grads - want.grads)) < 1e-6


def test_hello_shape_advertised_when_spec_omits_it():
    with spawn() as client:
        assert client.input_shape == (SIDE, SIDE, 3)


def test_sequential_requests_share_one_child():
    rng = SeededRng(41)
    with spawn() as client:
        first = client(rng.uniform([1, SIDE, SIDE, 3]), [0])
        second = client(rng.uniform([1, SIDE, SIDE, 3]), [1])
    assert np.isfinite(first.losses[0]) and np.isfinite(second.losses[0])


def test_ig_path_is_one_grad_message(wire):
    rng = SeededRng(42)
    spec = PathSpec(rng.uniform([SIDE, SIDE, 3]), rng.uniform([SIDE, SIDE, 3]), steps=50)
    with spawn() as client:
        integrated_gradients(client, spec, 1)
    assert [m["type"] for m in wire.sent] == ["grad"]
    assert len(wire.sent[0]["labels"]) == 51
    assert [m["type"] for m in wire.received] == ["hello", "grad_result"]


def test_json_hook_sees_every_byte_on_the_wire(wire):
    # The benchmark's tracer counts received bytes as the lengths of the texts
    # given to loads; the mock prints each object as json.dumps and a newline.
    with spawn() as client:
        client(np.zeros((2, SIDE, SIDE, 3)), [0, 1])
    assert [m["type"] for m in wire.received] == ["hello", "grad_result"]
    assert [len(t) for t in wire.texts] == [len(json.dumps(m)) + 1 for m in wire.received]


def test_client_starts_no_thread(monkeypatch):
    during = []

    class CountingJson(WireLog):
        def loads(self, text, *args, **kwargs):
            during.append(threading.active_count())
            return super().loads(text, *args, **kwargs)

    monkeypatch.setattr(provider, "json", CountingJson())
    before = threading.active_count()
    client = spawn("error")
    with pytest.raises(ProviderError, match="request 0"):
        client(np.zeros((1, SIDE, SIDE, 3)), [0])
    after_failure = threading.active_count()
    client.close()
    assert during == [before, before]  # in the handshake and in the call
    assert after_failure == threading.active_count() == before


def test_sweep_sends_one_message_per_image_per_quality(wire):
    data = gen_synthetic(5, classes=CLASSES, per_class=2, side=8)  # resized to SIDE
    with spawn() as client:
        sweep_precision(client, data, [ORIGINAL, 50])
    assert len(wire.sent) == 2 * len(data.items)
    assert all(len(m["labels"]) == 1 for m in wire.sent)


def test_client_validates_input_shape_and_label():
    with spawn() as client:
        with pytest.raises(ValueError, match="input shape"):
            client(np.zeros((1, SIDE + 1, SIDE, 3)), [0])
        with pytest.raises(ValueError, match="label 9 out of range"):
            client(np.zeros((1, SIDE, SIDE, 3)), [9])


# ---------------------------------------------------------------- handshake failures


def test_hello_timeout():
    # The stuck child is killed at the deadline, not given time to exit.
    spec = ProviderSpec(command=mock_command("no-hello"), timeout=0.3)
    start = time.monotonic()
    with pytest.raises(ProviderError, match="handshake timed out"):
        provider_connect(spec)
    assert time.monotonic() - start < 1.0


def test_hello_wrong_type():
    with pytest.raises(ProviderError, match="expected hello, got 'surprise'"):
        spawn("bad-hello")


def test_hello_not_json():
    with pytest.raises(ProviderError, match="unparseable handshake"):
        spawn("garbage")


# ---------------------------------------------------------------- request failures


def test_wrong_grad_length_detected():
    with spawn("wrong-grad-len") as client:
        with pytest.raises(ProviderError,
                           match=f"expected {N_INPUTS} floats, got {N_INPUTS - 1}"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])


def test_loss_logits_consistency_enforced():
    # bad-loss offsets the loss of the last row only
    with spawn("bad-loss") as client:
        with pytest.raises(ProviderError, match="consistency violation in reply to request 0, row 0"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])
        with pytest.raises(ProviderError, match="request 1, row 2: provider loss"):
            client(np.zeros((3, SIDE, SIDE, 3)), [0, 1, 2])


def test_non_finite_reply_rejected():
    # NaN passes the loss/logits comparison (nan > tol is False), so the
    # client must reject it by value, naming the request.
    with spawn("nan-grad") as client:
        with pytest.raises(ProviderError,
                           match="non-finite loss, logits, grad in reply to request 0"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])


def test_provider_error_object_forwarded():
    with spawn("error") as client:
        with pytest.raises(ProviderError,
                           match="request 0: synthetic provider failure"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])


def test_provider_exit_reported_with_stderr():
    client = spawn("exit")
    with pytest.raises(ProviderError, match=r"provider exited \(code 3\)") as exc:
        client(np.zeros((1, SIDE, SIDE, 3)), [0])
    assert "synthetic crash" in str(exc.value)


def test_reply_deadline_is_timeout_per_row():
    # 3 rows reply after 3 * 0.7 s = 2.1 s: past one 1 s timeout, inside three.
    assert SLOW_ROW_S == 0.7
    with spawn("slow", timeout=1.0) as client:
        start = time.monotonic()
        out = client(np.zeros((3, SIDE, SIDE, 3)), [0, 1, 2])
        elapsed = time.monotonic() - start
    assert out.losses.shape == (3,)
    assert elapsed > 1.0


def test_reply_past_deadline_names_request():
    with spawn("slow", timeout=1.0) as client:
        # The handshake needs its start-up time; the reply's deadline is
        # read per call, so shrink it to 0.1 s against the 0.7 s reply.
        client.spec.timeout = 0.1
        with pytest.raises(ProviderError, match=r"grad request 0 timed out after 0\.1s"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])


# Every --misbehave mode but "none": (rows sent, timeout in seconds, message).
# Rows 0 means the mode fails the handshake, and the timeout is the
# handshake's; otherwise the timeout is per row of the request.
MISBEHAVIOUR = {
    "no-hello": (0, 0.5, r"handshake timed out after 0\.5s"),
    "bad-hello": (0, 10.0, "handshake: expected hello, got 'surprise'"),
    "garbage": (0, 10.0, "unparseable handshake line"),
    "wrong-grad-len": (1, 10.0, "grads of request 0 length mismatch"),
    "bad-loss": (1, 10.0, "reply to request 0, row 0"),
    "nan-grad": (1, 10.0, "non-finite loss, logits, grad in reply to request 0"),
    "error": (1, 10.0, "provider error for request 0"),
    "exit": (1, 10.0, r"provider exited \(code 3\) during grad request 0"),
    "slow": (1, 0.05, r"grad request 0 timed out after 0\.05s"),
    # 51 rows of 32x32 (835 KB of JSON) fill the pipe to a child that never reads.
    "deaf": (51, 0.05, r"grad request 0 timed out after 2\.55s"),
    "partial-line": (1, 0.05, r"grad request 0 timed out after 0\.05s"),
    "wrong-id": (1, 10.0, "reply to request 0 has id 1"),
}
HELLO_TIMEOUT = 10.0


@pytest.mark.parametrize("mode", [m for m in MISBEHAVE_MODES if m != "none"])
def test_every_misbehaviour_fails_within_its_deadline(mode):
    assert mode in MISBEHAVIOUR, f"no expected failure for --misbehave {mode}"
    rows, timeout, message = MISBEHAVIOUR[mode]
    command = mock_command(mode, side=32)
    client = None
    if rows:
        client = provider_connect(ProviderSpec(command, timeout=HELLO_TIMEOUT))
        client.spec.timeout = timeout
    outcome = []

    def fail():
        start = time.monotonic()
        try:
            if client is None:
                provider_connect(ProviderSpec(command, timeout=timeout))
            else:
                client(np.zeros((rows, 32, 32, 3)), [0] * rows)
        except ProviderError as exc:
            outcome.append((exc, time.monotonic() - start))

    # A daemon thread joined with a bound, so a client that blocks cannot hang the suite.
    limit = timeout * max(rows, 1) + 1.0
    caller = threading.Thread(target=fail, daemon=True)
    caller.start()
    try:
        caller.join(limit)
        assert not caller.is_alive(), f"{mode}: no ProviderError within {limit:g}s"
    finally:
        if caller.is_alive():
            client._proc.kill()  # lets the blocked call end
        elif client is not None:
            client.close()
    [(exc, elapsed)] = outcome
    assert re.search(message, str(exc)), str(exc)
    assert elapsed < limit


# A provider that still speaks the single-image form of the protocol.
SINGLE_IMAGE_PROVIDER = f"""
import json, sys
print(json.dumps({{"type": "hello", "classes": ["a", "b", "c"], "input_shape": [{SIDE}, {SIDE}, 3]}}),
      flush=True)
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({{"type": "grad_result", "id": req["id"], "loss": 1.0,
                      "logits": [0.0, 0.0, 0.0], "grad": req.get("image", "")}}), flush=True)
"""


def test_single_image_provider_fails_on_first_request():
    with provider_connect(ProviderSpec([sys.executable, "-c", SINGLE_IMAGE_PROVIDER])) as client:
        with pytest.raises(ProviderError, match="malformed grad_result for request 0: 'losses'"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])


def test_readme_protocol_examples_match_the_wire(wire):
    section = README.read_text().split("## Gradient provider protocol", 1)[1].split("\n## ", 1)[0]
    examples = [json.loads(line) for block in re.findall(r"```json\n(.*?)```", section, re.S)
                for line in block.splitlines() if line.strip()]
    with spawn() as client:
        client(np.zeros((2, SIDE, SIDE, 3)), [0, 1])
    with spawn("error") as client, pytest.raises(ProviderError):
        client(np.zeros((1, SIDE, SIDE, 3)), [0])
    on_wire = {m["type"]: sorted(m) for m in wire.sent + wire.received}
    assert {m["type"]: sorted(m) for m in examples} == on_wire
    assert len(examples) == len(on_wire)


def test_close_releases_pipes(monkeypatch):
    procs, stderr_files = [], []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        stderr_files.append(kwargs["stderr"])
        return procs[-1]

    monkeypatch.setattr(subprocess, "Popen", recording_popen)
    with spawn():
        pass
    with pytest.raises(ProviderError, match="expected hello"):
        spawn("bad-hello")
    client = spawn("exit")
    with pytest.raises(ProviderError, match="provider exited"):
        client(np.zeros((1, SIDE, SIDE, 3)), [0])
    client.close()  # the child has exited already
    assert len(procs) == 3
    for proc, stderr_file in zip(procs, stderr_files):
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed and stderr_file.closed


def test_close_is_idempotent():
    client = spawn()
    client.close()
    client.close()
