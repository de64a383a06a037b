"""Gradient-provider wire protocol: handshake, payloads, failure paths."""

import gc
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings
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
    return provider_connect(mock_command(misbehave), **kwargs)


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
        provider_connect([])
    with pytest.raises(ValueError, match="timeout"):
        provider_connect(["x"], timeout=0.0)


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


def test_sweep_sends_one_message_per_image_per_quality(wire, monkeypatch):
    # however many CPUs are usable, a provider's sweep runs in this process,
    # whose wire log sees every message
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
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


def test_a_batch_of_no_images_is_refused_before_any_request(wire):
    with spawn() as client:
        for call in (client.logits, lambda x: client(x, [])):
            with pytest.raises(ValueError, match=r"^a batch of no images, shape \(0, 6, 6, 3\)$"):
                call(np.empty((0, SIDE, SIDE, 3)))
        assert wire.sent == []
        # the provider was never asked, so it still answers
        assert client(np.zeros((1, SIDE, SIDE, 3)), [0]).losses.shape == (1,)


# ---------------------------------------------------------------- handshake failures


def test_a_command_that_cannot_spawn_is_refused_and_its_stderr_file_closed():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ProviderError) as exc:
            provider_connect(["/nonexistent/provider-cmd", "--x"])
        message = str(exc.value)
        del exc  # its traceback holds the client, and with it the stderr file
        gc.collect()
    assert message == ("cannot spawn provider ['/nonexistent/provider-cmd', '--x']: [Errno 2] "
                       "No such file or directory: '/nonexistent/provider-cmd'")
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_hello_timeout():
    # The stuck child is killed at the deadline, not given time to exit.
    start = time.monotonic()
    with pytest.raises(ProviderError, match="handshake timed out"):
        provider_connect(mock_command("no-hello"), timeout=0.3)
    assert time.monotonic() - start < 1.0


def test_hello_wrong_type():
    with pytest.raises(ProviderError, match="expected hello, got 'surprise'"):
        spawn("bad-hello")


def test_hello_not_json():
    with pytest.raises(ProviderError, match="unparseable handshake"):
        spawn("garbage")


# A provider that says the hello given as its first argument, then waits on stdin.
HELLO_PROVIDER = "import sys; print(sys.argv[1], flush=True); sys.stdin.read()"


@pytest.mark.parametrize("shape", [[0, 16, 3], [16, -1, 3], [16.5, 16, 3], [True, 16, 3]],
                         ids=["zero", "negative", "fraction", "bool"])
def test_hello_input_shape_holds_integers_of_at_least_one(shape):
    hello = json.dumps({"type": "hello", "classes": ["a", "b"], "input_shape": shape})
    with pytest.raises(ProviderError, match=re.escape(
            f"handshake: hello input_shape must be [H, W, 3] with integers H, W >= 1, "
            f"got {shape!r}")):
        provider_connect([sys.executable, "-c", HELLO_PROVIDER, hello])


@pytest.mark.parametrize("classes", ["cat", {"a": 1, "b": 2}, [1, 2]],
                         ids=["string", "object", "numbers"])
def test_hello_classes_are_a_list_of_strings(classes):
    hello = json.dumps({"type": "hello", "classes": classes, "input_shape": [SIDE, SIDE, 3]})
    with pytest.raises(ProviderError, match=re.escape(
            "handshake: hello class names must be a JSON list of strings")):
        provider_connect([sys.executable, "-c", HELLO_PROVIDER, hello])


def test_hello_lists_at_least_one_class():
    hello = json.dumps({"type": "hello", "classes": [], "input_shape": [SIDE, SIDE, 3]})
    with pytest.raises(ProviderError, match="^handshake: hello lists no classes$"):
        provider_connect([sys.executable, "-c", HELLO_PROVIDER, hello])


# A provider that says the hello given as its first argument, then answers
# every request line with its second argument.
FIXED_PROVIDER = ("import sys\nprint(sys.argv[1], flush=True)\n"
                  "for _ in sys.stdin: print(sys.argv[2], flush=True)")
TWO_CLASS_HELLO = json.dumps({"type": "hello", "classes": ["a", "b"],
                              "input_shape": [SIDE, SIDE, 3]})
WRONG_SHAPE_REPLY = json.dumps({"type": "grad_result", "id": 0, "losses": [0.0, 0.0],
                                "logits": [[0.0, 0.0]],
                                "grads": encode_f32(np.zeros(N_INPUTS))})


# reply line -> (the refusal, whether it kills the provider)
FIXED_REPLIES = {
    "not an object": ("[1, 2]", "grad request 0 is not a JSON object: [1, 2]", True),
    "wrong type": ('{"type": "hello"}', "expected grad_result for request 0, got 'hello'", True),
    "wrong shape": (WRONG_SHAPE_REPLY, "reply to request 0: losses shape (2,) and logits shape "
                                       "(1, 2), expected (1,) and (1, 2)", False),
}


@pytest.mark.parametrize("case", sorted(FIXED_REPLIES))
def test_a_reply_it_cannot_use_is_refused(case):
    reply, message, kills = FIXED_REPLIES[case]
    with provider_connect([sys.executable, "-c", FIXED_PROVIDER, TWO_CLASS_HELLO,
                           reply]) as client:
        with pytest.raises(ProviderError, match=f"^{re.escape(message)}$"):
            client(np.zeros((1, SIDE, SIDE, 3)), [0])
        # a refused shape leaves the provider running, as a refused value does
        assert (client._proc.poll() is not None) == kills


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


# A provider that says the hello given as its first argument, reads one
# request, closes its stdout and runs on.
STDOUT_CLOSING_PROVIDER = ("import os, sys\nprint(sys.argv[1], flush=True)\n"
                           "sys.stdin.readline(); os.close(1); sys.stdin.read()")


def test_a_provider_that_closes_its_stdout_and_runs_on_is_not_called_exited(monkeypatch):
    monkeypatch.setattr(provider, "EXIT_WAIT", 0.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        client = provider_connect([sys.executable, "-c", STDOUT_CLOSING_PROVIDER,
                                   TWO_CLASS_HELLO])
        with pytest.raises(ProviderError) as exc:
            client(np.zeros((1, SIDE, SIDE, 3)), [0])
        message = str(exc.value)
        del exc, client  # the traceback holds the client, and with it its pipes
        gc.collect()
    assert message == "provider closed its stdout during grad request 0"
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_call_to_a_closed_provider_says_it_is_closed():
    # closed by a failure, then by close(): nothing is written to either
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        failed = spawn("exit")
        with pytest.raises(ProviderError, match="provider exited"):
            failed(np.zeros((1, SIDE, SIDE, 3)), [0])
        closed = spawn()
        closed.close()
        messages = []
        for client in (failed, closed):
            with pytest.raises(ProviderError) as exc:
                client(np.zeros((1, SIDE, SIDE, 3)), [0])
            messages.append(str(exc.value))
        del exc, client, failed, closed
        gc.collect()
    assert messages == ["grad request 1: the provider is closed",
                        "grad request 0: the provider is closed"]
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


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
        client.timeout = 0.1
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
    "text-loss": (1, 10.0, "malformed grad_result for request 0: losses must hold JSON numbers, "
                           "got str"),
    "bool-logits": (1, 10.0, "malformed grad_result for request 0: logits must hold JSON "
                             "numbers, got bool"),
    "huge-loss": (1, 10.0, "malformed grad_result for request 0: losses holds an integer too "
                           "large for a float64"),
}
HELLO_TIMEOUT = 10.0


@pytest.mark.parametrize("mode", [m for m in MISBEHAVE_MODES if m != "none"])
def test_every_misbehaviour_fails_within_its_deadline(mode):
    assert mode in MISBEHAVIOUR, f"no expected failure for --misbehave {mode}"
    rows, timeout, message = MISBEHAVIOUR[mode]
    command = mock_command(mode, side=32)
    client = None
    if rows:
        client = provider_connect(command, timeout=HELLO_TIMEOUT)
        client.timeout = timeout
    outcome = []

    def fail():
        start = time.monotonic()
        try:
            if client is None:
                provider_connect(command, timeout=timeout)
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
    if "malformed" in message:  # refused through _fail, which stops the provider
        assert client._proc.poll() is not None


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
    with provider_connect([sys.executable, "-c", SINGLE_IMAGE_PROVIDER]) as client:
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
