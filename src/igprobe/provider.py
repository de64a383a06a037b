"""Client for external gradient providers speaking line-delimited JSON.

The child process prints one hello object, then answers each grad request
with a grad_result (or error) object on its own line.  Image and gradient
payloads are base64-encoded little-endian float32, row-major HxWxC.
"""

from __future__ import annotations

import base64
import json
import queue
import subprocess
import threading
from dataclasses import dataclass

import numpy as np

from .model import LossGrads, check_batch, cross_entropy

DEFAULT_TIMEOUT = 30.0
LOSS_TOLERANCE = 1e-4


class ProviderError(RuntimeError):
    pass


@dataclass
class ProviderSpec:
    command: list[str]
    input_shape: tuple[int, int, int] | None = None  # validated against hello
    class_names: list[str] | None = None
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not self.command:
            raise ValueError("provider command must be nonempty")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")


def encode_f32(arr: np.ndarray) -> str:
    return base64.b64encode(np.asarray(arr, dtype="<f4").tobytes()).decode("ascii")


def decode_f32(text: str, count: int, what: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ProviderError(f"undecodable base64 in {what}: {exc}") from exc
    values = np.frombuffer(raw, dtype="<f4")
    if values.size != count:
        raise ProviderError(f"{what} length mismatch: expected {count} floats, got {values.size}")
    return values.astype(np.float64)


class ProviderClient:
    """Spawned provider wrapped as a ``Scorer``: a batched GradFn with
    ``input_shape``, ``num_classes`` and ``logits``.

    A call sends one ``grad`` request per batch row, in order, and checks
    every reply.
    """

    def __init__(self, spec: ProviderSpec):
        self.spec = spec
        self._next_id = 0
        self._stderr_chunks: list[str] = []
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        try:
            self._proc = subprocess.Popen(
                spec.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, bufsize=1)
        except OSError as exc:
            raise ProviderError(f"cannot spawn provider {spec.command}: {exc}") from exc
        threading.Thread(target=self._pump_stdout, daemon=True).start()
        threading.Thread(target=self._pump_stderr, daemon=True).start()

        hello = self._read_object("handshake")
        if hello.get("type") != "hello":
            raise self._fail(f"expected hello, got {hello.get('type')!r}")
        try:
            self.class_names = [str(c) for c in hello["classes"]]
            shape = tuple(int(v) for v in hello["input_shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise self._fail(f"malformed hello: {exc}")
        if len(shape) != 3 or shape[2] != 3:
            raise self._fail(f"hello input_shape must be [H, W, 3], got {list(shape)}")
        if not self.class_names:
            raise self._fail("hello lists no classes")
        if spec.input_shape is not None and tuple(spec.input_shape) != shape:
            raise self._fail(f"input shape {list(shape)} != expected {list(spec.input_shape)}")
        if spec.class_names is not None and spec.class_names != self.class_names:
            raise self._fail(f"classes {self.class_names} != expected {spec.class_names}")
        self.input_shape = shape
        self.num_classes = len(self.class_names)

    def _pump_stdout(self):
        for line in self._proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _pump_stderr(self):
        for line in self._proc.stderr:
            self._stderr_chunks.append(line)

    def stderr_text(self) -> str:
        return "".join(self._stderr_chunks)

    def _fail(self, message: str) -> ProviderError:
        captured = self.stderr_text().strip()
        if captured:
            message = f"{message}\nprovider stderr:\n{captured}"
        self.close()
        return ProviderError(message)

    def _read_object(self, what: str) -> dict:
        try:
            line = self._lines.get(timeout=self.spec.timeout)
        except queue.Empty:
            raise self._fail(f"{what} timed out after {self.spec.timeout:g}s")
        if line is None:
            # stdout EOF can beat process teardown; wait for the real code
            try:
                code = self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                code = self._proc.poll()
            raise self._fail(f"provider exited (code {code}) during {what}")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise self._fail(f"unparseable {what} line {line!r}: {exc}")
        if not isinstance(obj, dict):
            raise self._fail(f"{what} is not a JSON object: {obj!r}")
        return obj

    def logits(self, images: np.ndarray) -> np.ndarray:
        # The wire has no forward-only request; logits do not depend on the label.
        return self(images, np.zeros(len(images), dtype=np.intp)).logits

    def __call__(self, images: np.ndarray, labels) -> LossGrads:
        images, labels = check_batch(images, labels, self.input_shape, self.num_classes)
        losses = np.empty(len(images))
        grads = np.empty(images.shape)
        logits = np.empty((len(images), self.num_classes))
        for b in range(len(images)):
            losses[b], logits[b], grads[b] = self._request(images[b], int(labels[b]))
        return LossGrads(losses=losses, grads=grads, logits=logits)

    def _request(self, image: np.ndarray, label: int):
        """One grad round trip: (loss, logits, grad), all checked."""
        request_id = self._next_id
        self._next_id += 1
        payload = json.dumps({"type": "grad", "id": request_id,
                              "image": encode_f32(image), "label": label})
        try:
            self._proc.stdin.write(payload + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise self._fail(f"provider write failed: {exc}") from exc
        reply = self._read_object(f"grad request {request_id}")
        if reply.get("type") == "error":
            raise ProviderError(f"provider error for request {request_id}: "
                                f"{reply.get('message', '<no message>')}")
        if reply.get("type") != "grad_result":
            raise self._fail(f"expected grad_result, got {reply.get('type')!r}")
        if reply.get("id") != request_id:
            raise self._fail(f"response id {reply.get('id')} != request id {request_id}")
        try:
            loss = float(reply["loss"])
            logits = np.asarray([float(v) for v in reply["logits"]], dtype=np.float64)
            grad_text = reply["grad"]
        except (KeyError, TypeError, ValueError) as exc:
            raise self._fail(f"malformed grad_result: {exc}")
        if logits.size != self.num_classes:
            raise ProviderError(f"logits length mismatch: expected {self.num_classes}, "
                                f"got {logits.size}")
        grad = decode_f32(grad_text, image.size, "grad")
        # JSON carries NaN and Infinity, and no comparison below rejects them.
        bad = [name for name, v in (("loss", loss), ("logits", logits), ("grad", grad))
               if not np.all(np.isfinite(v))]
        if bad:
            raise ProviderError(f"non-finite {', '.join(bad)} in reply to request {request_id}")
        expected = cross_entropy(logits[None], [label])[0]
        if abs(loss - expected) > LOSS_TOLERANCE:
            raise ProviderError(
                f"loss/logits consistency violation: provider loss {loss!r} vs "
                f"-log softmax(logits)[{label}] = {expected!r} (tolerance {LOSS_TOLERANCE:g})")
        return loss, logits, grad.reshape(image.shape)

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None or proc.poll() is not None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self) -> "ProviderClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def provider_connect(spec: ProviderSpec) -> ProviderClient:
    """Spawn the provider and return it wrapped as a ``Scorer``."""
    return ProviderClient(spec)
