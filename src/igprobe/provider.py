"""Client for external gradient providers speaking line-delimited JSON.

The child process prints one hello object, then answers each grad request
with a grad_result (or error) object on its own line.  One request carries
a whole batch: B images and B labels in, B losses, B logit rows and B
gradients out.  Image and gradient payloads are base64-encoded
little-endian float32, row-major BxHxWxC.
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
EXIT_WAIT = 2.0  # seconds a closed provider gets to exit before it is killed


class ProviderError(RuntimeError):
    pass


@dataclass
class ProviderSpec:
    command: list[str]
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

    A call sends the whole batch as one ``grad`` request and checks the
    whole reply.  The reply's deadline is ``spec.timeout`` per row.
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
        self._pumps = [threading.Thread(target=self._pump_stdout, daemon=True),
                       threading.Thread(target=self._pump_stderr, daemon=True)]
        for pump in self._pumps:
            pump.start()

        hello = self._read_object("handshake", spec.timeout)
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
        # A provider past its deadline may never read stdin again: kill it
        # now rather than wait for it to exit.
        self._shutdown(kill=True)
        return ProviderError(message)

    def _read_object(self, what: str, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise self._fail(f"{what} timed out after {timeout:g}s")
        if line is None:
            # stdout EOF can beat process teardown; wait for the real code
            try:
                code = self._proc.wait(timeout=EXIT_WAIT)
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
        request_id = self._next_id
        self._next_id += 1
        payload = json.dumps({"type": "grad", "id": request_id, "images": encode_f32(images),
                              "labels": labels.tolist()})
        try:
            self._proc.stdin.write(payload + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise self._fail(f"provider write failed: {exc}") from exc
        reply = self._read_object(f"grad request {request_id}", self.spec.timeout * len(images))
        if reply.get("type") == "error":
            raise ProviderError(f"provider error for request {request_id}: "
                                f"{reply.get('message', '<no message>')}")
        if reply.get("type") != "grad_result":
            raise self._fail(f"expected grad_result, got {reply.get('type')!r}")
        if reply.get("id") != request_id:
            raise self._fail(f"response id {reply.get('id')} != request id {request_id}")
        try:
            losses = np.asarray(reply["losses"], dtype=np.float64)
            logits = np.asarray(reply["logits"], dtype=np.float64)
            grads = decode_f32(reply["grads"], images.size, f"grads of request {request_id}")
        except (KeyError, TypeError, ValueError) as exc:
            raise self._fail(f"malformed grad_result for request {request_id}: {exc}")
        want = (len(images), self.num_classes)
        if losses.shape != want[:1] or logits.shape != want:
            raise ProviderError(f"reply to request {request_id}: losses shape {losses.shape} "
                                f"and logits shape {logits.shape}, expected {want[:1]} and {want}")
        # JSON carries NaN and Infinity, and no comparison below rejects them.
        bad = [name for name, v in (("loss", losses), ("logits", logits), ("grad", grads))
               if not np.all(np.isfinite(v))]
        if bad:
            raise ProviderError(f"non-finite {', '.join(bad)} in reply to request {request_id}")
        expected = cross_entropy(logits, labels)
        off = np.flatnonzero(np.abs(losses - expected) > LOSS_TOLERANCE)
        if off.size:
            b = off[0]
            raise ProviderError(
                f"loss/logits consistency violation in reply to request {request_id}, row {b}: "
                f"provider loss {float(losses[b])!r} vs -log softmax(logits)[{labels[b]}] = "
                f"{float(expected[b])!r} (tolerance {LOSS_TOLERANCE:g})")
        return LossGrads(losses=losses, grads=grads.reshape(images.shape), logits=logits)

    def close(self) -> None:
        """Close stdin, give the provider ``EXIT_WAIT`` s to exit, then kill it."""
        self._shutdown(kill=False)

    def _shutdown(self, kill: bool) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None or proc.stdin.closed:  # never started, or shut down already
            return
        try:
            proc.stdin.close()
        except OSError:  # unflushed request bytes to a dead child
            pass
        try:
            proc.wait(timeout=0 if kill else EXIT_WAIT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pump, pipe in zip(self._pumps, (proc.stdout, proc.stderr)):
            pump.join(timeout=EXIT_WAIT)
            if not pump.is_alive():  # a grandchild may still hold the pipe open
                pipe.close()

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
