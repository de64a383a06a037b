"""Client for external gradient providers speaking line-delimited JSON.

The child process prints one hello object, then answers each grad request
with a grad_result (or error) object on its own line.  One request carries
a whole batch: B images and B labels in, B losses, B logit rows and B
gradients out.  Image and gradient payloads are base64-encoded
little-endian float32, row-major BxHxWxC.

The client starts no thread: one ``selectors`` loop writes each request
to the child's non-blocking stdin and reads its stdout under one deadline,
so it needs POSIX pipes (Linux, macOS).  The child's stderr goes to a
temporary file, which never fills, so the child cannot block on it.
"""

from __future__ import annotations

import base64
import json
import os
import selectors
import subprocess
import tempfile
import time

import numpy as np

from .model import LossGrads, check_declaration, check_images, check_labels, cross_entropy

DEFAULT_TIMEOUT = 30.0
LOSS_TOLERANCE = 1e-4
EXIT_WAIT = 2.0  # seconds a closed provider gets to exit before it is killed
READ_SIZE = 1 << 16  # bytes per read from the child's stdout, one Linux pipe buffer


class ProviderError(RuntimeError):
    pass


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


def _numbers(reply: dict, key: str) -> np.ndarray:
    """Reply field ``key`` as float64: JSON numbers, in lists to any depth.
    Text, booleans and integers too large for a float64 are refused."""
    values = np.asarray(reply[key], dtype=object)
    kinds = {type(v).__name__ for v in values.flat} - {"int", "float"}
    if kinds:
        raise TypeError(f"{key} must hold JSON numbers, got {', '.join(sorted(kinds))}")
    try:
        return values.astype(np.float64)
    except OverflowError:
        raise ValueError(f"{key} holds an integer too large for a float64") from None


class ProviderClient:
    """Spawned provider wrapped as a ``Scorer``: a batched GradFn with
    ``input_shape``, ``num_classes`` and ``logits``.

    A call sends the whole batch as one ``grad`` request and checks the
    whole reply.  Writing the request and reading the reply share one
    deadline, ``timeout`` seconds per row; the handshake gets ``timeout``.
    A provider that misses a deadline or breaks the protocol is killed,
    and the ``ProviderError`` carries everything it wrote to stderr.
    """

    def __init__(self, command: list[str], timeout: float = DEFAULT_TIMEOUT):
        if not command:
            raise ValueError("provider command must be nonempty")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.timeout = timeout
        self._next_id = 0
        self._unread = bytearray()  # stdout bytes past the last line read
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=self._stderr, bufsize=0)
        except OSError as exc:
            self._stderr.close()
            raise ProviderError(f"cannot spawn provider {command}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)

        hello = self._exchange(b"", "handshake", timeout)
        if hello.get("type") != "hello":
            raise self._fail(f"handshake: expected hello, got {hello.get('type')!r}")
        try:  # the rule a checkpoint follows too
            check_declaration(hello.get("input_shape"), hello.get("classes"), "hello")
        except ValueError as exc:
            raise self._fail(f"handshake: {exc}")
        if not hello["classes"]:
            raise self._fail("handshake: hello lists no classes")
        self.class_names = hello["classes"]
        self.input_shape = tuple(hello["input_shape"])
        self.num_classes = len(self.class_names)

    def _fail(self, message: str) -> ProviderError:
        # A provider past its deadline may never read stdin again: kill it
        # now rather than wait for it to exit.
        captured = self._shutdown(kill=True).strip()
        if captured:
            message = f"{message}\nprovider stderr:\n{captured}"
        return ProviderError(message)

    def _exchange(self, request: bytes, what: str, timeout: float) -> dict:
        """Write ``request`` (empty for the handshake) and read one reply
        line; both must finish within ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        try:
            stdin, stdout = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        except ValueError:  # the pipes were closed by close() or an earlier failure
            raise self._fail(f"{what}: the provider is closed") from None
        pending = memoryview(request)
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            if pending:
                selector.register(stdin, selectors.EVENT_WRITE)
            while pending or b"\n" not in self._unread:
                remaining = deadline - time.monotonic()
                events = selector.select(remaining) if remaining > 0 else []
                if not events:
                    raise self._fail(f"{what} timed out after {timeout:g}s")
                for key, _ in events:
                    if key.fd == stdin:
                        try:
                            pending = pending[os.write(stdin, pending):]
                        except BlockingIOError:
                            continue
                        except OSError as exc:
                            raise self._fail(f"provider write failed: {exc}") from exc
                        if not pending:
                            selector.unregister(stdin)
                    elif chunk := os.read(stdout, READ_SIZE):
                        self._unread += chunk
                    else:  # stdout EOF can beat process teardown; wait for the real code
                        try:
                            code = self._proc.wait(timeout=EXIT_WAIT)
                        except subprocess.TimeoutExpired:
                            raise self._fail(f"provider closed its stdout during {what}") from None
                        raise self._fail(f"provider exited (code {code}) during {what}")
        end = self._unread.index(b"\n") + 1
        line = bytes(self._unread[:end])
        del self._unread[:end]
        try:
            # The newline stays in the text: ``json`` is the hook that counts wire bytes.
            obj = json.loads(line.decode())
        except ValueError as exc:  # invalid UTF-8 or invalid JSON
            raise self._fail(f"unparseable {what} line {line.decode(errors='replace')!r}: {exc}")
        if not isinstance(obj, dict):
            raise self._fail(f"{what} is not a JSON object: {obj!r}")
        return obj

    def logits(self, images: np.ndarray) -> np.ndarray:
        # The wire has no forward-only request; logits do not depend on the label.
        return self(images, np.zeros(len(images), dtype=np.intp)).logits

    def __call__(self, images: np.ndarray, labels) -> LossGrads:
        images = check_images(images, self.input_shape)
        labels = check_labels(labels, len(images), self.num_classes)
        request_id = self._next_id
        self._next_id += 1
        payload = json.dumps({"type": "grad", "id": request_id, "images": encode_f32(images),
                              "labels": labels.tolist()})
        reply = self._exchange((payload + "\n").encode(), f"grad request {request_id}",
                               self.timeout * len(images))
        if reply.get("type") == "error":
            raise ProviderError(f"provider error for request {request_id}: "
                                f"{reply.get('message', '<no message>')}")
        if reply.get("type") != "grad_result":
            raise self._fail(f"expected grad_result for request {request_id}, "
                             f"got {reply.get('type')!r}")
        if reply.get("id") != request_id:
            raise self._fail(f"reply to request {request_id} has id {reply.get('id')!r}")
        try:
            losses, logits = _numbers(reply, "losses"), _numbers(reply, "logits")
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

    def _shutdown(self, kill: bool) -> str:
        """Stop the child, close its pipes and its stderr file, and return
        what it wrote to stderr ("" once shut down)."""
        proc = getattr(self, "_proc", None)
        if proc is None or proc.stdin.closed:  # never started, or shut down already
            return ""
        proc.stdin.close()
        try:
            proc.wait(timeout=0 if kill else EXIT_WAIT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self._stderr.seek(0)
        captured = self._stderr.read().decode(errors="replace")
        self._stderr.close()
        return captured

    def __enter__(self) -> "ProviderClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


def provider_connect(command: list[str], timeout: float = DEFAULT_TIMEOUT) -> ProviderClient:
    """Spawn the provider and return it wrapped as a ``Scorer``."""
    return ProviderClient(command, timeout)
