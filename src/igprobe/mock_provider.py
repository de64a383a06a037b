"""Reference gradient provider: an analytic linear-softmax scorer on stdio.

Run with ``python -m igprobe.mock_provider``.  Each ``grad`` request
carries a whole batch, which goes to ``linear_softmax_gradfn`` as it is.
Shares its weights with ``model.linear_model_weights`` so clients can
check wire answers against the in-process implementation.  The
``--misbehave`` modes exist to exercise client error paths.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .model import linear_model_weights, linear_softmax_gradfn
from .provider import decode_f32, encode_f32

MISBEHAVE_MODES = ("none", "no-hello", "bad-hello", "wrong-grad-len",
                   "bad-loss", "nan-grad", "error", "exit", "garbage", "slow",
                   "deaf", "partial-line", "wrong-id", "text-loss", "bool-logits",
                   "huge-loss")
SLOW_ROW_S = 0.7  # --misbehave slow: sleep per batch row before replying


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def serve(seed: int, classes: int, side: int, misbehave: str = "none") -> int:
    if misbehave == "no-hello":
        time.sleep(3600.0)
        return 0
    if misbehave == "bad-hello":
        _emit({"type": "surprise"})
        return 0
    if misbehave == "garbage":
        print("this is not json", flush=True)
        return 0

    shape = (side, side, 3)
    n_inputs = side * side * 3
    weights, bias = linear_model_weights(seed, classes, n_inputs)
    gradfn = linear_softmax_gradfn(weights, bias)
    _emit({"type": "hello",
           "classes": [f"class_{i}" for i in range(classes)],
           "input_shape": list(shape)})
    if misbehave == "deaf":  # never reads a request
        time.sleep(3600.0)
        return 0

    for line in sys.stdin:
        if not line.strip():
            continue
        try:
            req = json.loads(line)
        except json.JSONDecodeError as exc:
            _emit({"type": "error", "id": None, "message": f"bad request json: {exc}"})
            continue
        rid = req.get("id")
        if req.get("type") != "grad":
            _emit({"type": "error", "id": rid,
                   "message": f"unsupported request type {req.get('type')!r}"})
            continue
        if misbehave == "error":
            _emit({"type": "error", "id": rid, "message": "synthetic provider failure"})
            continue
        if misbehave == "exit":
            print("mock provider: synthetic crash", file=sys.stderr, flush=True)
            return 3
        try:
            labels = np.asarray(req["labels"])
            images = decode_f32(req["images"], labels.size * n_inputs, "images")
            result = gradfn(images.reshape((labels.size,) + shape), labels)
        except Exception as exc:
            _emit({"type": "error", "id": rid, "message": f"bad request: {exc}"})
            continue
        if misbehave == "slow":
            time.sleep(SLOW_ROW_S * labels.size)
        grads = np.asarray(result.grads, dtype="<f4")
        losses, logits = result.losses, result.logits
        if misbehave == "bad-loss":
            losses[-1] += 0.5
        if misbehave == "wrong-grad-len":
            grads = grads.ravel()[:-1]
        if misbehave == "nan-grad":
            losses, logits, grads = losses * np.nan, logits * np.nan, grads * np.nan
        if misbehave == "wrong-id":
            rid += 1
        losses, logits = losses.tolist(), logits.tolist()
        if misbehave == "text-loss":
            losses = [str(v) for v in losses]
        if misbehave == "bool-logits":
            logits = [[False] * len(row) for row in logits]
        if misbehave == "huge-loss":  # 401 digits: no float64 holds it
            losses[-1] = 10 ** 400
        reply = json.dumps({"type": "grad_result", "id": rid, "losses": losses,
                            "logits": logits, "grads": encode_f32(grads)})
        if misbehave == "partial-line":
            print(reply[:len(reply) // 2], end="", flush=True)
            time.sleep(3600.0)
            return 0
        print(reply, flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--side", type=int, default=8)
    parser.add_argument("--misbehave", choices=MISBEHAVE_MODES, default="none")
    args = parser.parse_args(argv)
    return serve(args.seed, args.classes, args.side, args.misbehave)


if __name__ == "__main__":
    sys.exit(main())
