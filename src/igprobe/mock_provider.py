"""Reference gradient provider: an analytic linear-softmax scorer on stdio.

Run with ``python -m igprobe.mock_provider``.  Shares its weights with
``model.linear_model_weights`` so clients can check wire answers against
the in-process implementation.  The ``--misbehave`` modes exist to
exercise client error paths.
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
                   "bad-loss", "nan-grad", "error", "exit", "garbage")


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
            label = int(req["label"])
            image = decode_f32(req["image"], n_inputs, "image").reshape(shape)
        except Exception as exc:
            _emit({"type": "error", "id": rid, "message": f"bad request: {exc}"})
            continue
        if not 0 <= label < classes:
            _emit({"type": "error", "id": rid, "message": f"label {label} out of range"})
            continue
        result = gradfn(image[None], np.array([label]))
        grad = np.asarray(result.grads[0], dtype="<f4")
        logits = result.logits[0]
        loss = float(result.losses[0]) + (0.5 if misbehave == "bad-loss" else 0.0)
        if misbehave == "wrong-grad-len":
            grad = grad.ravel()[:-1]
        if misbehave == "nan-grad":
            loss, logits, grad = np.nan, logits * np.nan, grad * np.nan
        _emit({"type": "grad_result", "id": rid, "loss": loss,
               "logits": [float(v) for v in logits],
               "grad": encode_f32(grad)})
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
