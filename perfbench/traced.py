"""Run one igprobe CLI recipe in process with spans around each layer.

Usage: ``python3 perfbench/traced.py TRACE.json -- <igprobe arguments>``
from the root of a checkout.  The program is not changed: the public
functions of its modules are wrapped from outside, the recipe runs
through ``igprobe.cli.main``, and the spans are kept in memory and
written to TRACE.json when it ends.  ``summarize`` turns such a file into
the per-layer metrics that ``run.py`` reports.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

# (module, function, span name).  A span name is "<layer>.<what>".
WRAPPED = (
    ("data", "load_dataset", "data.load"),
    ("codec", "degrade_jpeg", "codec.degrade"),
    ("codec", "resize_bicubic", "codec.resize"),
    ("model", "forward", "model.forward"),
    ("model", "backward", "model.grad"),
    ("model", "train", "model.train"),
    ("attribution", "integrated_gradients", "attribution.ig"),
    ("harness", "sweep_precision", "harness.sweep"),
    ("harness", "attribute_batch", "harness.attribute"),
    ("provider", "provider_connect", "provider.connect"),
    ("imgio", "write_image", "imgio.write"),
    ("viz", "render_overlay", "viz.overlay"),
    ("viz", "emit_table", "viz.emit"),
    ("viz", "emit_chart_svg", "viz.emit"),
)
# Time inside harness spans that none of these covers is the harness's own.
HARNESS_CHILDREN = ("codec.", "model.", "attribution.", "provider.request")


def _rows(image) -> int:
    """Images in one scorer call: 1 for HxWxC, B for a BxHxWxC batch."""
    shape = np.shape(image)
    return 1 if len(shape) <= 3 else int(shape[0])


def _amount(span: str, args, result) -> float:
    """The work one call did, in the unit its layer counts."""
    if span == "data.load":
        return len(result.items)
    if span == "codec.degrade":
        shape = np.shape(args[0])
        return shape[0] * shape[1]
    if span in ("model.forward", "model.grad"):
        return _rows(args[1])
    if span == "model.train":
        return len(args[1].items) * args[2].epochs
    if span == "imgio.write":
        return Path(args[0]).stat().st_size
    return 1


class Tracer:
    """Spans kept as plain lists; list.append is atomic under the GIL."""

    def __init__(self):
        self.spans: list = []  # [name, thread, start, end, parent index, amount]
        self.samples: dict[str, list] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        record = [name, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else -1, 0]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()
        record[5] = _amount(name, args, result)
        if name == "attribution.ig":
            spec = args[1]
            self.sample("attribution.nodes", spec.steps + (spec.scheme == "trapezoid"))
            delta = abs(result.loss_target - result.loss_baseline)
            self.sample("attribution.rel_gap", result.completeness_gap / max(delta, 1e-12))
        return result

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper


class _CountingJson:
    """Stands in for ``json`` inside the provider module to count wire bytes."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(json, attr)

    def dumps(self, obj, *args, **kwargs):
        text = json.dumps(obj, *args, **kwargs)
        self._tracer.sample("provider.bytes_out", len(text) + 1)  # plus the newline
        return text

    def loads(self, text, *args, **kwargs):
        self._tracer.sample("provider.bytes_in", len(text))
        return json.loads(text, *args, **kwargs)


def install(tracer: Tracer) -> None:
    """Replace every binding of a wrapped function in every igprobe module."""
    import igprobe.cli  # noqa: F401  (imports every module the recipes use)
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("igprobe")]
    for mod_name, fn_name, span in WRAPPED:
        original = getattr(sys.modules.get(f"igprobe.{mod_name}"), fn_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(span, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    provider = sys.modules["igprobe.provider"]
    client = provider.ProviderClient
    client.__call__ = tracer.wrap("provider.request", client.__call__)
    provider.json = _CountingJson(tracer)


def _union(intervals: list) -> list:
    merged: list = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return merged


def _covered(merged: list, a: float, b: float) -> float:
    return sum(max(0.0, min(b, y) - max(a, x)) for x, y in merged)


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced recipe, keyed as in BENCHMARK.json."""
    spans = trace["spans"]
    samples = trace["samples"]

    def busy(name):
        return sum(s[3] - s[2] for s in spans if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    def amount(name):
        return sum(s[5] for s in spans if s[0] == name)

    def ratio(a, b):
        return a / b if b else 0.0

    cli = [s for s in spans if s[0] == "cli.main"]
    layer = _union([[s[2], s[3]] for s in spans if s[0] != "cli.main"])
    cli_self = sum((s[3] - s[2]) - _covered(layer, s[2], s[3]) for s in cli)

    children = _union([[s[2], s[3]] for s in spans if s[0].startswith(HARNESS_CHILDREN)])
    harness = [s for s in spans if s[0].startswith("harness.")]
    harness_busy = sum(s[3] - s[2] for s in harness)
    harness_self = sum((s[3] - s[2]) - _covered(children, s[2], s[3]) for s in harness)

    maps = count("attribution.ig")
    grad_rows = amount("model.grad")
    requests = count("provider.request")
    all_rows = grad_rows + requests
    request_ms = [1e3 * (s[3] - s[2]) for s in spans if s[0] == "provider.request"]
    gaps = samples.get("attribution.rel_gap", [])
    degrade_s = busy("codec.degrade")
    train_s = busy("model.train")
    grad_s = busy("model.grad")
    return {
        "data.load_s": busy("data.load"),
        "data.images": amount("data.load"),
        "codec.degrade_calls": count("codec.degrade"),
        "codec.degrade_s": degrade_s,
        "codec.degrade_mpix_per_s": ratio(amount("codec.degrade") / 1e6, degrade_s),
        "codec.resize_calls": count("codec.resize"),
        "codec.resize_s": busy("codec.resize"),
        "model.forward_rows": amount("model.forward"),
        "model.forward_s": busy("model.forward"),
        "model.grad_rows": grad_rows,
        "model.grad_s": grad_s,
        "model.grad_rows_per_s": ratio(grad_rows, grad_s),
        "model.train_s": train_s,
        "model.train_rows_per_s": ratio(amount("model.train"), train_s),
        "attribution.maps": maps,
        "attribution.ms_per_map": ratio(1e3 * busy("attribution.ig"), maps),
        "attribution.grad_rows_per_map": ratio(all_rows, maps),
        "attribution.useful_row_share": ratio(sum(samples.get("attribution.nodes", [])),
                                              all_rows),
        "attribution.rel_gap_p50": float(np.median(gaps)) if gaps else 0.0,
        "attribution.rel_gap_max": max(gaps, default=0.0),
        "harness.busy_s": harness_busy,
        "harness.self_s": harness_self,
        "harness.self_share": ratio(harness_self, harness_busy),
        "provider.connect_s": busy("provider.connect"),
        "provider.requests": requests,
        "provider.requests_per_map": ratio(requests, maps),
        "provider.bytes_out": sum(samples.get("provider.bytes_out", [])),
        "provider.bytes_in": sum(samples.get("provider.bytes_in", [])),
        "provider.request_ms_p50": float(np.percentile(request_ms, 50)) if request_ms else 0.0,
        "provider.request_ms_p99": float(np.percentile(request_ms, 99)) if request_ms else 0.0,
        "provider.busy_s": busy("provider.request"),
        "imgio.writes": count("imgio.write"),
        "imgio.write_bytes": amount("imgio.write"),
        "imgio.write_s": busy("imgio.write"),
        "viz.overlay_s": busy("viz.overlay"),
        "viz.emit_s": busy("viz.emit"),
        "cli.self_s": cli_self,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py TRACE.json -- <igprobe arguments>", file=sys.stderr)
        return 2
    out, recipe = Path(argv[0]), argv[2:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    tracer = Tracer()
    install(tracer)
    import igprobe.cli
    code = tracer.call("cli.main", igprobe.cli.main, (recipe,), {})
    out.write_text(json.dumps({"argv": recipe, "spans": tracer.spans,
                               "samples": tracer.samples}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
