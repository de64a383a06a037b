"""The benchmark's tracer (perfbench/traced.py) wraps program functions by
name and skips a name that does not resolve, so a rename would zero a
per-layer metric without an error.  Every name it wraps must exist."""

import importlib
import importlib.util
import numbers
from pathlib import Path

from igprobe.attribution import PathSpec, integrated_gradients
from igprobe.model import new_scorer
from igprobe.provider import ProviderClient
from igprobe.tensor import SeededRng

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # definitions only; install() is not called
    return module


def test_every_wrapped_function_resolves():
    traced = load_traced()
    assert traced.WRAPPED
    missing = [f"igprobe.{mod}.{fn}" for mod, fn, _ in traced.WRAPPED
               if not callable(getattr(importlib.import_module(f"igprobe.{mod}"), fn, None))]
    assert not missing, f"traced.WRAPPED names functions that do not exist: {missing}"


def test_provider_client_defines_call():
    # install() wraps ProviderClient.__call__ for the provider.request span
    assert callable(vars(ProviderClient).get("__call__"))


def test_ig_call_has_what_the_tracer_reads():
    # Tracer.call reads spec.steps, spec.scheme, loss_target, loss_baseline
    # and completeness_gap after each attribution.ig span; a rename would
    # raise inside every traced attribute recipe
    rng = SeededRng(3)
    spec = PathSpec(rng.uniform([4, 4, 3]), rng.uniform([4, 4, 3]), 3)
    scorer = new_scorer(2, (4, 4, 3), (8,), 4, 2)
    result = integrated_gradients(scorer, spec, 1)
    for obj, name in ((spec, "steps"), (result, "loss_target"), (result, "loss_baseline"),
                      (result, "completeness_gap")):
        assert isinstance(getattr(obj, name), numbers.Real), name
    assert spec.scheme == "trapezoid"
    tracer = load_traced().Tracer()
    tracer.call("attribution.ig", integrated_gradients, (scorer, spec, 1), {})
    assert tracer.samples["attribution.nodes"] == [4]
    assert tracer.samples["attribution.rel_gap"] == [result.rel_gap]
