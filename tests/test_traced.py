"""The benchmark's tracer (perfbench/traced.py) wraps program functions by
name and skips a name that does not resolve, so a rename would zero a
per-layer metric without an error.  Every name it wraps must exist."""

import importlib
import importlib.util
from pathlib import Path

from igprobe.provider import ProviderClient

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
