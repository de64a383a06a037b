"""The package's lazy surface and the command's entry point: ``import
igprobe`` loads nothing, and ``python -m igprobe`` loads numpy with one
BLAS thread unless the caller chose a count."""

import json
import os
import shlex
import subprocess
import sys

import pytest

import igprobe
from igprobe.__main__ import BLAS_THREAD_VARIABLES


def _env(**env: str) -> dict:
    """This process's environment (whose PYTHONPATH conftest.py points at
    this checkout) without the BLAS thread variables, plus ``env``."""
    return {**{k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}, **env}


def _python(script: str, env: dict) -> dict:
    """The JSON object that ``script``, run in a fresh interpreter, prints last."""
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


IMPORT_ONLY = """import json, os, sys
before = dict(os.environ)
import igprobe
print(json.dumps({"loaded": sorted(m for m in sys.modules
                                   if m == "numpy" or m.startswith(("numpy.", "igprobe."))),
                  "environ_kept": dict(os.environ) == before}))
"""


def test_import_igprobe_loads_no_submodule_no_numpy_and_keeps_the_environment():
    assert _python(IMPORT_ONLY, _env()) == {"loaded": [], "environ_kept": True}


def test_every_public_name_resolves_and_is_listed():
    assert set(igprobe._SUBMODULE) == set(igprobe.__all__) - {"__version__"}
    listed = dir(igprobe)
    for name in igprobe.__all__:
        assert name in listed
        value = getattr(igprobe, name)
        if name != "__version__":
            module = sys.modules[f"igprobe.{igprobe._SUBMODULE[name]}"]
            assert value is getattr(module, name)
    star: dict = {}
    exec("from igprobe import *", star)
    assert set(igprobe.__all__) <= set(star)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        igprobe.no_such_name


# Records the BLAS thread variables as igprobe.cli is imported, runs
# ``igprobe --version`` through __main__.main, then prints them again, with
# this process's thread count where /proc shows it.
ENTRY = """import json, os, sys
from igprobe.__main__ import BLAS_THREAD_VARIABLES, main

def blas_variables():
    return {v: os.environ[v] for v in BLAS_THREAD_VARIABLES if v in os.environ}

seen = []

class Spy:
    def find_spec(self, name, path, target=None):
        if name == "igprobe.cli":
            seen.append(blas_variables())
        return None

sys.meta_path.insert(0, Spy())
try:
    main(["--version"])
except SystemExit:
    pass
task = "/proc/self/task"
print(json.dumps({"at_import": seen, "after": blas_variables(),
                  "threads": len(os.listdir(task)) if os.path.isdir(task) else None}))
"""


@pytest.mark.parametrize("chosen", [{}, {"OPENBLAS_NUM_THREADS": "2"},
                                    {"GOTO_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["none", "openblas", "goto", "omp"])
def test_main_loads_numpy_with_one_blas_thread_unless_the_caller_chose(chosen):
    got = _python(ENTRY, _env(**chosen))
    assert got["at_import"] == [chosen or {"OPENBLAS_NUM_THREADS": "1"}]
    assert got["after"] == chosen
    if not chosen and got["threads"] is not None:
        assert got["threads"] == 1  # OpenBLAS started no pool thread


def test_a_provider_child_gets_the_callers_environment(tmp_path):
    # The provider records its OPENBLAS_NUM_THREADS, then serves as the mock.
    seen = tmp_path / "seen.txt"
    mock = f"{shlex.quote(sys.executable)} -m igprobe.mock_provider --side 8 --classes 2 --seed 1"
    provider = shlex.join(["sh", "-c", f'echo "${{OPENBLAS_NUM_THREADS-unset}}" > '
                                       f'{shlex.quote(str(seen))}; exec {mock}'])
    proc = subprocess.run(
        [sys.executable, "-m", "igprobe", "sweep", "--synthetic", "--classes", "2",
         "--per-class", "1", "--side", "8", "--qualities", "original,50",
         "--provider", provider, "--out", str(tmp_path / "out")],
        env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert seen.read_text() == "unset\n"
