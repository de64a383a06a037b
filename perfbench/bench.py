"""The benchmark proper; run.py starts it (see run.py for usage)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
import traced

HERE = Path(__file__).resolve().parent
QUALITIES = ",".join(str(q) for q in checks.QUALITIES)
STEPS = 50
NUM_CLASSES = len(inputs.CLASSES)
TRAIN_IMAGES, TRAIN_SIDE = 200, 32
TRAIN_FLAGS = ["--seed", "1", "--epochs", "20", "--lr", "0.1", "--batch", "16",
               "--temperature", "10"]
SETUP_REPEATS = 5
MIN_RECIPES = 3
TIMEOUT_S = 60.0  # a recipe takes 1-10 s; a hung one must not outlast a run

# name: (images, side, input stream)
WORKLOADS = {
    "sweep": (200, 96, inputs.STREAM_SWEEP),
    "attribute": (50, 32, inputs.STREAM_ATTRIBUTE),
}
# The provider recipe runs only in a traced attribute run: its wall time
# follows the host's scheduling too closely to bound (see README.md).
PROVIDER_IMAGES, PROVIDER_SIDE = 16, 32


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


@dataclass
class Measured:
    """Wall time, CPU time, peak RSS and host-stolen time of one child process
    (see launch.py)."""
    code: int
    wall: float
    cpu: float
    rss_mb: float
    steal: float

    @property
    def own_wall(self) -> float:
        """Wall time less the time the host stole from each vCPU, on average.

        The recipes keep every vCPU busy, so a second stolen from all of
        them together delays the recipe by 1/nproc s (see README.md).
        """
        return self.wall - self.steal / (os.cpu_count() or 1)


def read_outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


class Run:
    """One benchmark run: its directory, environment and command lines."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool, launcher):
        self.root, self.seed, self.launcher = root, seed, launcher
        self.dir = HERE / "_runs" / f"{workload}-{seed}-{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.rel = self.dir.relative_to(root)
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}

    def dataset(self, name: str, stream: int, count: int, side: int) -> Path:
        inputs.write_dataset(self.dir / name, self.seed, stream, count, side)
        return self.rel / name

    def igprobe(self, cli_args: list[str], log: str, trace_file: Path | None = None) -> Measured:
        if trace_file is None:
            argv = [sys.executable, "-m", "igprobe", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_file), "--", *cli_args]
        m = Measured(**self.launcher.run(argv, self.env, self.dir / log, TIMEOUT_S))
        if m.code != 0:
            tail = (self.dir / log).read_text(errors="replace")[-2000:]
            print(f"{shlex.join(argv)} exited {m.code}:\n{tail}", file=sys.stderr)
        return m


def attribute_args(data: Path, out: Path) -> list[str]:
    return ["attribute", "--data", str(data), "--qualities", QUALITIES, "--steps", str(STEPS),
            "--overlay-quality", str(checks.OVERLAY_QUALITY), "--out", str(out)]


def traced_provider(run: Run, codec) -> tuple[dict, int, dict, dict]:
    """One traced attribute recipe over the mock provider, checked like the others.

    Returns its per-layer metrics, its failed images, its outputs and their
    expectation.
    """
    data = run.dataset("provider-data", inputs.STREAM_PROVIDER, PROVIDER_IMAGES, PROVIDER_SIDE)
    out = run.rel / "provider-out"
    mock = (f"{shlex.quote(sys.executable)} -m igprobe.mock_provider --side {PROVIDER_SIDE} "
            f"--classes {NUM_CLASSES} --seed {run.seed}")
    trace_file = run.dir / "trace-provider.json"
    m = run.igprobe(attribute_args(data, out) + ["--provider", mock], "provider.log", trace_file)
    if m.code != 0:
        return {}, PROVIDER_IMAGES, {}, {}
    from igprobe.model import linear_model_weights
    linear = linear_model_weights(run.seed, NUM_CLASSES, PROVIDER_SIDE * PROVIDER_SIDE * 3)
    exp = checks.expect_attribution(run.root / data, checks.linear_model(*linear),
                                    (PROVIDER_SIDE, PROVIDER_SIDE), codec, STEPS,
                                    checks.WIRE_SCORE_TOL, checks.WIRE_IG_REL)
    files = read_outputs(run.root / out)
    bad, problems = checks.check_attribution(files, exp)
    for line in problems[:10]:
        print(f"check (provider): {line}", file=sys.stderr)
    layers = traced.summarize(json.loads(trace_file.read_text()))
    return {k: v for k, v in layers.items() if k.startswith("provider.")}, len(bad), files, exp


def main(argv: list[str], launcher) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the igprobe CLI recipes.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "igprobe" / "__init__.py").is_file():
        print(f"no igprobe source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import igprobe
    from igprobe import codec
    if Path(igprobe.__file__).resolve().parent != (root / "src" / "igprobe").resolve():
        print(f"imported igprobe from {igprobe.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    run = Run(root, args.workload, args.seed, bool(args.trace), launcher)
    env_info = environment()
    (run.dir / "env.json").write_text(json.dumps(env_info, indent=1) + "\n")
    print("environment " + json.dumps(env_info))

    images, side, stream = WORKLOADS[args.workload]
    data = run.dataset("data", stream, images, side)
    train = run.dataset("train", inputs.STREAM_TRAIN, TRAIN_IMAGES, TRAIN_SIDE)
    checkpoint = run.rel / "model" / "checkpoint.json"
    out = run.rel / "out"
    if args.workload == "sweep":
        recipe = ["sweep", "--data", str(data), "--qualities", QUALITIES, "--out", str(out)]
    else:
        recipe = attribute_args(data, out)
    recipe += ["--checkpoint", str(checkpoint)]

    # Set-up: once and traced in a traced run, else SETUP_REPEATS times.
    # The first makes the checkpoint the recipes use.  The others train
    # into directories of their own, spread over the measured time, so that
    # the median set-up meets the same host load as the recipes do.
    setup_s = []
    setup_trace = run.dir / "trace-setup.json" if args.trace else None
    setups = 1 if args.trace else SETUP_REPEATS

    def set_up() -> bool:
        i = len(setup_s)
        model = checkpoint.parent if i == 0 else run.rel / f"model-{i}"
        m = run.igprobe(["train", "--data", str(train), *TRAIN_FLAGS, "--out", str(model)],
                        f"setup-{i}.log", setup_trace)
        setup_s.append(m.own_wall)
        return m.code == 0

    if not set_up():
        return 1

    # Expectations come from the inputs and the checkpoint alone.
    if args.workload == "sweep":
        exp = checks.expect_sweep(root / data, root / checkpoint, codec)
        check = checks.check_sweep
    else:
        logits, grad, hw = checks.checkpoint_model(root / checkpoint)
        exp = checks.expect_attribution(root / data, (logits, grad), hw, codec, STEPS,
                                        checks.SCORE_TOL, checks.IG_REL)
        check = checks.check_attribution

    # Whole recipes until the next would overrun the time.  A traced run
    # alternates untraced and traced recipes, swapping which goes first in
    # each pair, and ends on a whole pair.
    walls = {False: [], True: []}
    cpus, rss, layers = [], [], []
    reference, ref_failed, failed, attempted = None, 0, 0, 0
    recipe_wall = recipe_steal = 0.0
    start = time.perf_counter()
    n, last = 0, 0.0
    while (n < MIN_RECIPES or (args.trace and n % 2)
           or time.perf_counter() - start + last <= args.seconds):
        if (len(setup_s) < setups
                and time.perf_counter() - start >= len(setup_s) / setups * args.seconds):
            if not set_up():
                return 1
        is_traced = bool(args.trace) and (n % 2 == (n // 2) % 2)
        trace_file = run.dir / f"trace-{n}.json" if is_traced else None
        shutil.rmtree(root / out, ignore_errors=True)
        m = run.igprobe(recipe, f"recipe-{n}.log", trace_file)
        n, last = n + 1, m.wall
        recipe_wall, recipe_steal = recipe_wall + m.wall, recipe_steal + m.steal
        attempted += images
        if m.code != 0:
            failed += images
            continue
        walls[is_traced].append(m.own_wall)
        if is_traced:
            layers.append(traced.summarize(json.loads(trace_file.read_text())))
        else:
            cpus.append(m.cpu)
            rss.append(m.rss_mb)
        files = read_outputs(root / out)
        if reference is None:
            reference = files
            bad, problems = check(files, exp)
            for line in problems[:10]:
                print(f"check: {line}", file=sys.stderr)
            ref_failed = len(bad)
        if files != reference:
            print(f"recipe {n} wrote other bytes than the first", file=sys.stderr)
            failed += images
        else:
            failed += ref_failed
    while len(setup_s) < setups:
        if not set_up():
            return 1
    print("recipe wall times less stolen time (s): "
          + " ".join(f"{w:.3f}" for w in walls[False]))
    print("set-up wall times less stolen time (s): " + " ".join(f"{w:.3f}" for w in setup_s))
    vcpu_s = (os.cpu_count() or 1) * recipe_wall
    print(f"{n} recipes; time stolen from this virtual machine by its host while they "
          f"ran: {recipe_steal / vcpu_s if vcpu_s else float('nan'):.1%}")

    checked = [(args.workload, reference, exp, check)] if reference is not None else []
    provider_layers = {}
    if args.trace and args.workload == "attribute":
        provider_layers, provider_failed, files, provider_exp = traced_provider(run, codec)
        attempted += PROVIDER_IMAGES
        failed += provider_failed
        if files:
            checked.append(("provider", files, provider_exp, checks.check_attribution))

    # The checks must reject a corrupted copy of each kind of output they guard.
    correct = reference is not None
    for workload, files, expected, check_fn in checked:
        for what, corrupted in checks.corruptions(workload, files).items():
            rejected = bool(check_fn(corrupted, expected)[0])
            print(f"self-test ({workload}): corrupted {what} "
                  f"{'rejected' if rejected else 'ACCEPTED'}")
            correct &= rejected

    if args.trace:
        metrics = {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {}
        metrics.update(provider_layers)
        setup_layers = traced.summarize(json.loads(setup_trace.read_text()))
        metrics["model.train_s"] = setup_layers["model.train_s"]
        metrics["model.train_rows_per_s"] = setup_layers["model.train_rows_per_s"]
        traced_ips = images / statistics.median(walls[True]) if walls[True] else 0.0
        plain_ips = images / statistics.median(walls[False]) if walls[False] else 0.0
        metrics["trace.images_per_s"] = traced_ips
        metrics["trace.overhead_share"] = plain_ips / traced_ips - 1.0 if traced_ips else 0.0
        kind = "per_layer"
    else:
        metrics = {
            "images_per_s": statistics.median(images / w for w in walls[False]) if walls[False] else 0.0,
            "cpu_s": statistics.median(cpus) if cpus else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "setup_s": statistics.median(setup_s),
        }
        kind = "end_to_end"
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                          for m in spec[kind]}}
    print(json.dumps(result))
    return 0

