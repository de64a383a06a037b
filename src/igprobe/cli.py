"""Command line: degrade, train, sweep, attribute, overlay, verify, report.

Config resolution order per value: CLI flag, then the IGPROBE_OUTPUT_DIR
environment variable (output dir only), then the --config JSON file,
then built-in defaults.  Every resolved value is echoed to
``manifest.json`` in the output directory, and identical configs
produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .attribution import DEFAULT_STEPS, SCHEMES, PathSpec, integrated_gradients, split_polarity
from .codec import ORIGINAL, degrade_jpeg
from .data import Dataset, gen_synthetic, load_dataset
from .harness import (METRICS, attribute_batch, check_qualities, parse_quality,
                      prepare_input, quality_key, read_precision_csv, sweep_precision,
                      write_attribution_csv, write_precision_csv)
from .imgio import read_image, write_image
from .model import (ScorerModel, TrainConfig, load_model, mean_loss, new_scorer, save_model,
                    train)
from .provider import ProviderSpec, provider_connect
from .verify import CHECKS, format_results, run_checks
from .viz import POLARITY_MODES, emit_chart_svg, emit_table, render_overlay

ENV_OUTPUT_DIR = "IGPROBE_OUTPUT_DIR"
DEFAULT_QUALITIES = (ORIGINAL, 75, 50, 25)


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    subcommand: str
    seed: int = 1
    steps: int = DEFAULT_STEPS
    scheme: str = "trapezoid"
    qualities: list = field(default_factory=lambda: list(DEFAULT_QUALITIES))
    metric: str = "macro_precision"
    checkpoint: str | None = None
    provider: str | None = None
    train_fresh: bool = False
    data: str | None = None
    synthetic: bool = False
    classes: int = 4
    per_class: int = 50
    side: int = 32
    hidden: list = field(default_factory=lambda: [64])
    embed_dim: int = 32
    temperature: float = 100.0
    lr: float = 0.05
    epochs: int = 30
    batch: int = 16
    out: str = "igprobe_out"
    quality: object = 25
    overlay_quality: int | None = None
    label: int | None = None
    input_path: str | None = None
    output_path: str | None = None
    source: str | None = None
    checks: list | None = None


def _parse_qualities(value) -> list:
    items = value.split(",") if isinstance(value, str) else list(value)
    out = [parse_quality(str(v)) for v in items if str(v).strip()]
    if not out:
        raise UsageError("empty quality list")
    return check_qualities(out)


def _parse_int_list(value) -> list:
    items = value.split(",") if isinstance(value, str) else list(value)
    return [int(v) for v in items if str(v).strip()]


def _parse_name_list(value) -> list:
    items = value.split(",") if isinstance(value, str) else list(value)
    return [str(v).strip() for v in items if str(v).strip()]


def _opt_str(v):
    return None if v is None else str(v)


_COERCE = {
    "seed": int, "steps": int, "classes": int, "per_class": int, "side": int,
    "embed_dim": int, "epochs": int, "batch": int, "label": int,
    "overlay_quality": int,
    "temperature": float, "lr": float,
    "scheme": str, "metric": str, "out": str,
    "checkpoint": _opt_str, "provider": _opt_str, "data": _opt_str,
    "input_path": _opt_str, "output_path": _opt_str, "source": _opt_str,
    "train_fresh": bool, "synthetic": bool,
    "qualities": _parse_qualities,
    "hidden": _parse_int_list,
    "checks": _parse_name_list,
    "quality": lambda v: parse_quality(str(v)),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over env over config-file over defaults."""
    file_values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_values = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}")
        if not isinstance(file_values, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")

    cfg = RunConfig(subcommand=args.subcommand)
    unknown = [k for k in file_values if not hasattr(cfg, k) or k == "subcommand"]
    if unknown:
        raise UsageError(f"unknown config keys {unknown}")

    for name in vars(cfg):
        if name == "subcommand":
            continue
        value = getattr(args, name, None)
        if value is None and name == "out" and os.environ.get(ENV_OUTPUT_DIR):
            value = os.environ[ENV_OUTPUT_DIR]
        if value is None and name in file_values:
            value = file_values[name]
        if value is None:
            continue
        try:
            setattr(cfg, name, _COERCE[name](value))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {name}: {value!r} ({exc})")
    if cfg.scheme not in SCHEMES:
        raise UsageError(f"scheme must be one of {SCHEMES}, got {cfg.scheme!r}")
    if cfg.metric not in METRICS:
        raise UsageError(f"metric must be one of {sorted(METRICS)}, got {cfg.metric!r}")
    numeric = [q for q in cfg.qualities if q != ORIGINAL]
    if cfg.overlay_quality is not None and cfg.overlay_quality not in numeric:
        raise UsageError(f"--overlay-quality {cfg.overlay_quality} not in {numeric}")
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(cfg: RunConfig, out_dir: Path, extra: dict | None = None) -> None:
    manifest = {"version": __version__, **asdict(cfg)}
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_data(cfg: RunConfig) -> Dataset:
    if cfg.data and cfg.synthetic:
        raise UsageError("choose one dataset source: --data DIR or --synthetic")
    if cfg.data:
        return load_dataset(cfg.data)
    if cfg.synthetic:
        return gen_synthetic(cfg.seed, cfg.classes, cfg.per_class, cfg.side)
    raise UsageError("need a dataset: --data DIR or --synthetic")


def _train_fresh(cfg: RunConfig, dataset: Dataset) -> ScorerModel:
    model = new_scorer(cfg.seed, dataset.image_shape, cfg.hidden, cfg.embed_dim,
                       dataset.num_classes, cfg.temperature, dataset.class_names)
    return train(model, dataset, TrainConfig(lr=cfg.lr, epochs=cfg.epochs,
                                             batch=cfg.batch, seed=cfg.seed))


def _resolve_scorer(cfg: RunConfig, dataset: Dataset | None):
    """One of checkpoint / provider / train-fresh; returns (name, scorer, close)."""
    chosen = [n for n, v in (("checkpoint", cfg.checkpoint), ("provider", cfg.provider),
                             ("train_fresh", cfg.train_fresh)) if v]
    if len(chosen) != 1:
        raise UsageError("exactly one model source required: "
                         "--checkpoint PATH, --provider CMD, or --train-fresh")
    if cfg.checkpoint:
        return Path(cfg.checkpoint).stem, load_model(cfg.checkpoint), lambda: None
    if cfg.provider:
        client = provider_connect(ProviderSpec(shlex.split(cfg.provider)))
        return "provider", client, client.close
    if dataset is None:
        raise UsageError("--train-fresh needs a dataset")
    return "scorer", _train_fresh(cfg, dataset), lambda: None


def _safe_id(item_id: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in item_id)


def cmd_degrade(cfg: RunConfig) -> int:
    img = read_image(cfg.input_path)
    out = degrade_jpeg(img, cfg.quality)
    write_image(cfg.output_path, out)
    print(f"wrote {cfg.output_path} (quality {quality_key(cfg.quality)})")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    dataset = _load_data(cfg)
    model = _train_fresh(cfg, dataset)
    out_dir = _out_dir(cfg)
    path = out_dir / "checkpoint.json"
    save_model(model, path)
    _write_manifest(cfg, out_dir)
    print(f"trained on {len(dataset.items)} images, "
          f"mean loss {mean_loss(model, dataset):.4f}")
    print(f"wrote {path}")
    return 0


def _write_table_and_chart(cfg: RunConfig, table, out_dir: Path) -> None:
    (out_dir / "table.csv").write_text(emit_table(table, "csv"))
    (out_dir / "table.md").write_text(emit_table(table, "markdown"))
    chart = emit_chart_svg(table, cfg.metric.replace("_", " "))
    (out_dir / "chart.svg").write_text(chart)


def cmd_sweep(cfg: RunConfig) -> int:
    dataset = _load_data(cfg)
    name, scorer, close = _resolve_scorer(cfg, dataset)
    try:
        table = sweep_precision(scorer, dataset, cfg.qualities, metric=cfg.metric, name=name)
    finally:
        close()
    out_dir = _out_dir(cfg)
    write_precision_csv(table, out_dir / "precision.csv")
    _write_table_and_chart(cfg, table, out_dir)
    _write_manifest(cfg, out_dir)
    print(emit_table(table, "csv"), end="")
    print(f"wrote precision.csv, table.csv, table.md, chart.svg to {out_dir}")
    return 0


def _write_overlays(out_dir: Path, stem: str, base, pol) -> dict:
    """Write one ``<stem>_<mode>.ppm`` per polarity mode; returns mode -> file name."""
    files = {}
    for mode in POLARITY_MODES:
        fname = f"{stem}_{mode}.ppm"
        write_image(out_dir / fname, render_overlay(base, pol, mode))
        files[mode] = fname
    return files


def _default_overlay_quality(cfg: RunConfig):
    if cfg.overlay_quality is not None:  # resolve_config checked it against the sweep
        return cfg.overlay_quality
    numeric = [q for q in cfg.qualities if q != ORIGINAL]
    return min(numeric) if numeric else None


def cmd_attribute(cfg: RunConfig) -> int:
    dataset = _load_data(cfg)
    name, scorer, close = _resolve_scorer(cfg, dataset)
    try:
        batch = attribute_batch(scorer, dataset, cfg.qualities,
                                steps=cfg.steps, scheme=cfg.scheme)
        hw = scorer.input_shape[:2]
        out_dir = _out_dir(cfg)
        write_attribution_csv(batch, out_dir / "attributions.csv")
        overlay_q = _default_overlay_quality(cfg)
        overlay_meta = []
        if overlay_q is not None:
            for item, rec, maps in zip(dataset.items, batch.records, batch.maps):
                base = prepare_input(item.image, ORIGINAL, hw)
                pol = split_polarity(maps[overlay_q])
                files = _write_overlays(out_dir, f"{_safe_id(rec.id)}_q{overlay_q}", base, pol)
                overlay_meta.append({"id": rec.id, "quality": overlay_q,
                                     "ig_scale": pol.scale, "files": files})
            (out_dir / "overlays.json").write_text(
                json.dumps(overlay_meta, indent=2, sort_keys=True) + "\n")
    finally:
        close()
    _write_manifest(cfg, out_dir)
    n_files = 3 * len(overlay_meta)
    print(f"attributed {len(batch.records)} images at steps={cfg.steps} "
          f"({cfg.scheme}); wrote attributions.csv and {n_files} overlays to {out_dir}")
    return 0


def cmd_overlay(cfg: RunConfig) -> int:
    img = read_image(cfg.input_path)
    if cfg.label is None:
        raise UsageError("overlay needs --label")
    name, scorer, close = _resolve_scorer(cfg, None)
    try:
        hw = scorer.input_shape[:2]
        base = prepare_input(img, ORIGINAL, hw)
        target = prepare_input(img, cfg.quality, hw)
        att = integrated_gradients(scorer, PathSpec(base, target, cfg.steps, cfg.scheme),
                                   cfg.label)
    finally:
        close()
    pol = split_polarity(att)
    out_dir = _out_dir(cfg)
    files = _write_overlays(out_dir, "overlay", base, pol)
    meta = {"quality": quality_key(cfg.quality), "label": cfg.label,
            "ig_sum": att.sum, "completeness_gap": att.completeness_gap,
            "ig_scale": pol.scale, "files": files}
    (out_dir / "overlay.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    _write_manifest(cfg, out_dir)
    print(f"IG sum {att.sum:.6f} (gap {att.completeness_gap:.2e}), "
          f"wrote {', '.join(files.values())} to {out_dir}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_checks(cfg.seed, names=cfg.checks)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_report(cfg: RunConfig) -> int:
    if not cfg.source:
        raise UsageError("report needs --from (precision.csv or a directory holding one)")
    source = Path(cfg.source)
    if source.is_dir():
        source = source / "precision.csv"
    table = read_precision_csv(source)
    out_dir = _out_dir(cfg)
    _write_table_and_chart(cfg, table, out_dir)
    _write_manifest(cfg, out_dir)
    print(emit_table(table, "csv"), end="")
    print(f"re-rendered table.csv, table.md, chart.svg to {out_dir}")
    return 0


COMMANDS = {
    "degrade": cmd_degrade,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "attribute": cmd_attribute,
    "overlay": cmd_overlay,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with defaults for any flag")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", "-o", help="output directory")


def _add_dataset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset directory with labels.csv")
    p.add_argument("--synthetic", action="store_const", const=True,
                   help="generate the seeded synthetic dataset")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--side", type=int)


def _add_model_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", help="scorer checkpoint JSON")
    p.add_argument("--provider", help="gradient provider command line")
    p.add_argument("--train-fresh", dest="train_fresh", action="store_const", const=True,
                   help="train a scorer on the dataset first")


def _add_train_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hidden", help="comma list of hidden widths")
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int)


def _add_path_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=int, help="quadrature step count N")
    p.add_argument("--scheme", choices=SCHEMES)


def _add_qualities(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qualities", help="comma list, e.g. original,75,50,25")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igprobe",
        description="Probe classifier degradation under JPEG compression "
                    "with integrated-gradients attributions.")
    parser.add_argument("--version", action="version", version=f"igprobe {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("degrade", help="JPEG-degrade one image file")
    p.add_argument("--quality", required=True)
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--out", dest="output_path", required=True)
    p.add_argument("--config")

    p = sub.add_parser("train", help="train the scorer on a dataset")
    _add_common(p)
    _add_dataset(p)
    _add_train_params(p)

    p = sub.add_parser("sweep", help="precision over a quality sweep")
    _add_common(p)
    _add_dataset(p)
    _add_model_source(p)
    _add_train_params(p)
    _add_path_params(p)
    _add_qualities(p)
    p.add_argument("--metric", choices=sorted(METRICS))

    p = sub.add_parser("attribute", help="per-image attributions and overlays")
    _add_common(p)
    _add_dataset(p)
    _add_model_source(p)
    _add_train_params(p)
    _add_path_params(p)
    _add_qualities(p)
    p.add_argument("--overlay-quality", dest="overlay_quality", type=int,
                   help="quality whose attribution is rendered (default: lowest)")

    p = sub.add_parser("overlay", help="polarity overlays for one image")
    _add_common(p)
    _add_model_source(p)
    _add_path_params(p)
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--label", type=int)
    p.add_argument("--quality")

    p = sub.add_parser("verify", help="run the numerical verification suite")
    _add_common(p)
    p.add_argument("--checks", help="comma list; available: "
                   + ",".join(name for name, _ in CHECKS))

    p = sub.add_parser("report", help="re-render tables and chart from stored CSV")
    _add_common(p)
    p.add_argument("--from", dest="source", help="precision.csv or its directory")
    p.add_argument("--metric")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.subcommand](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
