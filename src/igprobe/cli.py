"""Command line: degrade, train, sweep, attribute, overlay, verify, report.

Each subcommand declares its own flags, with their types and defaults, in
``build_parser``.  Resolution order per value: CLI flag, then the
IGPROBE_OUTPUT_DIR environment variable (output dir only), then the
--config JSON file, then the declared default.  Once a subcommand that
writes an output directory has returned, ``main`` echoes its resolved
settings to ``<subcommand>.manifest.json`` there, so commands sharing a
directory keep their own records, and identical settings produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import os
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .attribution import DEFAULT_SCHEME, DEFAULT_STEPS, SCHEMES, check_quadrature, split_polarity
from .codec import ORIGINAL, check_quality, degrade_jpeg
from .data import Dataset, DatasetItem, check_synthetic_setting, gen_synthetic, load_dataset
from .harness import (METRICS, attribute_batch, check_qualities, read_precision_csv,
                      sweep_precision, write_attribution_csv, write_precision_csv)
from .imgio import read_image, write_image
from .model import (TrainConfig, check_labels, check_train_setting, load_model, mean_loss,
                    new_scorer, read_json_object, save_model, train)
from .provider import provider_connect
from .verify import CHECKS, format_results, run_checks
from .viz import POLARITY_MODES, emit_chart_svg, emit_table, render_overlay

ENV_OUTPUT_DIR = "IGPROBE_OUTPUT_DIR"


class UsageError(Exception):
    pass


def _comma_list(convert):
    """A flag type for a comma list, each item through ``convert``."""
    return lambda text: [convert(v) for v in text.split(",") if v.strip()]


def _setting(check, name: str, convert=int):
    """A flag type for setting ``name``, held to the library's rule ``check`` for it:
    ``check_train_setting`` or ``check_synthetic_setting``."""
    return lambda text: check(name, convert(text))


def _check_names(text: str) -> list[str]:
    """The --checks list; a list that names no check is refused, not read as all of them."""
    names = _comma_list(str.strip)(text)
    if not names:
        raise ValueError("names no check; available: " + ",".join(n for n, _ in CHECKS))
    return names


def _usage_type(name: str, convert):
    """``convert`` as an argparse type whose bad values are usage errors naming ``name``."""
    def parse(text: str):
        try:
            return convert(text)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {name}: {text!r} ({exc})")
    return parse


def _outside_defaults(args: argparse.Namespace, subparsers: dict) -> dict:
    """The --config file's values, as flag text, then IGPROBE_OUTPUT_DIR, for this subcommand.

    A key that no subcommand takes is a usage error; a key that only other
    subcommands take is ignored, so one file can drive train, sweep and attribute.
    """
    values = {}
    if getattr(args, "config", None):
        try:
            values = read_json_object(args.config, f"config {args.config}")
        except ValueError as exc:
            raise UsageError(str(exc))
    known = {a.dest for p in subparsers.values() for a in p._actions} - {"help", "config"}
    unknown = [k for k in values if k not in known]
    if unknown:
        raise UsageError(f"unknown config keys {unknown}")

    actions = {a.dest: a for a in subparsers[args.subcommand]._actions}
    defaults = {}
    for name, value in values.items():
        action = actions.get(name)
        if action is None or value is None:
            continue
        if action.nargs == 0:  # a bare flag: true sets it
            if not isinstance(value, bool):
                raise UsageError(f"bad value for {name}: {value!r} (expected true or false)")
            defaults[name] = value
            continue
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        # argparse converts a string default with the flag's type but checks no choices
        if action.choices and text not in action.choices:
            raise UsageError(f"{name} must be one of {action.choices}, got {text!r}")
        defaults[name] = text
    if "out" in actions and os.environ.get(ENV_OUTPUT_DIR):
        defaults["out"] = os.environ[ENV_OUTPUT_DIR]
    return defaults


def _out_dir(cfg: argparse.Namespace) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _utf8_text(text: str, errors: str = "strict") -> str:
    """Command-line ``text`` as its file-system bytes read as UTF-8, whatever
    the locale decoded argv with; ``errors`` handles bytes that are not UTF-8."""
    return os.fsencode(text).decode("utf-8", errors)


def _write_manifest(cfg: argparse.Namespace) -> None:
    """Echo ``cfg``'s settings, each string as UTF-8 text with any other byte written \\xNN."""
    def text(value):
        return _utf8_text(value, "backslashreplace") if isinstance(value, str) else value
    manifest = {"version": __version__, **vars(cfg)}
    del manifest["config"]
    manifest = {k: [text(v) for v in value] if isinstance(value, list) else text(value)
                for k, value in manifest.items()}
    _write_json(Path(cfg.out) / f"{cfg.subcommand}.manifest.json", manifest)


def _load_data(cfg: argparse.Namespace) -> Dataset:
    if cfg.data and cfg.synthetic:
        raise UsageError("choose one dataset source: --data DIR or --synthetic")
    if cfg.data:
        return load_dataset(cfg.data)
    if cfg.synthetic:
        return gen_synthetic(cfg.seed, cfg.classes, cfg.per_class, cfg.side)
    raise UsageError("need a dataset: --data DIR or --synthetic")


@contextmanager
def _scorer(cfg: argparse.Namespace, dataset: Dataset | None = None):
    """Yield (row name, scorer) from --checkpoint or --provider; a provider is closed on exit.

    A checkpoint that names its classes must name ``dataset``'s, in the same
    order: label indices mean nothing otherwise.  A provider's class names
    are its own labels and are not compared.
    """
    if bool(cfg.checkpoint) == bool(cfg.provider):
        raise UsageError("exactly one model source required: --checkpoint PATH, --provider CMD")
    if cfg.checkpoint:
        # The row name is UTF-8 text, so every output file can hold it.
        try:
            name = _utf8_text(Path(cfg.checkpoint).stem)
        except UnicodeDecodeError:
            raise ValueError(f"checkpoint {cfg.checkpoint}: file name is not UTF-8 text, "
                             "and its stem names the table row") from None
        model = load_model(cfg.checkpoint)
        if dataset is not None and model.class_names and model.class_names != dataset.class_names:
            raise ValueError(f"checkpoint {cfg.checkpoint} scores classes {model.class_names}, "
                             f"but the dataset lists classes {dataset.class_names}")
        yield name, model
        return
    with provider_connect(shlex.split(cfg.provider)) as client:
        yield "provider", client


def _overlay_stems(dataset: Dataset) -> list:
    """One overlay file-name stem per image; two ids with one stem are refused."""
    owners = {}
    for item in dataset.items:
        stem = "".join(c if c.isalnum() or c in "-_." else "_" for c in item.id)
        if owners.setdefault(stem, item.id) != item.id:
            raise ValueError(f"images {owners[stem]!r} and {item.id!r} would write the same "
                             f"overlay files {stem}_q*")
    return list(owners)


def cmd_degrade(cfg: argparse.Namespace) -> int:
    img = read_image(cfg.input_path)
    out = degrade_jpeg(img, cfg.quality)
    write_image(cfg.output_path, out)
    print(f"wrote {cfg.output_path} (quality {cfg.quality})")
    return 0


def cmd_train(cfg: argparse.Namespace) -> int:
    dataset = _load_data(cfg)
    # train and mean_loss each stack every image: read each file once for both
    dataset = Dataset([DatasetItem(it.pixels, it.label, it.id) for it in dataset.items],
                      dataset.class_names)
    model = new_scorer(cfg.seed, dataset.image_shape, cfg.hidden, cfg.embed_dim,
                       dataset.num_classes, cfg.temperature, dataset.class_names)
    model = train(model, dataset, TrainConfig(lr=cfg.lr, epochs=cfg.epochs,
                                              batch=cfg.batch, seed=cfg.seed))
    out_dir = _out_dir(cfg)
    path = out_dir / "checkpoint.json"
    save_model(model, path)
    print(f"trained on {len(dataset.items)} images, "
          f"mean loss {mean_loss(model, dataset):.4f}")
    print(f"wrote {path}")
    return 0


def _write_table_and_chart(cfg: argparse.Namespace, table) -> Path:
    """Render table.csv, table.md and chart.svg, then make the output
    directory, write them and print the CSV table: a table that cannot be
    charted writes nothing."""
    texts = {"table.csv": emit_table(table, "csv"), "table.md": emit_table(table, "markdown"),
             "chart.svg": emit_chart_svg(table, cfg.metric.replace("_", " "))}
    out_dir = _out_dir(cfg)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    print(texts["table.csv"], end="")
    return out_dir


def cmd_sweep(cfg: argparse.Namespace) -> int:
    dataset = _load_data(cfg)
    with _scorer(cfg, dataset) as (name, scorer):
        table = sweep_precision(scorer, dataset, cfg.qualities, metric=cfg.metric, name=name)
    out_dir = _write_table_and_chart(cfg, table)
    write_precision_csv(table, out_dir / "precision.csv")
    print(f"wrote precision.csv, table.csv, table.md, chart.svg to {out_dir}")
    return 0


def _write_overlays(out_dir: Path, stem: str, att) -> dict:
    """Write one ``<stem>_<mode>.ppm`` per polarity mode of the map ``att``
    over its baseline; returns their ``ig_scale`` and mode -> file name."""
    pol = split_polarity(att.values)
    files = {}
    for mode in POLARITY_MODES:
        fname = f"{stem}_{mode}.ppm"
        write_image(out_dir / fname, render_overlay(att.baseline, pol, mode))
        files[mode] = fname
    return {"ig_scale": pol.scale, "files": files}


def _overlay_quality(cfg: argparse.Namespace):
    numeric = [q for q in cfg.qualities if q != ORIGINAL]
    if cfg.overlay_quality is None:
        return min(numeric)
    if cfg.overlay_quality not in numeric:
        raise UsageError(f"--overlay-quality {cfg.overlay_quality} not in {numeric}")
    return cfg.overlay_quality


def cmd_attribute(cfg: argparse.Namespace) -> int:
    overlay_q = _overlay_quality(cfg)
    dataset = _load_data(cfg)
    stems = _overlay_stems(dataset)
    with _scorer(cfg, dataset) as (_, scorer):
        maps = attribute_batch(scorer, dataset, cfg.qualities,
                               steps=cfg.steps, scheme=cfg.scheme)
    out_dir = _out_dir(cfg)
    write_attribution_csv(dataset, cfg.qualities, maps, out_dir / "attributions.csv")
    overlay_meta = []
    for item, stem, by_q in zip(dataset.items, stems, maps):
        try:
            written = _write_overlays(out_dir, f"{stem}_q{overlay_q}", by_q[overlay_q])
        except (ValueError, OSError) as exc:
            raise RuntimeError(f"overlay failed on image {item.id!r} "
                               f"at quality {overlay_q}: {exc}") from exc
        overlay_meta.append({"id": item.id, "quality": overlay_q, **written})
    _write_json(out_dir / "overlays.json", overlay_meta)
    print(f"attributed {len(maps)} images at steps={cfg.steps} ({cfg.scheme}); "
          f"wrote attributions.csv and "
          f"{sum(len(m['files']) for m in overlay_meta)} overlays to {out_dir}")
    return 0


def cmd_overlay(cfg: argparse.Namespace) -> int:
    if not cfg.input_path:
        raise UsageError("overlay needs --in")
    if cfg.label is None:
        raise UsageError("overlay needs --label")
    if cfg.quality == ORIGINAL:
        raise UsageError("overlay needs a compressed --quality, got original")
    img = read_image(cfg.input_path)
    with _scorer(cfg) as (_, scorer):
        check_labels([cfg.label], 1, scorer.num_classes)
        one = Dataset([DatasetItem(img, cfg.label, str(cfg.input_path))],
                      [str(k) for k in range(scorer.num_classes)])  # classes: label indices
        att = attribute_batch(scorer, one, [ORIGINAL, cfg.quality],
                              cfg.steps, cfg.scheme)[0][cfg.quality]
    out_dir = _out_dir(cfg)
    written = _write_overlays(out_dir, "overlay", att)
    _write_json(out_dir / "overlay.json",
                {"quality": str(cfg.quality), "label": cfg.label, "ig_sum": att.sum,
                 "completeness_gap": att.completeness_gap, **written})
    print(f"IG sum {att.sum:.6f} (gap {att.completeness_gap:.2e}), "
          f"wrote {', '.join(written['files'].values())} to {out_dir}")
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    results = run_checks(cfg.seed, names=cfg.checks)
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _sweep_metric(source: Path) -> str:
    """The metric recorded by the sweep manifest beside ``source``, else macro_precision."""
    path = source.parent / "sweep.manifest.json"
    if not path.is_file():
        return "macro_precision"
    metric = read_json_object(path, str(path)).get("metric")
    if metric not in METRICS:
        raise ValueError(f"{path}: metric {metric!r} is not one of {sorted(METRICS)}")
    return metric


def cmd_report(cfg: argparse.Namespace) -> int:
    if not cfg.source:
        raise UsageError("report needs --from (precision.csv or a directory holding one)")
    source = Path(cfg.source)
    if source.is_dir():
        source = source / "precision.csv"
    table = read_precision_csv(source)
    cfg.metric = cfg.metric or _sweep_metric(source)
    out_dir = _write_table_and_chart(cfg, table)
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


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of defaults for this subcommand's flags")


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", "-o", default="igprobe_out", help="output directory")


def _add_dataset(p: argparse.ArgumentParser) -> None:
    """The dataset flags of train, sweep and attribute."""
    _add_config(p)
    _add_seed(p)
    _add_out(p)
    p.add_argument("--data", help="dataset directory with labels.csv")
    p.add_argument("--synthetic", action="store_true",
                   help="generate the seeded synthetic dataset")
    p.add_argument("--classes", type=_setting(check_synthetic_setting, "classes"), default=4)
    p.add_argument("--per-class", type=_setting(check_synthetic_setting, "per_class"), default=50)
    p.add_argument("--side", type=_setting(check_synthetic_setting, "side"), default=32)


def _add_model_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", help="scorer checkpoint JSON")
    p.add_argument("--provider", help="gradient provider command line")


def _add_sweep(p: argparse.ArgumentParser) -> None:
    _add_dataset(p)
    _add_model_source(p)
    p.add_argument("--qualities", type=lambda text: check_qualities(_comma_list(str)(text)),
                   default="original,75,50,25",
                   help="comma list (default %(default)s)")


def _add_path_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=lambda text: check_quadrature(int(text)),
                   default=DEFAULT_STEPS, help="quadrature step count N")
    p.add_argument("--scheme", choices=SCHEMES, default=DEFAULT_SCHEME)


def _add_metric(p: argparse.ArgumentParser, default) -> None:
    p.add_argument("--metric", choices=sorted(METRICS), default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igprobe",
        description="Probe classifier degradation under JPEG compression "
                    "with integrated-gradients attributions.",
        allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"igprobe {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("degrade", help="JPEG-degrade one image file", allow_abbrev=False)
    p.add_argument("--quality", type=check_quality, required=True)
    p.add_argument("--in", dest="input_path", required=True)
    p.add_argument("--out", dest="output_path", required=True)

    p = sub.add_parser("train", help="train the scorer on a dataset", allow_abbrev=False)
    _add_dataset(p)
    p.add_argument("--hidden", type=_comma_list(_setting(check_train_setting, "hidden")),
                   default=[64], help="comma list of hidden widths")
    p.add_argument("--embed-dim", type=_setting(check_train_setting, "embed_dim"), default=32)
    p.add_argument("--temperature", type=_setting(check_train_setting, "temperature", float),
                   default=100.0)
    p.add_argument("--lr", type=_setting(check_train_setting, "lr", float), default=0.05)
    p.add_argument("--epochs", type=_setting(check_train_setting, "epochs"), default=30)
    p.add_argument("--batch", type=_setting(check_train_setting, "batch"), default=16)

    p = sub.add_parser("sweep", help="precision over a quality sweep", allow_abbrev=False)
    _add_sweep(p)
    _add_metric(p, "macro_precision")

    p = sub.add_parser("attribute", help="per-image attributions and overlays", allow_abbrev=False)
    _add_sweep(p)
    _add_path_params(p)
    p.add_argument("--overlay-quality", type=int,
                   help="quality whose attribution is rendered (default: lowest)")

    p = sub.add_parser("overlay", help="polarity overlays for one image", allow_abbrev=False)
    _add_config(p)
    _add_out(p)
    _add_model_source(p)
    _add_path_params(p)
    p.add_argument("--in", dest="input_path")
    p.add_argument("--label", type=int)
    p.add_argument("--quality", type=check_quality, default=25)

    p = sub.add_parser("verify", help="run the numerical verification suite", allow_abbrev=False)
    _add_config(p)
    _add_seed(p)
    p.add_argument("--checks", type=_check_names, help="comma list; available: "
                   + ",".join(name for name, _ in CHECKS))

    p = sub.add_parser("report", help="re-render tables and chart from stored CSV",
                       allow_abbrev=False)
    _add_config(p)
    _add_out(p)
    p.add_argument("--from", dest="source", help="precision.csv or its directory")
    _add_metric(p, None)  # None: the sweep's own metric, see _sweep_metric

    for p in sub.choices.values():
        for action in p._actions:
            if action.type is not None:
                action.type = _usage_type(action.dest, action.type)
    return parser


def main(argv=None) -> int:
    # What an output stream's encoding cannot hold is printed escaped and fails no run.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        subparsers = next(a for a in parser._actions if a.dest == "subcommand").choices
        subparsers[args.subcommand].set_defaults(**_outside_defaults(args, subparsers))
        args = parser.parse_args(argv)
        code = COMMANDS[args.subcommand](args)
        if "out" in vars(args):  # degrade's --out is its output image; verify writes nothing
            _write_manifest(args)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
