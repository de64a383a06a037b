#!/usr/bin/env python3
"""End-to-end desk-scale run: synthetic corpus -> trained micro-scorer ->
precision-vs-quality sweep -> per-image attributions and polarity overlays.

Everything is seeded, so two runs with the same arguments produce
byte-identical artifacts (table, chart, CSVs, overlays).
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from igprobe.attribution import split_polarity
from igprobe.codec import ORIGINAL
from igprobe.data import gen_synthetic
from igprobe.harness import (attribute_batch, prepare_input, sweep_precision,
                             write_attribution_csv, write_precision_csv)
from igprobe.imgio import write_image
from igprobe.model import TrainConfig, new_scorer, save_model, train
from igprobe.verify import format_results, run_checks
from igprobe.viz import ChartSpec, OverlaySpec, emit_chart_svg, emit_table, render_overlay


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("desk_run"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--side", type=int, default=32)
    parser.add_argument("--qualities", type=int, nargs="*", default=[75, 50, 25])
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--lr", type=float, default=0.2)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--attribute-count", type=int, default=8,
                        help="how many images get attribution maps + overlays")
    parser.add_argument("--skip-verify", action="store_true")
    args = parser.parse_args()

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    qualities = [ORIGINAL] + [q for q in args.qualities if q != ORIGINAL]

    if not args.skip_verify:
        results = run_checks(seed=args.seed)
        print(format_results(results))
        if not all(r.passed for r in results):
            raise SystemExit("verification failed; not running the experiment")

    t0 = time.time()
    data = gen_synthetic(args.seed, args.classes, args.per_class, args.side)
    print(f"corpus: {len(data.items)} images, {data.num_classes} classes "
          f"({time.time() - t0:.1f}s)")

    t0 = time.time()
    model = new_scorer(args.seed + 1, (args.side, args.side, 3), (64,), 32,
                       args.classes, class_names=data.class_names)
    model = train(model, data, TrainConfig(lr=args.lr, epochs=args.epochs,
                                           batch=args.batch, seed=args.seed))
    save_model(model, out / "checkpoint.json")
    print(f"trained {args.epochs} epochs ({time.time() - t0:.1f}s)")

    t0 = time.time()
    table = sweep_precision(model, data, qualities=qualities)
    write_precision_csv(table, out / "precision.csv")
    (out / "table.md").write_text(emit_table(table, "markdown"))
    (out / "chart.svg").write_text(emit_chart_svg(table, ChartSpec(
        title="Macro precision vs JPEG quality")))
    print(emit_table(table, "markdown"))
    print(f"sweep over {len(qualities)} qualities ({time.time() - t0:.1f}s)")

    t0 = time.time()
    subset = data.items[:: max(1, len(data.items) // args.attribute_count)]
    subset = subset[: args.attribute_count]
    batch = attribute_batch(model, type(data)(items=subset, class_names=data.class_names),
                            qualities=qualities, steps=args.steps)
    write_attribution_csv(batch, out / "attributions.csv")
    low = min(q for q in qualities if q != ORIGINAL)
    for item, record, maps in zip(subset, batch.records, batch.maps):
        amap = maps[low]
        polar = split_polarity(amap)
        degraded = prepare_input(item.image, low)
        for mode in ("both", "negative", "positive"):
            img = render_overlay(degraded, polar, OverlaySpec(polarity=mode))
            write_image(out / f"{record.id}_q{low}_{mode}.ppm", img)
        print(f"  {record.id}: sum IG={amap.sum:+.4f} scale={polar.scale:.4f}")
    print(f"attributed {len(batch.records)} images at q={low} "
          f"({time.time() - t0:.1f}s)")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
