"""Acceptance gate: numbered numerical criteria, one printed line each.

Criteria 1-10 are self-contained and CI-gating.  Criterion 11 drives a
user-supplied full-scale scorer over the wire protocol and only runs when
the environment points at one.
"""

import os
import shlex
import sys
import time

import numpy as np
import pytest

from igprobe.attribution import (
    AttributionMap,
    PathSpec,
    completeness_report,
    integrated_gradients,
    split_polarity,
)
from igprobe.codec import (
    CHROMA_BASE,
    LUMA_BASE,
    ORIGINAL,
    cubic_kernel,
    dct8x8,
    degrade_jpeg,
    idct8x8,
    psnr,
    quant_table,
    resize_bicubic,
)
from igprobe.data import gen_synthetic
from igprobe.harness import PrecisionRow, PrecisionTable, sweep_precision, write_precision_csv
from igprobe.model import (
    LossGrads,
    TrainConfig,
    gradient_check,
    linear_model_weights,
    linear_softmax_gradfn,
    model_gradfn,
    new_scorer,
    train,
)
from igprobe.provider import ProviderSpec, provider_connect
from igprobe.tensor import SeededRng
from igprobe.viz import OverlaySpec, emit_chart_svg, emit_table, render_overlay


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def linear_scalar_gradfn(w: np.ndarray):
    def fn(x: np.ndarray, labels) -> LossGrads:
        losses = np.sum(w * x, axis=tuple(range(1, x.ndim)))
        return LossGrads(losses=losses, grads=np.broadcast_to(w, x.shape).copy(),
                         logits=losses[:, None])
    return fn


def scalar_power_gradfn(p: int):
    # loss = x^p on scalar paths, one row per path node
    def fn(x: np.ndarray, labels) -> LossGrads:
        v = x.reshape(len(x))
        return LossGrads(losses=v ** p, grads=(p * v ** (p - 1)).reshape(x.shape),
                         logits=(v ** p)[:, None])
    return fn


def test_criterion_01_linear_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = SeededRng(100 + seed)
        w = rng.normal([4, 5, 3])
        x0 = rng.uniform([4, 5, 3])
        x1 = rng.uniform([4, 5, 3])
        fn = linear_scalar_gradfn(w)
        exact = w * (x1 - x0)
        for scheme in ("riemann_right", "trapezoid"):
            for steps in (1, 5, 50):
                att = integrated_gradients(fn, PathSpec(x0, x1, steps, scheme), 0)
                worst = max(worst, float(np.max(np.abs(att.values - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"linear IG exact per component to {worst:.3e} "
                  f"(20 seeds, both schemes, N in {{1,5,50}}) [{elapsed:.2f}s]")


def test_criterion_02_quadrature_completeness_and_order():
    t0 = time.perf_counter()
    x0, x1 = np.zeros(1), np.ones(1)
    quad, quart = scalar_power_gradfn(2), scalar_power_gradfn(4)
    r4 = integrated_gradients(quad, PathSpec(x0, x1, 4, "riemann_right"), 0).sum
    t4 = integrated_gradients(quad, PathSpec(x0, x1, 4, "trapezoid"), 0).sum
    ns = np.array([4, 8, 16, 32, 64], dtype=np.float64)
    # trapezoid is already exact on the quadratic, so its order is probed
    # on the quartic where the gap is nonzero
    r_gaps = [integrated_gradients(quad, PathSpec(x0, x1, int(n), "riemann_right"), 0)
              .completeness_gap for n in ns]
    t_gaps = [integrated_gradients(quart, PathSpec(x0, x1, int(n), "trapezoid"), 0)
              .completeness_gap for n in ns]
    r_slope = float(np.polyfit(np.log(ns), np.log(r_gaps), 1)[0])
    t_slope = float(np.polyfit(np.log(ns), np.log(t_gaps), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (abs(r4 - 1.25) < 1e-12 and abs(t4 - 1.0) < 1e-12
          and abs(r_slope + 1.0) <= 0.3 and abs(t_slope + 2.0) <= 0.3
          and elapsed < 1.0)
    report(2, ok, f"riemann N=4 sum {r4:.12f}, trapezoid N=4 sum {t4:.12f}, "
                  f"gap slopes {r_slope:+.3f}/{t_slope:+.3f} [{elapsed:.2f}s]")


def test_criterion_03_micromodel_completeness():
    t0 = time.perf_counter()
    data = gen_synthetic(11, classes=4, per_class=3, side=16)
    model = new_scorer(12, (16, 16, 3), (32,), 16, 4)
    model = train(model, data, TrainConfig(lr=0.05, epochs=8, batch=8, seed=1))
    fn = model_gradfn(model)
    worst_rel, shrank = 0.0, 0
    pairs = data.items[:10]
    for item in pairs:
        target = degrade_jpeg(item.image, 25)
        a50 = integrated_gradients(fn, PathSpec(item.image, target, 50), item.label)
        a300 = integrated_gradients(fn, PathSpec(item.image, target, 300), item.label)
        worst_rel = max(worst_rel, completeness_report(a50)["rel_gap"])
        shrank += a300.completeness_gap <= a50.completeness_gap
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 0.02 and shrank >= 9 and elapsed < 120.0
    report(3, ok, f"worst rel gap at N=50 {worst_rel:.4%} over {len(pairs)} "
                  f"baseline/q25 pairs, gap shrank at N=300 in {shrank}/10 [{elapsed:.1f}s]")


def test_criterion_04_gradient_check():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(10):
        model = new_scorer(1 + i, (8, 8, 3), (24,), 12, 4, 10.0)
        image = SeededRng(97 + i).uniform([8, 8, 3])
        result = gradient_check(model, image, i % 4, h=1e-5)
        worst = max(worst, result["max_rel_err"])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    report(4, ok, f"max relative backprop-vs-central-difference error {worst:.3e} "
                  f"over 10 model/image pairs, kink pixels excluded [{elapsed:.1f}s]")


def test_criterion_05_codec_identities():
    t0 = time.perf_counter()
    block = SeededRng(3).normal([8, 8])
    roundtrip = float(np.max(np.abs(idct8x8(dct8x8(block)) - block)))
    parseval = abs(float(np.sum(dct8x8(block) ** 2) - np.sum(block ** 2)))
    t50, t100 = quant_table(50), quant_table(100)
    base_ok = (np.array_equal(t50.luma, LUMA_BASE)
               and np.array_equal(t50.chroma, CHROMA_BASE))
    ones_ok = (np.all(t100.luma == 1) and np.all(t100.chroma == 1))
    img = gen_synthetic(1, classes=4, per_class=1, side=32).items[0].image
    p = {q: psnr(img, degrade_jpeg(img, q)) for q in (95, 75, 50, 25)}
    ordered = p[95] >= p[75] >= p[50] >= p[25]
    elapsed = time.perf_counter() - t0
    ok = (roundtrip < 1e-12 and parseval < 1e-12 and base_ok and ones_ok
          and ordered and elapsed < 5.0)
    report(5, ok, f"DCT round-trip {roundtrip:.2e}, Parseval {parseval:.2e}, "
                  f"q50=base {base_ok}, q100=ones {ones_ok}, PSNR "
                  f"{p[95]:.2f}>={p[75]:.2f}>={p[50]:.2f}>={p[25]:.2f} dB [{elapsed:.1f}s]")


def test_criterion_06_resize_identities():
    t0 = time.perf_counter()
    const = np.full((7, 9, 3), 0.37)
    const_ok = np.array_equal(resize_bicubic(const, 13, 11), np.full((13, 11, 3), 0.37))
    img = SeededRng(8).uniform([12, 17, 3])
    same = float(np.max(np.abs(resize_bicubic(img, 12, 17) - img)))
    fracs = (np.arange(1000) + 0.5) / 1000.0
    sums = sum(cubic_kernel(fracs - off) for off in (-1.0, 0.0, 1.0, 2.0))
    partition = float(np.max(np.abs(sums - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = const_ok and same <= 1e-12 and partition <= 1e-12
    report(6, ok, f"constant exact {const_ok}, same-size identity {same:.2e}, "
                  f"partition of unity {partition:.2e} over 1000 offsets [{elapsed:.1f}s]")


def test_criterion_07_precision_degrades_with_quality():
    t0 = time.perf_counter()
    data = gen_synthetic(1, classes=4, per_class=200, side=32)
    model = new_scorer(2, (32, 32, 3), (64,), 32, 4, class_names=data.class_names)
    model = train(model, data, TrainConfig(lr=0.2, epochs=40, batch=8, seed=1))
    qualities = [ORIGINAL, 75, 50, 25]
    table = sweep_precision(model, data, qualities)
    s = [table.rows[0].scores[q] for q in qualities]
    drop = s[0] - s[-1]
    inversions = [(b - a) for a, b in zip(s, s[1:]) if b > a]
    elapsed = time.perf_counter() - t0
    ok = (drop >= 0.05 and len(inversions) <= 1
          and all(v <= 0.02 for v in inversions) and elapsed < 300.0)
    report(7, ok, f"macro precision {', '.join(f'{v:.4f}' for v in s)} over "
                  f"{{original,75,50,25}}; drop {drop:.4f}, "
                  f"{len(inversions)} inversion(s) [{elapsed:.1f}s]")


def test_criterion_08_swap_antisymmetry_and_polarity_bounds():
    t0 = time.perf_counter()
    model = new_scorer(31, (8, 8, 3), (16,), 8, 3)
    fn = model_gradfn(model)
    rng = SeededRng(32)
    swap_exact = True
    for _ in range(3):
        x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
        for steps in (1, 2, 7, 50):
            fwd = integrated_gradients(fn, PathSpec(x0, x1, steps, "trapezoid"), 1)
            rev = integrated_gradients(fn, PathSpec(x1, x0, steps, "trapezoid"), 1)
            swap_exact &= np.array_equal(rev.values, -fwd.values)
    bounds_ok = True
    frng = SeededRng(33)
    for i in range(1000):
        vals = frng.normal([6, 5, 3]) * (0.01 + 10.0 * frng.uniform([1])[0])
        if i % 100 == 0:
            vals = np.zeros_like(vals)
        att = AttributionMap(values=vals, sum=float(vals.sum()), loss_baseline=0.0,
                             loss_target=float(vals.sum()), completeness_gap=0.0)
        pol = split_polarity(att)
        bounds_ok &= bool(np.all(pol.negative >= -1.0) and np.all(pol.negative <= 0.0)
                          and np.all(pol.positive >= 0.0) and np.all(pol.positive <= 1.0))
    elapsed = time.perf_counter() - t0
    ok = swap_exact and bounds_ok
    report(8, ok, f"baseline/target swap negates IG exactly: {swap_exact}; "
                  f"polarity bounds held on 1000 fuzzed maps: {bounds_ok} [{elapsed:.1f}s]")


def test_criterion_09_overlay_and_emission_stability(tmp_path):
    t0 = time.perf_counter()
    img = SeededRng(41).uniform([6, 7, 3])
    zero = AttributionMap(values=np.zeros((6, 7, 3)), sum=0.0, loss_baseline=0.0,
                          loss_target=0.0, completeness_gap=0.0)
    pol_zero = split_polarity(zero)
    dim_ok = all(np.array_equal(render_overlay(img, pol_zero, OverlaySpec(polarity=m)),
                                0.7 * img)
                 for m in ("negative", "positive", "both"))
    rng = SeededRng(42)
    in_bounds = True
    for _ in range(50):
        vals = rng.normal([6, 7, 3]) * 3.0
        att = AttributionMap(values=vals, sum=float(vals.sum()), loss_baseline=0.0,
                             loss_target=0.0, completeness_gap=0.0)
        out = render_overlay(img, split_polarity(att))
        in_bounds &= bool(np.all(out >= 0.0) and np.all(out <= 1.0))
    table = PrecisionTable(rows=[PrecisionRow("m", {ORIGINAL: 0.7141, 75: 0.5457,
                                                    50: 0.4689, 25: 0.3562})],
                           qualities=[ORIGINAL, 75, 50, 25])
    svg_stable = emit_chart_svg(table) == emit_chart_svg(table)
    csv_stable = emit_table(table) == emit_table(table)
    write_precision_csv(table, tmp_path / "a.csv")
    write_precision_csv(table, tmp_path / "b.csv")
    file_stable = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = dim_ok and in_bounds and svg_stable and csv_stable and file_stable
    report(9, ok, f"zero-IG overlay is 0.7*image: {dim_ok}; outputs in [0,1]: "
                  f"{in_bounds}; SVG/CSV byte-stable: {svg_stable and csv_stable and file_stable} "
                  f"[{elapsed:.1f}s]")


def test_criterion_10_protocol_oracle_equivalence():
    t0 = time.perf_counter()
    side, classes = 8, 4
    weights, bias = linear_model_weights(0, classes, side * side * 3)
    local = linear_softmax_gradfn(weights, bias)
    rng = SeededRng(55)
    x0, x1 = rng.uniform([side, side, 3]), rng.uniform([side, side, 3])
    spec = ProviderSpec([sys.executable, "-m", "igprobe.mock_provider"])
    with provider_connect(spec) as wire:
        att_wire = integrated_gradients(wire, PathSpec(x0, x1, 16, "trapezoid"), 2)
    att_local = integrated_gradients(local, PathSpec(x0, x1, 16, "trapezoid"), 2)
    comp = float(np.max(np.abs(att_wire.values - att_local.values)))
    total = abs(att_wire.sum - att_local.sum)
    elapsed = time.perf_counter() - t0
    ok = comp < 1e-6 and total < 1e-6 and elapsed < 10.0
    report(10, ok, f"wire vs in-process IG: max component diff {comp:.3e}, "
                   f"sum diff {total:.3e} [{elapsed:.1f}s]")


REAL_PROVIDER = os.environ.get("IGPROBE_REAL_PROVIDER")
REAL_DATA = os.environ.get("IGPROBE_EVAL_DATA")
REFERENCE_ROW = (0.7141, 0.5457, 0.4689, 0.3562)  # ResNet50 on CIFAR-10 test


@pytest.mark.skipif(
    not (REAL_PROVIDER and REAL_DATA),
    reason="full-scale integration: set IGPROBE_REAL_PROVIDER (provider command) "
           "and IGPROBE_EVAL_DATA (dataset directory)")
def test_criterion_11_full_scale_reference_row():
    from igprobe.data import load_dataset

    dataset = load_dataset(REAL_DATA)
    client = provider_connect(ProviderSpec(shlex.split(REAL_PROVIDER)))
    try:
        table = sweep_precision(client, dataset, [ORIGINAL, 75, 50, 25])
    finally:
        client.close()
    got = [table.rows[0].scores[q] for q in (ORIGINAL, 75, 50, 25)]
    worst = max(abs(g - r) for g, r in zip(got, REFERENCE_ROW))
    ok = worst <= 0.02
    report(11, ok, f"reference row {got} vs {REFERENCE_ROW}, worst cell diff {worst:.4f}")
