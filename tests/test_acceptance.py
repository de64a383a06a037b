"""Acceptance gate: numbered numerical criteria, one printed line each.

Criteria 1-10 are self-contained and CI-gating.  Criteria 1-6 and 8-10
run the ``igprobe verify`` checks at seed 1, so the test suite and the
CLI audit share one implementation of each check.  Criterion 11 drives a
user-supplied full-scale scorer over the wire protocol and only runs when
the environment points at one.
"""

import math
import os
import shlex
import time

import pytest

from igprobe.codec import ORIGINAL
from igprobe.data import gen_synthetic
from igprobe.harness import PrecisionTable, sweep_precision, write_precision_csv
from igprobe.model import TrainConfig, new_scorer, train
from igprobe.provider import provider_connect
from igprobe.verify import (check_dct_identities, check_gradient_check,
                            check_linear_exactness, check_micromodel_completeness,
                            check_overlay_contract, check_polarity_bounds,
                            check_protocol_roundtrip, check_psnr_ordering,
                            check_quadrature_convergence, check_resize_identities)
from igprobe.viz import emit_chart_svg, emit_table

SEED = 1


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def run_criterion(n: int, *checks, seconds: float = math.inf) -> None:
    """Report criterion ``n`` from verify checks and a wall-time bound."""
    t0 = time.perf_counter()
    outcomes = [check(SEED) for check in checks]
    elapsed = time.perf_counter() - t0
    ok = all(passed for passed, _ in outcomes) and elapsed < seconds
    report(n, ok, "; ".join(detail for _, detail in outcomes) + f" [{elapsed:.2f}s]")


def test_criterion_01_linear_exactness():
    run_criterion(1, check_linear_exactness, seconds=1.0)


def test_criterion_02_quadrature_completeness_and_order():
    run_criterion(2, check_quadrature_convergence, seconds=1.0)


def test_criterion_03_micromodel_completeness():
    run_criterion(3, check_micromodel_completeness, seconds=120.0)


def test_criterion_04_gradient_check():
    run_criterion(4, check_gradient_check, seconds=60.0)


def test_criterion_05_codec_identities():
    run_criterion(5, check_dct_identities, check_psnr_ordering, seconds=5.0)


def test_criterion_06_resize_identities():
    run_criterion(6, check_resize_identities)


def test_criterion_07_precision_degrades_with_quality():
    t0 = time.perf_counter()
    data = gen_synthetic(1, classes=4, per_class=200, side=32)
    model = new_scorer(2, (32, 32, 3), (64,), 32, 4, class_names=data.class_names)
    model = train(model, data, TrainConfig(lr=0.2, epochs=40, batch=8, seed=1))
    qualities = [ORIGINAL, 75, 50, 25]
    table = sweep_precision(model, data, qualities)
    s = [table.rows["model"][q] for q in qualities]
    drop = s[0] - s[-1]
    inversions = [(b - a) for a, b in zip(s, s[1:]) if b > a]
    elapsed = time.perf_counter() - t0
    ok = (drop >= 0.05 and len(inversions) <= 1
          and all(v <= 0.02 for v in inversions) and elapsed < 300.0)
    report(7, ok, f"macro precision {', '.join(f'{v:.4f}' for v in s)} over "
                  f"{{original,75,50,25}}; drop {drop:.4f}, "
                  f"{len(inversions)} inversion(s) [{elapsed:.1f}s]")


def test_criterion_08_swap_antisymmetry_and_polarity_bounds():
    run_criterion(8, check_polarity_bounds)


def test_criterion_09_overlay_and_emission_stability(tmp_path):
    t0 = time.perf_counter()
    overlay_ok, overlay_detail = check_overlay_contract(SEED)
    table = PrecisionTable(rows={"m": {ORIGINAL: 0.7141, 75: 0.5457, 50: 0.4689, 25: 0.3562}},
                           qualities=[ORIGINAL, 75, 50, 25])
    svg_stable = emit_chart_svg(table) == emit_chart_svg(table)
    csv_stable = emit_table(table) == emit_table(table)
    write_precision_csv(table, tmp_path / "a.csv")
    write_precision_csv(table, tmp_path / "b.csv")
    file_stable = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    ok = overlay_ok and svg_stable and csv_stable and file_stable
    report(9, ok, f"{overlay_detail}; SVG/CSV byte-stable: "
                  f"{svg_stable and csv_stable and file_stable} [{elapsed:.1f}s]")


def test_criterion_10_protocol_oracle_equivalence():
    run_criterion(10, check_protocol_roundtrip, seconds=10.0)


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
    client = provider_connect(shlex.split(REAL_PROVIDER))
    try:
        table = sweep_precision(client, dataset, [ORIGINAL, 75, 50, 25])
    finally:
        client.close()
    got = [table.rows["model"][q] for q in (ORIGINAL, 75, 50, 25)]
    worst = max(abs(g - r) for g, r in zip(got, REFERENCE_ROW))
    ok = worst <= 0.02
    report(11, ok, f"reference row {got} vs {REFERENCE_ROW}, worst cell diff {worst:.4f}")
