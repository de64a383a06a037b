"""Numerical verification suite: every check is a named, seeded witness
of one contract (exactness, convergence order, codec identities, bounds).

The CLI ``verify`` subcommand runs these and prints one pass/fail row
per check; acceptance criteria 1-6 and 8-10 run the same functions at
seed 1, so each check has one implementation and one strength.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

import numpy as np

from .attribution import PathSpec, SCHEMES, integrated_gradients, split_polarity
from .codec import (CHROMA_BASE, LUMA_BASE, cubic_kernel, dct8x8, degrade_jpeg,
                    idct8x8, psnr, quant_table, resize_bicubic)
from .data import gen_synthetic
from .model import (GradFn, LossGrads, TrainConfig, gradient_check, linear_model_weights,
                    linear_softmax_gradfn, new_scorer, train)
from .tensor import SeededRng
from .viz import render_overlay


def linear_loss_gradfn(w: np.ndarray, c: float = 0.0) -> GradFn:
    """Loss w . x + c per row; the gradient is the constant w."""
    w = np.asarray(w, dtype=np.float64)

    def fn(images, labels) -> LossGrads:
        x = np.asarray(images, dtype=np.float64)
        return LossGrads(losses=x.reshape(len(x), -1) @ w.reshape(-1) + c,
                         grads=np.broadcast_to(w, x.shape).copy(),
                         logits=np.zeros((len(x), 1)))

    return fn


def power_loss_gradfn(p: float) -> GradFn:
    """Loss sum(x ** p) per row with exact gradient, for quadrature oracles."""

    def fn(images, labels) -> LossGrads:
        x = np.asarray(images, dtype=np.float64)
        return LossGrads(losses=(x ** p).reshape(len(x), -1).sum(axis=1),
                         grads=p * x ** (p - 1.0),
                         logits=np.zeros((len(x), 1)))

    return fn


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def check_linear_exactness(seed: int) -> tuple[bool, str]:
    rng = SeededRng(seed)
    worst = 0.0
    for _ in range(20):
        w = rng.normal([4, 5, 3])
        x0, x1 = rng.uniform([4, 5, 3]), rng.uniform([4, 5, 3])
        fn = linear_loss_gradfn(w)
        expected = w * (x1 - x0)
        for scheme in SCHEMES:
            for steps in (1, 5, 50):
                att = integrated_gradients(fn, PathSpec(x0, x1, steps, scheme), 0)
                worst = max(worst, float(np.max(np.abs(att.values - expected))))
    return worst < 1e-12, (f"max |IG - w*dx| = {worst:.3e} over 20 trials, "
                           f"both schemes, N in {{1,5,50}}")


def check_quadrature_convergence(seed: int) -> tuple[bool, str]:
    """Exact N=4 sums on the quadratic loss, then log-log error slopes.

    The trapezoid rule integrates the quadratic's linear gradient with
    zero error, so its order-2 slope is measured on a quartic loss
    instead (gap 1/N^2 exactly); the right-Riemann slope uses the
    quadratic (gap 1/N exactly).
    """
    x0, x1 = np.zeros(1), np.ones(1)
    quad, quart = power_loss_gradfn(2.0), power_loss_gradfn(4.0)
    r4 = integrated_gradients(quad, PathSpec(x0, x1, 4, "riemann_right"), 0).sum
    t4 = integrated_gradients(quad, PathSpec(x0, x1, 4, "trapezoid"), 0).sum
    ns = np.array([4, 8, 16, 32, 64], dtype=np.float64)
    r_gaps = [integrated_gradients(quad, PathSpec(x0, x1, int(n), "riemann_right"), 0)
              .completeness_gap for n in ns]
    t_gaps = [integrated_gradients(quart, PathSpec(x0, x1, int(n), "trapezoid"), 0)
              .completeness_gap for n in ns]
    r_slope = float(np.polyfit(np.log(ns), np.log(r_gaps), 1)[0])
    t_slope = float(np.polyfit(np.log(ns), np.log(t_gaps), 1)[0])
    ok = (abs(r4 - 1.25) < 1e-12 and abs(t4 - 1.0) < 1e-12
          and abs(r_slope + 1.0) <= 0.3 and abs(t_slope + 2.0) <= 0.3)
    return ok, (f"riemann N=4 sum {r4:.12f}, trapezoid N=4 sum {t4:.12f}, "
                f"slopes {r_slope:+.3f} / {t_slope:+.3f}")


def check_micromodel_completeness(seed: int) -> tuple[bool, str]:
    # An untrained scorer has near-zero loss deltas between original and
    # compressed inputs, which inflates rel_gap; a briefly fitted one puts
    # the denominator on the scale the gap bound assumes.
    side = 16
    data = gen_synthetic(seed + 10, classes=4, per_class=3, side=side)
    model = new_scorer(seed + 11, (side, side, 3), (32,), 16, 4)
    model = train(model, data, TrainConfig(lr=0.05, epochs=8, batch=8, seed=seed))
    worst_rel = 0.0
    shrank = 0
    used = data.items[:10]
    for item in used:
        target = degrade_jpeg(item.image, 25)
        a50 = integrated_gradients(model, PathSpec(item.image, target, 50), item.label)
        a300 = integrated_gradients(model, PathSpec(item.image, target, 300), item.label)
        worst_rel = max(worst_rel, a50.rel_gap)
        shrank += a300.completeness_gap <= a50.completeness_gap
    ok = worst_rel < 0.02 and shrank >= len(used) - 1
    return ok, (f"worst rel_gap(N=50) = {worst_rel:.4%}, "
                f"gap shrank at N=300 in {shrank}/{len(used)} pairs")


def check_gradient_check(seed: int) -> tuple[bool, str]:
    # Temperature 10: at tau=100 the h=1e-5 central-difference oracle's own
    # truncation error can cross 1e-5 near logit crossings, so the bound
    # would flag the *oracle*, not the backprop under test.
    worst = 0.0
    for i in range(10):
        model = new_scorer(seed + i, (8, 8, 3), (24,), 12, 4, 10.0)
        img = SeededRng(seed * 97 + i).uniform([8, 8, 3])
        res = gradient_check(model, img, i % 4)
        worst = max(worst, res["max_rel_err"])
    return worst < 1e-5, (f"max relative gradient error = {worst:.3e} over 10 "
                          f"model/image pairs, kink pixels excluded")


def check_dct_identities(seed: int) -> tuple[bool, str]:
    block = SeededRng(seed).normal([8, 8])
    coef = dct8x8(block)
    round_trip = float(np.max(np.abs(idct8x8(coef) - block)))
    parseval = abs(float(np.sum(block ** 2)) - float(np.sum(coef ** 2)))
    q50, q100 = quant_table(50), quant_table(100)
    tables_ok = (np.array_equal(q50.luma, LUMA_BASE)
                 and np.array_equal(q50.chroma, CHROMA_BASE)
                 and np.all(q100.luma == 1) and np.all(q100.chroma == 1))
    ok = round_trip < 1e-12 and parseval < 1e-12 and tables_ok
    return ok, (f"round-trip {round_trip:.2e}, Parseval {parseval:.2e}, "
                f"q50 base / q100 ones: {tables_ok}")


def check_resize_identities(seed: int) -> tuple[bool, str]:
    const = np.full((9, 7, 3), 0.37)
    const_exact = bool(np.all(resize_bicubic(const, 23, 31) == 0.37))
    img = SeededRng(seed).uniform([12, 17, 3])
    same = float(np.max(np.abs(resize_bicubic(img, 12, 17) - img)))
    fracs = (np.arange(1000) + 0.5) / 1000.0
    sums = sum(cubic_kernel(fracs - off) for off in (-1.0, 0.0, 1.0, 2.0))
    partition = float(np.max(np.abs(sums - 1.0)))
    ok = const_exact and same <= 1e-12 and partition <= 1e-12
    return ok, (f"constant exact: {const_exact}, identity err {same:.2e}, "
                f"partition-of-unity err {partition:.2e}")


def check_polarity_bounds(seed: int) -> tuple[bool, str]:
    rng = SeededRng(seed)
    for i in range(1000):
        vals = rng.normal([6, 5, 3]) * 10.0 ** ((i % 7) - 3)
        if i % 100 == 0:
            vals = np.zeros_like(vals)
        pol = split_polarity(vals)
        if not (np.all(pol.negative <= 0.0) and np.all(pol.negative >= -1.0)
                and np.all(pol.positive >= 0.0) and np.all(pol.positive <= 1.0)):
            return False, f"bounds violated on trial {i}"
        merged = (pol.negative + pol.positive) * pol.scale
        interior = np.abs(vals) < pol.scale
        if np.max(np.abs(np.where(interior, merged - vals, 0.0))) > 1e-12:
            return False, f"reconstruction drifted on trial {i}"
    swap_exact = _swap_negation_exact(seed)
    return swap_exact, (f"1000 fuzzed maps in bounds; swap negation exact "
                        f"on the scorer and the cubic: {swap_exact}")


def _swap_negation_exact(seed: int) -> bool:
    """Swapping baseline and target must negate trapezoid IG bit for bit:
    three pairs at N in {1, 2, 7, 50} on a scorer, then on the cubic."""
    rng = SeededRng(seed + 31)
    scorer = new_scorer(seed + 30, (8, 8, 3), (16,), 8, 3)
    exact = True
    for fn, draw, shape in ((scorer, rng.uniform, [8, 8, 3]),
                            (power_loss_gradfn(3.0), rng.normal, [11])):
        for _ in range(3):
            x0, x1 = draw(shape), draw(shape)
            for steps in (1, 2, 7, 50):
                fwd = integrated_gradients(fn, PathSpec(x0, x1, steps, "trapezoid"), 1)
                rev = integrated_gradients(fn, PathSpec(x1, x0, steps, "trapezoid"), 1)
                exact &= np.array_equal(rev.values, -fwd.values)
    return bool(exact)


def check_overlay_contract(seed: int) -> tuple[bool, str]:
    rng = SeededRng(seed)
    img = rng.uniform([6, 5, 3])
    pol_zero = split_polarity(np.zeros((6, 5, 3)))
    for mode in ("negative", "positive", "both"):
        out = render_overlay(img, pol_zero, mode)
        if not np.array_equal(out, 0.7 * img):
            return False, f"zero-attribution overlay != 0.7*img in {mode} mode"
    in_bounds = blue_ok = True
    for _ in range(50):
        out = render_overlay(img, split_polarity(rng.normal([6, 5, 3]) * 3.0))
        in_bounds &= bool(np.all(out >= 0.0) and np.all(out <= 1.0))
        blue_ok &= bool(np.array_equal(out[:, :, 2], np.clip(0.7 * img[:, :, 2], 0.0, 1.0)))
    return in_bounds and blue_ok, (f"zero map is 0.7*image in 3 modes; over 50 maps "
                                   f"bounds {in_bounds}, blue untouched {blue_ok}")


def check_psnr_ordering(seed: int) -> tuple[bool, str]:
    img = gen_synthetic(seed, classes=4, per_class=1, side=32).items[0].image
    values = [psnr(img, degrade_jpeg(img, q)) for q in (95, 75, 50, 25)]
    ordered = all(a >= b for a, b in zip(values, values[1:]))
    return ordered, "PSNR at q95/75/50/25 = " + " / ".join(f"{v:.2f}dB" for v in values)


def check_protocol_roundtrip(seed: int) -> tuple[bool, str]:
    from .provider import ProviderSpec, provider_connect

    side, classes = 8, 4
    w, b = linear_model_weights(seed, classes, side * side * 3)
    local = linear_softmax_gradfn(w, b)
    rng = SeededRng(seed + 5)
    x0 = rng.uniform([side, side, 3]).astype(np.float32).astype(np.float64)
    x1 = rng.uniform([side, side, 3]).astype(np.float32).astype(np.float64)
    spec = PathSpec(x0, x1, steps=16)
    command = [sys.executable, "-m", "igprobe.mock_provider",
               "--seed", str(seed), "--classes", str(classes), "--side", str(side)]
    with provider_connect(ProviderSpec(command, timeout=30.0)) as client:
        remote = integrated_gradients(client, spec, 1)
    in_process = integrated_gradients(local, spec, 1)
    err = float(np.max(np.abs(remote.values - in_process.values)))
    total = abs(remote.sum - in_process.sum)
    return err < 1e-6 and total < 1e-6, (f"max |IG_wire - IG_local| = {err:.3e}, "
                                         f"sum diff {total:.3e}")


CHECKS = [
    ("linear_exactness", check_linear_exactness),
    ("quadrature_convergence", check_quadrature_convergence),
    ("micromodel_completeness", check_micromodel_completeness),
    ("gradient_check", check_gradient_check),
    ("dct_identities", check_dct_identities),
    ("resize_identities", check_resize_identities),
    ("polarity_bounds", check_polarity_bounds),
    ("overlay_contract", check_overlay_contract),
    ("psnr_ordering", check_psnr_ordering),
    ("protocol_roundtrip", check_protocol_roundtrip),
]


def run_checks(seed: int = 1, names: list[str] | None = None) -> list[CheckResult]:
    wanted = dict(CHECKS)
    if names:
        unknown = [n for n in names if n not in wanted]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; available: {[n for n, _ in CHECKS]}")
    results = []
    for name, fn in CHECKS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(seed)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=passed, detail=detail,
                                   seconds=time.perf_counter() - start))
    return results


def format_results(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  result  time     detail",
             f"{'-' * width}  ------  -------  ------"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status:<6}  {r.seconds:6.2f}s  {r.detail}")
    good = sum(r.passed for r in results)
    lines.append(f"{good}/{len(results)} checks passed")
    return "\n".join(lines)
