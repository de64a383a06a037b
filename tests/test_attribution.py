"""Path construction, quadrature exactness/convergence, symmetry, polarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe.attribution import (AttributionMap, PathSpec, SCHEMES,
                                 completeness_report, integrated_gradients,
                                 interpolate_path, path_nodes, split_polarity)
from igprobe.model import model_gradfn, new_scorer
from igprobe.tensor import SeededRng
from igprobe.verify import linear_loss_gradfn, power_loss_gradfn


def scalar(v: float) -> np.ndarray:
    return np.full((1, 1, 1), v)


# ------------------------------------------------------------------------ path

def test_path_degenerate_equal_endpoints():
    x = SeededRng(1).uniform([2, 2, 3])
    for scheme in SCHEMES:
        for pt in interpolate_path(PathSpec(x, x.copy(), 7, scheme)):
            assert np.array_equal(pt, x)


def test_path_riemann_scalar_nodes():
    pts = interpolate_path(PathSpec(scalar(0.0), scalar(1.0), 4, "riemann_right"))
    assert [float(p.reshape(())) for p in pts] == [0.25, 0.5, 0.75, 1.0]


def test_path_trapezoid_scalar_nodes_and_weights():
    spec = PathSpec(scalar(0.0), scalar(1.0), 4, "trapezoid")
    pts = [float(p.reshape(())) for p in interpolate_path(spec)]
    assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]
    _, ws = path_nodes(spec)
    assert np.allclose(ws, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert float(ws.sum()) == pytest.approx(1.0, abs=1e-15)


def test_pathspec_validation():
    with pytest.raises(ValueError, match="shape"):
        PathSpec(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))
    with pytest.raises(ValueError, match="steps"):
        PathSpec(scalar(0.0), scalar(1.0), 0)
    with pytest.raises(ValueError, match="scheme"):
        PathSpec(scalar(0.0), scalar(1.0), 4, "simpson")


# ------------------------------------------------------------------- exactness

@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("steps", [1, 5, 50])
def test_linear_exactness_20_seeds(scheme, steps):
    for seed in range(20):
        rng = SeededRng(seed)
        w = rng.normal([2, 3, 1])
        x0 = rng.uniform([2, 3, 1])
        x1 = rng.uniform([2, 3, 1])
        att = integrated_gradients(linear_loss_gradfn(w), PathSpec(x0, x1, steps, scheme), 0)
        assert np.max(np.abs(att.values - w * (x1 - x0))) < 1e-12
        assert att.completeness_gap < 1e-12


def test_quadratic_riemann_n4_overshoots():
    att = integrated_gradients(power_loss_gradfn(2.0),
                               PathSpec(scalar(0.0), scalar(1.0), 4, "riemann_right"), 0)
    assert att.sum == pytest.approx(1.25, abs=1e-12)
    assert att.completeness_gap == pytest.approx(0.25, abs=1e-12)


def test_quadratic_trapezoid_n4_exact():
    att = integrated_gradients(power_loss_gradfn(2.0),
                               PathSpec(scalar(0.0), scalar(1.0), 4, "trapezoid"), 0)
    assert att.sum == pytest.approx(1.0, abs=1e-12)
    assert att.completeness_gap < 1e-12


def test_equal_endpoints_zero_attribution():
    x = SeededRng(2).uniform([3, 3, 3])
    att = integrated_gradients(power_loss_gradfn(3.0), PathSpec(x, x.copy(), 10), 0)
    assert np.array_equal(att.values, np.zeros_like(x))
    assert att.completeness_gap == 0.0


def test_gradfn_failure_names_step():
    def broken(x, labels):
        raise RuntimeError("synthetic failure")
    with pytest.raises(RuntimeError, match=r"path step \d"):
        integrated_gradients(broken, PathSpec(scalar(0.0), scalar(1.0), 4), 0)


def test_gradfn_wrong_row_count_names_step():
    def short(x, labels):
        return power_loss_gradfn(2.0)(x[1:], labels[1:])
    with pytest.raises(RuntimeError, match=r"path step 0 to 4 .*expected 5 result rows"):
        integrated_gradients(short, PathSpec(scalar(0.0), scalar(1.0), 4), 0)


# ------------------------------------------------------- batched vs per-node

def per_node_reference(gradfn, spec: PathSpec, label: int) -> AttributionMap:
    """Integrated gradients as one single-row gradient call per path node,
    with the endpoint losses evaluated at the endpoints themselves."""
    ts, ws = path_nodes(spec)
    delta = spec.target - spec.baseline
    last = len(ts) - 1

    def point(s):
        if spec.scheme == "riemann_right" or 2 * s < last:
            return spec.baseline + ts[s] * delta
        if 2 * s > last:
            return spec.target - ts[last - s] * delta
        return 0.5 * spec.baseline + 0.5 * spec.target

    def one(x):
        return gradfn(x[None], np.array([label]))

    acc = np.zeros_like(spec.baseline)
    for s in range((last + 2) // 2):
        m = last - s
        term = ws[s] * one(point(s)).grads[0]
        if m != s:
            term = term + ws[m] * one(point(m)).grads[0]
        acc = acc + term
    values = delta * acc
    loss0 = float(one(spec.baseline).losses[0])
    loss1 = float(one(spec.target).losses[0])
    return AttributionMap(values=values, sum=float(values.sum()), loss_baseline=loss0,
                          loss_target=loss1,
                          completeness_gap=abs(float(values.sum()) - (loss1 - loss0)))


@pytest.mark.parametrize("side", [8, 32])
@pytest.mark.parametrize("steps", [7, 50])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_ig_matches_per_node_loop(side, steps, scheme):
    # The batch only changes how the BLAS groups each row's products, so
    # float64 rounding bounds the difference far below 1e-12 of the map.
    model = new_scorer(70 + side, (side, side, 3), (64,), 32, 4, 10.0)
    fn = model_gradfn(model)
    rng = SeededRng(71 + steps)
    x0, x1 = rng.uniform([side, side, 3]), rng.uniform([side, side, 3])
    spec = PathSpec(x0, x1, steps, scheme)
    got = integrated_gradients(fn, spec, 1)
    ref = per_node_reference(fn, spec, 1)
    tol = 1e-12 * float(np.abs(ref.values).sum())
    assert float(np.max(np.abs(got.values - ref.values))) <= tol
    assert abs(got.sum - ref.sum) <= tol
    assert got.loss_baseline == pytest.approx(ref.loss_baseline, abs=1e-12)
    assert got.loss_target == pytest.approx(ref.loss_target, abs=1e-12)
    assert abs(got.completeness_gap - ref.completeness_gap) <= tol + 1e-12
    logits0 = model_gradfn(model)(x0[None], [1]).logits[0]
    assert np.allclose(got.logits_baseline, logits0, rtol=0.0, atol=1e-12)
    if scheme == "trapezoid":
        rev = integrated_gradients(fn, PathSpec(x1, x0, steps, scheme), 1)
        assert np.array_equal(rev.values, -got.values)


# ----------------------------------------------------------------- convergence

def fit_slope(gradfn, scheme, ns):
    gaps = []
    for n in ns:
        att = integrated_gradients(gradfn, PathSpec(scalar(0.0), scalar(1.0), n, scheme), 0)
        gaps.append(att.completeness_gap)
    return float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])


def test_riemann_gap_is_first_order():
    slope = fit_slope(power_loss_gradfn(2.0), "riemann_right", [4, 8, 16, 32, 64])
    assert abs(slope - (-1.0)) < 0.3


def test_trapezoid_gap_is_second_order():
    # the quadratic's gradient is linear, which trapezoid integrates
    # exactly; the quartic keeps a curvature term for the slope fit
    slope = fit_slope(power_loss_gradfn(4.0), "trapezoid", [4, 8, 16, 32, 64])
    assert abs(slope - (-2.0)) < 0.3


def test_micromodel_gap_shrinks_with_steps():
    model = new_scorer(31, (8, 8, 3), (16,), 8, 3, 10.0)
    fn = model_gradfn(model)
    rng = SeededRng(32)
    x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
    g50 = integrated_gradients(fn, PathSpec(x0, x1, 50), 1).completeness_gap
    g300 = integrated_gradients(fn, PathSpec(x0, x1, 300), 1).completeness_gap
    assert g300 <= g50


# -------------------------------------------------------------------- symmetry

def test_swap_negates_every_value_exactly():
    fn = power_loss_gradfn(3.0)
    rng = SeededRng(7)
    x0, x1 = rng.uniform([4, 4, 3]), rng.uniform([4, 4, 3])
    for steps in (1, 2, 7, 50):
        fwd = integrated_gradients(fn, PathSpec(x0, x1, steps, "trapezoid"), 0)
        rev = integrated_gradients(fn, PathSpec(x1, x0, steps, "trapezoid"), 0)
        assert np.array_equal(rev.values, -fwd.values)
        assert rev.sum == -fwd.sum


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40))
def test_swap_negation_property(seed, steps):
    rng = SeededRng(seed)
    x0, x1 = rng.uniform([3, 3, 1]), rng.uniform([3, 3, 1])
    w = rng.normal([3, 3, 1])
    fn = linear_loss_gradfn(w)
    fwd = integrated_gradients(fn, PathSpec(x0, x1, steps, "trapezoid"), 0)
    rev = integrated_gradients(fn, PathSpec(x1, x0, steps, "trapezoid"), 0)
    assert np.array_equal(rev.values, -fwd.values)


def test_swap_negates_micromodel_attribution_exactly():
    model = new_scorer(41, (8, 8, 3), (16,), 8, 3)
    fn = model_gradfn(model)
    rng = SeededRng(42)
    x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
    fwd = integrated_gradients(fn, PathSpec(x0, x1, 50), 2)
    rev = integrated_gradients(fn, PathSpec(x1, x0, 50), 2)
    assert np.array_equal(rev.values, -fwd.values)


# ---------------------------------------------------------- completeness report

def test_report_linear_gap_under_1e12():
    w = SeededRng(8).normal([2, 2, 1])
    att = integrated_gradients(linear_loss_gradfn(w),
                               PathSpec(np.zeros((2, 2, 1)), np.ones((2, 2, 1)), 9), 0)
    rep = completeness_report(att)
    assert rep["gap"] < 1e-12


def test_report_zero_delta_uses_floor():
    att = AttributionMap(values=np.ones((1, 1, 1)), sum=1.0,
                         loss_baseline=0.5, loss_target=0.5,
                         completeness_gap=1.0)
    rep = completeness_report(att)
    assert rep["rel_gap"] == pytest.approx(1.0 / 1e-12)
    assert np.isfinite(rep["rel_gap"])


# -------------------------------------------------------------------- polarity

def test_polarity_all_zero():
    att = AttributionMap(values=np.zeros((2, 2, 1)), sum=0.0,
                         loss_baseline=0.0, loss_target=0.0, completeness_gap=0.0)
    pol = split_polarity(att)
    assert np.array_equal(pol.negative, np.zeros((2, 2, 1)))
    assert np.array_equal(pol.positive, np.zeros((2, 2, 1)))
    assert pol.scale == 1.0


def test_polarity_minus2_plus1():
    att = AttributionMap(values=np.array([[[-2.0], [1.0]]]), sum=-1.0,
                         loss_baseline=0.0, loss_target=-1.0, completeness_gap=0.0)
    pol = split_polarity(att)
    assert np.array_equal(pol.negative, np.array([[[-1.0], [0.0]]]))
    assert np.array_equal(pol.positive, np.array([[[0.0], [0.5]]]))
    assert pol.scale == 2.0


def test_polarity_single_positive_peak():
    values = np.zeros((3, 3, 1))
    values[2, 2, 0] = 3.0
    att = AttributionMap(values=values, sum=3.0, loss_baseline=0.0,
                         loss_target=3.0, completeness_gap=0.0)
    pol = split_polarity(att)
    assert float(pol.positive.max()) == 1.0
    assert int((pol.positive == 1.0).sum()) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_polarity_bounds_and_reconstruction(seed):
    rng = SeededRng(seed)
    values = 10.0 * rng.normal([3, 4, 1])
    att = AttributionMap(values=values, sum=float(values.sum()),
                         loss_baseline=0.0, loss_target=float(values.sum()),
                         completeness_gap=0.0)
    pol = split_polarity(att)
    assert pol.negative.min() >= -1.0 and pol.negative.max() <= 0.0
    assert pol.positive.min() >= 0.0 and pol.positive.max() <= 1.0
    recon = (pol.negative + pol.positive) * pol.scale
    interior = np.abs(values) < pol.scale
    assert np.max(np.abs(recon[interior] - values[interior]), initial=0.0) < 1e-12


# ------------------------------------------------------------------ sensitivity
# The sensitivity axiom: a nonzero loss difference gets a nonzero
# attribution sum, up to the reported quadrature gap.

def test_sensitivity_equal_endpoints():
    x = SeededRng(9).uniform([2, 2, 1])
    att = integrated_gradients(power_loss_gradfn(2.0), PathSpec(x, x.copy()), 0)
    assert att.loss_target - att.loss_baseline == 0.0
    assert att.sum == 0.0


def test_sensitivity_known_half_delta():
    w = np.full((1, 1, 1), 0.5)
    att = integrated_gradients(linear_loss_gradfn(w), PathSpec(scalar(0.0), scalar(1.0)), 0)
    assert att.loss_target - att.loss_baseline == pytest.approx(0.5, abs=1e-12)
    assert att.sum == pytest.approx(0.5, abs=1e-12)


def test_sensitivity_coarse_riemann_still_consistent():
    # N=1 right-Riemann on the quadratic: IG sum 2 vs true delta 1, and
    # the reported gap widens to cover the difference
    spec = PathSpec(scalar(0.0), scalar(1.0), steps=1, scheme="riemann_right")
    att = integrated_gradients(power_loss_gradfn(2.0), spec, 0)
    assert att.sum == pytest.approx(2.0, abs=1e-12)
    assert att.loss_target - att.loss_baseline == pytest.approx(1.0, abs=1e-12)
    assert att.completeness_gap == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ path independence

def test_line_vs_two_segment_path_agree_within_gaps():
    model = new_scorer(51, (6, 6, 3), (12,), 8, 3, 10.0)
    fn = model_gradfn(model)
    rng = SeededRng(52)
    x0, x1 = rng.uniform([6, 6, 3]), rng.uniform([6, 6, 3])
    mid = rng.uniform([6, 6, 3])
    direct = integrated_gradients(fn, PathSpec(x0, x1, 400), 1)
    leg_a = integrated_gradients(fn, PathSpec(x0, mid, 400), 1)
    leg_b = integrated_gradients(fn, PathSpec(mid, x1, 400), 1)
    tol = direct.completeness_gap + leg_a.completeness_gap + leg_b.completeness_gap
    assert abs(direct.sum - (leg_a.sum + leg_b.sum)) <= tol + 1e-9
