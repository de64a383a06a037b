"""Path construction, quadrature exactness/convergence, symmetry, polarity."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe.attribution import (AttributionMap, PathSpec, SCHEMES, integrated_gradients,
                                 path_nodes, split_polarity)
from igprobe.model import ScorerModel, backward, new_scorer
from igprobe.tensor import SeededRng
from igprobe.verify import linear_loss_gradfn, power_loss_gradfn


def scalar(v: float) -> np.ndarray:
    return np.full((1, 1, 1), v)


def sent_rows(spec: PathSpec) -> np.ndarray:
    """The rows ``integrated_gradients`` sends its gradient function for ``spec``."""
    sent = []

    def recording(images, labels):
        sent.append(np.array(images))
        return power_loss_gradfn(2.0)(images, labels)

    integrated_gradients(recording, spec, 0)
    assert len(sent) == 1
    return sent[0]


# ------------------------------------------------------------------------ path

def test_path_degenerate_equal_endpoints():
    x = SeededRng(1).uniform([2, 2, 3])
    for scheme in SCHEMES:
        for pt in sent_rows(PathSpec(x, x.copy(), 7, scheme)):
            assert np.array_equal(pt, x)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("steps", [1, 2, 4, 7])
def test_path_rows_run_from_baseline_to_target(scheme, steps):
    rng = SeededRng(10 + steps)
    x0, x1 = rng.uniform([3, 2, 3]), rng.uniform([3, 2, 3])
    rows = sent_rows(PathSpec(x0, x1, steps, scheme))
    assert rows.shape == (steps + 1, 3, 2, 3)
    assert rows[0].tobytes() == x0.tobytes()
    assert rows[steps].tobytes() == x1.tobytes()


def scalar_nodes_and_weights(scheme: str) -> tuple[list, np.ndarray]:
    spec = PathSpec(scalar(0.0), scalar(1.0), 4, scheme)
    _, ws = path_nodes(spec)
    assert float(ws.sum()) == pytest.approx(1.0, abs=1e-15)
    return [float(p.reshape(())) for p in sent_rows(spec)], ws


def test_path_riemann_scalar_nodes():
    pts, ws = scalar_nodes_and_weights("riemann_right")
    assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.allclose(ws, [0.0, 0.25, 0.25, 0.25, 0.25])


def test_path_trapezoid_scalar_nodes_and_weights():
    pts, ws = scalar_nodes_and_weights("trapezoid")
    assert pts == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.allclose(ws, [0.125, 0.25, 0.25, 0.25, 0.125])


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



def _with_target(x, fill):
    x = x.copy()
    x[1, 2, 0] = fill
    return x


@pytest.mark.parametrize("target, label, message", [
    (lambda x: _with_target(x, np.nan), 1, r"input images contains non-finite values"),
    (lambda x: _with_target(x, np.inf), 1, r"input images contains non-finite values"),
    (lambda x: x[:4, :4], 1, r"input shape \(\d+, 4, 4, 3\) != \(batch, \*\(8, 8, 3\)\)"),
    (lambda x: x, 4, r"label 4 out of range for 4 classes"),
    (lambda x: x, 1.5, r"labels must be integers"),
])
def test_scorer_path_refusals_name_the_path_step(target, label, message):
    # the scorer's own path checks its endpoints and label as a row batch is checked
    model = new_scorer(5, (8, 8, 3), (16,), 8, 4)
    x = target(SeededRng(6).uniform([8, 8, 3]))
    with pytest.raises(RuntimeError, match=r"path step 0 to 4 \(t=0 to 1, one batched call\): "
                                           + message):
        integrated_gradients(model, PathSpec(np.zeros_like(x), x, 4), label)


def test_scorer_path_builds_no_image_batch_and_callables_keep_theirs():
    model = new_scorer(7, (32, 32, 3), (64,), 32, 4, 10.0)
    rng = SeededRng(8)
    spec = PathSpec(rng.uniform([32, 32, 3]), rng.uniform([32, 32, 3]), 50)
    integrated_gradients(model, spec, 1)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        fast = integrated_gradients(model, spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 51 * spec.baseline.nbytes  # one (N+1)-row batch of images

    calls = []

    def counting(images, labels):
        calls.append(len(images))
        return model(images, labels)

    rows = integrated_gradients(counting, spec, 1)
    assert calls == [51]
    tol = 1e-12 * float(np.abs(rows.values).sum())
    assert float(np.max(np.abs(fast.values - rows.values))) <= tol
    assert fast.loss_baseline == pytest.approx(rows.loss_baseline, abs=1e-12)
    assert fast.loss_target == pytest.approx(rows.loss_target, abs=1e-12)


# ---------------------------------------------------------------- pinned bits
# sha256 of the trapezoid map's bytes and of repr((loss_baseline,
# loss_target)) on seeded scorers: the node, reduction and endpoint code
# must keep every bit of the default scheme.  The pins moved once, when a
# ScorerModel came to integrate its path in first-layer coordinates: the
# products then run over 2 endpoint rows and N+1 first-layer rows instead of
# N+1 image rows, which changes rounding well below 1e-12 of the map (see
# test_scorer_path_matches_per_node_loop).  The digests hold for this float64
# BLAS build.

TRAPEZOID_PINS = {
    (8, 1): ("23c7953fa8c1834d0ac7f9df97bb2f5a7d7724d7ee2614266a58c4ace4e33ef1",
             "e5939c3618b3ac9ac3388b93a25be3d5dec82d1d761b3b6864c8392820ad30f0"),
    (8, 2): ("255a388c1e9d21dacdd86d80bcf6d12891c6238bdf1aa2b855177bfa4b9d3648",
             "e5939c3618b3ac9ac3388b93a25be3d5dec82d1d761b3b6864c8392820ad30f0"),
    (8, 7): ("e07743ae6e131d1c61eee2db598aff6676521ec35a5dff295bc2b41a08dde88a",
             "e5939c3618b3ac9ac3388b93a25be3d5dec82d1d761b3b6864c8392820ad30f0"),
    (8, 50): ("cc57eaa7968e9c2138839004b0afbb13574e786a90a8021b8200a66796d73445",
              "c2382ecc9ad0e2076631640ec708b47b356df53959f843232803b5fb3616dee3"),
    (32, 1): ("55866d653726f8b59b614038ed497151747d983df5f5b2b1109aa72bc3108405",
              "fb5ca603d72e8ab54595bea8a0adb2b832118f522caa9e919f0abaee7b0416be"),
    (32, 2): ("67c24f10c2249a06164bb331bc51123a2313018e3231290637450bea4f32268a",
              "fb5ca603d72e8ab54595bea8a0adb2b832118f522caa9e919f0abaee7b0416be"),
    (32, 7): ("7eb30e36d4532f1be5233963a36617e1427f0ba3d3550af658ad5553439ed032",
              "fb5ca603d72e8ab54595bea8a0adb2b832118f522caa9e919f0abaee7b0416be"),
    (32, 50): ("202517ad314e3420e8ba7190c9c739f08c77806552e4729b00f4934036386dc2",
               "de569ff0323d4d75e4dff152a122245e9da2a2d72752dbf604e073c080900400"),
}


@pytest.mark.parametrize("side, steps", sorted(TRAPEZOID_PINS))
def test_trapezoid_bits_pinned(side, steps):
    model = new_scorer(90 + side, (side, side, 3), (64,), 32, 4, 10.0)
    rng = SeededRng(91 + side)
    x0, x1 = rng.uniform([side, side, 3]), rng.uniform([side, side, 3])
    att = integrated_gradients(model, PathSpec(x0, x1, steps, "trapezoid"), 2)
    values = hashlib.sha256(att.values.tobytes()).hexdigest()
    losses = hashlib.sha256(repr((att.loss_baseline, att.loss_target)).encode()).hexdigest()
    assert (values, losses) == TRAPEZOID_PINS[side, steps]


# ------------------------------------------------------- batched vs per-node

def per_node_reference(gradfn, spec: PathSpec, label: int) -> AttributionMap:
    """Integrated gradients as one single-row gradient call per path node
    at ``baseline + t * delta``, weighted and summed in node order, with the
    endpoint losses evaluated at the endpoints themselves.  It shares
    neither the mirror fill nor the mirror-paired sum with the library."""
    ts, ws = path_nodes(spec)
    delta = spec.target - spec.baseline

    def one(x):
        return gradfn(x[None], np.array([label]))

    acc = np.zeros_like(spec.baseline)
    for t, w in zip(ts, ws):
        acc = acc + w * one(spec.baseline + t * delta).grads[0]
    at0, at1 = one(spec.baseline), one(spec.target)
    return AttributionMap(values=delta * acc, baseline=spec.baseline,
                          loss_baseline=float(at0.losses[0]),
                          loss_target=float(at1.losses[0]),
                          logits_baseline=at0.logits[0], logits_target=at1.logits[0])


@pytest.mark.parametrize("side", [8, 32])
@pytest.mark.parametrize("steps", [7, 50])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_ig_matches_per_node_loop(side, steps, scheme):
    # The library mirrors the upper half of the nodes about the target,
    # sums mirror pairs and batches the rows; the reference does none of
    # these.  Each changes only float64 rounding, far below 1e-12 of the map.
    model = new_scorer(70 + side, (side, side, 3), (64,), 32, 4, 10.0)
    rng = SeededRng(71 + steps)
    x0, x1 = rng.uniform([side, side, 3]), rng.uniform([side, side, 3])
    spec = PathSpec(x0, x1, steps, scheme)
    got = integrated_gradients(model, spec, 1)
    ref = per_node_reference(model, spec, 1)
    tol = 1e-12 * float(np.abs(ref.values).sum())
    assert float(np.max(np.abs(got.values - ref.values))) <= tol
    assert abs(got.sum - ref.sum) <= tol
    assert got.loss_baseline == pytest.approx(ref.loss_baseline, abs=1e-12)
    assert got.loss_target == pytest.approx(ref.loss_target, abs=1e-12)
    assert abs(got.completeness_gap - ref.completeness_gap) <= tol + 1e-12
    assert np.allclose(got.logits_baseline, ref.logits_baseline, rtol=0.0, atol=1e-12)
    assert np.allclose(got.logits_target, ref.logits_target, rtol=0.0, atol=1e-12)
    if scheme == "trapezoid":
        rev = integrated_gradients(model, PathSpec(x1, x0, steps, scheme), 1)
        assert np.array_equal(rev.values, -got.values)



@pytest.mark.parametrize("hidden, dead", [((), False), ((64,), False), ((64, 64), False),
                                          ((64,), True)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scorer_path_matches_per_node_loop(hidden, dead, scheme):
    # A ScorerModel integrates in first-layer coordinates at any depth; the
    # reference takes one image row per node through backward.
    model = new_scorer(74, (8, 8, 3), hidden, 32, 4, 10.0)
    rng = SeededRng(77)
    x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
    if dead:
        # every first-layer unit dead at a black baseline; the second-layer
        # bias keeps the embedding off zero there
        x0 = np.zeros_like(x0)
        model.layers[0].bias[:] = -0.5
        model.layers[1].bias[:] = rng.normal([32])
        assert np.any(model.layers[0].weights @ x1.reshape(-1) - 0.5 > 0.0)
    spec = PathSpec(x0, x1, 50, scheme)
    got = integrated_gradients(model, spec, 1)
    ref = per_node_reference(model, spec, 1)
    tol = 1e-12 * float(np.abs(ref.values).sum())
    assert float(np.max(np.abs(got.values - ref.values))) <= tol
    assert abs(got.sum - ref.sum) <= tol
    ends = backward(model, np.stack([x0, x1]), [1, 1])
    assert got.loss_baseline == pytest.approx(float(ends.losses[0]), abs=1e-12)
    assert got.loss_target == pytest.approx(float(ends.losses[1]), abs=1e-12)
    assert np.allclose(got.logits_baseline, ends.logits[0], rtol=0.0, atol=1e-12)
    assert np.allclose(got.logits_target, ends.logits[1], rtol=0.0, atol=1e-12)
    if scheme == "trapezoid":
        rev = integrated_gradients(model, PathSpec(x1, x0, 50, scheme), 1)
        assert np.array_equal(rev.values, -got.values)


def test_scorer_without_layers_integrates_in_pixels():
    # with no layer, the first-layer coordinates are the pixels themselves
    emb = SeededRng(78).normal([3, 6])
    model = ScorerModel(layers=[], class_embeddings=emb / np.linalg.norm(emb, axis=1)[:, None],
                        temperature=5.0, input_shape=(1, 2, 3))
    rng = SeededRng(79)
    spec = PathSpec(rng.uniform([1, 2, 3]), rng.uniform([1, 2, 3]), 20)
    got, ref = integrated_gradients(model, spec, 2), per_node_reference(model, spec, 2)
    assert float(np.max(np.abs(got.values - ref.values))) <= 1e-12 * float(np.abs(ref.values).sum())
    assert got.loss_target == pytest.approx(ref.loss_target, abs=1e-12)

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
    rng = SeededRng(32)
    x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
    g50 = integrated_gradients(model, PathSpec(x0, x1, 50), 1).completeness_gap
    g300 = integrated_gradients(model, PathSpec(x0, x1, 300), 1).completeness_gap
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
    rng = SeededRng(42)
    x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
    fwd = integrated_gradients(model, PathSpec(x0, x1, 50), 2)
    rev = integrated_gradients(model, PathSpec(x1, x0, 50), 2)
    assert np.array_equal(rev.values, -fwd.values)


@pytest.mark.parametrize("classes", [2, 3, 10])
def test_swap_negates_scorer_attribution_exactly_at_any_class_count(classes):
    # At these head sizes a GEMM row's bits depend on its place in the batch
    # even under OpenBLAS's SkylakeX kernels, so a swapped path is exact only
    # because the scorer's path products see a path and its reverse in one
    # orientation, at any depth.
    rng = SeededRng(43)
    for hidden in ((64,), (64, 64)):
        model = new_scorer(1, (8, 8, 3), hidden, 32, classes, 10.0)
        for _ in range(3):
            x0, x1 = rng.uniform([8, 8, 3]), rng.uniform([8, 8, 3])
            fwd = integrated_gradients(model, PathSpec(x0, x1, 50), 1)
            rev = integrated_gradients(model, PathSpec(x1, x0, 50), 1)
            assert np.array_equal(rev.values, -fwd.values)



# ---------------------------------------------------------- completeness report

def test_report_linear_gap_under_1e12():
    w = SeededRng(8).normal([2, 2, 1])
    att = integrated_gradients(linear_loss_gradfn(w),
                               PathSpec(np.zeros((2, 2, 1)), np.ones((2, 2, 1)), 9), 0)
    assert att.completeness_gap < 1e-12


def test_report_zero_delta_uses_floor():
    att = AttributionMap(values=np.ones((1, 1, 1)), baseline=np.zeros((1, 1, 1)),
                         loss_baseline=0.5, loss_target=0.5,
                         logits_baseline=np.zeros(1), logits_target=np.zeros(1))
    assert att.sum == 1.0 and att.completeness_gap == 1.0
    assert att.rel_gap == pytest.approx(1.0 / 1e-12)
    assert np.isfinite(att.rel_gap)


# -------------------------------------------------------------------- polarity

def test_polarity_all_zero():
    pol = split_polarity(np.zeros((2, 2, 1)))
    assert np.array_equal(pol.negative, np.zeros((2, 2, 1)))
    assert np.array_equal(pol.positive, np.zeros((2, 2, 1)))
    assert pol.scale == 1.0


def test_polarity_minus2_plus1():
    pol = split_polarity(np.array([[[-2.0], [1.0]]]))
    assert np.array_equal(pol.negative, np.array([[[-1.0], [0.0]]]))
    assert np.array_equal(pol.positive, np.array([[[0.0], [0.5]]]))
    assert pol.scale == 2.0


def test_polarity_single_positive_peak():
    values = np.zeros((3, 3, 1))
    values[2, 2, 0] = 3.0
    pol = split_polarity(values)
    assert float(pol.positive.max()) == 1.0
    assert int((pol.positive == 1.0).sum()) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_polarity_bounds_and_reconstruction(seed):
    rng = SeededRng(seed)
    values = 10.0 * rng.normal([3, 4, 1])
    pol = split_polarity(values)
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
    rng = SeededRng(52)
    x0, x1 = rng.uniform([6, 6, 3]), rng.uniform([6, 6, 3])
    mid = rng.uniform([6, 6, 3])
    direct = integrated_gradients(model, PathSpec(x0, x1, 400), 1)
    leg_a = integrated_gradients(model, PathSpec(x0, mid, 400), 1)
    leg_b = integrated_gradients(model, PathSpec(mid, x1, 400), 1)
    tol = direct.completeness_gap + leg_a.completeness_gap + leg_b.completeness_gap
    assert abs(direct.sum - (leg_a.sum + leg_b.sum)) <= tol + 1e-9
