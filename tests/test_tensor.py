"""Deterministic tensor arithmetic and the seeded generator stream."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe.attribution import PathSpec
from igprobe.codec import check_quality
from igprobe.data import gen_synthetic
from igprobe.model import TrainConfig, new_scorer
from igprobe.tensor import SeededRng, argmax, require_finite


# ---------------------------------------------------------------------- argmax

def test_argmax_basic():
    assert argmax(np.array([0.1, 0.9, 0.3])) == 1


def test_argmax_tie_lowest_index():
    assert argmax(np.array([5.0, 5.0, 5.0])) == 0


def test_argmax_singleton():
    assert argmax(np.array([-1.0])) == 0


def test_argmax_empty_rejected():
    with pytest.raises(ValueError):
        argmax(np.zeros(0))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
       st.floats(-100, 100), st.floats(0.01, 100))
def test_argmax_shift_and_positive_scale_invariant(values, shift, scale):
    # x + shift and x * scale are monotone in float64 but may round two
    # distinct entries onto one value ([0, 1e-150] + 1.0 ties), which moves
    # argmax to the lower index.  The property holds for maps that keep
    # distinct entries distinct, so only those are tested.
    t = np.array(values)
    base = argmax(t)
    distinct = np.unique(t).size
    for moved in (t + shift, t * scale):
        if np.unique(moved).size == distinct:
            assert argmax(moved) == base


# ------------------------------------------------------------------- SeededRng

def test_rng_normal_determinism_and_advance():
    rng = SeededRng(42)
    first = rng.normal([4])
    second = rng.normal([4])
    assert not np.array_equal(first, second)
    assert np.array_equal(SeededRng(42).normal([4]), first)


def test_rng_normal_seed7_mean_pin():
    # frozen from the first run of this generator; the loose bound is the
    # contract, the tight one guards against silent stream changes
    mean = float(SeededRng(7).normal([10000]).mean())
    assert abs(mean) < 0.05
    assert mean == pytest.approx(-0.019134493738044635, abs=1e-12)


def test_rng_shape_zero_rejected():
    with pytest.raises(ValueError):
        SeededRng(1).normal([0])


def test_rng_rank_zero_rejected():
    with pytest.raises(ValueError, match="rank zero unsupported"):
        SeededRng(1).uniform([])


def test_rng_zero_extent_rejected():
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        SeededRng(1).uniform([2, 0])


def test_rng_uniform_half_open_unit_interval():
    u = SeededRng(3).uniform([4096])
    assert u.min() >= 0.0 and u.max() < 1.0


def test_rng_permutation_is_permutation():
    p = SeededRng(5).permutation(17)
    assert sorted(p.tolist()) == list(range(17))
    assert np.array_equal(SeededRng(5).permutation(17), p)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 63), st.integers(1, 64))
def test_rng_streams_are_pure_functions_of_seed(seed, n):
    assert np.array_equal(SeededRng(seed).uniform([n]), SeededRng(seed).uniform([n]))


# -------------------------------------------------------------- require_finite

def test_require_finite_rejects_nan_and_inf():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="weights contains non-finite values"):
            require_finite(np.array([1.0, bad]), "weights")


# ------------------------------------------------------- library count settings

@pytest.mark.parametrize("make, message", [
    (lambda: check_quality(50.7), "quality must be an integer, got 50.7"),
    (lambda: check_quality(True), "quality must be an integer, got True"),
    (lambda: PathSpec(np.zeros(2), np.ones(2), 2.5), "steps must be an integer, got 2.5"),
    (lambda: TrainConfig(batch=2.5), "batch must be an integer, got 2.5"),
    (lambda: TrainConfig(epochs=1.5), "epochs must be an integer, got 1.5"),
    (lambda: new_scorer(1, (4, 4, 3), [2.5], 3, 2), "hidden must be an integer, got 2.5"),
    (lambda: gen_synthetic(1, 2, 2.5, 8), "per_class must be an integer, got 2.5"),
], ids=["quality-float", "quality-bool", "steps", "batch", "epochs", "hidden", "per-class"])
def test_library_counts_refuse_non_integers(make, message):
    # a count that is not a whole number names its setting rather than being truncated
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_library_counts_read_numpy_integers():
    assert check_quality(np.int64(50)) == 50 and type(check_quality(np.int64(50))) is int
    assert PathSpec(np.zeros(2), np.ones(2), np.int64(3)).steps == 3
    assert TrainConfig(batch=np.int64(4)).batch == 4
    assert new_scorer(1, (4, 4, 3), [np.int64(5)], 3, 2).layers[0].weights.shape == (5, 48)
