"""Deterministic tensor arithmetic and the seeded generator stream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igprobe.tensor import (SeededRng, argmax, as_tensor, matmul, rng_normal,
                            tensor_filled)


# ---------------------------------------------------------------- tensor_filled

def test_filled_zero_2x2():
    assert np.array_equal(tensor_filled([2, 2], 0.0), np.zeros((2, 2)))


def test_filled_constant_vector():
    assert np.array_equal(tensor_filled([3], 1.5), np.array([1.5, 1.5, 1.5]))


def test_filled_singleton_rank3():
    t = tensor_filled([1, 1, 1], -2.0)
    assert t.shape == (1, 1, 1) and t[0, 0, 0] == -2.0


def test_filled_rank_zero_rejected():
    with pytest.raises(ValueError, match="rank zero unsupported"):
        tensor_filled([], 1.0)


def test_filled_zero_extent_rejected():
    with pytest.raises(ValueError):
        tensor_filled([0], 1.0)


def test_filled_nonfinite_value_rejected():
    with pytest.raises(ValueError):
        tensor_filled([2], float("nan"))


# ---------------------------------------------------------------------- matmul

def test_matmul_identity():
    m = as_tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_dot_product():
    out = matmul(as_tensor([[1.0, 2.0]]), as_tensor([[3.0], [4.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 11.0


def test_matmul_annihilation():
    z = np.zeros((2, 2))
    b = as_tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert np.array_equal(matmul(z, b), np.zeros((2, 3)))


def test_matmul_shape_mismatch_names_both():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(np.ones((2, 3)), np.ones((2, 2)))


def test_matmul_rejects_rank1():
    with pytest.raises(ValueError, match="rank-2"):
        matmul(np.ones(3), np.ones((3, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 5), st.integers(1, 5),
       st.integers(1, 5), st.integers(1, 5))
def test_matmul_associative_on_3_chains(seed, n, m, k, p):
    rng = SeededRng(seed)
    a = rng.normal([n, m])
    b = rng.normal([m, k])
    c = rng.normal([k, p])
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    scale = max(1.0, float(np.max(np.abs(left))))
    assert np.max(np.abs(left - right)) / scale < 1e-12


# ---------------------------------------------------------------------- argmax

def test_argmax_basic():
    assert argmax(as_tensor([0.1, 0.9, 0.3])) == 1


def test_argmax_tie_lowest_index():
    assert argmax(as_tensor([5.0, 5.0, 5.0])) == 0


def test_argmax_singleton():
    assert argmax(as_tensor([-1.0])) == 0


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
    t = as_tensor(values)
    base = argmax(t)
    distinct = np.unique(t).size
    for moved in (t + shift, t * scale):
        if np.unique(moved).size == distinct:
            assert argmax(moved) == base


# ------------------------------------------------------------------- SeededRng

def test_rng_normal_determinism_and_advance():
    rng = SeededRng(42)
    first = rng_normal(rng, [4])
    second = rng_normal(rng, [4])
    assert not np.array_equal(first, second)
    assert np.array_equal(rng_normal(SeededRng(42), [4]), first)


def test_rng_normal_seed7_mean_pin():
    # frozen from the first run of this generator; the loose bound is the
    # contract, the tight one guards against silent stream changes
    mean = float(SeededRng(7).normal([10000]).mean())
    assert abs(mean) < 0.05
    assert mean == pytest.approx(-0.019134493738044635, abs=1e-12)


def test_rng_shape_zero_rejected():
    with pytest.raises(ValueError):
        SeededRng(1).normal([0])


def test_rng_uniform_half_open_unit_interval():
    u = SeededRng(3).uniform([4096])
    assert u.min() >= 0.0 and u.max() < 1.0


def test_rng_split_streams_differ_and_are_stable():
    parent = SeededRng(9)
    a = parent.split(1).normal([8])
    b = parent.split(2).normal([8])
    assert not np.array_equal(a, b)
    assert np.array_equal(SeededRng(9).split(1).normal([8]), a)


def test_rng_permutation_is_permutation():
    p = SeededRng(5).permutation(17)
    assert sorted(p.tolist()) == list(range(17))
    assert np.array_equal(SeededRng(5).permutation(17), p)


def test_rng_integers_range_and_error():
    draws = SeededRng(11).integers(3, 9, 1000)
    assert draws.min() >= 3 and draws.max() < 9
    with pytest.raises(ValueError):
        SeededRng(11).integers(5, 5, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 63), st.integers(1, 64))
def test_rng_streams_are_pure_functions_of_seed(seed, n):
    assert np.array_equal(SeededRng(seed).uniform([n]), SeededRng(seed).uniform([n]))
