import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from cubelab.errors import CapabilityError, ParameterError
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid, exact_target
from cubelab.statespace import all_signs, state_of

ALL_SMALL_MODELS = [
    IndependentBits(0.5, 4),
    BitsMixture(0.5, 4),
    IsingGrid(2, 2, 0.4, 0.1),
    IsingGrid(2, 3, 0.3, -0.2, periodic=True),
    CurieWeiss(0.3, 0.5, 4),
]


def grid_edges(rows, cols, periodic):
    """Independent edge enumeration used as the oracle for the grid model."""
    edges = []
    idx = lambda r, c: r * cols + c
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
    if periodic and rows >= 3:
        edges += [(idx(rows - 1, c), idx(0, c)) for c in range(cols)]
    if periodic and cols >= 3:
        edges += [(idx(r, cols - 1), idx(r, 0)) for r in range(rows)]
    return edges


def test_log_weight_values():
    assert IndependentBits(0.5, 3).log_weight(state_of(7, 3)) == pytest.approx(1.5)
    assert CurieWeiss(1.0, 0.0, 3).log_weight(state_of(7, 3)) == pytest.approx(9.0)
    # 2x2 free-boundary grid has 4 edges
    assert IsingGrid(2, 2, 1.0, 0.0).log_weight(state_of(15, 4)) == pytest.approx(4.0)


@pytest.mark.parametrize("rows,cols,periodic", [(2, 2, False), (3, 3, False),
                                                (3, 3, True), (2, 3, True), (1, 4, False)])
def test_ising_log_weight_matches_edge_enumeration(rows, cols, periodic):
    model = IsingGrid(rows, cols, 0.7, -0.3, periodic)
    edges = grid_edges(rows, cols, periodic)
    signs = all_signs(model.dim).astype(float)
    expected = 0.7 * sum(signs[:, i] * signs[:, j] for i, j in edges) - 0.3 * signs.sum(1)
    np.testing.assert_allclose(model.log_weight_signs(signs), expected, atol=1e-12)


@pytest.mark.parametrize("rows,cols,periodic", [(1, 7, False), (1, 7, True), (2, 2, True),
                                                (3, 3, True), (2, 3, False), (4, 4, False),
                                                (4, 4, True)])
def test_ising_neighbor_sums_match_edge_enumeration(rows, cols, periodic):
    """The adjacency product gives each coordinate's neighbour sum exactly; a
    periodic axis shorter than 3 adds no wrap-around edge, so no duplicate."""
    model = IsingGrid(rows, cols, 0.7, -0.3, periodic)
    signs = all_signs(model.dim).astype(float)
    expected = np.zeros_like(signs)
    for i, j in grid_edges(rows, cols, periodic):
        expected[:, i] += signs[:, j]
        expected[:, j] += signs[:, i]
    np.testing.assert_array_equal(model._neighbor_sum(signs), expected)
    np.testing.assert_array_equal(model._neighbor_sum(signs[5]), expected[5])
    assert model._adjacency.sum() == 2 * len(grid_edges(rows, cols, periodic))


@pytest.mark.parametrize("rows,cols,periodic", [(8, 8, True), (5, 13, True), (1, 65, True),
                                                (9, 8, False), (300, 300, True),
                                                (300, 300, False)])
def test_ising_neighbor_sums_stay_linear_in_the_grid_size(rows, cols, periodic):
    """Either side of the dense-adjacency cut-off the neighbour sums match
    edge enumeration exactly, and a grid above it never builds a d x d array:
    a 300x300 grid's sums allocate a few MB, where its matrix would be 648 MB."""
    model = IsingGrid(rows, cols, 0.7, -0.3, periodic)
    signs = np.random.default_rng(rows * cols).choice([-1.0, 1.0], size=(2, model.dim))
    i, j = np.array(grid_edges(rows, cols, periodic)).T
    expected = np.zeros_like(signs)
    np.add.at(expected, (slice(None), i), signs[:, j])
    np.add.at(expected, (slice(None), j), signs[:, i])
    tracemalloc.start()
    try:
        got = model._neighbor_sum(signs)
        one = model._neighbor_sum(signs[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(one, expected[1])
    assert (model._adjacency is None) == (model.dim > 64)
    assert peak < 8 * model.dim * 8 + (1 << 20)


def test_exact_target_uniform_when_flat():
    for model in (IndependentBits(0.0, 5), IsingGrid(2, 2, 0.0, 0.0), CurieWeiss(0.0, 1.0, 5)):
        p = exact_target(model)
        np.testing.assert_allclose(p, 1.0 / p.size, atol=1e-15)


def test_exact_target_single_bit():
    beta = 0.7
    p = exact_target(IndependentBits(beta, 1))
    np.testing.assert_allclose(p, [expit(-2 * beta), expit(2 * beta)], atol=1e-15)


def test_mixture_symmetry_and_composition():
    beta, d = 0.5, 6
    mix = exact_target(BitsMixture(beta, d))
    np.testing.assert_allclose(mix, mix[::-1], atol=1e-15)  # values[k] = values[2^d-1-k]
    bits = exact_target(IndependentBits(beta, d))
    np.testing.assert_allclose(mix, 0.5 * bits + 0.5 * bits[::-1], atol=1e-14)


def test_ising_zero_coupling_equals_bits():
    grid = IsingGrid(2, 4, 0.0, 0.35)
    bits = IndependentBits(0.35, 8)
    signs = all_signs(8).astype(float)
    np.testing.assert_array_equal(grid.log_weight_signs(signs),
                                  bits.log_weight_signs(signs))


def test_curie_weiss_depends_only_on_magnetization():
    model = CurieWeiss(0.8, 1.5, 6)
    rng = np.random.default_rng(1)
    x = rng.choice([-1.0, 1.0], size=6)
    base = model.log_weight_signs(x)
    for _ in range(10):
        perm = rng.permutation(6)
        assert model.log_weight_signs(x[perm]) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("model", ALL_SMALL_MODELS)
def test_batch_log_weight_matches_scalar(model):
    rng = np.random.default_rng(7)
    ks = rng.integers(0, 1 << model.dim, size=20)
    batch = model.log_weight_signs(all_signs(model.dim).astype(float)[ks])
    for j, k in enumerate(ks):
        assert batch[j] == pytest.approx(model.log_weight(state_of(int(k), model.dim)),
                                         abs=1e-12)


def test_log_weight_finite_everywhere():
    # strict positivity of every model, including the steep mean-field case
    model = CurieWeiss(1.0, 0.0, 9)
    lw = model.log_weight_signs(all_signs(9).astype(float))
    assert np.isfinite(lw).all()
    assert np.isfinite(exact_target(model)).all()


@pytest.mark.parametrize("make, message", [
    (lambda: IndependentBits(0.3, 0), "dimension must be positive, got 0"),
    (lambda: BitsMixture(0.3, -1), "dimension must be positive, got -1"),
    (lambda: CurieWeiss(0.3, 0.0, 0), "dimension must be positive, got 0"),
    (lambda: IsingGrid(0, 3, 0.3), "grid must be at least 1x1, got 0x3"),
    (lambda: IsingGrid(2, 0, 0.3), "grid must be at least 1x1, got 2x0"),
], ids=["bits", "mixture", "curieweiss", "ising-rows", "ising-cols"])
def test_empty_models_are_rejected(make, message):
    with pytest.raises(ParameterError, match=message):
        make()


def test_dimension_mismatch_and_cap():
    model = IndependentBits(0.5, 3)
    with pytest.raises(ValueError):
        model.log_weight(state_of(0, 4))
    with pytest.raises(CapabilityError):
        exact_target(IndependentBits(0.1, 31))


@pytest.mark.parametrize("model, count", [
    (IndependentBits(0.5, 4), 3), (IndependentBits(0.0, 4), 4), (BitsMixture(0.5, 4), 4),
    (CurieWeiss(0.3, 0.5, 4), 3), (CurieWeiss(0.3, 0.0, 4), 4),
    (IsingGrid(2, 3, 0.3, -0.2), 2), (IsingGrid(2, 3, 0.3, -0.2, periodic=True), 3),
    (IsingGrid(2, 2, 0.4, 0.0), 4), (IsingGrid(3, 3, 0.4, 0.1, periodic=True), 5),
    (IsingGrid(1, 4, 0.4, 0.1), 1), (IndependentBits(0.5, 1), 0),
], ids=repr)
def test_declared_symmetries_preserve_the_log_weight(model, count):
    gens = model.symmetries()
    assert len(gens) == count
    signs = all_signs(model.dim).astype(np.float64)
    lw = model.log_weight_signs(signs)
    for sigma, mask in gens:
        assert sorted(sigma) == list(range(model.dim)) and 0 <= mask < 1 << model.dim
        # coordinate i moves to sigma[i], then every coordinate in the mask flips
        moved = np.empty_like(signs)
        moved[:, list(sigma)] = signs
        moved *= 1 - 2 * ((mask >> np.arange(model.dim)) & 1)
        assert np.abs(model.log_weight_signs(moved) - lw).max() <= 1e-12, (sigma, mask)


@pytest.mark.parametrize("make, name", [
    (lambda v: IndependentBits(v, 3), "beta"),
    (lambda v: BitsMixture(v, 3), "beta"),
    (lambda v: IsingGrid(2, 2, v), "J"),
    (lambda v: IsingGrid(2, 2, 0.3, v), "h"),
    (lambda v: CurieWeiss(v, 0.0, 3), "beta"),
    (lambda v: CurieWeiss(0.1, v, 3), "b"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_rejected(make, name, value):
    with pytest.raises(ParameterError, match=f"^{name} must be finite"):
        make(value)
