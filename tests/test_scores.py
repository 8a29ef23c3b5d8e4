import math

import numpy as np
import pytest

from cubelab.errors import CapabilityError, ParameterError
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid
from cubelab.scores import (
    ScoreField,
    beta_constants,
    gibbs_score,
    glauber_score,
    score_signs,
    smooth_beta_constants,
    stein_score,
    tabulate_scores,
)
from cubelab.statespace import all_signs, state_of

MODELS = [
    IndependentBits(0.5, 4),
    BitsMixture(0.4, 4),
    IsingGrid(2, 2, 0.6, 0.1),
    CurieWeiss(0.25, 0.5, 4),
]


def test_glauber_score_bits_is_constant():
    model = IndependentBits(0.7, 5)
    for k in (0, 9, 31):
        np.testing.assert_allclose(glauber_score(model, state_of(k, 5)), 0.7, atol=1e-12)


def test_glauber_equals_stein_on_grid():
    model = IsingGrid(2, 3, 0.5, -0.2)
    for k in range(1 << 6):
        x = state_of(k, 6)
        np.testing.assert_allclose(glauber_score(model, x), stein_score(model, x),
                                   atol=1e-11)


def test_glauber_curie_weiss_closed_form():
    model = CurieWeiss(0.7, 0.5, 3)
    x = state_of(0b101, 3)  # (+1, -1, +1)
    s = x.signs().astype(float)
    total = s.sum()
    expected = 2 * 0.7 * ((total - s) - 0.5)
    np.testing.assert_allclose(glauber_score(model, x), expected, atol=1e-12)
    # specific frozen value: coordinate 0 sees sum_{j != 0} x_j = 0
    assert glauber_score(model, x)[0] == pytest.approx(-0.7, abs=1e-12)


@pytest.mark.parametrize("model", MODELS)
def test_closed_form_batch_matches_definition(model):
    """The vectorized closed forms must agree with the log-weight difference."""
    signs = all_signs(model.dim).astype(float)
    batch = model.glauber_score_signs(signs)
    for k in range(1 << model.dim):
        np.testing.assert_allclose(batch[k], glauber_score(model, state_of(k, model.dim)),
                                   atol=1e-11)


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.5, 3.0])
def test_mixture_closed_form_equals_the_table_bit_for_bit(beta):
    """The mixture's glauber closed form evaluates three branch sums per
    state, at S - 2, S and S + 2; S - x_i +- 1 is one of those exact integers,
    so it gives the floats of the log-weight differences the tables take."""
    for d in range(1, 11):
        model = BitsMixture(beta, d)
        signs = all_signs(d).astype(float)
        for kind in ("glauber", "gibbs"):
            closed = score_signs(model, kind, signs)
            np.testing.assert_array_equal(closed.view(np.uint64),
                                          tabulate_scores(model, kind).view(np.uint64),
                                          err_msg=f"d={d} {kind}")


def test_gibbs_score_values():
    flat = IndependentBits(0.0, 3)
    x = state_of(0b011, 3)
    np.testing.assert_allclose(gibbs_score(flat, x),
                               x.signs() * math.log(2.0), atol=1e-12)
    beta = 0.4
    model = IndependentBits(beta, 3)
    s = x.signs().astype(float)
    np.testing.assert_allclose(gibbs_score(model, x),
                               s * np.log1p(np.exp(2 * s * beta)), atol=1e-12)


@pytest.mark.parametrize("model", MODELS + [IndependentBits(0.3, 8)])
def test_gibbs_score_alignment_nonnegative(model):
    tab = tabulate_scores(model, "gibbs")
    signs = all_signs(model.dim).astype(float)
    assert (signs * tab).min() >= 0.0


def test_stein_scores():
    bits = IndependentBits(0.9, 4)
    grid = IsingGrid(2, 2, 0.6, 0.1)
    for k in range(16):
        x = state_of(k, 4)
        np.testing.assert_allclose(stein_score(bits, x), glauber_score(bits, x), atol=1e-12)
        np.testing.assert_allclose(stein_score(grid, x), glauber_score(grid, x), atol=1e-11)
    mix = BitsMixture(0.5, 2)
    value = stein_score(mix, state_of(3, 2))
    np.testing.assert_allclose(value, 0.5 * math.tanh(1.0), atol=1e-12)


def test_glauber_component_ignores_own_coordinate():
    for model in MODELS:
        tab = tabulate_scores(model, "glauber")
        for i in range(model.dim):
            flipped = np.arange(1 << model.dim) ^ (1 << i)
            np.testing.assert_allclose(tab[:, i], tab[flipped, i], atol=1e-12)


def test_beta_constants_examples():
    bits_glauber = beta_constants(ScoreField(IndependentBits(0.7, 4), "glauber"))
    assert bits_glauber.beta1 == pytest.approx(0.7, abs=1e-12)
    assert bits_glauber.beta2 == 0.0

    grid = beta_constants(ScoreField(IsingGrid(2, 2, 0.45, 0.1), "glauber"))
    assert grid.beta2 == pytest.approx(0.45, abs=1e-12)

    bits_gibbs = beta_constants(ScoreField(IndependentBits(0.6, 4), "gibbs"))
    assert bits_gibbs.beta1 == pytest.approx(math.log1p(math.exp(1.2)), abs=1e-12)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", ["stein", "gibbs", "glauber"])
def test_adjacent_beta2_equals_exhaustive(model, kind):
    field = ScoreField(model, kind)
    fast = beta_constants(field)
    # beta2 over every pair a < b: ||s(a) - s(b)||_inf / (2 ham(a, b))
    tab = field.table()
    a, b = np.triu_indices(tab.shape[0], 1)
    slow_beta2 = (np.abs(tab[a] - tab[b]).max(axis=1) / (2.0 * np.bitwise_count(a ^ b))).max()
    assert fast.beta2 == pytest.approx(slow_beta2, abs=1e-12)
    assert fast.beta1 == float(np.abs(tab).max())


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("kind", ["stein", "glauber"])
def test_smooth_beta2_matches_plain_for_continuous_fields(model, kind):
    field = ScoreField(model, kind)
    assert smooth_beta_constants(field).beta2 == pytest.approx(
        beta_constants(field).beta2, abs=1e-12)


def test_smooth_beta2_drops_gibbs_sign_jump():
    field = ScoreField(IndependentBits(0.3, 4), "gibbs")
    assert smooth_beta_constants(field).beta2 == 0.0
    assert beta_constants(field).beta2 > math.log(2.0)


def test_score_field_table_cached_and_readonly():
    field = ScoreField(IndependentBits(0.2, 3), "gibbs")
    tab = field.table()
    assert field.table() is tab
    with pytest.raises(ValueError):
        tab[0, 0] = 1.0


def test_glauber_stein_gap_is_bounded():
    for model in (BitsMixture(0.4, 4), CurieWeiss(0.25, 0.5, 4)):
        gap = np.abs(tabulate_scores(model, "glauber") - tabulate_scores(model, "stein"))
        assert np.isfinite(gap).all()
    for model in (IndependentBits(0.5, 4), IsingGrid(2, 2, 0.6, 0.1)):
        gap = np.abs(tabulate_scores(model, "glauber") - tabulate_scores(model, "stein"))
        assert gap.max() < 1e-11


def test_equal_models_share_one_memoized_table():
    a, b = IsingGrid(2, 2, 0.6, 0.1), IsingGrid(2, 2, 0.6, 0.1)
    assert a is not b
    assert ScoreField(a, "stein").table() is ScoreField(b, "stein").table()
    assert ScoreField(a, "stein").table() is not ScoreField(a, "glauber").table()
    assert ScoreField(a, "stein").table() is not ScoreField(IsingGrid(2, 2, 0.6, 0.2),
                                                           "stein").table()
    # the public builder stays uncached
    assert tabulate_scores(a, "stein") is not tabulate_scores(a, "stein")


def test_unknown_score_kinds_and_tables_above_the_cap():
    model = IndependentBits(0.3, 3)
    signs = all_signs(3).astype(float)
    for build in (lambda: score_signs(model, "hamming", signs),
                  lambda: tabulate_scores(model, "hamming"),
                  lambda: ScoreField(model, "hamming")):
        with pytest.raises(ParameterError, match="unknown score kind 'hamming'"):
            build()
    with pytest.raises(CapabilityError, match="score tables capped at d <= 16"):
        tabulate_scores(IndependentBits(0.3, 17), "glauber")
