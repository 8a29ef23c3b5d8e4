import math
import re

import numpy as np
import pytest

from cubelab import cli, models, scores
from cubelab.errors import CapabilityError, ParameterError
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid, log_weight_table
from cubelab.scores import (
    SCORE_KINDS,
    ScoreField,
    beta_constants,
    gibbs_score,
    glauber_score,
    score_signs,
    smooth_beta_constants,
    stein_score,
    tabulate_scores,
)
from cubelab.statespace import all_signs, flip_neighbors, state_of

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


def _assert_same_floats(a, b, msg):
    np.testing.assert_array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64),
                                  err_msg=msg)


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.5, 3.0])
def test_mixture_closed_form_equals_the_table_bit_for_bit(beta):
    """Every family's table is its sign-array form `score_signs` on all
    states, bit for bit, for every kind. The mixture's glauber closed form
    evaluates three branch sums per state, at S - 2, S and S + 2; S - x_i +- 1
    is one of those exact integers, so it also gives the floats of the half
    log-weight differences that define the score."""
    for d in range(1, 11):
        signs = all_signs(d).astype(float)
        grid = (IsingGrid(2, d // 2, beta, -0.2, periodic=True) if d % 2 == 0
                else IsingGrid(1, d, beta, 0.1))
        for model in (IndependentBits(beta, d), BitsMixture(beta, d),
                      CurieWeiss(beta, 0.3, d), grid):
            for kind in SCORE_KINDS:
                _assert_same_floats(score_signs(model, kind, signs),
                                    tabulate_scores(model, kind), f"{model!r} {kind}")
        # of the two states across a flip of coordinate i, the larger index has x_i = +1
        mixture = BitsMixture(beta, d)
        lw, ks, nb = log_weight_table(mixture), np.arange(1 << d)[:, None], flip_neighbors(d)
        _assert_same_floats(score_signs(mixture, "glauber", signs),
                            0.5 * (lw[np.maximum(ks, nb)] - lw[np.minimum(ks, nb)]), f"d={d}")


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


def test_check_builds_each_table_once(monkeypatch, capsys):
    """One `check` over every score kind builds the log-weight table once for
    its model and each score table and tilt table once per kind."""
    lw_builds, score_builds = [], []
    lw_signs = BitsMixture.log_weight_signs
    monkeypatch.setattr(BitsMixture, "log_weight_signs",
                        lambda self, signs: lw_builds.append(np.shape(signs))
                        or lw_signs(self, signs))
    tabulate = scores.tabulate_scores
    monkeypatch.setattr(scores, "tabulate_scores",
                        lambda model, kind: score_builds.append((model, kind))
                        or tabulate(model, kind))
    assert cli.main(["check", "--model", "mixture", "--beta", "0.5", "--dim", "5",
                     "--eta", "0.6", "--score", "all"]) == 0
    capsys.readouterr()
    model = BitsMixture(0.5, 5)
    assert lw_builds.count((32, 5)) == 1
    assert sorted(score_builds) == [(model, kind) for kind in sorted(SCORE_KINDS)]
    tilts = scores._memo_tilt.cache_info()
    assert tilts.misses == tilts.currsize == 3 and tilts.hits > 0
    # every table is shared and read-only, and the tilt is x_i s(x)_i of the table
    signs = all_signs(5).astype(float)
    assert log_weight_table(model) is log_weight_table(BitsMixture(0.5, 5))
    np.testing.assert_array_equal(log_weight_table(model), lw_signs(model, signs))
    for kind in SCORE_KINDS:
        field = ScoreField(model, kind)
        assert field.tilt() is ScoreField(BitsMixture(0.5, 5), kind).tilt()
        np.testing.assert_array_equal(field.tilt(), signs * field.table())
        for table in (log_weight_table(model), field.table(), field.tilt()):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
    assert lw_builds.count((32, 5)) == 1 and len(score_builds) == 3
    # the mixture's glauber closed form still gives the table's floats
    for kind in ("glauber", "gibbs"):
        closed = signs * score_signs(model, kind, signs)
        assert np.array_equal(closed.view(np.uint64),
                              ScoreField(model, kind).tilt().view(np.uint64)), kind


@pytest.mark.parametrize("model, what", [
    (CurieWeiss(1e308, 0.0, 3), "log weight"),
    (CurieWeiss(2.5e307, 0.0, 3), "log weight"),
    (IsingGrid(1, 2, 1e308, 1e308), "log weight"),
])
def test_tables_reject_log_weights_that_overflow(model, what):
    with np.errstate(all="raise"):
        for build in (lambda: log_weight_table(model), lambda: models.exact_target(model),
                      lambda: tabulate_scores(model, "glauber"),
                      lambda: tabulate_scores(model, "gibbs")):
            with pytest.raises(ParameterError, match=re.escape(
                    f"{model!r} has a non-finite {what} at state 0x0: ")):
                build()


def test_score_tables_reject_scores_that_overflow():
    # the log weights +-1e308 are finite, and so is the exact glauber score
    # 1e308; the gibbs transform of it overflows at x_0 = +1
    model = IndependentBits(1e308, 1)
    with np.errstate(all="raise"):
        assert np.isfinite(log_weight_table(model)).all()
        for kind in ("glauber", "stein"):
            assert tabulate_scores(model, kind).tolist() == [[1e308], [1e308]], kind
        with pytest.raises(ParameterError, match=re.escape(
                f"{model!r} has a non-finite gibbs score at state 0x1: [inf]")):
            tabulate_scores(model, "gibbs")
