import math

import numpy as np
import pytest
from scipy.special import expit

from cubelab.ctmc import (
    ctmc_simulate,
    discretization_residual,
    glauber_rates,
    kernel_deviation,
    occupation_measure,
)
from cubelab.kernels import (
    dula_generator,
    dula_matrix,
    dups_generator,
    dups_matrix,
    gibbs_matrix,
    glauber_generator,
    prox_exact_matrix,
)
from cubelab.errors import CapabilityError, ParameterError
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid, exact_target
from cubelab.scores import MAX_TABLE_DIM, ScoreField, glauber_score
from cubelab.statespace import BitState, hamming, state_of

from ising_law import ising_plus_count_log_law


def test_glauber_rates_uniform_target():
    rates = glauber_rates(IndependentBits(0.0, 4))
    np.testing.assert_allclose(rates(state_of(9, 4)), 0.5, atol=1e-15)


def test_total_exit_rate_bounded_by_dimension():
    model = BitsMixture(0.8, 5)
    rates = glauber_rates(model)
    for k in range(32):
        r = rates(state_of(k, 5))
        assert (r >= 0).all() and r.sum() <= 5.0


def test_trajectory_structure_and_reproducibility():
    model = IsingGrid(2, 2, 0.4, 0.1)
    rates = glauber_rates(model)
    x0 = state_of(3, 4)
    traj = ctmc_simulate(rates, x0, 50.0, np.random.default_rng(123))
    assert traj.states[0] == x0.bits
    assert (np.diff(traj.times) > 0).all()
    assert traj.times.size == 0 or traj.times[-1] <= 50.0
    for j in range(len(traj.times)):
        assert hamming(traj.state_at(j), traj.state_at(j + 1)) == 1
    again = ctmc_simulate(rates, x0, 50.0, np.random.default_rng(123))
    np.testing.assert_array_equal(traj.times, again.times)
    np.testing.assert_array_equal(traj.states, again.states)


def test_long_run_occupation_matches_target():
    model = IndependentBits(0.3, 3)
    traj = ctmc_simulate(glauber_rates(model), state_of(0, 3), 1e5,
                         np.random.default_rng(2024))
    occ = occupation_measure(traj)
    tv = 0.5 * np.abs(occ - exact_target(model)).sum()
    assert tv <= 0.02, f"occupation TV {tv}"


def test_lumped_occupation_matches_the_exact_magnetization_law():
    """Above the score-table cap, where rates come from the closed-form
    score per state, the time-weighted +1-count occupancy of a glauber
    trajectory lies within TV 0.05 of the exact law C(d, u) w(u). At
    horizon 2,000 seeds 1-8 read 0.013-0.026; reversing the sign of the
    closed-form rates' exponent reads 0.082 or more over seeds 1-3."""
    model = BitsMixture(0.065, 48)
    d = model.dim
    u = np.arange(d + 1)
    signs = np.where(np.arange(d) < u[:, None], 1.0, -1.0)
    log_law = (model.log_weight_signs(signs)
               + np.array([math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)
                           for k in u]))
    law = np.exp(log_law - log_law.max())
    law /= law.sum()
    traj = ctmc_simulate(glauber_rates(model), BitState(0, d), 2000.0,
                         np.random.default_rng(1))
    held = np.diff(np.concatenate(([0.0], traj.times, [traj.horizon])))
    occupancy = np.bincount(np.bitwise_count(traj.states), weights=held,
                            minlength=d + 1) / traj.horizon
    tv = 0.5 * np.abs(occupancy - law).sum()
    assert tv <= 0.05, tv


def test_grid_occupation_matches_the_transfer_law():
    """On a 3x8 Ising grid (d = 24, above the score-table cap, so the rates
    come from the closed-form score per state) the time-weighted +1-count
    occupancy of a glauber trajectory lies within TV 0.05 of the exact law,
    which `ising_plus_count_log_law` gives without the library. At horizon
    5,000 (about 47,000 jumps) seeds 11-18 read 0.013-0.036; reversing the
    sign of the closed-form rates' exponent reads 0.57 over seeds 11-13."""
    model = IsingGrid(3, 8, 0.25, 0.1)
    d = model.dim
    assert d > MAX_TABLE_DIM
    law = np.exp(ising_plus_count_log_law(3, 8, 0.25, 0.1))
    traj = ctmc_simulate(glauber_rates(model), BitState(0, d), 5000.0,
                         np.random.default_rng(11))
    held = np.diff(np.concatenate(([0.0], traj.times, [traj.horizon])))
    occupancy = np.bincount(np.bitwise_count(traj.states), weights=held,
                            minlength=d + 1) / traj.horizon
    tv = 0.5 * np.abs(occupancy - law).sum()
    assert tv <= 0.05, tv


def test_occupation_measure_sums_to_one():
    model = IndependentBits(0.0, 2)
    traj = ctmc_simulate(glauber_rates(model), state_of(0, 2), 25.0,
                         np.random.default_rng(5))
    assert occupation_measure(traj).sum() == pytest.approx(1.0, abs=1e-12)


def test_gibbs_kernel_is_exact_discretization():
    model = BitsMixture(0.5, 4)
    q = glauber_generator(model)
    t = gibbs_matrix(model, 0.6)
    assert discretization_residual(t, q) == 0.0


def test_dula_discretization_order():
    model = IsingGrid(2, 2, 0.4, 0.1)
    field = ScoreField(model, "gibbs")
    q = glauber_generator(model)
    etas = [0.5, 0.4, 0.3, 0.25]
    ratios = [discretization_residual(dula_matrix(model, field, eta), q)
              / math.exp(-4.0 / eta) for eta in etas]
    assert all(r <= 2.0 * ratios[0] + 1e-9 for r in ratios), ratios


def test_dups_discretization_order():
    model = BitsMixture(0.5, 4)
    field = ScoreField(model, "stein")
    q = dups_generator(field)
    etas = [0.5, 0.4, 0.3, 0.25]
    ratios = [discretization_residual(dups_matrix(model, field, eta), q)
              / math.exp(-4.0 / eta) for eta in etas]
    assert all(r <= 2.0 * ratios[0] + 1e-9 for r in ratios), ratios


def test_dups_approaches_exact_proximal_kernel():
    model = IsingGrid(2, 2, 0.4, 0.1)
    field = ScoreField(model, "glauber")
    devs = [kernel_deviation(dups_matrix(model, field, eta), prox_exact_matrix(model, eta))
            for eta in (0.5, 0.35, 0.25)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-4


def test_dimension_mismatch_is_contract_violation():
    t = gibbs_matrix(IndependentBits(0.2, 3), 0.5)
    q = glauber_generator(IndependentBits(0.2, 4))
    with pytest.raises(ValueError):
        discretization_residual(t, q)
    with pytest.raises(ValueError, match="kernel dimensions differ"):
        kernel_deviation(t, gibbs_matrix(IndependentBits(0.2, 4), 0.5))


def test_bad_horizon_and_negative_rates():
    model = IndependentBits(0.1, 3)
    from cubelab.errors import ParameterError

    with pytest.raises(ParameterError):
        ctmc_simulate(glauber_rates(model), state_of(0, 3), 0.0,
                      np.random.default_rng(1))
    with pytest.raises(ParameterError):
        ctmc_simulate(lambda x: np.array([-1.0, 0.0, 0.0]), state_of(0, 3), 1.0,
                      np.random.default_rng(1))


@pytest.mark.parametrize("model", [
    IndependentBits(0.3, 20), BitsMixture(0.2, 20), IsingGrid(4, 5, 0.3, 0.1, periodic=True),
    CurieWeiss(0.05, 0.7, 20)], ids=["bits", "mixture", "ising", "curieweiss"])
def test_closed_form_rates_match_the_definition(model):
    """Above the score-table cap the rates come from the model's closed-form
    glauber score; they agree with the per-coordinate definition."""
    rates = glauber_rates(model)
    rng = np.random.default_rng(20)
    for k in [0, (1 << 20) - 1, *rng.integers(0, 1 << 20, 30).tolist()]:
        x = BitState(k, 20)
        expected = expit(-2.0 * x.signs() * glauber_score(model, x))
        np.testing.assert_allclose(rates(x), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("model", [
    IndependentBits(0.3, 16), BitsMixture(0.2, 9), IsingGrid(4, 4, 0.3, 0.1, periodic=True),
    IsingGrid(2, 3, 0.7, -0.4), CurieWeiss(0.05, 0.7, 16), CurieWeiss(0.3, 0.0, 5)],
    ids=repr)
def test_tabulated_rates_are_the_closed_form_bit_for_bit(model):
    """Up to the score-table cap the rates are read from the tilt table,
    which holds the closed-form glauber score, so every state's rates are
    the floats of expit(-2 x g(x)) from `glauber_score_signs`, the form
    used above the cap."""
    assert model.dim <= MAX_TABLE_DIM
    rates = glauber_rates(model)
    n = 1 << model.dim
    words = np.random.default_rng(16).integers(0, n, 512) if n > 4096 else np.arange(n)
    for k in words.tolist():
        signs = BitState(k, model.dim).signs().astype(np.float64)
        expected = expit(-2.0 * signs * model.glauber_score_signs(signs))
        np.testing.assert_array_equal(rates(BitState(k, model.dim)).view(np.uint64),
                                      expected.view(np.uint64), err_msg=f"state {k:#x}")


def test_a_state_with_total_rate_zero_ends_the_trajectory():
    """Rates that only raise -1 coordinates reach the all +1 state, whose
    total rate is 0: the path stops there, before the horizon."""
    def rates(x):
        return (x.signs() < 0).astype(np.float64)

    traj = ctmc_simulate(rates, state_of(0, 3), 1e6, np.random.default_rng(4))
    assert traj.states.tolist()[-1] == 7 and len(traj.states) == 4
    assert traj.times.size == 3 and traj.times[-1] < 1e6
    assert occupation_measure(traj)[7] > 0.99


def test_trajectories_above_the_packed_word_cap_are_capability_errors():
    with pytest.raises(CapabilityError, match="d <= 63"):
        glauber_rates(IndependentBits(0.1, 64))
    with pytest.raises(CapabilityError, match="d <= 63"):
        ctmc_simulate(lambda x: np.ones(64), BitState(0, 64), 1.0, np.random.default_rng(1))


@pytest.mark.parametrize("dim", [2, 5])
def test_ctmc_rejects_rates_of_another_dimension(dim):
    """Rates of a d = 2 model from a d = 3 state would leave coordinate 2
    frozen, and those of a d = 5 model would fail late on a word out of
    range: both raise at the first state."""
    rates = glauber_rates(IndependentBits(0.3, dim))
    with pytest.raises(ParameterError, match=rf"rates have shape \({dim},\) at a d = 3 "
                       r"state, expected \(3,\)"):
        ctmc_simulate(rates, BitState(0, 3), 50.0, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ctmc_rejects_non_finite_rates(bad):
    """A NaN or inf total rate never passes the horizon; the first call must
    already raise, so a second call fails the test instead of looping."""
    calls = []

    def rates(x):
        calls.append(x)
        if len(calls) > 1:
            raise RuntimeError("rates called past a non-finite total")
        return np.array([0.5, bad, 0.5])

    with pytest.raises(ParameterError, match="finite and nonnegative"):
        ctmc_simulate(rates, BitState(0, 3), 1.0, np.random.default_rng(0))


def test_jump_laws_match_the_rates_at_visited_states():
    """At each of the most visited states the flipped coordinate has law
    r_i / total and the holding time has mean 1 / total, within 5 sigma."""
    model = IsingGrid(2, 2, 0.4, 0.1)
    rates = glauber_rates(model)
    traj = ctmc_simulate(rates, state_of(0, 4), 2e4, np.random.default_rng(41))
    # the state each jump leaves, how long it was held, and the coordinate flipped
    left = traj.states[:-1]
    held = traj.times - np.concatenate(([0.0], traj.times[:-1]))
    flipped = np.log2(traj.states[1:] ^ traj.states[:-1]).astype(int)
    for k in np.argsort(np.bincount(left, minlength=16))[-4:]:
        r = rates(state_of(int(k), 4))
        total = r.sum()
        at = left == k
        n = int(at.sum())
        assert n > 1000
        freq = np.bincount(flipped[at], minlength=4) / n
        p = r / total
        assert (np.abs(freq - p) <= 5.0 * np.sqrt(p * (1 - p) / n)).all(), (k, freq, p)
        assert abs(held[at].mean() - 1.0 / total) <= 5.0 / (total * math.sqrt(n))


def test_rates_are_evaluated_once_per_distinct_state():
    model = IsingGrid(2, 4, 0.2, 0.1)
    table = glauber_rates(model)
    calls = []

    def rates(x):
        calls.append(x.bits)
        return table(x)

    traj = ctmc_simulate(rates, state_of(0, 8), 2e3, np.random.default_rng(3))
    # most jumps enter a state visited before
    assert traj.times.size > 10 * len(calls)
    assert sorted(calls) == np.unique(traj.states).tolist()


def test_trajectories_stay_valid_across_memo_evictions(monkeypatch):
    """At d = 20 the run visits more distinct states than the memo holds;
    the path is still single-flip, increasing, reproducible, and the same as
    with a memo that is never cleared."""
    from cubelab import ctmc

    rates = glauber_rates(IndependentBits(0.2, 20))
    x0 = state_of(12345, 20)

    def run():
        return ctmc_simulate(rates, x0, 800.0, np.random.default_rng(8))

    traj = run()
    assert np.unique(traj.states).size > ctmc._LAW_MEMO
    assert (np.diff(traj.times) > 0).all() and traj.times[-1] <= 800.0
    steps = traj.states[1:] ^ traj.states[:-1]
    assert ((steps > 0) & (steps & (steps - 1) == 0)).all()
    again = run()
    np.testing.assert_array_equal(traj.times, again.times)
    np.testing.assert_array_equal(traj.states, again.states)
    monkeypatch.setattr(ctmc, "_LAW_MEMO", 1 << 30)
    unbounded = run()
    np.testing.assert_array_equal(traj.times, unbounded.times)
    np.testing.assert_array_equal(traj.states, unbounded.states)


def test_occupation_measure_matches_a_per_state_sum():
    traj = ctmc_simulate(glauber_rates(BitsMixture(0.5, 4)), state_of(3, 4), 300.0,
                         np.random.default_rng(17))
    bounds = [0.0, *traj.times.tolist(), traj.horizon]
    expected = np.zeros(16)
    for j, k in enumerate(traj.states.tolist()):
        expected[k] += bounds[j + 1] - bounds[j]
    np.testing.assert_allclose(occupation_measure(traj), expected / traj.horizon,
                               rtol=1e-12, atol=1e-15)


def test_occupation_measure_above_the_exact_cap_is_a_capability_error():
    traj = ctmc_simulate(glauber_rates(IndependentBits(0.1, 40)), state_of(0, 40), 0.5,
                         np.random.default_rng(2))
    with pytest.raises(CapabilityError, match="d <= 30"):
        occupation_measure(traj)
