import csv
import math

import numpy as np
import pytest
from scipy.special import expit

from cubelab import kernels, simulate
from cubelab.errors import CapabilityError, ParameterError
from cubelab.kernels import Stepper, dula_matrix, gibbs_matrix
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid, exact_target
from cubelab.scores import ScoreField
from cubelab.simulate import ChainConfig, run_chain, sample_transitions
from cubelab.statespace import state_of


def _cfg(**kwargs):
    base = dict(sampler="dula", model=BitsMixture(0.4, 4), score="glauber",
                eta=0.5, steps=4000, burn_in=500, thinning=2, chains=3, seed=42)
    base.update(kwargs)
    return ChainConfig(**base)


def test_identical_seed_identical_result():
    a = run_chain(_cfg())
    b = run_chain(_cfg())
    np.testing.assert_array_equal(a.mean_magnetization, b.mean_magnetization)
    np.testing.assert_array_equal(a.marginals, b.marginals)
    np.testing.assert_array_equal(a.magnetization_histogram, b.magnetization_histogram)
    np.testing.assert_array_equal(a.acceptance_fraction, b.acceptance_fraction)
    np.testing.assert_array_equal(a.state_counts, b.state_counts)


def test_different_seed_differs():
    a = run_chain(_cfg())
    b = run_chain(_cfg(seed=43))
    assert not np.array_equal(a.state_counts, b.state_counts)


@pytest.mark.parametrize("sampler,score", [
    ("gibbs", None), ("dula", "glauber"), ("dmala", "glauber"), ("dups", "stein"),
    ("dmaps", "glauber")])
@pytest.mark.parametrize("dim", [4, 16], ids=["table", "vector"])
def test_chains_are_separate_substreams(sampler, score, dim):
    """Chain c draws only from substream c, so the first chains of a larger
    run reproduce a smaller run bit for bit; a single chain, which steps on
    unbatched states, included."""
    def run(chains):
        return run_chain(_cfg(model=CurieWeiss(0.1, 0.5, dim), sampler=sampler,
                              score=score, eta=0.45, steps=1500, burn_in=100,
                              chains=chains))

    runs = {c: run(c) for c in (4, 2, 1)}
    for c in (2, 1):
        for field in ("mean_magnetization", "marginals", "magnetization_histogram",
                      "acceptance_fraction", "state_counts"):
            big, small = getattr(runs[4], field), getattr(runs[c], field)
            if small is None:
                assert big is None and dim > 12
            else:
                np.testing.assert_array_equal(big[:c], small, err_msg=field)


class _ReferenceStepper(Stepper):
    """The adjusted steps without a carry: every step evaluates the current
    state's features afresh. Kept as the oracle for the carried steps."""

    def _dmala(self, x, u, log_u, carry=None):
        q, logit, base = self._at(x)
        flips = u < q
        prop = self._flip(x, self._pack(flips))
        _, logit_rev, base_rev = self._at(prop)
        ok = log_u < base_rev - base + np.vecdot(flips, logit_rev - logit)
        return self._select(ok, prop, x), ok, prop, None, None

    def _dmaps(self, x, word1, flips1, u, log_u, carry=None):
        z = self._flip(x, word1)
        q2, tilt2 = self._at(z)
        flips2 = u < q2
        prop = self._flip(z, self._pack(flips2))
        log_a = (self._log_weight(prop) - self._log_weight(x)
                 + np.vecdot(flips2 - flips1, tilt2))
        ok = log_u < log_a
        return self._select(ok, prop, x), ok, prop, z, None


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("score", ["glauber", "gibbs", "stein"])
@pytest.mark.parametrize("sampler", ["dmala", "dmaps"])
@pytest.mark.parametrize("model", [CurieWeiss(0.06, 0.5, 16), BitsMixture(0.2, 24)],
                         ids=["d16", "d24"])
def test_carried_features_reproduce_the_reference_stepper(model, sampler, score, chains,
                                                          monkeypatch):
    """Carrying the accepted state's features changes no float: the vector-mode
    estimators equal those of the re-evaluating stepper bit for bit, over more
    than one block of uniforms, on a single unbatched chain and on a batch."""
    cfg = ChainConfig(sampler, model, score, 1.0, steps=1200, burn_in=100, thinning=3,
                      chains=chains, seed=5)
    carried = run_chain(cfg)
    monkeypatch.setattr(simulate, "Stepper", _ReferenceStepper)
    reference = run_chain(cfg)
    for field in ("mean_magnetization", "marginals", "magnetization_histogram",
                  "acceptance_fraction"):
        np.testing.assert_array_equal(getattr(carried, field), getattr(reference, field),
                                      err_msg=field)
    assert carried.state_counts is None
    # both branches of the accept test are taken on every chain
    assert 0 < carried.acceptance_fraction.min() <= carried.acceptance_fraction.max() < 1


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("sampler", ["dmala", "dmaps"])
def test_vector_steps_evaluate_each_state_once(sampler, chains, monkeypatch):
    """Lockstep vector-mode steps evaluate the closed forms on each proposal
    only, plus once on the initial states: steps + 1 log weights for both
    adjusted samplers, and steps + 1 scores for dmala (dmaps scores the
    auxiliary state, once per step)."""
    calls = {"score": 0, "log_weight": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ScoreField, "signs", counting("score", ScoreField.signs))
    monkeypatch.setattr(CurieWeiss, "log_weight_signs",
                        counting("log_weight", CurieWeiss.log_weight_signs))
    steps = 1500
    run_chain(ChainConfig(sampler, CurieWeiss(0.02, 0.3, 20), "glauber", 0.5, steps=steps,
                          chains=chains, seed=1))
    assert calls == {"score": steps + (sampler == "dmala"), "log_weight": steps + 1}


def test_uniform_target_marginals():
    cfg = _cfg(model=IndependentBits(0.0, 4), sampler="dups", score="stein",
               steps=20000, burn_in=1000, thinning=5, chains=2, seed=7)
    res = run_chain(cfg)
    n = res.retained * cfg.chains
    sigma = math.sqrt(0.25 / n)
    marg = res.marginals.mean(axis=0)
    assert (np.abs(marg - 0.5) <= 3 * sigma + 0.5 / res.retained).all(), marg


def test_acceptance_fraction_contracts():
    res = run_chain(_cfg(sampler="dups", score="glauber"))
    np.testing.assert_array_equal(res.acceptance_fraction, 1.0)
    # constant exact score: the adjusted sampler never rejects
    cfg = _cfg(sampler="dmaps", score="stein", model=IndependentBits(0.5, 4))
    res = run_chain(cfg)
    np.testing.assert_array_equal(res.acceptance_fraction, 1.0)
    # a coupled target does produce rejections
    cfg = _cfg(sampler="dmaps", score="glauber", model=IsingGrid(2, 2, 0.6, 0.0),
               eta=0.9, steps=8000)
    assert run_chain(cfg).acceptance_fraction.min() < 1.0


def test_estimator_shapes_and_ranges():
    cfg = _cfg(chains=2)
    res = run_chain(cfg)
    d = cfg.model.dim
    assert res.marginals.shape == (2, d)
    assert ((0 <= res.marginals) & (res.marginals <= 1)).all()
    assert res.magnetization_histogram.shape == (2, d + 1)
    assert res.magnetization_histogram.sum(axis=1).tolist() == [res.retained] * 2
    assert res.state_counts.sum() == 2 * res.retained
    assert abs(res.mean_magnetization).max() <= 1.0


def test_dula_long_run_matches_single_site_law():
    """At d=50 the constant-score kernel factorizes, so each coordinate is an
    independent two-state chain whose stationary law and autocorrelation are
    exactly computable from the d=1 kernel; the marginal estimate must land
    within three exact standard errors."""
    beta, eta, steps = 0.3, 0.3, 1_000_000
    cfg = ChainConfig("dula", IndependentBits(beta, 50), "glauber", eta,
                      steps=steps, burn_in=5000, thinning=1, chains=1, seed=314)
    res = run_chain(cfg)
    n = res.retained
    a = float(expit(-2 / eta - beta))   # flip rate from +1
    b = float(expit(-2 / eta + beta))   # flip rate from -1
    pi_plus = b / (a + b)
    lam = 1.0 - a - b
    # asymptotic variance of the +1-indicator average for a two-state chain
    var = pi_plus * (1 - pi_plus) * (1 + lam) / (1 - lam)
    se = math.sqrt(var / n)
    assert pi_plus == pytest.approx(expit(2 * beta), abs=2e-4)
    grand = res.marginals.mean()  # averages 50 iid coordinates, same mean
    assert abs(grand - pi_plus) <= 3 * se / math.sqrt(50) + 1e-12, (grand, pi_plus, se)


def test_state_occupancy_matches_stationary():
    model = IsingGrid(2, 2, 0.4, 0.1)
    eta = 0.5
    t = dula_matrix(model, ScoreField(model, "gibbs"), eta)
    from cubelab.analysis import spectral_summary, stationary

    pi = stationary(t)
    thin = int(4 * spectral_summary(t, pi).t_rel) + 1
    cfg = ChainConfig("dula", model, "gibbs", eta, steps=300_000, burn_in=3000,
                      thinning=thin, chains=4, seed=99)
    res = run_chain(cfg)
    n = res.retained * cfg.chains
    freq = res.state_counts.sum(axis=0) / n
    sigma = np.sqrt(pi * (1 - pi) / n)
    assert (np.abs(freq - pi) <= 4 * sigma + 1e-12).all(), np.abs(freq - pi) / sigma


@pytest.mark.parametrize("sampler,score", [
    ("gibbs", None), ("dula", "glauber"), ("dmala", "gibbs"), ("dups", "glauber"),
    ("dmaps", "stein")])
def test_closed_form_step_matches_kernel_row(sampler, score):
    """The large-dimension path, run at d=4, must realize the dense kernel row."""
    model = CurieWeiss(0.2, 0.1, 4)
    eta = 0.6
    field = None if score is None else ScoreField(model, score)
    kernel = (gibbs_matrix(model, eta) if sampler == "gibbs" else
              getattr(kernels, f"{sampler}_matrix")(model, field, eta))
    row = kernel.probs[9]
    st = Stepper(model, sampler, field, eta, tables=False)
    n = 40_000
    start = np.tile(state_of(9, 4).signs().astype(np.float64), (n, 1))
    u = np.random.default_rng(17).random((n, st.uniforms_per_step))
    nxt = st.step(start, *st.prepare(u))[0]
    freq = np.bincount((nxt > 0) @ (1 << np.arange(4)), minlength=16) / n
    sigma = np.sqrt(row * (1 - row) / n)
    assert (np.abs(freq - row) <= 5 * sigma + 1e-12).all(), (freq, row)


def test_sample_transitions_matches_row():
    model = BitsMixture(0.4, 4)
    eta = 0.5
    row = gibbs_matrix(model, eta).probs[6]
    nxt = sample_transitions(model, "gibbs", None, eta, state_of(6, 4), 200_000,
                             np.random.default_rng(8))
    freq = np.bincount(nxt, minlength=16) / nxt.size
    sigma = np.sqrt(row * (1 - row) / nxt.size)
    assert (np.abs(freq - row) <= 5 * sigma + 1e-12).all()


@pytest.mark.parametrize("sampler,score", [
    ("gibbs", None), ("dula", "glauber"), ("dmala", "glauber"), ("dups", "stein"),
    ("dmaps", "glauber")])
def test_sample_transitions_across_blocks(sampler, score):
    # one draw past the first block
    model = BitsMixture(0.4, 4)
    n = simulate._DRAW_BLOCK + 1

    def draw(count):
        return sample_transitions(model, sampler, score, 0.5, state_of(6, 4), count,
                                  np.random.default_rng(3))

    nxt = draw(n)
    assert nxt.shape == (n,)
    assert ((nxt >= 0) & (nxt < 16)).all()
    np.testing.assert_array_equal(nxt, draw(n))
    # the first block is drawn exactly as an unblocked call of its size
    np.testing.assert_array_equal(nxt[:n - 1], draw(n - 1))


def test_dump_file(tmp_path):
    path = tmp_path / "samples.csv"
    cfg = _cfg(steps=200, burn_in=20, thinning=10, chains=2)
    res = run_chain(cfg, dump_path=str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * res.retained
    for row in rows:
        k = int(row["state"], 16)
        assert 0 <= k < 16
        assert abs(float(row["magnetization"])) <= 1.0


def test_config_validation():
    with pytest.raises(ParameterError):
        _cfg(steps=100, burn_in=100)
    with pytest.raises(ParameterError):
        _cfg(thinning=0)
    with pytest.raises(ParameterError):
        _cfg(chains=0)
    with pytest.raises(ParameterError):
        _cfg(eta=-0.1)
    with pytest.raises(ParameterError):
        _cfg(sampler="gibbs", model=IndependentBits(0.1, 6), eta=2.0)
    with pytest.raises(ParameterError):
        _cfg(sampler="dula", score=None)
    with pytest.raises(ParameterError):
        _cfg(sampler="warp")


def test_gibbs_config_reports_the_step_size():
    with pytest.raises(ParameterError, match=r"exp\(-2/2.0\) = 0.367879 > 1/6"):
        _cfg(sampler="gibbs", model=IndependentBits(0.1, 6), eta=2.0)
    with pytest.raises(ParameterError, match="positive and finite"):
        _cfg(eta=math.inf)


@pytest.mark.parametrize("sampler", ["prox", "warp"])
def test_samplers_without_a_step_are_parameter_errors(sampler):
    model = IndependentBits(0.3, 3)
    x = state_of(5, 3)
    with pytest.raises(ParameterError, match="has no step"):
        sample_transitions(model, sampler, "glauber", 0.5, x, 10, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="has no step"):
        kernels._step_once(model, sampler, ScoreField(model, "glauber"), x, 0.5,
                           np.random.default_rng(0))


def test_sample_transitions_above_the_table_cap_is_a_capability_error():
    model = IndependentBits(0.3, simulate.TABLE_DIM_CAP + 1)
    with pytest.raises(CapabilityError, match="transition sampling capped"):
        sample_transitions(model, "dula", "glauber", 0.5, state_of(0, model.dim), 10,
                           np.random.default_rng(0))
