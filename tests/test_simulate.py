import csv
import math
from dataclasses import replace

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


_FIELDS = ("mean_magnetization", "marginals", "magnetization_histogram",
           "acceptance_fraction", "state_counts")


@pytest.mark.parametrize("sampler,score", [
    ("gibbs", None), ("dula", "glauber"), ("dmala", "glauber"), ("dups", "stein"),
    ("dmaps", "glauber")])
@pytest.mark.parametrize("dim", [4, 16], ids=["table", "vector"])
def test_chains_are_separate_substreams(sampler, score, dim):
    """Chain c draws only from substream c, so the first chains of a larger
    run reproduce a smaller run bit for bit; in table mode that includes
    runs whose chains step alone on Python ints against runs that step them
    in lockstep."""
    def run(chains):
        return run_chain(_cfg(model=CurieWeiss(0.1, 0.5, dim), sampler=sampler,
                              score=score, eta=0.45, steps=1500, burn_in=100,
                              chains=chains))

    above = simulate._LOCKSTEP_CHAINS + 1
    runs = {c: run(c) for c in (above, 4, 2, 1)}
    for larger in (4, above):
        for c in (2, 1):
            for field in _FIELDS:
                big, small = getattr(runs[larger], field), getattr(runs[c], field)
                if small is None:
                    assert big is None and dim > 12
                else:
                    np.testing.assert_array_equal(big[:c], small, err_msg=field)


@pytest.mark.parametrize("sampler,score", [
    ("gibbs", None), ("dula", "glauber"), ("dmala", "glauber"), ("dups", "stein"),
    ("dmaps", "gibbs")])
def test_lockstep_vector_chains_are_separate_substreams(sampler, score):
    """The same for +-1 vectors in lockstep, which Ising grids above the
    table cap take: the first chains of a 5-chain run reproduce 2- and
    1-chain runs bit for bit."""
    model = IsingGrid(4, 4, 0.3, 0.1, periodic=True)
    assert not simulate._level_path(model)
    runs = {c: run_chain(ChainConfig(sampler, model, score, 0.6, steps=1500, burn_in=100,
                                     chains=c, seed=42)) for c in (5, 2, 1)}
    for c in (2, 1):
        for field in _FIELDS[:-1]:
            np.testing.assert_array_equal(getattr(runs[5], field)[:c],
                                          getattr(runs[c], field), err_msg=field)


def test_exchangeable_targets_above_the_level_cap_step_in_lockstep(monkeypatch):
    """Above `kernels.LEVEL_DIM_CAP` the chains of an exchangeable target
    step on +-1 vectors in lockstep and build no level table, whose O(d^2)
    set-up would dominate a short run at large d."""
    cap = kernels.LEVEL_DIM_CAP
    assert simulate._level_path(IndependentBits(0.01, cap))
    assert not simulate._level_path(IndependentBits(0.01, cap + 1))

    def no_table(*args):
        raise AssertionError("a level table was built above the level cap")

    monkeypatch.setattr(kernels, "_level_rows", no_table)
    for sampler in ("gibbs", "dmala"):
        res = run_chain(ChainConfig(sampler, IndependentBits(0.01, 4096), None if
                                    sampler == "gibbs" else "glauber", 0.2, steps=20, chains=2,
                                    seed=5))
        assert res.marginals.shape == (2, 4096)


@pytest.mark.parametrize("dim,eta", [(3, 1.5), (6, 1.0), (10, 0.7), (12, 0.8)])
@pytest.mark.parametrize("sampler,score", [("gibbs", None)] + [
    (sampler, score) for sampler in ("dula", "dmala", "dups", "dmaps")
    for score in ("glauber", "gibbs", "stein")])
def test_chains_alone_reproduce_the_lockstep_table_step(sampler, score, dim, eta,
                                                         tmp_path, monkeypatch):
    """The scalar table step, one chain at a time on Python ints, and the
    lockstep numpy-table step give the same estimators and `--dump` files
    bit for bit, over many blocks of uniforms and with burn-in and thinning;
    the adjusted samplers take both branches of the accept test."""
    cfg = ChainConfig(sampler, CurieWeiss(0.4 / dim, 0.5, dim), score, eta, steps=1500,
                      burn_in=101, thinning=3, chains=3, seed=23)
    monkeypatch.setattr(simulate, "_UNIFORM_BLOCK", 1 << 10)
    runs = {}
    for name, lockstep_chains in (("alone", cfg.chains + 1), ("lockstep", 1)):
        monkeypatch.setattr(simulate, "_LOCKSTEP_CHAINS", lockstep_chains)
        path = tmp_path / f"{name}.csv"
        runs[name] = run_chain(cfg, dump_path=str(path)), path.read_bytes()
    (alone, alone_dump), (lockstep, lockstep_dump) = runs["alone"], runs["lockstep"]
    for field in _FIELDS:
        np.testing.assert_array_equal(getattr(alone, field), getattr(lockstep, field),
                                      err_msg=field)
    assert alone_dump == lockstep_dump
    assert alone_dump.count(b"\n") == 1 + cfg.chains * alone.retained
    if sampler in ("dmala", "dmaps"):
        assert 0 < alone.acceptance_fraction.min() <= alone.acceptance_fraction.max() < 1


@pytest.mark.parametrize("sampler", ["gibbs", "dula", "dmala", "dups", "dmaps"])
def test_single_table_chain_reads_no_numpy_row(sampler, monkeypatch):
    """A chain that steps alone reads its rows from Python lists: a 1-chain
    table run makes no `Stepper._table_row` call, where a lockstep run makes
    one or more per step."""
    calls = []
    table_row = Stepper._table_row

    def counted(self, k):
        calls.append(k)
        return table_row(self, k)

    monkeypatch.setattr(Stepper, "_table_row", counted)
    cfg = _cfg(sampler=sampler, score=None if sampler == "gibbs" else "glauber",
               model=CurieWeiss(0.1, 0.5, 6), steps=600, burn_in=0, chains=1)
    run_chain(cfg)
    assert calls == []
    run_chain(replace(cfg, chains=simulate._LOCKSTEP_CHAINS))
    assert len(calls) >= cfg.steps


def _counting(calls, name, fn):
    """`fn`, counting its calls in `calls[name]`."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def _plus_minus_path(mp):
    """Make `run_chain` step every vector-mode target on +-1 vectors in
    lockstep, as it does targets without level structure."""
    mp.setattr(simulate, "_level_path", lambda model: False)


class _ReferenceStepper(Stepper):
    """The adjusted steps without a carry: every step evaluates the current
    state's features afresh. Kept as the oracle for the carried steps."""

    def _dmala(self, x, u, log_u, carry=None):
        q, logit, base = self._at(x)
        flips = u < q
        prop = self._move(x, flips)
        _, logit_rev, base_rev = self._at(prop)
        ok = log_u < base_rev - base + np.vecdot(flips, logit_rev - logit)
        return self._select(ok, prop, x), ok, prop, None, None

    def _dmaps(self, x, word1, flips1, u, log_u, carry=None):
        z = self._flip(x, word1)
        q2, tilt2 = self._at(z)
        flips2 = u < q2
        prop = self._move(z, flips2)
        log_a = (self._log_weight(prop) - self._log_weight(x)
                 + np.vecdot(flips2 - flips1, tilt2))
        ok = log_u < log_a
        return self._select(ok, prop, x), ok, prop, z, None


def _reproduces_the_reference_stepper(levels: bool):
    """The test that a path's estimators equal, bit for bit, those of the
    re-evaluating reference stepper on +-1 vectors in lockstep; `levels`
    picks the path, the level table or the +-1 lockstep step with its carry."""
    @pytest.mark.parametrize("chains", [1, 3])
    @pytest.mark.parametrize("score", ["glauber", "gibbs", "stein"])
    @pytest.mark.parametrize("sampler", ["dmala", "dmaps"])
    @pytest.mark.parametrize("model", [CurieWeiss(0.06, 0.5, 16), BitsMixture(0.2, 24)],
                             ids=["d16", "d24"])
    def test(model, sampler, score, chains, monkeypatch):
        """Over more than one block of uniforms, on one chain and on three,
        the path changes no float of the estimators; both branches of the
        accept test are taken on every chain."""
        cfg = ChainConfig(sampler, model, score, 1.0, steps=1200, burn_in=100, thinning=3,
                          chains=chains, seed=5)
        if not levels:
            _plus_minus_path(monkeypatch)
        stepped = run_chain(cfg)
        _plus_minus_path(monkeypatch)
        monkeypatch.setattr(simulate, "Stepper", _ReferenceStepper)
        reference = run_chain(cfg)
        for field in _FIELDS:
            np.testing.assert_array_equal(getattr(stepped, field), getattr(reference, field),
                                          err_msg=field)
        assert stepped.state_counts is None
        assert 0 < stepped.acceptance_fraction.min() <= stepped.acceptance_fraction.max() < 1

    return test


# carrying the accepted state's features, and stepping alone against a level table
test_carried_features_reproduce_the_reference_stepper = _reproduces_the_reference_stepper(False)
test_level_path_reproduces_the_reference_stepper = _reproduces_the_reference_stepper(True)


def test_vector_runs_reproduce_the_reference_stepper_property():
    """Property form of `test_carried_features_reproduce_the_reference_stepper`,
    over drawn families, dimensions 13-20, scores, step sizes, chain counts
    and seeds: lockstep +-1 estimators with the carry and the all-accepted
    shortcut equal those of the re-evaluating reference stepper bit for bit.
    Derandomized, so every run draws the same bounded set of examples."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    grids = [(1, 13), (1, 17), (2, 7), (2, 10), (3, 5), (3, 6), (4, 4), (4, 5)]
    models = st.one_of(
        st.builds(IndependentBits, st.floats(-0.6, 0.6), st.integers(13, 20)),
        st.builds(BitsMixture, st.floats(0.0, 0.3), st.integers(13, 20)),
        st.builds(lambda rc, J, h, periodic: IsingGrid(*rc, J, h, periodic),
                  st.sampled_from(grids), st.floats(-0.5, 0.5), st.floats(-0.3, 0.3),
                  st.booleans()),
        st.builds(CurieWeiss, st.floats(0.0, 0.06), st.floats(-1.0, 1.0),
                  st.integers(13, 20)))

    @hypothesis.settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @hypothesis.given(model=models, sampler=st.sampled_from(["dmala", "dmaps"]),
                      score=st.sampled_from(["glauber", "gibbs", "stein"]),
                      eta=st.floats(0.3, 2.0), chains=st.integers(1, 5),
                      seed=st.integers(0, 2**32 - 1))
    def check(model, sampler, score, eta, chains, seed):
        cfg = ChainConfig(sampler, model, score, eta, steps=600, burn_in=50, thinning=2,
                          chains=chains, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            _plus_minus_path(mp)
            carried = run_chain(cfg)
            mp.setattr(simulate, "Stepper", _ReferenceStepper)
            reference = run_chain(cfg)
        for field in _FIELDS:
            np.testing.assert_array_equal(getattr(carried, field),
                                          getattr(reference, field), err_msg=field)

    check()


@pytest.mark.parametrize("chains", [1, 3])
@pytest.mark.parametrize("sampler", ["dmala", "dmaps"])
def test_vector_steps_evaluate_each_state_once(sampler, chains, monkeypatch):
    """Lockstep vector-mode steps evaluate the closed forms on each proposal
    only, plus once on the initial states: steps + 1 log weights for both
    adjusted samplers, and steps + 1 scores for dmala (dmaps scores the
    auxiliary state, once per step)."""
    calls = {"score": 0, "log_weight": 0}
    monkeypatch.setattr(ScoreField, "signs", _counting(calls, "score", ScoreField.signs))
    monkeypatch.setattr(CurieWeiss, "log_weight_signs",
                        _counting(calls, "log_weight", CurieWeiss.log_weight_signs))
    steps = 1500
    _plus_minus_path(monkeypatch)
    run_chain(ChainConfig(sampler, CurieWeiss(0.02, 0.3, 20), "glauber", 0.5, steps=steps,
                          chains=chains, seed=1))
    assert calls == {"score": steps + (sampler == "dmala"), "log_weight": steps + 1}


def test_level_runs_reproduce_the_reference_stepper_property():
    """Property form of `test_level_path_reproduces_the_reference_stepper`
    over all five samplers, the three exchangeable families at dimensions
    13-64 (full 64-bit words included), scores, step sizes, chain counts and
    seeds. Derandomized."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    dims = st.integers(13, 64)
    models = st.one_of(
        st.builds(IndependentBits, st.floats(-0.6, 0.6), dims),
        st.builds(BitsMixture, st.floats(0.0, 0.3), dims),
        st.builds(lambda beta, b, d: CurieWeiss(beta / d, b, d), st.floats(0.0, 1.0),
                  st.floats(-1.0, 1.0), dims))

    @hypothesis.settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @hypothesis.given(model=models,
                      sampler=st.sampled_from(["gibbs", "dula", "dmala", "dups", "dmaps"]),
                      score=st.sampled_from(["glauber", "gibbs", "stein"]),
                      eta=st.floats(0.3, 2.0), chains=st.integers(1, 5),
                      seed=st.integers(0, 2**32 - 1))
    def check(model, sampler, score, eta, chains, seed):
        if sampler == "gibbs":
            # the damped single-flip step needs exp(-2/eta) <= 1/d
            eta, score = min(eta, 1.9 / math.log(model.dim)), None
        cfg = ChainConfig(sampler, model, score, eta, steps=600, burn_in=50, thinning=2,
                          chains=chains, seed=seed)
        levels = run_chain(cfg)
        with pytest.MonkeyPatch.context() as mp:
            _plus_minus_path(mp)
            mp.setattr(simulate, "Stepper", _ReferenceStepper)
            reference = run_chain(cfg)
        for field in _FIELDS:
            np.testing.assert_array_equal(getattr(levels, field),
                                          getattr(reference, field), err_msg=field)

    check()


_LEVEL_MODELS = [CurieWeiss(0.6 / 16, 0.5, 16), BitsMixture(0.3, 24),
                 CurieWeiss(0.6 / 64, 0.5, 64)]


@pytest.mark.parametrize("model", _LEVEL_MODELS, ids=lambda m: f"d{m.dim}")
@pytest.mark.parametrize("sampler,score", [("gibbs", None)] + [
    (sampler, score) for sampler in ("dula", "dmala", "dups", "dmaps")
    for score in ("glauber", "gibbs", "stein")])
def test_level_path_chains_are_separate_substreams(sampler, score, model, tmp_path,
                                                   monkeypatch):
    """On the level path, chain c does not depend on how many chains run
    beside it: the first chains of 5-, 4-, 2- and 1-chain runs give the same
    estimators and the same `--dump` rows, over many blocks of uniforms and
    with both branches of the accept test taken. The level table is built
    once, so a 1-chain run evaluates the closed forms a fixed number of
    times, whatever its step count."""
    monkeypatch.setattr(simulate, "_UNIFORM_BLOCK", 1 << 9)
    eta = 0.45 if sampler == "gibbs" else 1.0
    cfg = ChainConfig(sampler, model, score, eta, steps=600, burn_in=101, thinning=3,
                      chains=1, seed=23)
    runs = {}
    for chains in (5, 4, 2, 1):
        path = tmp_path / f"{chains}.csv"
        runs[chains] = run_chain(replace(cfg, chains=chains), str(path)), path.read_bytes()
    for larger in (5, 4):
        for c in (2, 1):
            (big, big_dump), (small, small_dump) = runs[larger], runs[c]
            for field in _FIELDS[:-1]:
                np.testing.assert_array_equal(getattr(big, field)[:c], getattr(small, field),
                                              err_msg=field)
            assert small.state_counts is big.state_counts is None
            # dump rows are chain-major, so the first chains' rows come first
            assert big_dump[:len(small_dump)] == small_dump
    assert runs[1][1].count(b"\n") == 1 + runs[1][0].retained
    if sampler in ("dmala", "dmaps"):
        acceptance = runs[5][0].acceptance_fraction
        assert 0 < acceptance.min() <= acceptance.max() < 1

    calls = {"score": 0, "log_weight": 0}
    monkeypatch.setattr(ScoreField, "signs", _counting(calls, "score", ScoreField.signs))
    monkeypatch.setattr(type(model), "log_weight_signs",
                        _counting(calls, "log_weight", type(model).log_weight_signs))
    counts = []
    for steps in (200, 900):
        run_chain(replace(cfg, steps=steps))
        counts.append(dict(calls))
        calls.update(score=0, log_weight=0)
    assert counts[0] == counts[1]
    assert counts[0]["score"] <= 2 and counts[0]["log_weight"] <= 4, counts


@pytest.mark.parametrize("model", [BitsMixture(0.08, 32), CurieWeiss(0.01, 1.0, 40),
                                   BitsMixture(0.05, 80)],
                         ids=["mixture-d32", "curieweiss-d40", "mixture-d80"])
@pytest.mark.parametrize("sampler", ["gibbs", "dmala", "dmaps"])
def test_level_chains_match_the_exact_magnetization_law(model, sampler):
    """The pooled +1-count histogram of vector-mode chains lies within TV
    0.05 of the exact law C(d, u) w(u), which the target gives in closed
    form at any d. At d = 32 and 40 the chains take the level path. Over
    eight seeds the correct chains read at most 0.044 (gibbs, which moves
    one coordinate at a time, gets five times the steps); swapping the plus
    and minus values in any one level primitive reads 0.07 or more.

    d = 80 is above `LEVEL_DIM_CAP`, so its chains take the +-1 lockstep
    step; its beta^2 d matches the d = 32 mixture's. Over seeds 11-18 the
    correct chains read at most 0.020 (gibbs), 0.014 (dmala) and 0.010
    (dmaps). Flipping one sign on that path reads 0.086 or more over seeds
    11-13: the score's in gibbs's features, the proposal-ratio term of
    dmala's accept test, or the tilt term of dmaps's."""
    d = model.dim
    u = np.arange(d + 1)
    signs = np.where(np.arange(d) < u[:, None], 1.0, -1.0)
    log_law = (model.log_weight_signs(signs)
               + np.array([math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)
                           for k in u]))
    law = np.exp(log_law - log_law.max())
    law /= law.sum()
    eta = 1.8 / math.log(d) if sampler == "gibbs" else 0.8
    steps = 100_000 if sampler == "gibbs" else 20_000
    res = run_chain(ChainConfig(sampler, model, None if sampler == "gibbs" else "glauber",
                                eta, steps=steps, burn_in=1_000, chains=4, seed=11))
    pooled = res.magnetization_histogram.sum(axis=0)
    tv = 0.5 * np.abs(pooled / pooled.sum() - law).sum()
    assert tv <= 0.05, tv


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


@pytest.mark.parametrize("dim", [4, 16], ids=["table", "vector"])
def test_dump_file(dim, tmp_path, monkeypatch):
    """The dumped rows, per chain and in step order, are the retained samples:
    they rebuild the magnetization histogram and, in table mode, the state
    counts, over several blocks of uniforms."""
    monkeypatch.setattr(simulate, "_UNIFORM_BLOCK", 1 << 9)
    path = tmp_path / "samples.csv"
    cfg = _cfg(model=BitsMixture(0.4, dim), steps=200, burn_in=20, thinning=10, chains=2)
    res = run_chain(cfg, dump_path=str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * res.retained
    hist = np.zeros((2, dim + 1), dtype=np.int64)
    counts = np.zeros((2, 1 << dim), dtype=np.int64)
    for n, row in enumerate(rows):
        c, k = divmod(n, res.retained)
        assert (int(row["chain"]), int(row["step"])) == (c, 20 + 10 * k)
        word = int(row["state"], 16)
        assert 0 <= word < 1 << dim
        assert float(row["magnetization"]) == (2 * word.bit_count() - dim) / dim
        hist[c, word.bit_count()] += 1
        counts[c, word] += 1
    np.testing.assert_array_equal(hist, res.magnetization_histogram)
    if dim <= simulate.TABLE_DIM_CAP:
        np.testing.assert_array_equal(counts, res.state_counts)
    else:
        assert res.state_counts is None


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
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        _cfg(seed=-1)


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


def test_transitions_from_a_state_of_another_dimension_are_rejected():
    model = IndependentBits(0.3, 3)
    with pytest.raises(ValueError, match="state dimension does not match the model"):
        sample_transitions(model, "dula", "glauber", 0.5, state_of(0, 4), 10,
                           np.random.default_rng(0))


def test_negative_draw_count_is_a_parameter_error():
    model = IndependentBits(0.3, 3)
    with pytest.raises(ParameterError, match="draw count must be >= 0, got -1"):
        sample_transitions(model, "dula", "glauber", 0.5, state_of(0, 3), -1,
                           np.random.default_rng(0))
    assert sample_transitions(model, "dula", "glauber", 0.5, state_of(0, 3), 0,
                              np.random.default_rng(0)).size == 0
