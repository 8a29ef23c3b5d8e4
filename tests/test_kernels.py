import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit, log_expit

from cubelab import kernels, scores, statespace
from cubelab.errors import CapabilityError, NumericalError, ParameterError
from cubelab.kernels import (
    GeneratorMatrix,
    KernelMatrix,
    dmala_matrix,
    dmala_step,
    dmaps_matrix,
    dmaps_step,
    dula_generator,
    dula_matrix,
    dula_step,
    dups_generator,
    dups_matrix,
    dups_step,
    gibbs_matrix,
    gibbs_step,
    glauber_generator,
    prox_exact_matrix,
)
from cubelab.models import (BitsMixture, CurieWeiss, IndependentBits, IsingGrid, _exchangeable,
                            exact_target)
from cubelab.scores import SCORE_KINDS, ScoreField, glauber_score
from cubelab.statespace import (MAX_SIM_DIM, BitState, all_signs, hamming, isometry_images,
                                orbit_minima, pack_words, state_of, unpack_words)

SMALL_MODELS = [
    IndependentBits(0.5, 3),
    BitsMixture(0.4, 3),
    IsingGrid(1, 3, 0.6, 0.1),
    CurieWeiss(0.3, 0.0, 3),
]


def _score_builders(model, eta):
    field = {kind: ScoreField(model, kind) for kind in ("stein", "gibbs", "glauber")}
    out = []
    if math.exp(-2.0 / eta) <= 1.0 / model.dim:
        out.append(("gibbs", gibbs_matrix(model, eta)))
    out.append(("prox", prox_exact_matrix(model, eta)))
    for kind in field:
        out.append((f"dula/{kind}", dula_matrix(model, field[kind], eta)))
        out.append((f"dmala/{kind}", dmala_matrix(model, field[kind], eta)))
        out.append((f"dups/{kind}", dups_matrix(model, field[kind], eta)))
        out.append((f"dmaps/{kind}", dmaps_matrix(model, field[kind], eta)))
    return out


@pytest.mark.parametrize("model", SMALL_MODELS)
@pytest.mark.parametrize("eta", [0.2, 0.5, 1.0])
def test_rows_stochastic_and_nonnegative(model, eta):
    for name, kernel in _score_builders(model, eta):
        probs = kernel.probs
        assert probs.min() >= -1e-12, name
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12, err_msg=name)


def test_rows_stochastic_at_extreme_step_size():
    """eta = 0.05 drives exp(-2/eta) to ~4e-18; the sigmoid evaluation must
    not underflow into invalid rows."""
    model = BitsMixture(0.5, 3)
    for name, kernel in _score_builders(model, 0.05):
        assert np.isfinite(kernel.probs).all(), name
        np.testing.assert_allclose(kernel.probs.sum(axis=1), 1.0, atol=1e-12,
                                   err_msg=name)
        # the kernels are nearly lazy at this step size
        assert np.diag(kernel.probs).min() > 0.999, name


def test_rows_stochastic_d8():
    model = IsingGrid(2, 4, 0.3, 0.05)
    for name, kernel in _score_builders(model, 0.5):
        np.testing.assert_allclose(kernel.probs.sum(axis=1), 1.0, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# damped single-flip kernel


def test_gibbs_single_site_flip_probability():
    model = CurieWeiss(0.4, 0.3, 1)
    eta = 0.7
    t = gibbs_matrix(model, eta)
    for k in (0, 1):
        x = state_of(k, 1)
        g = glauber_score(model, x)[0]
        expected = math.exp(-2 / eta) * expit(-2 * x.coord(0) * g)
        assert t.probs[k, 1 - k] == pytest.approx(expected, abs=1e-15)


def test_gibbs_uniform_stay_probability():
    model = IndependentBits(0.0, 4)
    eta = 0.9
    t = gibbs_matrix(model, eta)
    stay = 1.0 - 4 * math.exp(-2 / eta) / 2.0
    np.testing.assert_allclose(np.diag(t.probs), stay, atol=1e-14)


def test_gibbs_detailed_balance():
    model = IsingGrid(2, 2, 0.4, 0.1)
    p = exact_target(model)
    t = gibbs_matrix(model, 0.5)
    flux = p[:, None] * t.probs
    assert np.abs(flux - flux.T).max() <= 1e-12


def test_gibbs_step_size_is_a_hard_error():
    model = IndependentBits(0.2, 6)
    with pytest.raises(ParameterError):
        gibbs_matrix(model, 2.0)  # exp(-1) > 1/6
    with pytest.raises(ParameterError):
        gibbs_step(model, state_of(0, 6), 2.0, np.random.default_rng(0))


def test_gibbs_moves_at_most_one_coordinate():
    model = BitsMixture(0.4, 5)
    rng = np.random.default_rng(5)
    x = state_of(7, 5)
    for _ in range(200):
        out = gibbs_step(model, x, 0.6, rng)
        assert hamming(out.next, x) <= 1
        assert out.accepted and out.next == out.proposal
        x = out.next


# ---------------------------------------------------------------------------
# independent-flip kernel


def test_dula_flip_probabilities_flat_score():
    flat = IndependentBits(0.0, 3)
    eta = 0.5
    t = dula_matrix(flat, ScoreField(flat, "glauber"), eta)
    # score is zero: every coordinate flips with probability sigma(-2/eta)
    a = expit(-2 / eta)
    row = t.probs[0]
    for j in range(8):
        ell = hamming(state_of(0, 3), state_of(j, 3))
        assert row[j] == pytest.approx(a**ell * (1 - a) ** (3 - ell), rel=1e-12)
    # gibbs score of the flat target shifts the tilt by log 2
    t2 = dula_matrix(flat, ScoreField(flat, "gibbs"), eta)
    a2 = expit(-2 / eta - math.log(2.0))
    assert t2.probs[0, 1] == pytest.approx(a2 * (1 - a2) ** 2, rel=1e-12)


def test_dula_row_matches_direct_enumeration_d2():
    model = CurieWeiss(0.3, 0.2, 2)
    field = ScoreField(model, "glauber")
    eta = 0.6
    t = dula_matrix(model, field, eta)
    for k in range(4):
        x = state_of(k, 2)
        s = x.signs().astype(float)
        q = expit(-2 / eta - s * field(x))
        expected = np.empty(4)
        for j in range(4):
            flips = [(k ^ j) >> i & 1 for i in range(2)]
            expected[j] = math.prod(q[i] if flips[i] else 1 - q[i] for i in range(2))
        np.testing.assert_allclose(t.probs[k], expected, atol=1e-14)
        assert expected.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Metropolis-adjusted independent flips


class _FlatStein(IsingGrid):
    """An Ising grid whose stein score is zero at every state."""

    def stein_score_signs(self, signs):
        return np.zeros(np.shape(signs))


def test_dmala_flat_score_reduces_to_target_ratio():
    """With a symmetric proposal the acceptance is min(1, w(x')/w(x))."""
    from cubelab.statespace import all_signs

    model = _FlatStein(1, 3, 0.5, 0.0)
    zero = ScoreField(model, "stein")  # constant-zero field
    eta = 0.5
    a = expit(-2 / eta)
    lw = model.log_weight_signs(all_signs(3).astype(float))
    proposal = np.empty((8, 8))
    for k in range(8):
        for j in range(8):
            ell = bin(k ^ j).count("1")
            proposal[k, j] = a**ell * (1 - a) ** (3 - ell)
    accept = np.minimum(1.0, np.exp(lw[None, :] - lw[:, None]))
    expected = proposal * accept
    expected[np.arange(8), np.arange(8)] += 1 - expected.sum(axis=1)

    t = dmala_matrix(model, zero, eta)
    np.testing.assert_allclose(t.probs, expected, atol=1e-13)


def test_dmala_stationary_is_target():
    from cubelab.analysis import stationary, tv_distance

    model = BitsMixture(0.5, 4)
    p = exact_target(model)
    for kind in ("stein", "gibbs", "glauber"):
        t = dmala_matrix(model, ScoreField(model, kind), 0.5)
        assert tv_distance(stationary(t), p) <= 1e-9


def test_dmala_step_self_proposal_accepts():
    model = IndependentBits(0.4, 4)
    field = ScoreField(model, "gibbs")
    rng = np.random.default_rng(2)
    saw_self = False
    x = state_of(5, 4)
    for _ in range(300):
        out = dmala_step(model, field, x, 0.3, rng)
        if out.proposal == x:
            assert out.accepted and out.next == x
            saw_self = True
    assert saw_self


# ---------------------------------------------------------------------------
# two-stage kernels


def test_dups_matrix_is_product_of_stages():
    model = BitsMixture(0.4, 3)
    field = ScoreField(model, "glauber")
    eta = 0.5
    a = expit(-2 / eta)
    stage1 = np.empty((8, 8))
    for k in range(8):
        for j in range(8):
            ell = bin(k ^ j).count("1")
            stage1[k, j] = a**ell * (1 - a) ** (3 - ell)
    stage2 = np.empty((8, 8))
    for z in range(8):
        zs = state_of(z, 3)
        q = expit(-2 / eta - 2 * zs.signs() * field(zs))
        for j in range(8):
            flips = [(z ^ j) >> i & 1 for i in range(3)]
            stage2[z, j] = math.prod(q[i] if flips[i] else 1 - q[i] for i in range(3))
    t = dups_matrix(model, field, eta)
    np.testing.assert_allclose(t.probs, stage1 @ stage2, atol=1e-13)


def test_dups_step_outcome_fields():
    model = IndependentBits(0.3, 5)
    field = ScoreField(model, "stein")
    rng = np.random.default_rng(9)
    x = state_of(17, 5)
    out = dups_step(model, field, x, 0.4, rng)
    assert out.accepted and out.next == out.proposal
    assert out.auxiliary is not None and out.auxiliary.dim == 5


def test_dups_product_target_exact():
    from cubelab.analysis import stationary, tv_distance

    model = IndependentBits(0.5, 4)
    p = exact_target(model)
    t = dups_matrix(model, ScoreField(model, "stein"), 0.5)
    assert tv_distance(stationary(t), p) <= 1e-12


def test_dmaps_constant_score_accepts_everything():
    """Constant exact score: the acceptance ratio is identically one, so the
    adjusted two-stage kernel equals the unadjusted one entrywise."""
    model = IndependentBits(0.5, 4)
    field = ScoreField(model, "stein")
    adjusted = dmaps_matrix(model, field, 0.5)
    unadjusted = dups_matrix(model, field, 0.5)
    np.testing.assert_allclose(adjusted.probs, unadjusted.probs, atol=1e-14)


def test_dmaps_stationary_and_detailed_balance():
    from cubelab.analysis import detailed_balance_residual, stationary, tv_distance

    model = CurieWeiss(0.2, 0.0, 4)
    p = exact_target(model)
    for kind in ("stein", "gibbs", "glauber"):
        t = dmaps_matrix(model, ScoreField(model, kind), 0.4)
        assert detailed_balance_residual(t, p) <= 1e-12
        assert tv_distance(stationary(t), p) <= 1e-9


def test_dmaps_step_bookkeeping():
    model = IsingGrid(2, 2, 0.5, 0.0)
    field = ScoreField(model, "glauber")
    rng = np.random.default_rng(3)
    x = state_of(6, 4)
    rejected = accepted_move = False
    for _ in range(500):
        out = dmaps_step(model, field, x, 0.6, rng)
        if out.accepted:
            assert out.next == out.proposal
            accepted_move = accepted_move or out.next != x
        else:
            assert out.next == x and out.proposal != x
            rejected = True
    assert rejected and accepted_move


@pytest.mark.parametrize("sampler", ["dmala", "dmaps"])
@pytest.mark.parametrize("model,eta", [(CurieWeiss(0.05, 0.3, 16), 1.0),
                                       (BitsMixture(0.3, 16), 1.0),
                                       (IsingGrid(4, 4, 0.3, 0.1, periodic=True), 0.8)],
                         ids=["curieweiss", "mixture", "ising"])
def test_vector_carry_is_the_next_states_features(model, eta, sampler):
    """After every vector step the carry equals the features of the returned
    states, evaluated afresh, bit for bit: on batches where every chain
    accepts (the select is skipped), on batches where some reject, and on an
    unbatched one-shot step."""
    st = kernels.Stepper(model, sampler, "glauber", eta, "vectors")

    def fresh(x):
        return st._at(x) if sampler == "dmala" else (st._log_weight(x),)

    def check(nxt, carry):
        # dmala carries a tuple of features, dmaps the log weight alone
        if sampler == "dmaps":
            carry = (carry,)
        assert len(carry) == len(fresh(nxt))
        for got, want in zip(carry, fresh(nxt)):
            np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                          np.asarray(want).view(np.uint64))

    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, (3, model.dim)) * 2.0 - 1.0
    carry, batches = None, set()
    for operands in zip(*st.prepare(rng.random((300, 3, st.uniforms_per_step)))):
        x, ok, _, _, carry = st.step(x, operands, carry)
        check(x, carry)
        batches.add(bool(ok.all()))
    assert batches == {True, False}
    outcomes = set()
    for u in rng.random((200, st.uniforms_per_step)):
        nxt, ok, prop, _, carry = st.step(x[0], st.prepare(u))
        assert ok.shape == () and nxt.shape == (model.dim,)
        check(nxt, carry)
        outcomes.add(bool(ok))
    assert outcomes == {True, False}


def test_prox_exact_reversible_and_stochastic():
    from cubelab.analysis import detailed_balance_residual

    model = BitsMixture(0.5, 4)
    p = exact_target(model)
    t = prox_exact_matrix(model, 0.4)
    np.testing.assert_allclose(t.probs.sum(axis=1), 1.0, atol=1e-12)
    assert detailed_balance_residual(t, p) <= 1e-12


def _flip_law(logit):
    """Dense law of independent flips, built coordinate by coordinate: from
    state k, coordinate i flips with probability expit(logit[k, i])."""
    n, d = logit.shape
    ks = np.arange(n)
    law = np.ones((n, n))
    for i in range(d):
        differs = ((ks[:, None] ^ ks[None, :]) >> i) & 1 == 1
        law *= np.where(differs, expit(logit[:, i:i + 1]), expit(-logit[:, i:i + 1]))
    return law


def _dmaps_flux(model, score, eta):
    """Accepted dmaps flux over all pairs of states: every orbit's
    representative row, permuted onto the rest of its orbit."""
    return kernels._permute_orbits(*kernels._dmaps_orbit_flux(model, score, eta))


def _dmaps_flux_reference(model, score, eta):
    """The dmaps flux by the per-z formula: one exp over all pairs per z."""
    n = 1 << model.dim
    signs = all_signs(model.dim).astype(np.float64)
    lw = model.log_weight_signs(signs)
    tab = score.table()
    stage1 = _flip_law(np.full((n, model.dim), -2.0 / eta))
    stage2 = _flip_law(-2.0 / eta - 2.0 * signs * tab)
    flux = np.zeros((n, n))
    for z in range(n):
        phi = lw - signs @ tab[z]
        accept = np.exp(np.minimum(phi[None, :] - phi[:, None], 0.0))
        flux += (stage1[:, z][:, None] * stage2[z][None, :]) * accept
    return flux


@pytest.mark.parametrize("model", SMALL_MODELS + [IsingGrid(2, 4, 0.3, 0.05),
                                                  BitsMixture(0.5, 8)])
def test_dmaps_flux_matches_per_z_reference(model):
    for kind in ("stein", "gibbs", "glauber"):
        field = ScoreField(model, kind)
        for eta in (0.2, 0.5, 1.0):
            got = _dmaps_flux(model, field, eta)
            want = _dmaps_flux_reference(model, field, eta)
            assert np.abs(got - want).max() <= 1e-14, (kind, eta)


@pytest.mark.parametrize("model", [CurieWeiss(25.0, 0.0, 6), IsingGrid(2, 3, 40.0, 0.0)])
@pytest.mark.parametrize("kind", ["glauber", "stein"])
def test_dmaps_flux_falls_back_where_exp_underflows(model, kind, monkeypatch):
    """phi_z spans over a thousand here, so exp(phi_z - max) underflows to 0."""
    from cubelab.analysis import dmaps_empirical_delta

    field = ScoreField(model, kind)
    t = dmaps_matrix(model, field, 0.5)
    assert np.isfinite(t.probs).all()
    flux = _dmaps_flux(model, field, 0.5)
    assert np.abs(flux - _dmaps_flux_reference(model, field, 0.5)).max() <= 1e-14
    assert 0.0 <= dmaps_empirical_delta(model, field, 0.5) <= 1.0
    # the configuration does need the fallback: factorizing every z gives NaN
    monkeypatch.setattr(kernels, "_PHI_SPAN", math.inf)
    with np.errstate(all="ignore"):
        assert np.isnan(_dmaps_flux(model, field, 0.5)).any()


def _declaring(model, symmetries):
    """An equal-parameter copy of `model` that declares `symmetries` instead."""
    cls = type(model)
    declaring = type("Declaring" + cls.__name__, (cls,), {"symmetries": lambda self: symmetries})
    return declaring(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})


@pytest.mark.parametrize("model, kinds, eta", [
    (BitsMixture(0.5, 9), ("glauber",), 0.4),
    (CurieWeiss(0.2, 0.0, 8), ("stein", "gibbs", "glauber"), 0.4),
    (IsingGrid(2, 4, 0.3, 0.0), ("stein", "gibbs", "glauber"), 0.4),
    # its cyclic shift is the one declared generator that is not an involution
    (IsingGrid(2, 4, 0.3, 0.1, periodic=True), ("glauber",), 0.6),
], ids=repr)
def test_orbit_built_dmaps_flux_matches_the_flux_without_symmetries(model, kinds, eta):
    plain = _declaring(model, ())
    assert model.symmetries()
    for kind in kinds:
        field = ScoreField(model, kind)
        reps, rows, _ = kernels._dmaps_orbit_flux(model, field, eta)
        assert 4 * len(reps) < 1 << model.dim, kind
        flux = _dmaps_flux(model, field, eta)
        want = _dmaps_flux(plain, ScoreField(plain, kind), eta)
        assert np.abs(flux - want).max() <= 1e-14, kind
        probs = dmaps_matrix(model, field, eta).probs
        # every row is its orbit representative's, permuted
        orbit = orbit_minima(1 << model.dim, [isometry_images(model.dim, *g)
                                              for g in model.symmetries()])
        assert np.array_equal(np.sort(probs, axis=1), np.sort(probs[orbit], axis=1)), kind
        for sigma, mask in model.symmetries():
            g = isometry_images(model.dim, sigma, mask)
            assert np.abs(probs[np.ix_(g, g)] - probs).max() <= 1e-15, (kind, sigma, mask)


class _TiltedStein(CurieWeiss):
    """Curie-Weiss whose stein score is shifted on coordinate 0 alone, so its
    log weights keep every permutation and its tilt table does not."""

    def stein_score_signs(self, signs):
        out = super().stein_score_signs(signs)
        out[..., 0] += 1e-3
        return out


@pytest.mark.parametrize("model, generator, kind, what", [
    (IsingGrid(2, 3, 0.4, 0.1), ((1, 0, 2, 3, 4, 5), 0), "glauber", "log weights"),
    (CurieWeiss(0.2, 0.3, 6), ((0, 1, 2, 3, 4, 5), 0b111111), "stein", "log weights"),
    (_TiltedStein(0.2, 0.0, 4), None, "stein", "tilt table"),
], ids=["ising-transposition", "curieweiss-flip-at-b", "tilted-stein"])
def test_false_generator_raises_before_the_z_loop(model, generator, kind, what, monkeypatch):
    from cubelab.analysis import dmaps_empirical_delta
    from cubelab.errors import NumericalError

    if generator is not None:
        model = _declaring(model, model.symmetries() + (generator,))
    field = ScoreField(model, kind)
    built = []
    stage_two = kernels._score_log_kernel
    monkeypatch.setattr(kernels, "_score_log_kernel",
                        lambda *a: built.append(a) or stage_two(*a))
    for call in (dmaps_matrix, dmaps_empirical_delta):
        with pytest.raises(NumericalError, match=f"breaks the declared symmetry .* its {what}"):
            call(model, field, 0.5)
    assert built == []


@pytest.mark.parametrize("model, kind", [
    (BitsMixture(0.5, 8), "glauber"),
    (IsingGrid(2, 3, 0.4, 0.1), "stein"),
    # phi_z spans over a thousand: z terms of the exp form sit among the factored ones
    (CurieWeiss(25.0, 0.0, 6), "glauber"),
], ids=repr)
@pytest.mark.parametrize("terms", [None, 3])
def test_blocked_dmaps_flux_is_the_per_z_loop(model, kind, terms, monkeypatch):
    """The flux summed over blocks of z terms equals, bit for bit, the flux
    summed one row and one z at a time, which a tile of one row's bytes
    forces. `terms` sizes the buffer to that many z terms per tile, so the
    last block is short; None keeps the default buffer."""
    field = ScoreField(model, kind)
    n = 1 << model.dim
    reps, rows, _ = kernels._dmaps_orbit_flux(model, field, 0.5)
    if terms is not None:
        tile = min(len(reps), kernels._FLUX_TILE_BYTES // (8 * n))
        monkeypatch.setattr(kernels, "_FLUX_TILE_BYTES", 8 * n * tile * terms)
        rows = kernels._dmaps_orbit_flux(model, field, 0.5)[1]
    monkeypatch.setattr(kernels, "_FLUX_TILE_BYTES", 8 * n)
    assert np.array_equal(rows, kernels._dmaps_orbit_flux(model, field, 0.5)[1])


def _pattern_log_probs(logit):
    """The log-probability of every flip pattern under each row of
    per-coordinate log-odds, by concatenation: bit i is the most significant
    so far, so its 0-half comes first."""
    flip, stay = log_expit(logit), log_expit(-logit)
    out = np.zeros((logit.shape[0], 1))
    for i in range(logit.shape[1]):
        out = np.concatenate([out + stay[:, i:i + 1], out + flip[:, i:i + 1]], axis=1)
    return out


def _gathered_flip_log_kernel(logit, origin_words):
    """The flip log kernel read off the law of each row's flip patterns by
    one gather: entry (r, j) is pattern origin_words[r] ^ j of row r."""
    ks = np.arange(1 << logit.shape[1])
    rows = np.arange(len(origin_words))[:, None]
    return _pattern_log_probs(logit)[rows, origin_words[:, None] ^ ks]


@pytest.mark.parametrize("dim", range(1, 13))
def test_destination_order_flip_log_kernel_is_the_gathered_one(dim):
    rng = np.random.default_rng(dim)
    n = 1 << dim
    ks = np.arange(n)
    for scale in (3.0, 800.0) if dim <= 10 else ():
        logit = rng.uniform(-scale, scale, (n, dim))
        assert np.array_equal(kernels._flip_log_kernel(logit), _gathered_flip_log_kernel(logit, ks))
        # from all-false origins, each row's law of flip patterns (the product laws)
        start = np.zeros((n, dim), dtype=bool)
        assert np.array_equal(kernels._flip_log_kernel(logit, start), _pattern_log_probs(logit))
        # from any origins, row r's pattern law moved to origin r
        words = rng.integers(0, n, n)
        assert np.array_equal(kernels._flip_log_kernel(logit, unpack_words(words, dim)),
                              _gathered_flip_log_kernel(logit, words))
    # one row of rates serves every state; compared in blocks of rows, since
    # the gather's index alone is 4^d words
    logit = rng.uniform(-800.0, 800.0, (1, dim))
    law = _pattern_log_probs(logit)[0]
    out = kernels._flip_log_kernel(logit)
    assert out.shape == (n, n)
    for r in range(0, n, 256):
        assert np.array_equal(out[r:r + 256], law[ks[r:r + 256, None] ^ ks])


def _gathered_images(a, axes, dim, sigma, mask):
    """`a` moved by the isometry as one gather per axis, the state images
    by the bit-shift formula: bit sigma[i] of g(k) is bit i of k, XORed
    with the mask."""
    img = (unpack_words(np.arange(1 << dim), dim) << np.asarray(sigma)).sum(axis=1) ^ mask
    return a[np.ix_(*(img if ax == "x" else list(sigma) for ax in axes))]


@pytest.mark.parametrize("dim", range(1, 10))
def test_view_based_symmetry_check_is_the_gathered_one(dim):
    """`statespace._moved_view` reads every entry where the gathers of the
    bit-shift images do, for random isometries; a part made invariant under
    one passes its check, and a 2 SYMMETRY_TOL change at an entry it moves
    raises the NumericalError that the gathered difference names."""
    rng = np.random.default_rng(100 + dim)
    n = 1 << dim
    for _ in range(4):
        sigma, mask = tuple(rng.permutation(dim).tolist()), int(rng.integers(n))
        for axes, shape in (("xx", (n, n)), ("x", (n,)), ("xi", (n, dim))):
            a = rng.uniform(0.5, 1.5, shape)
            moved = statespace._moved_view(a, axes, dim, sigma, mask)
            assert np.array_equal(moved.reshape(shape), _gathered_images(a, axes, dim, sigma, mask))
            # constant on each orbit of the entries under the isometry
            index = np.arange(a.size).reshape(shape)
            image = _gathered_images(index, axes, dim, sigma, mask).ravel()
            a = a.ravel()[orbit_minima(a.size, [image])].reshape(shape)
            kernels._checked_images("part", dim, [(sigma, mask)], [("entries", a, axes)])
            if np.array_equal(image, index.ravel()):
                continue
            at = np.unravel_index(np.flatnonzero(image != index.ravel())[0], shape)
            a[at] += 2.0 * kernels.SYMMETRY_TOL * np.abs(a).max()
            dev = np.abs(_gathered_images(a, axes, dim, sigma, mask) - a).max()
            message = (f"part breaks the declared symmetry (sigma={sigma}, flip_mask={mask:#x}) "
                       f"on its entries by {dev:.3e}")
            with pytest.raises(NumericalError, match=re.escape(message)):
                kernels._checked_images("part", dim, [(sigma, mask)], [("entries", a, axes)])


def test_dmala_matrix_where_flip_probabilities_saturate():
    # glauber scores of CurieWeiss(8, 0, 5) reach 64, so expit(-2/eta - x_i s_i)
    # rounds to 1 at every state
    from cubelab.analysis import detailed_balance_residual

    model = CurieWeiss(8.0, 0.0, 5)
    t = dmala_matrix(model, ScoreField(model, "glauber"), 0.8)
    assert np.abs(t.probs.sum(axis=1) - 1.0).max() <= 1e-12
    assert detailed_balance_residual(t, exact_target(model)) <= 1e-12


@pytest.mark.parametrize("sampler", ["dula", "dmala", "dups", "dmaps", "prox"])
def test_kernels_stay_finite_where_the_stage_one_rate_underflows(sampler):
    # exp(-2/eta) = e^-1000: the flip rate of stage one is below the subnormals
    model = IndependentBits(0.5, 3)
    t = kernels.kernel_matrix(model, sampler, ScoreField(model, "glauber"), 0.002)
    np.testing.assert_allclose(t.probs, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("probs,message", [
    (np.full((2, 4), 0.25), "must be square"),
    (np.array([[1.5, -0.5], [0.0, 1.0]]), "negative entry"),
    (np.array([[0.5, 0.4], [0.0, 1.0]]), "rows sum to 1 only within"),
    (np.full((3, 3), 1 / 3), "side 3 is not a power of two"),
    (np.ones((1, 1)), "side 1 is not a power of two above 1"),
])
def test_kernel_matrix_rejects_non_kernels(probs, message):
    with pytest.raises(ValueError, match=message):
        KernelMatrix(probs, 0.5, "dula")


@pytest.mark.parametrize("rates,message", [
    (np.zeros((2, 4)), "must be square"),
    (np.array([[-1.0, 1.0], [0.5, -0.25]]), "rows must sum to zero"),
])
def test_generator_matrix_rejects_non_generators(rates, message):
    with pytest.raises(ValueError, match=message):
        GeneratorMatrix(rates)


def test_one_shot_steps_need_a_score_and_a_state_of_the_model():
    model = IndependentBits(0.3, 3)
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError, match="'dula' needs a score field"):
        dula_step(model, None, state_of(5, 3), 0.5, rng)
    with pytest.raises(ValueError, match="state dimension 4 != model dimension 3"):
        dula_step(model, ScoreField(model, "glauber"), state_of(5, 4), 0.5, rng)


def test_a_score_field_of_another_model_is_rejected():
    from cubelab.analysis import dmaps_empirical_delta, naive_mh_oracle

    model = IndependentBits(0.5, 3)
    others = [ScoreField(IndependentBits(0.5, 4), "glauber"),
              ScoreField(CurieWeiss(0.1, 0.0, 5), "stein"),
              ScoreField(IndependentBits(0.6, 3), "glauber"),
              # a dimension above the dense cap is rejected before any table is built
              ScoreField(IndependentBits(0.5, 13), "glauber")]
    rng = np.random.default_rng(0)
    calls = [lambda f: dula_matrix(model, f, 0.5), lambda f: dmala_matrix(model, f, 0.5),
             lambda f: dups_matrix(model, f, 0.5), lambda f: dmaps_matrix(model, f, 0.5),
             lambda f: kernels.kernel_matrix(model, "dups", f, 0.5),
             lambda f: dmaps_empirical_delta(model, f, 0.5),
             lambda f: naive_mh_oracle(model, f, 0.5),
             *(lambda f, step=step: step(model, f, state_of(5, 3), 0.5, rng)
               for step in (dula_step, dmala_step, dups_step, dmaps_step))]
    for field in others:
        for call in calls:
            with pytest.raises(ParameterError, match=re.escape(
                    f"a score field of {field.model!r} cannot drive {model!r}")):
                call(field)
    assert scores._memo_table.cache_info().misses == 0
    # an equal model is the same model
    dula_matrix(model, ScoreField(IndependentBits(0.5, 3), "glauber"), 0.5)


def test_dense_matrices_reject_non_finite_entries():
    p = np.full((4, 4), 0.25)
    p[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry nan at index \(1, 2\)"):
        KernelMatrix(p, 0.5, "dula")
    q = np.zeros((4, 4))
    q[3, 0] = np.inf
    with pytest.raises(ValueError, match=r"non-finite entry inf at index \(3, 0\)"):
        GeneratorMatrix(q)


# ---------------------------------------------------------------------------
# generators


def test_single_flip_matrix_matches_its_per_coordinate_loop():
    rates = np.random.default_rng(1).random((16, 4))
    ks = np.arange(16)
    loop = np.zeros((16, 16))
    for i in range(4):
        loop[ks, ks ^ (1 << i)] = rates[:, i]
    loop[ks, ks] = -loop.sum(axis=1)
    assert np.array_equal(kernels._single_flip_matrix(rates), loop)


def test_generator_row_sums_and_rates():
    model = IsingGrid(2, 2, 0.4, 0.1)
    p = exact_target(model)
    q = glauber_generator(model)
    assert np.abs(q.rates.sum(axis=1)).max() <= 1e-12
    assert np.abs(p @ q.rates).max() <= 1e-10

    field = ScoreField(model, "gibbs")
    qd = dula_generator(field)
    np.testing.assert_allclose(qd.rates, q.rates, atol=1e-12)
    assert np.abs(p @ qd.rates).max() <= 1e-10

    qp = dups_generator(ScoreField(model, "glauber"))
    assert np.abs(qp.rates.sum(axis=1)).max() <= 1e-11
    assert np.abs(p @ qp.rates).max() <= 1e-10


def test_generator_off_diagonals_only_on_edges():
    model = BitsMixture(0.3, 4)
    q = glauber_generator(model).rates
    for k in range(16):
        for j in range(16):
            if k != j and bin(k ^ j).count("1") != 1:
                assert q[k, j] == 0.0


# ---------------------------------------------------------------------------
# scalar steps against matrix rows


@pytest.mark.parametrize("sampler,kind", [
    ("gibbs", None), ("dula", "glauber"), ("dmala", "gibbs"),
    ("dups", "glauber"), ("dmaps", "stein"),
])
def test_step_distribution_matches_matrix_row(sampler, kind):
    model = BitsMixture(0.4, 3)
    eta = 0.7
    field = None if kind is None else ScoreField(model, kind)
    builders = {"gibbs": lambda: gibbs_matrix(model, eta),
                "dula": lambda: dula_matrix(model, field, eta),
                "dmala": lambda: dmala_matrix(model, field, eta),
                "dups": lambda: dups_matrix(model, field, eta),
                "dmaps": lambda: dmaps_matrix(model, field, eta)}
    steps = {"gibbs": lambda x, rng: gibbs_step(model, x, eta, rng),
             "dula": lambda x, rng: dula_step(model, field, x, eta, rng),
             "dmala": lambda x, rng: dmala_step(model, field, x, eta, rng),
             "dups": lambda x, rng: dups_step(model, field, x, eta, rng),
             "dmaps": lambda x, rng: dmaps_step(model, field, x, eta, rng)}
    row = builders[sampler]().probs[5]
    rng = np.random.default_rng(42)
    x = state_of(5, 3)
    n = 20000
    counts = np.zeros(8)
    for _ in range(n):
        counts[steps[sampler](x, rng).next.bits] += 1
    freq = counts / n
    sigma = np.sqrt(row * (1 - row) / n)
    assert (np.abs(freq - row) <= 5 * sigma + 1e-12).all(), (
        f"{sampler}: {freq} vs {row}")


def test_one_shot_step_at_the_largest_dimension():
    """A public one-shot step takes and returns states of dimension
    `MAX_SIM_DIM`, the largest that `BitState` accepts."""
    d = MAX_SIM_DIM
    model = IndependentBits(0.3, d)
    rng = np.random.default_rng(d)
    x = BitState(int.from_bytes(rng.bytes(d // 8), "little"), d)
    out = dula_step(model, ScoreField(model, "glauber"), x, 0.5, rng)
    assert out.accepted and out.next == out.proposal
    assert out.next.dim == d and out.auxiliary is None


@pytest.mark.parametrize("dim", [3, 6, 10, 12])
def test_scalar_dot_products_sum_like_vecdot(dim):
    """The "words" steps' Metropolis dot products add the terms of the set
    bits in ascending coordinate order, which is how `np.vecdot` sums
    vectors this short. Values spread over six decades make the order of
    the additions show in the last bits; both give the same floats."""
    model = IndependentBits(0.3, dim)
    st = kernels.Stepper(model, "dmaps", "glauber", 0.5, "words")
    rng = np.random.default_rng(dim)
    n = 5000
    a, b = rng.normal(size=(2, n, dim)) * 10.0 ** rng.uniform(-3, 3, (2, n, dim))
    plus, minus = rng.random((2, n, dim)) < 0.5
    pow2 = 1 << np.arange(dim)
    plus_words, minus_words = (plus @ pow2).tolist(), (minus @ pow2).tolist()
    rows_a, rows_b = a.tolist(), b.tolist()
    assert ([st._flip_dot(w, ra, rb) for w, ra, rb in zip(plus_words, rows_a, rows_b)]
            == np.vecdot(plus, a - b).tolist())
    assert ([st._move_dot(p, m, ra) for p, m, ra in zip(plus_words, minus_words, rows_a)]
            == np.vecdot(plus - minus.astype(np.float64), a).tolist())


_LEVEL_FAMILIES = {"bits": lambda d: IndependentBits(0.3, d),
                   "mixture": lambda d: BitsMixture(0.3, d),
                   "curieweiss": lambda d: CurieWeiss(0.6 / d, 0.5, d)}


@pytest.mark.parametrize("dim", [13, 24, 40, 64])
@pytest.mark.parametrize("family", sorted(_LEVEL_FAMILIES))
def test_level_tables_equal_the_closed_forms(family, dim):
    """On four random states of every level, each sampler's level-table
    features placed on the state equal the +-1 closed forms bit for bit:
    flip probabilities, logits, tilts and log weights, for every score.
    dmala's per-state base adds its d + 1 terms in the closed form's order
    on the state "first k coordinates +1", so on other states of the level
    it may differ in the last bits: by at most 8 ulps of the sum of the
    terms' magnitudes (4 measured here, at d = 13)."""
    model = _LEVEL_FAMILIES[family](dim)
    rng = np.random.default_rng(dim)
    ranks = rng.random((dim + 1, 4, dim)).argsort(axis=-1)
    signs = np.where(ranks < np.arange(dim + 1)[:, None, None], 1.0, -1.0).reshape(-1, dim)
    words = pack_words(signs > 0)

    def same_bits(got, want):
        np.testing.assert_array_equal(np.asarray(got, dtype=np.float64).view(np.uint64),
                                      np.asarray(want).view(np.uint64))

    for kind in SCORE_KINDS:
        for sampler, eta in (("gibbs", 0.45), ("dula", 1.0), ("dmala", 1.0), ("dups", 1.0),
                             ("dmaps", 1.0)):
            level = kernels.Stepper(model, sampler, kind, eta, "levels")
            closed = kernels.Stepper(model, sampler, kind, eta, "vectors")
            want = (closed._gibbs_probs(signs, model.glauber_score_signs(signs))
                    if sampler == "gibbs" else closed._at(signs))
            got = list(zip(*(level._at(w) for w in words)))
            assert len(got) == len(want)
            for pairs, closed_form in zip(got, want):
                if closed_form.ndim == 2:
                    plus, minus = np.array(pairs).T
                    same_bits(np.where(signs > 0, plus[:, None], minus[:, None]), closed_form)
                    continue
                terms = np.abs(log_expit(-want[1])).sum(axis=-1)
                scale = np.abs(model.log_weight_signs(signs)) + terms
                assert (np.abs(np.array(pairs) - closed_form) <= 8 * np.spacing(scale)).all()
            same_bits([level._log_weight(w) for w in words], model.log_weight_signs(signs))


@pytest.mark.parametrize("family", sorted(_LEVEL_FAMILIES))
def test_gibbs_level_pick_at_the_full_flip_mass(family):
    """A uniform equal to a state's full sequential flip mass lies below its
    level's stay bound, yet no running sum exceeds it, so the level pick
    flips nothing, as the closed form's `np.cumsum` says; one ulp lower, it
    flips the last coordinate."""
    d, eta = 24, 0.45
    model = _LEVEL_FAMILIES[family](d)
    level = kernels.Stepper(model, "gibbs", None, eta, "levels")
    closed = kernels.Stepper(model, "gibbs", None, eta, "vectors")
    rng = np.random.default_rng(d)
    signs = np.where(rng.random((d + 1, d)) < np.linspace(0, 1, d + 1)[:, None], 1.0, -1.0)
    for x, s in zip(pack_words(signs > 0), signs):
        (cum,) = closed._at(s)
        for u, moved in ((cum[-1], 0), (np.nextafter(cum[-1], 0.0), 1 << (d - 1))):
            assert level.step(x, (u,))[0] == x ^ moved
            assert pack_words(closed.step(s, (u,))[0][None] > 0) == [x ^ moved]


@pytest.mark.parametrize("model, kind", [
    (_declaring(IsingGrid(4, 4, 0.3, 0.1), _exchangeable(16, False)), "glauber"),
    (_TiltedStein(0.05, 0.0, 16), "stein"),
], ids=["ising-log-weight", "tilted-stein-score"])
def test_level_tables_of_a_false_exchangeability_raise(model, kind):
    """A target that declares itself exchangeable and is not, in its log
    weight or in a score, fails when the level stepper is built, naming the
    target, and so does a chain run on it."""
    from cubelab.simulate import ChainConfig, run_chain

    for sampler in ("dula", "dmala", "dmaps"):
        with pytest.raises(NumericalError, match="declares every coordinate permutation") as err:
            kernels.Stepper(model, sampler, kind, 0.8, "levels")
        assert repr(model) in str(err.value)
    with pytest.raises(NumericalError, match=re.escape(repr(model))):
        run_chain(ChainConfig("dmala", model, kind, 0.8, steps=10))


def test_level_tables_need_declared_exchangeability():
    model = IsingGrid(4, 4, 0.3, 0.1)
    with pytest.raises(CapabilityError, match="declares every coordinate permutation"):
        kernels.Stepper(model, "dula", "glauber", 0.8, "levels")


def test_level_tables_stop_at_the_level_cap():
    """A level table costs O(d^2) closed-form work to build, so none is
    built above `LEVEL_DIM_CAP`."""
    cap = kernels.LEVEL_DIM_CAP
    model = CurieWeiss(0.3 / cap, 0.0, cap)
    kernels.Stepper(model, "dula", "glauber", 0.8, "levels")
    model = CurieWeiss(0.3 / cap, 0.0, cap + 1)
    with pytest.raises(CapabilityError, match=f"level tables stop at d = {cap}"):
        kernels.Stepper(model, "dula", "glauber", 0.8, "levels")


@pytest.mark.parametrize("sampler", kernels.STEP_SAMPLERS)
def test_level_tables_of_an_overflowing_target_raise(sampler):
    """A level table refuses a target whose log weight overflows, with the
    ParameterError that the tables of all 2^d states raise: the chain fails
    alike at d = 12 (tables) and at d = 13 (levels)."""
    from cubelab.simulate import ChainConfig, run_chain

    score = None if sampler == "gibbs" else "glauber"
    for d in (12, 13):
        model = CurieWeiss(1e307, 0.0, d)
        with pytest.raises(ParameterError, match=re.escape(
                f"{model!r} has a non-finite log weight at state 0x0: inf")):
            run_chain(ChainConfig(sampler, model, score, 0.5, steps=20))


def test_level_tables_name_the_state_of_a_non_finite_level():
    """The level k row is the state whose first k coordinates are +1, word
    2^k - 1; a log weight that overflows on level 3 alone is named there."""

    class Spiked(CurieWeiss):
        def log_weight_signs(self, signs):
            out = super().log_weight_signs(signs)
            return np.where((np.asarray(signs) > 0).sum(axis=-1) == 3, np.inf, out)

    model = Spiked(0.01, 0.0, 16)
    with pytest.raises(ParameterError, match=re.escape("non-finite log weight at state 0x7")):
        kernels.Stepper(model, "dula", "stein", 0.8, "levels")


@pytest.mark.parametrize("sampler", kernels.STEP_SAMPLERS)
def test_steps_refuse_a_start_where_the_closed_forms_overflow(sampler):
    """A +-1 step checks its own state: the log weight of a 4x4 grid at
    J = 1e308 overflows at state 0x1 (20 agreeing edges), and dmala's base
    overflows on `bits` at d = 12 where the log weight and the score do
    not. A run's lockstep chains are checked where they start."""
    from cubelab.simulate import ChainConfig, run_chain

    steps = {"gibbs": gibbs_step, "dula": dula_step, "dmala": dmala_step,
             "dups": dups_step, "dmaps": dmaps_step}
    grid = IsingGrid(4, 4, 1e308, 0.0)
    args = () if sampler == "gibbs" else (ScoreField(grid, "glauber"),)
    with pytest.raises(ParameterError, match=re.escape(
            f"{grid!r} has a non-finite log weight at state 0x1: inf")):
        steps[sampler](grid, *args, state_of(1, 16), 0.5, np.random.default_rng(0))
    with pytest.raises(ParameterError, match=re.escape(f"{grid!r} has a non-finite log weight")):
        run_chain(ChainConfig(sampler, grid, None if sampler == "gibbs" else "glauber", 0.5,
                              steps=5))
    bits = IndependentBits(1.3e307, 12)
    if sampler == "dmala":
        with pytest.raises(ParameterError, match=re.escape(
                f"{bits!r} has a non-finite step feature at state 0x0: -inf")):
            dmala_step(bits, ScoreField(bits, "glauber"), state_of(0, 12), 0.5,
                       np.random.default_rng(0))


def test_a_step_whose_proposal_overflows_is_a_parameter_error():
    """A step checks its own state, and the proposal it reaches is checked
    as it is evaluated: from a finite state of `bits` at beta = 1e307 and
    d = 20 (ten +1 coordinates, log weight 0), every -1 coordinate flips
    with probability 1, and the all-+1 proposal's log weight 2e308
    overflows. No warning escapes."""
    model = IndependentBits(1e307, 20)
    x = state_of((1 << 10) - 1, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match=re.escape(
                f"{model!r} has a non-finite dmala step from state 0x3ff: overflow")):
            dmala_step(model, ScoreField(model, "glauber"), x, 0.5, np.random.default_rng(0))


def test_dmala_steppers_evaluate_the_log_weights_once(monkeypatch):
    """dmala's per-state base reads the log weights its representation
    holds: a table-mode stepper evaluates them once on all 2^d states, a
    level stepper once on each arrangement of its d + 1 levels."""
    calls = []
    evaluate = CurieWeiss.log_weight_signs
    monkeypatch.setattr(CurieWeiss, "log_weight_signs",
                        lambda self, signs: calls.append(np.shape(signs)) or evaluate(self, signs))
    kernels.Stepper(CurieWeiss(0.2, 0.0, 10), "dmala", "glauber", 0.8, "table")
    assert calls == [(1024, 10)]
    calls.clear()
    kernels.Stepper(CurieWeiss(0.02, 0.0, 16), "dmala", "glauber", 0.8, "levels")
    assert calls == [(17, 16), (17, 16)]


def test_dmala_tables_of_an_overflowing_base_raise():
    """dmala's per-state base adds d log-probabilities to the log weight and
    may overflow where neither the log weight nor the score does; the table
    and the level forms refuse it alike, at d = 12 and d = 13."""
    from cubelab.simulate import ChainConfig, run_chain

    for d in (12, 13):
        model = IndependentBits(1.3e307, d)
        with pytest.raises(ParameterError, match=re.escape(
                f"{model!r} has a non-finite step feature at state 0x0: -inf")):
            run_chain(ChainConfig("dmala", model, "glauber", 0.5, steps=20))
